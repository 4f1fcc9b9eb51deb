//! The dependability test suite: every §II guarantee, exercised by
//! crashing the component it protects against.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_core::{paths, DlaasPlatform, JobId, JobStatus, Tenant, TrainingManifest};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_kube::PodPhase;
use dlaas_sim::{Sim, SimDuration};

const KEY: &str = "key-acme";

fn boot(seed: u64) -> (Sim, DlaasPlatform) {
    let mut sim = Sim::new(seed);
    let platform = DlaasPlatform::bootstrapped(&mut sim);
    platform
        .add_tenant(&Tenant::new("acme", KEY, 64))
        .expect("bootstrap tenant insert");
    platform.seed_dataset("acme-data", "d/", 2_000_000_000);
    platform.create_bucket("acme-results");
    (sim, platform)
}

fn manifest(name: &str, iters: u64, ckpt: u64) -> TrainingManifest {
    TrainingManifest::builder(name)
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .learners(1)
        .data("acme-data", "d/", 2_000_000_000)
        .results("acme-results")
        .iterations(iters)
        .checkpoint_every(ckpt)
        .build()
        .unwrap()
}

fn submit(sim: &mut Sim, platform: &DlaasPlatform, m: TrainingManifest) -> JobId {
    let client = platform.client("alice", KEY);
    let got: Rc<RefCell<Option<Result<JobId, _>>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    client.submit(sim, m, move |_s, r| *g.borrow_mut() = Some(r));
    sim.run_until_pred(|_| got.borrow().is_some());
    let r = got.borrow().clone().unwrap();
    r.expect("submission accepted")
}

/// §III-c: "submitted jobs are never lost" — the ACK means the job is on
/// disk; even if every core service and the metadata store crash right
/// after, the job is eventually deployed and completed.
#[test]
fn acknowledged_submission_survives_total_core_crash() {
    let (mut sim, platform) = boot(11);
    let job = submit(&mut sim, &platform, manifest("survivor", 400, 0));

    // Nuke everything the instant the ACK lands.
    let kube = platform.kube().clone();
    kube.crash_pod(&mut sim, "dlaas-api-0");
    kube.crash_pod(&mut sim, "dlaas-api-1");
    kube.crash_pod(&mut sim, "dlaas-lcm-0");
    platform.crash_mongo(&mut sim, Some(SimDuration::from_secs(4)));

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );
    assert_eq!(end, Some(JobStatus::Completed), "accepted job was lost");
}

/// §III-d: a Guardian crash mid-deployment triggers rollback and a fresh
/// attempt; the job still completes and resources are exactly right.
#[test]
fn guardian_crash_mid_deploy_rolls_back_and_completes() {
    let (mut sim, platform) = boot(12);
    let job = submit(&mut sim, &platform, manifest("rollback", 400, 0));

    // Crash the Guardian as soon as the job is DEPLOYING (mid-steps).
    let s = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Deploying,
        SimDuration::from_mins(10),
    );
    assert_eq!(s, Some(JobStatus::Deploying));
    let gpod = paths::guardian_job(&job);
    assert!(
        platform.kube().crash_pod(&mut sim, &gpod),
        "guardian must be running"
    );

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );
    assert_eq!(end, Some(JobStatus::Completed));

    // The K8s Job restarted the Guardian at least once.
    assert!(platform.kube().pod_restarts(&gpod).unwrap_or(0) >= 1);
    // Deployment was retried (attempts counter in the job document).
    let doc = platform.job_document(&job).unwrap();
    let attempts = doc
        .path("attempts")
        .and_then(dlaas_docstore::Value::as_i64)
        .unwrap();
    assert!(
        attempts >= 2,
        "rollback must burn a deploy attempt, got {attempts}"
    );
}

/// §III-d: persistent deployment failure → after the configured number of
/// attempts the job is marked FAILED, and **atomically**: no partial
/// resources survive.
#[test]
fn persistent_guardian_failure_marks_job_failed_atomically() {
    let (mut sim, platform) = boot(13);
    let job = submit(&mut sim, &platform, manifest("doomed", 400, 0));
    let gpod = paths::guardian_job(&job);

    // Kill the Guardian every time it shows up, until the platform gives up.
    let kube = platform.kube().clone();
    let deadline = sim.now() + SimDuration::from_hours(6);
    loop {
        match platform.job_status(&job) {
            Some(s) if s.is_terminal() => break,
            _ => {}
        }
        assert!(sim.now() < deadline, "platform never gave up");
        if kube.pod_phase(&gpod) == Some(PodPhase::Running) {
            kube.crash_pod(&mut sim, &gpod);
        }
        sim.run_for(SimDuration::from_secs(2));
    }
    assert_eq!(platform.job_status(&job), Some(JobStatus::Failed));

    // Atomicity: nothing of the job remains.
    sim.run_for(SimDuration::from_mins(2));
    assert!(
        platform
            .kube()
            .pods_matching(&dlaas_kube::labels! {"job" => job.as_str(), "role" => "learner"})
            .is_empty(),
        "partial deployment leaked learners"
    );
    assert!(!platform.nfs().has_volume(&paths::volume(&job)));
}

/// §III-g/h: a crashed learner is restarted by K8s and resumes from the
/// latest checkpoint; the user sees the restart count.
#[test]
fn learner_crash_resumes_from_checkpoint() {
    let (mut sim, platform) = boot(14);
    let job = submit(&mut sim, &platform, manifest("resume", 1500, 200));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );

    // Let it train past a few checkpoints, then crash the learner.
    sim.run_for(SimDuration::from_mins(10));
    let lpod = paths::learner_pod(&job, 0);
    assert!(platform.kube().crash_pod(&mut sim, &lpod));

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(6),
    );
    assert_eq!(end, Some(JobStatus::Completed));

    let info = platform.job_info(&job).unwrap();
    assert!(
        info.learner_restarts >= 1,
        "users must be notified of restarts (§II), got {}",
        info.learner_restarts
    );
    // A checkpoint exists in the object store.
    assert!(platform
        .objstore()
        .head("acme-results", &paths::obj_ckpt_meta(&job))
        .is_ok());
    // The learner's log shows the restart + resume.
    let mongo_doc = platform.job_document(&job).unwrap();
    drop(mongo_doc);
    let log = platform
        .objstore()
        .list("acme-results", &format!("logs/{job}/"));
    assert!(!log.is_empty());
}

/// Without checkpoints the learner restarts from iteration 0 — slower,
/// but the job still completes (§III-g trade-off).
#[test]
fn learner_crash_without_checkpoints_still_completes() {
    let (mut sim, platform) = boot(15);
    let job = submit(&mut sim, &platform, manifest("restart0", 600, 0));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    sim.run_for(SimDuration::from_mins(5));
    platform
        .kube()
        .crash_pod(&mut sim, &paths::learner_pod(&job, 0));
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(6),
    );
    assert_eq!(end, Some(JobStatus::Completed));
}

/// §III-f: status updates survive helper (controller) crashes — the
/// controller rebuilds from NFS, and the etcd record is already durable.
#[test]
fn helper_crash_does_not_interrupt_status_flow() {
    let (mut sim, platform) = boot(16);
    let job = submit(&mut sim, &platform, manifest("helpercrash", 1200, 0));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );

    let hpod = paths::helper_pod(&job);
    assert!(platform.kube().crash_pod(&mut sim, &hpod));
    sim.run_for(SimDuration::from_mins(1));
    assert_eq!(
        platform.kube().pod_phase(&hpod),
        Some(PodPhase::Running),
        "helper restarted"
    );

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(6),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    let info = platform.job_info(&job).unwrap();
    assert_eq!(
        info.iteration, 1200,
        "progress tracking must survive the crash"
    );
}

/// §III-f: etcd is 3-way replicated — losing one replica is invisible.
#[test]
fn etcd_node_crash_is_tolerated() {
    let (mut sim, platform) = boot(17);
    let job = submit(&mut sim, &platform, manifest("etcdcrash", 800, 0));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );

    let victim = platform.etcd().leader_id().unwrap();
    platform.etcd().crash(&mut sim, victim);

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(6),
    );
    assert_eq!(end, Some(JobStatus::Completed));
}

/// The metadata store is journaled: crash + recovery preserves every
/// acknowledged document and the job proceeds.
#[test]
fn mongo_crash_recovery_preserves_state() {
    let (mut sim, platform) = boot(18);
    let job = submit(&mut sim, &platform, manifest("mongocrash", 800, 0));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );

    platform.crash_mongo(&mut sim, Some(SimDuration::from_secs(5)));
    sim.run_for(SimDuration::from_secs(30));

    assert!(platform.job_status(&job).is_some(), "job record recovered");
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(6),
    );
    assert_eq!(end, Some(JobStatus::Completed));
}

/// A learner that keeps crashing exhausts its restart budget; the
/// controller reports FAILED, the Guardian fails the job and cleans up.
#[test]
fn learner_failure_budget_fails_the_job() {
    let (mut sim, platform) = boot(19);
    let job = submit(&mut sim, &platform, manifest("flaky", 1_000_000, 0));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );

    let lpod = paths::learner_pod(&job, 0);
    let kube = platform.kube().clone();
    let deadline = sim.now() + SimDuration::from_hours(12);
    loop {
        match platform.job_status(&job) {
            Some(s) if s.is_terminal() => break,
            _ => {}
        }
        assert!(sim.now() < deadline, "job never failed");
        if kube.pod_phase(&lpod) == Some(PodPhase::Running) {
            kube.crash_pod(&mut sim, &lpod);
        }
        sim.run_for(SimDuration::from_secs(30));
    }
    assert_eq!(platform.job_status(&job), Some(JobStatus::Failed));
}

/// A job requesting hardware the cluster does not have must not hang in
/// DEPLOYING forever: the LCM's deploy timeout fails it and cleans up.
#[test]
fn unschedulable_job_fails_after_deploy_timeout() {
    let (mut sim, platform) = boot(36);
    let mut m = manifest("impossible", 300, 0);
    m.gpu_kind = dlaas_gpu::GpuKind::V100Sxm2; // the cluster has none
    let job = submit(&mut sim, &platform, m);

    // It deploys (guardian runs, helper comes up) but learners never
    // schedule; after the deploy timeout the platform gives up cleanly.
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(2),
    );
    assert_eq!(end, Some(JobStatus::Failed), "must fail, not hang");

    sim.run_for(SimDuration::from_mins(2));
    assert!(
        platform
            .kube()
            .pods_matching(&dlaas_kube::labels! {"job" => job.as_str()})
            .is_empty(),
        "undeployable job must be fully cleaned up"
    );
    assert!(!platform.nfs().has_volume(&paths::volume(&job)));
}

/// A transient object-store outage during data staging: load-data keeps
/// retrying (the job sits in DEPLOYING/PROCESSING-pending-data) and the
/// job completes once the store returns — no operator action needed.
#[test]
fn object_store_outage_during_data_staging_is_ridden_out() {
    let (mut sim, platform) = boot(35);
    // Break the store before the job's data can be staged.
    platform.objstore().set_unavailable(true);
    let job = submit(&mut sim, &platform, manifest("cos-outage", 300, 0));

    sim.run_for(SimDuration::from_mins(5));
    let mid = platform.job_status(&job).unwrap();
    assert!(
        !mid.is_terminal(),
        "outage must not fail the job, got {mid}"
    );

    platform.objstore().set_unavailable(false);
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );
    assert_eq!(end, Some(JobStatus::Completed));
}

/// §III-c: API instances are load-balanced with fail-over; losing one
/// replica does not interrupt service.
#[test]
fn api_replica_crash_fails_over() {
    let (mut sim, platform) = boot(20);
    platform.kube().crash_pod(&mut sim, "dlaas-api-0");
    // Submit immediately — the live replica (or a retry) must serve it.
    let job = submit(&mut sim, &platform, manifest("failover", 300, 0));
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );
    assert_eq!(end, Some(JobStatus::Completed));
}

/// A whole GPU node dies: the StatefulSet reschedules the learner onto
/// another node of the same GPU class and training resumes.
#[test]
fn gpu_node_crash_reschedules_learner() {
    let (mut sim, platform) = boot(21);
    sim.trace_mut().set_enabled(true);
    let job = submit(&mut sim, &platform, manifest("nodecrash", 1200, 200));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    sim.run_for(SimDuration::from_mins(5));

    let lpod = paths::learner_pod(&job, 0);
    let node = platform.kube().pod_node(&lpod).expect("learner placed");
    platform.kube().crash_node(&mut sim, &node);

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(6),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    // It really moved: the learner's eviction is on its job's timeline.
    sim.run_for(SimDuration::from_secs(1));
    let timeline = sim.trace().of(job.as_str());
    assert!(timeline.marks().any(|m| m.what == "NodeLost"), "{timeline}");
}

/// §III-h recovery option 2: in a distributed TensorFlow job a restarted
/// learner rejoins and picks up the current parameters from the
/// parameter server (its peers' progress), even with checkpointing off.
#[test]
fn distributed_learner_rejoins_via_parameter_server() {
    let (mut sim, platform) = boot(30);
    let mut m = manifest("ps-rejoin", 3_000, 0); // no checkpoints
    m.learners = 2;
    let job = submit(&mut sim, &platform, m);
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    sim.run_for(SimDuration::from_mins(15)); // accumulate progress

    let progress_before = platform.job_info(&job).unwrap().iteration;
    assert!(progress_before > 100, "need real progress first");
    platform
        .kube()
        .crash_pod(&mut sim, &paths::learner_pod(&job, 1));

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(8),
    );
    assert_eq!(end, Some(JobStatus::Completed));

    // The restarted learner's log shows the PS rejoin, at an iteration
    // near its peers' progress (not zero).
    let log = platform
        .objstore()
        .read_text("acme-results", &paths::obj_log(&job, 1))
        .expect("log uploaded");
    let rejoin = log
        .lines()
        .find(|l| l.contains("rejoined via parameter server"))
        .expect("learner must rejoin via the parameter server");
    let iter: u64 = rejoin
        .rsplit(' ')
        .next()
        .and_then(|s| s.parse().ok())
        .expect("rejoin line carries the iteration");
    assert!(
        iter + 500 >= progress_before,
        "rejoined at {iter}, but peers were at {progress_before}"
    );
}

/// Caffe has no parameter server: without checkpoints, a crashed
/// distributed Caffe learner restarts from iteration 0.
#[test]
fn caffe_learner_cannot_rejoin_without_checkpoint() {
    let (mut sim, platform) = boot(33);
    let mut m = manifest("caffe-restart", 2_000, 0);
    m.framework = Framework::Caffe;
    m.model = DlModel::Vgg16;
    m.learners = 2;
    let job = submit(&mut sim, &platform, m);
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    sim.run_for(SimDuration::from_mins(10));
    platform
        .kube()
        .crash_pod(&mut sim, &paths::learner_pod(&job, 1));
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(12),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    let log = platform
        .objstore()
        .read_text("acme-results", &paths::obj_log(&job, 1))
        .expect("log uploaded");
    assert!(
        !log.contains("rejoined via parameter server"),
        "Caffe must not use the PS path"
    );
    assert!(
        log.contains("training started at iter 0"),
        "Caffe learner restarts from scratch"
    );
}

/// §III-c metering: the API service accounts requests per key.
#[test]
fn api_meters_requests_per_key() {
    let (mut sim, platform) = boot(34);
    let client = platform.client("metered", KEY);
    let job = submit(&mut sim, &platform, manifest("metered", 300, 0));
    for _ in 0..3 {
        client.status(&mut sim, job.clone(), |_s, r| {
            r.unwrap();
        });
        sim.run_for(SimDuration::from_secs(5));
    }
    client.jobs(&mut sim, |_s, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(5));

    let meters = platform.metering(KEY).expect("metering recorded");
    let get = |k: &str| {
        meters
            .iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(get("submit"), 1);
    assert_eq!(get("status"), 3);
    assert_eq!(get("list"), 1);

    // Unauthorized probes are metered too (by key).
    let bad = platform.client("eve", "bad-key");
    bad.jobs(&mut sim, |_s, _r| {});
    sim.run_for(SimDuration::from_secs(5));
    assert!(platform.metering("bad-key").is_some());
}

/// Race: the user kills the job while the Guardian is mid-deployment.
/// The LCM tears down what exists; the Guardian may still be creating
/// resources, but its next poll sees the terminal status and exits, and
/// the scan GCs any stragglers — the end state is KILLED with nothing
/// left, never a zombie deployment.
#[test]
fn kill_during_deployment_leaves_nothing_behind() {
    let (mut sim, platform) = boot(38);
    let job = submit(&mut sim, &platform, manifest("kill-race", 1_000, 0));
    let s = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Deploying,
        SimDuration::from_mins(10),
    );
    assert_eq!(s, Some(JobStatus::Deploying));

    let client = platform.client("alice", KEY);
    client.kill(&mut sim, job.clone(), |_s, r| r.expect("kill accepted"));
    sim.run_for(SimDuration::from_mins(2));
    assert_eq!(platform.job_status(&job), Some(JobStatus::Killed));

    // Give the scan time to GC anything the racing Guardian recreated.
    sim.run_for(SimDuration::from_mins(2));
    let leftovers = platform
        .kube()
        .pods_matching(&dlaas_kube::labels! {"job" => job.as_str()});
    assert!(leftovers.is_empty(), "zombie resources: {leftovers:?}");
    assert!(!platform.nfs().has_volume(&paths::volume(&job)));
}

/// Race: Guardian and controller both crash during the STORING phase.
/// The restarted pair must pick the transfer back up (NFS markers and
/// etcd keys are durable) and complete the job.
#[test]
fn double_crash_during_storing_still_completes() {
    let (mut sim, platform) = boot(39);
    let job = submit(&mut sim, &platform, manifest("storing-race", 300, 0));
    let s = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Storing,
        SimDuration::from_hours(2),
    );
    assert_eq!(s, Some(JobStatus::Storing));

    platform
        .kube()
        .crash_pod(&mut sim, &paths::guardian_job(&job));
    platform
        .kube()
        .crash_pod(&mut sim, &paths::helper_pod(&job));

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    assert!(platform
        .objstore()
        .head("acme-results", &paths::obj_result_model(&job))
        .is_ok());
}

/// The log stream survives learner crashes: lines from before the crash
/// are in the object store even though the learner process died (§II).
#[test]
fn logs_survive_learner_crash() {
    let (mut sim, platform) = boot(22);
    let job = submit(&mut sim, &platform, manifest("logcrash", 1_000_000, 0));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    sim.run_for(SimDuration::from_mins(3));

    platform
        .kube()
        .crash_pod(&mut sim, &paths::learner_pod(&job, 0));
    sim.run_for(SimDuration::from_secs(10));

    let obj = platform
        .objstore()
        .head("acme-results", &paths::obj_log(&job, 0));
    assert!(obj.is_ok(), "pre-crash log lines must already be uploaded");

    // And the uploaded log keeps growing after recovery.
    let (size_before, _) = obj.unwrap();
    sim.run_for(SimDuration::from_mins(5));
    let (size_after, _) = platform
        .objstore()
        .head("acme-results", &paths::obj_log(&job, 0))
        .unwrap();
    assert!(size_after > size_before, "log collection must resume");
}
