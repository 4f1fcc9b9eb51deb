//! End-to-end platform tests: the full submission → deployment →
//! training → storage → completion pipeline over every substrate.

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
    platform.seed_dataset("acme-data", "imagenet/", 5_000_000_000);
    platform.create_bucket("acme-results");
    (sim, platform)
}

fn manifest(name: &str) -> TrainingManifest {
    TrainingManifest::builder(name)
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .learners(1)
        .data("acme-data", "imagenet/", 5_000_000_000)
        .results("acme-results")
        .iterations(500)
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

#[test]
fn job_runs_to_completion() {
    let (mut sim, platform) = boot(1);
    let job = submit(&mut sim, &platform, manifest("happy"));

    // The ACK means the job is already durable.
    assert_eq!(platform.job_status(&job), Some(JobStatus::Pending));

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );
    assert_eq!(end, Some(JobStatus::Completed), "job must complete");

    // Lifecycle history is ordered and complete.
    let info = platform.job_info(&job).unwrap();
    let statuses: Vec<JobStatus> = info.history.iter().map(|(s, _)| *s).collect();
    assert_eq!(
        statuses,
        vec![
            JobStatus::Pending,
            JobStatus::Deploying,
            JobStatus::Processing,
            JobStatus::Storing,
            JobStatus::Completed
        ]
    );
    // Timestamps are monotone.
    for w in info.history.windows(2) {
        assert!(w[0].1 <= w[1].1, "history timestamps must be ordered");
    }
    // Progress and throughput were recorded.
    assert_eq!(info.iteration, 500);
    let thr = info.images_per_sec.expect("throughput recorded");
    assert!(
        thr > 10.0 && thr < 100.0,
        "K80 ResNet-50 ≈ 50 img/s, got {thr}"
    );

    // Results and logs are in the object store.
    let store = platform.objstore();
    assert!(store
        .head("acme-results", &paths::obj_result_model(&job))
        .is_ok());
    assert!(store.head("acme-results", &paths::obj_log(&job, 0)).is_ok());

    // Everything was garbage collected.
    sim.run_for(SimDuration::from_secs(60));
    assert!(platform
        .kube()
        .pods_matching(&dlaas_kube::labels! {"job" => job.as_str()})
        .is_empty());
    assert!(!platform.nfs().has_volume(&paths::volume(&job)));
}

#[test]
fn status_progression_is_observable_through_the_api() {
    let (mut sim, platform) = boot(2);
    let job = submit(&mut sim, &platform, manifest("observed"));
    let client = platform.client("alice", KEY);

    // Sample the externally visible status as the job advances; it must
    // never move backwards (the §II "accurate status updates" promise).
    let mut seen = Vec::new();
    for _ in 0..200 {
        sim.run_for(SimDuration::from_secs(10));
        let got: Rc<RefCell<Option<JobStatus>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        client.status(&mut sim, job.clone(), move |_s, r| {
            if let Ok(info) = r {
                *g.borrow_mut() = Some(info.status);
            }
        });
        sim.run_for(SimDuration::from_secs(5));
        let observed = *got.borrow();
        if let Some(s) = observed {
            seen.push(s);
            if s.is_terminal() {
                break;
            }
        }
    }
    assert_eq!(*seen.last().unwrap(), JobStatus::Completed);
    for w in seen.windows(2) {
        assert!(
            w[0].rank() <= w[1].rank(),
            "status went backwards: {seen:?}"
        );
    }
}

#[test]
fn learner_pods_exist_while_processing() {
    let (mut sim, platform) = boot(3);
    let m = {
        let mut m = manifest("multi");
        m.learners = 2;
        m.iterations = 2_000;
        m
    };
    let job = submit(&mut sim, &platform, m);
    let s = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    assert_eq!(s, Some(JobStatus::Processing));
    for i in 0..2 {
        assert_eq!(
            platform.kube().pod_phase(&paths::learner_pod(&job, i)),
            Some(PodPhase::Running),
            "learner {i}"
        );
    }
    assert_eq!(
        platform.kube().pod_phase(&paths::helper_pod(&job)),
        Some(PodPhase::Running)
    );
    // Per-learner phases are visible through the API while running.
    sim.run_for(SimDuration::from_mins(2));
    let info = platform.job_info(&job).unwrap();
    assert_eq!(
        info.learners.len(),
        2,
        "both learners mirrored: {:?}",
        info.learners
    );
    assert!(info
        .learners
        .iter()
        .all(|(_, phase)| phase.starts_with("PROCESSING")));

    // Network policies are in force: learners cannot reach core services.
    assert!(!platform.kube().traffic_allowed(
        &paths::learner_pod(&job, 0),
        None,
        Some(dlaas_core::API_SERVICE)
    ));
}

#[test]
fn logs_are_streamed_and_fetchable() {
    let (mut sim, platform) = boot(4);
    let job = submit(&mut sim, &platform, manifest("logged"));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );

    let client = platform.client("alice", KEY);
    let got: Rc<RefCell<Option<Vec<String>>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    client.logs(&mut sim, job.clone(), 0, move |_s, r| {
        *g.borrow_mut() = Some(r.expect("logs available"));
    });
    sim.run_for(SimDuration::from_secs(10));
    let lines = got.borrow().clone().unwrap();
    assert!(lines.len() > 3, "got {} log lines", lines.len());
    assert!(lines.iter().any(|l| l.contains("training started")));
    assert!(lines.iter().any(|l| l.contains("loss=")));
}

#[test]
fn authentication_and_quota_enforced() {
    let (mut sim, platform) = boot(5);
    // Wrong key is rejected.
    let bad_client = platform.client("eve", "wrong-key");
    let got = Rc::new(RefCell::new(None));
    let g = got.clone();
    bad_client.submit(&mut sim, manifest("evil"), move |_s, r| {
        *g.borrow_mut() = Some(r);
    });
    sim.run_for(SimDuration::from_secs(10));
    let r = got.borrow().clone().unwrap();
    match r {
        Err(dlaas_core::ClientError::Rejected(m)) => assert!(m.contains("unauthorized")),
        other => panic!("expected rejection, got {other:?}"),
    }

    // A duplicate bootstrap insert surfaces the store's rejection
    // instead of silently leaving the original in place unnoticed
    // (regression: `add_tenant` used to `let _ =` the insert result).
    assert!(
        platform.add_tenant(&Tenant::new("acme", KEY, 64)).is_err(),
        "duplicate tenant registration must be rejected loudly"
    );

    // A tenant with a 2-GPU quota cannot run a 4-GPU job after a 2-GPU one.
    platform
        .add_tenant(&Tenant::new("small", "key-small", 2))
        .expect("bootstrap tenant insert");
    let client = platform.client("bob", "key-small");
    let mut m1 = manifest("first");
    m1.gpus_per_learner = 2;
    let ok = Rc::new(RefCell::new(None));
    let o = ok.clone();
    client.submit(&mut sim, m1, move |_s, r| *o.borrow_mut() = Some(r));
    sim.run_for(SimDuration::from_secs(10));
    assert!(ok.borrow().clone().unwrap().is_ok());

    let mut m2 = manifest("second");
    m2.gpus_per_learner = 1;
    let queued = Rc::new(RefCell::new(None));
    let q = queued.clone();
    client.submit(&mut sim, m2, move |_s, r| *q.borrow_mut() = Some(r));
    sim.run_for(SimDuration::from_secs(10));
    let j2 = queued
        .borrow()
        .clone()
        .unwrap()
        .expect("over-quota submission is accepted and queued, not rejected");
    assert_eq!(platform.job_status(&j2), Some(JobStatus::Queued));

    // Once the first job terminates and the quota frees up, the
    // admission arbiter promotes the queued job and it runs to the end.
    let end = platform.wait_for_status(
        &mut sim,
        &j2,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );
    assert_eq!(end, Some(JobStatus::Completed), "queued job must drain");
}

#[test]
fn kill_terminates_and_cleans_up() {
    let (mut sim, platform) = boot(6);
    let m = {
        let mut m = manifest("killme");
        m.iterations = 1_000_000; // would run for a long time
        m
    };
    let job = submit(&mut sim, &platform, m);
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );

    let client = platform.client("alice", KEY);
    client.kill(&mut sim, job.clone(), |_s, r| r.expect("kill accepted"));
    sim.run_for(SimDuration::from_secs(30));
    assert_eq!(platform.job_status(&job), Some(JobStatus::Killed));

    sim.run_for(SimDuration::from_secs(60));
    assert!(
        platform
            .kube()
            .pods_matching(&dlaas_kube::labels! {"job" => job.as_str()})
            .is_empty(),
        "all job pods must be gone after kill"
    );
    assert!(!platform.nfs().has_volume(&paths::volume(&job)));
}

#[test]
fn api_tier_scales_elastically_without_disruption() {
    let (mut sim, platform) = boot(8);
    let _client = platform.client("alice", KEY);

    // Scale up to 4 replicas mid-flight, then down to 1; submissions keep
    // working throughout (§I goal 2).
    platform.scale_api(&mut sim, 4);
    sim.run_for(SimDuration::from_secs(15));
    for i in 0..4 {
        assert!(
            platform.kube().pod_ready(&sim, &format!("dlaas-api-{i}")),
            "replica {i} not up after scale-out"
        );
    }
    let j1 = submit(&mut sim, &platform, manifest("during-scaleout"));

    platform.scale_api(&mut sim, 1);
    sim.run_for(SimDuration::from_secs(10));
    assert!(platform.kube().pod_phase("dlaas-api-3").is_none());
    let j2 = submit(&mut sim, &platform, manifest("after-scalein"));

    for j in [&j1, &j2] {
        let end = platform.wait_for_status(
            &mut sim,
            j,
            JobStatus::Completed,
            SimDuration::from_hours(4),
        );
        assert_eq!(end, Some(JobStatus::Completed));
    }
}

#[test]
fn node_maintenance_drain_preserves_running_jobs() {
    let (mut sim, platform) = boot(9);
    let m = {
        let mut m = manifest("maint");
        m.checkpoint_every = 100;
        m.iterations = 1_500;
        m
    };
    let job = submit(&mut sim, &platform, m);
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    sim.run_for(SimDuration::from_mins(5));

    // Drain the learner's node for maintenance: the learner is evicted
    // and rescheduled; the job keeps going from its checkpoint.
    let lpod = paths::learner_pod(&job, 0);
    let node = platform.kube().pod_node(&lpod).unwrap();
    let evicted = platform.kube().drain_node(&mut sim, &node);
    assert!(evicted.contains(&lpod));

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
        "the eviction shows up as a restart"
    );
}

#[test]
fn deterministic_end_to_end() {
    fn run(seed: u64) -> (Vec<(JobStatus, u64)>, Option<f64>) {
        let (mut sim, platform) = boot(seed);
        let job = submit(&mut sim, &platform, manifest("det"));
        platform.wait_for_status(
            &mut sim,
            &job,
            JobStatus::Completed,
            SimDuration::from_hours(4),
        );
        let info = platform.job_info(&job).unwrap();
        (info.history, info.images_per_sec)
    }
    assert_eq!(run(7), run(7));
}
