//! Admission on a job's end: the Guardian that saw its job's terminal
//! status acknowledged hints the LCM, and the leader admits the next
//! queued job at once instead of at its next scan tick. A standby passes
//! a hint on to the leader once; a round's feed read is single-flight.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use dlaas_core::marks::{guardian, lcm};
use dlaas_core::{
    config, metrics, paths, CoreRequest, DlaasPlatform, JobId, JobStatus, Tenant, TrainingManifest,
};
use dlaas_docstore::Value;
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_integration::{boot_in, submit_blocking};
use dlaas_kube::pod_addr;
use dlaas_net::Addr;
use dlaas_sim::{Sim, SimDuration, SimTime};

fn one_gpu(name: &str, iters: u64) -> TrainingManifest {
    TrainingManifest::builder(name)
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .learners(1)
        .data("itest-data", "d/", 2_000_000_000)
        .results("itest-results")
        .iterations(iters)
        .build()
        .expect("valid manifest")
}

/// A tenant whose 1-GPU quota a running job holds, and a second job of
/// its QUEUED behind it, both on the leader's watchlist.
fn quota_held(sim: &mut Sim, platform: &DlaasPlatform, iters: u64) -> (JobId, JobId) {
    platform
        .add_tenant(&Tenant::new("hq", "hq-key", 1))
        .expect("tenant insert");
    let client = platform.client("hq", "hq-key");
    let running = submit_blocking(sim, &client, one_gpu("holder", iters));
    let queued = submit_blocking(sim, &client, one_gpu("waiter", 50));
    assert_eq!(platform.job_status(&queued), Some(JobStatus::Queued));
    let started = platform.wait_for_status(
        sim,
        &running,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    assert_eq!(started, Some(JobStatus::Processing));
    sim.run_for(config::LCM_SCAN);
    (running, queued)
}

/// The LCM replica holding the leader key, and the other one.
fn leader_and_standby(platform: &DlaasPlatform) -> (String, String) {
    let etcd = platform.etcd();
    let leader = etcd.leader_id().expect("etcd has a leader");
    let holder = etcd
        .kv_snapshot(leader)
        .get(&paths::lcm_shard_owner(0))
        .map(|v| v.value.clone())
        .expect("the LCM has a leader");
    let other = ["dlaas-lcm-0", "dlaas-lcm-1"]
        .into_iter()
        .find(|pod| *pod != holder)
        .expect("two replicas");
    (holder, other.to_owned())
}

/// `dlaas_lcm_admission_hints_total{outcome}`.
fn hints(platform: &DlaasPlatform, outcome: &str) -> u64 {
    platform
        .metrics()
        .counter_value(metrics::LCM_ADMISSION_HINTS, &[("outcome", outcome)])
}

/// Change-feed reads served so far (the leader's rounds, two each).
fn feed_reads(platform: &DlaasPlatform) -> u64 {
    platform
        .metrics()
        .histogram(metrics::MONGO_DOCS_EXAMINED, &[("op", "find_changed")])
        .map_or(0, |h| h.count())
}

/// Delivers the hint that `job` ended to the LCM replica `pod`, as its
/// Guardian would.
fn hint(sim: &mut Sim, platform: &DlaasPlatform, pod: &str, job: &JobId) {
    let req = CoreRequest::JobEnded {
        job: job.clone(),
        forwarded: false,
    };
    let to = pod_addr(pod);
    let from = Addr::new("hint-test");
    let timeout = SimDuration::from_secs(1);
    platform
        .handles()
        .rpc
        .call(sim, from, to, req, timeout, |_sim, r| {
            r.expect("the LCM answers a hint");
        });
}

/// The job a quota-limited tenant queued behind its running one is
/// admitted within a second of the running job's terminal status being
/// acknowledged. Admission used to run only at the LCM's scan tick, so
/// the freed GPU sat idle for up to `LCM_SCAN` (13.8 s on this seed).
#[test]
fn a_job_end_admits_the_next_queued_job_within_a_second() {
    let mut sim = Sim::new(5901);
    let acked: Rc<RefCell<BTreeMap<String, SimTime>>> = Rc::default();
    let acked2 = acked.clone();
    sim.tap(const { &[&guardian::COMPLETED] }, move |sim, job, _, _| {
        acked2.borrow_mut().insert(job.to_string(), sim.now());
        true
    });
    let (mut sim, platform) = boot_in(sim);
    let (running, queued) = quota_held(&mut sim, &platform, 200);
    let end = platform.wait_for_status(
        &mut sim,
        &running,
        JobStatus::Completed,
        SimDuration::from_hours(1),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    sim.run_for(config::LCM_SCAN * 2);

    let ended = acked.borrow()[running.as_str()];
    let doc = platform.job_document(&queued).expect("queued job document");
    let admitted_us = doc
        .path("admitted_us")
        .and_then(Value::as_i64)
        .expect("the queued job was admitted");
    let admitted = SimTime::from_micros(admitted_us as u64);
    let wait = admitted.saturating_duration_since(ended);
    assert!(
        ended <= admitted && wait <= SimDuration::from_secs(1),
        "{queued} admitted {wait:?} after {running}'s end ({ended:?} → {admitted:?})"
    );
    assert!(hints(&platform, "ran") >= 1);
}

/// With two replicas the service resolver sends half of all hints to the
/// standby, which forwards each to the holder it saw claim the key: the
/// leader runs the round, and both steps are on the job's timeline.
#[test]
fn a_hint_to_the_standby_admits_through_the_leader() {
    let mut sim = Sim::new(5902);
    sim.trace_mut().set_enabled(true);
    let (mut sim, platform) = boot_in(sim);
    let (running, _queued) = quota_held(&mut sim, &platform, 5_000);
    let (_leader, standby) = leader_and_standby(&platform);

    hint(&mut sim, &platform, &standby, &running);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(hints(&platform, "forwarded"), 1);
    assert!(hints(&platform, "ran") >= 1);
    assert_eq!(hints(&platform, "dropped"), 0);
    assert_eq!(hints(&platform, "unanswered"), 0);
    let timeline = sim.trace().of(running.as_str()).to_string();
    let marks: Vec<&str> = timeline
        .lines()
        .filter(|line| line.contains(lcm::ADMISSION_HINT.what))
        .collect();
    assert_eq!(marks.len(), 2, "{timeline}");
}

/// A forwarded hint is never forwarded again. Staged so that each
/// replica names the other as holder: the standby is cut off from etcd
/// (it keeps the holder it saw), and the key is then rewritten to name
/// the standby, which the leader sees and stands down for. Each hint is
/// forwarded once and dropped where it lands, and nothing follows.
#[test]
fn a_forwarded_hint_is_never_forwarded_again() {
    let (mut sim, platform) = boot_in(Sim::new(5903));
    let (running, _queued) = quota_held(&mut sim, &platform, 5_000);
    let (leader, standby) = leader_and_standby(&platform);

    let servers: Vec<Addr> = (0..platform.etcd().len() as u32)
        .map(dlaas_etcd::etcd_addr)
        .collect();
    let cut = vec![vec![Addr::new(format!("etcdc/{standby}"))], servers];
    let etcd = platform.etcd();
    etcd.rpc().net().partition(&mut sim, cut.clone());
    etcd.watch_net().partition(&mut sim, cut);
    let writer = etcd.client("hint-test");
    let written = Rc::new(Cell::new(false));
    let written2 = written.clone();
    writer.put(
        &mut sim,
        paths::lcm_shard_owner(0),
        standby.clone(),
        move |_sim, r| {
            r.expect("the key is rewritten");
            written2.set(true);
        },
    );
    // The leader's next reconcile finds the key naming another pod.
    sim.run_for(config::LCM_SCAN * 2);
    assert!(written.get());
    assert!(
        platform
            .metrics()
            .counter_value(metrics::LCM_SHARD_LOSSES, &[("reason", "displaced")])
            >= 1,
        "{leader} still leads"
    );

    for (k, pod) in [&standby, &leader].into_iter().enumerate() {
        hint(&mut sim, &platform, pod, &running);
        sim.run_for(SimDuration::from_secs(1));
        let n = k as u64 + 1;
        assert_eq!(
            (hints(&platform, "forwarded"), hints(&platform, "dropped")),
            (n, n),
            "after a hint to {pod}"
        );
    }
    sim.run_for(config::LCM_SCAN);
    assert_eq!(
        (hints(&platform, "forwarded"), hints(&platform, "dropped")),
        (2, 2)
    );
    assert_eq!(hints(&platform, "ran") + hints(&platform, "coalesced"), 0);
}

/// Hints that arrive while a round's feed read is in flight do not read
/// again at once (a second read from the same watermark would be dropped
/// as stale): however many there are, the round runs once more when its
/// read lands. Staged between two scan ticks of the leader.
#[test]
fn hints_during_a_round_cost_exactly_one_more_round() {
    let mut sim = Sim::new(5904);
    let up: Rc<RefCell<BTreeMap<String, SimTime>>> = Rc::default();
    let up2 = up.clone();
    sim.tap(const { &[&lcm::UP] }, move |sim, pod, _, _| {
        up2.borrow_mut().insert(pod.to_string(), sim.now());
        true
    });
    let (mut sim, platform) = boot_in(sim);
    let (running, _queued) = quota_held(&mut sim, &platform, 5_000);
    let (leader, _standby) = leader_and_standby(&platform);

    // Halfway between two of the leader's ticks.
    let mut tick = up.borrow()[&leader];
    while tick < sim.now() {
        tick += config::LCM_SCAN;
    }
    sim.run_for(tick.saturating_duration_since(sim.now()) + config::LCM_SCAN / 2);

    // The moment the first hint starts a round, three more are sent.
    let p = platform.clone();
    let (job, pod) = (running.clone(), leader.clone());
    sim.tap(
        const { &[&lcm::ADMISSION_HINT] },
        move |sim, _, _, outcome| {
            if outcome != 0 {
                return true;
            }
            for _ in 0..3 {
                hint(sim, &p, &pod, &job);
            }
            false
        },
    );
    let reads = feed_reads(&platform);
    hint(&mut sim, &platform, &leader, &running);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(hints(&platform, "ran"), 1);
    assert_eq!(hints(&platform, "coalesced"), 3);
    assert_eq!(feed_reads(&platform) - reads, 4, "two rounds of two reads");
}
