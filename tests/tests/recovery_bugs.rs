//! Regression tests for the crash-recovery bugs flushed out by the
//! fault-matrix campaign (`dlaas-bench --bin fault_matrix`). Each test
//! reproduces the exact fault timing that exposed the bug and fails
//! against the pre-fix behaviour.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dlaas_bench::harness::reported_iteration;
use dlaas_core::marks::lcm;
use dlaas_core::{
    check_invariants, config, metrics, paths, DlaasPlatform, InvariantMonitor, JobStatus,
    LearnerPhase, MetaClient, PlatformConfig, JOBS,
};
use dlaas_docstore::{Filter, Update, Value};
use dlaas_etcd::KvEvent;
use dlaas_faults::{nfs_outage_window, partition_window, when};
use dlaas_integration::{boot, boot_in, boot_with, manifest, start_training, submit_blocking, KEY};
use dlaas_kube::labels;
use dlaas_net::Addr;
use dlaas_sim::{Sim, SimDuration, SimTime};

/// The LCM replica currently holding the leader key, read off the etcd
/// leader's store.
fn lcm_leader(platform: &DlaasPlatform) -> Option<String> {
    let leader = platform.etcd().leader_id()?;
    platform
        .etcd()
        .kv_snapshot(leader)
        .get(&paths::lcm_shard_owner(0))
        .map(|v| v.value.clone())
}

/// Bug 1: a Guardian incarnation whose `inc("attempts")` write never
/// became durable used to proceed with the deployment anyway, so the
/// §III-d attempts bound was counted against a phantom record and a
/// crash-looping deploy could retry forever. The Guardian must abort
/// the incarnation (non-zero exit) until the attempts record is
/// durable, so the completed job always shows `attempts >= 1`.
#[test]
fn guardian_aborts_incarnation_until_attempts_write_is_durable() {
    let (mut sim, platform) = boot(301);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("attempts-durable", 120));

    // Stall every Mongo write before the Guardian's first boot (the
    // LCM has not scheduled it yet at ACK time). Each boot in this
    // window must fail fast instead of deploying unrecorded.
    platform.set_mongo_write_failures(&mut sim, true);
    sim.run_for(SimDuration::from_secs(20));
    let attempts_during = platform
        .job_document(&job)
        .and_then(|d| d.path("attempts").and_then(Value::as_i64))
        .unwrap_or(0);
    assert_eq!(
        attempts_during, 0,
        "no attempt may be consumed while the record cannot be made durable"
    );

    platform.set_mongo_write_failures(&mut sim, false);
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_mins(30),
    );
    assert_eq!(end, Some(JobStatus::Completed), "{job} did not recover");
    let attempts = platform
        .job_document(&job)
        .and_then(|d| d.path("attempts").and_then(Value::as_i64))
        .unwrap_or(0);
    assert!(
        attempts >= 1,
        "completed deployment left no durable attempts record (got {attempts})"
    );
}

/// Bug 2: a Guardian that crashed during STORING resumed monitoring
/// with its `moved_*` flags unseeded, so the replacement incarnation
/// re-drove the STORING transition and its duplicate `store = go` put
/// clobbered the helper's `store = done` handshake. Crash the
/// Guardian (and the helper, whose restarted controller re-relays the
/// learner keys and so triggers the resumed Guardian's watch-driven
/// aggregation before its first full poll) right after `store = done`
/// lands: the handshake must never regress and the job must complete.
#[test]
fn guardian_crash_during_storing_never_clobbers_store_done() {
    let (mut sim, platform) = boot(302);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("storing-crash", 60));

    // Run until the helper has written `store = done` to etcd but the
    // Guardian has not yet marked the job COMPLETED. The Guardian hears
    // of the key through its watch, so that window is only the few
    // milliseconds its two metadata-store writes take: step finely once
    // the job is STORING.
    let store_key = paths::etcd_store(&job);
    let store_value = |platform: &dlaas_core::DlaasPlatform| -> Option<String> {
        let leader = platform.etcd().leader_id()?;
        let kv = platform.etcd().kv_snapshot(leader);
        kv.get_prefix(&store_key)
            .iter()
            .find(|(k, _)| *k == store_key)
            .map(|(_, v)| v.clone())
    };
    let mid = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Storing,
        SimDuration::from_mins(30),
    );
    assert_eq!(mid, Some(JobStatus::Storing), "{job} never reached STORING");
    let deadline = sim.now() + SimDuration::from_mins(5);
    loop {
        assert!(sim.now() < deadline, "{job} never reached store = done");
        if store_value(&platform).as_deref() == Some("done") {
            break;
        }
        assert!(
            !platform
                .job_status(&job)
                .is_some_and(dlaas_core::JobStatus::is_terminal),
            "job went terminal before the crash could be staged"
        );
        sim.run_for(SimDuration::from_micros(200));
    }
    assert_eq!(
        platform.job_status(&job),
        Some(JobStatus::Storing),
        "crash must land inside the STORING window"
    );

    platform
        .kube()
        .crash_pod(&mut sim, &paths::guardian_job(&job));
    platform
        .kube()
        .crash_pod(&mut sim, &paths::helper_pod(&job));

    // The handshake may only move forward: once "done", never "go"
    // again (the regression left the job stuck in STORING forever or
    // forced a second result upload).
    let deadline = sim.now() + SimDuration::from_mins(30);
    loop {
        if let Some(v) = store_value(&platform) {
            assert_ne!(v, "go", "store handshake regressed from done to go");
        }
        if platform
            .job_status(&job)
            .is_some_and(dlaas_core::JobStatus::is_terminal)
        {
            break;
        }
        assert!(sim.now() < deadline, "{job} lost after crash");
        sim.run_for(SimDuration::from_millis(50));
    }
    assert_eq!(platform.job_status(&job), Some(JobStatus::Completed));
    sim.run_for(config::LCM_SCAN * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// Watch registrations held by the etcd servers, all of them.
fn server_watches(platform: &DlaasPlatform) -> usize {
    let etcd = platform.etcd();
    (0..etcd.len() as u32)
        .map(|id| etcd.core(id).borrow().watch_registrations().len())
        .sum()
}

/// Bug 3: every LCM teardown used to open a fresh etcd client for the
/// key sweep and never close it, so each garbage-collected job leaked
/// a watch-net endpoint. Teardown now reuses the shared `lcm-gc`
/// handle: endpoint count after N more jobs equals the settled
/// baseline.
///
/// The same count is what process-owned teardown (DESIGN.md §5) is held
/// to: every other client is built by `Handles::etcd_client` for one
/// incarnation of a Guardian, a controller or an LCM replica and closed
/// by the kubelet when that incarnation stops. Crash-restarting each of
/// them mid-job, three times, leaves neither an endpoint on the watch
/// network nor a registration on a server behind. `Handles::meta` hands
/// out metadata clients the same way, so the Mongo RPC layer's
/// `mongoc/<pod>` endpoints — a Guardian's, an API pod's, an LCM
/// replica's — return to their baseline too.
#[test]
fn lcm_teardown_does_not_leak_etcd_watch_endpoints() {
    let (mut sim, platform) = boot(303);
    let client = platform.client("itest", KEY);

    // Warm-up jobs so every long-lived client is registered before the
    // baseline is taken (two: one submission through each API pod).
    for name in ["gc-warm-0", "gc-warm-1"] {
        let warm = submit_blocking(&mut sim, &client, manifest(name, 40));
        let end = platform.wait_for_status(
            &mut sim,
            &warm,
            JobStatus::Completed,
            SimDuration::from_mins(30),
        );
        assert_eq!(end, Some(JobStatus::Completed));
    }
    sim.run_for(config::LCM_SCAN * 6);
    let baseline = platform.etcd().watch_net().endpoint_addrs();
    let baseline_watches = server_watches(&platform);
    // A metadata client registers with its first request: what is held to
    // the baseline is that nothing outside it stays registered.
    let baseline_mongo = platform.handles().mongo.net().endpoint_addrs();
    let mongo_leaks = |p: &DlaasPlatform| -> Vec<Addr> {
        let mut now = p.handles().mongo.net().endpoint_addrs();
        now.retain(|addr| !baseline_mongo.contains(addr));
        now
    };

    for i in 0..3 {
        let job = submit_blocking(&mut sim, &client, manifest(&format!("gc-{i}"), 40));
        let end = platform.wait_for_status(
            &mut sim,
            &job,
            JobStatus::Completed,
            SimDuration::from_mins(30),
        );
        assert_eq!(end, Some(JobStatus::Completed));
    }
    sim.run_for(config::LCM_SCAN * 6);
    assert_eq!(
        platform.etcd().watch_net().endpoint_addrs(),
        baseline,
        "etcd watch endpoints grew across garbage-collected jobs"
    );
    assert_eq!(
        mongo_leaks(&platform),
        [],
        "a finished Guardian's metadata client was left registered"
    );

    let job = start_training(&mut sim, &platform, "gc-crashes", 1_500);
    let api_pod = platform.kube().pods_matching(&labels! {"app" => "api"})[0].clone();
    for round in 0..3 {
        for pod in [
            paths::guardian_job(&job),
            paths::helper_pod(&job),
            "dlaas-lcm-0".to_owned(),
            api_pod.clone(),
        ] {
            assert!(
                platform.kube().crash_pod(&mut sim, &pod),
                "round {round}: {pod} was not running"
            );
            sim.run_for(SimDuration::from_secs(40));
        }
    }
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(2),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    sim.run_for(config::LCM_SCAN * 6);
    assert_eq!(
        platform.etcd().watch_net().endpoint_addrs(),
        baseline,
        "a crashed incarnation's etcd client was left registered"
    );
    assert_eq!(
        server_watches(&platform),
        baseline_watches,
        "a crashed incarnation's watches were left on the etcd servers"
    );
    assert_eq!(
        mongo_leaks(&platform),
        [],
        "a crashed incarnation's metadata client was left registered"
    );
    check_invariants(&sim, &platform).assert_clean();
}

/// Bug 4: a learner that finished during an NFS outage used to drop
/// its completion markers (throughput, COMPLETED status, exit file)
/// on the floor and exit 0 anyway. The Succeeded pod never restarts,
/// so the job was stranded in PROCESSING forever. The learner must
/// retry until the markers are durable on the shared volume.
#[test]
fn learner_completion_markers_survive_nfs_outage() {
    let (mut sim, platform) = boot(304);
    let client = platform.client("itest", KEY);
    let iters = 120;
    let job = submit_blocking(&mut sim, &client, manifest("nfs-finish", iters));

    // Take NFS down just before the learner's last iteration so the
    // completion markers are written into the outage. The reported
    // iteration lags the learner by a report period, hence the margin.
    let p2 = platform.clone();
    let j2 = job.clone();
    let p3 = platform.clone();
    let j3 = job.clone();
    when(
        &mut sim,
        SimDuration::from_millis(200),
        "NFS outage at learner finish",
        move |_sim| reported_iteration(&p2, &j2).is_some_and(|i| i + 8 >= iters),
        move |sim| {
            assert_eq!(
                p3.job_status(&j3),
                Some(JobStatus::Processing),
                "the outage must start while the learner still trains"
            );
            nfs_outage_window(sim, p3.nfs(), SimDuration::from_secs(30));
        },
    );

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(1),
    );
    assert_eq!(
        end,
        Some(JobStatus::Completed),
        "{job} stranded: completion markers lost to the NFS outage"
    );
    sim.run_for(config::LCM_SCAN * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// Bug 5 (HA): a partitioned LCM leader used to keep sweeping on cached
/// ownership. Its keepalives failed, the server expired the lease and a
/// standby claimed the leader key via its delete event — and from then
/// on *two* live replicas drove the same jobs (double redeploys, double
/// GC teardowns). The replica now fences itself locally: keepalive
/// stamps the fence at RPC *send* time, so the local fence always
/// lapses no later than the server-side lease deadline, and the
/// leadership is dropped the moment the fence passes — strictly before
/// the server can hand the key to anyone else. Pre-fix this test trips
/// the shard-single-owner invariant (and the loss counter stays at zero
/// because nothing is ever dropped).
#[test]
fn partitioned_lcm_replica_fences_itself_before_lease_expiry() {
    let (mut sim, platform) = boot(305);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("fence", 900));

    let ttl = config::LCM_LEASE_TTL;
    let scan = config::LCM_SCAN;

    // Let the job get in flight; by then the leader key has a holder.
    let mid = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    assert_eq!(mid, Some(JobStatus::Processing), "{job} never started");
    let owner = lcm_leader(&platform).expect("a leader once the platform is up");

    // Partition exactly that replica's etcd client away from the
    // cluster for several lease TTLs: keepalives fail, the server
    // expires the lease, a standby claims the key. Both sides
    // must be listed — unlisted addresses (every other client) are
    // unaffected by a group partition.
    let servers: Vec<Addr> = (0..platform.etcd().len() as u32)
        .map(dlaas_etcd::etcd_addr)
        .collect();
    partition_window(
        &mut sim,
        platform.etcd().rpc().net(),
        vec![vec![Addr::new(format!("etcdc/{owner}"))], servers],
        ttl * 4,
    );

    // Throughout expiry and takeover, no job may ever have two live
    // sweepers.
    let end_at = sim.now() + ttl * 4 + scan * 2;
    while sim.now() < end_at {
        sim.run_for(SimDuration::from_millis(500));
        let conflicts = platform.shard_tracker().conflicts();
        assert!(
            conflicts.is_empty(),
            "double drive under partition: {conflicts:?}"
        );
    }

    // The partitioned replica dropped its leadership at the local fence…
    assert!(
        platform
            .metrics()
            .counter_total(dlaas_core::metrics::LCM_SHARD_LOSSES)
            > 0,
        "partitioned replica never fenced itself"
    );
    // …and a live replica holds the leader key again.
    assert!(
        lcm_leader(&platform).is_some(),
        "leader key left orphaned after the takeover window"
    );

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(2),
    );
    assert_eq!(
        end,
        Some(JobStatus::Completed),
        "{job} lost to the partition"
    );
    sim.run_for(scan * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// Bug 6 (HA): the LCM replica used to *read* the owner keys first and
/// register its watch afterwards, so an owner key whose delete landed
/// in that gap was seen by nobody — the read still showed the dead
/// owner and the delete event predated the watch. The key then sat
/// orphaned until a periodic reconcile happened to notice, far past
/// the lease-TTL + takeover bound the platform promises. Watch
/// registration now strictly precedes the initial read, so takeover
/// is event-driven: crash the leader mid-deployment and the continuous
/// monitor must never see the leader key orphaned past the bound, while
/// the job still completes.
#[test]
fn crashed_shard_owner_is_replaced_within_the_takeover_bound() {
    let (mut sim, platform) = boot(306);
    let client = platform.client("itest", KEY);
    let monitor = InvariantMonitor::install(&mut sim, &platform, SimDuration::from_secs(5));

    let job = submit_blocking(&mut sim, &client, manifest("owner-crash", 400));

    // Kill the leader the moment the deployment starts.
    let p2 = platform.clone();
    let j2 = job.clone();
    let p3 = platform.clone();
    when(
        &mut sim,
        SimDuration::from_millis(200),
        "crash the LCM leader at DEPLOYING",
        move |_| p2.job_status(&j2) == Some(JobStatus::Deploying),
        move |sim| {
            let owner = lcm_leader(&p3).unwrap_or_else(|| "dlaas-lcm-0".into());
            assert!(p3.kube().crash_pod(sim, &owner));
        },
    );

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(2),
    );
    assert_eq!(
        end,
        Some(JobStatus::Completed),
        "{job} lost to the owner crash"
    );
    sim.run_for(config::LCM_SCAN * 6);
    assert_eq!(
        monitor.violations_seen(),
        0,
        "invariant violated during shard takeover"
    );
    monitor.cancel();
    check_invariants(&sim, &platform).assert_clean();
    assert!(
        lcm_leader(&platform).is_some(),
        "leader key still orphaned after recovery"
    );
}

/// A standby LCM replica holds nothing: the leader alone reads the change
/// feed and keeps a watchlist. Every replica used to read the whole feed
/// and keep every queued and admitted job, so with three replicas the
/// running job was held three times over.
#[test]
fn a_standby_lcm_replica_keeps_no_watchlist() {
    let mut cfg = PlatformConfig::default();
    cfg.core.lcm_replicas = 3;
    let (mut sim, platform) = boot_with(Sim::new(312), cfg);
    start_training(&mut sim, &platform, "standby", 2_000);
    sim.run_for(config::LCM_SCAN);

    let leader = lcm_leader(&platform).expect("the LCM has a leader");
    let snapshot = platform.metrics().snapshot();
    let watchlists: Vec<(&str, f64)> = snapshot
        .iter()
        .filter(|(key, _)| key.starts_with(metrics::LCM_WATCHLIST.name()))
        .collect();
    assert_eq!(watchlists.len(), 3, "{watchlists:?}");
    let held: Vec<&str> = watchlists
        .iter()
        .filter(|&&(_, entries)| entries > 0.0)
        .map(|&(key, _)| key)
        .collect();
    assert_eq!(held.len(), 1, "{watchlists:?}");
    assert!(
        held[0].contains(&format!("\"{leader}\"")),
        "{leader} leads, yet {watchlists:?}"
    );
}

/// The LCM's GC probe of a finished job's etcd keys goes through the
/// shared `lcm-gc` client, which outlives every LCM incarnation. A probe
/// sent by a leader that crashes before etcd answers must drive nothing:
/// the answer lands on a replica that no longer leads, so a sweep it
/// makes drives the job a second time.
///
/// Staged on the leader's scan grid (its `up` mark plus whole scan
/// periods): the `lcm-gc` client is cut off across the job's teardown so
/// its keys leak; it is reconnected just before the leader's next scan
/// tick, whose probe goes out under a short quorum outage; the leader
/// crashes during that outage, and etcd answers the probe after it.
#[test]
fn a_gc_probe_answered_after_its_lcm_incarnation_stopped_drives_nothing() {
    let mut sim = Sim::new(307);
    let up: Rc<RefCell<BTreeMap<String, SimTime>>> = Rc::default();
    let up2 = up.clone();
    sim.tap(const { &[&lcm::UP] }, move |sim, subject, _, _| {
        up2.borrow_mut().insert(subject.to_string(), sim.now());
        true
    });
    let (mut sim, platform) = boot_in(sim);
    let client = platform.client("itest", KEY);
    let scan = config::LCM_SCAN;

    let servers: Vec<Addr> = (0..platform.etcd().len() as u32)
        .map(dlaas_etcd::etcd_addr)
        .collect();
    let net = platform.etcd().rpc().net().clone();
    net.partition(&mut sim, vec![vec![Addr::new("etcdc/lcm-gc")], servers]);
    let job = submit_blocking(&mut sim, &client, manifest("gc-probe", 200));
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(1),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    // Past the teardown's retries, and past the last leftover pod.
    sim.run_for(scan * 3);
    let leaked = |platform: &DlaasPlatform| {
        let leader = platform.etcd().leader_id().expect("etcd has a leader");
        let kv = platform.etcd().kv_snapshot(leader);
        kv.keys_with_prefix(&paths::etcd_job_prefix(&job)).count()
    };
    assert!(leaked(&platform) > 0, "the teardown's delete got through");

    let owner = lcm_leader(&platform).expect("the LCM has a leader");
    let mut tick = up.borrow()[&owner];
    while tick < sim.now() + SimDuration::from_secs(2) {
        tick += scan;
    }
    sim.run_for(tick.saturating_duration_since(sim.now()) - SimDuration::from_millis(800));
    net.heal(&mut sim);
    let at = tick - SimDuration::from_millis(500);
    etcd_quorum_outage_when(&mut sim, &platform, SimDuration::from_secs(2), move |sim| {
        sim.now() >= at
    });
    let p = platform.clone();
    let crashed = owner.clone();
    sim.schedule_at(tick + SimDuration::from_secs(1), move |sim| {
        assert!(p.kube().crash_pod(sim, &crashed));
    });

    sim.run_for(scan);
    let conflicts = platform.shard_tracker().conflicts();
    assert!(
        conflicts.is_empty(),
        "a stopped leader swept: {conflicts:?}"
    );
    sim.run_for(scan * 6);
    assert_eq!(leaked(&platform), 0, "the new leader never cleaned up");
    check_invariants(&sim, &platform).assert_clean();
}

/// Regression: the learner's NFS bookkeeping writes (status, log,
/// restart markers) are best-effort by design, but they used to be
/// `let _ =` — a volume outage left no trace anywhere. They now bump
/// `dlaas_learner_nfs_write_failures_total`, so the fault matrix can
/// attribute a stuck job to the shared filesystem.
#[test]
fn learner_nfs_write_failures_are_counted_not_swallowed() {
    let (mut sim, platform) = boot(303);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("nfs-visible", 400));

    let mid = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    assert_eq!(mid, Some(JobStatus::Processing), "{job} never started");

    // Take the shared filesystem away mid-training: the learner keeps
    // iterating, and every failed status/log write must be counted.
    nfs_outage_window(&mut sim, platform.nfs(), SimDuration::from_secs(30));
    sim.run_for(SimDuration::from_secs(45));
    let failures = platform
        .metrics()
        .counter_total("dlaas_learner_nfs_write_failures_total");
    assert!(
        failures > 0,
        "NFS outage during training left no metric trail"
    );

    // Best-effort means exactly that: the job still completes.
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );
    assert_eq!(end, Some(JobStatus::Completed), "{job} did not recover");
}

/// Takes etcd below quorum for `outage`, starting the first time `pred`
/// holds: the leader and one follower go down, so the survivor can
/// neither accept a write (a deposed-by-nobody leader would queue it and
/// commit it after the outage) nor win an election.
fn etcd_quorum_outage_when(
    sim: &mut dlaas_sim::Sim,
    platform: &DlaasPlatform,
    outage: SimDuration,
    pred: impl FnMut(&dlaas_sim::Sim) -> bool + 'static,
) {
    let etcd = platform.etcd().clone();
    when(
        sim,
        SimDuration::from_millis(200),
        "etcd quorum outage",
        pred,
        move |sim| {
            let leader = etcd.leader_id().expect("etcd has a leader");
            let down = [leader, (leader + 1) % 3];
            for id in down {
                etcd.crash(sim, id);
            }
            sim.schedule_in(outage, move |sim| {
                for id in down {
                    etcd.restart(sim, id);
                }
            });
        },
    );
}

/// Every value etcd commits under `key` from now on, by revision: what a
/// watcher of the key sees, transient values included. (Sampling the
/// leader's store, or reading the end state, misses a stale write that a
/// newer one overwrites milliseconds later.) The outage's survivor keeps
/// the registration, so nothing committed through it is missed.
fn committed_values(
    sim: &mut dlaas_sim::Sim,
    platform: &DlaasPlatform,
    key: String,
) -> Rc<RefCell<BTreeMap<u64, String>>> {
    let seen: Rc<RefCell<BTreeMap<u64, String>>> = Rc::default();
    let s = seen.clone();
    platform
        .etcd()
        .client("history")
        .watch_prefix(sim, key, move |_sim, ev| {
            if let KvEvent::Put {
                value, revision, ..
            } = ev
            {
                s.borrow_mut().insert(*revision, value.clone());
            }
        });
    seen
}

/// Reliable log streaming: the collector used to advance its cursor
/// before the upload and ignore the result, so a flush that hit an
/// object-store outage was never retried. Every flush re-sent the whole
/// file, which healed all but the last one: an outage across the
/// learner's final lines lost them for good. The cursor now advances on
/// a successful put only, so the stored log equals the NFS log once the
/// outage lifts.
#[test]
fn log_tail_survives_an_object_store_outage_across_the_last_flush() {
    let (mut sim, platform) = boot(308);
    let client = platform.client("itest", KEY);
    let iters = 120;
    let job = submit_blocking(&mut sim, &client, manifest("log-tail", iters));

    // The store goes away shortly before the learner's last lines and
    // comes back while the job waits in STORING (the result upload
    // needs the store too, so the job cannot finish inside the outage).
    let (p2, j2, p3) = (platform.clone(), job.clone(), platform.clone());
    when(
        &mut sim,
        SimDuration::from_millis(200),
        "object-store outage at learner finish",
        move |_sim| reported_iteration(&p2, &j2).is_some_and(|i| i + 8 >= iters),
        move |sim| {
            p3.objstore().set_unavailable(true);
            let p4 = p3.clone();
            sim.schedule_in(SimDuration::from_secs(30), move |_sim| {
                p4.objstore().set_unavailable(false);
            });
        },
    );

    // Teardown deletes the volume: keep the last view of the NFS log.
    let mut nfs_log = String::new();
    let deadline = sim.now() + SimDuration::from_hours(1);
    while platform.job_status(&job) != Some(JobStatus::Completed) {
        assert!(sim.now() < deadline, "{job} did not complete");
        let log = platform
            .nfs()
            .mount(&paths::volume(&job))
            .ok()
            .and_then(|m| m.tail(&paths::nfs_learner_log(0), 0).ok());
        if let Some((_, view)) = log {
            nfs_log = view.text().to_owned();
        }
        sim.run_for(SimDuration::from_millis(100));
    }
    assert!(
        nfs_log
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("training complete")),
        "the learner's last line was written into the outage"
    );
    let stored = platform
        .objstore()
        .read_text("itest-results", &paths::obj_log(&job, 0))
        .expect("log uploaded");
    assert_eq!(
        stored.lines().count(),
        nfs_log.lines().count(),
        "stored log lost its tail to the outage"
    );
    assert_eq!(stored, nfs_log);
}

/// Reliable status: the controller used to latch `throughput_written`
/// before its etcd put and drop the error, so an etcd outage longer than
/// the client's retry budget left the job's `images_per_sec` null
/// forever. The latch now re-arms on a failed put, like the learner
/// statuses next to it always did.
#[test]
fn controller_republishes_throughput_after_an_etcd_outage() {
    let (mut sim, platform) = boot(309);
    let client = platform.client("itest", KEY);
    let iters = 120;
    let job = submit_blocking(&mut sim, &client, manifest("tput-outage", iters));

    // Quorum is lost just before the learner finishes and stays lost for
    // longer than one put's whole retry budget (20 attempts, ~12 s).
    let (p2, j2) = (platform.clone(), job.clone());
    etcd_quorum_outage_when(&mut sim, &platform, SimDuration::from_secs(40), move |_| {
        reported_iteration(&p2, &j2).is_some_and(|i| i + 8 >= iters)
    });

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(1),
    );
    assert_eq!(end, Some(JobStatus::Completed), "{job} did not recover");
    let info = platform.job_info(&job).expect("job document");
    assert!(
        info.images_per_sec.is_some_and(|t| t > 0.0),
        "measured throughput lost to the etcd outage: {:?}",
        info.images_per_sec
    );
}

/// Same latch, restart counter: a learner restart the controller could
/// not report during an etcd outage used to stay unreported until the
/// next restart, if any ("users expect to be notified when DL jobs are
/// restarted", §II).
#[test]
fn controller_republishes_restart_count_after_an_etcd_outage() {
    let (mut sim, platform) = boot(310);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("restarts-outage", 200));
    let mid = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    assert_eq!(mid, Some(JobStatus::Processing), "{job} never started");

    etcd_quorum_outage_when(&mut sim, &platform, SimDuration::from_secs(60), |_| true);
    sim.run_for(SimDuration::from_secs(1));
    platform
        .kube()
        .crash_pod(&mut sim, &paths::learner_pod(&job, 0));

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(2),
    );
    assert_eq!(end, Some(JobStatus::Completed), "{job} did not recover");
    let info = platform.job_info(&job).expect("job document");
    assert_eq!(
        info.learner_restarts, 1,
        "the restart during the outage was never reported"
    );
}

/// Reliable status: the controller used to fire one etcd put per changed
/// status string with nothing ordering them, and the client retries each
/// for up to 12 s. Across an etcd outage a retried older
/// `PROCESSING iter=N` could commit *after* the next tick's `COMPLETED`;
/// the controller's dedup entry already said `COMPLETED`, nothing ever
/// rewrote the key, and the job sat in PROCESSING with its learner long
/// gone — unless its Guardian happened to catch the transient
/// `COMPLETED` on its watch, which a restarting Guardian (it lists the
/// prefix) does not. A learner's key now has one put in flight, and the
/// latest value goes out when that put is acknowledged.
///
/// The window: an iteration-only change goes out once per
/// `GUARDIAN_POLL` (30 s) after the first `PROCESSING`, at about
/// iteration 24 of 28. Quorum is lost at iteration 22, so that put goes
/// out into the outage and retries through it, and `COMPLETED` follows
/// some 5 s later. Which of them reaches the new leader first depends on
/// where in their retry cycles the cluster comes back — after 1–2 s of
/// re-election (etcd's timing, `RaftConfig::default`) — so the outage
/// length is swept across 2 s, on two seeds (the seed picks the leader
/// the client's round-robin retries walk past). A `Publisher` without its
/// one-in-flight guard commits a stale value after `COMPLETED` at every
/// length in the sweep on both seeds.
#[test]
fn retried_learner_status_never_lands_after_completed() {
    for seed in 311..313 {
        for outage_ms in (8_000..10_000).step_by(200) {
            let (mut sim, platform) = boot(seed);
            let client = platform.client("itest", KEY);
            let iters = 28;
            let job = submit_blocking(&mut sim, &client, manifest("status-order", iters));
            let history = committed_values(&mut sim, &platform, paths::etcd_learner(&job, 0));
            let (p2, j2) = (platform.clone(), job.clone());
            etcd_quorum_outage_when(
                &mut sim,
                &platform,
                SimDuration::from_millis(outage_ms),
                move |_| reported_iteration(&p2, &j2).is_some_and(|i| i + 6 >= iters),
            );
            let deadline = sim.now() + SimDuration::from_mins(20);
            while platform.job_status(&job) != Some(JobStatus::Completed) {
                assert!(
                    sim.now() < deadline,
                    "seed {seed}, {outage_ms} ms: {job} stuck"
                );
                sim.run_for(SimDuration::from_secs(1));
            }
            // Once etcd has said COMPLETED for the learner it must never
            // say anything else again (until GC deletes the key).
            let history = history.borrow();
            let after_completed = history
                .iter()
                .skip_while(|(_, v)| *v != "COMPLETED")
                .find(|(_, v)| *v != "COMPLETED");
            assert_eq!(
                after_completed, None,
                "seed {seed}, {outage_ms} ms outage: learner status went from COMPLETED \
                 back to another value; committed: {history:?}"
            );
        }
    }
}

/// Reliable status, restart counter: the controller used to fire a fresh
/// etcd put of the job's aggregate restart total whenever it changed,
/// with nothing ordering the puts. Across an etcd outage the client's
/// retry of the older total could commit *after* the newer one; the
/// controller already believed the newer one written, nothing ever
/// rewrote the key, and the job document under-reported restarts for the
/// rest of the job. The total now goes through the same one-in-flight,
/// latest-value-wins publisher as a learner's status.
///
/// The window: quorum is lost as the first of two crashed learners comes
/// back and the second comes back a few seconds later, so a put of "1"
/// and the put of "2" both retry through the outage. Which of them
/// reaches the new leader last depends on where in their retry cycles
/// the cluster comes back, so the outage length is swept. The job
/// document is only the end state: a stale "1" that lands after "2" and
/// is overwritten again milliseconds later leaves it right, so the
/// committed history of the key is checked too. A `Publisher` without its
/// one-in-flight guard commits "1" after "2" at every length in the
/// sweep (etcd's 1–2 s re-election included, `RaftConfig::default`).
#[test]
fn retried_restart_total_never_lands_after_a_newer_one() {
    /// The restart total the learners recorded on the job's NFS volume.
    fn nfs_restart_total(platform: &DlaasPlatform, job: &dlaas_core::JobId) -> Option<u64> {
        let nfs = platform.nfs();
        let mount = nfs.mount(&paths::volume(job)).ok()?;
        Some(
            (0..2)
                .map(|ord| {
                    mount
                        .read_file(&paths::nfs_learner_restarts(ord))
                        .ok()
                        .and_then(|s| s.parse::<u64>().ok())
                        .map_or(0, |starts| starts.saturating_sub(1))
                })
                .sum(),
        )
    }

    for outage_ms in (3_300..5_100).step_by(100) {
        let (mut sim, platform) = boot(314);
        let client = platform.client("itest", KEY);
        let mut m = manifest("restart-order", 300);
        m.learners = 2;
        let job = submit_blocking(&mut sim, &client, m);
        let mid = platform.wait_for_status(
            &mut sim,
            &job,
            JobStatus::Processing,
            SimDuration::from_mins(30),
        );
        assert_eq!(mid, Some(JobStatus::Processing), "{job} never started");
        // A crash counts as a restart only once the learner has started:
        // by learner 0's tenth iteration both have long been training.
        let (p2, j2) = (platform.clone(), job.clone());
        assert!(
            sim.run_until_pred(move |_| { reported_iteration(&p2, &j2).is_some_and(|i| i >= 10) })
        );

        let history = committed_values(&mut sim, &platform, paths::etcd_restarts(&job));
        let (p2, j2) = (platform.clone(), job.clone());
        etcd_quorum_outage_when(
            &mut sim,
            &platform,
            SimDuration::from_millis(outage_ms),
            move |_| nfs_restart_total(&p2, &j2) == Some(1),
        );
        platform
            .kube()
            .crash_pod(&mut sim, &paths::learner_pod(&job, 0));
        sim.run_for(SimDuration::from_secs(5));
        platform
            .kube()
            .crash_pod(&mut sim, &paths::learner_pod(&job, 1));

        let mut recorded = 0;
        let deadline = sim.now() + SimDuration::from_hours(2);
        while platform.job_status(&job) != Some(JobStatus::Completed) {
            assert!(sim.now() < deadline, "{outage_ms} ms: {job} stuck");
            sim.run_for(SimDuration::from_millis(200));
            recorded = nfs_restart_total(&platform, &job).unwrap_or(recorded);
        }
        assert_eq!(recorded, 2, "{outage_ms} ms: both learners restart once");
        let info = platform.job_info(&job).expect("job document");
        assert_eq!(
            info.learner_restarts, recorded,
            "{outage_ms} ms outage: the job document's restart count is not the recorded total"
        );
        let history = history.borrow();
        assert!(
            history.values().is_sorted_by_key(|v| v.parse::<u64>().ok()),
            "{outage_ms} ms outage: an older restart total landed after a newer one; \
             committed: {history:?}"
        );
    }
}

/// Reliable status must not invent a phase (§III-f): the controller used
/// to read *every* NFS error as "file absent", so for the whole of an
/// NFS outage it took a training learner's status, exit and restart
/// files for missing and published the default — `DOWNLOADING` — which
/// is a change of phase kind, hence an urgent put and a watch fan-out,
/// and `PROCESSING` again afterwards. Anyone who asked meanwhile was
/// told a job twenty seconds into training was still fetching its data.
/// An unreachable volume is not an empty one: the tick learns nothing
/// and publishes nothing new.
#[test]
fn unreachable_volume_is_not_reported_as_downloading() {
    let (mut sim, platform) = boot(314);
    let job = start_training(&mut sim, &platform, "nfs-blip", 400);
    sim.run_for(SimDuration::from_secs(20));

    let published = |platform: &DlaasPlatform| {
        let leader = platform.etcd().leader_id().expect("etcd has a leader");
        platform.etcd().with_kv(leader, |kv| {
            kv.get(&paths::etcd_learner(&job, 0))
                .map(|v| v.value.clone())
        })
    };
    let proposals = |platform: &DlaasPlatform| {
        platform
            .metrics()
            .counter_value(dlaas_etcd::metrics::PROPOSALS, &[("op", "put")])
    };
    let training = |status: &Option<String>| {
        status
            .as_deref()
            .is_some_and(|s| s.starts_with("PROCESSING"))
    };
    assert!(
        training(&published(&platform)),
        "{:?}",
        published(&platform)
    );

    // Six seconds of outage, and as long again after it, sampled well
    // inside the controller's poll period.
    nfs_outage_window(&mut sim, platform.nfs(), SimDuration::from_secs(6));
    let before = proposals(&platform);
    for _ in 0..120 {
        sim.run_for(SimDuration::from_millis(100));
        let status = published(&platform);
        assert!(
            training(&status),
            "{:?} into the window etcd says learner 0 is {status:?}",
            sim.now()
        );
    }
    // One coalesced iteration publish may fall due in twelve seconds;
    // the two urgent puts of an invented phase and its retraction do not.
    let puts = proposals(&platform) - before;
    assert!(puts <= 1, "{puts} etcd puts across the NFS outage");

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(1),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    let info = platform.job_info(&job).expect("job document");
    assert_eq!(info.learner_restarts, 0, "an outage is not a restart");
    sim.run_for(config::LCM_SCAN * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// Bounded work lost (§III-g): a restarted learner asks the object store
/// for the newest checkpoint, and used to take *any* error on that read —
/// `Unavailable` included — for "no checkpoint yet": a learner that came
/// back during an object-store outage restarted training from iteration
/// 0 and threw away every acknowledged checkpoint (a failed weights
/// download was ignored the same way). An unreachable store is not an
/// empty one: only not-found means there is nothing to restore; anything
/// else is retried, and a learner that runs out of retries exits non-zero
/// for Kubernetes to restart it.
#[test]
fn restarted_learner_waits_out_an_object_store_outage_for_its_checkpoint() {
    let (mut sim, platform) = boot(315);
    let client = platform.client("itest", KEY);
    let mut m = manifest("ckpt-outage", 600);
    m.checkpoint_every = 100;
    let job = submit_blocking(&mut sim, &client, m);

    // Train until a checkpoint's meta object is in the store, i.e. its
    // put was acknowledged.
    let acked = |platform: &DlaasPlatform| {
        platform
            .objstore()
            .read_text("itest-results", &paths::obj_ckpt_meta(&job))
            .and_then(|s| s.parse::<u64>().ok())
    };
    let deadline = sim.now() + SimDuration::from_hours(1);
    while acked(&platform).is_none() {
        assert!(sim.now() < deadline, "{job} never checkpointed");
        sim.run_for(SimDuration::from_secs(1));
    }
    let checkpoint = acked(&platform).expect("just seen");
    assert!(checkpoint >= 100);

    // The store goes away, the learner is killed, and the store stays
    // away well past the learner's restart and its retry budget.
    platform.objstore().set_unavailable(true);
    platform
        .kube()
        .crash_pod(&mut sim, &paths::learner_pod(&job, 0));
    for _ in 0..90 {
        sim.run_for(SimDuration::from_secs(1));
        let iteration = reported_iteration(&platform, &job);
        assert!(
            iteration.is_none_or(|i| i >= checkpoint),
            "inside the outage the learner trains at iteration {iteration:?}, \
             below its checkpoint at {checkpoint}"
        );
    }
    platform.objstore().set_unavailable(false);

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(2),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    let log = platform
        .objstore()
        .read_text("itest-results", &paths::obj_log(&job, 0))
        .expect("log uploaded");
    let starts: Vec<&str> = log
        .lines()
        .filter(|l| l.starts_with("training started at iter "))
        .collect();
    assert_eq!(
        starts.iter().filter(|l| l.contains("iter 0:")).count(),
        1,
        "training started over: {starts:?}"
    );
    assert!(
        log.lines()
            .any(|l| *l == format!("resumed from checkpoint at iter {checkpoint}")),
        "the acknowledged checkpoint at {checkpoint} was never restored"
    );
    assert!(
        platform
            .job_info(&job)
            .expect("job document")
            .learner_restarts
            >= 1
    );
    sim.run_for(config::LCM_SCAN * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// Bounded work lost (§III-g), the write side: `Learner::checkpoint`
/// ignored the result of both puts, so a checkpoint the object store
/// refused was counted in `dlaas_checkpoint_writes_total` — the platform
/// claimed restore points it did not have. A checkpoint exists once the
/// store acknowledged it: a refused one is skipped, training goes on to
/// the next boundary, and a learner that then crashes resumes from the
/// last checkpoint that was *acknowledged*.
#[test]
fn checkpoint_the_object_store_refused_is_neither_counted_nor_restored() {
    let (mut sim, platform) = boot(316);
    let client = platform.client("itest", KEY);
    let mut m = manifest("ckpt-refused", 600);
    m.checkpoint_every = 100;
    let job = submit_blocking(&mut sim, &client, m);

    // The checkpoints the store acknowledged: every value the meta object
    // ever held (watched once a second; checkpoints are minutes apart).
    let mut acked: Vec<u64> = Vec::new();
    let mut step = |sim: &mut dlaas_sim::Sim, platform: &DlaasPlatform| {
        sim.run_for(SimDuration::from_secs(1));
        let meta = platform
            .objstore()
            .read_text("itest-results", &paths::obj_ckpt_meta(&job))
            .and_then(|s| s.parse::<u64>().ok());
        if let Some(iter) = meta {
            if acked.last() != Some(&iter) {
                acked.push(iter);
            }
        }
        meta
    };
    let deadline = sim.now() + SimDuration::from_hours(1);
    let first = loop {
        assert!(sim.now() < deadline, "{job} never checkpointed");
        if let Some(iter) = step(&mut sim, &platform) {
            break iter;
        }
    };

    // The store is away across the next checkpoint (due at iteration
    // 200): the learner trains through it, and on towards 300.
    platform.objstore().set_unavailable(true);
    while reported_iteration(&platform, &job).is_none_or(|i| i < 230) {
        assert!(
            sim.now() < deadline,
            "{job} stopped training at a refused checkpoint"
        );
        assert_eq!(step(&mut sim, &platform), Some(first));
    }
    platform.objstore().set_unavailable(false);
    platform
        .kube()
        .crash_pod(&mut sim, &paths::learner_pod(&job, 0));

    while platform.job_info(&job).map(|i| i.status) != Some(JobStatus::Completed) {
        assert!(
            sim.now() < deadline + SimDuration::from_hours(2),
            "{job} did not finish"
        );
        step(&mut sim, &platform);
    }
    let log = platform
        .objstore()
        .read_text("itest-results", &paths::obj_log(&job, 0))
        .expect("log uploaded");
    assert!(
        log.lines()
            .any(|l| *l == format!("resumed from checkpoint at iter {first}")),
        "the learner did not resume from its last acknowledged checkpoint, {first}:\n{log}"
    );
    assert!(acked.len() >= 4, "acknowledged checkpoints: {acked:?}");
    assert_eq!(
        platform
            .metrics()
            .counter_total(dlaas_core::metrics::CHECKPOINT_WRITES),
        acked.len() as u64,
        "checkpoints counted vs acknowledged by the store"
    );
    sim.run_for(config::LCM_SCAN * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// What learner 0 itself last said of its phase: its status file on the
/// job volume (etcd and the job document trail it).
fn learner_says(platform: &DlaasPlatform, job: &dlaas_core::JobId) -> Option<LearnerPhase> {
    let nfs = platform.nfs();
    let mount = nfs.mount(&paths::volume(job)).ok()?;
    mount
        .read_file(&paths::nfs_learner_status(0))
        .ok()?
        .parse()
        .ok()
}

/// Reliable status, the last hop (§III-f; the four sites PR 22's sweep
/// classed **bug**): the Guardian and the LCM scan used to take a job
/// status for written once the request was *sent*. `MetaClient` gives up
/// after ~10 s, so a metadata-store write stall longer than that at one
/// transition lost the write for good. These four tests hold a write
/// stall (`set_mongo_write_failures`: reads serve, mutations time out)
/// across one transition each.
///
/// (i) PROCESSING: the Guardian latched `moved_processing` at send time;
/// the document stayed DEPLOYING while the learner trained, and at
/// `DEPLOY_TIMEOUT` the LCM scan failed the healthy job as a stuck
/// deployment. The write is now owed until acknowledged, and the
/// `GUARDIAN_POLL` backstop offers it again.
#[test]
fn a_refused_processing_write_stays_owed_and_the_job_is_not_failed_as_undeployable() {
    let (mut sim, platform) = boot(317);
    let client = platform.client("itest", KEY);
    // ~0.7 iterations a second: training outlasts `DEPLOY_TIMEOUT`.
    let job = submit_blocking(&mut sim, &client, manifest("processing-owed", 2_000));

    // From DEPLOYING on the Guardian writes nothing until its learner
    // trains: the stall begins there and ends 30 s into training.
    let mid = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Deploying,
        SimDuration::from_mins(5),
    );
    assert_eq!(mid, Some(JobStatus::Deploying));
    platform.set_mongo_write_failures(&mut sim, true);
    let (p2, j2) = (platform.clone(), job.clone());
    assert!(sim.run_until_pred(move |_| {
        matches!(
            learner_says(&p2, &j2),
            Some(LearnerPhase::Processing { .. })
        )
    }));
    sim.run_for(SimDuration::from_secs(30));
    assert_eq!(
        platform.job_status(&job),
        Some(JobStatus::Deploying),
        "the stall must outlast the PROCESSING write's retry budget"
    );
    platform.set_mongo_write_failures(&mut sim, false);

    sim.run_for(config::GUARDIAN_POLL);
    assert_eq!(
        platform.job_status(&job),
        Some(JobStatus::Processing),
        "one backstop period after the stall the document still does not say PROCESSING"
    );
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(3),
    );
    assert_eq!(
        end,
        Some(JobStatus::Completed),
        "a healthy job was failed at the deploy timeout"
    );
    sim.run_for(config::LCM_SCAN * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// (ii) The progress mirror: `progress_update` marked the mirror written
/// before the store acknowledged it, so a lost write was not retried
/// until the values changed again — and the learners' last change, to
/// COMPLETED, is followed by no other: the COMPLETED document kept the
/// iteration and learner phases of some earlier report. The mirror is now
/// owed until acknowledged, and COMPLETED is written only over an
/// acknowledged mirror.
#[test]
fn a_completed_document_carries_the_final_progress_whatever_write_was_refused() {
    let (mut sim, platform) = boot(318);
    let client = platform.client("itest", KEY);
    let iters = 120;
    let job = submit_blocking(&mut sim, &client, manifest("mirror-owed", iters));

    // The stall covers the learner's finish and the whole retry budget of
    // the mirror write that follows it, and lifts while the job stores
    // its results.
    let (p2, j2, p3) = (platform.clone(), job.clone(), platform.clone());
    when(
        &mut sim,
        SimDuration::from_millis(200),
        "write stall across the learner's finish",
        move |_sim| reported_iteration(&p2, &j2).is_some_and(|i| i + 4 >= iters),
        move |sim| {
            p3.set_mongo_write_failures(sim, true);
            let p4 = p3.clone();
            sim.schedule_in(SimDuration::from_secs(25), move |sim| {
                p4.set_mongo_write_failures(sim, false);
            });
        },
    );

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(1),
    );
    assert_eq!(end, Some(JobStatus::Completed), "{job} did not complete");
    let info = platform.job_info(&job).expect("job document");
    assert_eq!(
        info.iteration, iters,
        "the COMPLETED document reports an earlier iteration"
    );
    assert_eq!(
        info.learners,
        [(0, "COMPLETED".to_owned())],
        "the COMPLETED document reports an earlier learner phase"
    );
    assert_eq!(info.learner_restarts, 0);
    assert!(info.images_per_sec.is_some_and(|t| t > 0.0));
    sim.run_for(config::LCM_SCAN * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// (iii) The LCM scan's FAILED: a job whose Guardian exhausted its K8s
/// backoff was dropped from the watchlists and torn down — Guardian Job
/// included — whether or not the FAILED write landed. If it did not, the
/// document stayed non-terminal with nothing left to drive it until an
/// LCM restart re-read the feed. Watchlist removal and teardown now
/// follow the acknowledgement; a refused write is retried by the next
/// scan.
#[test]
fn a_refused_failed_write_is_retried_by_the_next_scan_before_anything_is_torn_down() {
    let (mut sim, platform) = boot(319);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("failed-owed", 120));

    // No Guardian boot can record its attempt: each aborts, and K8s gives
    // up on the Job after `GUARDIAN_BACKOFF_LIMIT` restarts.
    platform.set_mongo_write_failures(&mut sim, true);
    let guardian = paths::guardian_job(&job);
    let deadline = sim.now() + SimDuration::from_mins(40);
    while platform.kube().job_status(&guardian) != Some(dlaas_kube::JobStatus::Failed) {
        assert!(sim.now() < deadline, "the Guardian Job never failed");
        sim.run_for(SimDuration::from_secs(1));
    }
    // The scan notices within a period; its FAILED write then spends its
    // whole retry budget inside the stall.
    sim.run_for(config::LCM_SCAN + SimDuration::from_secs(15));
    assert_eq!(platform.job_status(&job), Some(JobStatus::Pending));
    platform.set_mongo_write_failures(&mut sim, false);

    sim.run_for(config::LCM_SCAN * 2);
    assert_eq!(
        platform.job_status(&job),
        Some(JobStatus::Failed),
        "two scans after the stall the job the LCM gave up on is still open"
    );
    sim.run_for(config::LCM_SCAN * 6);
    assert_eq!(platform.kube().job_status(&guardian), None);
    check_invariants(&sim, &platform).assert_clean();
}

/// (iv) COMPLETED: the Guardian checked the write's result only for the
/// turnaround histogram — teardown and `exit(0)` followed regardless, so
/// a lost write stranded the job in STORING under a Guardian K8s Job that
/// read `Complete` and was never restarted; nothing fired until
/// `terminal-bound`, hours later. Teardown and exit now follow the
/// acknowledgement, the backstop offers the write again, and the
/// `guardian-done-job-open` rule watches the pair.
#[test]
fn a_refused_completed_write_keeps_the_guardian_until_the_document_is_terminal() {
    let (mut sim, platform) = boot(320);
    let client = platform.client("itest", KEY);
    let monitor = InvariantMonitor::install(&mut sim, &platform, SimDuration::from_secs(5));
    let job = submit_blocking(&mut sim, &client, manifest("completed-owed", 60));
    let mid = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Storing,
        SimDuration::from_mins(30),
    );
    assert_eq!(mid, Some(JobStatus::Storing), "{job} never reached STORING");

    platform.set_mongo_write_failures(&mut sim, true);
    let lifts = sim.now() + SimDuration::from_secs(120);
    let deadline = sim.now() + SimDuration::from_mins(30);
    let guardian = paths::guardian_job(&job);
    let terminal = |platform: &DlaasPlatform| {
        platform
            .job_status(&job)
            .is_some_and(JobStatus::is_terminal)
    };
    while !terminal(&platform) {
        assert!(sim.now() < deadline, "{job} stranded in STORING");
        if sim.now() >= lifts {
            platform.set_mongo_write_failures(&mut sim, false);
        }
        assert_ne!(
            platform.kube().job_status(&guardian),
            Some(dlaas_kube::JobStatus::Complete),
            "at {:?} the Guardian has exited 0 over a STORING document",
            sim.now()
        );
        sim.run_for(SimDuration::from_millis(100));
    }
    assert!(sim.now() >= lifts, "the job completed inside the stall");
    assert_eq!(platform.job_status(&job), Some(JobStatus::Completed));
    let info = platform.job_info(&job).expect("job document");
    assert!(info.images_per_sec.is_some_and(|t| t > 0.0));
    sim.run_for(config::LCM_SCAN * 6);
    assert_eq!(monitor.violations_seen(), 0);
    monitor.cancel();
    check_invariants(&sim, &platform).assert_clean();
}

/// Bug 9: a helper container that ran out of jobspec waits (601 × 500 ms)
/// used to log the fact and return — all four containers of the helper
/// pod stayed `Running` and did nothing for good, so no data was staged,
/// no status relayed, and the LCM's `deploy_timeout` failed a job whose
/// cluster had been healthy for 25 minutes. A learner in the same spot
/// exits 1 and is restarted; the helpers now do the same. An NFS outage
/// that starts as the helper pod is created and outlasts the wait budget
/// (300.5 s) is the timing that exposed it.
#[test]
fn helpers_that_outwait_an_nfs_outage_restart_instead_of_idling() {
    let (mut sim, platform) = boot(777);
    // A failure below prints what happened to the job.
    sim.trace_mut().set_enabled(true);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("helper-waits", 120));

    let kube = platform.kube().clone();
    let helper = labels! {"job" => job.as_str(), "role" => "helper"};
    let nfs = platform.nfs().clone();
    when(
        &mut sim,
        SimDuration::from_millis(200),
        "NFS outage at helper creation",
        move |_sim| !kube.pods_matching(&helper).is_empty(),
        move |sim| nfs_outage_window(sim, &nfs, SimDuration::from_secs(310)),
    );

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(1),
    );
    assert_eq!(
        end,
        Some(JobStatus::Completed),
        "{job} was failed over helpers that gave up waiting:\n{}",
        sim.trace().of(job.as_str())
    );
    sim.run_for(config::LCM_SCAN * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// A wait must never be lost. store-results no longer ticks: it parks on
/// the `store-go` marker and the controller's relay write wakes it on its
/// next poll instant. If that poll meets an NFS outage it finds no marker
/// and the volume refuses a new wait, so the container must poll its grid
/// until the volume answers — the write that would wake it has already
/// happened. A poller that dropped the refused wait left the job in
/// STORING for good. The outage starts at the relay write itself, so it
/// covers store-results' first poll after it.
#[test]
fn store_results_polls_through_an_outage_over_its_first_poll_after_storing() {
    let (mut sim, platform) = boot(321);
    sim.trace_mut().set_enabled(true);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("store-go-outage", 60));

    let relayed = |platform: &DlaasPlatform| {
        let nfs = platform.nfs();
        nfs.mount(&paths::volume(&job))
            .ok()
            .is_some_and(|mount| mount.exists(paths::NFS_STORE_GO))
    };
    let deadline = sim.now() + SimDuration::from_mins(30);
    while !relayed(&platform) {
        assert!(
            sim.now() < deadline,
            "{job} never reached the store-go relay"
        );
        sim.step();
    }
    nfs_outage_window(&mut sim, platform.nfs(), SimDuration::from_secs(5));
    assert_eq!(platform.job_status(&job), Some(JobStatus::Storing));

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_mins(10),
    );
    assert_eq!(
        end,
        Some(JobStatus::Completed),
        "{job} stranded in STORING: store-results lost its wait\n{}",
        sim.trace().of(job.as_str())
    );
    sim.run_for(config::LCM_SCAN * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// A closed etcd client leaves the etcd RPC network once its last call
/// is answered. A finished job's Guardian and controller used to leave
/// their clients' endpoints behind for good, two per job: this test's
/// warm-up alone left 8 endpoints where 6 belong.
#[test]
fn finished_jobs_leave_the_etcd_rpc_network_as_booted() {
    let (mut sim, platform) = boot(305);
    let client = platform.client("itest", KEY);
    let finish = |sim: &mut Sim, names: &[String]| {
        let jobs: Vec<_> = names
            .iter()
            .map(|name| submit_blocking(sim, &client, manifest(name, 12)))
            .collect();
        let deadline = sim.now() + SimDuration::from_hours(1);
        while jobs
            .iter()
            .any(|j| platform.job_status(j) != Some(JobStatus::Completed))
        {
            assert!(sim.now() < deadline, "{} did not finish", jobs[0]);
            sim.run_for(SimDuration::from_secs(10));
        }
        sim.run_for(config::LCM_SCAN * 6);
    };
    // One job first, whose garbage collection registers the platform's
    // one long-lived client (`lcm-gc`) beside the servers and the LCMs.
    finish(&mut sim, &["rpc-warm".to_owned()]);
    let booted = platform.etcd().rpc().net().endpoint_addrs();
    assert_eq!(booted.len(), 6, "{booted:?}");
    for wave in 0..3 {
        let names: Vec<_> = (0..8).map(|i| format!("rpc-{wave}-{i}")).collect();
        finish(&mut sim, &names);
        assert_eq!(
            platform.etcd().rpc().net().endpoint_addrs(),
            booted,
            "after {} finished jobs",
            8 * (wave + 1)
        );
    }
    check_invariants(&sim, &platform).assert_clean();
}

/// Regression: the Guardian read the stored `attempts` as
/// `as_i64() as u32 + 1`. A stored -1 overflowed (a panic in a debug
/// build, a fresh budget in a release one), and 2^32 truncated to 0, so a
/// job past its budget deployed again. A count outside the budget gives
/// up, whatever it is.
#[test]
fn a_corrupt_attempts_count_gives_up_instead_of_reopening_the_budget() {
    for stored in [-1, 1_i64 << 32] {
        let (mut sim, platform) = boot(311);
        sim.trace_mut().set_enabled(true);
        let client = platform.client("itest", KEY);
        let job = submit_blocking(&mut sim, &client, manifest("corrupt-attempts", 200));
        assert!(
            sim.trace()
                .of(job.as_str())
                .marks()
                .all(|m| m.who != "guardian"),
            "the Guardian booted before the count was corrupted"
        );
        let meta = MetaClient::new(platform.handles().mongo.clone(), "hostile");
        let by_id = Filter::eq("_id", job.as_str());
        meta.update_one(
            &mut sim,
            JOBS,
            by_id,
            Update::set("attempts", stored),
            |_sim, r| {
                assert!(matches!(r, Ok(true)), "{r:?}");
            },
        );
        let end = platform.wait_for_status(
            &mut sim,
            &job,
            JobStatus::Failed,
            SimDuration::from_hours(1),
        );
        let timeline = sim.trace().of(job.as_str()).to_string();
        assert_eq!(
            end,
            Some(JobStatus::Failed),
            "attempts {stored}:\n{timeline}"
        );
        assert!(
            timeline.contains("attempts-exhausted"),
            "attempts {stored}:\n{timeline}"
        );
    }
}

/// Regression: a service call counted its retries, so one that found no
/// endpoint, which fails at once, spent its 15 retries in 15 backoffs: a
/// submit sent while the API was scaled to 0 was refused 6 s after its
/// send, though its retries were sized to span 22 s. A call now retries
/// for its time budget from the first send.
#[test]
fn a_submit_that_finds_no_api_endpoint_keeps_trying_for_its_budget() {
    let (mut sim, platform) = boot(56);
    let client = platform.client("itest", KEY);
    platform.scale_api(&mut sim, 0);
    let api_ready =
        |sim: &Sim| (0..4).any(|i| platform.kube().pod_ready(sim, &format!("dlaas-api-{i}")));
    let deadline = sim.now() + SimDuration::from_secs(60);
    while api_ready(&sim) {
        assert!(sim.now() < deadline, "an API pod is still ready");
        sim.run_for(SimDuration::from_millis(100));
    }
    let sent = sim.now();
    let got = Rc::new(RefCell::new(None));
    let g = got.clone();
    client.submit(&mut sim, manifest("no-endpoint", 60), move |sim, r| {
        *g.borrow_mut() = Some((sim.now() - sent, r));
    });
    sim.run_for(SimDuration::from_secs(8));
    assert_eq!(*got.borrow(), None, "answered with no API pod");
    platform.scale_api(&mut sim, 2);
    sim.run_for(SimDuration::from_secs(30));
    let got = got.borrow();
    let (after, r) = got.as_ref().expect("the submit was never answered");
    assert!(
        r.is_ok(),
        "refused {:.3} s after its send: {r:?}",
        after.as_secs_f64()
    );
}

/// A claim starts the new leader's watchlist empty at watermark 0, so its
/// first read is the whole feed. A replay that read only the changes above
/// a watermark used to skip a finished job whose whole life fell between
/// two reads, so nobody collected it. Staged on the surviving replica:
/// the leader crashes with its etcd client's address cut off, so its
/// restarted incarnation cannot race for the key, and the instant the
/// survivor claims it, a job is written COMPLETED with a leaked etcd key. The key must be cleaned all the same. (An earlier
/// finished job moves the feed's watermark off 0.)
#[test]
fn a_job_finished_between_two_reads_is_collected_by_a_replaying_owner() {
    let (mut sim, platform) = boot(311);
    let meta = MetaClient::new(platform.handles().mongo.clone(), "stage");
    let doc = dlaas_docstore::obj! {"_id" => "earlier", "status" => "COMPLETED"};
    meta.insert(&mut sim, JOBS, doc, |_sim, r| assert!(r.is_ok(), "{r:?}"));
    sim.run_for(SimDuration::from_secs(30));
    let victim = lcm_leader(&platform).expect("the LCM has a leader");
    let job = dlaas_core::JobId::new("finished");
    let key = paths::etcd_store(&job);

    // The first claim from here is the survivor's: the victim crashes,
    // and its next incarnation cannot reach etcd until well after the
    // crashed one's lease expired.
    let staged = Rc::new(RefCell::new(false));
    let (p, j, k, done) = (platform.clone(), job.clone(), key.clone(), staged.clone());
    sim.tap(
        const { &[&lcm::ACQUIRED_UNDER_LEASE] },
        move |sim, _, _, _| {
            let (meta, p, j, k, done) =
                (meta.clone(), p.clone(), j.clone(), k.clone(), done.clone());
            sim.defer(move |sim| {
                *done.borrow_mut() = true;
                let doc = dlaas_docstore::obj! {"_id" => j.as_str(), "status" => "COMPLETED"};
                meta.insert(sim, JOBS, doc, |_sim, r| assert!(r.is_ok(), "{r:?}"));
                let etcd = p.etcd().client("stage");
                etcd.put(sim, k, "go", |_sim, r| assert!(r.is_ok(), "{r:?}"));
            });
            false
        },
    );
    let servers: Vec<Addr> = (0..platform.etcd().len() as u32)
        .map(dlaas_etcd::etcd_addr)
        .collect();
    let cut_off = vec![vec![Addr::new(format!("etcdc/{victim}"))], servers];
    partition_window(
        &mut sim,
        platform.etcd().rpc().net(),
        cut_off,
        config::LCM_LEASE_TTL * 4,
    );
    assert!(platform.kube().crash_pod(&mut sim, &victim));
    sim.run_for(config::LCM_LEASE_TTL + config::LCM_SCAN * 4);
    assert!(*staged.borrow(), "the survivor claimed nothing");
    let survivor = lcm_leader(&platform);
    assert!(
        survivor.as_ref().is_some_and(|s| *s != victim),
        "{survivor:?} leads"
    );

    let leader = platform.etcd().leader_id().expect("etcd has a leader");
    let left = platform.etcd().kv_snapshot(leader).get(&key).is_some();
    assert!(!left, "{job}'s leaked key was never cleaned");
}
