//! The invariant checker's two promises since it keeps a memory:
//!
//! * every rule is still there — each seeded defect (a leak of each
//!   kind, a broken history, a blown retry budget, a job stuck before
//!   terminal, a starved queue, an open job under a finished Guardian)
//!   is reported with the same invariant name and detail as ever;
//! * what a pass reports never depends on what the checker remembers — a
//!   model test drives random job-document updates, resource creation
//!   and deletion and clock advances, and after every step a checker
//!   that has seen all of it reports exactly what one that has seen
//!   nothing does.

use dlaas_core::invariants::{check_with, InvariantChecker};
use dlaas_core::marks::lcm;
use dlaas_core::{
    check_invariants, paths, DlaasPlatform, InvariantBounds, JobId, MetaClient, Tenant, JOBS,
};
use dlaas_docstore::{mongo_addr, obj, Filter, MongoRequest, Update, Value};
use dlaas_kube::{labels, ContainerSpec, ImageRef, NetworkPolicy, PodSpec, Resources};
use dlaas_sim::{Sim, SimDuration};
use proptest::prelude::*;

/// A booted platform with no LCM (nothing garbage-collects, admits or
/// deploys what the test seeds) and two tenants: `capped` may hold two
/// GPUs, `open` any number.
fn boot(seed: u64) -> (Sim, DlaasPlatform) {
    let mut sim = Sim::new(seed);
    let platform = DlaasPlatform::bootstrapped(&mut sim);
    platform.scale_lcm(&mut sim, 0);
    platform
        .add_tenant(&Tenant::new("capped", "capped-key", 2))
        .expect("tenant insert");
    platform
        .add_tenant(&Tenant::new("open", "open-key", 0))
        .expect("tenant insert");
    sim.run_for(SimDuration::from_secs(5));
    (sim, platform)
}

/// Microseconds on the simulated clock `secs_ago` seconds ago.
fn ago(sim: &Sim, secs_ago: u64) -> i64 {
    sim.now().as_micros().saturating_sub(secs_ago * 1_000_000) as i64
}

fn settle(sim: &mut Sim) {
    sim.run_for(SimDuration::from_millis(50));
}

fn insert_job(sim: &mut Sim, platform: &DlaasPlatform, doc: Value) {
    let meta = MetaClient::new(platform.handles().mongo.clone(), "invariant-test");
    meta.insert(sim, JOBS, doc, |_sim, r| {
        r.expect("insert accepted");
    });
    settle(sim);
}

fn update_job(sim: &mut Sim, platform: &DlaasPlatform, id: &str, update: Update) {
    let meta = MetaClient::new(platform.handles().mongo.clone(), "invariant-test");
    meta.update_one(sim, JOBS, Filter::eq("_id", id), update, |_sim, r| {
        r.expect("update accepted");
    });
    settle(sim);
}

/// Deletes a job document (nothing in the platform does; a checker that
/// remembers must still forget).
fn delete_job(sim: &mut Sim, platform: &DlaasPlatform, id: &str) {
    let request = MongoRequest::DeleteOne {
        coll: JOBS.into(),
        filter: Filter::eq("_id", id),
    };
    platform.handles().mongo.call(
        sim,
        dlaas_net::Addr::new("invariant-test"),
        mongo_addr(),
        request,
        SimDuration::from_secs(1),
        |_sim, r| {
            r.expect("delete served");
        },
    );
    settle(sim);
}

fn job_doc(id: &str, tenant: &str, status: &str, since_us: i64) -> Value {
    obj! {
        "_id" => id,
        "tenant" => tenant,
        "status" => status,
        "history" => vec![obj! {"status" => status, "t_us" => since_us}],
        "gpus" => 1,
        "attempts" => 1,
        "submitted_us" => since_us,
        "admitted_us" => since_us,
    }
}

/// A pod labelled as `job`'s that asks for more CPU than any node has, so
/// it exists (Pending) without running anything.
fn leak_pod(sim: &mut Sim, platform: &DlaasPlatform, name: &str, job: &str) {
    let container = ContainerSpec::new("c", ImageRef::microservice("dlaas/test"), "api");
    let spec = PodSpec::new(name, container)
        .with_labels(labels! {"job" => job})
        .with_resources(Resources::new(10_000_000, 1, 0), None);
    platform.kube().create_pod(sim, spec);
}

/// A Guardian K8s Job for `job`, as the LCM creates it. Over the
/// manifest-less documents of this file the Guardian can only fail the
/// job (or find it terminal already) and exit 0: the Job reads Complete
/// within seconds.
fn guardian_job(sim: &mut Sim, platform: &DlaasPlatform, job: &str) {
    let container = ContainerSpec::new(
        "guardian",
        ImageRef::microservice("dlaas/guardian"),
        "guardian",
    )
    .with_arg(job);
    let spec = PodSpec::new("unused", container).with_resources(Resources::new(250, 256, 0), None);
    let name = paths::guardian_job(&JobId::new(job));
    platform.kube().create_job(sim, &name, 1, spec);
    sim.run_for(SimDuration::from_secs(5));
}

fn leak_policy(platform: &DlaasPlatform, job: &str) {
    platform.kube().add_network_policy(NetworkPolicy {
        name: paths::network_policy(&JobId::new(job)),
        from: labels! {"job" => job},
        to: labels! {"role" => "core"},
        to_services: vec![],
        exempt_same: None,
    });
}

fn put_key(sim: &mut Sim, platform: &DlaasPlatform, key: String) {
    platform.handles().etcd_gc.put(sim, key, "x", |_sim, r| {
        r.expect("etcd up");
    });
    settle(sim);
}

fn delete_key(sim: &mut Sim, platform: &DlaasPlatform, key: String) {
    platform.handles().etcd_gc.delete(sim, key, |_sim, r| {
        r.expect("etcd up");
    });
    settle(sim);
}

/// `(job, invariant, detail)` of every violation, in report order.
fn found(report: &dlaas_core::InvariantReport) -> Vec<(String, &'static str, String)> {
    report
        .violations
        .iter()
        .map(|v| (v.job.as_str().to_owned(), v.invariant, v.detail.clone()))
        .collect()
}

#[test]
fn each_kind_of_leak_is_reported_once_the_grace_has_passed() {
    let (mut sim, platform) = boot(2001);
    // With the trace on a dirty report tells the flagged job's story.
    sim.trace_mut().set_enabled(true);
    let now = ago(&sim, 0);
    insert_job(
        &mut sim,
        &platform,
        job_doc("gone", "open", "COMPLETED", now),
    );
    insert_job(&mut sim, &platform, job_doc("clean", "open", "FAILED", now));
    insert_job(
        &mut sim,
        &platform,
        job_doc("live", "open", "PROCESSING", now),
    );
    for job in ["gone", "live"] {
        leak_pod(&mut sim, &platform, &format!("learner-{job}-0"), job);
        leak_pod(&mut sim, &platform, &format!("helper-{job}-0"), job);
        platform
            .nfs()
            .create_volume(&paths::volume(&JobId::new(job)));
        leak_policy(&platform, job);
        leak_policy(&platform, job);
        put_key(
            &mut sim,
            &platform,
            paths::etcd_learner(&JobId::new(job), 0),
        );
        put_key(&mut sim, &platform, paths::etcd_store(&JobId::new(job)));
    }
    // Resources that belong to no job document are not this rule's.
    leak_pod(&mut sim, &platform, "stray", "nobody");
    platform.nfs().create_volume("scratch");

    // Inside the grace period GC may still be on its way.
    let early = check_invariants(&sim, &platform);
    early.assert_clean();
    assert_eq!(early.timelines, "", "a clean report appends nothing");
    let bounds = InvariantBounds::from_config(&platform.handles().config);
    sim.run_for(bounds.gc_grace + SimDuration::from_secs(1));

    let report = check_invariants(&sim, &platform);
    assert_eq!(report.jobs_checked, 3);
    assert_eq!(
        found(&report),
        [
            (
                "gone".to_owned(),
                "leak-pods",
                "pods still present: [\"helper-gone-0\", \"learner-gone-0\"]".to_owned()
            ),
            (
                "gone".to_owned(),
                "leak-volume",
                "volume vol-gone still present".to_owned()
            ),
            (
                "gone".to_owned(),
                "leak-netpol",
                "network policy netpol-gone still present".to_owned()
            ),
            (
                "gone".to_owned(),
                "leak-etcd",
                "etcd keys still present: [\"jobs/gone/learners/0\", \"jobs/gone/store\"]"
                    .to_owned()
            ),
        ]
    );

    let printed = report.to_string();
    let story = printed.split_once("timeline of gone:\n").expect(&printed).1;
    assert_eq!(story.matches("kube gone: Created").count(), 2, "{story}");
    assert!(
        !story.contains("live") && !story.contains("nobody"),
        "{story}"
    );

    // Collected piece by piece, the findings go piece by piece.
    platform.kube().delete_pod(&mut sim, "learner-gone-0");
    platform.nfs().delete_volume(&sim, "vol-gone");
    delete_key(&mut sim, &platform, paths::etcd_store(&JobId::new("gone")));
    let report = check_invariants(&sim, &platform);
    assert!(report.timelines.contains("kube gone: Deleted"), "{report}");
    let invariants: Vec<_> = found(&report)
        .into_iter()
        .map(|(_, invariant, detail)| (invariant, detail))
        .collect();
    assert_eq!(
        invariants,
        [
            (
                "leak-pods",
                "pods still present: [\"helper-gone-0\"]".to_owned()
            ),
            (
                "leak-netpol",
                "network policy netpol-gone still present".to_owned()
            ),
            (
                "leak-etcd",
                "etcd keys still present: [\"jobs/gone/learners/0\"]".to_owned()
            ),
        ]
    );
}

#[test]
fn document_rules_and_time_bounds_are_all_still_checked() {
    let (mut sim, platform) = boot(2002);
    let bounds = InvariantBounds::from_config(&platform.handles().config);
    sim.run_for(bounds.terminal_within + SimDuration::from_mins(10));
    let long_ago = ago(&sim, bounds.terminal_within.as_micros() / 1_000_000 + 60);
    let recent = ago(&sim, 30);

    let mut backwards = job_doc("backwards", "open", "PROCESSING", recent);
    Update::set(
        "history",
        vec![
            obj! {"status" => "PROCESSING", "t_us" => recent},
            obj! {"status" => "DEPLOYING", "t_us" => recent - 5},
        ],
    )
    .apply(&mut backwards);
    insert_job(&mut sim, &platform, backwards);

    let mut retried = job_doc("retried", "open", "DEPLOYING", recent);
    Update::set("attempts", 4).apply(&mut retried);
    insert_job(&mut sim, &platform, retried);

    insert_job(
        &mut sim,
        &platform,
        job_doc("stuck", "open", "PROCESSING", long_ago),
    );
    // Queued jobs are clocked by the starvation rule, not this one.
    let mut parked = job_doc("parked", "capped", "QUEUED", long_ago);
    Update::Unset("admitted_us".into()).apply(&mut parked);
    insert_job(&mut sim, &platform, parked);

    let report = check_invariants(&sim, &platform);
    let invariants: Vec<_> = found(&report)
        .into_iter()
        .map(|(job, invariant, _)| (job, invariant))
        .collect();
    assert_eq!(
        invariants,
        [
            ("backwards".to_owned(), "history-monotone"),
            ("backwards".to_owned(), "history-monotone"),
            ("parked".to_owned(), "tenant-starved"),
            ("retried".to_owned(), "attempts-bound"),
            ("stuck".to_owned(), "terminal-bound"),
        ]
    );
    let details: Vec<_> = found(&report).into_iter().map(|v| v.2).collect();
    assert_eq!(
        details[0],
        "status went backwards: PROCESSING -> DEPLOYING (#1)"
    );
    assert!(details[1].starts_with("timestamps went backwards at #1"));
    assert!(
        details[2].contains("despite quota headroom and no admission in")
            && details[2].ends_with("(tenant capped, 1 gpus)"),
        "{}",
        details[2]
    );
    assert_eq!(details[3], "attempts=4 exceeds deploy_max_attempts=3");
    assert!(details[4].starts_with("still PROCESSING after "));

    // Starvation needs headroom AND a stalled arbiter: two running jobs
    // fill the quota; a fresh admission shows the arbiter alive.
    insert_job(
        &mut sim,
        &platform,
        job_doc("held-1", "capped", "PROCESSING", long_ago + 1),
    );
    let starved = |sim: &Sim| {
        found(&check_invariants(sim, &platform))
            .iter()
            .any(|v| v.1 == "tenant-starved")
    };
    assert!(starved(&sim), "one GPU held of two: still headroom");
    insert_job(
        &mut sim,
        &platform,
        job_doc("held-2", "capped", "DEPLOYING", long_ago + 2),
    );
    assert!(!starved(&sim), "quota full: backlog, not starvation");
    update_job(
        &mut sim,
        &platform,
        "held-2",
        Update::set("status", "FAILED"),
    );
    assert!(starved(&sim), "headroom again");
    let fresh = ago(&sim, 0);
    update_job(
        &mut sim,
        &platform,
        "held-2",
        Update::set("admitted_us", fresh),
    );
    assert!(!starved(&sim), "the tenant was admitted moments ago");
}

#[test]
fn a_guardian_job_complete_over_an_open_document_is_reported() {
    let (mut sim, platform) = boot(2004);
    let recent = ago(&sim, 30);
    insert_job(
        &mut sim,
        &platform,
        job_doc("closed", "open", "COMPLETED", recent),
    );
    insert_job(
        &mut sim,
        &platform,
        job_doc("open", "open", "COMPLETED", recent),
    );
    guardian_job(&mut sim, &platform, "closed");
    guardian_job(&mut sim, &platform, "open");
    for job in ["closed", "open"] {
        assert_eq!(
            platform
                .kube()
                .job_status(&paths::guardian_job(&JobId::new(job))),
            Some(dlaas_kube::JobStatus::Complete)
        );
    }
    check_invariants(&sim, &platform).assert_clean();

    // The defect: the Guardian is gone for good and the document is not
    // terminal (a COMPLETED write that was sent, never stored).
    update_job(
        &mut sim,
        &platform,
        "open",
        Update::Many(vec![
            Update::set("status", "STORING"),
            Update::set(
                "history",
                vec![obj! {"status" => "STORING", "t_us" => recent}],
            ),
        ]),
    );
    assert_eq!(
        found(&check_invariants(&sim, &platform)),
        [(
            "open".to_owned(),
            "guardian-done-job-open",
            "guardian job Complete while the document says STORING".to_owned()
        )]
    );
}

/// The leader key's violations carry the key's own timeline, once, with
/// the marks the ledger judged. The replicas are scaled away, so the LCM
/// marks below, made as two replicas would, are all the ledger sees: the
/// key claimed under two leases, then a job swept while both still claim
/// it.
#[test]
fn a_double_claim_is_reported_with_the_shards_timeline() {
    let (mut sim, platform) = boot(2005);
    sim.trace_mut().set_enabled(true);
    sim.mark(&lcm::LEASE_GRANTED, "lcm-a", 901);
    sim.mark(&lcm::LEASE_GRANTED, "lcm-b", 902);
    sim.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, 901);
    sim.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, 902);
    sim.mark(&lcm::GC_LEFTOVERS, "job-3", 901);

    let report = check_invariants(&sim, &platform);
    let shards: Vec<(String, &str)> = found(&report)
        .into_iter()
        .map(|(subject, invariant, _)| (subject, invariant))
        .collect();
    let single = "shard-single-owner";
    assert_eq!(
        shards,
        [
            ("shard-0".to_owned(), single),
            ("shard-0".to_owned(), single)
        ]
    );
    let t = &report.timelines;
    assert_eq!(t.matches("timeline of shard-0:").count(), 1, "{t}");
    for lease in [901, 902] {
        let claim = format!("lcm 0: acquired-under-lease {lease}");
        assert!(t.contains(&claim), "{claim} missing from:\n{t}");
    }
}

#[test]
fn a_negative_stamp_is_reported_not_wrapped_to_a_far_future_instant() {
    // Read as `us as u64`, a stamp of -1 is an instant in the far future:
    // a job clocked by it has not waited, has not been terminal for long,
    // and so slips past every rule that stamp clocks.
    let (mut sim, platform) = boot(2005);
    let bounds = InvariantBounds::from_config(&platform.handles().config);
    sim.run_for(bounds.terminal_within + SimDuration::from_mins(10));
    let long_ago = ago(&sim, bounds.terminal_within.as_micros() / 1_000_000 + 60);

    // Running for longer than the liveness bound, admitted "at -1".
    let mut stuck = job_doc("stuck", "open", "PROCESSING", long_ago);
    Update::set("admitted_us", -1).apply(&mut stuck);
    insert_job(&mut sim, &platform, stuck);
    // Queued with headroom for longer than the admission bound,
    // submitted "at -2".
    let mut parked = job_doc("parked", "capped", "QUEUED", long_ago);
    Update::Unset("admitted_us".into()).apply(&mut parked);
    Update::set("submitted_us", -2).apply(&mut parked);
    insert_job(&mut sim, &platform, parked);
    // Finished long ago with its volume left behind, finished "at -3".
    let mut done = job_doc("done", "open", "COMPLETED", -3);
    Update::set("submitted_us", long_ago).apply(&mut done);
    Update::set("admitted_us", long_ago).apply(&mut done);
    insert_job(&mut sim, &platform, done);
    platform
        .nfs()
        .create_volume(&paths::volume(&JobId::new("done")));

    let report = found(&check_invariants(&sim, &platform));
    let named: Vec<_> = report
        .iter()
        .map(|(job, invariant, _)| (job.as_str(), *invariant))
        .collect();
    assert_eq!(
        named,
        [
            ("done", "stamp-valid"),
            ("parked", "stamp-valid"),
            ("stuck", "stamp-valid"),
            // Its submission stamp is well formed: the liveness rule
            // clocks the job by that instead.
            ("stuck", "terminal-bound"),
        ]
    );
    let details: Vec<_> = report
        .iter()
        .map(|(_, _, detail)| detail.as_str())
        .collect();
    assert_eq!(
        details[..3],
        [
            "terminal history t_us=-3 is negative",
            "submitted_us=-2 is negative",
            "admitted_us=-1 is negative",
        ]
    );
}

const STATUSES: [&str; 8] = [
    "QUEUED",
    "PENDING",
    "DEPLOYING",
    "PROCESSING",
    "COMPLETED",
    "FAILED",
    "KILLED",
    "GARBLED",
];
const TENANTS: [&str; 3] = ["capped", "open", "unknown"];
const N_JOBS: u8 = 5;

#[derive(Debug, Clone)]
enum Op {
    /// Insert the job, or — when it exists — move it to `status` with a
    /// history entry stamped `secs_ago` in the past.
    Job {
        job: u8,
        tenant: u8,
        status: u8,
        secs_ago: u16,
        attempts: u8,
    },
    /// Re-stamp (or clear) the job's admission.
    Admit {
        job: u8,
        secs_ago: Option<u16>,
    },
    /// Delete the job's document.
    Forget {
        job: u8,
    },
    Pod {
        job: u8,
        ordinal: u8,
        exists: bool,
    },
    Volume {
        job: u8,
        exists: bool,
    },
    Policy {
        job: u8,
        exists: bool,
    },
    EtcdKey {
        job: u8,
        key: u8,
        exists: bool,
    },
    /// Create the job's Guardian K8s Job (it ends Complete) or delete it.
    Guardian {
        job: u8,
        exists: bool,
    },
    Advance {
        secs: u16,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let job = || 0..N_JOBS;
    prop_oneof![
        6 => (job(), 0..3u8, 0..8u8, 0..9_000u16, 0..6u8).prop_map(
            |(job, tenant, status, secs_ago, attempts)| Op::Job { job, tenant, status, secs_ago, attempts }
        ),
        2 => (job(), any::<bool>(), 0..900u16)
            .prop_map(|(job, some, s)| Op::Admit { job, secs_ago: some.then_some(s) }),
        1 => job().prop_map(|job| Op::Forget { job }),
        3 => (job(), 0..2u8, any::<bool>()).prop_map(|(job, ordinal, exists)| Op::Pod { job, ordinal, exists }),
        2 => (job(), any::<bool>()).prop_map(|(job, exists)| Op::Volume { job, exists }),
        2 => (job(), any::<bool>()).prop_map(|(job, exists)| Op::Policy { job, exists }),
        3 => (job(), 0..3u8, any::<bool>()).prop_map(|(job, key, exists)| Op::EtcdKey { job, key, exists }),
        1 => (job(), any::<bool>()).prop_map(|(job, exists)| Op::Guardian { job, exists }),
        4 => (1..600u16).prop_map(|secs| Op::Advance { secs }),
    ]
}

fn apply(sim: &mut Sim, platform: &DlaasPlatform, op: Op) {
    let name = |job: u8| format!("job-{job}");
    match op {
        Op::Job {
            job,
            tenant,
            status,
            secs_ago,
            attempts,
        } => {
            let (id, status) = (name(job), STATUSES[status as usize]);
            let at = ago(sim, u64::from(secs_ago));
            if platform.job_document(&JobId::new(id.as_str())).is_none() {
                let mut doc = job_doc(&id, TENANTS[tenant as usize], status, at);
                Update::set("attempts", i64::from(attempts)).apply(&mut doc);
                insert_job(sim, platform, doc);
            } else {
                let update = Update::Many(vec![
                    Update::set("status", status),
                    Update::push("history", obj! {"status" => status, "t_us" => at}),
                    Update::set("attempts", i64::from(attempts)),
                ]);
                update_job(sim, platform, &id, update);
            }
        }
        Op::Admit { job, secs_ago } => {
            let update = match secs_ago {
                Some(s) => Update::set("admitted_us", ago(sim, u64::from(s))),
                None => Update::Unset("admitted_us".into()),
            };
            update_job(sim, platform, &name(job), update);
        }
        Op::Forget { job } => delete_job(sim, platform, &name(job)),
        Op::Pod {
            job,
            ordinal,
            exists,
        } => {
            let pod = format!("learner-{}-{ordinal}", name(job));
            if exists {
                leak_pod(sim, platform, &pod, &name(job));
            } else {
                platform.kube().delete_pod(sim, &pod);
            }
        }
        Op::Volume { job, exists } => {
            let volume = paths::volume(&JobId::new(name(job)));
            if exists {
                platform.nfs().create_volume(&volume);
            } else {
                platform.nfs().delete_volume(sim, &volume);
            }
        }
        Op::Policy { job, exists } => {
            if exists {
                leak_policy(platform, &name(job));
            } else {
                let policy = paths::network_policy(&JobId::new(name(job)));
                platform.kube().remove_network_policy(&policy);
            }
        }
        Op::EtcdKey { job, key, exists } => {
            let id = JobId::new(name(job));
            let key = match key {
                0 => paths::etcd_learner(&id, 0),
                1 => paths::etcd_store(&id),
                _ => paths::etcd_restarts(&id),
            };
            if exists {
                put_key(sim, platform, key);
            } else {
                delete_key(sim, platform, key);
            }
        }
        Op::Guardian { job, exists } => {
            if exists {
                guardian_job(sim, platform, &name(job));
            } else {
                let guardian = paths::guardian_job(&JobId::new(name(job)));
                platform.kube().delete_job(sim, &guardian);
            }
        }
        Op::Advance { secs } => {
            sim.run_for(SimDuration::from_secs(u64::from(secs)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn a_checker_with_a_memory_reports_what_a_fresh_one_does(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let (mut sim, platform) = boot(2003);
        // Bounds short enough for the model's clock advances to cross.
        let bounds = InvariantBounds {
            terminal_within: SimDuration::from_mins(40),
            gc_grace: SimDuration::from_secs(90),
            admission_within: SimDuration::from_mins(4),
        };
        let mut remembering = InvariantChecker::default();
        for op in ops {
            apply(&mut sim, &platform, op.clone());
            let cached = remembering.check(&sim, &platform, &bounds);
            let fresh = check_with(&sim, &platform, &bounds);
            prop_assert_eq!(cached.jobs_checked, fresh.jobs_checked);
            prop_assert_eq!(found(&cached), found(&fresh), "after {:?}", op);
        }
        // Whatever the sequence did, it ends on a comparison that is not
        // empty against empty: a long-finished job with a volume left.
        sim.run_for(SimDuration::from_mins(10));
        let at = ago(&sim, 600);
        insert_job(&mut sim, &platform, job_doc("job-9", "open", "KILLED", at));
        platform.nfs().create_volume("vol-job-9");
        let cached = found(&remembering.check(&sim, &platform, &bounds));
        prop_assert_eq!(&cached, &found(&check_with(&sim, &platform, &bounds)));
        prop_assert!(cached.iter().any(|v| v.0 == "job-9" && v.1 == "leak-volume"));
    }
}
