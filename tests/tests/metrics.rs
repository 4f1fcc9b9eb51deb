//! The dlaas-obs metrics subsystem observed end to end: a full job
//! lifecycle must leave the expected trail in the platform registry, the
//! exposition must be byte-identical across same-seed runs — metrics are
//! part of the deterministic replay surface — and everything exposed
//! must come from exactly one declaration.

use std::collections::BTreeMap;

use dlaas_bench::matrix::{sweep, FaultKind};
use dlaas_core::{metrics, JobStatus};
use dlaas_faults::ChaosMonkey;
use dlaas_integration::{boot, manifest, submit_blocking};
use dlaas_kube::labels;
use dlaas_sim::{MetricDecl, SimDuration};

/// Runs one checkpointed job to completion and returns the platform.
fn lifecycle(seed: u64) -> (dlaas_sim::Sim, dlaas_core::DlaasPlatform) {
    let (mut sim, platform) = boot(seed);
    let client = platform.client("metrics", dlaas_integration::KEY);
    let mut m = manifest("metrics-job", 400);
    m.checkpoint_every = 100;
    let job = submit_blocking(&mut sim, &client, m);
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    sim.run_for(SimDuration::from_mins(2));
    (sim, platform)
}

#[test]
fn job_lifecycle_leaves_a_metrics_trail() {
    let (_sim, platform) = lifecycle(4100);
    let m = platform.metrics();

    // The API served the submission (plus status polls).
    assert_eq!(
        m.counter_value(metrics::API_SUBMISSIONS, &[("outcome", "accepted")]),
        1,
        "exactly one accepted submission"
    );
    assert!(
        m.counter_total(metrics::API_REQUESTS) >= 1,
        "submit was metered"
    );
    assert_eq!(m.counter_total(metrics::API_AUTH_FAILURES), 0);

    // The job walked the whole status ladder, once per rung.
    for status in ["DEPLOYING", "PROCESSING", "STORING", "COMPLETED"] {
        assert_eq!(
            m.counter_value(metrics::JOB_TRANSITIONS, &[("to", status)]),
            1,
            "one transition to {status}"
        );
    }

    // LCM and Guardian did their jobs.
    assert_eq!(m.counter_total(metrics::LCM_GUARDIANS_CREATED), 1);
    assert_eq!(m.counter_total(metrics::GUARDIAN_JOBS_COMPLETED), 1);
    assert_eq!(m.counter_total(metrics::GUARDIAN_JOBS_FAILED), 0);
    // Teardown is idempotent and re-run by GC scans, so "at least once".
    assert!(m.counter_total(metrics::LCM_TEARDOWNS) >= 1);

    // Deploy latency was observed exactly once, with a plausible value.
    let deploy = m
        .histogram_merged(metrics::GUARDIAN_DEPLOY_SECONDS)
        .expect("deploy histogram populated");
    assert_eq!(deploy.count(), 1);
    assert!(
        deploy.sum() > 0.0 && deploy.sum() < 300.0,
        "deploy took {}s",
        deploy.sum()
    );

    // The learner staged data, checkpointed and stored results.
    assert_eq!(m.counter_total(metrics::DATA_STAGED), 1);
    assert_eq!(m.counter_total(metrics::RESULTS_STORED), 1);
    assert!(
        m.counter_total(metrics::CHECKPOINT_WRITES) >= 3,
        "400 iters / 100 per ckpt"
    );
    assert_eq!(m.counter_total(metrics::LEARNER_RESTARTS), 0, "quiet run");
    assert_eq!(
        m.counter_total(metrics::LEARNER_NFS_WRITE_FAILURES),
        0,
        "healthy NFS: no best-effort write may fail"
    );

    // Infrastructure layers report through the same registry (all three
    // keep their hot handles cached; a broken cache would zero these out).
    assert!(m.counter_total(dlaas_etcd::metrics::PROPOSALS) > 0);
    assert!(m.counter_total(dlaas_etcd::metrics::READS) > 0);
    assert!(m.counter_total(dlaas_kube::metrics::EVENTS) > 0);
    assert!(
        m.counter_value(dlaas_kube::metrics::EVENTS, &[("reason", "Scheduled")]) >= 1,
        "per-reason event series survive the handle cache"
    );
    let sched = m
        .histogram_merged(dlaas_kube::metrics::SCHEDULING_LATENCY_SECONDS)
        .expect("scheduling latency populated");
    assert!(sched.count() > 0);
}

#[test]
fn exposition_is_prometheus_shaped() {
    let (_sim, platform) = lifecycle(4200);
    let text = platform.expose_metrics();
    assert!(text.contains("# HELP dlaas_api_requests_total"));
    assert!(text.contains("# TYPE dlaas_api_requests_total counter"));
    assert!(text.contains("# TYPE dlaas_guardian_deploy_seconds histogram"));
    assert!(text.contains("dlaas_job_status_transitions_total{to=\"COMPLETED\"} 1"));
    assert!(text.contains("dlaas_guardian_deploy_seconds_bucket{le=\"+Inf\"} 1"));
    // Every line is HELP, TYPE, or a sample — no stray output.
    for line in text.lines() {
        assert!(
            line.starts_with("# HELP") || line.starts_with("# TYPE") || line.contains(' '),
            "malformed exposition line: {line:?}"
        );
    }
}

/// Exposition text for one chaos run.
fn chaos_exposition(seed: u64) -> String {
    let (mut sim, platform) = boot(seed);
    let client = platform.client("metrics", dlaas_integration::KEY);
    let monkey = ChaosMonkey::unleash(
        &mut sim,
        platform.kube(),
        labels! {},
        SimDuration::from_secs(45),
        0.5,
    );
    let mut m = manifest("chaos-metrics", 400);
    m.checkpoint_every = 100;
    let job = submit_blocking(&mut sim, &client, m);
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(12),
    );
    monkey.stop();
    sim.run_for(SimDuration::from_mins(5));
    platform.expose_metrics()
}

#[test]
fn same_seed_runs_expose_byte_identical_metrics() {
    let a = chaos_exposition(4300);
    let b = chaos_exposition(4300);
    assert_eq!(a, b, "same seed must expose byte-identical metrics");
    assert_ne!(
        a,
        chaos_exposition(4301),
        "different seeds must diverge somewhere in the registry"
    );
}

/// The declaration lists of every crate that records metrics.
fn declaration_lists() -> [(&'static str, &'static [MetricDecl]); 5] {
    [
        ("dlaas-etcd", dlaas_etcd::metrics::ALL),
        ("dlaas-kube", dlaas_kube::metrics::ALL),
        ("dlaas-docstore", dlaas_docstore::metrics::ALL),
        ("dlaas-core", dlaas_core::metrics::ALL),
        ("dlaas-bench", dlaas_bench::metrics::ALL),
    ]
}

/// `family → kind` off an exposition's `# TYPE` lines.
fn exposed_families(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_once(' '))
        .map(|(name, kind)| (name.to_owned(), kind.to_owned()))
        .collect()
}

#[test]
fn no_metric_name_is_declared_twice() {
    let mut owner: BTreeMap<&str, &str> = BTreeMap::new();
    for (krate, list) in declaration_lists() {
        assert!(!list.is_empty(), "{krate} declares nothing");
        for decl in list {
            if let Some(first) = owner.insert(decl.name, krate) {
                panic!(
                    "`{}` is declared by {first} and again by {krate}",
                    decl.name
                );
            }
        }
    }
}

#[test]
fn every_exposed_family_is_declared_with_its_kind() {
    // One job through its whole lifecycle with every fault of the matrix
    // injected along the way, then the harness's own registries from a
    // slice of the fault-matrix campaign.
    let (mut sim, platform) = boot(4400);
    let client = platform.client("metrics", dlaas_integration::KEY);
    let mut m = manifest("declared-metrics", 600);
    m.checkpoint_every = 100;
    let job = submit_blocking(&mut sim, &client, m);
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_hours(1),
    );
    for fault in FaultKind::all() {
        fault.inject(&mut sim, &platform, Some(&job));
        sim.run_for(SimDuration::from_secs(45));
    }
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(12),
    );
    sim.run_for(SimDuration::from_mins(5));
    let mut exposed = exposed_families(&platform.expose_metrics());
    let campaign = sweep(&[FaultKind::GuardianCrash], 4401, 1, 1, None);
    exposed.extend(exposed_families(&campaign.run.metrics.expose()));
    exposed.extend(exposed_families(&campaign.report.wall_metrics.expose()));

    let declared: BTreeMap<&str, &str> = declaration_lists()
        .into_iter()
        .flat_map(|(_, list)| list)
        .map(|d| (d.name, d.kind.as_str()))
        .collect();
    assert!(
        exposed.len() >= 25,
        "suspiciously few families exposed: {exposed:?}"
    );
    for (name, kind) in &exposed {
        assert_eq!(
            declared.get(name.as_str()),
            Some(&kind.as_str()),
            "`{name}` is exposed as a {kind} but not declared as one"
        );
    }
}
