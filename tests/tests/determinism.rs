//! Whole-platform determinism: the same seed must produce bit-identical
//! histories across the full stack — including under chaos — because
//! every dependability experiment in this repository depends on replay.

use dlaas_bench::matrix::{self, FaultKind};
use dlaas_core::JobStatus;
use dlaas_faults::ChaosMonkey;
use dlaas_integration::{boot, manifest, submit_blocking};
use dlaas_kube::labels;
use dlaas_sim::SimDuration;

/// A condensed fingerprint of one run.
fn run_fingerprint(seed: u64, chaos: bool) -> String {
    let (mut sim, platform) = boot(seed);
    sim.trace_mut().set_enabled(true);
    let client = platform.client("det", dlaas_integration::KEY);
    let monkey = chaos.then(|| {
        ChaosMonkey::unleash(
            &mut sim,
            platform.kube(),
            labels! {},
            SimDuration::from_secs(40),
            0.5,
        )
    });
    let mut jobs = Vec::new();
    for i in 0..2 {
        let mut m = manifest(&format!("det-{i}"), 500);
        m.checkpoint_every = 150;
        jobs.push(submit_blocking(&mut sim, &client, m));
        sim.run_for(SimDuration::from_secs(60));
    }
    for job in &jobs {
        platform.wait_for_status(
            &mut sim,
            job,
            JobStatus::Completed,
            SimDuration::from_hours(12),
        );
    }
    if let Some(m) = monkey {
        m.stop();
    }
    sim.run_for(SimDuration::from_mins(5));

    let mut out = String::new();
    for job in &jobs {
        let info = platform.job_info(job).expect("job recorded");
        out.push_str(&format!(
            "{}:{}:{}:{:?}:",
            job, info.status, info.learner_restarts, info.images_per_sec
        ));
        for (s, t) in &info.history {
            out.push_str(&format!("{s}@{t},"));
        }
        out.push(';');
    }
    // The whole timeline is part of the fingerprint too: every
    // component's marks, kube's cluster events among them.
    for mark in sim.trace().marks() {
        out.push_str(&format!("{mark};"));
    }
    out
}

#[test]
fn same_seed_same_history_quiet() {
    assert_eq!(run_fingerprint(900, false), run_fingerprint(900, false));
}

#[test]
fn same_seed_same_history_under_chaos() {
    assert_eq!(run_fingerprint(901, true), run_fingerprint(901, true));
}

#[test]
fn different_seeds_diverge() {
    assert_ne!(run_fingerprint(902, true), run_fingerprint(903, true));
}

/// What a failed campaign cell or a violated invariant prints — one
/// job's rendered timeline — repeats byte for byte, under chaos too.
#[test]
fn same_seed_same_job_timeline() {
    let timeline = |seed: u64| {
        let (mut sim, platform) = boot(seed);
        sim.trace_mut().set_enabled(true);
        let client = platform.client("det", dlaas_integration::KEY);
        let monkey = ChaosMonkey::unleash(
            &mut sim,
            platform.kube(),
            labels! {},
            SimDuration::from_secs(40),
            0.5,
        );
        let mut m = manifest("det-timeline", 300);
        m.checkpoint_every = 100;
        let job = submit_blocking(&mut sim, &client, m);
        let end = platform.wait_for_status(
            &mut sim,
            &job,
            JobStatus::Completed,
            SimDuration::from_hours(12),
        );
        monkey.stop();
        assert_eq!(end, Some(JobStatus::Completed));
        // The document turns COMPLETED before its writer hears so.
        sim.run_for(SimDuration::from_secs(1));
        sim.trace().of(job.as_str()).to_string()
    };
    let (a, b) = (timeline(904), timeline(904));
    assert_eq!(a, b, "same-seed timelines must be byte-identical");
    assert!(a.contains("api auto-0: recorded\n"), "{a}");
    assert!(a.contains("guardian auto-0: COMPLETED\n"), "{a}");
    assert_ne!(a, timeline(905));
}

/// The acceptance gate for the BTreeMap migration: a full fault-matrix
/// campaign aggregates metrics from dozens of platform boots, so any
/// surviving hashed-iteration order (RPC emission, watch re-registration,
/// docstore queries) shows up as a diff in the exposition text.
#[test]
fn same_seed_fault_matrix_exposes_identical_metrics() {
    let fingerprint = |seed: u64| {
        let kinds = FaultKind::all();
        let campaign = matrix::sweep(&kinds, seed, 1, 1);
        let mut out = campaign.metrics.expose();
        for o in campaign.outcomes() {
            out.push_str(&o.describe());
            out.push('\n');
        }
        out
    };
    let a = fingerprint(910);
    let b = fingerprint(910);
    assert_eq!(a, b, "same-seed fault-matrix runs must be byte-identical");
    assert!(
        a.contains("bench_matrix_recovery_seconds"),
        "campaign recorded no recovery observations"
    );
}
