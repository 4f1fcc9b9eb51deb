//! A reduced fault-matrix sweep as a regular integration test: a
//! representative subset of (fault kind x Guardian deployment step)
//! cells on two seeds, each trial judged by the platform invariant
//! checker. The full matrix (all cells x 5 seeds) runs as the
//! dedicated `fault_matrix` bench bin in CI.

use dlaas_bench::matrix::{run_cell, FaultKind, POINTS};
use dlaas_core::marks::guardian;
use dlaas_sim::MarkDef;

/// One cell per fault kind, spread across the deployment steps so the
/// subset still exercises early, middle and late injection points.
fn subset() -> Vec<(FaultKind, &'static MarkDef)> {
    vec![
        (FaultKind::GuardianCrash, &guardian::DEPLOYING),
        (FaultKind::EtcdLeaderCrash, &guardian::LEARNERS_CREATED),
        (FaultKind::MongoCrash, &guardian::DEPLOY_ATTEMPT),
        (FaultKind::NfsOutage, &guardian::VOLUME_PROVISIONED),
        (FaultKind::Partition, &guardian::DEPLOYED),
        // The sweep-leader kill: the LCM leader dies mid-deploy; a standby
        // must claim the leader key (lease expiry + CAS) without ever
        // double-driving the job.
        (FaultKind::LcmOwnerCrash, &guardian::DEPLOYING),
    ]
}

#[test]
fn matrix_subset_passes_invariant_checker_on_two_seeds() {
    let mut failures = Vec::new();
    for seed in [7, 8] {
        for (kind, point) in subset() {
            let outcome = run_cell(seed, kind, point);
            if !outcome.passed() {
                failures.push(outcome.describe());
            }
        }
    }
    assert!(
        failures.is_empty(),
        "fault-matrix cells failed:\n{}",
        failures.join("\n")
    );
}

/// What a failed cell would print is the story of its job: here, of a
/// Guardian crashed the moment it created the helper, in the order it
/// happened. And at every point, the fault lands at the instant of the
/// point's Guardian mark, before the Guardian's next step.
#[test]
fn a_cell_carries_its_jobs_timeline_in_order() {
    let outcome = run_cell(7, FaultKind::GuardianCrash, &guardian::HELPER_CREATED);
    assert!(outcome.passed(), "{}", outcome.describe());
    assert!(
        !outcome.describe().contains('\n'),
        "a clean cell is one line"
    );
    let mut rest = outcome.target.timeline.as_str();
    for step in [
        "api auto-0: recorded\n",
        "guardian auto-0: up\n",
        "guardian auto-0: deploy-attempt 1\n",
        "fault auto-0: guardian_crash\n",
        "guardian auto-0: up\n",
        "guardian auto-0: deploy-attempt 2\n",
        "learner auto-0: start 1\n",
        "guardian auto-0: COMPLETED\n",
    ] {
        let at = rest.find(step).unwrap_or_else(|| {
            panic!(
                "no {step:?} left in:\n{rest}\nof:\n{}",
                outcome.target.timeline
            )
        });
        rest = &rest[at + step.len()..];
    }

    let next_steps = POINTS[1..].iter().copied().chain([&guardian::MONITORING]);
    for ((point, next), kind) in POINTS.into_iter().zip(next_steps).zip(FaultKind::all()) {
        let outcome = run_cell(7, kind, point);
        assert!(outcome.passed(), "{}", outcome.describe());
        // (time, "who job: what [arg]") per line.
        let marks: Vec<(&str, &str)> = outcome
            .target
            .timeline
            .lines()
            .filter_map(|line| line.strip_prefix('[')?.split_once("] "))
            .collect();
        let first = |entry: &str| {
            marks
                .iter()
                .position(|(_, mark)| {
                    mark.strip_prefix(entry)
                        .is_some_and(|arg| arg.is_empty() || arg.starts_with(' '))
                })
                .unwrap_or_else(|| panic!("no {entry:?} in:\n{}", outcome.target.timeline))
        };
        let step = first(&format!("guardian auto-0: {}", point.what));
        let fault = first(&format!("fault auto-0: {}", kind.label()));
        assert_eq!(
            marks[fault].0, marks[step].0,
            "{kind:?} at {}: injected at another instant than the mark:\n{}",
            point.what, outcome.target.timeline
        );
        let next = first(&format!("guardian auto-0: {}", next.what));
        assert!(
            step < fault && fault < next,
            "{kind:?} at {}: injected after the next step:\n{}",
            point.what,
            outcome.target.timeline
        );
    }
}
