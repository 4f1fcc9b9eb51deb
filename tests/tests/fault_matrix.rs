//! A reduced fault-matrix sweep as a regular integration test: a
//! representative subset of (fault kind x Guardian deployment step)
//! cells on two seeds, each trial judged by the platform invariant
//! checker. The full matrix (all cells x 5 seeds) runs as the
//! dedicated `fault_matrix` bench bin in CI.

use dlaas_bench::matrix::{run_cell, FaultKind, InjectionPoint};

/// One cell per fault kind, spread across the deployment steps so the
/// subset still exercises early, middle and late injection points.
fn subset() -> Vec<(FaultKind, InjectionPoint)> {
    vec![
        (FaultKind::GuardianCrash, InjectionPoint::MarkDeploying),
        (FaultKind::EtcdLeaderCrash, InjectionPoint::CreateLearners),
        (FaultKind::MongoCrash, InjectionPoint::GuardianUp),
        (FaultKind::NfsOutage, InjectionPoint::ProvisionVolume),
        (FaultKind::Partition, InjectionPoint::ApplyPolicies),
        // The sweep-leader kill: the LCM replica owning the job's shard
        // dies mid-deploy; a survivor must take the shard over (lease
        // expiry + CAS) without ever double-driving the job.
        (FaultKind::LcmOwnerCrash, InjectionPoint::MarkDeploying),
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
/// Guardian crashed the moment the helper pod exists, in the order it
/// happened.
#[test]
fn a_cell_carries_its_jobs_timeline_in_order() {
    let outcome = run_cell(7, FaultKind::GuardianCrash, InjectionPoint::CreateHelper);
    assert!(outcome.passed(), "{}", outcome.describe());
    assert!(
        !outcome.describe().contains('\n'),
        "a clean cell is one line"
    );
    let mut rest = outcome.timeline.as_str();
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
        let at = rest
            .find(step)
            .unwrap_or_else(|| panic!("no {step:?} left in:\n{rest}\nof:\n{}", outcome.timeline));
        rest = &rest[at + step.len()..];
    }
}
