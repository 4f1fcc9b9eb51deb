//! The status path's contract (§III-f): what the controller publishes to
//! etcd, when, and how far the user-visible job document may trail.
//!
//! The controller puts a learner's *phase* change at once and an
//! iteration-only change once per `GUARDIAN_POLL` (the cadence of its one
//! reader, the Guardian's progress mirror); the Guardian mirrors what is
//! published as it arrives. Status is therefore never coalesced, and
//! `JobInfo::iteration` trails the learner by at most one publish window
//! plus one learner report plus one controller tick.

use std::collections::VecDeque;

use dlaas_bench::harness::reported_iteration;
use dlaas_core::{config, paths, DlaasPlatform, JobId, JobStatus, LearnerPhase};
use dlaas_integration::{boot, start_training};
use dlaas_sim::{SimDuration, SimTime};

/// Learner 0's status as the etcd leader's replica holds it.
fn published(platform: &DlaasPlatform, job: &JobId) -> Option<LearnerPhase> {
    let leader = platform.etcd().leader_id()?;
    let key = paths::etcd_learner(job, 0);
    platform
        .etcd()
        .with_kv(leader, |kv| kv.get(&key)?.value.parse().ok())
}

/// `true` once learner 0 has left its exit-0 marker on the job volume.
fn learner_exited(platform: &DlaasPlatform, job: &JobId) -> bool {
    platform
        .nfs()
        .mount(&paths::volume(job))
        .ok()
        .is_some_and(|m| m.read_file(&paths::nfs_learner_exit(0)).as_deref() == Ok("0"))
}

#[test]
fn iterations_are_coalesced_phase_changes_are_not() {
    let (mut sim, platform) = boot(1401);
    let job = start_training(&mut sim, &platform, "publish-rule", 110);

    // While the learner trains, the published value changes no more often
    // than the coalescing window allows; the learner itself reports an
    // iteration every `LEARNER_REPORT`.
    let step = SimDuration::from_millis(20);
    let mut last = published(&platform, &job);
    let mut last_change = sim.now();
    let mut iteration_publishes = 0;
    let exited_at: SimTime = loop {
        sim.run_for(step);
        let now = published(&platform, &job);
        if now != last {
            if let (Some(a), Some(b)) = (last, now) {
                if a.same_kind(&b) {
                    iteration_publishes += 1;
                    let gap = sim.now().saturating_duration_since(last_change);
                    assert!(
                        gap + step >= config::GUARDIAN_POLL,
                        "iteration re-published after {gap}, inside the {} window",
                        config::GUARDIAN_POLL
                    );
                }
            }
            last = now;
            last_change = sim.now();
        }
        if learner_exited(&platform, &job) {
            break sim.now();
        }
        assert!(
            sim.now() < SimTime::from_secs(3_600),
            "{job}'s learner never finished"
        );
    };
    assert!(
        iteration_publishes >= 2,
        "a {}-second training run published its iteration {iteration_publishes} times",
        sim.now()
            .saturating_duration_since(last_change)
            .as_secs_f64()
    );

    // The learner finished inside a coalescing window (the last publish
    // is younger than `GUARDIAN_POLL`): COMPLETED is a phase change and
    // must be in etcd within one controller tick all the same.
    assert!(exited_at.saturating_duration_since(last_change) < config::GUARDIAN_POLL);
    let deadline = exited_at + config::CONTROLLER_POLL + SimDuration::from_millis(50);
    while published(&platform, &job) != Some(LearnerPhase::Completed) {
        assert!(
            sim.now() < deadline,
            "learner exited at {exited_at:?}; etcd still says {:?} at {:?}",
            published(&platform, &job),
            sim.now()
        );
        sim.run_for(SimDuration::from_millis(5));
    }
}

#[test]
fn a_failed_publish_is_retried_on_the_next_tick() {
    let (mut sim, platform) = boot(1402);
    let iters = 60;
    let job = start_training(&mut sim, &platform, "publish-retry", iters);

    // Quorum is lost shortly before the learner finishes and stays lost
    // for longer than one put's whole retry budget (20 attempts, ~12 s):
    // the COMPLETED publish fails at least once.
    while reported_iteration(&platform, &job).is_none_or(|i| i + 4 < iters) {
        sim.run_for(SimDuration::from_millis(200));
    }
    let etcd = platform.etcd().clone();
    let leader = etcd.leader_id().expect("etcd has a leader");
    let down = [leader, (leader + 1) % 3];
    for id in down {
        etcd.crash(&mut sim, id);
    }
    sim.run_for(SimDuration::from_secs(40));
    assert!(
        learner_exited(&platform, &job),
        "the learner finishes inside the outage"
    );
    for id in down {
        etcd.restart(&mut sim, id);
    }
    etcd.expect_leader(&mut sim, SimDuration::from_secs(5));

    // A put re-issued by the very next tick lands within a tick plus one
    // client retry cycle of the leader's return.
    let deadline = sim.now() + config::CONTROLLER_POLL + SimDuration::from_secs(1);
    while published(&platform, &job) != Some(LearnerPhase::Completed) {
        assert!(
            sim.now() < deadline,
            "etcd is back but still says {:?}",
            published(&platform, &job)
        );
        sim.run_for(SimDuration::from_millis(20));
    }
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_mins(10),
    );
    assert_eq!(end, Some(JobStatus::Completed));
}

#[test]
fn job_document_iteration_trails_the_learner_by_a_bounded_time() {
    let (mut sim, platform) = boot(1403);
    let job = start_training(&mut sim, &platform, "staleness", 200);

    // `JobInfo::iteration` at time t is at least what the learner had
    // reported by t − bound. The slack covers the sampling grid and the
    // two store round-trips of the mirror.
    let bound = config::GUARDIAN_POLL + config::LEARNER_REPORT + config::CONTROLLER_POLL;
    let slack = SimDuration::from_millis(600);
    let step = SimDuration::from_millis(500);
    let mut reported: VecDeque<(SimTime, u64)> = VecDeque::new();
    let mut checked = 0;
    while platform.job_status(&job) == Some(JobStatus::Processing)
        && !learner_exited(&platform, &job)
    {
        if let Some(i) = reported_iteration(&platform, &job) {
            reported.push_back((sim.now(), i));
        }
        let mut due = None;
        while reported
            .front()
            .is_some_and(|(t, _)| sim.now().saturating_duration_since(*t) >= bound + slack)
        {
            due = reported.pop_front();
        }
        if let Some((at, learner_had)) = due {
            let doc = platform.job_info(&job).expect("job document").iteration;
            assert!(
                doc >= learner_had,
                "at {:?} the job document says iteration {doc}; the learner reported \\
                 {learner_had} at {at:?}, more than {bound} ago",
                sim.now()
            );
            checked += 1;
        }
        sim.run_for(step);
    }
    assert!(
        checked > 100,
        "only {checked} samples: the job did not train long enough"
    );
}
