//! Chaos soak integration: sustained random faults across every layer
//! while jobs run. The platform's §II guarantees must hold throughout:
//! acknowledged jobs complete, statuses never move backwards, and the
//! cluster converges once the chaos stops.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_bench::soak;
use dlaas_core::JobStatus;
use dlaas_integration::{boot, manifest, submit_blocking};
use dlaas_sim::SimDuration;

/// The `chaos` preset at smoke size: a pod monkey and the substrate-fault
/// rotation across the submission window, the invariant monitor (history
/// monotonicity among its rules) throughout, and every job completed.
#[test]
fn jobs_survive_platform_wide_chaos_monkey() {
    let run = soak::run(206, &soak::CHAOS, 8, None, false).result;
    assert_eq!(run.malformed(), None);
    assert!(run.pod_restarts > 0, "the monkey never struck");
    assert_eq!(run.completed, run.n, "a job was lost under chaos");
}

#[test]
fn simultaneous_mongo_and_lcm_crash_is_survivable() {
    let (mut sim, platform) = boot(201);
    let client = platform.client("double", dlaas_integration::KEY);
    let job = submit_blocking(&mut sim, &client, manifest("double-fault", 500));

    // Both the metadata store and the LCM die at once, right after the ACK.
    platform.crash_mongo(&mut sim, Some(SimDuration::from_secs(5)));
    platform.kube().crash_pod(&mut sim, "dlaas-lcm-0");

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(8),
    );
    assert_eq!(end, Some(JobStatus::Completed));
}

#[test]
fn etcd_minority_partition_heals_transparently() {
    let (mut sim, platform) = boot(202);
    let client = platform.client("part", dlaas_integration::KEY);
    let job = submit_blocking(&mut sim, &client, manifest("partition", 900));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );

    // Partition one etcd node away from its peers for a while.
    let etcd = platform.etcd().clone();
    etcd.raft().net().partition(
        &mut sim,
        vec![
            vec![dlaas_raft::raft_addr(0)],
            vec![dlaas_raft::raft_addr(1), dlaas_raft::raft_addr(2)],
        ],
    );
    sim.run_for(SimDuration::from_mins(3));
    etcd.raft().net().heal(&mut sim);

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(8),
    );
    assert_eq!(end, Some(JobStatus::Completed));
}

#[test]
fn repeated_component_crash_cycles_do_not_wedge_the_platform() {
    let (mut sim, platform) = boot(203);
    let client = platform.client("cycle", dlaas_integration::KEY);
    let job = submit_blocking(&mut sim, &client, manifest("cycler", 2_000));
    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );

    // Crash API-0, LCM, the helper, and an etcd follower, over and over.
    for round in 0..4 {
        platform.kube().crash_pod(&mut sim, "dlaas-api-0");
        platform.kube().crash_pod(&mut sim, "dlaas-lcm-0");
        platform
            .kube()
            .crash_pod(&mut sim, &dlaas_core::paths::helper_pod(&job));
        let leader = platform.etcd().leader_id();
        if let Some(l) = leader {
            let follower = (0..3).find(|i| Some(*i) != Some(l)).unwrap();
            platform.etcd().crash(&mut sim, follower);
            sim.run_for(SimDuration::from_secs(30));
            platform.etcd().restart(&mut sim, follower);
        }
        sim.run_for(SimDuration::from_mins(2));
        assert!(
            platform.job_status(&job).is_some(),
            "metadata lost in round {round}"
        );
    }

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(12),
    );
    assert_eq!(end, Some(JobStatus::Completed));
}

#[test]
fn status_history_timestamps_survive_chaos() {
    let (mut sim, platform) = boot(204);
    let client = platform.client("ts", dlaas_integration::KEY);
    let job = submit_blocking(&mut sim, &client, manifest("timestamps", 400));
    // A couple of mid-flight crashes.
    sim.run_for(SimDuration::from_secs(60));
    platform
        .kube()
        .crash_pod(&mut sim, &dlaas_core::paths::guardian_job(&job));
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(8),
    );
    assert_eq!(end, Some(JobStatus::Completed));

    let info = platform.job_info(&job).unwrap();
    // Every lifecycle stage present exactly once, timestamps monotone —
    // the §II "accurate status updates with timestamps" contract.
    let statuses: Vec<_> = info.history.iter().map(|(s, _)| *s).collect();
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
    for w in info.history.windows(2) {
        assert!(w[0].1 <= w[1].1);
    }

    let got: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    client.status(&mut sim, job.clone(), move |_s, r| {
        *g.borrow_mut() = Some(r.unwrap().learner_restarts);
    });
    sim.run_for(SimDuration::from_secs(5));
    assert!(got.borrow().is_some(), "API view still served after chaos");
}
