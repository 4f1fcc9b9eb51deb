//! What a job that is only training costs the platform.
//!
//! A running job's steady-state cost must be proportional to what
//! changed, not to its age or to the poll periods it lived through: the
//! Guardian and the controller react to watches and report deltas (a
//! learner's iteration count at the cadence of its one reader), the log
//! collector ships the tail, Raft sends no heartbeat where an append just
//! went. This suite pins that as budgets per running job-second on
//! one single-learner job over ten simulated minutes of PROCESSING on
//! the default configuration. Every counter is deterministic; a budget
//! breach names the layer that started polling (or re-reading) again.
//!
//! The figures include the idle platform's own floor (Raft heartbeats,
//! LCM leases and sweeps, kube probes), which is why they are budgets
//! with headroom, not exact values.

use dlaas_core::{config, metrics, paths, DlaasPlatform, JobStatus};
use dlaas_integration::{boot, start_training};
use dlaas_sim::{Sim, SimDuration};

const WINDOW: SimDuration = SimDuration::from_mins(10);

/// Cumulative work counters of the layers a running job touches: kernel
/// events, linearizable etcd reads, etcd proposals, docstore operations,
/// Raft messages and NFS reads.
fn work(sim: &Sim, platform: &DlaasPlatform) -> [u64; 6] {
    let m = platform.metrics();
    [
        sim.events_executed(),
        m.counter_total("etcd_reads_total"),
        m.counter_total("etcd_proposals_total"),
        m.histogram_merged(metrics::MONGO_DOCS_EXAMINED)
            .map_or(0, |h| h.count()),
        platform.etcd().raft().net().stats().sent,
        platform.nfs().stats().reads,
    ]
}

/// The floor under every budget below: a booted platform with no jobs.
/// Most of it is Raft keep-alive, whose cadence is etcd's 100 ms
/// heartbeat (`RaftConfig::default`): the leader's tick, with each
/// exchange that can only move a follower's deadline settled at the tick
/// (no delivery events). Measured 21.5 kernel events a second; with every
/// heartbeat and reply delivered as messages 55.7, with each etcd server
/// sweeping its leases every 500 ms whether or not one was near expiry
/// 61.3, and on the Raft paper's 50 ms heartbeat 120.0.
#[test]
fn an_idle_platform_costs_its_keep_alive_and_no_more() {
    let (mut sim, _platform) = boot(1302);
    sim.run_for(SimDuration::from_mins(1));
    let before = sim.events_executed();
    sim.run_for(WINDOW);
    let events = (sim.events_executed() - before) as f64 / WINDOW.as_secs_f64();
    assert!(
        events <= 24.0,
        "{events:.1} kernel events per idle second: something polls again, \
         or keep-alives travel as messages"
    );
}

#[test]
fn a_training_job_costs_what_changed_not_what_it_polled() {
    let (mut sim, platform) = boot(1301);
    // ~0.7 iterations a second: 2000 keep the learner training well
    // past the window.
    let job = start_training(&mut sim, &platform, "running-cost", 2_000);
    // Let the deploy path's tail (data staging, first reports) drain.
    sim.run_for(SimDuration::from_secs(30));

    let before = work(&sim, &platform);
    sim.run_for(WINDOW);
    let after = work(&sim, &platform);
    assert_eq!(
        platform.job_status(&job),
        Some(JobStatus::Processing),
        "the job must train through the whole window"
    );

    let [events, etcd_reads, etcd_proposals, docstore_ops, raft_msgs, nfs_reads] =
        std::array::from_fn(|i| (after[i] - before[i]) as f64 / WINDOW.as_secs_f64());
    // Budgets per running job-second, platform floor included (idle
    // heartbeats alone are 40 raft messages a second at etcd's 100 ms
    // heartbeat — settled ones count as sent — the LCM replicas' lease
    // keepalives 0.67 proposals). Measured 24.1 / 0.13 / 0.70 / 0.27 /
    // 40.3. With every keep-alive delivered as messages 58.5 events; with
    // store-results, the controller and the lease sweeps ticking whether
    // or not anything changed 65.6; on the Raft paper's 50 ms heartbeat
    // 124.2 events and 80.2 messages; with a status put per learner
    // report also 126.6 events and 1.17 proposals; with per-job poll
    // loops 189.4 / 1.60 / 1.67 / 1.20 / 96.4.
    assert!(
        events <= 27.0,
        "{events:.1} kernel events per job-second: a helper or a sweep polls again, \
         or keep-alives travel as messages"
    );
    assert!(
        etcd_reads <= 0.5,
        "{etcd_reads:.2} linearizable etcd reads per job-second: something polls etcd again"
    );
    assert!(
        etcd_proposals <= 0.80,
        "{etcd_proposals:.2} etcd proposals per job-second: the controller publishes iterations nobody reads"
    );
    assert!(
        docstore_ops <= 0.5,
        "{docstore_ops:.2} docstore ops per job-second: something polls the metadata store again"
    );
    assert!(
        raft_msgs <= 44.0,
        "{raft_msgs:.1} raft messages per job-second"
    );
    // The learner writes every two seconds: per second half a tail read
    // by the collector and, from the controller, the two files it reads
    // on the tick each write wakes it for. Measured 1.50; a controller
    // that re-reads on every poll makes it 2.50.
    assert!(
        nfs_reads <= 1.6,
        "{nfs_reads:.2} NFS reads per job-second: a poll re-reads files nobody wrote"
    );

    // The log collector ships the tail: over the job's life so far it
    // read each log line off NFS about once. (A collector that re-reads
    // the file per flush reads it ~150 times over in this window.) The
    // controller's once-a-second status re-read shares the counter and
    // is budgeted at one 64-byte status line per tick.
    let mount = platform
        .nfs()
        .find_volume(&paths::volume(&job))
        .and_then(|vol| platform.nfs().mount(&vol).ok())
        .expect("job volume");
    let read_so_far = platform.nfs().stats().bytes_read;
    let log_bytes: u64 = mount
        .read_lines_from(&paths::nfs_learner_log(0), 0)
        .expect("learner log")
        .iter()
        .map(|l| l.len() as u64 + 1)
        .sum();
    let status_ticks = sim.now().as_micros() / config::CONTROLLER_POLL.as_micros();
    assert!(
        read_so_far <= 2 * log_bytes + 64 * status_ticks,
        "{read_so_far} bytes read off NFS for a {log_bytes}-byte log: the collector re-reads it"
    );
}
