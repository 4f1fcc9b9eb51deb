//! The four workloads. Everything here is frozen: job counts, windows,
//! horizons, cluster sizes and quotas are part of the ruler, and a PR
//! that claims a gain may not edit them.
//!
//! All four are *open loop*: the full arrival schedule is computed from
//! `--seed` before the measured phase starts and every submission is sent
//! at its scheduled simulated instant whatever the platform is doing.

use dlaas_sim::SimDuration;

use crate::traffic::TrafficConfig;

/// Length of one measured slice: a trace span, with a counter snapshot
/// at its end.
pub const SLICE: SimDuration = SimDuration::from_mins(5);

/// The simulation is advanced in steps of this length, each a timed
/// section followed by its share of reference work. Short, because the
/// sandbox's speed changes within a fraction of a second: a step costs
/// 5–80 ms of host time, so the reference work next to it sees the same
/// conditions. Divides [`SLICE`], the idle window and the warm-up horizon.
pub const STEP: SimDuration = SimDuration::from_secs(30);

/// Idle window of the set-up phase (also yields the idle event floor).
pub const IDLE_WINDOW: SimDuration = SimDuration::from_mins(10);

/// Warm-up cohort of the set-up phase: this many short jobs are run to
/// completion before anything is measured, so label interning, docstore
/// indexes, the calendar queue and the allocator are in steady state.
pub const WARMUP_JOBS: u64 = 60;
/// Submission window of the warm-up cohort.
pub const WARMUP_WINDOW: SimDuration = SimDuration::from_mins(3);
/// Simulated time given to the warm-up cohort; all of it must complete.
pub const WARMUP_HORIZON: SimDuration = SimDuration::from_mins(10);

/// Period of the rotating fault schedule on `chaos`.
pub const FAULT_PERIOD: SimDuration = SimDuration::from_mins(7);
/// How long an injected substrate outage lasts (as in the fault matrix:
/// shorter than the Guardian's retry budget, so every job can finish).
pub const FAULT_OUTAGE: SimDuration = SimDuration::from_secs(6);

/// One frozen workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Arrival-process shape.
    pub traffic: TrafficConfig,
    /// Jobs submitted in the measured phase.
    pub jobs: u64,
    /// Measured simulated time (submission window plus drain); a whole
    /// number of [`SLICE`]s.
    pub horizon: SimDuration,
    /// GPU nodes (4 × K80 each).
    pub gpu_nodes: u32,
    /// Per-tenant GPU quotas sized to the cluster, so that over-quota
    /// submissions wait in the weighted fair queue. Off: tenants are
    /// unlimited and nothing queues before the scheduler.
    pub quotas: bool,
    /// Rotating fault schedule, invariant liveness bound sized for it.
    pub chaos: bool,
    /// Mean ideal bare-metal training seconds per job the generator must
    /// produce (checked to ±3 %: a drift means the workload changed).
    pub ideal_train_s_per_job: f64,
}

impl Workload {
    /// Cluster GPU capacity.
    pub fn capacity(&self) -> u32 {
        self.gpu_nodes * 4
    }

    /// Measured slices per repetition.
    pub fn slices(&self) -> u64 {
        self.horizon.as_micros() / SLICE.as_micros()
    }
}

pub const NAMES: [&str; 4] = ["steady", "quiescent", "burst", "chaos"];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    let nsml = TrafficConfig::default();
    Some(match name {
        // The NSML mix: short jobs, so control-plane per-job work (api,
        // docstore, lcm, guardian, kube, etcd status, helper, objstore)
        // dominates and periodic timers are the smaller part.
        "steady" => {
            let traffic = TrafficConfig {
                window: SimDuration::from_mins(45),
                ..nsml
            };
            let jobs = 240;
            Workload {
                name: "steady",
                // Twice the generator's sizing and no quotas: nothing
                // queues, so start delay is LCM pick-up plus Guardian
                // deploy (queueing is `burst`'s subject).
                gpu_nodes: 2 * traffic.capacity_gpus(jobs).div_ceil(4),
                quotas: false,
                traffic,
                jobs,
                horizon: SimDuration::from_mins(80),
                chaos: false,
                ideal_train_s_per_job: 146.9,
            }
        }
        // A few long single-GPU jobs and no queueing: periodic work
        // (raft heartbeats, kubelet probes, Guardian/helper polls, LCM
        // keepalives, learner status and log appends) is nearly all of
        // it and the deploy path almost nothing.
        "quiescent" => Workload {
            name: "quiescent",
            traffic: TrafficConfig {
                whales: 0,
                smalls: 4,
                window: SimDuration::from_mins(5),
                diurnal_amp: 0.0,
                burst_p: 0.0,
                median_duration: SimDuration::from_mins(35),
                duration_sigma: 0.1,
                min_duration: SimDuration::from_mins(25),
                max_duration: SimDuration::from_mins(45),
                multi_learner_p: 0.0,
                ..nsml
            },
            jobs: 16,
            horizon: SimDuration::from_mins(55),
            gpu_nodes: 8,
            quotas: false,
            chaos: false,
            ideal_train_s_per_job: 2110.0,
        },
        // A flash crowd from three tenants onto a deliberately scarce
        // cluster: admission writes, the weighted fair queue, docstore
        // write bursts and the kube pending queue dominate, and
        // turnaround is queue wait.
        "burst" => Workload {
            name: "burst",
            traffic: TrafficConfig {
                whales: 1,
                smalls: 2,
                window: SimDuration::from_mins(5),
                diurnal_amp: 0.0,
                burst_p: 0.10,
                // A thinner duration tail than the NSML mix: turnaround
                // here is to be queue wait, not one late long job.
                median_duration: SimDuration::from_secs(130),
                duration_sigma: 0.5,
                max_duration: SimDuration::from_mins(15),
                ..nsml
            },
            jobs: 240,
            horizon: SimDuration::from_mins(50),
            gpu_nodes: 8,
            quotas: true,
            chaos: false,
            ideal_train_s_per_job: 146.6,
        },
        // The steady mix under a rotating fault schedule: where raft
        // elections, lease takeover, rollback and checkpoint restore run
        // at all, and where work lost to restarts shows.
        "chaos" => {
            let traffic = TrafficConfig {
                window: SimDuration::from_mins(50),
                ..nsml
            };
            let jobs = 200;
            Workload {
                name: "chaos",
                gpu_nodes: 2 * traffic.capacity_gpus(jobs).div_ceil(4),
                quotas: false,
                traffic,
                jobs,
                horizon: SimDuration::from_mins(90),
                chaos: true,
                ideal_train_s_per_job: 147.0,
            }
        }
        _ => return None,
    })
}
