//! The fault matrix: every fault kind crossed with every Guardian
//! deployment step, each trial judged by the platform invariant checker.
//!
//! The paper validates dependability with targeted `kubectl` experiments
//! (Fig. 4) and anecdotal chaos runs. This module systematises that into
//! a campaign: for each of the Guardian's six deployment steps (§III-d)
//! a trigger watches for the step's observable side effect and, the
//! moment it appears, injects one fault — a Guardian crash, an etcd
//! leader crash, a metadata-store crash, an NFS outage or a network
//! partition of the etcd leader. The job must still complete, and the
//! whole platform must satisfy every invariant of
//! [`dlaas_core::invariants`] (liveness, status monotonicity, bounded
//! retries, no leaked resources) at every instant of the run.
//!
//! A cell is a [`crate::soak`] run: the [`CELL`] preset with N = 1 and
//! the plan [`Plan::At`]`(kind, point)`, so the invariant monitor watches
//! it from submission to the final check. [`run_cell`] runs one
//! (fault, step, seed) trial; [`sweep`] runs a matrix on the seed-parallel
//! [`CampaignRunner`] and merges the records by trial id, so every
//! aggregate here — tables, the [`render_matrix_json`] artifact, the
//! replayed [`MATRIX_RECOVERY_SECONDS`] histogram — is byte-identical for
//! any thread count. The same [`FaultKind`]s are the `chaos` preset's
//! rotation.

use std::fmt;
use std::str::FromStr;

use dlaas_core::{config, paths, DlaasPlatform, JobId, JobStatus};
use dlaas_faults::{nfs_outage_window, partition_window};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_kube::{labels, PodPhase};
use dlaas_raft::raft_addr;
use dlaas_sim::{Sim, SimDuration};

use crate::harness::{bench_tenants, experiment_config, EXPERIMENT_DATASET_BYTES};
use crate::metrics::MATRIX_RECOVERY_SECONDS;
use crate::runner::{CampaignReport, CampaignRunner, Trial, TrialRun};
use crate::soak::{self, Arrival, Plan, Preset};

/// How long substrate outages (NFS, MongoDB, etcd node, partition) last.
///
/// Sized against the deploy retry budget: a mid-deploy failure costs one
/// of `deploy_max_attempts` (3) Guardian incarnations, and with the
/// default kubelet timings (crash detect 600ms, first restart free,
/// second restart backed off by 10s, jitter ±25%) the third incarnation
/// boots no earlier than ~8.9s after the first failure. A 6s outage
/// therefore always leaves at least one attempt that runs against
/// healthy substrates.
fn outage() -> SimDuration {
    SimDuration::from_secs(6)
}

/// One injectable platform-level fault: the vocabulary of the matrix and
/// of the chaos rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `kubectl delete`-style crash of the job's Guardian pod.
    GuardianCrash,
    /// Crash of the current etcd leader node (restarted after the
    /// outage window — a rolling node failure, not a quorum loss).
    EtcdLeaderCrash,
    /// Crash of the metadata store; it recovers from its journal.
    MongoCrash,
    /// NFS data plane unavailable for the outage window.
    NfsOutage,
    /// The etcd leader partitioned away from its peers, then healed.
    Partition,
    /// Crash of the LCM replica that owns the job's shard — the sweep
    /// "leader" for this job. Its lease must expire and a survivor must
    /// take the shard over without ever double-driving the job.
    LcmOwnerCrash,
}

impl FaultKind {
    /// Every fault kind, in campaign order.
    pub fn all() -> [FaultKind; 6] {
        [
            FaultKind::GuardianCrash,
            FaultKind::EtcdLeaderCrash,
            FaultKind::MongoCrash,
            FaultKind::NfsOutage,
            FaultKind::Partition,
            FaultKind::LcmOwnerCrash,
        ]
    }

    /// Metric label value.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::GuardianCrash => "guardian_crash",
            FaultKind::EtcdLeaderCrash => "etcd_leader_crash",
            FaultKind::MongoCrash => "mongo_crash",
            FaultKind::NfsOutage => "nfs_outage",
            FaultKind::Partition => "partition",
            FaultKind::LcmOwnerCrash => "lcm_owner_crash",
        }
    }

    /// Applies the fault to a live platform. `job` is the job it
    /// targets, if any: a Guardian crash without one injects nothing, an
    /// LCM owner crash without one kills replica 0, and the substrate
    /// faults do not read it.
    pub fn inject(&self, sim: &mut Sim, platform: &DlaasPlatform, job: Option<&JobId>) {
        sim.mark(
            "fault",
            job.map_or("platform", JobId::as_str),
            self.label(),
            0,
        );
        match self {
            FaultKind::GuardianCrash => {
                if let Some(job) = job {
                    platform.kube().crash_pod(sim, &paths::guardian_job(job));
                }
            }
            FaultKind::EtcdLeaderCrash => {
                if let Some(leader) = platform.etcd().leader_id() {
                    let cluster = platform.etcd().clone();
                    cluster.crash(sim, leader);
                    sim.schedule_in(outage(), move |sim| cluster.restart(sim, leader));
                }
            }
            FaultKind::MongoCrash => platform.crash_mongo(sim, Some(outage())),
            FaultKind::NfsOutage => nfs_outage_window(sim, platform.nfs(), outage()),
            FaultKind::Partition => {
                // Both sides of the split must be listed: a group
                // partition leaves unlisted addresses unaffected.
                if let Some(leader) = platform.etcd().leader_id() {
                    let peers = (0..platform.etcd().len() as u32)
                        .filter(|&i| i != leader)
                        .map(raft_addr)
                        .collect();
                    partition_window(
                        sim,
                        platform.etcd().raft().net(),
                        vec![vec![raft_addr(leader)], peers],
                        outage(),
                    );
                }
            }
            FaultKind::LcmOwnerCrash => {
                // Read the shard's owner key off the etcd leader to find
                // which replica sweeps this job, then kill exactly that
                // pod. Falls back to replica 0 when the key is not there
                // yet (shard unclaimed at injection time).
                let owner = job.and_then(|job| {
                    let key = paths::lcm_shard_owner(paths::job_shard(job, config::LCM_SHARDS));
                    let leader = platform.etcd().leader_id()?;
                    let owner = platform.etcd().kv_snapshot(leader).get(&key)?.value.clone();
                    Some(owner)
                });
                let owner = owner.unwrap_or_else(|| "dlaas-lcm-0".to_owned());
                platform.kube().crash_pod(sim, &owner);
            }
        }
    }
}

impl FromStr for FaultKind {
    type Err = String;

    /// Parses a metric label back into the kind.
    fn from_str(label: &str) -> Result<Self, String> {
        let kinds = FaultKind::all();
        kinds
            .into_iter()
            .find(|k| k.label() == label)
            .ok_or_else(|| {
                let labels: Vec<_> = kinds.iter().map(FaultKind::label).collect();
                format!("unknown fault {label:?} (one of {labels:?})")
            })
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::GuardianCrash => "guardian crash",
            FaultKind::EtcdLeaderCrash => "etcd leader crash",
            FaultKind::MongoCrash => "mongo crash",
            FaultKind::NfsOutage => "NFS outage",
            FaultKind::Partition => "partition",
            FaultKind::LcmOwnerCrash => "LCM owner crash",
        };
        f.write_str(s)
    }
}

/// The Guardian's six deployment steps (§III-d), each identified by its
/// first observable side effect — the trigger condition for injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPoint {
    /// Step 1 (rollback + start): the Guardian pod is Running.
    GuardianUp,
    /// Step 2: the job's persisted status flipped to DEPLOYING.
    MarkDeploying,
    /// Step 3: the job's NFS volume exists.
    ProvisionVolume,
    /// Step 4: the helper pod exists.
    CreateHelper,
    /// Step 5: learner pods exist.
    CreateLearners,
    /// Step 6: the job's network policy is applied.
    ApplyPolicies,
}

impl InjectionPoint {
    /// Every injection point, in deployment-step order.
    pub fn all() -> [InjectionPoint; 6] {
        [
            InjectionPoint::GuardianUp,
            InjectionPoint::MarkDeploying,
            InjectionPoint::ProvisionVolume,
            InjectionPoint::CreateHelper,
            InjectionPoint::CreateLearners,
            InjectionPoint::ApplyPolicies,
        ]
    }

    /// Metric label value.
    pub fn label(&self) -> &'static str {
        match self {
            InjectionPoint::GuardianUp => "guardian_up",
            InjectionPoint::MarkDeploying => "mark_deploying",
            InjectionPoint::ProvisionVolume => "provision_volume",
            InjectionPoint::CreateHelper => "create_helper",
            InjectionPoint::CreateLearners => "create_learners",
            InjectionPoint::ApplyPolicies => "apply_policies",
        }
    }

    /// The trigger predicate: `true` once the step's side effect is
    /// observable on the platform.
    pub fn predicate(&self, platform: &DlaasPlatform, job: &JobId) -> Box<dyn FnMut(&Sim) -> bool> {
        let kube = platform.kube().clone();
        let job = job.clone();
        match self {
            InjectionPoint::GuardianUp => {
                let pod = paths::guardian_job(&job);
                Box::new(move |_| kube.pod_phase(&pod) == Some(PodPhase::Running))
            }
            InjectionPoint::MarkDeploying => {
                let platform = platform.clone();
                Box::new(move |_| platform.job_status(&job) == Some(JobStatus::Deploying))
            }
            InjectionPoint::ProvisionVolume => {
                let nfs = platform.nfs().clone();
                let vol = paths::volume(&job);
                Box::new(move |_| nfs.find_volume(&vol).is_some())
            }
            InjectionPoint::CreateHelper => {
                let sel = labels! {"job" => job.as_str(), "role" => "helper"};
                Box::new(move |_| !kube.pods_matching(&sel).is_empty())
            }
            InjectionPoint::CreateLearners => {
                let sel = labels! {"job" => job.as_str(), "role" => "learner"};
                Box::new(move |_| !kube.pods_matching(&sel).is_empty())
            }
            InjectionPoint::ApplyPolicies => {
                let netpol = paths::network_policy(&job);
                Box::new(move |_| kube.network_policy_names().contains(&netpol))
            }
        }
    }
}

impl FromStr for InjectionPoint {
    type Err = String;

    /// Parses a metric label back into the point.
    fn from_str(label: &str) -> Result<Self, String> {
        let points = InjectionPoint::all();
        points
            .into_iter()
            .find(|p| p.label() == label)
            .ok_or_else(|| {
                let labels: Vec<_> = points.iter().map(InjectionPoint::label).collect();
                format!("unknown injection point {label:?} (one of {labels:?})")
            })
    }
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InjectionPoint::GuardianUp => "guardian up",
            InjectionPoint::MarkDeploying => "mark DEPLOYING",
            InjectionPoint::ProvisionVolume => "provision volume",
            InjectionPoint::CreateHelper => "create helper",
            InjectionPoint::CreateLearners => "create learners",
            InjectionPoint::ApplyPolicies => "apply policies",
        };
        f.write_str(s)
    }
}

/// A matrix cell as a soak preset: 300-iteration ResNet-50 jobs submitted
/// at once onto two one-GPU K80 nodes, the invariant monitor checking
/// every second, and a drain of the job's hour plus six LCM scan periods
/// — well past the GC grace (three), so the leak invariants apply with
/// full force. A cell runs it with N = 1 and its own [`Plan::At`].
pub const CELL: Preset = Preset {
    name: "cell",
    default_sizes: &[1],
    arrivals: |_, n| {
        let job = Arrival {
            at: SimDuration::ZERO,
            tenant: 0,
            framework: Framework::TensorFlow,
            model: DlModel::Resnet50,
            learners: 1,
            iterations: 300,
            checkpoint_every: 0,
        };
        vec![job; n as usize]
    },
    window: |_| SimDuration::ZERO,
    drain: SimDuration::from_micros(
        SimDuration::from_hours(1).as_micros() + config::LCM_SCAN.as_micros() * 6,
    ),
    platform: |_| experiment_config(GpuKind::K80, 1),
    tenants: bench_tenants,
    dataset_bytes: EXPERIMENT_DATASET_BYTES,
    plan: Plan::None,
    monitor: Some(|_| SimDuration::from_secs(1)),
};

/// Outcome of one (fault, step, seed) trial: the view of its
/// [`soak::SoakRun`] the matrix reads.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The injected fault.
    pub kind: FaultKind,
    /// The deployment step it targeted.
    pub point: InjectionPoint,
    /// The simulation seed.
    pub seed: u64,
    /// The job's status when the wait for it ended.
    pub status: Option<JobStatus>,
    /// Whether the trigger fired (the step was actually reached).
    pub fault_fired: bool,
    /// Injection-to-terminal time, when the job reached a terminal state.
    pub recovery: Option<SimDuration>,
    /// Distinct invariant violations: the monitor's over the whole run
    /// and the final sweep's.
    pub violations: u64,
    /// What the final sweep found, rendered.
    pub final_violations: Vec<String>,
    /// The job's timeline, rendered.
    pub timeline: String,
}

impl CellOutcome {
    /// A cell passes when the fault really fired, the job still
    /// completed, and no platform invariant was ever violated.
    pub fn passed(&self) -> bool {
        self.fault_fired && self.status == Some(JobStatus::Completed) && self.violations == 0
    }

    /// One summary line for tables and failure messages; a cell that did
    /// not pass adds what happened to its job.
    pub fn describe(&self) -> String {
        let mut line = format!(
            "{} at {} (seed {}): status={:?} fired={} violations={}",
            self.kind, self.point, self.seed, self.status, self.fault_fired, self.violations
        );
        if !self.passed() {
            line.push('\n');
            line.push_str(self.timeline.trim_end());
        }
        line
    }
}

/// Runs one cell of the matrix: a [`CELL`] soak run of one job, with
/// `kind` injected the moment `point` becomes observable.
pub fn run_cell(seed: u64, kind: FaultKind, point: InjectionPoint) -> CellOutcome {
    cell(seed, kind, point).result
}

fn cell(seed: u64, kind: FaultKind, point: InjectionPoint) -> TrialRun<CellOutcome> {
    let preset = Preset {
        plan: Plan::At(kind, point),
        ..CELL
    };
    let TrialRun {
        result: run,
        sim_elapsed,
    } = soak::run(seed, &preset, 1, None, false);
    let target = run.target.unwrap_or_default();
    TrialRun {
        result: CellOutcome {
            kind,
            point,
            seed,
            status: target.status,
            fault_fired: target.fired,
            recovery: target.recovery,
            violations: run.invariant_violations,
            final_violations: run.final_violations,
            timeline: target.timeline,
        },
        sim_elapsed,
    }
}

/// A full matrix campaign: outcomes plus an aggregate registry holding
/// the [`MATRIX_RECOVERY_SECONDS`] histogram across every cell.
#[derive(Debug)]
pub struct MatrixRun {
    /// One outcome per (fault, step, seed).
    pub outcomes: Vec<CellOutcome>,
    /// Aggregated recovery histogram, labelled by fault and point.
    pub metrics: dlaas_sim::Registry,
}

impl MatrixRun {
    /// Every cell that did not pass.
    pub fn failures(&self) -> Vec<&CellOutcome> {
        self.outcomes.iter().filter(|o| !o.passed()).collect()
    }
}

/// A matrix campaign executed through the runner: the aggregate
/// [`MatrixRun`] (completed cells only) plus the full per-trial report
/// with any `TIMEOUT`/panic records.
#[derive(Debug)]
pub struct MatrixCampaign {
    /// Aggregated outcomes and recovery histogram over completed trials.
    pub run: MatrixRun,
    /// The per-trial report, sorted by trial id.
    pub report: CampaignReport<CellOutcome>,
}

/// Runs the matrix over the given fault kinds (all of them, or the
/// `--fault LABEL` smoke subset CI runs on every push) × every injection
/// point × `seeds` seeds from `base_seed`, on `threads` workers. Trial
/// ids are positions in that nesting order, and each abnormal record
/// carries the command that replays its cell alone. Records merge by
/// trial id and the recovery histogram is replayed from the merged
/// sequence on the calling thread, so every output — including the
/// registry exposition — is byte-identical for any `threads`.
pub fn sweep(
    kinds: &[FaultKind],
    base_seed: u64,
    seeds: u64,
    threads: usize,
    sim_budget: Option<SimDuration>,
) -> MatrixCampaign {
    let mut trials = Vec::new();
    for &kind in kinds {
        for point in InjectionPoint::all() {
            for seed in base_seed..base_seed + seeds {
                let cell = format!("{}/{}", kind.label(), point.label());
                trials.push(Trial {
                    label: format!("{cell}/{seed}"),
                    repro: format!(
                        "cargo run --release -p dlaas-bench --bin fault_matrix -- --trial {cell} --seed {seed}"
                    ),
                    spec: (seed, kind, point),
                });
            }
        }
    }
    let mut runner = CampaignRunner::new("fault_matrix", threads);
    if let Some(b) = sim_budget {
        runner = runner.with_sim_budget(b);
    }
    let report = runner.run(trials, |&(seed, kind, point), _ctx| cell(seed, kind, point));

    // Replay the merged records into a fresh registry. Histogram bucket
    // counts are commutative, but replaying in trial-id order makes the
    // determinism argument trivial: same sorted inputs, same exposition.
    let metrics = dlaas_sim::Registry::new();
    let outcomes: Vec<CellOutcome> = report.results().cloned().collect();
    for out in &outcomes {
        if let Some(d) = out.recovery {
            metrics
                .histogram_series(
                    MATRIX_RECOVERY_SECONDS,
                    [out.kind.label(), out.point.label()],
                )
                .observe_duration_us(d.as_micros());
        }
    }
    MatrixCampaign {
        run: MatrixRun { outcomes, metrics },
        report,
    }
}

/// Renders a matrix campaign as a byte-stable JSON artifact: one object
/// per cell in trial-id order, abnormal (timeout/panic) records with
/// their repro commands, and the full metrics exposition. Contains no
/// thread count and no wall-clock reading, so the artifact is identical
/// for any `--threads` value.
pub fn render_matrix_json(base_seed: u64, seeds: u64, campaign: &MatrixCampaign) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"campaign\": \"fault_matrix\",\n");
    out.push_str(&format!("  \"base_seed\": {base_seed},\n"));
    out.push_str(&format!("  \"seeds\": {seeds},\n"));
    out.push_str("  \"cells\": [\n");
    let cells: Vec<String> = campaign
        .run
        .outcomes
        .iter()
        .map(|o| {
            let status = o.status.map_or("null".to_owned(), |s| format!("\"{s:?}\""));
            let recovery = o
                .recovery
                .map_or("null".to_owned(), |d| d.as_micros().to_string());
            format!(
                "    {{\"fault\": \"{}\", \"point\": \"{}\", \"seed\": {}, \"status\": {status}, \
                 \"fired\": {}, \"recovery_us\": {recovery}, \"violations\": {}, \"passed\": {}}}",
                o.kind.label(),
                o.point.label(),
                o.seed,
                o.fault_fired,
                o.violations,
                o.passed()
            )
        })
        .collect();
    out.push_str(&cells.join(",\n"));
    out.push_str("\n  ],\n");
    let failures: Vec<String> = campaign
        .run
        .failures()
        .iter()
        .map(|o| format!("    \"{}\"", json_escape(&o.describe())))
        .collect();
    out.push_str("  \"failures\": [\n");
    out.push_str(&failures.join(",\n"));
    out.push_str("\n  ],\n");
    let abnormal: Vec<String> = campaign
        .report
        .failure_records()
        .iter()
        .map(|d| format!("    \"{}\"", json_escape(d)))
        .collect();
    out.push_str("  \"abnormal\": [\n");
    out.push_str(&abnormal.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"metrics\": \"{}\"\n",
        json_escape(&campaign.run.metrics.expose())
    ));
    out.push_str("}\n");
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guardian_crash_mid_deploy_still_completes() {
        let out = run_cell(11, FaultKind::GuardianCrash, InjectionPoint::CreateHelper);
        assert!(
            out.passed(),
            "{}: {:?}",
            out.describe(),
            out.final_violations
        );
        assert!(out.recovery.is_some());
    }

    #[test]
    fn lcm_owner_crash_mid_deploy_still_completes() {
        let out = run_cell(13, FaultKind::LcmOwnerCrash, InjectionPoint::CreateLearners);
        assert!(
            out.passed(),
            "{}: {:?}",
            out.describe(),
            out.final_violations
        );
    }

    #[test]
    fn nfs_outage_at_provision_volume_still_completes() {
        let out = run_cell(12, FaultKind::NfsOutage, InjectionPoint::ProvisionVolume);
        assert!(
            out.passed(),
            "{}: {:?}",
            out.describe(),
            out.final_violations
        );
    }

    #[test]
    fn labels_are_distinct() {
        let kinds: std::collections::BTreeSet<_> = FaultKind::all()
            .iter()
            .map(super::FaultKind::label)
            .collect();
        assert_eq!(kinds.len(), FaultKind::all().len());
        let points: std::collections::BTreeSet<_> = InjectionPoint::all()
            .iter()
            .map(super::InjectionPoint::label)
            .collect();
        assert_eq!(points.len(), InjectionPoint::all().len());
        for kind in FaultKind::all() {
            assert_eq!(kind.label().parse(), Ok(kind));
        }
        for point in InjectionPoint::all() {
            assert_eq!(point.label().parse(), Ok(point));
        }
        assert!("guardian".parse::<FaultKind>().is_err());
    }
}
