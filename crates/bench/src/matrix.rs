//! The fault matrix: every fault kind crossed with every Guardian
//! deployment step, each trial judged by the platform invariant checker.
//!
//! The paper validates dependability with targeted `kubectl` experiments
//! (Fig. 4) and anecdotal chaos runs. This module systematises that into
//! a campaign: at each of the Guardian's six deployment steps (§III-d),
//! the instant the Guardian marks the step done ([`POINTS`]), it injects
//! one fault — a Guardian crash, an etcd leader crash, a metadata-store
//! crash, an NFS outage, a network partition of the etcd leader or the
//! crash of the LCM replica that owns the job. The job must still
//! complete, and the whole platform must satisfy every invariant of
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

use std::str::FromStr;

use dlaas_core::marks::guardian;
use dlaas_core::{config, paths, DlaasPlatform, JobId, JobStatus};
use dlaas_faults::{nfs_outage_window, partition_window};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_raft::raft_addr;
use dlaas_sim::{MarkDef, Sim, SimDuration};

use crate::harness::{bench_tenants, experiment_config, EXPERIMENT_DATASET_BYTES};
use crate::marks::fault;
use crate::metrics::MATRIX_RECOVERY_SECONDS;
use crate::runner::{CampaignReport, CampaignRunner, Trial, TrialRun};
use crate::soak::{self, Arrival, Plan, Preset, Target};

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
    /// Crash of the LCM leader, the replica that sweeps the job. Its
    /// lease must expire and a standby must claim the leader key without
    /// ever double-driving the job.
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

    /// The fault's one name: in tables, artifacts, metric labels,
    /// `--trial FAULT/POINT` and its mark.
    pub fn label(&self) -> &'static str {
        self.mark().what
    }

    /// The fault's mark on the timeline of the job it targets.
    pub fn mark(&self) -> &'static MarkDef {
        match self {
            FaultKind::GuardianCrash => &fault::GUARDIAN_CRASH,
            FaultKind::EtcdLeaderCrash => &fault::ETCD_LEADER_CRASH,
            FaultKind::MongoCrash => &fault::MONGO_CRASH,
            FaultKind::NfsOutage => &fault::NFS_OUTAGE,
            FaultKind::Partition => &fault::PARTITION,
            FaultKind::LcmOwnerCrash => &fault::LCM_OWNER_CRASH,
        }
    }

    /// Applies the fault to a live platform. `job` is the job it
    /// targets, if any: a Guardian crash without one injects nothing, and
    /// the LCM owner crash and the substrate faults do not read it.
    pub fn inject(&self, sim: &mut Sim, platform: &DlaasPlatform, job: Option<&JobId>) {
        sim.mark(self.mark(), job.map_or("platform", JobId::as_str), 0);
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
                // Read the LCM leader key off the etcd leader to find
                // which replica sweeps every job, then kill exactly that
                // pod. Falls back to replica 0 when the key is not there
                // yet (unclaimed at injection time).
                let owner = platform.etcd().leader_id().and_then(|leader| {
                    let kv = platform.etcd().kv_snapshot(leader);
                    Some(kv.get(&paths::lcm_shard_owner(0))?.value.clone())
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

/// The injection points: the Guardian's six deployment steps (§III-d),
/// in order, each named by the mark the Guardian makes on its job once
/// the step is done — 1 rollback + start (`deploy-attempt`), 2 the
/// acknowledged DEPLOYING write, 3 the NFS volume, 4 the helper, 5 the
/// learners, 6 the network policies. A cell's fault runs at the instant
/// of its job's first such mark (a tap, [`dlaas_sim::Sim::tap`]).
pub static POINTS: [&MarkDef; 6] = [
    &guardian::DEPLOY_ATTEMPT,
    &guardian::DEPLOYING,
    &guardian::VOLUME_PROVISIONED,
    &guardian::HELPER_CREATED,
    &guardian::LEARNERS_CREATED,
    &guardian::DEPLOYED,
];

/// The injection point a `--trial FAULT/POINT` names: the one of
/// [`POINTS`] whose mark reads `name`.
pub fn point(name: &str) -> Result<&'static MarkDef, String> {
    POINTS.into_iter().find(|p| p.what == name).ok_or_else(|| {
        let names: Vec<_> = POINTS.iter().map(|p| p.what).collect();
        format!("unknown injection point {name:?} (one of {names:?})")
    })
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
    /// The deployment step it targeted: one of [`POINTS`].
    pub point: &'static MarkDef,
    /// The simulation seed.
    pub seed: u64,
    /// What became of the job: its status, whether the fault fired (the
    /// step was reached), its recovery time and its timeline.
    pub target: Target,
    /// Distinct invariant violations: the monitor's over the whole run
    /// and the final sweep's.
    pub violations: u64,
    /// What the final sweep found, rendered.
    pub final_violations: Vec<String>,
}

impl CellOutcome {
    /// A cell passes when the fault really fired, the job still
    /// completed, and no platform invariant was ever violated.
    pub fn passed(&self) -> bool {
        let Target { status, fired, .. } = self.target;
        fired && status == Some(JobStatus::Completed) && self.violations == 0
    }

    /// One summary line for tables and failure messages; a cell that did
    /// not pass adds what happened to its job.
    pub fn describe(&self) -> String {
        let mut line = format!(
            "{} at {} (seed {}): status={:?} fired={} violations={}",
            self.kind.label(),
            self.point.what,
            self.seed,
            self.target.status,
            self.target.fired,
            self.violations
        );
        if !self.passed() {
            line.push('\n');
            line.push_str(self.target.timeline.trim_end());
        }
        line
    }
}

/// Runs one cell of the matrix: a [`CELL`] soak run of one job, with
/// `kind` injected at the Guardian's `point` mark (one of [`POINTS`]).
pub fn run_cell(seed: u64, kind: FaultKind, point: &'static MarkDef) -> CellOutcome {
    cell(seed, kind, point).result
}

fn cell(seed: u64, kind: FaultKind, point: &'static MarkDef) -> TrialRun<CellOutcome> {
    let preset = Preset {
        plan: Plan::At(kind, point),
        ..CELL
    };
    let TrialRun {
        result: run,
        sim_elapsed,
    } = soak::run(seed, &preset, 1, None, false);
    TrialRun {
        result: CellOutcome {
            kind,
            point,
            seed,
            target: run.target.unwrap_or_default(),
            violations: run.invariant_violations,
            final_violations: run.final_violations,
        },
        sim_elapsed,
    }
}

/// A matrix campaign executed through the runner: the per-trial report
/// (completed cells and any `TIMEOUT`/panic records) plus an aggregate
/// registry holding the [`MATRIX_RECOVERY_SECONDS`] histogram across
/// every completed cell.
#[derive(Debug)]
pub struct MatrixCampaign {
    /// The per-trial report, sorted by trial id.
    pub report: CampaignReport<CellOutcome>,
    /// Aggregated recovery histogram, labelled by fault and point.
    pub metrics: dlaas_sim::Registry,
}

impl MatrixCampaign {
    /// One outcome per completed (fault, step, seed), in trial-id order.
    pub fn outcomes(&self) -> impl Iterator<Item = &CellOutcome> {
        self.report.results()
    }

    /// Every completed cell that did not pass.
    pub fn failures(&self) -> Vec<&CellOutcome> {
        self.outcomes().filter(|o| !o.passed()).collect()
    }
}

/// Per-trial sim budget of a matrix cell: a cell runs 60 s of boot and
/// its one-hour-and-two-minute drain, so 2 h flags genuine runaways
/// without ever clipping a passing trial.
const MATRIX_BUDGET: SimDuration = SimDuration::from_hours(2);

/// Runs the matrix over the given fault kinds (all of them, or the
/// `--fault LABEL` smoke subset CI runs on every push) × every injection
/// point × `seeds` seeds from `base_seed`, on `threads` workers. Trial
/// ids are positions in that nesting order, and each abnormal record
/// carries the command that replays its cell alone. Records merge by
/// trial id and the recovery histogram is replayed from the merged
/// sequence on the calling thread, so every output — including the
/// registry exposition — is byte-identical for any `threads`.
pub fn sweep(kinds: &[FaultKind], base_seed: u64, seeds: u64, threads: usize) -> MatrixCampaign {
    let mut trials = Vec::new();
    for &kind in kinds {
        for point in POINTS {
            for seed in base_seed..base_seed + seeds {
                let cell = format!("{}/{}", kind.label(), point.what);
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
    let runner = CampaignRunner::new("fault_matrix", threads).with_sim_budget(MATRIX_BUDGET);
    let report = runner.run(trials, |&(seed, kind, point), _ctx| cell(seed, kind, point));

    // Replay the merged records into a fresh registry. Histogram bucket
    // counts are commutative, but replaying in trial-id order makes the
    // determinism argument trivial: same sorted inputs, same exposition.
    let metrics = dlaas_sim::Registry::new();
    for out in report.results() {
        if let Some(d) = out.target.recovery {
            metrics
                .histogram_series(MATRIX_RECOVERY_SECONDS, [out.kind.label(), out.point.what])
                .observe_duration_us(d.as_micros());
        }
    }
    MatrixCampaign { report, metrics }
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
        .outcomes()
        .map(|o| {
            let status = o
                .target
                .status
                .map_or("null".to_owned(), |s| format!("\"{s:?}\""));
            let recovery = o
                .target
                .recovery
                .map_or("null".to_owned(), |d| d.as_micros().to_string());
            format!(
                "    {{\"fault\": \"{}\", \"point\": \"{}\", \"seed\": {}, \"status\": {status}, \
                 \"fired\": {}, \"recovery_us\": {recovery}, \"violations\": {}, \"passed\": {}}}",
                o.kind.label(),
                o.point.what,
                o.seed,
                o.target.fired,
                o.violations,
                o.passed()
            )
        })
        .collect();
    out.push_str(&cells.join(",\n"));
    out.push_str("\n  ],\n");
    let failures: Vec<String> = campaign
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
        json_escape(&campaign.metrics.expose())
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
        let out = run_cell(11, FaultKind::GuardianCrash, &guardian::HELPER_CREATED);
        assert!(
            out.passed(),
            "{}: {:?}",
            out.describe(),
            out.final_violations
        );
        assert!(out.target.recovery.is_some());
    }

    #[test]
    fn lcm_owner_crash_mid_deploy_still_completes() {
        let out = run_cell(13, FaultKind::LcmOwnerCrash, &guardian::LEARNERS_CREATED);
        assert!(
            out.passed(),
            "{}: {:?}",
            out.describe(),
            out.final_violations
        );
    }

    #[test]
    fn nfs_outage_at_provision_volume_still_completes() {
        let out = run_cell(12, FaultKind::NfsOutage, &guardian::VOLUME_PROVISIONED);
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
        let points: std::collections::BTreeSet<_> = POINTS.iter().map(|p| p.what).collect();
        assert_eq!(points.len(), POINTS.len());
        for kind in FaultKind::all() {
            assert_eq!(kind.label().parse(), Ok(kind));
        }
        assert!("guardian".parse::<FaultKind>().is_err());
    }
}
