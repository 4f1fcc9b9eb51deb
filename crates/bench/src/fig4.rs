//! Figure 4: time to recover from crash failures, by component.
//!
//! Paper rows:
//!
//! | Component | Paper   |
//! |-----------|---------|
//! | API       | 3–5 s   |
//! | LCM       | 4–6 s   |
//! | Guardian  | 1–2 s   |
//! | Helper    | 3–4 s   |
//! | Learner   | 10–20 s |
//!
//! Method, as in the paper: with a training job live on the platform,
//! crash each component with the scripted equivalent of
//! `kubectl delete pod` and measure the time until it is back. The shape
//! to reproduce: the Guardian (tiny Go binary, no volumes) is fastest;
//! the core services take a few seconds; the learner is much slower
//! because it "binds to cloud object store and persistent NFS volumes"
//! and restarts a heavyweight framework container.

use dlaas_core::{paths, DlaasPlatform, JobId, JobStatus};
use dlaas_faults::{measure_recovery, RecoveryStats};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_sim::{Sim, SimDuration, SimTime};

use crate::harness::{
    experiment_config, experiment_manifest, experiment_platform, submit_blocking,
};
use crate::metrics::RECOVERY_SECONDS;
use crate::runner::{CampaignRunner, Trial, TrialRun};

/// The components of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// An API service replica.
    Api,
    /// The Lifecycle Manager.
    Lcm,
    /// A job's Guardian.
    Guardian,
    /// A job's helper pod.
    Helper,
    /// A learner.
    Learner,
}

impl Component {
    /// All components, in the paper's row order.
    pub fn all() -> [Component; 5] {
        [
            Component::Api,
            Component::Lcm,
            Component::Guardian,
            Component::Helper,
            Component::Learner,
        ]
    }

    /// The paper's reported recovery range.
    pub fn paper_range(&self) -> &'static str {
        match self {
            Component::Api => "3-5s",
            Component::Lcm => "4-6s",
            Component::Guardian => "1-2s",
            Component::Helper => "3-4s",
            Component::Learner => "10-20s",
        }
    }

    fn pod_name(&self, job: &JobId) -> String {
        match self {
            Component::Api => "dlaas-api-0".to_owned(),
            Component::Lcm => "dlaas-lcm-0".to_owned(),
            Component::Guardian => paths::guardian_job(job),
            Component::Helper => paths::helper_pod(job),
            Component::Learner => paths::learner_pod(job, 0),
        }
    }

    /// Whether recovery means "serving traffic" (readiness) or just
    /// "container running" (per-job pods have no service in front).
    fn needs_readiness(&self) -> bool {
        matches!(self, Component::Api | Component::Lcm)
    }

    /// Metric label value for this component.
    pub fn label(&self) -> &'static str {
        match self {
            Component::Api => "api",
            Component::Lcm => "lcm",
            Component::Guardian => "guardian",
            Component::Helper => "helper",
            Component::Learner => "learner",
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Component::Api => "API",
            Component::Lcm => "LCM",
            Component::Guardian => "Guardian",
            Component::Helper => "Helper",
            Component::Learner => "Learner",
        };
        f.write_str(s)
    }
}

/// Result for one component.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// The component.
    pub component: Component,
    /// Measured recovery times across trials.
    pub stats: RecoveryStats,
}

/// A live experiment: platform + one long-running job to host the per-job
/// components.
pub struct Fig4Rig {
    /// The simulation.
    pub sim: Sim,
    /// The platform.
    pub platform: DlaasPlatform,
    /// The long-running job.
    pub job: JobId,
}

/// Boots the platform and parks a long training job in PROCESSING.
pub fn rig(seed: u64) -> Fig4Rig {
    let mut sim = Sim::new(seed);
    let (platform, client) = experiment_platform(&mut sim, experiment_config(GpuKind::K80, 4));
    let manifest = experiment_manifest("fig4-host")
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .learners(1)
        .iterations(100_000_000)
        .checkpoint_every(10_000)
        .build()
        .expect("valid manifest");
    let job = submit_blocking(&mut sim, &client, manifest);
    let s = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    assert_eq!(s, Some(JobStatus::Processing), "host job must be training");
    Fig4Rig { sim, platform, job }
}

/// One recovery measurement: `kubectl delete pod` + stopwatch.
pub fn measure_once(rig: &mut Fig4Rig, component: Component) -> Option<SimDuration> {
    let pod = component.pod_name(&rig.job);
    let kube = rig.platform.kube().clone();
    let fault_at: SimTime = rig.sim.now();
    let needs_ready = component.needs_readiness();
    let kube2 = kube.clone();
    let pod2 = pod.clone();
    let recovered = move |sim: &Sim| {
        let restarted = kube2.pod_started_at(&pod2).is_some_and(|t| t > fault_at);
        if !restarted {
            return false;
        }
        if needs_ready {
            kube2.pod_ready(sim, &pod2)
        } else {
            true
        }
    };
    let r = measure_recovery(
        &mut rig.sim,
        move |sim| {
            kube.delete_pod(sim, &pod);
        },
        recovered,
        SimDuration::from_secs(120),
    );
    if let Some(d) = r {
        rig.sim
            .metrics()
            .histogram_series(RECOVERY_SECONDS, [component.label()])
            .observe_duration_us(d.as_micros());
    }
    // Let the platform settle before the next fault.
    rig.sim.run_for(SimDuration::from_secs(30));
    r
}

/// A full Fig. 4 run: per-component stats plus the metrics registry the
/// measurements were recorded into (see [`RECOVERY_SECONDS`]).
#[derive(Debug)]
pub struct Fig4Run {
    /// Per-component results, in the paper's row order.
    pub results: Vec<Fig4Result>,
    /// The rig's metrics registry; recovery percentiles come from here.
    pub metrics: dlaas_sim::Registry,
}

/// Runs `trials` recoveries for one component on its own fresh rig,
/// reporting the simulated time consumed. The unit of parallelism for
/// [`run_parallel`]: each component's measurements are independent of
/// every other component's because nothing carries over between rigs.
fn measure_component(seed: u64, component: Component, trials: u32) -> TrialRun<Fig4Result> {
    let mut rig = rig(seed);
    let mut stats = RecoveryStats::new();
    for _ in 0..trials {
        if let Some(d) = measure_once(&mut rig, component) {
            stats.push(d);
        }
    }
    TrialRun {
        result: Fig4Result { component, stats },
        sim_elapsed: rig.sim.now().saturating_duration_since(SimTime::ZERO),
    }
}

/// Runs every component's `trials` recoveries on `threads` workers, one
/// runner trial per component, each on a fresh rig booted from the same
/// seed. Records merge in `Component::all()` order and the recovery
/// histogram is replayed from the merged samples, so the table and
/// metrics exposition are byte-identical at any thread count. Panics if
/// any trial was recorded abnormal — the repro command is in the message.
pub fn run_parallel(seed: u64, trials: u32, threads: usize) -> Fig4Run {
    let specs: Vec<Trial<Component>> = Component::all()
        .into_iter()
        .map(|c| Trial {
            label: format!("fig4/{}", c.label()),
            repro: format!("cargo run --release -p dlaas-bench --bin fig4 -- {seed} {trials}"),
            spec: c,
        })
        .collect();
    let report = CampaignRunner::new("fig4", threads)
        .run(specs, |&c, _ctx| measure_component(seed, c, trials));
    let abnormal = report.failure_records();
    assert!(
        abnormal.is_empty(),
        "fig4 campaign had abnormal trials:\n{}",
        abnormal.join("\n")
    );
    let metrics = dlaas_sim::Registry::new();
    let results: Vec<Fig4Result> = report.results().cloned().collect();
    // Replay every sample into the aggregate histogram in merged
    // (component-major) order.
    for r in &results {
        for d in r.stats.samples() {
            metrics
                .histogram_series(RECOVERY_SECONDS, [r.component.label()])
                .observe_duration_us(d.as_micros());
        }
    }
    Fig4Run { results, metrics }
}

/// The §III-d side claim: "Creation of the Guardian is a very quick
/// (less than 3s in our experiments) single step process." Measures from
/// the LCM receiving the deploy call (job still PENDING) to the Guardian
/// container running.
pub fn guardian_creation_time(seed: u64) -> SimDuration {
    let mut sim = Sim::new(seed);
    let (platform, client) = experiment_platform(&mut sim, experiment_config(GpuKind::K80, 1));
    let manifest = experiment_manifest("quick")
        .framework(Framework::Caffe)
        .model(DlModel::Vgg16)
        .gpus(GpuKind::K80, 1)
        .iterations(100)
        .build()
        .expect("valid manifest");
    let job = submit_blocking(&mut sim, &client, manifest);
    let from = sim.now();
    let kube = platform.kube().clone();
    let gpod = paths::guardian_job(&job);
    sim.run_until_pred(move |_| kube.pod_phase(&gpod) == Some(dlaas_kube::PodPhase::Running));
    sim.now() - from
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learner_recovery_dwarfs_guardian_recovery() {
        let mut r = rig(31);
        let guardian = measure_once(&mut r, Component::Guardian).expect("guardian recovers");
        let learner = measure_once(&mut r, Component::Learner).expect("learner recovers");
        assert!(
            learner > guardian * 4,
            "learner {learner} must dwarf guardian {guardian}"
        );
    }

    #[test]
    fn guardian_creation_under_three_seconds() {
        let d = guardian_creation_time(32);
        assert!(
            d < SimDuration::from_secs(3),
            "guardian creation took {d} (paper: <3s)"
        );
    }
}
