//! The scenario driver: N jobs through the whole platform, under load and
//! under a fault [`Plan`], with turnaround, queueing, control-plane cost
//! and the invariant verdict read off the result.
//!
//! One experiment, one [`run`], several [`Preset`]s. A preset is plain
//! data: an arrival shape (a function producing the precomputed
//! [`Arrival`] schedule), the cluster, a tenant table, the fault plan,
//! whether the [`InvariantMonitor`] runs, and the submission window and
//! drain. Every run keeps the trace and ends with a full invariant sweep.
//!
//! * [`UNIFORM`] — N identical single-GPU jobs spread evenly over 20
//!   minutes on ≥ N GPUs, 4 h horizon: concurrency, not queueing, grows
//!   with N, so the run measures control-plane cost per job.
//! * [`TRAFFIC`] — the NSML mix of [`crate::traffic`]: diurnal arrivals,
//!   Pareto bursts, log-normal durations, whale/small tenants under
//!   quotas, the weighted fair queue engaged by the bursts.
//! * [`CHAOS`] — a Poisson stream of mixed-framework jobs on a fixed
//!   cluster while a pod monkey kills random pods and a substrate fault
//!   (etcd leader crash, mongo crash, NFS outage, partition) lands every
//!   seven minutes, with the invariant monitor checking every minute.
//! * [`crate::matrix::CELL`] — one job and one fault armed at a
//!   deployment step: a fault-matrix cell.
//!
//! [`run`] executes one (preset, seed, N) trial into one [`SoakRun`];
//! [`campaign`] runs a list of sizes on the seed-parallel
//! [`CampaignRunner`]. [`render_json`] writes the byte-stable
//! `BENCH_soak.json` (sim-derived data only, fixed key order,
//! fixed-precision floats — byte-identical for a given seed at any
//! `--threads`), [`render_wall_json`] the gate sidecar, and
//! [`check_against_baseline`] gates that against the committed
//! `BENCH_soak.baseline.json`: wall seconds per run (machine speed) and
//! each tenant class's tail turnaround and the median deploy, pooled
//! over the baseline's seeds ([`pooled`]; deterministic, so a drift
//! means platform behaviour changed).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dlaas_core::{
    check_invariants, metrics, CoreConfig, DlaasPlatform, GpuNodeSpec, InvariantBounds,
    InvariantMonitor, JobId, JobStatus, PlatformConfig, Tenant, TrainingManifest,
};
use dlaas_docstore::Value;
use dlaas_faults::ChaosMonkey;
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_kube::labels;
use dlaas_obs::wallclock::WallTimer;
use dlaas_sim::{Sim, SimDuration, SimRng, SimTime, SiteCost};

use crate::cli::Args;
use crate::harness::bench_tenants;
use crate::matrix::FaultKind;
use crate::runner::{CampaignReport, CampaignRunner, Trial, TrialRun};
use crate::traffic;

/// The bucket every driver-booted platform stages its dataset in (under
/// `d/`), and the one its jobs write results to.
pub const DATA: &str = "soak-data";
/// See [`DATA`].
pub const RESULTS: &str = "soak-results";

/// One precomputed submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the submission window.
    pub at: SimDuration,
    /// Index into the preset's tenant table.
    pub tenant: usize,
    /// DL framework of the job.
    pub framework: Framework,
    /// Model it trains.
    pub model: DlModel,
    /// Learner processes (1 = single-GPU job).
    pub learners: u32,
    /// Training iterations.
    pub iterations: u64,
    /// Checkpoint interval in iterations (0 = never).
    pub checkpoint_every: u64,
}

/// The faults a run injects, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// None.
    None,
    /// Through the submission window, a pod monkey and, every seven
    /// minutes, the next of the substrate faults in turn.
    Chaos,
    /// One fault, injected at the instant the Guardian of the first job
    /// the platform acknowledges marks the deployment step done (one of
    /// [`crate::matrix::POINTS`]). That job is the run's target
    /// ([`SoakRun::target`]): the drain waits for its terminal status
    /// first.
    At(FaultKind, &'static str),
}

/// One scenario, as data.
#[derive(Debug)]
pub struct Preset {
    /// Name on the command line and in the artifacts.
    pub name: &'static str,
    /// Sizes run when the command line names none.
    pub default_sizes: &'static [u64],
    /// The arrival shape: exactly `n` submissions inside `window(n)`,
    /// sorted by time. Pure math over the rng, so the schedule is the
    /// same however the campaign is threaded.
    pub arrivals: fn(&mut SimRng, u64) -> Vec<Arrival>,
    /// Submission window for `n` jobs.
    pub window: fn(u64) -> SimDuration,
    /// How long in-flight jobs get to finish once submissions stop.
    pub drain: SimDuration,
    /// The cluster for `n` jobs.
    pub platform: fn(u64) -> PlatformConfig,
    /// The tenant table for `n` jobs.
    pub tenants: fn(u64) -> Vec<Tenant>,
    /// Size of the dataset every job stages.
    pub dataset_bytes: u64,
    /// The faults injected.
    pub plan: Plan,
    /// Period of the [`InvariantMonitor`] for `n` jobs, or `None` to
    /// leave the verdict to the final sweep alone.
    pub monitor: Option<fn(u64) -> SimDuration>,
}

impl Preset {
    /// `preset/nN`: a trial's name in reports, artifacts and the baseline.
    pub fn label(&self, n: u64) -> String {
        format!("{}/n{n}", self.name)
    }
}

/// The soak presets' cluster: four core nodes and `gpus` K80s, four to a
/// node, on two nodes at least.
fn soak_cluster(gpus: u32) -> PlatformConfig {
    PlatformConfig {
        core_nodes: 4,
        gpu_nodes: vec![GpuNodeSpec {
            kind: GpuKind::K80,
            count: gpus.div_ceil(4).max(2),
            gpus_each: 4,
        }],
        ..PlatformConfig::default()
    }
}

/// Capacity scales with N so concurrency — not parking — is what grows,
/// and the window and horizon are the same for every N so periodic work
/// contributes the same number of rounds and per-job costs compare.
pub const UNIFORM: Preset = Preset {
    name: "uniform",
    default_sizes: &[100, 1_000, 10_000],
    arrivals: uniform_arrivals,
    window: |_| UNIFORM_WINDOW,
    drain: SimDuration::from_mins(220),
    platform: |n| soak_cluster(n as u32),
    tenants: bench_tenants,
    dataset_bytes: 200_000_000,
    plan: Plan::None,
    monitor: None,
};

const UNIFORM_WINDOW: SimDuration = SimDuration::from_mins(20);

fn uniform_arrivals(_rng: &mut SimRng, n: u64) -> Vec<Arrival> {
    (0..n)
        .map(|i| Arrival {
            at: SimDuration::from_micros(UNIFORM_WINDOW.as_micros() * i / n),
            tenant: 0,
            framework: Framework::TensorFlow,
            model: DlModel::Resnet50,
            learners: 1,
            iterations: 100,
            checkpoint_every: 0,
        })
        .collect()
}

/// The NSML-style multi-tenant mix; see [`crate::traffic`].
pub const TRAFFIC: Preset = Preset {
    name: "traffic",
    default_sizes: &[10_000, 100_000],
    arrivals: traffic::generate,
    window: |_| traffic::WINDOW,
    drain: SimDuration::from_hours(1),
    platform: |n| soak_cluster(traffic::capacity_gpus(n)),
    tenants: |n| traffic::tenants(traffic::capacity_gpus(n)),
    dataset_bytes: 500_000_000,
    plan: Plan::None,
    // The checker walks every job document, so at large N it must run
    // sparsely. Deterministic in N only — never in thread count.
    monitor: Some(|n| {
        if n <= 20_000 {
            SimDuration::from_secs(60)
        } else if n <= 200_000 {
            SimDuration::from_mins(10)
        } else {
            SimDuration::from_mins(30)
        }
    }),
};

/// The randomized dependability soak: a fixed 32-GPU cluster, one
/// submission every two minutes on average, so the window grows with N.
pub const CHAOS: Preset = Preset {
    name: "chaos",
    default_sizes: &[120],
    arrivals: chaos_arrivals,
    window: chaos_window,
    // Every in-flight job finishes and GC passes the grace period.
    drain: SimDuration::from_hours(4),
    platform: |_| soak_cluster(32),
    tenants: bench_tenants,
    dataset_bytes: 1_000_000_000,
    plan: Plan::Chaos,
    monitor: Some(|_| SimDuration::from_secs(60)),
};

const CHAOS_MEAN_INTERARRIVAL: SimDuration = SimDuration::from_secs(120);
const CHAOS_MIX: [(Framework, DlModel); 3] = [
    (Framework::TensorFlow, DlModel::Resnet50),
    (Framework::TensorFlow, DlModel::InceptionV3),
    (Framework::Caffe, DlModel::Vgg16),
];
/// The pod monkey: every period, with this probability, one random
/// Running pod is crashed.
const MONKEY_PERIOD: SimDuration = SimDuration::from_secs(90);
const MONKEY_P: f64 = 0.3;
/// The faults that target a substrate rather than one job, in the order
/// [`Plan::Chaos`] rotates through them, one every [`FAULT_ROTATION`].
const CHAOS_ROTATION: [FaultKind; 4] = [
    FaultKind::EtcdLeaderCrash,
    FaultKind::MongoCrash,
    FaultKind::NfsOutage,
    FaultKind::Partition,
];
const FAULT_ROTATION: SimDuration = SimDuration::from_mins(7);
/// Liveness bound under faults: a late crash of a non-checkpointing job
/// legitimately restarts training from scratch (§III-g), so time to
/// terminal is queueing plus several full trainings.
const CHAOS_TERMINAL_WITHIN: SimDuration = SimDuration::from_hours(4);

fn chaos_window(n: u64) -> SimDuration {
    CHAOS_MEAN_INTERARRIVAL * n
}

/// A Poisson process conditioned on `n` arrivals in the window: the
/// instants are independent uniform draws. A quarter of the jobs are
/// distributed over 2–4 learners and half of all jobs checkpoint.
fn chaos_arrivals(rng: &mut SimRng, n: u64) -> Vec<Arrival> {
    let window = chaos_window(n).as_micros();
    let mut out: Vec<Arrival> = (0..n)
        .map(|_| {
            let at = SimDuration::from_micros(rng.range_u64(0, window + 1));
            let &(framework, model) = rng.choose(&CHAOS_MIX).expect("the mix is not empty");
            let learners = if rng.chance(0.25) {
                rng.range_u64(2, 5) as u32
            } else {
                1
            };
            let iterations = rng.range_u64(200, 1_501);
            let checkpoint_every = if rng.chance(0.5) {
                (iterations / 5).max(50)
            } else {
                0
            };
            Arrival {
                at,
                tenant: 0,
                framework,
                model,
                learners,
                iterations,
                checkpoint_every,
            }
        })
        .collect();
    out.sort_by_key(|a| a.at);
    out
}

/// Every preset the `soak` command line names, in help order.
pub const PRESETS: [&Preset; 3] = [&UNIFORM, &TRAFFIC, &CHAOS];

/// Per-tenant turnaround summary.
#[derive(Debug, Clone, Default)]
pub struct TenantSummary {
    /// Tenant id.
    pub tenant: String,
    /// Jobs with an observed turnaround (reached a terminal status).
    pub jobs: u64,
    /// Turnaround quantiles in simulated seconds.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// One work-count series, summed from the `dlaas-obs` histogram a hot
/// path emits: work items examined over the run and per job.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series name in the artifact.
    pub name: &'static str,
    /// Work items over the whole run.
    pub sum: f64,
    /// Work items per job — must stay flat as N grows.
    pub per_job: f64,
}

/// What became of the job a [`Plan::At`] fault targets.
#[derive(Debug, Clone, Default)]
pub struct Target {
    /// Its status when the wait for it ended.
    pub status: Option<JobStatus>,
    /// Whether the fault fired (the step was actually reached).
    pub fired: bool,
    /// Injection-to-terminal time, when it reached a terminal state.
    pub recovery: Option<SimDuration>,
    /// Its timeline at the end of the run, rendered.
    pub timeline: String,
}

/// The record of one soak trial.
#[derive(Debug, Clone, Default)]
pub struct SoakRun {
    /// [`Preset::label`] — the key in artifacts and the baseline.
    pub label: String,
    /// The simulation seed.
    pub seed: u64,
    /// Jobs scheduled for submission.
    pub n: u64,
    /// Jobs the platform acknowledged.
    pub submitted: u64,
    /// Jobs that completed.
    pub completed: u64,
    /// Jobs that ended FAILED or KILLED.
    pub failed: u64,
    /// Jobs still non-terminal after the drain.
    pub unfinished: u64,
    /// Jobs held in the fair queue at least once.
    pub queued_submissions: u64,
    /// Merged admission-wait histogram (µs): count / mean / p95.
    pub admission_waits: u64,
    /// Mean admission wait.
    pub admission_wait_mean_us: f64,
    /// 95th-percentile admission wait.
    pub admission_wait_p95_us: f64,
    /// Distinct invariant violations (periodic monitor + final sweep).
    pub invariant_violations: u64,
    /// What the final sweep found, rendered.
    pub final_violations: Vec<String>,
    /// The timelines of the jobs the final sweep flagged (empty on a
    /// clean run).
    pub timelines: String,
    /// The job the plan targeted, under [`Plan::At`].
    pub target: Option<Target>,
    /// Pod restarts platform-wide.
    pub pod_restarts: u64,
    /// Kernel events executed, boot included.
    pub events: u64,
    /// Simulated seconds covered.
    pub sim_secs: f64,
    /// Turnaround per tenant, in tenant-table order.
    pub tenants: Vec<TenantSummary>,
    /// Every finished job's turnaround in simulated seconds (submission
    /// to terminal status, from its history), per tenant class
    /// ([`tenant_class`]) in order of first finish: what the baseline
    /// gate pools.
    pub classes: Vec<(String, Vec<f64>)>,
    /// Every job's deploy in simulated seconds: from its first
    /// `DEPLOYING` to its first `PROCESSING`, in its history.
    pub deploys: Vec<f64>,
    /// Control-plane work counts.
    pub series: Vec<Series>,
    /// Host seconds for the whole trial (sidecar only — never in the
    /// byte-compared artifact).
    pub wall_secs: f64,
    /// `--profile`: what each scheduling call site cost, by
    /// [`short_site`] name (otherwise empty).
    pub sites: Vec<(String, SiteCost)>,
}

impl SoakRun {
    /// Kernel events per job.
    pub fn events_per_job(&self) -> f64 {
        self.events as f64 / self.n as f64
    }

    /// Why the trial's figures cannot be trusted, if they cannot:
    /// submissions lost or refused, jobs in limbo after the drain, or a
    /// violated invariant. Aggregates must not paper over any of them.
    pub fn malformed(&self) -> Option<String> {
        (self.submitted != self.n || self.unfinished > 0 || self.invariant_violations > 0).then(
            || {
                format!(
                    "MALFORMED {}: submitted={}/{} unfinished={} violations={}{}{}{}",
                    self.label,
                    self.submitted,
                    self.n,
                    self.unfinished,
                    self.invariant_violations,
                    self.final_violations
                        .iter()
                        .map(|v| format!("\n    {v}"))
                        .collect::<String>(),
                    if self.timelines.is_empty() { "" } else { "\n" },
                    self.timelines.trim_end()
                )
            },
        )
    }
}

/// The driver's boot step: a platform on `cfg`, ready, with `tenants`
/// registered, `dataset_bytes` of data under `d/` in [`DATA`] and an
/// empty [`RESULTS`] bucket.
pub fn boot(
    sim: &mut Sim,
    cfg: PlatformConfig,
    tenants: &[Tenant],
    dataset_bytes: u64,
) -> DlaasPlatform {
    let platform = DlaasPlatform::new(sim, cfg);
    platform.run_until_ready(sim, SimDuration::from_secs(60));
    for t in tenants {
        platform.add_tenant(t).expect("bootstrap tenant insert");
    }
    platform.seed_dataset(DATA, "d/", dataset_bytes);
    platform.create_bucket(RESULTS);
    platform
}

/// Runs one trial: boot, the preset's arrivals and plan over its window,
/// the drain — inside which the plan's targeted job is waited for, so its
/// terminal instant is read — then a full invariant sweep and the record.
pub fn run(
    seed: u64,
    preset: &Preset,
    n: u64,
    lcm_replicas: Option<u32>,
    profile: bool,
) -> TrialRun<SoakRun> {
    let wall = WallTimer::start();
    let mut sim = Sim::new(seed);
    if profile {
        sim.profile_sites();
    }
    // Whoever reads a violation wants to know what happened to its job.
    sim.trace_mut().set_enabled(true);

    let mut cfg = (preset.platform)(n);
    if let Some(m) = lcm_replicas {
        cfg.core.lcm_replicas = m;
    }
    let tenants = (preset.tenants)(n);
    let platform = boot(&mut sim, cfg, &tenants, preset.dataset_bytes);
    let clients: Vec<_> = tenants
        .iter()
        .map(|t| platform.client(&t.id, &t.api_key))
        .collect();

    let monitor = preset.monitor.map(|period| {
        let mut bounds = InvariantBounds::from_config(&platform.handles().config);
        if preset.plan == Plan::Chaos {
            bounds.terminal_within = CHAOS_TERMINAL_WITHIN;
        }
        InvariantMonitor::install_with(&mut sim, &platform, period(n), bounds)
    });

    // A `Plan::At` fault is armed in the first acknowledgement.
    let fired_at: Rc<Cell<Option<SimTime>>> = Rc::default();
    let arm = match preset.plan {
        Plan::At(kind, point) => Some((kind, point, platform.clone(), fired_at.clone())),
        Plan::None | Plan::Chaos => None,
    };

    // The whole schedule comes from one rng fork before anything runs:
    // byte-identical at any thread count by construction. (The label
    // predates the other presets; changing it reshuffles every seed.)
    let arrivals = (preset.arrivals)(&mut sim.rng().fork("traffic-gen"), n);
    let jobs: Rc<RefCell<Vec<(JobId, usize)>>> =
        Rc::new(RefCell::new(Vec::with_capacity(n as usize)));
    for (serial, a) in arrivals.into_iter().enumerate() {
        let (client, jobs, arm) = (clients[a.tenant].clone(), jobs.clone(), arm.clone());
        let (preset_name, bytes) = (preset.name, preset.dataset_bytes);
        sim.schedule_in(a.at, move |sim| {
            let manifest = TrainingManifest::builder(format!("{preset_name}-{serial}"))
                .framework(a.framework)
                .model(a.model)
                .gpus(GpuKind::K80, 1)
                .learners(a.learners)
                .data(DATA, "d/", bytes)
                .results(RESULTS)
                .iterations(a.iterations)
                .checkpoint_every(a.checkpoint_every)
                .build()
                .expect("generated manifest is valid");
            client.submit(sim, manifest, move |sim, r| {
                // A refusal leaves the run short of `n` acknowledged jobs.
                let Ok(job) = r else { return };
                if let Some((kind, point, p, fired_at)) = arm.filter(|_| jobs.borrow().is_empty()) {
                    let target = job.clone();
                    sim.on_mark("guardian", job.as_str(), point, move |sim| {
                        fired_at.set(Some(sim.now()));
                        kind.inject(sim, &p, Some(&target));
                    });
                }
                jobs.borrow_mut().push((job, a.tenant));
            });
        });
    }

    let chaos = (preset.plan == Plan::Chaos).then(|| {
        let monkey = ChaosMonkey::unleash(
            &mut sim,
            platform.kube(),
            labels! {},
            MONKEY_PERIOD,
            MONKEY_P,
        );
        let p = platform.clone();
        let rotation = dlaas_sim::every(&mut sim, FAULT_ROTATION, move |sim, tick| {
            CHAOS_ROTATION[tick as usize % CHAOS_ROTATION.len()].inject(sim, &p, None);
            true
        });
        (monkey, rotation)
    });
    sim.run_for((preset.window)(n));
    if let Some((monkey, rotation)) = chaos {
        monkey.stop();
        rotation.cancel();
    }

    let drain_end = sim.now() + preset.drain;
    let target = arm.map(|_| {
        while jobs.borrow().is_empty() && sim.peek_time().is_some_and(|t| t <= drain_end) {
            sim.step();
        }
        let job = jobs.borrow().first().map(|(job, _)| job.clone());
        let status = job.as_ref().and_then(|job| {
            let left = drain_end.saturating_duration_since(sim.now());
            platform.wait_for_status(&mut sim, job, JobStatus::Completed, left)
        });
        let recovery = fired_at
            .get()
            .filter(|_| status.is_some_and(JobStatus::is_terminal))
            .map(|at| sim.now().saturating_duration_since(at));
        (job, status, recovery)
    });
    sim.run_until(drain_end);

    let (mut completed, mut failed, mut unfinished) = (0u64, 0u64, 0u64);
    let mut classes: Vec<(String, Vec<f64>)> = Vec::new();
    let mut deploys = Vec::new();
    for (job, tenant) in jobs.borrow().iter() {
        let info = platform.job_info(job);
        match info.as_ref().map(|i| i.status) {
            Some(JobStatus::Completed) => completed += 1,
            Some(JobStatus::Failed | JobStatus::Killed) => failed += 1,
            _ => unfinished += 1,
        }
        let history = info.map(|i| i.history).unwrap_or_default();
        let first = |wanted| {
            history
                .iter()
                .find(|(s, _)| *s == wanted)
                .map(|(_, at)| *at)
        };
        if let (Some(began), Some(ran)) =
            (first(JobStatus::Deploying), first(JobStatus::Processing))
        {
            deploys.push(ran.saturating_sub(began) as f64 / 1e6);
        }
        if let (Some(first), Some((status, ended))) = (history.first(), history.last()) {
            if status.is_terminal() {
                let class = tenant_class(&tenants[*tenant].id);
                let secs = ended.saturating_sub(first.1) as f64 / 1e6;
                match classes.iter_mut().find(|(c, _)| c == class) {
                    Some((_, turnarounds)) => turnarounds.push(secs),
                    None => classes.push((class.to_owned(), vec![secs])),
                }
            }
        }
    }

    // Close the run with one full sweep, then fold in everything the
    // periodic monitor saw that the final state no longer shows.
    let seen = monitor.map_or(0, |monitor| {
        monitor.cancel();
        monitor.violations_seen()
    });
    let last = check_invariants(&sim, &platform);
    let invariant_violations = seen.max(last.violations.len()) as u64;
    let target = target.map(|(job, status, recovery)| Target {
        status,
        fired: fired_at.get().is_some(),
        recovery,
        timeline: job.map_or_else(String::new, |job| sim.trace().of(job.as_str()).to_string()),
    });

    let m = platform.metrics();
    let tenants = tenants
        .into_iter()
        .map(|t| {
            let h = m.histogram(metrics::TENANT_JOB_TURNAROUND, &[("tenant", t.id.as_str())]);
            let q = |q: f64| h.as_ref().and_then(|h| h.quantile(q)).unwrap_or(0.0);
            TenantSummary {
                jobs: h.as_ref().map_or(0, dlaas_obs::Histogram::count),
                p50: q(0.50),
                p95: q(0.95),
                p99: q(0.99),
                tenant: t.id,
            }
        })
        .collect();
    let series = [
        (
            metrics::ETCD_WATCH_FANOUT_EXAMINED.name(),
            m.histogram_merged(metrics::ETCD_WATCH_FANOUT_EXAMINED),
        ),
        (
            metrics::KUBE_KICK_EXAMINED.name(),
            m.histogram_merged(metrics::KUBE_KICK_EXAMINED),
        ),
        (
            "lcm_sweep_docs_examined",
            m.histogram(metrics::MONGO_DOCS_EXAMINED, &[("op", "find_changed")]),
        ),
    ]
    .into_iter()
    .map(|(name, h)| {
        let sum = h.map_or(0.0, |h| h.sum());
        Series {
            name,
            sum,
            per_job: sum / n as f64,
        }
    })
    .collect();
    let wait = m.histogram_merged(metrics::TENANT_ADMISSION_WAIT);
    let sim_elapsed = sim.now().saturating_duration_since(SimTime::ZERO);
    let submitted = jobs.borrow().len() as u64;
    TrialRun {
        result: SoakRun {
            label: preset.label(n),
            seed,
            n,
            submitted,
            completed,
            failed,
            unfinished,
            queued_submissions: m.counter_value(metrics::API_SUBMISSIONS, &[("outcome", "queued")]),
            admission_waits: wait.as_ref().map_or(0, dlaas_obs::Histogram::count),
            admission_wait_mean_us: wait
                .as_ref()
                .and_then(dlaas_obs::Histogram::mean)
                .unwrap_or(0.0),
            admission_wait_p95_us: wait.as_ref().and_then(|h| h.quantile(0.95)).unwrap_or(0.0),
            invariant_violations,
            final_violations: last.violations.iter().map(ToString::to_string).collect(),
            timelines: last.timelines,
            target,
            pod_restarts: m.counter_total(dlaas_kube::metrics::POD_RESTARTS),
            classes,
            deploys,
            events: sim.events_executed(),
            sim_secs: sim_elapsed.as_secs_f64(),
            tenants,
            series,
            wall_secs: wall.elapsed_secs(),
            sites: site_costs(&sim),
        },
        sim_elapsed,
    }
}

/// The kernel's per-site costs under [`short_site`] names (sites whose
/// names shorten alike are summed), in name order.
fn site_costs(sim: &Sim) -> Vec<(String, SiteCost)> {
    let mut by_name: std::collections::BTreeMap<String, SiteCost> = Default::default();
    for (site, cost) in sim.site_costs() {
        let sum = by_name.entry(short_site(site)).or_default();
        sum.events += cost.events;
        sum.host_secs += cost.host_secs;
    }
    by_name.into_iter().collect()
}

/// A closure's type name cut down to what tells call sites apart: every
/// `::{{closure}}` dropped and every path reduced to its last two
/// segments, so `dlaas_sim::kernel::tick<dlaas_core::helper::
/// log_collector_behavior::{{closure}}::{{closure}}>::{{closure}}` reads
/// `kernel::tick<helper::log_collector_behavior>`.
pub fn short_site(type_name: &str) -> String {
    let mut out = String::new();
    let mut path = String::new();
    let flush = |path: &mut String, out: &mut String| {
        let segments: Vec<&str> = path
            .split("::")
            .filter(|s| !s.is_empty() && *s != "{{closure}}")
            .collect();
        // `Net<..>::send`: a path that continues a generic type.
        if path.starts_with("::") && !segments.is_empty() {
            out.push_str("::");
        }
        out.push_str(&segments[segments.len().saturating_sub(2)..].join("::"));
        path.clear();
    };
    for c in type_name.chars() {
        if c.is_alphanumeric() || matches!(c, '_' | ':' | '{' | '}') {
            path.push(c);
        } else {
            flush(&mut path, &mut out);
            out.push(c);
        }
    }
    flush(&mut path, &mut out);
    out
}

/// The `--profile` tables of one run: events per site (deterministic —
/// fit for stdout) and host time per site (wall-clock — stderr only),
/// each sorted by its own column, largest first.
pub fn render_profile(run: &SoakRun) -> (String, String) {
    let events: u64 = run.sites.iter().map(|(_, c)| c.events).sum();
    let host: f64 = run.sites.iter().map(|(_, c)| c.host_secs).sum();
    let mut by_events: Vec<_> = run.sites.iter().collect();
    by_events.sort_by(|a, b| b.1.events.cmp(&a.1.events).then_with(|| a.0.cmp(&b.0)));
    let mut counts = format!("{}: {events} events by scheduling call site\n", run.label);
    for (site, cost) in by_events {
        counts.push_str(&format!(
            "  {:>10} {:>5.1} %  {site}\n",
            cost.events,
            100.0 * cost.events as f64 / events.max(1) as f64,
        ));
    }
    let mut by_host: Vec<_> = run.sites.iter().collect();
    by_host.sort_by(|a, b| b.1.host_secs.total_cmp(&a.1.host_secs));
    let mut times = format!(
        "{}: {:.1} ms of host time inside event closures, by scheduling call site\n",
        run.label,
        host * 1e3
    );
    for (site, cost) in by_host {
        times.push_str(&format!(
            "  {:>9.2} ms {:>5.1} % {:>8.0} ns/event  {site}\n",
            cost.host_secs * 1e3,
            100.0 * cost.host_secs / host.max(f64::MIN_POSITIVE),
            cost.host_secs * 1e9 / cost.events.max(1) as f64,
        ));
    }
    (counts, times)
}

// ----------------------------------------------------------------------
// command line and campaign
// ----------------------------------------------------------------------

/// The usage line, printed with every command-line error.
pub const USAGE: &str = "usage: soak <uniform|traffic|chaos> [--threads T] \
    [--check BASELINE] [--lcm-replicas M] [--profile] [seed] [N1,N2,...] [out.json]";

/// A parsed `soak` command line.
#[derive(Debug)]
pub struct Cli {
    /// The experiment to run.
    pub preset: &'static Preset,
    /// Worker threads (output is byte-identical at any count).
    pub threads: usize,
    /// Baseline to gate against.
    pub check: Option<String>,
    /// LCM replica count, when not the platform default.
    pub lcm_replicas: Option<u32>,
    /// Per-trial sim-time budget: what a trial of the largest size
    /// simulates (boot, window, drain) and an hour more, past which it is
    /// a runaway.
    pub sim_budget: SimDuration,
    /// Attribute events and host time to scheduling call sites.
    pub profile: bool,
    /// The simulation seed of every trial.
    pub seed: u64,
    /// Job counts, one trial each.
    pub sizes: Vec<u64>,
    /// Where the byte-stable artifact goes.
    pub out: String,
}

/// Reads a `soak` command line (see [`Args::read`]).
pub fn parse_cli(args: &mut Args) -> Result<Cli, String> {
    let threads = args.value("--threads")?.unwrap_or(1);
    let check = args.value("--check")?;
    let lcm_replicas = args.value("--lcm-replicas")?;
    if let Some(m) = lcm_replicas {
        let core = CoreConfig {
            lcm_replicas: m,
            ..CoreConfig::default()
        };
        core.validate()
            .map_err(|e| format!("--lcm-replicas: {e}"))?;
    }
    let profile = args.switch("--profile");
    let name: String = args.positional("preset")?.ok_or("missing preset")?;
    let preset = *PRESETS
        .iter()
        .find(|p| p.name == name)
        .ok_or(format!("unknown preset {name:?}"))?;
    let seed = args.positional("seed")?.unwrap_or(2018);
    let sizes: Vec<u64> = match args.positional::<String>("sizes")? {
        Some(list) => list
            .split(',')
            .map(|p| match p.parse() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("sizes: cannot parse {p:?} in {list:?}")),
            })
            .collect::<Result<_, _>>()?,
        None => preset.default_sizes.to_vec(),
    };
    let out = args
        .positional("out")?
        .unwrap_or_else(|| "BENCH_soak.json".into());
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let sim_budget = (preset.window)(largest) + preset.drain + SimDuration::from_hours(1);
    Ok(Cli {
        preset,
        threads,
        check,
        lcm_replicas,
        sim_budget,
        profile,
        seed,
        sizes,
        out,
    })
}

/// Runs one trial per size on the seed-parallel runner.
pub fn campaign(cli: &Cli) -> CampaignReport<SoakRun> {
    let trials = cli.sizes.iter().map(|&n| (cli.seed, n)).collect();
    campaign_of(cli, trials, cli.profile)
}

/// The runs the baseline gate pools with [`campaign`]'s: each size of
/// the command line whose baseline entry names seeds, at those seeds
/// but the command line's own, unprofiled. The gate judges a tenant
/// class's tail and the median deploy over all of them
/// ([`render_wall_json`]), which one admission-order flip at one seed
/// cannot move far.
pub fn pooled(cli: &Cli, baseline_json: &str) -> CampaignReport<SoakRun> {
    campaign_of(cli, pooled_trials(cli, baseline_json), false)
}

/// The `(seed, n)` of each run [`pooled`] makes.
fn pooled_trials(cli: &Cli, baseline_json: &str) -> Vec<(u64, u64)> {
    let doc = Value::parse_json(baseline_json).ok();
    let entries = doc.as_ref().and_then(|d| d.path("runs")?.as_arr());
    cli.sizes
        .iter()
        .flat_map(|&n| {
            let label = cli.preset.label(n);
            let entry = entries
                .into_iter()
                .flatten()
                .find(|e| e.path("run").and_then(Value::as_str) == Some(label.as_str()));
            let seeds = entry.and_then(|e| e.path("seeds")?.as_arr());
            seeds
                .into_iter()
                .flatten()
                .filter_map(|s| s.as_f64().map(|s| s as u64))
                .filter(|s| *s != cli.seed)
                .map(move |s| (s, n))
        })
        .collect()
}

fn campaign_of(cli: &Cli, trials: Vec<(u64, u64)>, profile: bool) -> CampaignReport<SoakRun> {
    let (preset, lcm_replicas) = (cli.preset, cli.lcm_replicas);
    let replicas = lcm_replicas.map_or(String::new(), |m| format!(" --lcm-replicas {m}"));
    let trials = trials
        .into_iter()
        .map(|(seed, n)| Trial {
            label: preset.label(n),
            repro: format!(
                "cargo run --release -p dlaas-bench --bin soak -- {}{replicas} {seed} {n} soak-repro.json",
                preset.name
            ),
            spec: (seed, n),
        })
        .collect();
    let runner = CampaignRunner::new("soak", cli.threads).with_sim_budget(cli.sim_budget);
    runner.run(trials, |&(seed, n), _ctx| {
        run(seed, preset, n, lcm_replicas, profile)
    })
}

/// The flat-curve criterion: per-job cost at the largest N must stay
/// within 2× of the smallest N, for kernel events and for every
/// work-count series (+1 guards emptiness). Returns one report line per
/// cost and whether all of them held.
pub fn cost_flatness(runs: &[&SoakRun]) -> (Vec<String>, bool) {
    let by_n = |r: &&&SoakRun| r.n;
    let (lo, hi) = match (runs.iter().min_by_key(by_n), runs.iter().max_by_key(by_n)) {
        (Some(lo), Some(hi)) if lo.n < hi.n => (lo, hi),
        _ => return (Vec::new(), true),
    };
    let costs = |r: &SoakRun| {
        std::iter::once(("events", r.events_per_job()))
            .chain(r.series.iter().map(|s| (s.name, s.per_job)))
            .collect::<Vec<_>>()
    };
    let mut flat = true;
    let lines = costs(lo)
        .into_iter()
        .zip(costs(hi))
        .map(|((name, a), (_, b))| {
            let ratio = (b + 1.0) / (a + 1.0);
            let verdict = if ratio <= 2.0 { "ok" } else { "REGRESSION" };
            flat &= ratio <= 2.0;
            format!(
                "{verdict} {name}: {a:.2}/job @ N={} vs {b:.2}/job @ N={} (×{ratio:.2})",
                lo.n, hi.n
            )
        })
        .collect();
    (lines, flat)
}

// ----------------------------------------------------------------------
// artifacts
// ----------------------------------------------------------------------

/// Joins rendered JSON items one per line.
fn json_lines(items: impl IntoIterator<Item = String>) -> String {
    items.into_iter().collect::<Vec<_>>().join(",\n")
}

/// Hand-rolled JSON with fixed key order and fixed-precision floats; no
/// wall-clock and no thread count, so `cmp` works across same-seed runs.
pub fn render_json(preset: &Preset, seed: u64, runs: &[&SoakRun]) -> String {
    let runs = runs.iter().map(|r| {
        let tenants = r.tenants.iter().map(|t| {
            format!(
                "        {{\"tenant\": \"{}\", \"jobs\": {}, \"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6}}}",
                t.tenant, t.jobs, t.p50, t.p95, t.p99
            )
        });
        let series = r.series.iter().map(|s| {
            format!(
                "        \"{}\": {{\"sum\": {:.6}, \"per_job\": {:.6}}}",
                s.name, s.sum, s.per_job
            )
        });
        format!(
            "    {{\n      \"run\": \"{}\",\n      \"n\": {},\n      \"window_secs\": {:.6},\n      \"completed\": {},\n      \"failed\": {},\n      \"unfinished\": {},\n      \"queued_submissions\": {},\n      \"admission_waits\": {},\n      \"admission_wait_mean_us\": {:.6},\n      \"admission_wait_p95_us\": {:.6},\n      \"invariant_violations\": {},\n      \"pod_restarts\": {},\n      \"events\": {},\n      \"sim_secs\": {:.6},\n      \"events_per_job\": {:.6},\n      \"tenants\": [\n{}\n      ],\n      \"series\": {{\n{}\n      }}\n    }}",
            r.label,
            r.n,
            (preset.window)(r.n).as_secs_f64(),
            r.completed,
            r.failed,
            r.unfinished,
            r.queued_submissions,
            r.admission_waits,
            r.admission_wait_mean_us,
            r.admission_wait_p95_us,
            r.invariant_violations,
            r.pod_restarts,
            r.events,
            r.sim_secs,
            r.events_per_job(),
            json_lines(tenants),
            json_lines(series),
        )
    });
    format!(
        "{{\n  \"bench\": \"soak\",\n  \"preset\": \"{}\",\n  \"seed\": {seed},\n  \"drain_secs\": {:.6},\n  \"runs\": [\n{}\n  ]\n}}\n",
        preset.name,
        preset.drain.as_secs_f64(),
        json_lines(runs)
    )
}

/// The class a tenant belongs to for the baseline gate: its name up to
/// the last `-` (`whale-0` → `whale`, `small-7` → `small`), or the whole
/// name when it has none (`bench`).
pub fn tenant_class(tenant: &str) -> &str {
    tenant.rsplit_once('-').map_or(tenant, |(class, _)| class)
}

/// The share of a class's slowest jobs whose mean turnaround is the
/// class's tail (`tail_mean`).
pub const TAIL_SHARE: f64 = 0.05;

/// The nearest-rank `q`-quantile of `samples` (0 when there are none).
fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// The mean of the largest `share` of `samples`, at least one (0 when
/// there are none): a tail that one sample crossing a rank cannot move
/// the way it moves a high quantile.
fn tail_mean(samples: &mut [f64], share: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    let k = ((share * samples.len() as f64).ceil() as usize).max(1);
    let tail = &samples[samples.len().saturating_sub(k)..];
    if tail.is_empty() {
        0.0
    } else {
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// The gate sidecar, never byte-compared: per run the host seconds (the
/// one wall-clock figure) next to each tenant class's tail turnaround
/// (the mean of its slowest [`TAIL_SHARE`] of jobs) and the median
/// deploy, both pooled over the run and every run of `pooled` with its
/// label, and the seeds they ran at — everything
/// [`check_against_baseline`] reads — and the process's peak resident
/// memory ([`peak_rss_kib`]).
/// A baseline entry is a line of this file: to refresh
/// `BENCH_soak.baseline.json`, replace the preset's lines in it with the
/// `runs` lines of a sidecar from an idle machine.
pub fn render_wall_json(
    runs: &[&SoakRun],
    pooled: &[&SoakRun],
    peak_rss_kib: Option<u64>,
) -> String {
    let runs = runs.iter().map(|r| {
        let rate = if r.wall_secs > 0.0 {
            r.events as f64 / r.wall_secs
        } else {
            0.0
        };
        let mut classes = r.classes.clone();
        let mut deploys = r.deploys.clone();
        let mut seed_list = r.seed.to_string();
        for other in pooled.iter().filter(|p| p.label == r.label) {
            seed_list += &format!(", {}", other.seed);
            deploys.extend(&other.deploys);
            for (class, turnarounds) in &other.classes {
                match classes.iter_mut().find(|(c, _)| c == class) {
                    Some((_, pool)) => pool.extend(turnarounds),
                    None => classes.push((class.clone(), turnarounds.clone())),
                }
            }
        }
        let tails = classes.iter_mut().map(|(class, turnarounds)| {
            let tail = tail_mean(turnarounds, TAIL_SHARE);
            format!("\"{class}\": {tail:.6}")
        });
        format!(
            "    {{\"run\": \"{}\", \"seeds\": [{seed_list}], \"wall_secs\": {:.6}, \"events_per_wall_sec\": {rate:.1}, \"deploy_p50\": {:.6}, \"class_tail\": {{{}}}}}",
            r.label,
            r.wall_secs,
            quantile(&mut deploys, 0.5),
            tails.collect::<Vec<_>>().join(", ")
        )
    });
    let peak_rss = peak_rss_kib.map_or_else(|| "null".to_owned(), |kib| kib.to_string());
    format!(
        "{{\n  \"bench\": \"soak-wall\",\n  \"peak_rss_kib\": {peak_rss},\n  \"runs\": [\n{}\n  ]\n}}\n",
        json_lines(runs)
    )
}

/// The most memory this process has had resident, in KiB (`VmHWM` of
/// `/proc/self/status`); `None` where the kernel does not say. A figure
/// of the whole process — of one run when the command line names one
/// size — and, like wall seconds, one for the sidecar only: `soak-smoke`
/// derives what a finished job leaves behind from two runs' figures.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.split_whitespace().next()?.parse().ok()
}

/// How much worse than the baseline a gated figure may be (fractional).
const TOLERANCE: f64 = 0.10;

/// Compares a fresh gate sidecar against the committed baseline.
///
/// For every baseline run of the sidecar's preset, the current run must
/// exist and be no more than `TOLERANCE` (10 %) worse:
///
/// * `wall_secs` — the machine-speed gate. It reads wall seconds, not
///   events per wall-second: a soak performs a fixed experiment and its
///   events are the program's own doing, so an event diet must not read
///   as a slowdown;
/// * each tenant class's tail turnaround and the median deploy, pooled
///   over the baseline's seeds — the behaviour gate: deterministic for
///   given seeds, so a drift means platform behaviour changed. A class
///   pools enough jobs, and its tail enough of them, that one tenant's
///   admission order at one seed does not move it (EXPERIMENTS.md "The
///   traffic gate, restated"); the deploy median is what a slower
///   Guardian moves, which no turnaround tail sees. Both are judged
///   only against a baseline pooled over the same seeds.
///
/// Returns report lines on success or the violations on failure; a side
/// that fails to parse, or a baseline entry that names nothing in the
/// current run, is a violation, not a pass.
pub fn check_against_baseline(
    wall_json: &str,
    baseline_json: &str,
) -> Result<Vec<String>, Vec<String>> {
    fn runs_of(json: &str, which: &str) -> Result<Vec<Value>, Vec<String>> {
        let doc = Value::parse_json(json)
            .map_err(|e| vec![format!("{which}: unparseable JSON: {e:?}")])?;
        let runs = doc.path("runs").and_then(Value::as_arr);
        Ok(runs
            .ok_or_else(|| vec![format!("{which}: missing \"runs\" array")])?
            .to_vec())
    }
    let name = |run: &Value| run.path("run").and_then(Value::as_str).map(str::to_owned);
    let baseline = runs_of(baseline_json, "baseline")?;
    let current = runs_of(wall_json, "current")?;
    // Every run of one sidecar belongs to one preset.
    let preset = current.first().and_then(name).unwrap_or_default();
    let preset = preset.split('/').next().unwrap_or_default();

    let mut report = Vec::new();
    let mut violations = Vec::new();
    let mut unpooled = Vec::new();
    let mut gate = |what: String, current: Option<f64>, base: Option<f64>| match (current, base) {
        (Some(cur), Some(base)) => {
            let ceiling = base * (1.0 + TOLERANCE);
            let line = format!("{what}: {cur:.1} vs baseline {base:.1} (ceiling {ceiling:.1})");
            if cur > ceiling {
                violations.push(format!("REGRESSION {line}"));
            } else {
                report.push(format!("ok {line}"));
            }
        }
        (None, Some(_)) => violations.push(format!("{what}: missing from current run")),
        (_, None) => violations.push(format!("{what}: malformed baseline entry")),
    };
    for base in &baseline {
        let run = name(base).unwrap_or_default();
        if run.split('/').next() != Some(preset) {
            continue;
        }
        let cur = current.iter().find(|c| name(c).as_deref() == Some(&run));
        let wall = |r: &Value| r.path("wall_secs")?.as_f64();
        gate(format!("{run} wall-s"), cur.and_then(wall), wall(base));
        let seeds = |r: &Value| {
            let mut seeds: Vec<u64> = r
                .path("seeds")?
                .as_arr()?
                .iter()
                .filter_map(|s| s.as_f64().map(|s| s as u64))
                .collect();
            seeds.sort_unstable();
            Some(seeds)
        };
        if let Some(cur) = cur.filter(|c| seeds(c) != seeds(base)) {
            unpooled.push(format!(
                "{run}: pooled over seeds {:?}, the baseline over {:?}",
                seeds(cur).unwrap_or_default(),
                seeds(base).unwrap_or_default()
            ));
            continue;
        }
        let deploy = |r: &Value| r.path("deploy_p50")?.as_f64();
        if base.path("deploy_p50").is_some() {
            gate(
                format!("{run} deploy p50 s"),
                cur.and_then(deploy),
                deploy(base),
            );
        }
        let tails = |r: &Value| r.path("class_tail")?.as_obj().cloned();
        let cur_tails = cur.and_then(tails).unwrap_or_default();
        for (class, base_tail) in tails(base).unwrap_or_default() {
            let cur_tail = cur_tails.get(&class).and_then(Value::as_f64);
            gate(
                format!("{run}/{class} tail s"),
                cur_tail,
                base_tail.as_f64(),
            );
        }
    }
    violations.append(&mut unpooled);
    if report.is_empty() && violations.is_empty() {
        violations.push(format!("baseline: no {preset}/* run to compare against"));
    }
    if violations.is_empty() {
        Ok(report)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        Args::new(args.iter().map(|s| (*s).to_owned())).read(parse_cli)
    }

    #[test]
    fn cli_defaults_come_from_the_preset() {
        let c = cli(&["traffic"]).expect("preset alone is a full command line");
        assert_eq!(c.preset.name, "traffic");
        assert_eq!((c.seed, c.threads), (2018, 1));
        assert_eq!(c.sizes, TRAFFIC.default_sizes);
        assert_eq!(c.out, "BENCH_soak.json");
        assert_eq!(c.sim_budget, SimDuration::from_hours(4));
    }

    #[test]
    fn cli_takes_flags_and_positionals_in_any_order() {
        let c = cli(&[
            "chaos",
            "7",
            "--threads",
            "8",
            "30,60",
            "--lcm-replicas",
            "3",
            "out.json",
        ])
        .expect("valid");
        assert_eq!((c.seed, c.threads, c.lcm_replicas), (7, 8, Some(3)));
        assert_eq!(c.sizes, vec![30, 60]);
        assert_eq!(c.out, "out.json");
        assert!(!c.profile);
        assert!(cli(&["chaos", "--profile", "7"]).expect("valid").profile);
        // The default budget follows the largest size's window.
        let c = cli(&["chaos", "7", "30,60"]).expect("valid");
        assert_eq!(c.sim_budget, SimDuration::from_hours(2 + 4 + 1));
    }

    #[test]
    fn cli_rejects_what_it_cannot_parse() {
        for bad in [
            &[][..],
            &["scale"],
            &["traffic", "2018", "1k", "out.json"],
            &["traffic", "2018", "1000,2OOO"],
            &["traffic", "2018", "1000,"],
            &["traffic", "2018", "0"],
            &["traffic", "seed"],
            &["traffic", "--soak", "3"],
            &["traffic", "--threads"],
            &["traffic", "--threads", "many"],
            &["traffic", "--tolerance", "0.10"],
            &["traffic", "--sim-budget-secs", "0"],
            &["traffic", "2018", "1000", "out.json", "extra"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    fn fake_run(label: &str, events: u64, wall_secs: f64, p99: f64) -> SoakRun {
        SoakRun {
            label: label.into(),
            seed: 2018,
            n: 1_000,
            submitted: 1_000,
            completed: 1_000,
            events,
            tenants: vec![TenantSummary {
                tenant: "whale-0".into(),
                jobs: 1_000,
                p99,
                ..TenantSummary::default()
            }],
            classes: vec![("whale".into(), vec![p99 / 2.0, p99])],
            deploys: vec![10.0],
            wall_secs,
            ..SoakRun::default()
        }
    }

    fn sidecar(run: &SoakRun) -> String {
        render_wall_json(&[run], &[], None)
    }

    #[test]
    fn baseline_gates_wall_seconds_and_p99() {
        let baseline = sidecar(&fake_run("traffic/n1000", 1_000_000, 10.0, 120.0));
        let check = |run: &SoakRun| check_against_baseline(&sidecar(run), &baseline);

        let report = check(&fake_run("traffic/n1000", 1_000_000, 10.5, 125.0)).expect("within");
        assert_eq!(report.len(), 3);
        assert!(report[0].starts_with("ok traffic/n1000 wall-s: 10.5 vs baseline 10.0"));

        // An event diet: a third of the events gone, the soak 20% faster,
        // events per wall-second down 17% — an improvement, not a drop.
        check(&fake_run("traffic/n1000", 666_000, 8.0, 120.0)).expect("faster");

        let v = check(&fake_run("traffic/n1000", 1_000_000, 12.0, 120.0)).expect_err("slower");
        assert!(v[0].starts_with("REGRESSION traffic/n1000 wall-s: 12.0"));

        let mut slow_deploys = fake_run("traffic/n1000", 1_000_000, 10.0, 120.0);
        slow_deploys.deploys = vec![12.0];
        let v = check(&slow_deploys).expect_err("a slower deploy");
        assert!(v[0].starts_with("REGRESSION traffic/n1000 deploy p50 s: 12.0 vs baseline 10.0"));

        let v = check(&fake_run("traffic/n1000", 1_000_000, 10.0, 200.0)).expect_err("starved");
        assert!(v[0].starts_with("REGRESSION traffic/n1000/whale tail s: 200.0"));
    }

    #[test]
    fn a_class_tail_pools_its_tenants_over_the_baseline_seeds() {
        assert_eq!(
            ["whale-0", "small-12", "bench"].map(tenant_class),
            ["whale", "small", "bench"]
        );
        // The class's turnarounds at every seed form one sample.
        let at = |seed, p99| SoakRun {
            seed,
            ..fake_run("traffic/n1000", 1, 10.0, p99)
        };
        let (fast, slow, fast_too) = (at(2018, 1_000.0), at(7, 3_000.0), at(2019, 1_000.0));
        let tail = |json: &str| {
            Value::parse_json(json)
                .expect("json")
                .path("runs")
                .and_then(Value::as_arr)
                .and_then(|runs| runs[0].path("class_tail.whale")?.as_f64())
                .expect("a pooled whale tail")
        };
        let pooled = render_wall_json(&[&fast], &[&slow, &fast_too], None);
        assert!(pooled.contains("\"seeds\": [2018, 7, 2019]"), "{pooled}");
        assert_eq!(tail(&pooled), 3_000.0);
        assert_eq!(tail(&sidecar(&fast)), 1_000.0);
        let mut hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut hundred, 0.5), 50.0);
        assert_eq!(tail_mean(&mut hundred, TAIL_SHARE), 98.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(tail_mean(&mut [], TAIL_SHARE), 0.0);

        // The other seeds the baseline names, for the sizes it names them.
        let c = cli(&["traffic", "--check", "b.json", "7", "1000,2000"]).expect("a command line");
        assert_eq!(pooled_trials(&c, &pooled), [(2018, 1_000), (2019, 1_000)]);
        assert!(pooled_trials(&c, "not json").is_empty());

        // Pooled over other seeds than the baseline's is no comparison.
        let v = check_against_baseline(&sidecar(&slow), &pooled).unwrap_err();
        assert!(v[0].contains("pooled over seeds [7]"), "{v:?}");
        check_against_baseline(&pooled, &pooled).expect("same pool");
    }

    #[test]
    fn baseline_check_fails_on_a_missing_run_or_bad_json() {
        let run = fake_run("traffic/n1000", 1_000_000, 10.0, 120.0);
        // A committed baseline holds several presets; only the current
        // one's runs are compared.
        let baseline = render_wall_json(
            &[&run, &fake_run("uniform/n10000", 1, 140.0, 300.0)],
            &[],
            Some(1),
        );
        check_against_baseline(&sidecar(&run), &baseline).expect("same run");

        let other = sidecar(&fake_run("traffic/n200", 1, 1.0, 1.0));
        let v = check_against_baseline(&other, &baseline).unwrap_err();
        assert!(v[0].contains("missing from current run"), "{v:?}");
        let mut renamed = run.clone();
        renamed.classes[0].0 = "orca".into();
        let v = check_against_baseline(&sidecar(&renamed), &baseline).unwrap_err();
        assert_eq!(v, ["traffic/n1000/whale tail s: missing from current run"]);

        assert!(check_against_baseline("not json", &baseline).is_err());
        assert!(check_against_baseline(&sidecar(&run), "not json").is_err());
        assert!(check_against_baseline(&sidecar(&run), "{}").is_err());
        // A baseline without a run of this preset gates nothing: a fail.
        let chaos = sidecar(&fake_run("chaos/n120", 1, 1.0, 1.0));
        let v = check_against_baseline(&chaos, &baseline).unwrap_err();
        assert!(v[0].contains("no chaos/* run"), "{v:?}");
    }

    #[test]
    fn the_sidecar_carries_the_process_peak_rss() {
        let run = fake_run("uniform/n500", 1, 1.0, 1.0);
        let rss = |json: &str| {
            Value::parse_json(json)
                .expect("json")
                .path("peak_rss_kib")
                .cloned()
        };
        // What the soak-smoke residue gate reads with `sed`.
        let with = render_wall_json(&[&run], &[], Some(65_536));
        assert!(with.contains("\n  \"peak_rss_kib\": 65536,\n"), "{with}");
        assert_eq!(rss(&sidecar(&run)), Some(Value::Null));
        // On Linux the kernel reports it, and a test binary is not tiny.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kib().is_some_and(|kib| kib > 1_024));
        }
    }

    #[test]
    fn site_names_shorten_to_what_tells_them_apart() {
        assert_eq!(
            short_site(
                "dlaas_sim::kernel::tick<dlaas_core::helper::log_collector_behavior::{{closure}}::{{closure}}>::{{closure}}"
            ),
            "kernel::tick<helper::log_collector_behavior>"
        );
        assert_eq!(
            short_site(
                "dlaas_net::network::Net<dlaas_net::rpc::RpcFrame<dlaas_docstore::server::MongoRequest, dlaas_docstore::server::MongoResponse>>::send::{{closure}}"
            ),
            "network::Net<rpc::RpcFrame<server::MongoRequest, server::MongoResponse>>::send"
        );
        assert_eq!(
            short_site("dlaas_core::learner::Learner::tick::{{closure}}"),
            "Learner::tick"
        );
    }

    #[test]
    fn profile_tables_sort_by_their_own_column() {
        let cost = |events, host_secs| SiteCost { events, host_secs };
        let run = SoakRun {
            label: "uniform/n10".into(),
            sites: vec![
                ("a::cheap_and_frequent".into(), cost(900, 0.001)),
                ("b::dear_and_rare".into(), cost(100, 0.003)),
            ],
            ..SoakRun::default()
        };
        let (counts, times) = render_profile(&run);
        let order = |table: &str| table.find("a::cheap").unwrap() < table.find("b::dear").unwrap();
        assert!(order(&counts) && !order(&times), "{counts}{times}");
        assert!(counts.starts_with("uniform/n10: 1000 events"));
        assert!(counts.contains("900  90.0 %  a::cheap_and_frequent"));
        assert!(!counts.contains("ms"), "no wall-clock figure on stdout");
        assert!(times.contains("3.00 ms  75.0 %    30000 ns/event  b::dear_and_rare"));
    }

    #[test]
    fn cost_flatness_compares_the_extreme_sizes() {
        let mut small = fake_run("traffic/n1000", 2_000_000, 1.0, 1.0);
        let mut large = fake_run("traffic/n10000", 30_000_000, 1.0, 1.0);
        large.n = 10_000;
        for (r, per_job) in [(&mut small, 8.0), (&mut large, 9.0)] {
            r.series.push(Series {
                name: "lcm_sweep_docs_examined",
                sum: per_job * r.n as f64,
                per_job,
            });
        }
        let (lines, flat) = cost_flatness(&[&large, &small]);
        assert!(flat, "{lines:?}");
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("ok events: 2000.00/job @ N=1000 vs 3000.00/job @ N=10000"));
        large.series[0].per_job = 30.0;
        let (lines, flat) = cost_flatness(&[&small, &large]);
        assert!(!flat);
        assert!(lines[1].starts_with("REGRESSION lcm_sweep_docs_examined"));
        assert_eq!(cost_flatness(&[&small]), (Vec::new(), true));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "unit test draws arrivals from a directly seeded stream, with no Sim around"
    )]
    fn uniform_and_chaos_arrivals_have_their_shape() {
        let u = uniform_arrivals(&mut SimRng::new(5), 200);
        assert_eq!(u.len(), 200);
        assert_eq!(u[0].at, SimDuration::ZERO);
        assert_eq!(u[100].at, SimDuration::from_mins(10));

        let c = chaos_arrivals(&mut SimRng::new(5), 500);
        assert_eq!(c.len(), 500);
        assert!(c.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(c.iter().all(|a| a.at <= chaos_window(500)));
        assert!(c.iter().all(|a| (200..=1_500).contains(&a.iterations)));
        assert!(c.iter().all(|a| (1..=4).contains(&a.learners)));
        for (framework, model) in CHAOS_MIX {
            assert!(c
                .iter()
                .any(|a| a.framework == framework && a.model == model));
        }
        assert!(c.iter().any(|a| a.checkpoint_every > 0));
        assert!(c.iter().any(|a| a.checkpoint_every == 0));
        assert_eq!(c, chaos_arrivals(&mut SimRng::new(5), 500));
    }
}
