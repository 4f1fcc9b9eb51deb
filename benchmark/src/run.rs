//! One repetition of one workload: set-up, measured phase, collection.
//!
//! The program under test only ever sees generated inputs: the `Sim` is
//! built from the frozen [`SIM_SEED`], and `--seed` reaches nothing but
//! the benchmark's own arrival generator.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dlaas_core::{
    check_invariants, paths, DlaasClient, DlaasPlatform, GpuNodeSpec, InvariantBounds,
    InvariantMonitor, JobId, JobInfo, JobStatus, MetaClient, PlatformConfig, Tenant,
    TrainingManifest,
};
use dlaas_faults::{nfs_outage_window, partition_window, when};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_kube::{labels, PodPhase};
use dlaas_raft::raft_addr;
use dlaas_sim::{Sim, SimDuration, SimRng, SimTime};

use crate::counters::Counters;
use crate::harness::{Harness, PhaseTime};
use crate::trace::{CounterSample, JobSpan};
use crate::traffic::{self, ideal_step_secs, Arrival, TrafficConfig};
use crate::workloads::{
    Workload, FAULT_OUTAGE, FAULT_PERIOD, IDLE_WINDOW, SLICE, STEP, WARMUP_HORIZON, WARMUP_JOBS,
    WARMUP_WINDOW,
};

/// Seed of every `Sim` the benchmark builds. Frozen: `--seed` varies the
/// inputs, never the program's own randomness.
pub const SIM_SEED: u64 = 0xD1AA_5EED;

const DATA_BUCKET: &str = "bench-data";
const DATA_PREFIX: &str = "d/";
const DATA_BYTES: u64 = 500_000_000;
const RESULTS_BUCKET: &str = "bench-results";

/// Everything one repetition produced.
pub struct Rep {
    pub setup: PhaseTime,
    pub measured: PhaseTime,
    /// CPU spent in the whole repetition outside reference slices
    /// (set-up, measured, collection and, on a traced run, recording).
    pub total_code_ns: u64,
    /// CPU of one `Registry::expose` call at the end of the run.
    pub expose_ns: u64,
    pub out: SimOutputs,
}

/// The simulated (host-independent) outputs of a repetition. Two
/// repetitions of one seed must agree on every byte of [`digest`].
///
/// [`digest`]: SimOutputs::digest
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutputs {
    /// Submissions the schedule called for.
    pub attempted: u64,
    /// Rejected or lost submissions, jobs not `Completed` at the horizon,
    /// and distinct invariant violations.
    pub failed: u64,
    /// Simulated end-to-end metrics.
    pub e2e: Vec<(&'static str, f64)>,
    /// Deterministic per-layer metrics.
    pub layer: Vec<(&'static str, f64)>,
    /// Which percentile each `*_tail_*` metric is, and over how many samples.
    pub notes: Vec<String>,
    /// Output checks that failed (empty on a correct run).
    pub problems: Vec<String>,
    /// Kernel events of the measured phase.
    pub events: u64,
    /// Operation counts the micro drivers are fed.
    pub ops: OpCounts,
    /// Per-job lifecycle spans (trace only; not part of the digest).
    pub job_spans: Vec<JobSpan>,
}

/// How often the measured phase used each substrate — the op mix the
/// micro drivers replay on a bare `Sim`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCounts {
    pub sim_events: f64,
    pub rpc_calls: f64,
    pub raft_commits: f64,
    pub etcd_puts: f64,
    pub docstore_updates: f64,
    pub docstore_finds: f64,
    pub docstore_sweeps: f64,
    pub kube_pods: f64,
    pub obs_incs: f64,
}

impl SimOutputs {
    /// Canonical text of every simulated output, for the byte-identity
    /// check across repetitions.
    pub fn digest(&self) -> String {
        let mut s = format!("attempted={} failed={}\n", self.attempted, self.failed);
        for (k, v) in self.e2e.iter().chain(&self.layer) {
            s.push_str(&format!("{k}={v:?}\n"));
        }
        s
    }
}

/// Jobs with at least this much ideal training time checkpoint, so that
/// the work a learner crash can cost them is bounded as in the paper
/// (§III-g); shorter jobs do not.
const CHECKPOINT_MIN_JOB_S: f64 = 300.0;
/// Ideal training seconds between two checkpoints of such a job.
const CHECKPOINT_EVERY_S: f64 = 120.0;

fn manifest(name: String, a: &Arrival) -> TrainingManifest {
    let step = ideal_step_secs(a.learners);
    let checkpoint_every = if a.iterations as f64 * step >= CHECKPOINT_MIN_JOB_S {
        (CHECKPOINT_EVERY_S / step) as u64
    } else {
        0
    };
    TrainingManifest::builder(name)
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .learners(a.learners)
        .data(DATA_BUCKET, DATA_PREFIX, DATA_BYTES)
        .results(RESULTS_BUCKET)
        .iterations(a.iterations)
        .checkpoint_every(checkpoint_every)
        .build()
        .expect("generated manifest is valid")
}

/// What the open-loop generator saw of one submission.
#[derive(Debug, Clone)]
struct Submitted {
    job: JobId,
    ack_us: u64,
}

#[derive(Default)]
struct SubmitLog {
    accepted: Vec<Option<Submitted>>,
    rejected: u64,
    /// Largest gap between a submission's due instant and the instant the
    /// generator actually sent it (must stay zero: arrivals are events of
    /// the simulation itself).
    max_lateness_us: u64,
}

/// Schedules every arrival at `t0 + at`, open loop.
fn arm_schedule(
    sim: &mut Sim,
    t0: SimTime,
    prefix: &'static str,
    arrivals: &[Arrival],
    clients: &[DlaasClient],
) -> Rc<RefCell<SubmitLog>> {
    let log = Rc::new(RefCell::new(SubmitLog {
        accepted: vec![None; arrivals.len()],
        ..SubmitLog::default()
    }));
    for (serial, a) in arrivals.iter().enumerate() {
        let due = t0 + a.at;
        let client = clients[a.tenant].clone();
        let log = log.clone();
        let a = a.clone();
        sim.schedule_at(due, move |sim| {
            let late = sim.now().saturating_duration_since(due).as_micros();
            {
                let mut l = log.borrow_mut();
                l.max_lateness_us = l.max_lateness_us.max(late);
            }
            let m = manifest(format!("{prefix}-{serial}"), &a);
            client.submit(sim, m, move |sim, r| {
                let mut l = log.borrow_mut();
                match r {
                    Ok(job) => {
                        l.accepted[serial] = Some(Submitted {
                            job,
                            ack_us: sim.now().as_micros(),
                        });
                    }
                    Err(_) => l.rejected += 1,
                }
            });
        });
    }
    log
}

// ----------------------------------------------------------------------
// Fault schedule (chaos)
// ----------------------------------------------------------------------

/// One injected fault and when the platform was whole again.
#[derive(Debug, Clone)]
struct FaultRecord {
    kind: &'static str,
    at_us: u64,
    /// `false` for faults whose outage length is the injection itself
    /// (metadata-store crash, NFS outage): their cost shows in turnaround
    /// and training efficiency, not in a recovery time.
    timed: bool,
    recovered_us: Option<u64>,
}

type FaultLog = Rc<RefCell<Vec<FaultRecord>>>;

/// Whether the platform is whole again after a fault.
type Recovered = Box<dyn FnMut(&Sim) -> bool>;

/// How long a recovery may take before it is recorded as not recovered.
const RECOVERY_LIMIT: SimDuration = SimDuration::from_secs(120);
const RECOVERY_POLL: SimDuration = SimDuration::from_millis(100);

/// Records fault `kind` now and polls `recovered` until it holds.
fn watch_recovery(sim: &mut Sim, log: &FaultLog, kind: &'static str, recovered: Option<Recovered>) {
    let idx = log.borrow().len();
    let at = sim.now();
    log.borrow_mut().push(FaultRecord {
        kind,
        at_us: at.as_micros(),
        timed: recovered.is_some(),
        recovered_us: None,
    });
    let Some(mut recovered) = recovered else {
        return;
    };
    let log = log.clone();
    let deadline = at + RECOVERY_LIMIT;
    when(
        sim,
        RECOVERY_POLL,
        kind,
        move |sim| sim.now() >= deadline || recovered(sim),
        move |sim| {
            if sim.now() < deadline {
                log.borrow_mut()[idx].recovered_us = Some(sim.now().as_micros());
            }
        },
    );
}

/// A pod counts as recovered once a container started after the fault
/// (and, for a core service, passes readiness again).
fn pod_back(platform: &DlaasPlatform, pod: String, since: SimTime, need_ready: bool) -> Recovered {
    let kube = platform.kube().clone();
    Box::new(move |sim| {
        kube.pod_started_at(&pod).is_some_and(|t| t > since)
            && (!need_ready || kube.pod_ready(sim, &pod))
    })
}

/// The Running pod matching `selector` that started first: the
/// longest-lived instance, so a crashed learner is likely to belong to a
/// long, checkpointing job and a crashed Guardian to be past deployment.
fn longest_running(platform: &DlaasPlatform, selector: dlaas_kube::Labels) -> Option<String> {
    let kube = platform.kube();
    kube.pods_matching(&selector)
        .into_iter()
        .filter(|p| kube.pod_phase(p) == Some(PodPhase::Running))
        .min_by_key(|p| kube.pod_started_at(p))
}

/// Injects fault number `n` of the rotation.
fn inject(sim: &mut Sim, platform: &DlaasPlatform, log: &FaultLog, n: u64) {
    let now = sim.now();
    match n % 7 {
        0 => {
            // etcd leader crash; the node restarts after the outage.
            let Some(leader) = platform.etcd().leader_id() else {
                return;
            };
            let cluster = platform.etcd().clone();
            cluster.crash(sim, leader);
            let c2 = cluster.clone();
            sim.schedule_in(FAULT_OUTAGE, move |sim| c2.restart(sim, leader));
            let recovered =
                Box::new(move |_: &Sim| cluster.leader_id().is_some_and(|l| l != leader));
            watch_recovery(sim, log, "etcd_leader_crash", Some(recovered));
        }
        1 => {
            platform.crash_mongo(sim, Some(FAULT_OUTAGE));
            watch_recovery(sim, log, "mongo_crash", None);
        }
        2 => {
            nfs_outage_window(sim, platform.nfs(), FAULT_OUTAGE);
            watch_recovery(sim, log, "nfs_outage", None);
        }
        3 => {
            // The etcd leader cut off from its peers, then healed.
            let Some(leader) = platform.etcd().leader_id() else {
                return;
            };
            let peers = (0..platform.etcd().len() as u32)
                .filter(|&i| i != leader)
                .map(raft_addr)
                .collect();
            partition_window(
                sim,
                platform.etcd().raft().net(),
                vec![vec![raft_addr(leader)], peers],
                FAULT_OUTAGE,
            );
            let cluster = platform.etcd().clone();
            let recovered =
                Box::new(move |_: &Sim| cluster.leader_id().is_some_and(|l| l != leader));
            watch_recovery(sim, log, "leader_partition", Some(recovered));
        }
        4 => {
            // The LCM replica that owns shard 0 (read off the etcd
            // leader's replica; replica 0 while the shard is unclaimed).
            let key = paths::lcm_shard_owner(0);
            let owner = platform
                .etcd()
                .leader_id()
                .and_then(|l| {
                    platform
                        .etcd()
                        .kv_snapshot(l)
                        .get(&key)
                        .map(|v| v.value.clone())
                })
                .unwrap_or_else(|| "dlaas-lcm-0".to_owned());
            if platform.kube().crash_pod(sim, &owner) {
                let back = pod_back(platform, owner, now, true);
                watch_recovery(sim, log, "lcm_owner_crash", Some(back));
            }
        }
        5 => {
            if let Some(pod) = longest_running(platform, labels! {"app" => "guardian"}) {
                platform.kube().crash_pod(sim, &pod);
                let back = pod_back(platform, pod, now, false);
                watch_recovery(sim, log, "guardian_crash", Some(back));
            }
        }
        _ => {
            if let Some(pod) = longest_running(platform, labels! {"role" => "learner"}) {
                platform.kube().crash_pod(sim, &pod);
                let back = pod_back(platform, pod, now, false);
                watch_recovery(sim, log, "learner_crash", Some(back));
            }
        }
    }
}

// ----------------------------------------------------------------------
// Percentiles over raw samples
// ----------------------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and tail of raw samples. The tail is the highest percentile
/// with at least ten samples beyond it; with fewer than twenty samples
/// no percentile above the median qualifies and the tail is the median.
struct Dist {
    p50: f64,
    tail: f64,
    /// e.g. `p97.2 of 360`.
    tail_note: String,
}

fn dist(mut samples: Vec<f64>) -> Option<Dist> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let q = if n >= 20 { 1.0 - 10.0 / n as f64 } else { 0.5 };
    Some(Dist {
        p50: percentile(&samples, 0.5),
        tail: percentile(&samples, q),
        tail_note: format!("p{:.1} of {n}", q * 100.0),
    })
}

// ----------------------------------------------------------------------
// The repetition
// ----------------------------------------------------------------------

/// The warm-up cohort's shape: short single-GPU jobs from one unlimited
/// tenant. Frozen and seed-independent, so set-up does the same work on
/// every run of a workload.
fn warmup_traffic() -> TrafficConfig {
    TrafficConfig {
        whales: 0,
        smalls: 1,
        window: WARMUP_WINDOW,
        diurnal_amp: 0.0,
        burst_p: 0.0,
        median_duration: SimDuration::from_secs(45),
        duration_sigma: 0.3,
        min_duration: SimDuration::from_secs(20),
        max_duration: SimDuration::from_secs(120),
        multi_learner_p: 0.0,
        ..TrafficConfig::default()
    }
}

fn first_at(info: &JobInfo, status: JobStatus) -> Option<u64> {
    info.history
        .iter()
        .find(|(s, _)| *s == status)
        .map(|(_, t)| *t)
}

fn secs(from_us: u64, to_us: u64) -> f64 {
    to_us.saturating_sub(from_us) as f64 / 1e6
}

/// Advances the simulation by `span` in [`STEP`]s, each a timed section
/// of `phase` followed by its reference work. Returns the events run.
fn run_steps(h: &mut Harness, phase: &mut PhaseTime, sim: &mut Sim, span: SimDuration) -> u64 {
    let mut events = 0;
    for _ in 0..span.as_micros() / STEP.as_micros() {
        events += h.time(phase, "step", || sim.run_for(STEP));
    }
    events
}

/// Runs repetition `rep` of `w` on inputs generated from `seed`.
pub fn run_rep(w: &Workload, seed: u64, rep: usize, h: &mut Harness) -> Rep {
    let rep_span = h.open(&format!("rep[{rep}]"));
    let cpu0 = h.clock.now_ns();
    let mut setup = PhaseTime::default();

    // ---------------------------------------------------------- set-up
    let setup_span = h.open("setup");
    let (mut sim, platform) = h.time(&mut setup, "boot", || {
        let mut sim = Sim::new(SIM_SEED);
        sim.trace_mut().set_enabled(false);
        let cfg = PlatformConfig {
            core_nodes: 4,
            gpu_nodes: vec![GpuNodeSpec {
                kind: GpuKind::K80,
                count: w.gpu_nodes,
                gpus_each: 4,
            }],
            ..PlatformConfig::default()
        };
        let platform = DlaasPlatform::new(&mut sim, cfg);
        platform.run_until_ready(&mut sim, SimDuration::from_secs(60));
        (sim, platform)
    });

    let (clients, warm_client) = h.time(&mut setup, "tenants", || {
        let ids = w.traffic.tenant_ids();
        let mut clients = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            let key = format!("key-{id}");
            // A quota of 0 is unlimited.
            let quota = if w.quotas {
                w.traffic.quota_of(i, w.capacity())
            } else {
                0
            };
            platform
                .add_tenant(
                    &Tenant::new(id.clone(), key.clone(), quota)
                        .with_weight(w.traffic.weight_of(i)),
                )
                .expect("bootstrap tenant insert");
            clients.push(platform.client(id, &key));
        }
        platform
            .add_tenant(&Tenant::new("warmup", "key-warmup", 0))
            .expect("bootstrap tenant insert");
        platform.seed_dataset(DATA_BUCKET, DATA_PREFIX, DATA_BYTES);
        platform.create_bucket(RESULTS_BUCKET);
        (clients, platform.client("warmup", "key-warmup"))
    });

    let (warm, schedule) = h.time(&mut setup, "schedule_gen", || {
        let warm = traffic::generate(
            &mut SimRng::new(SIM_SEED).fork("warmup"),
            &warmup_traffic(),
            WARMUP_JOBS,
        );
        let schedule =
            traffic::generate(&mut SimRng::new(seed).fork("arrivals"), &w.traffic, w.jobs);
        (warm, schedule)
    });

    let idle_span = h.open("idle");
    let idle_events = run_steps(h, &mut setup, &mut sim, IDLE_WINDOW);
    h.close(idle_span);

    let warm_span = h.open("warmup");
    let warm_log = {
        let t0 = sim.now();
        arm_schedule(&mut sim, t0, "w", &warm, std::slice::from_ref(&warm_client))
    };
    run_steps(h, &mut setup, &mut sim, WARMUP_HORIZON);
    h.close(warm_span);
    let warm_done = warm_log
        .borrow()
        .accepted
        .iter()
        .flatten()
        .filter(|s| platform.job_status(&s.job) == Some(JobStatus::Completed))
        .count() as u64;

    // Arm the measured phase: the schedule, the invariant monitor and,
    // on chaos, the fault rotation.
    let t0 = sim.now();
    let (log, monitor, faults) = h.time(&mut setup, "arm", || {
        let log = arm_schedule(&mut sim, t0, "t", &schedule, &clients);
        let mut bounds = InvariantBounds::from_config(&platform.handles().config);
        if w.chaos {
            // A crash can legitimately destroy un-checkpointed progress,
            // so time to terminal is several trainings, not one.
            bounds.terminal_within = SimDuration::from_hours(4);
        }
        let monitor =
            InvariantMonitor::install_with(&mut sim, &platform, SimDuration::from_secs(60), bounds);
        let faults: FaultLog = Rc::new(RefCell::new(Vec::new()));
        if w.chaos {
            let p = platform.clone();
            let f = faults.clone();
            let stop_at = t0 + w.traffic.window;
            dlaas_sim::every(&mut sim, FAULT_PERIOD, move |sim, n| {
                if sim.now() > stop_at {
                    return false; // drain runs fault-free
                }
                inject(sim, &p, &f, n - 1);
                true
            });
        }
        (log, monitor, faults)
    });
    h.close(setup_span);

    // -------------------------------------------------- measured phase
    let base = Counters::read(&sim, &platform);
    let mut measured = PhaseTime::default();
    let mut pending_peak = sim.events_pending();
    let measured_span = h.open("measured");
    for s in 0..w.slices() {
        let slice_span = h.open(&format!("slice[{s}]"));
        run_steps(h, &mut measured, &mut sim, SLICE);
        h.close(slice_span);
        pending_peak = pending_peak.max(sim.events_pending());
        if h.trace.is_some() {
            let sample = CounterSample {
                rep,
                slice: s,
                sim_us: sim.now().as_micros(),
                values: Counters::read(&sim, &platform)
                    .since(&base)
                    .0
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v))
                    .collect(),
            };
            if let Some(t) = h.trace.as_mut() {
                t.counters.push(sample);
            }
        }
    }
    h.close(measured_span);

    // ------------------------------------------------------ collection
    let collect_span = h.open("collect");
    monitor.cancel();
    let end = Counters::read(&sim, &platform);
    let delta = end.since(&base);
    let final_report = check_invariants(&sim, &platform);
    let violations = (monitor.violations_seen() as u64).max(final_report.violations.len() as u64);

    let docs = platform.job_documents();
    let infos: BTreeMap<String, JobInfo> = docs
        .iter()
        .filter_map(|d| MetaClient::parse_job_info(d).ok())
        .map(|i| (i.job.as_str().to_owned(), i))
        .collect();
    let admitted: BTreeMap<String, (u64, Option<u64>)> = docs
        .iter()
        .filter_map(|d| {
            let id = d.path("_id")?.as_str()?.to_owned();
            let submitted = u64::try_from(d.path("submitted_us")?.as_i64()?).ok()?;
            let admitted = d
                .path("admitted_us")
                .and_then(dlaas_docstore::Value::as_i64)
                .and_then(|v| u64::try_from(v).ok());
            Some((id, (submitted, admitted)))
        })
        .collect();

    let log = log.borrow();
    let n = schedule.len() as f64;
    let mut problems: Vec<String> = Vec::new();
    let mut turnaround = Vec::new();
    let mut start_delay = Vec::new();
    let mut ack_ms = Vec::new();
    let mut admission = Vec::new();
    let mut pickup = Vec::new();
    let mut deploy = Vec::new();
    let mut processing = Vec::new();
    let mut storing = Vec::new();
    let mut per_tenant: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut queue_edges: Vec<(u64, i64)> = Vec::new();
    let mut job_spans = Vec::new();
    let (mut ideal_sum, mut ideal_done, mut trained_sum) = (0.0, 0.0, 0.0);
    let (mut completed, mut lost) = (0u64, 0u64);
    for (serial, a) in schedule.iter().enumerate() {
        let ideal = a.iterations as f64 * ideal_step_secs(a.learners);
        ideal_sum += ideal;
        let due = (t0 + a.at).as_micros();
        let Some(sub) = &log.accepted[serial] else {
            lost += 1;
            continue;
        };
        ack_ms.push(sub.ack_us.saturating_sub(due) as f64 / 1e3);
        let Some(info) = infos.get(sub.job.as_str()) else {
            lost += 1;
            continue;
        };
        if let Some((submitted, Some(adm))) = admitted.get(sub.job.as_str()) {
            admission.push(secs(*submitted, *adm));
            if adm > submitted {
                queue_edges.push((*submitted, 1));
                queue_edges.push((*adm, -1));
            }
        }
        let at = |s| first_at(info, s);
        if let (Some(p), Some(d)) = (at(JobStatus::Pending), at(JobStatus::Deploying)) {
            pickup.push(secs(p, d));
        }
        if let (Some(d), Some(p)) = (at(JobStatus::Deploying), at(JobStatus::Processing)) {
            deploy.push(secs(d, p));
        }
        if let Some(p) = at(JobStatus::Processing) {
            start_delay.push(secs(due, p));
        }
        if let (Some(p), Some(s)) = (at(JobStatus::Processing), at(JobStatus::Storing)) {
            processing.push(secs(p, s));
            if info.status == JobStatus::Completed {
                ideal_done += ideal;
                trained_sum += secs(p, s);
            }
        }
        if let (Some(s), Some(c)) = (at(JobStatus::Storing), at(JobStatus::Completed)) {
            storing.push(secs(s, c));
        }
        if info.status == JobStatus::Completed {
            completed += 1;
        }
        if let Some((_, end_us)) = info.history.iter().find(|(s, _)| s.is_terminal()) {
            let t = secs(due, *end_us);
            turnaround.push(t);
            per_tenant.entry(a.tenant).or_default().push(t);
        }
        if h.trace.is_some() && rep == 0 {
            job_spans.extend(info.history.windows(2).map(|pair| JobSpan {
                job: sub.job.as_str().to_owned(),
                phase: phase_name(pair[0].0),
                start_us: pair[0].1,
                end_us: pair[1].1,
            }));
        }
    }
    let submitted = log.accepted.iter().flatten().count() as u64;
    let not_completed = schedule.len() as u64 - lost - completed;
    let failed = lost + not_completed + violations;

    // Output checks. A failed check withholds the metrics.
    if warm_done != WARMUP_JOBS {
        problems.push(format!(
            "warm-up: {warm_done}/{WARMUP_JOBS} jobs completed in set-up"
        ));
    }
    if submitted != schedule.len() as u64 {
        problems.push(format!(
            "submitted {submitted} of {} scheduled ({} rejected)",
            schedule.len(),
            log.rejected
        ));
    }
    if log.max_lateness_us != 0 {
        problems.push(format!(
            "open-loop generator ran {} us late",
            log.max_lateness_us
        ));
    }
    if not_completed > 0 && !w.chaos {
        problems.push(format!("{not_completed} jobs not Completed at the horizon"));
    }
    if violations > 0 {
        problems.push(format!("{violations} invariant violations"));
        for v in &final_report.violations {
            problems.push(format!("  {v}"));
        }
    }
    let ideal_per_job = ideal_sum / n;
    if (ideal_per_job / w.ideal_train_s_per_job - 1.0).abs() > 0.03 {
        problems.push(format!(
            "ideal training time per job is {ideal_per_job:.3} s, frozen at {:.3} s: the workload changed",
            w.ideal_train_s_per_job
        ));
    }

    let mut notes = Vec::new();
    let mut e2e: Vec<(&'static str, f64)> = Vec::new();
    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    for (p50, tail, samples) in [
        ("turnaround_p50_sim_s", "turnaround_tail_sim_s", turnaround),
        (
            "start_delay_p50_sim_s",
            "start_delay_tail_sim_s",
            start_delay,
        ),
        ("submit_ack_p50_sim_ms", "submit_ack_tail_sim_ms", ack_ms),
    ] {
        match dist(samples) {
            Some(d) => {
                notes.push(format!("{tail} is {}", d.tail_note));
                e2e.push((p50, d.p50));
                e2e.push((tail, d.tail));
            }
            None => problems.push(format!("no samples for {p50}")),
        }
    }
    e2e.push((
        "train_efficiency",
        if trained_sum > 0.0 {
            ideal_done / trained_sum
        } else {
            0.0
        },
    ));
    e2e.push(("completed_share", completed as f64 / n));

    let d = |name: &str| delta.get(name);
    let per_job = |name: &str| delta.get(name) / n;
    let events = d("sim.events");
    layer.push(("sim.events_per_job", events / n));
    layer.push((
        "sim.idle_events_per_sim_s",
        idle_events as f64 / IDLE_WINDOW.as_secs_f64(),
    ));
    layer.push(("sim.pending_peak", pending_peak as f64));
    layer.push(("net.rpc_msgs_per_job", per_job("net.rpc_msgs")));
    layer.push(("net.raft_msgs_per_job", per_job("net.raft_msgs")));
    layer.push(("net.watch_msgs_per_job", per_job("net.watch_msgs")));
    layer.push((
        "net.dropped_share",
        d("net.dropped") / d("net.sent").max(1.0),
    ));
    layer.push((
        "raft.msgs_per_commit",
        d("net.raft_msgs") / d("raft.commits").max(1.0),
    ));
    layer.push(("raft.commits_per_job", per_job("raft.commits")));
    layer.push(("raft.elections", d("raft.elections")));
    layer.push(("etcd.proposals_per_job", per_job("etcd.proposals")));
    layer.push(("etcd.reads_per_job", per_job("etcd.reads")));
    layer.push(("etcd.watch_events_per_job", per_job("etcd.watch_events")));
    layer.push((
        "etcd.watch_fanout_examined_per_job",
        per_job("etcd.fanout_examined"),
    ));
    layer.push(("etcd.lease_expirations", d("etcd.lease_expirations")));
    layer.push(("docstore.ops_per_job", per_job("docstore.ops")));
    layer.push((
        "docstore.docs_examined_per_job",
        per_job("docstore.docs_examined"),
    ));
    layer.push((
        "docstore.sweep_docs_per_job",
        per_job("docstore.sweep_docs"),
    ));
    layer.push(("objstore.puts_per_job", per_job("objstore.puts")));
    layer.push(("objstore.gets_per_job", per_job("objstore.gets")));
    layer.push(("objstore.bytes_per_job", per_job("objstore.bytes")));
    layer.push(("sharedfs.writes_per_job", per_job("sharedfs.writes")));
    layer.push(("sharedfs.reads_per_job", per_job("sharedfs.reads")));
    layer.push((
        "sharedfs.bytes_written_per_job",
        per_job("sharedfs.bytes_written"),
    ));
    layer.push(("kube.events_per_job", per_job("kube.events")));
    layer.push((
        "kube.sched_wait_mean_sim_s",
        d("kube.sched_wait_s") / d("kube.scheduled").max(1.0),
    ));
    layer.push((
        "kube.kick_pending_examined_per_job",
        per_job("kube.kick_examined"),
    ));
    layer.push(("kube.pod_restarts", d("kube.pod_restarts")));
    layer.push(("gpu.ideal_train_s_per_job", ideal_per_job));
    layer.push(("core.api.requests_per_job", per_job("core.api.requests")));
    layer.push(("core.api.queued_share", per_job("core.api.queued")));

    push_dist(
        &mut layer,
        "core.fairness.admission_wait_p50_sim_s",
        Some("core.fairness.admission_wait_tail_sim_s"),
        admission,
    );
    // Peak number of jobs held in the fair queue, swept over the
    // (submitted, admitted) intervals of the jobs that waited.
    queue_edges.sort_unstable();
    let (mut depth, mut depth_peak) = (0i64, 0i64);
    for (_, e) in &queue_edges {
        depth += e;
        depth_peak = depth_peak.max(depth);
    }
    layer.push(("core.fairness.queue_depth_peak", depth_peak as f64));
    // Spread of per-tenant p90 turnaround (tenants with ≥ 5 jobs).
    let tenant_p90: Vec<f64> = per_tenant
        .into_values()
        .filter(|v| v.len() >= 5)
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            percentile(&v, 0.9)
        })
        .collect();
    let spread = match (
        tenant_p90.iter().copied().reduce(f64::max),
        tenant_p90.iter().copied().reduce(f64::min),
    ) {
        (Some(max), Some(min)) if min > 0.0 => max / min,
        _ => 0.0,
    };
    layer.push(("core.fairness.tenant_tail_spread", spread));
    push_dist(
        &mut layer,
        "core.lcm.pending_to_deploying_p50_sim_s",
        None,
        pickup,
    );
    layer.push(("core.lcm.redeploys", d("core.lcm.redeploys")));
    layer.push((
        "core.lcm.shard_acquisitions",
        d("core.lcm.shard_acquisitions"),
    ));
    layer.push(("core.lcm.shard_losses", d("core.lcm.shard_losses")));
    layer.push((
        "core.lcm.keepalive_failures",
        d("core.lcm.keepalive_failures"),
    ));
    push_dist(
        &mut layer,
        "core.guardian.deploy_p50_sim_s",
        Some("core.guardian.deploy_tail_sim_s"),
        deploy,
    );
    layer.push((
        "core.guardian.deploy_attempts_per_job",
        per_job("core.guardian.deploy_attempts"),
    ));
    layer.push(("core.guardian.rollbacks", d("core.guardian.rollbacks")));
    push_dist(
        &mut layer,
        "core.learner.processing_p50_sim_s",
        None,
        processing,
    );
    layer.push(("core.learner.restarts", d("core.learner.restarts")));
    layer.push((
        "core.learner.checkpoint_writes_per_job",
        per_job("core.learner.checkpoint_writes"),
    ));
    layer.push((
        "core.learner.checkpoint_restores",
        d("core.learner.checkpoint_restores"),
    ));
    push_dist(&mut layer, "core.helper.storing_p50_sim_s", None, storing);
    layer.push(("core.invariants.violations", violations as f64));
    layer.push(("obs.series_count", end.get("obs.series")));

    // Faults: recovery is fault → component whole again, over the faults
    // that have a recovery of their own to measure.
    let faults = faults.borrow();
    let timed: Vec<&FaultRecord> = faults.iter().filter(|f| f.timed).collect();
    let mut recoveries: Vec<f64> = timed
        .iter()
        .filter_map(|f| f.recovered_us.map(|r| secs(f.at_us, r)))
        .collect();
    recoveries.sort_by(f64::total_cmp);
    layer.push(("faults.injected", faults.len() as f64));
    layer.push((
        "faults.recovered_share",
        if timed.is_empty() {
            0.0
        } else {
            recoveries.len() as f64 / timed.len() as f64
        },
    ));
    layer.push((
        "faults.recovery_p50_sim_s",
        if recoveries.is_empty() {
            0.0
        } else {
            percentile(&recoveries, 0.5)
        },
    ));
    layer.push((
        "faults.recovery_max_sim_s",
        recoveries.last().copied().unwrap_or(0.0),
    ));
    if h.trace.is_some() && rep == 0 {
        for f in faults.iter() {
            job_spans.push(JobSpan {
                job: format!("fault/{}", f.kind),
                phase: "recovering",
                start_us: f.at_us,
                end_us: f.recovered_us.unwrap_or(f.at_us),
            });
        }
    }

    let ops = OpCounts {
        sim_events: events,
        rpc_calls: d("net.rpc_msgs") / 2.0,
        raft_commits: d("raft.commits"),
        etcd_puts: d("etcd.proposals"),
        docstore_updates: d("docstore.updates"),
        docstore_finds: d("docstore.finds"),
        docstore_sweeps: d("docstore.sweeps"),
        kube_pods: d("kube.scheduled"),
        // Every kernel event and every counted operation bumps at most a
        // handful of series; the registry does not count its own
        // mutations, so the sum of the counted operations stands in.
        obs_incs: d("etcd.proposals")
            + d("etcd.reads")
            + d("etcd.watch_events")
            + d("docstore.ops")
            + d("kube.events")
            + d("core.api.requests"),
    };

    let t_exp = h.clock.now_ns();
    std::hint::black_box(platform.expose_metrics().len());
    let expose_ns = h.clock.now_ns() - t_exp;
    drop(log);
    drop(faults);
    drop(platform);
    drop(sim);
    h.close(collect_span);
    h.close(rep_span);

    Rep {
        setup,
        measured,
        total_code_ns: (h.clock.now_ns() - cpu0).saturating_sub(setup.ref_ns + measured.ref_ns),
        expose_ns,
        out: SimOutputs {
            attempted: schedule.len() as u64,
            failed,
            e2e,
            layer,
            notes,
            problems,
            events: events as u64,
            ops,
            job_spans,
        },
    }
}

/// Pushes the median (and tail) of a per-layer sample set; a layer that
/// saw no samples on this workload reports 0.
fn push_dist(
    out: &mut Vec<(&'static str, f64)>,
    p50: &'static str,
    tail: Option<&'static str>,
    samples: Vec<f64>,
) {
    let d = dist(samples);
    out.push((p50, d.as_ref().map_or(0.0, |d| d.p50)));
    if let Some(tail) = tail {
        out.push((tail, d.as_ref().map_or(0.0, |d| d.tail)));
    }
}

fn phase_name(s: JobStatus) -> &'static str {
    match s {
        JobStatus::Queued => "queued",
        JobStatus::Pending => "pending",
        JobStatus::Deploying => "deploying",
        JobStatus::Processing => "processing",
        JobStatus::Storing => "storing",
        JobStatus::Completed => "completed",
        JobStatus::Failed => "failed",
        JobStatus::Killed => "killed",
    }
}
