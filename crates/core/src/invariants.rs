//! Platform-wide invariant checker.
//!
//! The paper's dependability claims (§II, §IV) boil down to properties
//! that must hold over *any* execution of the platform, under any fault
//! schedule the substrates can produce. This module states them as code:
//!
//! 1. **Liveness** — every accepted job reaches a terminal state
//!    (COMPLETED / FAILED / KILLED) within a bound ("jobs make progress
//!    even as components crash", §IV).
//! 2. **Status monotonicity** — the per-job status history only moves
//!    forward through the lifecycle ranks and never leaves a terminal
//!    state ("users expect periodic and accurate status updates", §II);
//!    timestamps are non-decreasing and exactly one terminal entry ends
//!    the history.
//! 3. **Bounded retries** — the persisted `attempts` counter never
//!    exceeds `deploy_max_attempts` ("this process will be repeated for a
//!    (configurable) number of times", §III-d).
//! 4. **No leaks** — once a job has been terminal for longer than the GC
//!    grace period, no pods, NFS volume, network policies or etcd keys of
//!    that job remain ("garbage collection of the job", §III-c).
//! 5. **At-most-one-owner** — with the LCM replicated, no job-space
//!    shard is ever swept by two live replicas (double drive), and no
//!    shard stays unowned longer than the lease TTL plus a takeover
//!    bound while any replica is alive to adopt it (orphaned shard).
//!    Read from the [`crate::ownership::ShardTracker`] ledger the
//!    replicas report into; violations carry a synthetic `shard-N` job
//!    id since they concern the partition, not one job.
//! 6. **No starvation** — a QUEUED job must not wait past the admission
//!    bound while its tenant has quota headroom for it AND the tenant
//!    saw no admission for a full bound (the weighted fair queue
//!    guarantees progress whenever capacity exists; headroom alone is
//!    not enough evidence, since a snapshot can land in the short window
//!    between a completion and the next arbiter sweep — but headroom
//!    plus a tenant whose `admitted_us` stamps all predate the bound
//!    means the arbiter is broken or its shard-0 owner failed over
//!    without takeover). The periodic [`InvariantMonitor`] additionally
//!    requires a starvation candidate to persist across two consecutive
//!    passes before recording it.
//! 7. **No open job under a finished Guardian** — a Guardian K8s Job
//!    never reads `Complete` while its job document is non-terminal (a
//!    terminal write that was sent is not yet one that was stored).
//!
//! [`check_all`] evaluates every invariant against the current state of a
//! [`DlaasPlatform`]; [`InvariantMonitor`] re-checks periodically inside
//! a running simulation and surfaces *new* violations as a mark on the
//! job's timeline and in the [`metrics::INVARIANT_VIOLATIONS`] counter.
//! The fault matrix (dlaas-bench `fault_matrix`) runs the checker after
//! every fault-injection trial.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use dlaas_docstore::{Doc, Value};
use dlaas_kube::{labels, JobStatus as KubeJobStatus};
use dlaas_sim::{Sim, SimDuration, SimTime, TimerHandle};

use crate::config::{self, CoreConfig};
use crate::job::{JobId, JobStatus};
use crate::metrics;
use crate::paths;
use crate::platform::DlaasPlatform;
use crate::tenant::Tenant;

/// Time bounds used by the checker.
#[derive(Debug, Clone, Copy)]
pub struct InvariantBounds {
    /// How long an accepted job may stay non-terminal before the liveness
    /// invariant trips. Must comfortably exceed the longest legitimate
    /// job in the workload (deploy retries included).
    pub terminal_within: SimDuration,
    /// Grace period after a job turns terminal before leak checks apply
    /// (the LCM scan needs at least one period to garbage-collect).
    pub gc_grace: SimDuration,
    /// How long a QUEUED job may wait while its tenant has quota
    /// headroom before the starvation invariant trips.
    pub admission_within: SimDuration,
}

impl InvariantBounds {
    /// The platform's bounds: leak checks allow three LCM scan periods of
    /// GC lag; liveness allows the full deploy timeout plus an hour of
    /// training. (They relate constants of [`crate::config`] only; the
    /// argument is what callers, the frozen benchmark among them, pass.)
    pub fn from_config(_cfg: &CoreConfig) -> Self {
        InvariantBounds {
            terminal_within: config::DEPLOY_TIMEOUT + SimDuration::from_hours(1),
            gc_grace: config::LCM_SCAN * 3,
            admission_within: config::ADMISSION_STARVATION_BOUND,
        }
    }
}

/// One violated invariant, with the offending job and what was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The job the violation concerns.
    pub job: JobId,
    /// Stable short name of the invariant (`terminal-bound`,
    /// `history-monotone`, `attempts-bound`, `leak-pods`, `leak-volume`,
    /// `leak-netpol`, `leak-etcd`, `shard-single-owner`,
    /// `shard-orphaned`, `tenant-starved`, `guardian-done-job-open`).
    pub invariant: &'static str,
    /// Human-readable description of the observed state.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] job {}: {}", self.invariant, self.job, self.detail)
    }
}

/// Outcome of one [`check_all`] pass.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Simulation time the check ran.
    pub checked_at: SimTime,
    /// Number of job records examined.
    pub jobs_checked: usize,
    /// Every violation found, in job order.
    pub violations: Vec<InvariantViolation>,
    /// The timeline of every job with a violation, rendered — empty when
    /// the report is clean or the simulation's trace is off.
    pub timelines: String,
}

impl InvariantReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation listed unless the report is clean.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "platform invariants violated at t={:?}: {self}",
            self.checked_at
        );
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "{} jobs checked, all invariants hold", self.jobs_checked)
        } else {
            writeln!(
                f,
                "{} jobs checked, {} violations:",
                self.jobs_checked,
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            f.write_str(&self.timelines)
        }
    }
}

/// Checks every invariant with bounds derived from the platform config.
pub fn check_all(sim: &Sim, platform: &DlaasPlatform) -> InvariantReport {
    let bounds = InvariantBounds::from_config(&platform.handles().config);
    check_with(sim, platform, &bounds)
}

/// Checks every invariant with explicit [`InvariantBounds`]: one pass of
/// an [`InvariantChecker`] that remembers nothing.
pub fn check_with(
    sim: &Sim,
    platform: &DlaasPlatform,
    bounds: &InvariantBounds,
) -> InvariantReport {
    InvariantChecker::default().check(sim, platform, bounds)
}

/// What the checker keeps of one job document between passes: the
/// fields the time-dependent rules (terminal bound, GC grace, starvation)
/// weigh against the clock on every pass, and the verdict of the rules
/// that depend on the document alone (history, attempts).
struct JobSummary {
    /// The document the summary was read from. Holding it is what makes
    /// `Rc::ptr_eq` a sound test for "unchanged": the store edits a
    /// document where it is only while nobody else holds it, so while the
    /// summary does, an update builds a successor and swaps the `Rc` —
    /// the *same* allocation handed back means the same contents — and
    /// the allocation cannot be freed and its address reused by another
    /// document.
    doc: Doc,
    /// The pass that last found the id in the store.
    pass: u64,
    /// The document's tenant, as an index into a pass's [`TenantLoad`]
    /// (see [`InvariantChecker::tenants`]).
    tenant: Option<usize>,
    status: Option<JobStatus>,
    gpus: u32,
    admitted_us: Option<i64>,
    submitted_us: Option<i64>,
    attempts: i64,
    terminal_since: Option<SimTime>,
    /// What rule 2 (history monotonicity) found, in history order.
    history: Vec<String>,
}

impl JobSummary {
    fn of(doc: &Doc, pass: u64, tenants: &mut BTreeMap<String, usize>) -> Self {
        let micros = |path| doc.path(path).and_then(Value::as_i64);
        let tenant = doc.path("tenant").and_then(Value::as_str);
        JobSummary {
            doc: doc.clone(),
            pass,
            tenant: tenant.map(|t| match tenants.get(t) {
                Some(index) => *index,
                None => {
                    let index = tenants.len();
                    tenants.insert(t.to_owned(), index);
                    index
                }
            }),
            gpus: crate::api::doc_gpus(doc),
            status: JobStatus::of(doc),
            admitted_us: micros("admitted_us"),
            submitted_us: micros("submitted_us"),
            attempts: micros("attempts").unwrap_or(0),
            terminal_since: terminal_since(doc),
            history: check_history(doc),
        }
    }

    /// `true` once the job has been terminal for longer than the GC
    /// grace: from here on nothing of it may remain (rule 4).
    fn past_gc_grace(&self, now: SimTime, bounds: &InvariantBounds) -> bool {
        self.status.is_some_and(JobStatus::is_terminal)
            && self
                .terminal_since
                .is_some_and(|since| now.saturating_duration_since(since) > bounds.gc_grace)
    }
}

/// What is left of one job that should have been collected.
#[derive(Default)]
struct Leaked {
    pods: Vec<String>,
    volume: bool,
    netpol: bool,
    etcd_keys: Vec<String>,
}

/// What the starvation rule (6) weighs a long wait against, per tenant
/// the job documents name: the tenant's quota, the GPUs its admitted
/// (non-QUEUED, non-terminal) jobs hold, and its most recent admission
/// (any job with an `admitted_us` stamp, terminal included: evidence the
/// arbiter is making progress for that tenant).
type TenantLoad = Vec<TenantState>;

#[derive(Clone, Default)]
struct TenantState {
    /// `max_gpus` of the tenant's record (0 = unlimited); `None` when no
    /// such tenant is registered.
    max_gpus: Option<u32>,
    held: u32,
    last_admitted_us: u64,
}

/// The invariant checker. It keeps, per job id, a summary of the
/// document it last saw, and re-derives a summary only when the store
/// hands back a different document: a pass costs what changed since the
/// previous one plus a glance at every job, not a parse of every
/// document ever stored. A checker that has seen nothing yet —
/// [`check_with`] — is the same code with an empty memory, so what a
/// pass reports never depends on what the checker remembers.
#[derive(Default)]
pub struct InvariantChecker {
    jobs: BTreeMap<String, JobSummary>,
    /// Every tenant id a job document has named, numbered in order of
    /// first sight: summaries and [`TenantLoad`] go by the number, so the
    /// per-pass walk over all jobs compares no strings.
    tenants: BTreeMap<String, usize>,
    pass: u64,
}

impl InvariantChecker {
    /// Evaluates every invariant against the platform's current state.
    pub fn check(
        &mut self,
        sim: &Sim,
        platform: &DlaasPlatform,
        bounds: &InvariantBounds,
    ) -> InvariantReport {
        let now = sim.now();
        let jobs_checked = self.refresh(platform);
        let leaks = self.leaks(now, platform, bounds);
        let max_attempts = platform.handles().config.deploy_max_attempts;
        let mut load: Option<TenantLoad> = None;
        let mut violations = Vec::new();

        for (id, job) in &self.jobs {
            let mut violated = |invariant, detail| {
                violations.push(InvariantViolation {
                    job: JobId::new(id.as_str()),
                    invariant,
                    detail,
                });
            };
            for detail in &job.history {
                violated("history-monotone", detail.clone());
            }

            // 3. Bounded retries.
            if job.attempts > max_attempts as i64 {
                violated(
                    "attempts-bound",
                    format!(
                        "attempts={} exceeds deploy_max_attempts={max_attempts}",
                        job.attempts
                    ),
                );
            }

            match job.status {
                Some(s) if s.is_terminal() => {
                    // 4. No leaks, once GC has had a fair chance.
                    let Some(left) = leaks.get(id.as_str()) else {
                        continue;
                    };
                    if !left.pods.is_empty() {
                        violated("leak-pods", format!("pods still present: {:?}", left.pods));
                    }
                    if left.volume {
                        let volume = paths::volume(&JobId::new(id.as_str()));
                        violated("leak-volume", format!("volume {volume} still present"));
                    }
                    if left.netpol {
                        let netpol = paths::network_policy(&JobId::new(id.as_str()));
                        violated(
                            "leak-netpol",
                            format!("network policy {netpol} still present"),
                        );
                    }
                    if !left.etcd_keys.is_empty() {
                        violated(
                            "leak-etcd",
                            format!("etcd keys still present: {:?}", left.etcd_keys),
                        );
                    }
                }
                Some(JobStatus::Queued) => {
                    // 6. No starvation: the fair queue must admit this job
                    //    while its tenant has headroom for it.
                    let since = job
                        .submitted_us
                        .map(|us| SimTime::from_micros(us as u64))
                        .unwrap_or(now);
                    let waited = now.saturating_duration_since(since);
                    if waited > bounds.admission_within {
                        let load = load.get_or_insert_with(|| self.tenant_load(platform));
                        let tenant = job.tenant.map(|index| &load[index]);
                        let headroom = tenant.is_some_and(|t| {
                            t.max_gpus
                                .is_some_and(|max| max == 0 || t.held + job.gpus <= max)
                        });
                        // A busy tenant's queue legitimately backs up for a
                        // long time — that is backlog, not starvation. The
                        // arbiter is broken only if the tenant ALSO made no
                        // admission for a full bound (no `admitted_us`
                        // stamp fresher than the bound).
                        let last_admitted =
                            SimTime::from_micros(tenant.map_or(0, |t| t.last_admitted_us));
                        let stalled =
                            now.saturating_duration_since(last_admitted) > bounds.admission_within;
                        if headroom && stalled {
                            violated(
                                "tenant-starved",
                                format!(
                                    "QUEUED for {waited} despite quota headroom and no admission in {} (tenant {}, {} gpus)",
                                    bounds.admission_within,
                                    job.doc.path("tenant").and_then(Value::as_str).unwrap_or(""),
                                    job.gpus
                                ),
                            );
                        }
                    }
                }
                status => {
                    // 7. A Guardian exits 0 only over a terminal document:
                    //    a Complete K8s Job is never restarted.
                    let guardian = paths::guardian_job(&JobId::new(id.as_str()));
                    if platform.kube().job_status(&guardian) == Some(KubeJobStatus::Complete) {
                        violated(
                            "guardian-done-job-open",
                            format!(
                                "guardian job Complete while the document says {}",
                                status.map_or("?".into(), |s| s.to_string())
                            ),
                        );
                    }
                    // 1. Liveness, clocked from admission so time spent in
                    //    the fair queue does not count against the bound
                    //    (fallback: submission, for docs predating the
                    //    queue).
                    let started = job
                        .admitted_us
                        .or(job.submitted_us)
                        .map(|us| SimTime::from_micros(us as u64))
                        .unwrap_or(now);
                    let age = now.saturating_duration_since(started);
                    if age > bounds.terminal_within {
                        violated(
                            "terminal-bound",
                            format!(
                                "still {} after {:.0?}",
                                status.map(|s| s.to_string()).unwrap_or("?".into()),
                                age
                            ),
                        );
                    }
                }
            }
        }

        // 5. At-most-one-owner over the LCM shard space.
        check_shards(sim, platform, &mut violations);

        let mut timelines = String::new();
        let mut jobs: Vec<&JobId> = violations.iter().map(|v| &v.job).collect();
        jobs.dedup();
        for job in jobs {
            let timeline = sim.trace().of(job.as_str());
            if timeline.marks().next().is_some() {
                timelines.push_str(&format!("timeline of {job}:\n{timeline}"));
            }
        }

        InvariantReport {
            checked_at: now,
            jobs_checked,
            violations,
            timelines,
        }
    }

    /// Brings the summaries up to date with the store: a summary is
    /// re-derived only where the store holds a different document than
    /// last pass. Returns the number of job documents in the store.
    ///
    /// The store and the summaries are both in id order, so the two are
    /// walked side by side: a document the store still holds costs one
    /// pointer comparison, with no lookup and no look at its id.
    fn refresh(&mut self, platform: &DlaasPlatform) -> usize {
        self.pass += 1;
        let (pass, tenants) = (self.pass, &mut self.tenants);
        let mut known = self.jobs.iter_mut().peekable();
        let mut unknown: Vec<(String, JobSummary)> = Vec::new();
        let mut stored = 0;
        platform.for_each_job_document(|id, doc| {
            stored += 1;
            // Summaries of ids the store has dropped are passed over
            // (and, their stamp now stale, retired below).
            while known
                .next_if(|(k, job)| !Rc::ptr_eq(&job.doc, doc) && k.as_str() < id)
                .is_some()
            {}
            match known.next_if(|(k, job)| Rc::ptr_eq(&job.doc, doc) || k.as_str() == id) {
                Some((_, job)) if Rc::ptr_eq(&job.doc, doc) => job.pass = pass,
                Some((_, job)) => *job = JobSummary::of(doc, pass, tenants),
                None => unknown.push((id.to_owned(), JobSummary::of(doc, pass, tenants))),
            }
        });
        self.jobs.extend(unknown);
        if self.jobs.len() != stored {
            self.jobs.retain(|_, job| job.pass == pass);
        }
        stored
    }

    /// 4. What remains of jobs past their GC grace, by job id: found by
    ///    walking the resources that exist (pods carrying a `job` label,
    ///    job volumes, job network policies, keys under `jobs/`) once
    ///    each, not by searching all of them once per finished job.
    fn leaks(
        &self,
        now: SimTime,
        platform: &DlaasPlatform,
        bounds: &InvariantBounds,
    ) -> BTreeMap<String, Leaked> {
        let mut found: BTreeMap<String, Leaked> = BTreeMap::new();
        let past_grace = |job: &&str| {
            self.jobs
                .get(*job)
                .is_some_and(|j| j.past_gc_grace(now, bounds))
        };
        platform.kube().for_each_pod_labelled("job", |pod, job| {
            if past_grace(&job) {
                let left = found.entry(job.to_owned()).or_default();
                left.pods.push(pod.to_owned());
            }
        });
        platform.nfs().for_each_volume(|name| {
            if let Some(job) = paths::volume_job(name).filter(past_grace) {
                found.entry(job.to_owned()).or_default().volume = true;
            }
        });
        platform.kube().for_each_network_policy(|name| {
            if let Some(job) = paths::network_policy_job(name).filter(past_grace) {
                found.entry(job.to_owned()).or_default().netpol = true;
            }
        });
        // The etcd leader's replica is read in place (non-linearizable);
        // during a leaderless window (mid-election) the etcd leak check
        // is skipped — the next pass will see a leader again.
        if let Some(leader) = platform.etcd().leader_id() {
            platform.etcd().with_kv(leader, |kv| {
                for key in kv.keys_with_prefix(paths::ETCD_JOBS_PREFIX) {
                    if let Some(job) = paths::etcd_key_job(key).filter(past_grace) {
                        let left = found.entry(job.to_owned()).or_default();
                        left.etcd_keys.push(key.to_owned());
                    }
                }
            });
        }
        found
    }

    /// Gathers what the starvation rule needs (only passes that find a
    /// job QUEUED past the admission bound pay for it).
    fn tenant_load(&self, platform: &DlaasPlatform) -> TenantLoad {
        let mut load = vec![TenantState::default(); self.tenants.len()];
        for tenant in platform
            .tenant_documents()
            .iter()
            .filter_map(|d| Tenant::from_document(d))
        {
            if let Some(&index) = self.tenants.get(&tenant.id) {
                load[index].max_gpus = Some(tenant.max_gpus);
            }
        }
        for job in self.jobs.values() {
            let Some(tenant) = job.tenant.map(|index| &mut load[index]) else {
                continue;
            };
            if job
                .status
                .is_some_and(|s| !s.is_terminal() && s != JobStatus::Queued)
            {
                tenant.held += job.gpus;
            }
            if let Some(at) = job.admitted_us.and_then(|us| u64::try_from(us).ok()) {
                tenant.last_admitted_us = tenant.last_admitted_us.max(at);
            }
        }
        load
    }
}

/// 5. At-most-one-owner: every recorded ownership conflict is a
///    violation, and — while at least one LCM pod exists to adopt them —
///    so is any shard unowned past the lease TTL plus two scan periods
///    (expiry latency + watch/reconcile takeover).
fn check_shards(sim: &Sim, platform: &DlaasPlatform, out: &mut Vec<InvariantViolation>) {
    let tracker = platform.shard_tracker();
    let lcm_alive = !platform
        .kube()
        .pods_matching(&labels! {"app" => "lcm"})
        .is_empty();
    if !lcm_alive {
        // A full LCM outage is downtime, not takeover latency: restart
        // the orphan clock so recovery is measured from here.
        tracker.note_no_live_replica(sim);
    }
    for c in tracker.conflicts() {
        out.push(InvariantViolation {
            job: JobId::new(format!("shard-{}", c.shard)),
            invariant: "shard-single-owner",
            detail: format!("{} (at {:?})", c.detail, c.at),
        });
    }
    if lcm_alive {
        let bound = config::LCM_LEASE_TTL + config::LCM_SCAN * 2;
        for (shard, waited) in tracker.orphaned(sim.now(), bound) {
            out.push(InvariantViolation {
                job: JobId::new(format!("shard-{shard}")),
                invariant: "shard-orphaned",
                detail: format!("unowned for {waited} (bound {bound})"),
            });
        }
    }
}

/// 2. Status-history monotonicity: what is wrong with the document's
///    history, in history order.
fn check_history(doc: &Value) -> Vec<String> {
    let mut out = Vec::new();
    let Some(history) = doc.path("history").and_then(Value::as_arr) else {
        return out;
    };
    let mut prev: Option<(JobStatus, i64)> = None;
    for (i, entry) in history.iter().enumerate() {
        let status = JobStatus::of(entry);
        let t_us = entry.path("t_us").and_then(Value::as_i64).unwrap_or(0);
        let Some(status) = status else {
            out.push(format!("unparseable history entry #{i}: {entry:?}"));
            return out;
        };
        if let Some((prev_status, prev_t)) = prev {
            if status.rank() < prev_status.rank() {
                out.push(format!(
                    "status went backwards: {prev_status} -> {status} (#{i})"
                ));
            }
            if prev_status.is_terminal() {
                out.push(format!(
                    "entry after terminal {prev_status}: {status} (#{i})"
                ));
            }
            if t_us < prev_t {
                out.push(format!(
                    "timestamps went backwards at #{i}: {prev_t} -> {t_us}"
                ));
            }
        }
        prev = Some((status, t_us));
    }
    out
}

/// When the job entered its terminal state, per the status history.
fn terminal_since(doc: &Value) -> Option<SimTime> {
    let history = doc.path("history")?.as_arr()?;
    history
        .iter()
        .rev()
        .find(|e| JobStatus::of(e).is_some_and(JobStatus::is_terminal))
        .and_then(|e| e.path("t_us"))
        .and_then(Value::as_i64)
        .map(|us| SimTime::from_micros(us as u64))
}

/// Periodic in-simulation checker: runs an [`InvariantChecker`] pass
/// (what [`check_all`] runs once) every `period`,
/// marks each *new* violation on the job's timeline (`invariants`) and
/// counts it in [`metrics::INVARIANT_VIOLATIONS`] (labelled by
/// invariant name). Violations are deduplicated by (job, invariant) so a
/// persistent leak is reported once, not once per period.
pub struct InvariantMonitor {
    seen: Rc<RefCell<BTreeSet<(String, &'static str)>>>,
    timer: TimerHandle,
}

impl InvariantMonitor {
    /// Installs the monitor on `sim` with config-derived bounds; it runs
    /// until cancelled.
    pub fn install(sim: &mut Sim, platform: &DlaasPlatform, period: SimDuration) -> Self {
        let bounds = InvariantBounds::from_config(&platform.handles().config);
        Self::install_with(sim, platform, period, bounds)
    }

    /// Installs the monitor with explicit bounds. Long chaos campaigns
    /// need a liveness bound sized to their workload: a crash can
    /// legitimately destroy all un-checkpointed progress (§III-g), so a
    /// job's time-to-terminal under faults is queueing plus *several*
    /// trainings, not one.
    pub fn install_with(
        sim: &mut Sim,
        platform: &DlaasPlatform,
        period: SimDuration,
        bounds: InvariantBounds,
    ) -> Self {
        let seen: Rc<RefCell<BTreeSet<(String, &'static str)>>> =
            Rc::new(RefCell::new(BTreeSet::new()));
        let seen2 = seen.clone();
        let platform = platform.clone();
        // Starvation candidates from the previous pass: "tenant-starved"
        // is recorded only when the same job is a candidate on two
        // consecutive passes, so a snapshot that races the admission
        // arbiter (headroom freed moments ago) cannot false-positive.
        let mut starved_prev: BTreeSet<String> = BTreeSet::new();
        let mut checker = InvariantChecker::default();
        let timer = dlaas_sim::every(sim, period, move |sim, _n| {
            let report = checker.check(sim, &platform, &bounds);
            let mut starved_now = BTreeSet::new();
            for v in &report.violations {
                if v.invariant == "tenant-starved" {
                    starved_now.insert(v.job.as_str().to_owned());
                    if !starved_prev.contains(v.job.as_str()) {
                        continue;
                    }
                }
                let key = (v.job.as_str().to_owned(), v.invariant);
                if seen2.borrow_mut().insert(key) {
                    sim.mark("invariants", v.job.as_str(), v.invariant, 0);
                    sim.metrics()
                        .counter_series(metrics::INVARIANT_VIOLATIONS, [v.invariant])
                        .inc();
                }
            }
            starved_prev = starved_now;
            true
        });
        InvariantMonitor { seen, timer }
    }

    /// Number of distinct (job, invariant) violations observed so far.
    pub fn violations_seen(&self) -> usize {
        self.seen.borrow().len()
    }

    /// Stops the periodic check.
    pub fn cancel(&self) {
        self.timer.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlaas_docstore::obj;

    fn doc_with_history(entries: Vec<(&str, i64)>) -> Value {
        let history: Vec<Value> = entries
            .into_iter()
            .map(|(s, t)| obj! {"status" => s, "t_us" => t})
            .collect();
        obj! {"_id" => "j", "history" => history}
    }

    #[test]
    fn monotone_history_is_clean() {
        let doc = doc_with_history(vec![
            ("PENDING", 0),
            ("DEPLOYING", 10),
            ("PROCESSING", 20),
            ("STORING", 30),
            ("COMPLETED", 40),
        ]);
        let out = check_history(&doc);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn backwards_status_is_flagged() {
        let doc = doc_with_history(vec![("PROCESSING", 10), ("DEPLOYING", 20)]);
        let out = check_history(&doc);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("PROCESSING -> DEPLOYING"), "{out:?}");
    }

    #[test]
    fn entry_after_terminal_is_flagged() {
        let doc = doc_with_history(vec![("FAILED", 10), ("PROCESSING", 20)]);
        let out = check_history(&doc);
        assert!(out.iter().any(|v| v.contains("after terminal")));
    }

    #[test]
    fn backwards_timestamps_are_flagged() {
        let doc = doc_with_history(vec![("PENDING", 20), ("DEPLOYING", 10)]);
        let out = check_history(&doc);
        assert!(out.iter().any(|v| v.contains("timestamps")));
    }

    #[test]
    fn terminal_since_reads_last_terminal_entry() {
        let doc = doc_with_history(vec![("PENDING", 1), ("KILLED", 99)]);
        assert_eq!(terminal_since(&doc), Some(SimTime::from_micros(99)));
        assert_eq!(
            terminal_since(&doc_with_history(vec![("PENDING", 1)])),
            None
        );
    }

    #[test]
    fn report_formatting_and_assert() {
        let clean = InvariantReport {
            checked_at: SimTime::from_micros(5),
            jobs_checked: 2,
            violations: vec![],
            timelines: String::new(),
        };
        assert!(clean.is_clean());
        clean.assert_clean();
        assert!(clean.to_string().contains("all invariants hold"));

        let dirty = InvariantReport {
            checked_at: SimTime::from_micros(5),
            jobs_checked: 2,
            violations: vec![InvariantViolation {
                job: JobId::new("j"),
                invariant: "leak-pods",
                detail: "pod x".into(),
            }],
            timelines: "timeline of j:\n[0.000s] api j: recorded\n".into(),
        };
        assert!(!dirty.is_clean());
        assert!(dirty.to_string().contains("leak-pods"));
        assert!(dirty.to_string().ends_with("api j: recorded\n"));
        let caught = std::panic::catch_unwind(|| dirty.assert_clean());
        assert!(caught.is_err());
    }
}
