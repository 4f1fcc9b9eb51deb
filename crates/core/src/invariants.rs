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
//! 5. **At-most-one-owner** — with the LCM replicated, the leader key
//!    (the one shard's owner key) is never held by two live replicas and
//!    no job is swept by anyone but its holder (double drive), and the
//!    key never stays unheld longer than the lease TTL plus a takeover
//!    bound while any replica is alive to claim it (orphaned key). Read
//!    from the [`crate::ownership::ShardTracker`] ledger, which the
//!    replicas' own marks feed; violations carry the synthetic job id
//!    `shard-0` since they concern the leadership, not one job, and the
//!    report renders the key's timeline. The rule ids
//!    (`shard-single-owner`, `shard-orphaned`) name the one shard.
//! 6. **No starvation** — a QUEUED job must not wait past the admission
//!    bound while its tenant has quota headroom for it AND the tenant
//!    saw no admission for a full bound (the weighted fair queue
//!    guarantees progress whenever capacity exists; headroom alone is
//!    not enough evidence, since a snapshot can land in the short window
//!    between a completion and the next arbiter sweep — but headroom
//!    plus a tenant whose `admitted_us` stamps all predate the bound
//!    means the arbiter is broken or its leader failed over without
//!    takeover). A job whose `gpus` is unreadable is skipped: the LCM
//!    counts it in `dlaas_lcm_malformed_records_total{gpus}` and never
//!    admits it. The periodic [`InvariantMonitor`] additionally
//!    requires a starvation candidate to persist across two consecutive
//!    passes before recording it.
//! 7. **No open job under a finished Guardian** — a Guardian K8s Job
//!    never reads `Complete` while its job document is non-terminal (a
//!    terminal write that was sent is not yet one that was stored).
//! 8. **Well-formed stamps** — the stamps rules 1, 4 and 6 clock a job by
//!    (`submitted_us`, `admitted_us`, and a terminal job's latest terminal
//!    history entry's `t_us`) are never negative: a malformed stamp is
//!    reported, not wrapped to a far-future instant that would exempt the
//!    job from those rules.
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

use dlaas_docstore::Value;
use dlaas_kube::{labels, JobStatus as KubeJobStatus};
use dlaas_sim::{Sim, SimDuration, SimTime, TimerHandle};

use crate::config::{self, CoreConfig};
use crate::job::{JobId, JobStatus};
use crate::marks;
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
    /// `shard-orphaned`, `tenant-starved`, `guardian-done-job-open`,
    /// `stamp-valid`).
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
    /// Job documents the pass read: those that changed since the
    /// checker's previous pass — every one, for a checker that has seen
    /// nothing yet.
    pub docs_read: usize,
    /// Every violation found, in job order.
    pub violations: Vec<InvariantViolation>,
    /// The timeline of every job (or the leader key) with a violation, once each,
    /// rendered — empty when the report is clean or the simulation's
    /// trace is off.
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

/// What the checker keeps of one job document between passes, re-derived
/// whenever the document changes: the fields the time-dependent rules
/// (terminal bound, GC grace, starvation, the Guardian's exit) weigh
/// against the clock on every pass, and the verdict of the rules that
/// depend on the document alone (history, attempts, stamps).
struct JobSummary {
    /// The document's tenant, as an index into a pass's [`TenantLoad`]
    /// (see [`InvariantChecker::tenants`]).
    tenant: Option<usize>,
    status: Option<JobStatus>,
    /// The stored GPU demand; `None` when unreadable (the LCM counts such
    /// a QUEUED job malformed and never admits it).
    gpus: Option<u32>,
    admitted: Option<SimTime>,
    submitted: Option<SimTime>,
    terminal_since: Option<SimTime>,
    /// The job's Guardian K8s Job, which rule 7 looks up on every pass —
    /// named while the job is admitted and not terminal, when it can be
    /// open under a finished Guardian.
    guardian: Option<String>,
    /// What rules 2 (history monotonicity), 3 (bounded retries) and 8
    /// (well-formed stamps) found, in that order: `(invariant, detail)`.
    findings: Vec<(&'static str, String)>,
}

impl JobSummary {
    /// The summary of job `id`'s document `doc` on a platform that allows
    /// `max_attempts` deploy attempts; `guardian` is the name the job's
    /// previous summary held, if any, kept rather than built again.
    fn of(
        id: &str,
        doc: &Value,
        tenants: &mut BTreeMap<String, usize>,
        max_attempts: u32,
        guardian: Option<String>,
    ) -> Self {
        let micros = |path| doc.path(path).and_then(Value::as_i64);
        let mut findings: Vec<_> = check_history(doc)
            .into_iter()
            .map(|detail| ("history-monotone", detail))
            .collect();
        // 3. Bounded retries.
        let attempts = micros("attempts").unwrap_or(0);
        if attempts > i64::from(max_attempts) {
            findings.push((
                "attempts-bound",
                format!("attempts={attempts} exceeds deploy_max_attempts={max_attempts}"),
            ));
        }
        let status = JobStatus::of(doc);
        let terminal = status.is_some_and(JobStatus::is_terminal);
        // 8. A stamp the rules clock a job by must be a time: a negative
        //    one is malformed, reported here, and clocks nothing.
        let mut stamp = |what: &str, us: Option<i64>| {
            let us = us?;
            let at = u64::try_from(us).ok().map(SimTime::from_micros);
            if at.is_none() {
                findings.push(("stamp-valid", format!("{what}={us} is negative")));
            }
            at
        };
        let submitted = stamp("submitted_us", micros("submitted_us"));
        let admitted = stamp("admitted_us", micros("admitted_us"));
        let terminal_since = if terminal {
            stamp("terminal history t_us", terminal_stamp(doc))
        } else {
            None
        };
        let tenant = doc.path("tenant").and_then(Value::as_str);
        JobSummary {
            tenant: tenant.map(|t| match tenants.get(t) {
                Some(index) => *index,
                None => {
                    let index = tenants.len();
                    tenants.insert(t.to_owned(), index);
                    index
                }
            }),
            gpus: crate::api::doc_gpus(doc),
            status,
            admitted,
            submitted,
            terminal_since,
            guardian: (!terminal && status != Some(JobStatus::Queued))
                .then(|| guardian.unwrap_or_else(|| paths::guardian_job(&JobId::new(id)))),
            findings,
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

/// The invariant checker. It reads the jobs collection's change feed
/// above a watermark, as the LCM does, and keeps per job id a summary of
/// the document, not the document: a pass reads the documents that
/// changed since the previous one and glances at every summary, never at
/// a document that did not change — and it holds none, so the store
/// edits every document in place. A checker that has seen nothing yet —
/// [`check_with`] — is the same code with an empty memory (watermark 0:
/// the whole feed), so what a pass reports never depends on what the
/// checker remembers.
#[derive(Default)]
pub struct InvariantChecker {
    jobs: BTreeMap<String, JobSummary>,
    /// Every tenant id a job document has named, numbered in order of
    /// first sight: summaries and [`TenantLoad`] go by the number, so the
    /// per-pass walk over all jobs compares no strings.
    tenants: BTreeMap<String, usize>,
    /// The jobs collection's change-feed position the summaries are at.
    watermark: u64,
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
        let docs_read = self.refresh(platform);
        let leaks = self.leaks(now, platform, bounds);
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
            for (invariant, detail) in &job.findings {
                violated(invariant, detail.clone());
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
                    //    while its tenant has headroom for it. A job whose
                    //    demand is unreadable has no headroom to weigh: the
                    //    LCM counts it malformed and never admits it.
                    let waited = now.saturating_duration_since(job.submitted.unwrap_or(now));
                    if let Some(gpus) = job.gpus.filter(|_| waited > bounds.admission_within) {
                        let load = load.get_or_insert_with(|| self.tenant_load(platform));
                        let tenant = job.tenant.map(|index| &load[index]);
                        let headroom = tenant.is_some_and(|t| {
                            t.max_gpus
                                .is_some_and(|max| max == 0 || t.held + gpus <= max)
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
                            let name = self
                                .tenants
                                .iter()
                                .find(|(_, index)| Some(**index) == job.tenant)
                                .map_or("", |(name, _)| name.as_str());
                            violated(
                                "tenant-starved",
                                format!(
                                    "QUEUED for {waited} despite quota headroom and no admission in {} (tenant {name}, {} gpus)",
                                    bounds.admission_within,
                                    gpus
                                ),
                            );
                        }
                    }
                }
                status => {
                    // 7. A Guardian exits 0 only over a terminal document:
                    //    a Complete K8s Job is never restarted.
                    let guardian = job.guardian.as_deref().unwrap_or_default();
                    if platform.kube().job_status(guardian) == Some(KubeJobStatus::Complete) {
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
                    let started = job.admitted.or(job.submitted).unwrap_or(now);
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

        // 5. At-most-one-owner over the LCM leader key.
        check_shards(sim, platform, &mut violations);

        // Each subject's timeline once; the leader key's marks are made
        // on its number, 0.
        let mut timelines = String::new();
        let mut seen = BTreeSet::new();
        for job in violations
            .iter()
            .map(|v| &v.job)
            .filter(|j| seen.insert(*j))
        {
            let timeline = if job.as_str() == LEADER_SUBJECT {
                sim.trace().of(0)
            } else {
                sim.trace().of(job.as_str())
            };
            if timeline.marks().next().is_some() {
                timelines.push_str(&format!("timeline of {job}:\n{timeline}"));
            }
        }

        InvariantReport {
            checked_at: now,
            jobs_checked: self.jobs.len(),
            docs_read,
            violations,
            timelines,
        }
    }

    /// Brings the summaries up to date with the store through its change
    /// feed: each document that changed since the last pass is read once
    /// and summarised again, each removed one forgotten, and nothing else
    /// is looked at. Returns the number of documents read.
    fn refresh(&mut self, platform: &DlaasPlatform) -> usize {
        let (jobs, tenants) = (&mut self.jobs, &mut self.tenants);
        let max_attempts = platform.handles().config.deploy_max_attempts;
        let mut read = 0;
        self.watermark = platform.for_each_job_change(self.watermark, |id, doc| match doc {
            Some(doc) => {
                read += 1;
                match jobs.get_mut(id) {
                    Some(job) => {
                        let guardian = job.guardian.take();
                        *job = JobSummary::of(id, doc, tenants, max_attempts, guardian);
                    }
                    None => {
                        let job = JobSummary::of(id, doc, tenants, max_attempts, None);
                        jobs.insert(id.to_owned(), job);
                    }
                }
            }
            None => {
                jobs.remove(id);
            }
        });
        read
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
                // An unreadable demand holds 0, as the LCM's reader has it.
                tenant.held += job.gpus.unwrap_or(0);
            }
            if let Some(at) = job.admitted {
                tenant.last_admitted_us = tenant.last_admitted_us.max(at.as_micros());
            }
        }
        load
    }
}

/// The subject a leadership violation is reported under: the one
/// shard's.
const LEADER_SUBJECT: &str = "shard-0";

/// 5. At-most-one-owner: every recorded ownership conflict is a
///    violation, and — while at least one LCM pod exists to claim it — so
///    is the leader key unheld past the lease TTL plus two scan periods
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
            job: JobId::new(LEADER_SUBJECT),
            invariant: "shard-single-owner",
            detail: format!("{} (at {:?})", c.detail, c.at),
        });
    }
    if lcm_alive {
        let bound = config::LCM_LEASE_TTL + config::LCM_SCAN * 2;
        if let Some(waited) = tracker.orphaned(sim.now(), bound) {
            out.push(InvariantViolation {
                job: JobId::new(LEADER_SUBJECT),
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

/// The stamp (µs) of the job's latest terminal history entry: when it
/// entered its terminal state.
fn terminal_stamp(doc: &Value) -> Option<i64> {
    let history = doc.path("history")?.as_arr()?;
    history
        .iter()
        .rev()
        .find(|e| JobStatus::of(e).is_some_and(JobStatus::is_terminal))
        .and_then(|e| e.path("t_us"))
        .and_then(Value::as_i64)
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
                    if let Some(rule) = marks::invariant(v.invariant) {
                        sim.mark(rule, v.job.as_str(), 0);
                    }
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
    use dlaas_docstore::{obj, Update};

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
        assert_eq!(terminal_stamp(&doc), Some(99));
        assert_eq!(
            terminal_stamp(&doc_with_history(vec![("PENDING", 1)])),
            None
        );
        // A summary clocks a terminal job by it, and an open one by none.
        let mut doc = doc;
        Update::set("status", "KILLED").apply(&mut doc);
        let summary = JobSummary::of("j", &doc, &mut BTreeMap::new(), 3, None);
        assert_eq!(summary.terminal_since, Some(SimTime::from_micros(99)));
        assert!(summary.findings.is_empty() && summary.guardian.is_none());
        Update::set("status", "PROCESSING").apply(&mut doc);
        let summary = JobSummary::of("j", &doc, &mut BTreeMap::new(), 3, None);
        assert_eq!(summary.terminal_since, None);
        assert_eq!(summary.guardian.as_deref(), Some("guardian-j"));
    }

    #[test]
    fn a_negative_stamp_is_a_finding_and_clocks_nothing() {
        // Regression: `us as u64` made -1 a far-future instant, which
        // exempted the job from every rule clocked by that stamp.
        let doc = obj! {
            "_id" => "j",
            "status" => "KILLED",
            "submitted_us" => -3,
            "admitted_us" => 5,
            "history" => vec![obj! {"status" => "KILLED", "t_us" => -1}],
        };
        let summary = JobSummary::of("j", &doc, &mut BTreeMap::new(), 3, None);
        assert_eq!(
            (summary.submitted, summary.admitted, summary.terminal_since),
            (None, Some(SimTime::from_micros(5)), None)
        );
        assert_eq!(
            summary.findings,
            [
                ("stamp-valid", "submitted_us=-3 is negative".to_owned()),
                (
                    "stamp-valid",
                    "terminal history t_us=-1 is negative".to_owned()
                ),
            ]
        );
    }

    #[test]
    fn report_formatting_and_assert() {
        let clean = InvariantReport {
            checked_at: SimTime::from_micros(5),
            jobs_checked: 2,
            docs_read: 2,
            violations: vec![],
            timelines: String::new(),
        };
        assert!(clean.is_clean());
        clean.assert_clean();
        assert!(clean.to_string().contains("all invariants hold"));

        let dirty = InvariantReport {
            checked_at: SimTime::from_micros(5),
            jobs_checked: 2,
            docs_read: 0,
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
