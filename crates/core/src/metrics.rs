//! The metrics the DLaaS control plane emits, declared once.
//!
//! All instrumentation goes through the deterministic registry owned by
//! the simulation kernel ([`dlaas_sim::Sim::metrics`]): one seed produces
//! one byte-identical exposition. Each constant here is the whole
//! contract of one family — name, kind, label keys, help text and, for
//! histograms, buckets — and the only way to record into it
//! (`sim.metrics().counter_series(API_REQUESTS, [kind]).inc()`); it reads
//! as its name wherever a `&str` is expected
//! (`registry.counter_total(API_REQUESTS)`).

use dlaas_obs::{CounterDecl, GaugeDecl, HistogramDecl};

/// Candidate documents examined per metadata-store query, by op
/// (declared by `dlaas-docstore`).
pub use dlaas_docstore::metrics::DOCS_EXAMINED as MONGO_DOCS_EXAMINED;
/// Watch registrations examined per committed etcd command (declared by
/// `dlaas-etcd`, which emits it).
pub use dlaas_etcd::metrics::WATCH_FANOUT_EXAMINED as ETCD_WATCH_FANOUT_EXAMINED;
/// Pods examined per scheduler kick (declared by `dlaas-kube`).
pub use dlaas_kube::metrics::KICK_PENDING_EXAMINED as KUBE_KICK_EXAMINED;

dlaas_obs::declare_metrics! {
    /// User API requests served, by request kind (`submit`, `status`, …).
    pub const API_REQUESTS: &CounterDecl<1> = &CounterDecl::new(
        "dlaas_api_requests_total",
        ["kind"],
        "user API requests served, by kind",
    );
    /// Job submissions by outcome (`accepted`, `rejected_quota`, …).
    pub const API_SUBMISSIONS: &CounterDecl<1> = &CounterDecl::new(
        "dlaas_api_submissions_total",
        ["outcome"],
        "job submissions, by outcome",
    );
    /// Requests that failed authentication (unknown API key).
    pub const API_AUTH_FAILURES: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_api_auth_failures_total",
        [],
        "requests with an unknown API key",
    );

    /// Applied job status transitions, by target status.
    pub const JOB_TRANSITIONS: &CounterDecl<1> = &CounterDecl::new(
        "dlaas_job_status_transitions_total",
        ["to"],
        "applied job status transitions, by target status",
    );

    /// Guardian K8s Jobs created by the LCM (deploy requests + scan).
    pub const LCM_GUARDIANS_CREATED: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_lcm_guardians_created_total",
        [],
        "guardian K8s Jobs created by the LCM",
    );
    /// Full resource teardowns executed (kill, GC, rollback).
    pub const LCM_TEARDOWNS: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_lcm_teardowns_total",
        [],
        "full job-resource teardowns executed",
    );
    /// Stranded PENDING jobs re-deployed by the backstop scan.
    pub const LCM_SCAN_REDEPLOYS: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_lcm_scan_redeploys_total",
        [],
        "stranded PENDING jobs re-deployed by the scan",
    );
    /// Jobs the scan declared FAILED, by reason.
    pub const LCM_SCAN_FAILURES: &CounterDecl<1> = &CounterDecl::new(
        "dlaas_lcm_scan_failures_total",
        ["reason"],
        "jobs the scan declared FAILED, by reason",
    );
    /// Terminal jobs whose leftovers the scan garbage-collected.
    pub const LCM_SCAN_GC: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_lcm_scan_gc_total",
        [],
        "terminal-job leftovers garbage-collected by the scan",
    );
    /// Jobs on an LCM replica's watchlist after its latest sweep, by pod:
    /// on the leader, every queued and admitted job and every finished job
    /// it has not yet confirmed collected; on a standby, 0 (it keeps no
    /// watchlist, and a lost leadership sets it back to 0).
    pub const LCM_WATCHLIST: &GaugeDecl<1> = &GaugeDecl::new(
        "dlaas_lcm_watchlist_entries",
        ["pod"],
        "jobs on an LCM replica's watchlist after its latest sweep",
    );
    /// Job documents the LCM skipped as malformed (e.g. negative timestamps),
    /// by field. Platform-written fields, so nonzero means store corruption.
    pub const LCM_MALFORMED_RECORDS: &CounterDecl<1> = &CounterDecl::new(
        "dlaas_lcm_malformed_records_total",
        ["field"],
        "malformed job documents skipped by the LCM, by field",
    );
    /// Claims of the LCM leader key won via CAS, by trigger (`watch` for
    /// expiry-driven takeover, `reconcile` for the periodic backstop). The
    /// name is the one shard's; the benchmark package reads it.
    pub const LCM_SHARD_ACQUISITIONS: &CounterDecl<1> = &CounterDecl::new(
        "dlaas_lcm_shard_acquisitions_total",
        ["trigger"],
        "LCM shards won via CAS, by trigger",
    );
    /// Leaderships an LCM replica stood down from, by reason (`fence` when
    /// the local lease deadline lapsed unconfirmed, `expired` when the
    /// server reported the lease dead, `displaced` for the defensive
    /// someone-else-holds-my-key backstop). The name is the one shard's;
    /// the benchmark package reads it.
    pub const LCM_SHARD_LOSSES: &CounterDecl<1> = &CounterDecl::new(
        "dlaas_lcm_shard_losses_total",
        ["reason"],
        "LCM shards stood down from, by reason",
    );
    /// Admission hints (a job ended, so its quota is free), by outcome:
    /// on the replica a hint reached, `ran` (the leader started an
    /// admission round), `coalesced` (a round's feed read was in flight,
    /// so it runs once more), `idle` (the leader had no queued job to
    /// admit), `forwarded` (a standby passed it to the holder it knows)
    /// or `dropped` (a standby knew no holder, or a forwarded hint
    /// reached a replica that does not lead); at the sender,
    /// `unanswered` (no LCM acknowledged it).
    pub const LCM_ADMISSION_HINTS: &CounterDecl<1> = &CounterDecl::new(
        "dlaas_lcm_admission_hints_total",
        ["outcome"],
        "admission hints on a job's end, by outcome",
    );
    /// LCM lease keepalives that did not extend the lease, by reason
    /// (`expired`, `unreachable`).
    pub const LCM_LEASE_KEEPALIVE_FAILURES: &CounterDecl<1> = &CounterDecl::new(
        "dlaas_lcm_lease_keepalive_failures_total",
        ["reason"],
        "LCM lease keepalives that failed, by reason",
    );

    /// Deployment attempts started by Guardians (first try and retries).
    pub const GUARDIAN_DEPLOY_ATTEMPTS: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_guardian_deploy_attempts_total",
        [],
        "guardian deployment attempts started",
    );
    /// Rollbacks of partially deployed resources before a (re)deploy.
    pub const GUARDIAN_ROLLBACKS: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_guardian_rollbacks_total",
        [],
        "partial-deployment rollbacks before a (re)deploy",
    );
    /// Guardians that exhausted their deploy-attempt budget.
    pub const GUARDIAN_GAVE_UP: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_guardian_gave_up_total",
        [],
        "guardians that exhausted their deploy attempts",
    );
    /// Jobs a Guardian marked FAILED.
    pub const GUARDIAN_JOBS_FAILED: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_guardian_jobs_failed_total",
        [],
        "jobs marked FAILED by a guardian",
    );
    /// Jobs a Guardian completed.
    pub const GUARDIAN_JOBS_COMPLETED: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_guardian_jobs_completed_total",
        [],
        "jobs completed by a guardian",
    );
    /// Seconds from deployment-attempt start to the job PROCESSING.
    pub const GUARDIAN_DEPLOY_SECONDS: &HistogramDecl<0> = &HistogramDecl::new(
        "dlaas_guardian_deploy_seconds",
        [],
        "seconds from deployment-attempt start to PROCESSING",
    );

    /// Learner restarts (starts beyond the first, across all jobs).
    pub const LEARNER_RESTARTS: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_learner_restarts_total",
        [],
        "learner starts beyond the first",
    );
    /// Best-effort learner NFS bookkeeping writes (status/log/restart
    /// markers) that failed; the learner keeps running, but the failure
    /// must stay visible to the observability plane.
    pub const LEARNER_NFS_WRITE_FAILURES: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_learner_nfs_write_failures_total",
        [],
        "failed best-effort learner NFS bookkeeping writes",
    );
    /// Learners that rejoined via a peer parameter server after a restart.
    pub const LEARNER_PS_REJOINS: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_learner_ps_rejoins_total",
        [],
        "learner rejoins via a peer parameter server",
    );
    /// Checkpoints uploaded to the object store.
    pub const CHECKPOINT_WRITES: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_checkpoint_writes_total",
        [],
        "checkpoints uploaded to the object store",
    );
    /// Checkpoints downloaded to resume training after a restart.
    pub const CHECKPOINT_RESTORES: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_checkpoint_restores_total",
        [],
        "checkpoint downloads on learner restart",
    );
    /// Seconds training stalled per checkpoint upload (§III-g trade-off).
    pub const CHECKPOINT_STALL_SECONDS: &HistogramDecl<0> = &HistogramDecl::new(
        "dlaas_checkpoint_stall_seconds",
        [],
        "seconds training stalled per checkpoint upload",
    );

    /// QUEUED jobs awaiting fair-queue admission, by tenant (set by the LCM
    /// admission arbiter each round: every scan tick and every job end).
    pub const TENANT_QUEUE_DEPTH: &GaugeDecl<1> = &GaugeDecl::new(
        "dlaas_tenant_queue_depth",
        ["tenant"],
        "QUEUED jobs awaiting fair-queue admission, by tenant",
    );
    /// Microseconds a job waited from submission to quota admission, by
    /// tenant (0 for jobs admitted directly at submission). Waits span 0
    /// through many LCM sweep periods, hence decade-ish bounds up to ~3 h.
    pub const TENANT_ADMISSION_WAIT: &HistogramDecl<1> = &HistogramDecl::new(
        "dlaas_tenant_admission_wait_us",
        ["tenant"],
        "microseconds from submission to quota admission, by tenant",
    )
    .with_buckets(&[1e3, 1e4, 1e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9, 3e9, 1e10]);
    /// Seconds from submission to a terminal status, by tenant — the
    /// per-tenant completion-latency histogram the traffic soak reads its
    /// p50/p95/p99 from. Turnaround = queue wait + deploy + training, and
    /// job durations are heavy-tailed, hence bounds well past the default
    /// 600 s ceiling.
    pub const TENANT_JOB_TURNAROUND: &HistogramDecl<1> = &HistogramDecl::new(
        "dlaas_tenant_job_turnaround_seconds",
        ["tenant"],
        "seconds from submission to a terminal status, by tenant",
    )
    .with_buckets(&[
        1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1200.0, 1800.0, 3600.0, 7200.0, 14400.0,
    ]);

    /// Platform invariant violations observed by the checker, by invariant.
    pub const INVARIANT_VIOLATIONS: &CounterDecl<1> = &CounterDecl::new(
        "dlaas_invariant_violations_total",
        ["invariant"],
        "platform invariant violations, by invariant",
    );

    /// Training datasets staged onto a job volume by load-data.
    pub const DATA_STAGED: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_data_staged_total",
        [],
        "training datasets staged onto job volumes",
    );
    /// Trained models uploaded by store-results.
    pub const RESULTS_STORED: &CounterDecl<0> = &CounterDecl::new(
        "dlaas_results_stored_total",
        [],
        "trained models uploaded to the object store",
    );
}
