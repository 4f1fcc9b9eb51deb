//! The control plane's marks, declared once: what each component says
//! happened, on the timeline of the job (pod, shard) it happened to.
//!
//! A component marks with the def ([`Sim::mark`](dlaas_sim::Sim::mark)),
//! and a consumer names the defs it reads: the shard-ownership ledger
//! ([`crate::ownership`]) taps six of the LCM's, and a fault-matrix cell
//! taps the Guardian's deployment steps. A mark whose `what` is chosen at
//! run time — a status, an invariant rule — picks its def with a `match`
//! ([`guardian_status`], [`invariant`]). Each def's doc says what its
//! `arg` counts; 0 when it counts nothing.

use dlaas_sim::MarkDef;

use crate::job::JobStatus;

dlaas_sim::marks! {
    /// The API service's marks.
    api: "api" {
        /// A replica started (subject: its pod); arg: 0.
        UP = "up";
        /// A submission over its tenant's quota was recorded QUEUED; arg: 0.
        QUEUED = "queued";
        /// A submission was recorded PENDING and acknowledged; arg: 0.
        RECORDED = "recorded";
    }

    /// The Lifecycle Manager's marks. A claim's and a release's subject is
    /// 0, the number of the one shard whose owner key is the leader key;
    /// a sweep's carry the lease its leadership was decided under.
    lcm: "lcm" {
        /// A replica started (subject: its pod); arg: 0.
        UP = "up";
        /// A replica was granted a lease (subject: its pod); arg: the lease.
        LEASE_GRANTED = "lease-granted";
        /// A replica claimed the leader key (subject: 0); arg: the lease it
        /// holds it under.
        ACQUIRED_UNDER_LEASE = "acquired-under-lease";
        /// A replica released the leader key (subject: 0); arg: the lease
        /// it held it under.
        LOST_WITH_LEASE = "lost-with-lease";
        /// The Guardian K8s Job of a job was created; arg: 0.
        GUARDIAN_CREATED = "guardian-created";
        /// A job's cluster resources are being torn down; arg: 0.
        TEARDOWN = "teardown";
        /// The arbiter admitted a QUEUED job; arg: µs it waited.
        ADMITTED_AFTER_US = "admitted-after-us";
        /// A replica took a hint that the job ended; arg: what became of
        /// it, 0 ran, 1 coalesced, 2 idle, 3 forwarded, 4 dropped (the
        /// `outcome` labels of `dlaas_lcm_admission_hints_total`).
        ADMISSION_HINT = "admission-hint";
        /// Sweep: a job stranded in PENDING is deployed again; arg: the
        /// lease.
        REDEPLOY_STRANDED = "redeploy-stranded";
        /// Sweep: a job whose Guardian exhausted its backoff limit is
        /// failed; arg: the lease.
        GUARDIAN_GAVE_UP = "guardian_gave_up";
        /// Sweep: a job past the deploy timeout is failed; arg: the lease.
        DEPLOY_TIMEOUT = "deploy_timeout";
        /// Sweep: a finished job's pods or volume are collected; arg: the
        /// lease.
        GC_LEFTOVERS = "gc-leftovers";
        /// Sweep: a finished job's leaked etcd keys are deleted; arg: the
        /// lease.
        GC_ETCD_KEYS = "gc-etcd-keys";
    }

    /// The Guardian's marks, on its job's timeline. Six of them are the
    /// fault matrix's injection points (`deploy-attempt`, `DEPLOYING`,
    /// `volume-provisioned`, `helper-created`, `learners-created`,
    /// `deployed`).
    guardian: "guardian" {
        /// An incarnation started; arg: 0.
        UP = "up";
        /// A deploy step found no manifest loaded; arg: 0.
        MANIFEST_MISSING = "manifest-missing";
        /// The job has no document; arg: 0.
        JOB_RECORD_MISSING = "job-record-missing";
        /// The metadata store did not answer the boot read; arg: 0.
        METADATA_UNAVAILABLE = "metadata-unavailable";
        /// The stored manifest does not parse; arg: 0.
        CORRUPT_MANIFEST = "corrupt-manifest";
        /// The job was already terminal at boot; arg: 0.
        ALREADY_TERMINAL = "already-terminal";
        /// The job was already deployed at boot: monitoring resumes; arg: 0.
        RESUME_MONITORING = "resume-monitoring";
        /// No deploy attempt is left; arg: the attempts made.
        ATTEMPTS_EXHAUSTED = "attempts-exhausted";
        /// The attempt count could not be recorded; arg: the attempt.
        ATTEMPT_NOT_RECORDED = "attempt-not-recorded";
        /// Step 1: a deploy attempt began; arg: the attempt, from 1.
        DEPLOY_ATTEMPT = "deploy-attempt";
        /// The FAILED write was refused; arg: 0.
        FAILED_NOT_RECORDED = "failed-not-recorded";
        /// Step 3 failed: no NFS volume; arg: 0.
        VOLUME_PROVISION_FAILED = "volume-provision-failed";
        /// Step 3: the NFS volume exists; arg: 0.
        VOLUME_PROVISIONED = "volume-provisioned";
        /// Step 4: the helper Deployment exists; arg: 0.
        HELPER_CREATED = "helper-created";
        /// Step 5: the learner StatefulSet exists; arg: 0.
        LEARNERS_CREATED = "learners-created";
        /// Step 6: the network policies exist; arg: 0.
        DEPLOYED = "deployed";
        /// The monitor is watching the job's etcd keys; arg: 0.
        MONITORING = "monitoring";
        /// The document turned terminal under the monitor; arg: 0.
        TERMINAL_EXTERNALLY = "terminal-externally";
        /// A status write was refused and stays owed; arg: the status's
        /// rank.
        STATUS_OWED = "status-owed";
        /// The Guardian's QUEUED write was acknowledged; arg: 0.
        QUEUED = "QUEUED";
        /// The Guardian's PENDING write was acknowledged; arg: 0.
        PENDING = "PENDING";
        /// Step 2: the Guardian's DEPLOYING write was acknowledged; arg: 0.
        DEPLOYING = "DEPLOYING";
        /// The Guardian's PROCESSING write was acknowledged; arg: 0.
        PROCESSING = "PROCESSING";
        /// The Guardian's STORING write was acknowledged; arg: 0.
        STORING = "STORING";
        /// The Guardian's COMPLETED write was acknowledged; arg: 0.
        COMPLETED = "COMPLETED";
        /// The Guardian's FAILED write was acknowledged; arg: 0.
        FAILED = "FAILED";
        /// The Guardian's KILLED write was acknowledged; arg: 0.
        KILLED = "KILLED";
    }

    /// A learner's marks, on its job's timeline.
    learner: "learner" {
        /// The jobspec never appeared on the volume; arg: 0.
        JOBSPEC_NEVER_APPEARED = "jobspec-never-appeared";
        /// An incarnation started training; arg: its start count, from 1.
        START = "start";
        /// Training finished and its markers are durable; arg: the
        /// learner's ordinal.
        DONE = "done";
        /// The finish markers could not be written; arg: 0.
        MARKERS_NOT_DURABLE = "markers-not-durable";
    }

    /// The controller's marks, on its job's timeline.
    controller: "controller" {
        /// The jobspec never appeared on the volume; arg: 0.
        JOBSPEC_NEVER_APPEARED = "jobspec-never-appeared";
        /// The controller is polling the volume; arg: 0.
        ONLINE = "online";
    }

    /// The load-data helper's marks, on its job's timeline.
    load_data: "load-data" {
        /// The jobspec never appeared on the volume; arg: 0.
        JOBSPEC_NEVER_APPEARED = "jobspec-never-appeared";
        /// The data was already on the volume; arg: 0.
        ALREADY_STAGED = "already-staged";
        /// A fetch of the dataset began; arg: its size in bytes.
        STAGING = "staging";
        /// The data and its marker are on the volume; arg: 0.
        STAGED = "staged";
        /// The data arrived but its marker could not be written; arg: 0.
        MARKER_WRITE_FAILED = "marker-write-failed";
        /// The fetch from the object store failed; arg: 0.
        FETCH_FAILED = "fetch-failed";
    }

    /// The log collector's marks, on its job's timeline.
    log_collector: "log-collector" {
        /// The jobspec never appeared on the volume; arg: 0.
        JOBSPEC_NEVER_APPEARED = "jobspec-never-appeared";
        /// The collector is tailing the learners' logs; arg: 0.
        ONLINE = "online";
    }

    /// The store-results helper's marks, on its job's timeline.
    store_results: "store-results" {
        /// The jobspec never appeared on the volume; arg: 0.
        JOBSPEC_NEVER_APPEARED = "jobspec-never-appeared";
        /// The results were already stored; arg: 0.
        ALREADY_STORED = "already-stored";
        /// The model and its done marker are stored; arg: 0.
        UPLOADED = "uploaded";
        /// The model was stored but its marker could not be written; arg: 0.
        MARKER_WRITE_FAILED = "marker-write-failed";
        /// The upload to the object store failed; arg: 0.
        UPLOAD_FAILED = "upload-failed";
    }

    /// The platform's own marks: the metadata store's faults (subject
    /// `mongo`).
    platform: "platform" {
        /// The store crashed; arg: 0.
        CRASHED = "crashed";
        /// The store recovered from its journal; arg: 0.
        RECOVERED = "recovered";
        /// Writes began to stall; arg: 0.
        WRITE_STALL_BEGINS = "write-stall-begins";
        /// Writes are served again; arg: 0.
        WRITE_STALL_ENDS = "write-stall-ends";
    }

    /// The invariant monitor's marks: the first violation of a rule by a
    /// job, named as [`crate::InvariantViolation::invariant`]; arg: 0.
    invariants: "invariants" {
        /// Rule 1: a job reaches a terminal status in bounded time.
        TERMINAL_BOUND = "terminal-bound";
        /// Rule 2: a job's status history only moves forward.
        HISTORY_MONOTONE = "history-monotone";
        /// Rule 3: deploy attempts stay within the budget.
        ATTEMPTS_BOUND = "attempts-bound";
        /// Rule 4: a finished job leaves no pods.
        LEAK_PODS = "leak-pods";
        /// Rule 4: a finished job leaves no volume.
        LEAK_VOLUME = "leak-volume";
        /// Rule 4: a finished job leaves no network policy.
        LEAK_NETPOL = "leak-netpol";
        /// Rule 4: a finished job leaves no etcd keys.
        LEAK_ETCD = "leak-etcd";
        /// Rule 5: no shard is claimed by two live replicas.
        SHARD_SINGLE_OWNER = "shard-single-owner";
        /// Rule 5: no shard stays unowned past the takeover bound.
        SHARD_ORPHANED = "shard-orphaned";
        /// Rule 6: the fair queue admits a job its tenant has room for.
        TENANT_STARVED = "tenant-starved";
        /// Rule 7: a Guardian exits 0 only over a terminal document.
        GUARDIAN_DONE_JOB_OPEN = "guardian-done-job-open";
        /// Rule 8: a stamp the rules clock a job by is a time.
        STAMP_VALID = "stamp-valid";
    }
}

/// The Guardian's mark for an acknowledged write of `status`.
pub fn guardian_status(status: JobStatus) -> &'static MarkDef {
    match status {
        JobStatus::Queued => &guardian::QUEUED,
        JobStatus::Pending => &guardian::PENDING,
        JobStatus::Deploying => &guardian::DEPLOYING,
        JobStatus::Processing => &guardian::PROCESSING,
        JobStatus::Storing => &guardian::STORING,
        JobStatus::Completed => &guardian::COMPLETED,
        JobStatus::Failed => &guardian::FAILED,
        JobStatus::Killed => &guardian::KILLED,
    }
}

/// The monitor's mark for a violation of invariant `rule` (`None` for a
/// name no rule has).
pub fn invariant(rule: &str) -> Option<&'static MarkDef> {
    Some(match rule {
        "terminal-bound" => &invariants::TERMINAL_BOUND,
        "history-monotone" => &invariants::HISTORY_MONOTONE,
        "attempts-bound" => &invariants::ATTEMPTS_BOUND,
        "leak-pods" => &invariants::LEAK_PODS,
        "leak-volume" => &invariants::LEAK_VOLUME,
        "leak-netpol" => &invariants::LEAK_NETPOL,
        "leak-etcd" => &invariants::LEAK_ETCD,
        "shard-single-owner" => &invariants::SHARD_SINGLE_OWNER,
        "shard-orphaned" => &invariants::SHARD_ORPHANED,
        "tenant-starved" => &invariants::TENANT_STARVED,
        "guardian-done-job-open" => &invariants::GUARDIAN_DONE_JOB_OPEN,
        "stamp-valid" => &invariants::STAMP_VALID,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_status_marks_as_its_name() {
        use JobStatus::*;
        let all = [
            Queued, Pending, Deploying, Processing, Storing, Completed, Failed, Killed,
        ];
        for status in all {
            assert_eq!(guardian_status(status).what, status.name());
        }
    }

    #[test]
    fn every_rule_marks_as_its_name() {
        let rules = ALL.iter().filter(|def| def.who == "invariants");
        for &def in rules {
            assert_eq!(invariant(def.what), Some(def));
        }
        assert_eq!(invariant("no-such-rule"), None);
    }
}
