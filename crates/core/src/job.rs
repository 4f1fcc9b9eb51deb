//! Job identities, lifecycle statuses and learner phases.

use std::fmt;
use std::str::FromStr;

/// Unique identifier of a training job.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(String);

impl JobId {
    /// Wraps an id string.
    pub fn new(s: impl Into<String>) -> Self {
        JobId(s.into())
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for JobId {
    fn from(s: &str) -> Self {
        JobId(s.to_owned())
    }
}

/// Externally visible job lifecycle (the statuses users poll; paper §II:
/// "users expect periodic and accurate status updates (e.g., whether the
/// job is DEPLOYING, PROCESSING)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Accepted and durably recorded, but the tenant is over its GPU
    /// quota; held in the weighted fair queue until capacity frees up.
    Queued,
    /// Admitted against the tenant's quota; awaiting deployment.
    Pending,
    /// The Guardian is provisioning resources.
    Deploying,
    /// Learners are training.
    Processing,
    /// Training finished; results are being copied to the object store.
    Storing,
    /// Results stored; everything cleaned up.
    Completed,
    /// Gave up (deployment retries exhausted, or learners failed hard).
    Failed,
    /// Terminated by the user.
    Killed,
}

impl JobStatus {
    /// The status a job document — or one entry of its history — records.
    pub(crate) fn of(doc: &dlaas_docstore::Value) -> Option<Self> {
        doc.path("status")?.as_str()?.parse().ok()
    }

    /// Position in the lifecycle; equal ranks are both terminal.
    pub fn rank(self) -> u8 {
        match self {
            JobStatus::Queued => 0,
            JobStatus::Pending => 1,
            JobStatus::Deploying => 2,
            JobStatus::Processing => 3,
            JobStatus::Storing => 4,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Killed => 5,
        }
    }

    /// `true` for end states.
    pub fn is_terminal(self) -> bool {
        self.rank() == 5
    }

    /// `true` when moving from `self` to `next` goes forward in the
    /// lifecycle (never backwards, never out of a terminal state).
    pub fn can_advance_to(self, next: JobStatus) -> bool {
        !self.is_terminal() && next.rank() > self.rank()
    }
}

impl JobStatus {
    /// The status as documents, clients and timeline marks spell it.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "QUEUED",
            JobStatus::Pending => "PENDING",
            JobStatus::Deploying => "DEPLOYING",
            JobStatus::Processing => "PROCESSING",
            JobStatus::Storing => "STORING",
            JobStatus::Completed => "COMPLETED",
            JobStatus::Failed => "FAILED",
            JobStatus::Killed => "KILLED",
        }
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`JobStatus`] / [`LearnerPhase`] from its wire string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStatusError(pub String);

impl fmt::Display for ParseStatusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown status: {}", self.0)
    }
}

impl std::error::Error for ParseStatusError {}

impl FromStr for JobStatus {
    type Err = ParseStatusError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "QUEUED" => Ok(JobStatus::Queued),
            "PENDING" => Ok(JobStatus::Pending),
            "DEPLOYING" => Ok(JobStatus::Deploying),
            "PROCESSING" => Ok(JobStatus::Processing),
            "STORING" => Ok(JobStatus::Storing),
            "COMPLETED" => Ok(JobStatus::Completed),
            "FAILED" => Ok(JobStatus::Failed),
            "KILLED" => Ok(JobStatus::Killed),
            other => Err(ParseStatusError(other.to_owned())),
        }
    }
}

/// Per-learner phase, as recorded by the controller in etcd (§III-f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnerPhase {
    /// Waiting for / fetching training data.
    Downloading,
    /// Training; carries the last reported global iteration.
    Processing {
        /// Last reported iteration.
        iteration: u64,
    },
    /// Exited 0.
    Completed,
    /// Failed permanently (restart budget exhausted).
    Failed,
}

impl LearnerPhase {
    /// `true` once the learner finished successfully.
    pub fn is_completed(&self) -> bool {
        matches!(self, LearnerPhase::Completed)
    }

    /// `true` when the learner failed permanently.
    pub fn is_failed(&self) -> bool {
        matches!(self, LearnerPhase::Failed)
    }

    /// `true` when both are the same phase, whatever iteration either
    /// carries — the distinction every consumer of learner status acts
    /// on (aggregation rules, job status); the iteration inside
    /// `Processing` is progress telemetry.
    pub fn same_kind(&self, other: &LearnerPhase) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }

    /// The reported iteration, when training.
    pub fn iteration(&self) -> Option<u64> {
        match self {
            LearnerPhase::Processing { iteration } => Some(*iteration),
            _ => None,
        }
    }
}

impl fmt::Display for LearnerPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnerPhase::Downloading => f.write_str("DOWNLOADING"),
            LearnerPhase::Processing { iteration } => write!(f, "PROCESSING iter={iteration}"),
            LearnerPhase::Completed => f.write_str("COMPLETED"),
            LearnerPhase::Failed => f.write_str("FAILED"),
        }
    }
}

impl FromStr for LearnerPhase {
    type Err = ParseStatusError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "DOWNLOADING" {
            return Ok(LearnerPhase::Downloading);
        }
        if s == "COMPLETED" {
            return Ok(LearnerPhase::Completed);
        }
        if s == "FAILED" {
            return Ok(LearnerPhase::Failed);
        }
        if let Some(rest) = s.strip_prefix("PROCESSING iter=") {
            if let Ok(iteration) = rest.parse() {
                return Ok(LearnerPhase::Processing { iteration });
            }
        }
        Err(ParseStatusError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lifecycle_order() {
        use JobStatus::*;
        assert!(Queued.can_advance_to(Pending));
        assert!(Queued.can_advance_to(Killed));
        assert!(Pending.can_advance_to(Deploying));
        assert!(Deploying.can_advance_to(Processing));
        assert!(Processing.can_advance_to(Storing));
        assert!(Storing.can_advance_to(Completed));
        assert!(Pending.can_advance_to(Failed));
        assert!(Deploying.can_advance_to(Killed));

        // Never backwards.
        assert!(!Pending.can_advance_to(Queued));
        assert!(!Processing.can_advance_to(Deploying));
        assert!(!Storing.can_advance_to(Processing));
        // Never out of a terminal state.
        assert!(!Completed.can_advance_to(Failed));
        assert!(!Failed.can_advance_to(Completed));
        assert!(!Killed.can_advance_to(Processing));
        // Not to itself.
        assert!(!Processing.can_advance_to(Processing));
    }

    #[test]
    fn status_string_roundtrip() {
        for s in [
            JobStatus::Queued,
            JobStatus::Pending,
            JobStatus::Deploying,
            JobStatus::Processing,
            JobStatus::Storing,
            JobStatus::Completed,
            JobStatus::Failed,
            JobStatus::Killed,
        ] {
            assert_eq!(s.to_string().parse::<JobStatus>().unwrap(), s);
        }
        assert!("BOGUS".parse::<JobStatus>().is_err());
    }

    #[test]
    fn terminal_detection() {
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Processing.is_terminal());
        assert!(JobStatus::Completed.is_terminal());
        assert!(JobStatus::Failed.is_terminal());
        assert!(JobStatus::Killed.is_terminal());
    }

    #[test]
    fn learner_phase_roundtrip() {
        for p in [
            LearnerPhase::Downloading,
            LearnerPhase::Processing { iteration: 12345 },
            LearnerPhase::Completed,
            LearnerPhase::Failed,
        ] {
            assert_eq!(p.to_string().parse::<LearnerPhase>().unwrap(), p);
        }
        assert!("PROCESSING iter=abc".parse::<LearnerPhase>().is_err());
        assert!("".parse::<LearnerPhase>().is_err());
    }

    #[test]
    fn learner_phase_accessors() {
        assert!(LearnerPhase::Completed.is_completed());
        assert!(LearnerPhase::Failed.is_failed());
        assert_eq!(
            LearnerPhase::Processing { iteration: 7 }.iteration(),
            Some(7)
        );
        assert_eq!(LearnerPhase::Downloading.iteration(), None);
    }

    #[test]
    fn job_id_basics() {
        let id = JobId::new("job-1");
        assert_eq!(id.as_str(), "job-1");
        assert_eq!(id.to_string(), "job-1");
        assert_eq!(JobId::from("job-1"), id);
    }
}
