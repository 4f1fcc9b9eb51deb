//! The platform's RPC protocol (the GRPC surface of §III-c).

use dlaas_docstore::{obj, Value};
use dlaas_net::RpcLayer;

use crate::job::{JobId, JobStatus};
use crate::manifest::TrainingManifest;

/// Requests to the DLaaS API service (client-facing) and between core
/// services (API → LCM).
#[derive(Debug, Clone, PartialEq)]
pub enum CoreRequest {
    /// Submit a training job.
    Submit {
        /// Tenant API key.
        api_key: String,
        /// The job manifest.
        manifest: TrainingManifest,
    },
    /// Read a job's status.
    GetStatus {
        /// Tenant API key.
        api_key: String,
        /// The job.
        job: JobId,
    },
    /// List the tenant's jobs.
    ListJobs {
        /// Tenant API key.
        api_key: String,
    },
    /// Terminate a job.
    Kill {
        /// Tenant API key.
        api_key: String,
        /// The job.
        job: JobId,
    },
    /// Fetch a learner's training log.
    GetLogs {
        /// Tenant API key.
        api_key: String,
        /// The job.
        job: JobId,
        /// Learner ordinal.
        learner: u32,
    },
    /// API → LCM: deploy an accepted job.
    DeployJob {
        /// The job.
        job: JobId,
    },
    /// API → LCM: stop and tear down a job.
    StopJob {
        /// The job.
        job: JobId,
    },
    /// Guardian → LCM: a job ended and its quota is free, so the leader
    /// runs an admission round now instead of at its next scan tick. A
    /// hint, not a command: a lost one waits for the tick.
    JobEnded {
        /// The job.
        job: JobId,
        /// A standby passed it on to the replica it believes leads; a
        /// forwarded hint is never forwarded again.
        forwarded: bool,
    },
}

/// Point-in-time view of a job returned by `GetStatus`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobInfo {
    /// The job id.
    pub job: JobId,
    /// User-assigned name.
    pub name: String,
    /// Current lifecycle status.
    pub status: JobStatus,
    /// `(status, simulated-microseconds)` transition history — the
    /// timestamped updates users rely on "for job profiling and
    /// debugging" (§II).
    pub history: Vec<(JobStatus, u64)>,
    /// Last reported global training iteration.
    pub iteration: u64,
    /// Total learner restarts observed (users "expect to be notified when
    /// DL jobs are restarted", §II).
    pub learner_restarts: u64,
    /// Measured training throughput, when the job has completed.
    pub images_per_sec: Option<f64>,
    /// Last known per-learner phases `(ordinal, phase string)`, copied
    /// from etcd by the Guardian while the job runs.
    pub learners: Vec<(u32, String)>,
}

impl JobInfo {
    /// Serializes the snapshot to a JSON document (e.g. for API clients).
    pub fn to_document(&self) -> Value {
        obj! {
            "job" => self.job.as_str(),
            "name" => self.name.clone(),
            "status" => self.status.to_string(),
            "history" => Value::Arr(
                self.history
                    .iter()
                    .map(|(s, t)| obj! { "status" => s.to_string(), "at_us" => *t })
                    .collect(),
            ),
            "iteration" => self.iteration,
            "learner_restarts" => self.learner_restarts,
            "images_per_sec" => self.images_per_sec,
            "learners" => Value::Arr(
                self.learners
                    .iter()
                    .map(|(ord, phase)| obj! { "ordinal" => *ord, "phase" => phase.clone() })
                    .collect(),
            ),
        }
    }

    /// Parses a document produced by [`JobInfo::to_document`].
    pub fn from_document(doc: &Value) -> Option<JobInfo> {
        Some(JobInfo {
            job: JobId::new(doc.path("job")?.as_str()?),
            name: doc.path("name")?.as_str()?.to_owned(),
            status: doc.path("status")?.as_str()?.parse().ok()?,
            history: doc
                .path("history")?
                .as_arr()?
                .iter()
                .map(|e| {
                    Some((
                        e.path("status")?.as_str()?.parse().ok()?,
                        e.path("at_us")?.as_i64()? as u64,
                    ))
                })
                .collect::<Option<Vec<_>>>()?,
            iteration: doc.path("iteration")?.as_i64()? as u64,
            learner_restarts: doc.path("learner_restarts")?.as_i64()? as u64,
            images_per_sec: match doc.path("images_per_sec")? {
                Value::Null => None,
                v => Some(v.as_f64()?),
            },
            learners: doc
                .path("learners")?
                .as_arr()?
                .iter()
                .map(|e| {
                    Some((
                        e.path("ordinal")?.as_i64()? as u32,
                        e.path("phase")?.as_str()?.to_owned(),
                    ))
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// Responses from the DLaaS services.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreResponse {
    /// Job accepted and durably recorded.
    Submitted {
        /// Assigned id.
        job: JobId,
    },
    /// Status snapshot.
    Status(JobInfo),
    /// The tenant's job ids.
    Jobs(Vec<JobId>),
    /// Log lines.
    Logs(Vec<String>),
    /// Generic success.
    Ok,
}

/// The RPC layer carrying platform traffic.
pub type CoreRpc = RpcLayer<CoreRequest, CoreResponse>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_info_document_roundtrip() {
        let info = JobInfo {
            job: JobId::new("j1"),
            name: "train".into(),
            status: JobStatus::Processing,
            history: vec![(JobStatus::Pending, 0), (JobStatus::Processing, 100)],
            iteration: 42,
            learner_restarts: 1,
            images_per_sec: Some(52.0),
            learners: vec![(0, "PROCESSING iter=42".into())],
        };
        let doc = Value::parse_json(&info.to_document().to_json()).unwrap();
        assert_eq!(JobInfo::from_document(&doc), Some(info.clone()));

        let none = JobInfo {
            images_per_sec: None,
            ..info
        };
        assert_eq!(JobInfo::from_document(&none.to_document()), Some(none));
    }
}
