//! The user-facing DLaaS client (the REST/GRPC SDK stand-in).
//!
//! Calls go to the *API service* — resolved through the Kubernetes
//! service registry, so they are load-balanced over API replicas and fail
//! over when a replica crashes (§III-c).

use dlaas_net::{Addr, Retry, RpcError};
use dlaas_sim::{Sim, SimDuration};

use crate::handles::{Handles, API_SERVICE};
use crate::job::JobId;
use crate::manifest::TrainingManifest;
use crate::proto::{CoreRequest, CoreResponse, JobInfo};

/// How a platform call is retried: 1 s attempts 400 ms apart, 16 of them
/// under pure timeouts, whether the API times out or has no endpoint.
const RETRY: &Retry = &Retry {
    name: "user",
    timeout: SimDuration::from_millis(1_000),
    backoff: SimDuration::from_millis(400),
    budget: SimDuration::from_millis(16 * 1_400),
};

/// Client-visible failure of a platform call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The platform could not be reached within the retry budget.
    Unavailable,
    /// The platform rejected the request (auth, quota, validation, …).
    Rejected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unavailable => write!(f, "platform unavailable"),
            ClientError::Rejected(m) => write!(f, "request rejected: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A tenant's handle to the platform.
#[derive(Clone)]
pub struct DlaasClient {
    h: Handles,
    addr: Addr,
    api_key: String,
}

impl std::fmt::Debug for DlaasClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlaasClient")
            .field("addr", &self.addr)
            .finish()
    }
}

impl DlaasClient {
    /// Creates a client for the tenant owning `api_key`, identified as
    /// `who` on the network.
    pub fn new(h: Handles, who: impl Into<String>, api_key: impl Into<String>) -> Self {
        DlaasClient {
            h,
            addr: Addr::new(format!("user/{}", who.into())),
            api_key: api_key.into(),
        }
    }

    /// The shared platform handles this client talks through.
    pub fn handles(&self) -> &Handles {
        &self.h
    }

    fn call(
        &self,
        sim: &mut Sim,
        req: CoreRequest,
        done: impl FnOnce(&mut Sim, Result<CoreResponse, ClientError>) + 'static,
    ) {
        let api = self.h.kube.service_resolver(API_SERVICE);
        let from = self.addr.clone();
        RETRY.send(sim, &self.h.rpc, from, req, api, move |sim, r| {
            let r = r.map_err(|e| match e {
                RpcError::Remote(m) => ClientError::Rejected(m),
                _ => ClientError::Unavailable,
            });
            done(sim, r);
        });
    }

    /// Submits a training job; the callback receives the assigned id once
    /// the job is durably recorded.
    pub fn submit(
        &self,
        sim: &mut Sim,
        manifest: TrainingManifest,
        done: impl FnOnce(&mut Sim, Result<JobId, ClientError>) + 'static,
    ) {
        let req = CoreRequest::Submit {
            api_key: self.api_key.clone(),
            manifest,
        };
        self.call(sim, req, |sim, r| {
            done(
                sim,
                r.and_then(|resp| match resp {
                    CoreResponse::Submitted { job } => Ok(job),
                    other => Err(ClientError::Rejected(format!(
                        "unexpected submit response: {other:?}"
                    ))),
                }),
            );
        });
    }

    /// Reads a job's status snapshot.
    pub fn status(
        &self,
        sim: &mut Sim,
        job: JobId,
        done: impl FnOnce(&mut Sim, Result<JobInfo, ClientError>) + 'static,
    ) {
        let req = CoreRequest::GetStatus {
            api_key: self.api_key.clone(),
            job,
        };
        self.call(sim, req, |sim, r| {
            done(
                sim,
                r.and_then(|resp| match resp {
                    CoreResponse::Status(info) => Ok(info),
                    other => Err(ClientError::Rejected(format!(
                        "unexpected status response: {other:?}"
                    ))),
                }),
            );
        });
    }

    /// Lists the tenant's jobs.
    pub fn jobs(
        &self,
        sim: &mut Sim,
        done: impl FnOnce(&mut Sim, Result<Vec<JobId>, ClientError>) + 'static,
    ) {
        let req = CoreRequest::ListJobs {
            api_key: self.api_key.clone(),
        };
        self.call(sim, req, |sim, r| {
            done(
                sim,
                r.and_then(|resp| match resp {
                    CoreResponse::Jobs(ids) => Ok(ids),
                    other => Err(ClientError::Rejected(format!(
                        "unexpected list response: {other:?}"
                    ))),
                }),
            );
        });
    }

    /// Terminates a job.
    pub fn kill(
        &self,
        sim: &mut Sim,
        job: JobId,
        done: impl FnOnce(&mut Sim, Result<(), ClientError>) + 'static,
    ) {
        let req = CoreRequest::Kill {
            api_key: self.api_key.clone(),
            job,
        };
        self.call(sim, req, |sim, r| done(sim, r.map(|_| ())));
    }

    /// Fetches a learner's training log (streamed to the object store by
    /// the log collector, so available even after crashes).
    pub fn logs(
        &self,
        sim: &mut Sim,
        job: JobId,
        learner: u32,
        done: impl FnOnce(&mut Sim, Result<Vec<String>, ClientError>) + 'static,
    ) {
        let req = CoreRequest::GetLogs {
            api_key: self.api_key.clone(),
            job,
            learner,
        };
        self.call(sim, req, |sim, r| {
            done(
                sim,
                r.and_then(|resp| match resp {
                    CoreResponse::Logs(lines) => Ok(lines),
                    other => Err(ClientError::Rejected(format!(
                        "unexpected logs response: {other:?}"
                    ))),
                }),
            );
        });
    }
}
