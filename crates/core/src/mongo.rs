//! A retrying client for the metadata store, plus the job-document schema.
//!
//! Every core service reads and writes job metadata through this client.
//! The status-advance helper enforces the lifecycle invariant: a job's
//! externally visible status never moves backwards and never leaves a
//! terminal state — even when two Guardian incarnations race.

use std::cell::Cell;
use std::rc::Rc;

use dlaas_docstore::{
    mongo_addr, Doc, Filter, MongoRequest, MongoResponse, MongoRpc, Update, Value,
};
use dlaas_net::{Addr, RpcError};
use dlaas_sim::{Sim, SimDuration};

use crate::job::{JobId, JobStatus};
use crate::manifest::TrainingManifest;
use crate::metrics;
use crate::proto::JobInfo;

const ATTEMPTS: u32 = 15;
const TIMEOUT: SimDuration = SimDuration::from_millis(500);
const BACKOFF: SimDuration = SimDuration::from_millis(150);

/// The jobs collection name.
pub const JOBS: &str = "jobs";
/// The tenants collection name.
pub const TENANTS: &str = "tenants";

/// Client error for metadata operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    /// Store unreachable within the retry budget.
    Unavailable,
    /// The store rejected the operation.
    Rejected(String),
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::Unavailable => write!(f, "metadata store unavailable"),
            MetaError::Rejected(m) => write!(f, "metadata store rejected: {m}"),
        }
    }
}

impl std::error::Error for MetaError {}

/// Retrying handle to the metadata store.
#[derive(Debug, Clone)]
pub struct MetaClient {
    rpc: MongoRpc,
    from: Addr,
    to: Addr,
    /// `false` once the process the client was handed to has stopped: it
    /// sends nothing more, retries included.
    alive: Rc<Cell<bool>>,
}

impl MetaClient {
    /// Creates a client identified as `from` on the wire, owned by nobody
    /// (a harness's; a component gets its own from `Handles::meta`).
    pub fn new(rpc: MongoRpc, from: impl Into<String>) -> Self {
        MetaClient {
            rpc,
            from: Addr::new(format!("mongoc/{}", from.into())),
            to: mongo_addr(),
            alive: Rc::new(Cell::new(true)),
        }
    }

    /// The same client, sending only while `alive` holds.
    pub(crate) fn while_alive(self, alive: Rc<Cell<bool>>) -> Self {
        MetaClient { alive, ..self }
    }

    /// Unregisters the client's RPC endpoint (process teardown): answers
    /// still on their way are dropped with it.
    pub(crate) fn close(&self) {
        self.rpc.stop_serving(&self.from);
    }

    /// One request allocation for all attempts: each attempt's frame and
    /// the retry continuation share it.
    fn request(
        &self,
        sim: &mut Sim,
        req: impl Into<Rc<MongoRequest>>,
        attempts: u32,
        done: impl FnOnce(&mut Sim, Result<MongoResponse, MetaError>) + 'static,
    ) {
        if !self.alive.get() {
            return;
        }
        if attempts == 0 {
            done(sim, Err(MetaError::Unavailable));
            return;
        }
        let req: Rc<MongoRequest> = req.into();
        let me = self.clone();
        self.rpc.call(
            sim,
            self.from.clone(),
            self.to.clone(),
            req.clone(),
            TIMEOUT,
            move |sim, result| match result {
                Ok(resp) => done(sim, Ok(resp)),
                Err(RpcError::Remote(m)) => done(sim, Err(MetaError::Rejected(m))),
                Err(_) => {
                    sim.schedule_in(BACKOFF, move |sim| {
                        me.request(sim, req, attempts - 1, done);
                    });
                }
            },
        );
    }

    /// Sends `req` under the full retry budget and hands `done` what
    /// `pick` takes out of the reply; a reply it declines is a rejection
    /// naming `what`.
    fn ask<T: 'static>(
        &self,
        sim: &mut Sim,
        what: &'static str,
        req: MongoRequest,
        done: impl FnOnce(&mut Sim, Result<T, MetaError>) + 'static,
        pick: fn(MongoResponse) -> Result<T, MongoResponse>,
    ) {
        self.request(sim, req, ATTEMPTS, move |sim, r| {
            let picked = r.and_then(|resp| {
                pick(resp).map_err(|other| {
                    MetaError::Rejected(format!("unexpected {what} response: {other:?}"))
                })
            });
            done(sim, picked);
        });
    }

    /// Inserts a document.
    pub fn insert(
        &self,
        sim: &mut Sim,
        coll: &str,
        doc: Value,
        done: impl FnOnce(&mut Sim, Result<String, MetaError>) + 'static,
    ) {
        let coll = coll.into();
        let req = MongoRequest::InsertOne { coll, doc };
        self.ask(sim, "insert", req, done, |resp| match resp {
            MongoResponse::Inserted { id } => Ok(id),
            other => Err(other),
        });
    }

    /// Finds one document.
    pub fn find_one(
        &self,
        sim: &mut Sim,
        coll: &str,
        filter: Filter,
        done: impl FnOnce(&mut Sim, Result<Option<Doc>, MetaError>) + 'static,
    ) {
        let coll = coll.into();
        let req = MongoRequest::FindOne { coll, filter };
        self.ask(sim, "find", req, done, |resp| match resp {
            MongoResponse::Doc(d) => Ok(d),
            other => Err(other),
        });
    }

    /// Finds all matching documents.
    pub fn find(
        &self,
        sim: &mut Sim,
        coll: &str,
        filter: Filter,
        done: impl FnOnce(&mut Sim, Result<Vec<Doc>, MetaError>) + 'static,
    ) {
        let coll = coll.into();
        let req = MongoRequest::Find { coll, filter };
        self.ask(sim, "find", req, done, |resp| match resp {
            MongoResponse::Docs(d) => Ok(d),
            other => Err(other),
        });
    }

    /// Fetches the collection's change feed above `since`: documents that
    /// changed and still exist, ids whose latest change was a removal,
    /// and the new watermark to pass next time. `since == 0` returns the
    /// full feed (the restart / lost-watermark fallback).
    pub fn find_changed(
        &self,
        sim: &mut Sim,
        coll: &str,
        since: u64,
        done: impl FnOnce(&mut Sim, Result<(Vec<Doc>, Vec<String>, u64), MetaError>) + 'static,
    ) {
        let coll = coll.into();
        let req = MongoRequest::FindChanged { coll, since };
        self.ask(sim, "find_changed", req, done, |resp| match resp {
            MongoResponse::Changed {
                docs,
                gone,
                high_water,
            } => Ok((docs, gone, high_water)),
            other => Err(other),
        });
    }

    /// Updates the first matching document; reports whether one matched.
    pub fn update_one(
        &self,
        sim: &mut Sim,
        coll: &str,
        filter: Filter,
        update: Update,
        done: impl FnOnce(&mut Sim, Result<bool, MetaError>) + 'static,
    ) {
        let req = MongoRequest::UpdateOne {
            coll: coll.into(),
            filter,
            update,
        };
        self.ask(sim, "update", req, done, |resp| match resp {
            MongoResponse::Updated(n) => Ok(n > 0),
            other => Err(other),
        });
    }

    // ------------------------------------------------------------------
    // Job-document schema helpers
    // ------------------------------------------------------------------

    /// Builds the document inserted at submission time. The store assigns
    /// the `_id` (which becomes the [`JobId`]) unless one is present.
    /// `status` is [`JobStatus::Pending`] for in-quota submissions
    /// (admitted immediately: `admitted_us == submitted_us`) or
    /// [`JobStatus::Queued`] for over-quota ones (no `admitted_us` until
    /// the fair-queue arbiter admits them).
    pub fn job_document(
        tenant: &str,
        manifest: &TrainingManifest,
        now_us: u64,
        status: JobStatus,
    ) -> Value {
        let mut doc = dlaas_docstore::obj! {
            "tenant" => tenant,
            "name" => manifest.name.clone(),
            "status" => status.to_string(),
            "history" => vec![dlaas_docstore::obj! {
                "status" => status.to_string(),
                "t_us" => now_us,
            }],
            "manifest" => manifest.to_json(),
            // The fair-queue arbiter and quota scans need the job's GPU
            // demand without re-parsing the manifest on every sweep.
            "gpus" => manifest.total_gpus(),
            "attempts" => 0,
            "learner_restarts" => 0,
            "iteration" => 0,
            "images_per_sec" => Value::Null,
            "submitted_us" => now_us,
        };
        if status == JobStatus::Pending {
            Update::set("admitted_us", now_us).apply(&mut doc);
        }
        doc
    }

    /// Admits a queued job: QUEUED → PENDING, stamping `admitted_us`.
    /// The filter pins the current status, so concurrent arbiters (or an
    /// arbiter racing a user Kill) resolve to exactly one winner; `done`
    /// receives whether this call applied the transition.
    pub fn admit_job(
        &self,
        sim: &mut Sim,
        job: &JobId,
        done: impl FnOnce(&mut Sim, Result<bool, MetaError>) + 'static,
    ) {
        let filter = Filter::and(vec![
            Filter::eq("_id", job.as_str()),
            Filter::eq("status", JobStatus::Queued.to_string()),
        ]);
        let now_us = sim.now().as_micros();
        let to_str = JobStatus::Pending.to_string();
        let update = Update::Many(vec![
            Update::set("status", to_str.clone()),
            Update::set("admitted_us", now_us),
            Update::push(
                "history",
                dlaas_docstore::obj! { "status" => to_str.clone(), "t_us" => now_us },
            ),
        ]);
        self.update_one(sim, JOBS, filter, update, move |sim, r| {
            if matches!(r, Ok(true)) {
                sim.metrics()
                    .counter_series(metrics::JOB_TRANSITIONS, [&to_str])
                    .inc();
            }
            done(sim, r);
        });
    }

    /// Advances a job's status, enforcing forward-only transitions: the
    /// update filter only matches documents whose current status has a
    /// strictly lower lifecycle rank. `done` receives whether the
    /// transition applied.
    pub fn advance_status(
        &self,
        sim: &mut Sim,
        job: &JobId,
        to: JobStatus,
        done: impl FnOnce(&mut Sim, Result<bool, MetaError>) + 'static,
    ) {
        let allowed: Vec<Value> = [
            JobStatus::Queued,
            JobStatus::Pending,
            JobStatus::Deploying,
            JobStatus::Processing,
            JobStatus::Storing,
        ]
        .iter()
        .filter(|s| s.can_advance_to(to))
        .map(|s| Value::from(s.to_string()))
        .collect();
        let filter = Filter::and(vec![
            Filter::eq("_id", job.as_str()),
            Filter::In("status".into(), allowed),
        ]);
        let now_us = sim.now().as_micros();
        let update = Update::Many(vec![
            Update::set("status", to.to_string()),
            Update::push(
                "history",
                dlaas_docstore::obj! { "status" => to.to_string(), "t_us" => now_us },
            ),
        ]);
        let to_str = to.to_string();
        self.update_one(sim, JOBS, filter, update, move |sim, r| {
            if matches!(r, Ok(true)) {
                sim.metrics()
                    .counter_series(metrics::JOB_TRANSITIONS, [&to_str])
                    .inc();
            }
            done(sim, r);
        });
    }

    /// Parses a job document into the API's [`JobInfo`] view.
    ///
    /// # Errors
    ///
    /// [`MetaError::Rejected`] on a malformed document. Documents are
    /// platform-written, so this indicates store corruption; the caller
    /// degrades the request instead of crashing the platform process
    /// (an unmodelled crash the invariant checker could not see).
    pub fn parse_job_info(doc: &Value) -> Result<JobInfo, MetaError> {
        let malformed = |what: &str| MetaError::Rejected(format!("malformed job document: {what}"));
        let job = JobId::new(
            doc.path("_id")
                .and_then(Value::as_str)
                .ok_or_else(|| malformed("missing _id"))?,
        );
        let name = doc
            .path("name")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned();
        let status: JobStatus = doc
            .path("status")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed("missing status"))?
            .parse()
            .map_err(|_| malformed("unparseable status"))?;
        let history = doc
            .path("history")
            .and_then(Value::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|e| {
                        let s: JobStatus = e.path("status")?.as_str()?.parse().ok()?;
                        // Negative t_us = corrupt entry; drop it rather
                        // than wrapping it to a far-future timestamp.
                        let t = u64::try_from(e.path("t_us")?.as_i64()?).ok()?;
                        Some((s, t))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(JobInfo {
            job,
            name,
            status,
            history,
            iteration: doc
                .path("iteration")
                .and_then(Value::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .unwrap_or(0),
            learner_restarts: doc
                .path("learner_restarts")
                .and_then(Value::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .unwrap_or(0),
            images_per_sec: doc.path("images_per_sec").and_then(Value::as_f64),
            learners: doc
                .path("learners")
                .and_then(Value::as_obj)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| Some((k.parse().ok()?, v.as_str()?.to_owned())))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_document_shape_and_parse() {
        let m = TrainingManifest::builder("train")
            .data("d", "p/", 100)
            .results("r")
            .build()
            .unwrap();
        let mut doc = MetaClient::job_document("acme", &m, 123, JobStatus::Pending);
        assert!(doc.path("_id").is_none(), "id assigned by the store");
        assert_eq!(doc.path("status").unwrap().as_str(), Some("PENDING"));
        assert_eq!(doc.path("tenant").unwrap().as_str(), Some("acme"));
        assert_eq!(doc.path("admitted_us").unwrap().as_i64(), Some(123));
        assert_eq!(
            doc.path("gpus").unwrap().as_i64(),
            Some(i64::from(m.total_gpus()))
        );
        dlaas_docstore::Update::set("_id", "j1").apply(&mut doc);

        let info = MetaClient::parse_job_info(&doc).unwrap();
        assert_eq!(info.status, JobStatus::Pending);
        assert_eq!(info.history, vec![(JobStatus::Pending, 123)]);
        assert_eq!(info.iteration, 0);
        assert_eq!(info.images_per_sec, None);

        // The stored manifest round-trips.
        let stored = doc.path("manifest").unwrap().as_str().unwrap();
        assert_eq!(TrainingManifest::from_json(stored).unwrap(), m);
    }

    #[test]
    fn queued_document_has_no_admitted_stamp() {
        let m = TrainingManifest::builder("train")
            .data("d", "p/", 100)
            .results("r")
            .build()
            .unwrap();
        let doc = MetaClient::job_document("acme", &m, 123, JobStatus::Queued);
        assert_eq!(doc.path("status").unwrap().as_str(), Some("QUEUED"));
        assert!(doc.path("admitted_us").is_none());
        assert_eq!(doc.path("submitted_us").unwrap().as_i64(), Some(123));
    }

    #[test]
    fn parse_job_info_drops_negative_counters_and_timestamps() {
        use dlaas_docstore::obj;
        // Regression: `as i64 as u64` wrapped negative values to huge
        // u64s (a -1 iteration became 2^64-1). Corrupt history entries
        // are dropped; corrupt counters degrade to zero.
        let doc = obj! {
            "_id" => "j1",
            "status" => "PROCESSING",
            "iteration" => -3,
            "learner_restarts" => -1,
            "history" => vec![
                obj! {"status" => "PENDING", "t_us" => -7},
                obj! {"status" => "PROCESSING", "t_us" => 99},
            ],
        };
        let info = MetaClient::parse_job_info(&doc).unwrap();
        assert_eq!(info.iteration, 0);
        assert_eq!(info.learner_restarts, 0);
        assert_eq!(info.history, vec![(JobStatus::Processing, 99)]);
    }
}
