//! A retrying client for the metadata store, plus the job-document schema.
//!
//! Every core service reads and writes job metadata through this client.
//! The status-advance helper enforces the lifecycle invariant: a job's
//! externally visible status never moves backwards and never leaves a
//! terminal state — even when two Guardian incarnations race.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dlaas_docstore::{
    mongo_addr, Doc, Filter, MongoRequest, MongoResponse, MongoRpc, Update, Value,
};
use dlaas_net::{Addr, Attempts, Retry, RpcError};
use dlaas_sim::{CounterHandle, Sim, SimDuration};

use crate::job::{JobId, JobStatus};
use crate::manifest::TrainingManifest;
use crate::metrics;
use crate::proto::JobInfo;

/// How a metadata request is retried: 500 ms attempts 150 ms apart, 15
/// of them under pure timeouts.
const RETRY: &Retry = &Retry {
    name: "metadata",
    timeout: SimDuration::from_millis(500),
    backoff: SimDuration::from_millis(150),
    budget: SimDuration::from_millis(15 * 650),
};

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

/// Handles to the job-transition counter, one per status, each made on
/// the first transition to its status and shared by every client of a
/// platform: an acknowledged status write bumps a handle instead of
/// looking its series up.
#[derive(Debug, Clone, Default)]
pub(crate) struct Transitions(Rc<RefCell<[Option<CounterHandle>; 8]>>);

impl Transitions {
    fn count(&self, sim: &Sim, to: JobStatus) {
        self.0.borrow_mut()[to as usize]
            .get_or_insert_with(|| {
                sim.metrics()
                    .counter_series(metrics::JOB_TRANSITIONS, [to.name()])
            })
            .inc();
    }
}

/// Retrying handle to the metadata store.
#[derive(Debug, Clone)]
pub struct MetaClient {
    rpc: MongoRpc,
    from: Addr,
    to: Addr,
    /// `false` once the process the client was handed to has stopped: it
    /// sends nothing more, retries included.
    alive: Rc<Cell<bool>>,
    transitions: Transitions,
}

/// A metadata request's attempts all go to the store, and a timeout asks
/// again, until the client's process stops.
impl Attempts<MongoResponse> for MetaClient {
    fn target(&mut self, _sim: &mut Sim) -> Result<Addr, RpcError> {
        Ok(self.to.clone())
    }

    fn stopped(&self) -> bool {
        !self.alive.get()
    }
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
            transitions: Transitions::default(),
        }
    }

    /// The same client, sending only while `alive` holds and counting
    /// transitions through the platform's `transitions`.
    pub(crate) fn owned(self, alive: Rc<Cell<bool>>, transitions: Transitions) -> Self {
        MetaClient {
            alive,
            transitions,
            ..self
        }
    }

    /// Unregisters the client's RPC endpoint (process teardown): answers
    /// still on their way are dropped with it.
    pub(crate) fn close(&self) {
        self.rpc.stop_serving(&self.from);
    }

    /// Sends `req` under [`RETRY`] and hands `done` what `pick` takes out
    /// of the reply; a reply it declines is a rejection naming `what`.
    fn ask<T: 'static>(
        &self,
        sim: &mut Sim,
        what: &'static str,
        req: MongoRequest,
        done: impl FnOnce(&mut Sim, Result<T, MetaError>) + 'static,
        pick: fn(MongoResponse) -> Result<T, MongoResponse>,
    ) {
        let (rpc, from) = (&self.rpc, self.from.clone());
        RETRY.send(sim, rpc, from, req, self.clone(), move |sim, r| {
            let picked = match r {
                Ok(resp) => pick(resp).map_err(|other| {
                    MetaError::Rejected(format!("unexpected {what} response: {other:?}"))
                }),
                Err(RpcError::Remote(m)) => Err(MetaError::Rejected(m)),
                Err(_) => Err(MetaError::Unavailable),
            };
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
            Filter::eq("status", JobStatus::Queued.name()),
        ]);
        let now_us = sim.now().as_micros();
        let to = JobStatus::Pending;
        let update = Update::Many(vec![
            Update::set("status", to.name()),
            Update::set("admitted_us", now_us),
            Update::push(
                "history",
                dlaas_docstore::obj! { "status" => to.name(), "t_us" => now_us },
            ),
        ]);
        self.transition(sim, filter, update, to, done);
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
        .into_iter()
        .filter(|s| s.can_advance_to(to))
        .map(|s| Value::from(s.name()))
        .collect();
        let filter = Filter::and(vec![
            Filter::eq("_id", job.as_str()),
            Filter::In("status".into(), allowed),
        ]);
        let now_us = sim.now().as_micros();
        let update = Update::Many(vec![
            Update::set("status", to.name()),
            Update::push(
                "history",
                dlaas_docstore::obj! { "status" => to.name(), "t_us" => now_us },
            ),
        ]);
        self.transition(sim, filter, update, to, done);
    }

    /// Sends a status write and counts the transition to `to` once the
    /// store says it applied.
    fn transition(
        &self,
        sim: &mut Sim,
        filter: Filter,
        update: Update,
        to: JobStatus,
        done: impl FnOnce(&mut Sim, Result<bool, MetaError>) + 'static,
    ) {
        let transitions = self.transitions.clone();
        self.update_one(sim, JOBS, filter, update, move |sim, r| {
            if matches!(r, Ok(true)) {
                transitions.count(sim, to);
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
    use dlaas_sim::SimTime;

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

    /// A store whose writes stall from the start, and a client of it.
    fn stalled_store() -> (Sim, Rc<dlaas_docstore::MongoServer>, MongoRpc) {
        let mut sim = Sim::new(56);
        let rpc = MongoRpc::new(
            &mut sim,
            dlaas_net::LatencyModel::Fixed(SimDuration::from_millis(1)),
        );
        let server = dlaas_docstore::MongoServer::new(rpc.clone());
        server.set_fail_writes(true);
        (sim, server, rpc)
    }

    /// When an insert was answered, and how.
    type Outcome = Rc<RefCell<Option<(SimTime, Result<String, MetaError>)>>>;

    /// An insert sent into the stall, and where its outcome lands.
    fn insert(sim: &mut Sim, client: &MetaClient) -> Outcome {
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        client.insert(sim, JOBS, dlaas_docstore::obj! {"n" => 1}, move |sim, r| {
            *g.borrow_mut() = Some((sim.now(), r));
        });
        got
    }

    #[test]
    fn an_insert_into_a_write_stall_is_refused_after_its_budget() {
        let (mut sim, _server, rpc) = stalled_store();
        let got = insert(&mut sim, &MetaClient::new(rpc, "pin"));
        sim.run_for(SimDuration::from_secs(30));
        // 15 attempts of 500 ms, each followed by 150 ms of backoff.
        assert_eq!(
            *got.borrow(),
            Some((SimTime::from_millis(9_750), Err(MetaError::Unavailable)))
        );
    }

    #[test]
    fn a_stall_that_ends_inside_the_budget_is_acknowledged() {
        let (mut sim, server, rpc) = stalled_store();
        let got = insert(&mut sim, &MetaClient::new(rpc, "pin"));
        sim.run_for(SimDuration::from_secs(9));
        server.set_fail_writes(false);
        sim.run_for(SimDuration::from_secs(20));
        let got = got.borrow();
        let (at, r) = got.as_ref().expect("no outcome");
        assert!(r.is_ok(), "{r:?}");
        // The attempt sent at 9.1 s, the first after the stall: two 1 ms
        // hops and the store's 1 ms write.
        assert_eq!(at.as_millis(), 9_103);
        assert_eq!(server.store().borrow().count(JOBS, &Filter::eq("n", 1)), 1);
    }

    #[test]
    fn a_client_whose_process_stopped_mid_retry_sends_and_answers_nothing() {
        let (mut sim, _server, rpc) = stalled_store();
        let alive = Rc::new(Cell::new(true));
        let client =
            MetaClient::new(rpc.clone(), "pin").owned(alive.clone(), Transitions::default());
        let got = insert(&mut sim, &client);
        sim.run_for(SimDuration::from_secs(3));
        let sent = rpc.net().stats().sent;
        assert_eq!(sent, 5, "attempts at 0, 0.65, 1.3, 1.95 and 2.6 s");
        // What the process's teardown does.
        alive.set(false);
        client.close();
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(
            rpc.net().stats().sent,
            sent,
            "sent after its process stopped"
        );
        assert_eq!(*got.borrow(), None, "called back after its process stopped");
    }
}
