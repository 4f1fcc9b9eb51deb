//! The document store as a network service (the "MongoDB pod").
//!
//! A single-primary server over the RPC layer with a modelled per-op disk
//! latency. Crash/restart reproduces MongoDB's journaled recovery: the
//! in-memory store dies with the process; the journal survives and the
//! restarted server loads its checkpoint and redoes the records since.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dlaas_net::{Addr, Responder, RpcLayer};
use dlaas_sim::{Sim, SimDuration};

use crate::metrics;
use crate::query::{Filter, Update};
use crate::store::{Doc, DocStore, Journal, StoreError};
use crate::value::Value;

/// Requests understood by the document-store server.
#[derive(Debug, Clone, PartialEq)]
pub enum MongoRequest {
    /// Insert a document.
    InsertOne {
        /// Target collection.
        coll: String,
        /// The document (object root).
        doc: Value,
    },
    /// Return the first matching document.
    FindOne {
        /// Target collection.
        coll: String,
        /// Predicate.
        filter: Filter,
    },
    /// Return all matching documents.
    Find {
        /// Target collection.
        coll: String,
        /// Predicate.
        filter: Filter,
    },
    /// Update the first matching document.
    UpdateOne {
        /// Target collection.
        coll: String,
        /// Predicate.
        filter: Filter,
        /// Mutation.
        update: Update,
    },
    /// Delete the first matching document.
    DeleteOne {
        /// Target collection.
        coll: String,
        /// Predicate.
        filter: Filter,
    },
    /// Return the change feed above a watermark (see
    /// [`DocStore::changed_since`]): work proportional to the number of
    /// changed documents, not the collection size.
    FindChanged {
        /// Target collection.
        coll: String,
        /// Sequence watermark; `0` means the full feed.
        since: u64,
    },
}

/// Responses from the document-store server.
#[derive(Debug, Clone, PartialEq)]
pub enum MongoResponse {
    /// Insert succeeded with this id.
    Inserted {
        /// Assigned or provided `_id`.
        id: String,
    },
    /// Zero-or-one document.
    Doc(Option<Doc>),
    /// All matching documents.
    Docs(Vec<Doc>),
    /// Number of documents updated.
    Updated(usize),
    /// Number of documents deleted.
    Deleted(usize),
    /// Change feed above the requested watermark.
    Changed {
        /// Documents that changed and still exist, in change order.
        docs: Vec<Doc>,
        /// Ids whose latest change was a removal.
        gone: Vec<String>,
        /// Current high-water sequence number (the next `since`).
        high_water: u64,
    },
}

/// RPC layer type used by the document store.
pub type MongoRpc = RpcLayer<MongoRequest, MongoResponse>;

/// Well-known address of the metadata store service.
pub fn mongo_addr() -> Addr {
    Addr::new("mongodb")
}

/// Modelled service time of a mutation (journal fsync).
const WRITE_LATENCY: SimDuration = SimDuration::from_micros(1_500);
/// Modelled service time of a query (served from cache).
const READ_LATENCY: SimDuration = SimDuration::from_micros(300);

/// The MongoDB stand-in service.
pub struct MongoServer {
    store: Rc<RefCell<DocStore>>,
    rpc: MongoRpc,
    addr: Addr,
    up: Rc<RefCell<bool>>,
    /// Degraded mode: writes are dropped (clients time out) while reads
    /// keep working — a journal-device stall rather than a full crash.
    fail_writes: Rc<RefCell<bool>>,
    /// Per-op handles to the `mongo_docs_examined` histogram, resolved on
    /// each op's first observation and bumped directly thereafter — the
    /// per-request label canonicalization is off the hot path.
    examined: RefCell<BTreeMap<&'static str, dlaas_sim::HistogramHandle>>,
}

impl std::fmt::Debug for MongoServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MongoServer")
            .field("addr", &self.addr)
            .field("up", &*self.up.borrow())
            .finish()
    }
}

impl MongoServer {
    /// Starts a fresh server (empty store, new journal) at [`mongo_addr`].
    pub fn new(rpc: MongoRpc) -> Rc<Self> {
        Self::with_store(rpc, DocStore::new())
    }

    /// Starts a server over an existing store (used for recovery).
    fn with_store(rpc: MongoRpc, store: DocStore) -> Rc<Self> {
        let server = Rc::new(MongoServer {
            store: Rc::new(RefCell::new(store)),
            rpc,
            addr: mongo_addr(),
            up: Rc::new(RefCell::new(true)),
            fail_writes: Rc::new(RefCell::new(false)),
            examined: RefCell::new(BTreeMap::new()),
        });
        server.serve();
        server
    }

    fn serve(self: &Rc<Self>) {
        let me = Rc::downgrade(self);
        self.rpc
            .serve(self.addr.clone(), move |sim, req, responder| {
                if let Some(server) = me.upgrade() {
                    if *server.up.borrow() {
                        server.handle(sim, req, responder);
                    }
                    // A crashed server drops the request: the client times out.
                }
            });
    }

    /// The journal — survives crashes; feed it to [`MongoServer::recover`].
    pub fn journal(&self) -> Journal {
        self.store.borrow().journal().clone()
    }

    /// Enters or leaves the degraded write-stall mode: while set, mutation
    /// requests are silently dropped (the client times out and retries)
    /// but reads are still served. Models a stalled journal device — the
    /// failure Fig. 4's "MongoDB crash" row recovers from without losing
    /// any acknowledged write.
    pub fn set_fail_writes(&self, fail: bool) {
        *self.fail_writes.borrow_mut() = fail;
    }

    /// Crash: stop serving. The journal survives.
    pub fn crash(&self) {
        *self.up.borrow_mut() = false;
        // The in-memory store is left as it is, but nothing reads it
        // again: a crashed server answers no request, and recovery builds
        // a new store from the journal (the disk), which whoever
        // orchestrates it takes through `journal()`.
    }

    /// Builds a recovered server from a journal (call after [`MongoServer::crash`]).
    pub fn recover(rpc: MongoRpc, journal: Journal) -> Rc<Self> {
        Self::with_store(rpc, DocStore::recover(journal))
    }

    /// Direct handle to the store (test/debug aid; bypasses the network).
    pub fn store(&self) -> &Rc<RefCell<DocStore>> {
        &self.store
    }

    fn handle(
        self: &Rc<Self>,
        sim: &mut Sim,
        req: &MongoRequest,
        responder: Responder<MongoRequest, MongoResponse>,
    ) {
        let is_write = matches!(
            req,
            MongoRequest::InsertOne { .. }
                | MongoRequest::UpdateOne { .. }
                | MongoRequest::DeleteOne { .. }
        );
        if is_write && *self.fail_writes.borrow() {
            return; // stalled journal: the client times out
        }
        let delay = if is_write {
            WRITE_LATENCY
        } else {
            READ_LATENCY
        };
        // Work-count label for query-bearing ops (None: no candidate scan).
        let op_label = match req {
            MongoRequest::InsertOne { .. } => None,
            MongoRequest::FindOne { .. } => Some("find_one"),
            MongoRequest::Find { .. } => Some("find"),
            MongoRequest::UpdateOne { .. } => Some("update_one"),
            MongoRequest::DeleteOne { .. } => Some("delete_one"),
            MongoRequest::FindChanged { .. } => Some("find_changed"),
        };
        let me = self.clone();
        // The op runs after the modelled disk delay, by when the borrow
        // of the request has ended: the responder lends it again.
        sim.schedule_in(delay, move |sim| {
            if !*me.up.borrow() {
                return; // crashed while the op was "on disk path"
            }
            let mut store = me.store.borrow_mut();
            let resp = match responder.request() {
                MongoRequest::InsertOne { coll, doc } => match store.insert(coll, doc.clone()) {
                    Ok(id) => MongoResponse::Inserted { id },
                    Err(e) => {
                        drop(store);
                        responder.err(sim, e.to_string());
                        return;
                    }
                },
                MongoRequest::FindOne { coll, filter } => {
                    MongoResponse::Doc(store.find_one(coll, filter))
                }
                MongoRequest::Find { coll, filter } => {
                    MongoResponse::Docs(store.find(coll, filter))
                }
                // Refused by the store as well; answered as an error here,
                // as an insert of a NaN is.
                MongoRequest::UpdateOne { update, .. } if update.holds_nan() => {
                    drop(store);
                    responder.err(sim, StoreError::NotANumber.to_string());
                    return;
                }
                MongoRequest::UpdateOne {
                    coll,
                    filter,
                    update,
                } => MongoResponse::Updated(store.update_one(coll, filter, update) as usize),
                MongoRequest::DeleteOne { coll, filter } => {
                    MongoResponse::Deleted(store.delete_one(coll, filter) as usize)
                }
                MongoRequest::FindChanged { coll, since } => {
                    let (docs, gone, high_water) = store.changed_since(coll, *since);
                    MongoResponse::Changed {
                        docs,
                        gone,
                        high_water,
                    }
                }
            };
            let examined = store.last_examined();
            drop(store);
            if let Some(op) = op_label {
                me.examined
                    .borrow_mut()
                    .entry(op)
                    .or_insert_with(|| sim.metrics().histogram_series(metrics::DOCS_EXAMINED, [op]))
                    .observe(examined as f64);
            }
            responder.ok(sim, resp);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;
    use dlaas_net::LatencyModel;

    fn boot() -> (Sim, MongoRpc, Rc<MongoServer>) {
        let mut sim = Sim::new(1);
        let rpc: MongoRpc = RpcLayer::new(&mut sim, LatencyModel::local());
        let server = MongoServer::new(rpc.clone());
        (sim, rpc, server)
    }

    fn call(
        sim: &mut Sim,
        rpc: &MongoRpc,
        req: MongoRequest,
    ) -> Rc<RefCell<Option<Result<MongoResponse, dlaas_net::RpcError>>>> {
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        rpc.call(
            sim,
            Addr::new("client"),
            mongo_addr(),
            req,
            SimDuration::from_secs(1),
            move |_, r| *o.borrow_mut() = Some(r),
        );
        out
    }

    #[test]
    fn insert_and_find_over_rpc() {
        let (mut sim, rpc, _server) = boot();
        let ins = call(
            &mut sim,
            &rpc,
            MongoRequest::InsertOne {
                coll: "jobs".into(),
                doc: obj! { "_id" => "j1", "status" => "PENDING" },
            },
        );
        sim.run_until_idle();
        assert_eq!(
            ins.borrow().clone().unwrap().unwrap(),
            MongoResponse::Inserted { id: "j1".into() }
        );

        let found = call(
            &mut sim,
            &rpc,
            MongoRequest::FindOne {
                coll: "jobs".into(),
                filter: Filter::eq("_id", "j1"),
            },
        );
        sim.run_until_idle();
        let r = found.borrow().clone().unwrap().unwrap();
        match r {
            MongoResponse::Doc(Some(doc)) => {
                assert_eq!(doc.path("status").unwrap().as_str(), Some("PENDING"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn duplicate_insert_returns_remote_error() {
        let (mut sim, rpc, _server) = boot();
        let req = MongoRequest::InsertOne {
            coll: "jobs".into(),
            doc: obj! { "_id" => "dup" },
        };
        let first = call(&mut sim, &rpc, req.clone());
        sim.run_until_idle();
        assert!(first.borrow().clone().unwrap().is_ok());
        let second = call(&mut sim, &rpc, req);
        sim.run_until_idle();
        let r = second.borrow().clone().unwrap();
        match r {
            Err(dlaas_net::RpcError::Remote(m)) => assert!(m.contains("duplicate")),
            other => panic!("expected remote error, got {other:?}"),
        }
    }

    #[test]
    fn crash_drops_requests_then_recovery_serves_journaled_data() {
        let (mut sim, rpc, server) = boot();
        call(
            &mut sim,
            &rpc,
            MongoRequest::InsertOne {
                coll: "jobs".into(),
                doc: obj! { "_id" => "precrash" },
            },
        );
        sim.run_until_idle();

        server.crash();
        let during = call(
            &mut sim,
            &rpc,
            MongoRequest::Find {
                coll: "jobs".into(),
                filter: Filter::True,
            },
        );
        sim.run_until_idle();
        assert_eq!(
            during.borrow().clone().unwrap(),
            Err(dlaas_net::RpcError::Timeout),
            "requests during the crash must time out"
        );

        let journal = server.journal();
        let _recovered = MongoServer::recover(rpc.clone(), journal);
        let after = call(
            &mut sim,
            &rpc,
            MongoRequest::FindOne {
                coll: "jobs".into(),
                filter: Filter::eq("_id", "precrash"),
            },
        );
        sim.run_until_idle();
        let r = after.borrow().clone().unwrap().unwrap();
        match r {
            MongoResponse::Doc(Some(_)) => {}
            other => panic!("journaled insert lost across crash: {other:?}"),
        }
    }

    #[test]
    fn fail_writes_drops_mutations_but_serves_reads() {
        let (mut sim, rpc, server) = boot();
        call(
            &mut sim,
            &rpc,
            MongoRequest::InsertOne {
                coll: "jobs".into(),
                doc: obj! { "_id" => "j1" },
            },
        );
        sim.run_until_idle();

        server.set_fail_writes(true);
        let write = call(
            &mut sim,
            &rpc,
            MongoRequest::InsertOne {
                coll: "jobs".into(),
                doc: obj! { "_id" => "j2" },
            },
        );
        let read = call(
            &mut sim,
            &rpc,
            MongoRequest::FindOne {
                coll: "jobs".into(),
                filter: Filter::eq("_id", "j1"),
            },
        );
        sim.run_until_idle();
        assert_eq!(
            write.borrow().clone().unwrap(),
            Err(dlaas_net::RpcError::Timeout),
            "writes must time out while stalled"
        );
        assert!(
            matches!(
                read.borrow().clone().unwrap(),
                Ok(MongoResponse::Doc(Some(_)))
            ),
            "reads keep working while writes stall"
        );

        server.set_fail_writes(false);
        let after = call(
            &mut sim,
            &rpc,
            MongoRequest::InsertOne {
                coll: "jobs".into(),
                doc: obj! { "_id" => "j3" },
            },
        );
        sim.run_until_idle();
        assert!(after.borrow().clone().unwrap().is_ok());
    }

    #[test]
    fn find_changed_feeds_watermarked_changes_over_rpc() {
        let (mut sim, rpc, server) = boot();
        for i in 0..3 {
            call(
                &mut sim,
                &rpc,
                MongoRequest::InsertOne {
                    coll: "jobs".into(),
                    doc: obj! { "_id" => format!("j{i}") },
                },
            );
        }
        sim.run_until_idle();

        let first = call(
            &mut sim,
            &rpc,
            MongoRequest::FindChanged {
                coll: "jobs".into(),
                since: 0,
            },
        );
        sim.run_until_idle();
        let hw = match first.borrow().clone().unwrap().unwrap() {
            MongoResponse::Changed {
                docs,
                gone,
                high_water,
            } => {
                assert_eq!(docs.len(), 3);
                assert!(gone.is_empty());
                high_water
            }
            other => panic!("unexpected: {other:?}"),
        };

        call(
            &mut sim,
            &rpc,
            MongoRequest::DeleteOne {
                coll: "jobs".into(),
                filter: Filter::eq("_id", "j1"),
            },
        );
        sim.run_until_idle();

        // The feed is a read: it keeps working while writes stall.
        server.set_fail_writes(true);
        let second = call(
            &mut sim,
            &rpc,
            MongoRequest::FindChanged {
                coll: "jobs".into(),
                since: hw,
            },
        );
        sim.run_until_idle();
        match second.borrow().clone().unwrap().unwrap() {
            MongoResponse::Changed {
                docs,
                gone,
                high_water,
            } => {
                assert!(docs.is_empty());
                assert_eq!(gone, vec!["j1".to_owned()]);
                assert_eq!(high_water, hw + 1);
            }
            other => panic!("unexpected: {other:?}"),
        };
    }

    #[test]
    fn write_latency_exceeds_read_latency() {
        let (mut sim, rpc, _server) = boot();
        call(
            &mut sim,
            &rpc,
            MongoRequest::InsertOne {
                coll: "c".into(),
                doc: obj! {"a" => 1},
            },
        );
        sim.run_until_idle();
        let t_write = sim.now();
        call(
            &mut sim,
            &rpc,
            MongoRequest::Find {
                coll: "c".into(),
                filter: Filter::True,
            },
        );
        sim.run_until_idle();
        let t_read = sim.now() - t_write;
        assert!(t_read < t_write.duration_since(dlaas_sim::SimTime::ZERO));
    }
}
