//! # dlaas-docstore — journaled document store (the MongoDB stand-in)
//!
//! DLaaS keeps all job metadata in MongoDB: *"When a job deployment request
//! arrives, the API layer stores all the metadata in MongoDB before
//! acknowledging the request. This ensures that submitted jobs are never
//! lost."* (paper §III-c). This crate reproduces the pieces of MongoDB
//! that guarantee relies on:
//!
//! * [`Value`] / [`obj!`] — JSON/BSON-like documents; an object
//!   ([`Obj`]) is a key-sorted vector of pairs that holds no spare room,
//! * [`Filter`] / [`Update`] — queries and mutations over dotted paths;
//!   [`Update::apply`] says whether it changed the document,
//! * [`DocStore`] — collections with secondary indexes (equality *and*
//!   `In` filters route through them, preserving scan order) and a
//!   write-ahead [`Journal`] of redo records ([`JournalOp`]);
//!   [`DocStore::recover`] rebuilds state after a crash by redoing them.
//!   Documents are handed out as shared snapshots ([`Doc`]); an update
//!   edits the stored copy in place unless someone still holds it,
//! * [`MongoServer`] — the store as an RPC service with modelled
//!   journal-write/read latencies and crash/recover.
//!
//! # Examples
//!
//! ```
//! use dlaas_docstore::{obj, DocStore, Filter, Update};
//!
//! let mut db = DocStore::new();
//! db.insert("jobs", obj! { "_id" => "j1", "status" => "PENDING" })?;
//!
//! // Crash: everything in memory is gone, the journal survives.
//! let journal = db.journal().clone();
//! drop(db);
//!
//! let recovered = DocStore::recover(journal);
//! assert!(recovered.find_one("jobs", &Filter::eq("_id", "j1")).is_some());
//! # Ok::<(), dlaas_docstore::StoreError>(())
//! ```

// No unmodelled crash, no silently dropped error (DESIGN.md §7): a panic
// here is a platform process dying outside the fault vocabulary, a
// discarded `Result` a recovery error nobody can attribute.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]
// Library code stays quiet and inside the simulation (DESIGN.md §7).
#![warn(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::exit
)]
#![warn(missing_docs)]

pub mod metrics;
mod query;
mod server;
mod store;
mod value;

pub use query::{Filter, Update};
pub use server::{mongo_addr, MongoRequest, MongoResponse, MongoRpc, MongoServer, MongoTimings};
pub use store::{Doc, DocStore, Journal, JournalOp, StoreError};
pub use value::{Obj, Value};
