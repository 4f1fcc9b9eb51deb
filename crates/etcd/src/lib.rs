//! # dlaas-etcd — replicated key-value store on Raft
//!
//! Reproduction of the etcd deployment DLaaS uses for reliable status
//! updates (paper §III-f): a 3-way replicated, Raft-consistent KV store.
//! The DLaaS *controller* (in the helper pod) records per-learner statuses
//! here; the *Guardian* reads and aggregates them. Both sides survive
//! crashes of each other and of etcd nodes.
//!
//! Pieces:
//!
//! * [`KvState`] / [`KvCommand`] — the deterministic state machine
//!   replicated through [`dlaas_raft`]; a clone of the store is its Raft
//!   snapshot,
//! * [`EtcdServer`] — per-node server: proposes writes, serves ReadIndex
//!   reads, renews leases in the leader's lessor after a ReadIndex round,
//!   and — on the member that leads — fans out watch events through a
//!   prefix-indexed registry (idempotent registration, O(log n) cancel,
//!   per-commit dispatch that examines only the event key's own
//!   prefixes),
//! * [`EtcdCluster`] — harness owning Raft + servers, with crash/restart,
//! * [`EtcdClient`] — leader discovery, retries, watches that are
//!   re-registered where a member's restart broke them.
//!
//! # Examples
//!
//! ```
//! use dlaas_etcd::EtcdCluster;
//! use dlaas_sim::{Sim, SimDuration};
//! use std::{cell::RefCell, rc::Rc};
//!
//! let mut sim = Sim::new(1);
//! let etcd = EtcdCluster::new_3way(&mut sim);
//! etcd.expect_leader(&mut sim, SimDuration::from_secs(5));
//!
//! let client = etcd.client("demo");
//! let got = Rc::new(RefCell::new(None));
//! let g = got.clone();
//! client.put(&mut sim, "jobs/1/status", "PROCESSING", |_, r| { r.unwrap(); });
//! sim.run_for(SimDuration::from_secs(2));
//! client.get(&mut sim, "jobs/1/status", move |_, r| {
//!     *g.borrow_mut() = r.unwrap();
//! });
//! sim.run_for(SimDuration::from_secs(2));
//! assert_eq!(got.borrow().as_deref(), Some("PROCESSING"));
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

mod client;
mod cluster;
mod kv;
mod lessor;
pub mod marks;
pub mod metrics;
mod proto;
mod server;

pub use client::EtcdClient;
pub use cluster::EtcdCluster;
pub use kv::{
    ApplyOutcome, KvCommand, KvEvent, KvOp, KvState, LeaseId, LeaseRecord, Revision, VersionedValue,
};
pub use proto::{etcd_addr, EtcdError, EtcdRequest, EtcdResponse, WatchNotify};
pub use server::{EtcdRpc, EtcdServer, ServerCore, WatchNet, LEASE_SWEEP_PERIOD};
