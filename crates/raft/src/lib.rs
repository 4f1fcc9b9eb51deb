//! # dlaas-raft — Raft consensus for the etcd substrate
//!
//! A from-scratch implementation of the Raft consensus protocol (leader
//! election, log replication, commitment, and ReadIndex linearizable
//! reads) running over the [`dlaas_net`] simulated network. The DLaaS
//! paper stores learner/job status in etcd, which is "replicated (3-way),
//! and uses the Raft consensus protocol to ensure consistency" (§III-f);
//! this crate is that consensus layer.
//!
//! Design notes:
//!
//! * **Persistence** — each node's durable state ([`PersistentState`])
//!   lives outside the crashable node object, on a "disk" owned by
//!   [`RaftCluster`]. Crash/restart therefore exercises the real recovery
//!   path: volatile state is rebuilt, the state machine is re-derived by
//!   replaying the log.
//! * **No-op barrier** — a fresh leader appends a no-op entry so an entry
//!   of its term commits promptly, which both releases ReadIndex reads and
//!   commits trailing entries from prior terms (Raft §5.4.2).
//! * **Fixed membership** — the paper's etcd is a fixed 3-way replica set;
//!   membership change is out of scope.
//!
//! # Examples
//!
//! ```
//! use dlaas_raft::{RaftCluster, RaftConfig};
//! use dlaas_net::LatencyModel;
//! use dlaas_sim::{Sim, SimDuration};
//! use std::rc::Rc;
//!
//! let mut sim = Sim::new(1);
//! // State machines that ignore commands (see RaftCluster tests for a
//! // recording state machine).
//! let cluster: RaftCluster<u64> = RaftCluster::new(
//!     &mut sim,
//!     3,
//!     RaftConfig::default(),
//!     LatencyModel::datacenter(),
//!     Rc::new(|_id| Box::new(|_sim, _idx, _cmd| {})),
//!     0,
//! );
//! let leader = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
//! cluster.node(leader).propose(&mut sim, 7).unwrap();
//! sim.run_for(SimDuration::from_secs(1));
//! assert!(cluster.node(leader).commit_index() >= 1);
//! ```

// Library code stays quiet and inside the simulation (DESIGN.md §7).
#![warn(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::exit
)]
#![warn(missing_docs)]

mod cluster;
mod keepalive;
mod node;
mod types;

pub use cluster::{ApplyFactory, RaftCluster};
pub use node::{raft_addr, ApplyFn, NotLeader, Raft, ReadFn, SnapshotFactory, SnapshotHooks};
pub use types::{
    LogEntry, LogIndex, NodeId, PersistentState, RaftConfig, RaftMsg, Role, Snapshot, Term,
};
