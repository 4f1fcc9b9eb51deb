//! # dlaas-net — simulated datacenter network
//!
//! The communication substrate for the DLaaS reproduction, replacing the
//! real datacenter network + GRPC of the paper:
//!
//! * [`Net`] — typed message passing between named endpoints ([`Addr`])
//!   with modelled latency ([`LatencyModel`]), random loss, endpoint
//!   up/down state and partitions. Used by the Raft/etcd cluster.
//! * [`RpcLayer`] — request/response with deadlines, mirroring the GRPC
//!   calls between DLaaS microservices, and [`Retry`], the one retry loop
//!   of every client that retries (a time budget from the first send; a
//!   service call asks its [`Resolver`] for an endpoint per attempt).
//! * [`SharedLink`] — serialized fixed-rate pipes for bulk transfers
//!   (training-data streaming, checkpoints), used by the object store.
//!
//! # Examples
//!
//! ```
//! use dlaas_net::{Addr, LatencyModel, Net};
//! use dlaas_sim::{MarkDef, Sim};
//!
//! static SUBMITTED: MarkDef = MarkDef { who: "api", what: "submitted" };
//!
//! let mut sim = Sim::new(0);
//! let net: Net<u64> = Net::new(&mut sim, LatencyModel::datacenter());
//! net.register(Addr::new("api"), |sim, env| {
//!     sim.mark(&SUBMITTED, env.from.as_str(), env.msg);
//! });
//! net.send(&mut sim, Addr::new("client"), Addr::new("api"), 7);
//! sim.run_until_idle();
//! assert_eq!(net.stats().delivered, 1);
//! ```

// Library code stays quiet and inside the simulation (DESIGN.md §7).
#![warn(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::exit
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod latency;
mod link;
pub mod metrics;
mod network;
mod rpc;

pub use addr::Addr;
pub use latency::LatencyModel;
pub use link::{speeds, SharedLink, Transfer};
pub use network::{Envelope, Net, NetStats};
pub use rpc::{Attempts, Resolver, Responder, Retry, RpcError, RpcFrame, RpcLayer};
