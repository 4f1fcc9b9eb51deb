//! # dlaas-net — simulated datacenter network
//!
//! The communication substrate for the DLaaS reproduction, replacing the
//! real datacenter network + GRPC of the paper:
//!
//! * [`Net`] — typed message passing between named endpoints ([`Addr`])
//!   with modelled latency ([`LatencyModel`]), random loss, endpoint
//!   up/down state and partitions. Used by the Raft/etcd cluster.
//! * [`RpcLayer`] — request/response with deadlines, retries and
//!   service resolution, mirroring the GRPC calls between DLaaS
//!   microservices. [`RoundRobin`] is the standalone load balancer.
//! * [`SharedLink`] — serialized fixed-rate pipes for bulk transfers
//!   (training-data streaming, checkpoints), used by the object store.
//!
//! # Examples
//!
//! ```
//! use dlaas_net::{Addr, LatencyModel, Net};
//! use dlaas_sim::Sim;
//!
//! let mut sim = Sim::new(0);
//! let net: Net<&'static str> = Net::new(&mut sim, LatencyModel::datacenter());
//! net.register(Addr::new("api"), |sim, env| {
//!     sim.mark("api", env.from.as_str(), env.msg, 0);
//! });
//! net.send(&mut sim, Addr::new("client"), Addr::new("api"), "submit");
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
mod network;
mod rpc;

pub use addr::Addr;
pub use latency::LatencyModel;
pub use link::{speeds, SharedLink, Transfer};
pub use network::{Envelope, Net, NetStats};
pub use rpc::{Resolver, Responder, RoundRobin, RpcError, RpcFrame, RpcLayer};
