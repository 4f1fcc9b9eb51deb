//! # dlaas-sim — deterministic discrete-event simulation kernel
//!
//! Foundation of the DLaaS reproduction: every other crate in this
//! workspace (the simulated network, Raft/etcd, the Kubernetes simulator,
//! the DLaaS control plane) runs on this kernel.
//!
//! The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time,
//! * [`Sim`] — the event loop: schedule closures at future instants,
//! * [`SimRng`] — seeded, forkable randomness (one seed ⇒ one execution),
//! * [`Grid`] / [`DeadlineTimer`] — the instants a poller acts at, and a
//!   resettable one-shot, for components that wait on an event instead of
//!   polling for it,
//! * [`Trace`] — the timeline of typed marks ([`Sim::mark`]) that explains
//!   what happened to a job; off until a reader switches it on,
//! * [`TextBuf`] / [`TextView`] — the append-only text an NFS file holds
//!   and an object's body views, so the substrates hold a log once.
//!
//! # Examples
//!
//! ```
//! use dlaas_sim::{Sim, SimDuration};
//! use std::{cell::Cell, rc::Rc};
//!
//! let mut sim = Sim::new(7);
//! sim.trace_mut().set_enabled(true); // off unless asked for
//! let done = Rc::new(Cell::new(0));
//!
//! // A tiny "service" that processes a request 10ms after receiving it.
//! let d = done.clone();
//! sim.schedule_in(SimDuration::from_millis(10), move |sim| {
//!     sim.mark("service", "req-1", "processed", 0);
//!     d.set(d.get() + 1);
//! });
//!
//! sim.run_until_idle();
//! assert_eq!(done.get(), 1);
//! assert_eq!(
//!     sim.trace().of("req-1").to_string(),
//!     "[0.010s] service req-1: processed\n"
//! );
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

mod kernel;
mod rng;
mod text;
mod time;
mod timer;
mod trace;

#[cfg(feature = "site-profile")]
pub use kernel::SiteCost;
pub use kernel::{every, EventId, Sim, TimerHandle};
pub use rng::SimRng;
pub use text::{TextBuf, TextView};
pub use time::{SimDuration, SimTime};
pub use timer::{DeadlineTimer, Grid};
pub use trace::{Mark, Subject, Timeline, Trace, TRACE_RING};

// Re-exported so downstream crates can instrument through `sim.metrics()`
// without adding their own dependency on the metrics crate.
pub use dlaas_obs::{
    count_buckets, declare_metrics, default_buckets, CounterDecl, CounterHandle, GaugeDecl,
    GaugeHandle, Histogram, HistogramDecl, HistogramHandle, MetricDecl, MetricKind, Registry,
    Snapshot,
};
