//! # dlaas-bench — the paper's evaluation, regenerated
//!
//! One module per experiment; each binary under `src/bin/` prints the
//! corresponding table. See `EXPERIMENTS.md` at the repository root for
//! paper-vs-measured numbers.

// Library code stays quiet and inside the simulation (DESIGN.md §7).
#![warn(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::exit
)]

pub mod cli;
pub mod engine;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod harness;
pub mod marks;
pub mod matrix;
pub mod metrics;
pub mod runner;
pub mod soak;
pub mod traffic;

pub use harness::{measure_dlaas_throughput, JobRun};
