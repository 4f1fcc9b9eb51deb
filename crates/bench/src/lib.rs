//! # dlaas-bench — the paper's evaluation, regenerated
//!
//! One module per experiment; each binary under `src/bin/` prints the
//! corresponding table. See `EXPERIMENTS.md` at the repository root for
//! paper-vs-measured numbers.

#![forbid(unsafe_code)]

pub mod engine;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod harness;
pub mod matrix;
pub mod runner;
pub mod soak;
pub mod traffic;

pub use harness::{measure_dlaas_throughput, JobRun};
