//! `dlaas-lint` — the part of the workspace's dependability contract that
//! only a flow-aware, whole-tree pass can check.
//!
//! Every result this reproduction stands on (byte-identical same-seed
//! metrics, the fault-matrix campaign, the invariant checker) assumes the
//! simulation is strictly deterministic and that platform processes never
//! crash outside the modelled fault vocabulary. Most of that discipline is
//! enforced by the compiler toolchain — clippy lints and `clippy.toml`
//! for clocks, threads, RNG seeding, panics, prints and discarded
//! results; types for the metric contract (DESIGN.md §7 has the table).
//! This crate is what is left: a from-scratch, offline static-analysis
//! pass — a hand-rolled Rust lexer and a loss-tolerant function/block
//! parser, no external dependencies — for the three things nothing else
//! can say:
//!
//! - every paired resource (etcd watch / client / lease, docstore
//!   journal) is released on every path (`pairs`);
//! - no `Err` arm on a recovery path swallows its error (`sinks`);
//! - every crate root declares `#![forbid(unsafe_code)]`;
//!
//! plus the hygiene of its own suppressions: each is justified, names a
//! real rule, and is still load-bearing.
//!
//! Violations at reviewed, sound sites are suppressed per-line with
//! `// dlaas-lint: allow(<rule>): <justification>` — the justification is
//! mandatory and itself lint-enforced.
//!
//! Run it with `cargo run -p dlaas-lint -- --workspace` (exits non-zero
//! on findings); CI runs the same command as a required job.
//!
//! # Examples
//!
//! ```
//! use dlaas_lint::{classify, lint_source};
//!
//! let meta = classify("crates/core/src/demo.rs").unwrap();
//! let report = lint_source(
//!     &meta,
//!     "fn f(sim: &mut Sim) { match probe(sim) { Ok(v) => apply(v), Err(_) => {} } }",
//! );
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, "swallowed-error");
//! ```

#![forbid(unsafe_code)]

mod engine;
mod lexer;
mod pairs;
mod parser;
mod report;
mod rules;
mod scopes;
mod sinks;

pub use engine::{classify, lint_files, lint_source, lint_workspace, FileMeta, Report, Suppressed};
pub use report::{render_json, render_rules, render_text};
pub use rules::Finding;
