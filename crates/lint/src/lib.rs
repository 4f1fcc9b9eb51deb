//! `dlaas-lint` — the workspace determinism & dependability contract,
//! machine-checked.
//!
//! Every result this reproduction stands on (byte-identical same-seed
//! metrics, the fault-matrix campaign, the invariant checker) assumes the
//! simulation is strictly deterministic and that platform processes never
//! crash outside the modelled fault vocabulary. This crate is a
//! from-scratch, offline static-analysis pass — a hand-rolled Rust
//! lexer, a loss-tolerant item/block parser, and a workspace call
//! graph, no external dependencies — that enforces that discipline:
//!
//! - **determinism**: no wall clocks, OS threads or seed-detached RNG
//!   streams in simulation crates (hashed collections are clippy's:
//!   `disallowed-types` in `clippy.toml`);
//! - **dependability**: no `unwrap`/`panic!` on `dlaas-core`
//!   control-plane paths, `#![forbid(unsafe_code)]` in every crate,
//!   every paired resource released on every path (`pairs`), no
//!   silently-discarded recovery errors (`sinks`), no substrate
//!   panic reachable from a public core entry (`reach`);
//! - **observability**: one metric name ⇒ one kind and one label set,
//!   interned handles on hot paths, and a committed manifest of the
//!   whole metric surface (`metrics_contract`);
//! - **hygiene**: library code does not print, and every suppression
//!   is justified, known, and still load-bearing.
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
//! let report = lint_source(&meta, "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, "panic-in-core");
//! ```

#![forbid(unsafe_code)]

mod engine;
mod lexer;
mod metrics_contract;
mod pairs;
mod parser;
mod reach;
mod report;
mod rules;
mod scopes;
mod sinks;

pub use engine::{
    classify, lint_files, lint_source, lint_workspace, metric_manifest, FileClass, FileMeta,
    Report, Suppressed,
};
pub use lexer::{lex, Token, TokenKind};
pub use parser::{
    parse_file, ArgValue, Block, BranchKind, Call, ExitKind, FnInfo, Node, ParsedFile,
};
pub use report::{render_json, render_rules, render_text};
pub use rules::{rule, Family, Finding, RuleInfo, RULES};
