//! The rule registry: what `dlaas-lint` still has to say.
//!
//! Everything a path, a call or a type can express is enforced by the
//! compiler toolchain (clippy lints and `clippy.toml`, typed metric
//! declarations — DESIGN.md §7 maps each contract to its one enforcer).
//! What is left here needs control flow or a whole-tree view:
//!
//! - **paired-resource** — every acquire meets its release on every path;
//! - **error-sink** — an `Err` arm propagates, retries, fails the job or
//!   bumps a metric;
//! - **dependability** — every crate root forbids `unsafe`;
//! - **hygiene** — the suppressions of the above are justified, known and
//!   still load-bearing.

use crate::engine::FileMeta;
use crate::lexer::{Token, TokenKind};

/// Rule family, for grouping in reports and docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// No crashes outside the modelled fault vocabulary.
    Dependability,
    /// Every acquire meets its release (flow-aware, per-function).
    Resource,
    /// Recovery errors are propagated, retried, or made observable.
    ErrorSink,
    /// Suppressions stay honest.
    Hygiene,
}

impl Family {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Dependability => "dependability",
            Family::Resource => "paired-resource",
            Family::ErrorSink => "error-sink",
            Family::Hygiene => "hygiene",
        }
    }
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id, used in findings and `allow(...)` suppressions.
    pub id: &'static str,
    /// Family the rule belongs to.
    pub family: Family,
    /// One-line summary.
    pub summary: &'static str,
    /// Why violating it is a dependability bug.
    pub rationale: &'static str,
}

/// All rules, in the order they are documented.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "forbid-unsafe",
        family: Family::Dependability,
        summary: "every workspace crate must declare #![forbid(unsafe_code)]",
        rationale: "the workspace has zero unsafe today; forbidding it at the crate root makes \
                    memory-safety regressions a compile error rather than a review hazard",
    },
    RuleInfo {
        id: "resource-leak",
        family: Family::Resource,
        summary: "every paired acquire (etcd watch/client/lease, docstore journal) must meet \
                  its release on all paths",
        rationale: "the PR 2 client leak and PR 4 watch leaks were exactly this shape: an \
                    acquire whose release is skipped on an early-return path or never wired \
                    into the owner's teardown — the leak survives until a soak finds it",
    },
    RuleInfo {
        id: "swallowed-error",
        family: Family::ErrorSink,
        summary: "an `Err` match arm must propagate, retry, fail the job, or bump a metric",
        rationale: "an Err arm that does none of those is a silent error sink on a recovery \
                    path; the paper's dependability argument assumes every substrate failure \
                    is visible to the observability plane",
    },
    RuleInfo {
        id: "suppression-missing-justification",
        family: Family::Hygiene,
        summary: "every dlaas-lint allow(...) must carry a written justification",
        rationale: "a suppression is a reviewed exception to the determinism/dependability \
                    contract; without a recorded reason it cannot be re-audited",
    },
    RuleInfo {
        id: "suppression-unknown-rule",
        family: Family::Hygiene,
        summary: "allow(...) must name an existing rule",
        rationale: "a typo in the rule id silently disables nothing and leaves the finding \
                    unexplained",
    },
    RuleInfo {
        id: "suppression-stale",
        family: Family::Hygiene,
        summary: "an allow(...) whose rule no longer fires on its line must be removed",
        rationale: "a stale suppression is a landmine: the next genuine violation on that \
                    line is silently excused by a justification written for code that no \
                    longer exists",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// A single rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Checks a crate-root file for `#![forbid(unsafe_code)]`.
pub fn check_crate_root(meta: &FileMeta, tokens: &[Token]) -> Option<Finding> {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let found = sig.windows(4).any(|w| {
        w[0].kind == TokenKind::Ident
            && w[0].text == "forbid"
            && w[1].text == "("
            && w[2].text == "unsafe_code"
            && w[3].text == ")"
    });
    if found {
        None
    } else {
        Some(Finding {
            file: meta.path.clone(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
        })
    }
}
