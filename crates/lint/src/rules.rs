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

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id, used in findings and `allow(...)` suppressions.
    pub id: &'static str,
    /// Family the rule belongs to (see the module docs).
    pub family: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// All rules, in the order they are documented.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "forbid-unsafe",
        family: "dependability",
        summary: "every workspace crate must declare #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "resource-leak",
        family: "paired-resource",
        summary: "every paired acquire (etcd watch/client/lease, docstore journal) must meet \
                  its release on all paths",
    },
    RuleInfo {
        id: "swallowed-error",
        family: "error-sink",
        summary: "an `Err` match arm must propagate, retry, fail the job, or bump a metric",
    },
    RuleInfo {
        id: "suppression-missing-justification",
        family: "hygiene",
        summary: "every dlaas-lint allow(...) must carry a written justification",
    },
    RuleInfo {
        id: "suppression-unknown-rule",
        family: "hygiene",
        summary: "allow(...) must name an existing rule",
    },
    RuleInfo {
        id: "suppression-stale",
        family: "hygiene",
        summary: "an allow(...) whose rule no longer fires on its line must be removed",
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
