//! The rule registry: what `dlaas-lint` forbids, where, and why.
//!
//! Three families, mirroring the platform's dependability argument
//! (Boag et al., DSN 2018 — bounded, *modelled* failure modes):
//!
//! - **determinism** — anything that could make two same-seed runs
//!   diverge: wall clocks, OS threads, RNG streams not derived from the
//!   run seed. (Hashed-iteration order is clippy's `disallowed-types`.)
//! - **dependability** — platform processes must never crash outside the
//!   modelled fault vocabulary: no `unwrap`/`panic!` on control-plane
//!   paths, no `unsafe` anywhere.
//! - **hygiene** — library code stays quiet; only binaries talk to a
//!   terminal.

use crate::engine::{FileClass, FileMeta};
use crate::lexer::{Token, TokenKind};

/// Rule family, for grouping in reports and docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Same-seed reproducibility.
    Determinism,
    /// No crashes outside the modelled fault vocabulary.
    Dependability,
    /// Every acquire meets its release (flow-aware, per-function).
    Resource,
    /// Recovery errors are propagated, retried, or made observable.
    ErrorSink,
    /// One metric name ⇒ one kind, one label set; hot paths interned.
    MetricContract,
    /// No panic site reachable from a control-plane entry point.
    Reachability,
    /// Library code stays quiet.
    Hygiene,
}

impl Family {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Determinism => "determinism",
            Family::Dependability => "dependability",
            Family::Resource => "paired-resource",
            Family::ErrorSink => "error-sink",
            Family::MetricContract => "metric-contract",
            Family::Reachability => "reachability",
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
        id: "wall-clock",
        family: Family::Determinism,
        summary: "no SystemTime / Instant in simulation code",
        rationale: "wall-clock reads differ across runs and hosts; all time must come from the \
                    simulated clock (Sim::now) so same-seed runs replay byte-identically",
    },
    RuleInfo {
        id: "thread-spawn",
        family: Family::Determinism,
        summary: "no std::thread / thread::spawn outside the bench campaign runner",
        rationale: "OS scheduling is nondeterministic; the simulation is single-threaded by \
                    design and all concurrency is modelled as events. The single sanctioned \
                    exemption is crates/bench/src/runner.rs, which shards whole (still \
                    single-threaded) Sims across workers and merges results deterministically",
    },
    RuleInfo {
        id: "process-escape",
        family: Family::Determinism,
        summary: "no std::process in library code",
        rationale: "spawning or exiting real processes escapes the simulation; only CLI \
                    binaries may use process exit codes",
    },
    RuleInfo {
        id: "unseeded-rng",
        family: Family::Determinism,
        summary: "no SimRng::new outside dlaas-sim",
        rationale: "components must fork their stream from the run seed (sim.rng().fork(label)); \
                    a privately-constructed generator breaks the one-seed-reproduces-everything \
                    contract",
    },
    RuleInfo {
        id: "panic-in-core",
        family: Family::Dependability,
        summary: "no unwrap/expect/panic!/todo!/unimplemented! in non-test dlaas-core code",
        rationale: "a panic in a control-plane service is an unmodelled process crash: the \
                    invariant checker cannot attribute it to a fault, and the paper's \
                    dependability argument only covers modelled failure modes — degrade the job \
                    (FAILED, invariant-visible) instead",
    },
    RuleInfo {
        id: "forbid-unsafe",
        family: Family::Dependability,
        summary: "every workspace crate must declare #![forbid(unsafe_code)]",
        rationale: "the workspace has zero unsafe today; forbidding it at the crate root makes \
                    memory-safety regressions a compile error rather than a review hazard",
    },
    RuleInfo {
        id: "debug-print",
        family: Family::Hygiene,
        summary: "no println!/eprintln!/print!/eprint!/dbg! in library code",
        rationale: "library output pollutes benchmark tables and CI logs and tempts \
                    wall-clock-style debugging; binaries, examples, and tests may print",
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
        id: "discarded-result",
        family: Family::ErrorSink,
        summary: "control-plane code must not drop call results with `let _ =` or a \
                  statement-level `.ok()`",
        rationale: "a discarded Result is a recovery error that vanished: no retry, no \
                    propagation, no metric — the fault matrix cannot attribute the resulting \
                    stuck job to anything",
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
        id: "metric-kind-collision",
        family: Family::MetricContract,
        summary: "one metric name must be used as exactly one kind (counter/gauge/histogram)",
        rationale: "a name registered as two kinds produces garbage series at exposition; \
                    the manifest pins each name to the kind its describe() declares",
    },
    RuleInfo {
        id: "metric-arity-mismatch",
        family: Family::MetricContract,
        summary: "every write to a metric name must use the same label keys",
        rationale: "Prometheus semantics require a stable label set per name; mismatched \
                    arity or keys silently splits one logical metric into unjoinable series",
    },
    RuleInfo {
        id: "metric-uninterned",
        family: Family::MetricContract,
        summary: "hot crates (sim/etcd/kube) must mutate metrics through interned handles",
        rationale: "name-based mutation re-canonicalizes the label set on every call; PR 6 \
                    interned handles exist so the per-event hot path does a single array \
                    index instead",
    },
    RuleInfo {
        id: "panic-reachable",
        family: Family::Reachability,
        summary: "no unwrap/expect/panic! in substrate crates reachable from a dlaas-core \
                  entry point",
        rationale: "the control plane executes etcd/kube/docstore code in-process; a panic \
                    there is the same unmodelled crash panic-in-core forbids, just one call \
                    deeper",
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

fn shipping_code(meta: &FileMeta) -> bool {
    !matches!(meta.class, FileClass::Test | FileClass::Vendored)
}

/// The single module allowed to touch OS threads: the campaign runner in
/// `dlaas-bench`. It parallelises across *whole* `Sim` instances (each
/// one still single-threaded) and merges results by trial id, so the
/// determinism contract holds at any thread count. Everywhere else,
/// `thread-spawn` fires.
fn bench_runner_module(meta: &FileMeta) -> bool {
    meta.krate == "bench" && meta.path.ends_with("src/runner.rs")
}

/// Runs all token-level rules over one file. `in_test[i]` marks tokens
/// inside `#[cfg(test)]` / `#[test]` scopes (exempt from every rule).
pub fn check_tokens(meta: &FileMeta, tokens: &[Token], in_test: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !shipping_code(meta) || meta.krate == "lint" {
        // The linter itself is an offline host-side tool, not simulation
        // code; it is still covered by forbid-unsafe and the clippy gate.
        return findings;
    }
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let lib_like = matches!(meta.class, FileClass::Lib);
    let runner_exempt = bench_runner_module(meta);

    let ident_at = |k: usize| -> Option<&str> {
        sig.get(k)
            .map(|&i| &tokens[i])
            .and_then(|t| (t.kind == TokenKind::Ident).then_some(t.text.as_str()))
    };
    let punct_at = |k: usize| -> Option<&str> {
        sig.get(k)
            .map(|&i| &tokens[i])
            .and_then(|t| (t.kind == TokenKind::Punct).then_some(t.text.as_str()))
    };

    for (k, &i) in sig.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let tok = &tokens[i];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let mut push = |rule: &'static str, message: String| {
            findings.push(Finding {
                file: meta.path.clone(),
                line: tok.line,
                rule,
                message,
            });
        };
        match tok.text.as_str() {
            "SystemTime" | "Instant" => push(
                "wall-clock",
                format!(
                    "`{}` reads the host clock; use the simulated clock (`Sim::now`)",
                    tok.text
                ),
            ),
            "thread"
                if !runner_exempt
                    && punct_at(k + 1) == Some(":")
                    && punct_at(k + 2) == Some(":")
                    && ident_at(k + 3) == Some("spawn") =>
            {
                push(
                    "thread-spawn",
                    "`thread::spawn` introduces OS scheduling nondeterminism; model concurrency \
                     as simulation events, or route campaign fan-out through \
                     `dlaas_bench::runner`"
                        .into(),
                );
            }
            "std"
                if !runner_exempt
                    && punct_at(k + 1) == Some(":")
                    && punct_at(k + 2) == Some(":")
                    && ident_at(k + 3) == Some("thread") =>
            {
                push(
                    "thread-spawn",
                    "`std::thread` introduces OS scheduling nondeterminism; model concurrency \
                     as simulation events, or route campaign fan-out through \
                     `dlaas_bench::runner`"
                        .into(),
                );
            }
            "std"
                if lib_like
                    && punct_at(k + 1) == Some(":")
                    && punct_at(k + 2) == Some(":")
                    && ident_at(k + 3) == Some("process") =>
            {
                push(
                    "process-escape",
                    "`std::process` escapes the simulation; only CLI binaries may exit or spawn"
                        .into(),
                );
            }
            "SimRng"
                if meta.krate != "sim"
                    && punct_at(k + 1) == Some(":")
                    && punct_at(k + 2) == Some(":")
                    && ident_at(k + 3) == Some("new") =>
            {
                push(
                    "unseeded-rng",
                    "`SimRng::new` creates a stream detached from the run seed; fork from the \
                     simulation root instead (`sim.rng().fork(label)`)"
                        .into(),
                );
            }
            "unwrap" | "expect"
                if meta.krate == "core" && lib_like && k > 0 && punct_at(k - 1) == Some(".") =>
            {
                push(
                    "panic-in-core",
                    format!(
                        "`.{}()` can panic the platform process — an unmodelled crash; propagate \
                         the error so the job degrades to FAILED instead",
                        tok.text
                    ),
                );
            }
            "panic" | "todo" | "unimplemented"
                if meta.krate == "core" && lib_like && punct_at(k + 1) == Some("!") =>
            {
                push(
                    "panic-in-core",
                    format!(
                        "`{}!` crashes the platform process outside the modelled fault \
                         vocabulary; return an error or fail the job",
                        tok.text
                    ),
                );
            }
            "println" | "eprintln" | "print" | "eprint" | "dbg"
                if lib_like && punct_at(k + 1) == Some("!") =>
            {
                push(
                    "debug-print",
                    format!(
                        "`{}!` in library code; route output through the caller (binaries and \
                         tests may print)",
                        tok.text
                    ),
                );
            }
            _ => {}
        }
    }
    findings
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
