//! Paired-resource analysis: every acquire must meet its release.
//!
//! The bugs PRs 2 and 4 fixed by hand — a per-teardown etcd client
//! leak, watches left registered across leader failover — are all the
//! same shape: an *acquire* call (`watch_prefix`, `etcd_client`, lease
//! grant) whose *release* (`unwatch`, `close`, revoke) is missing on
//! some path. This module makes that shape a lint finding.
//!
//! The pairs table is data, not code: each [`PairSpec`] names the
//! acquire, the accepted releases, and the crates in scope. Analysis is
//! intraprocedural and deliberately modest:
//!
//! - An acquire whose value is **consumed** (returned, chained,
//!   propagated with `?`, or passed as an argument) transfers ownership
//!   to its consumer and is exempt here — the consumer's own body is
//!   analysed in turn.
//! - An acquire **bound to a local** gets the all-paths check: every
//!   path from the acquire to function exit must hit a release. A
//!   cleanup closure containing the release discharges the obligation
//!   at its registration point (the guardian teardown idiom); `?` and
//!   `return` before any release are leak paths.
//! - If the binding **escapes** (appears as a call argument after the
//!   acquire — stored in a struct, moved into a registry), the
//!   obligation is file-level: some release of the same pair must
//!   appear in the file, usually in the owning type's teardown.
//! - A **discarded** acquire (`…;` / `let _ =`) is always a finding:
//!   the handle needed to release is already gone.

use crate::engine::FileMeta;
use crate::parser::{visit, Block, Call, ExitKind, FnInfo, Node, ParsedFile};
use crate::rules::Finding;

/// One acquire/release pair the platform must balance.
pub struct PairSpec {
    /// Short pair name for messages (`etcd-watch`, …).
    pub name: &'static str,
    /// Method/function name that acquires the resource.
    pub acquire: &'static str,
    /// When set, the acquire only matches if the receiver ident
    /// contains this hint (distinguishes `etcd.client(…)` from other
    /// `client` methods).
    pub recv_hint: Option<&'static str>,
    /// Calls accepted as releasing the resource.
    pub releases: &'static [&'static str],
}

/// The pairs table. `lease_grant` went live with the replicated LCM
/// (`crates/core/src/lcm.rs` holds one lease per replica; its one
/// sanctioned unbalanced grant carries a justification — server-side
/// expiry is the release). `journal_begin` has no workspace call sites
/// yet; it is listed so the contract exists the day the API grows one.
pub const PAIRS: &[PairSpec] = &[
    PairSpec {
        name: "etcd-watch",
        acquire: "watch_prefix",
        recv_hint: None,
        releases: &["unwatch", "close"],
    },
    PairSpec {
        name: "etcd-client",
        acquire: "etcd_client",
        recv_hint: None,
        releases: &["close"],
    },
    PairSpec {
        name: "etcd-client",
        acquire: "client",
        recv_hint: Some("etcd"),
        releases: &["close"],
    },
    PairSpec {
        name: "etcd-lease",
        acquire: "lease_grant",
        recv_hint: None,
        releases: &["lease_revoke", "close"],
    },
    PairSpec {
        name: "docstore-journal",
        acquire: "journal_begin",
        recv_hint: None,
        releases: &["journal_commit", "journal_abort"],
    },
];

fn spec_matches(spec: &PairSpec, c: &Call) -> bool {
    if c.name != spec.acquire || c.is_macro {
        return false;
    }
    match spec.recv_hint {
        Some(hint) => c.qualifier.as_deref().is_some_and(|q| q.contains(hint)),
        None => true,
    }
}

fn is_release(spec: &PairSpec, c: &Call) -> bool {
    spec.releases.contains(&c.name.as_str()) && !c.is_macro
}

/// Whether a block (a cleanup closure body, say) contains a release.
fn contains_release(spec: &PairSpec, b: &Block) -> bool {
    let mut found = false;
    visit(b, &mut |n| {
        if let Node::Call(c) = n {
            if is_release(spec, c) {
                found = true;
            }
        }
    });
    found
}

/// Whether the binding `name` escapes the function after the acquire:
/// used as a call argument, returned, or moved somewhere the parser
/// cannot see a release for. Method calls *on* the binding are plain
/// uses, not escapes.
fn binding_escapes(name: &str, body: &Block) -> bool {
    let mut escapes = false;
    visit(body, &mut |n| {
        if let Node::Call(c) = n {
            if c.first_arg.as_deref() == Some(name) || c.second_arg.as_deref() == Some(name) {
                escapes = true;
            }
        }
    });
    escapes
}

/// All-paths check: from the node after the acquire, does every path to
/// function exit hit a release? `rest` is the continuation for falling
/// off the end of the current node list.
fn released_on_all_paths(
    spec: &PairSpec,
    nodes: &[Node],
    k: usize,
    rest: &dyn Fn() -> bool,
) -> bool {
    let Some(node) = nodes.get(k) else {
        return rest();
    };
    match node {
        Node::Call(c) if is_release(spec, c) => true,
        // A cleanup closure that performs the release discharges the
        // obligation at its registration point.
        Node::Closure(body) if contains_release(spec, body) => true,
        Node::Exit(ExitKind::Return | ExitKind::Question) => false,
        Node::Branch(arms) => arms.iter().all(|a| {
            released_on_all_paths(spec, &a.body.nodes, 0, &|| {
                released_on_all_paths(spec, nodes, k + 1, rest)
            })
        }),
        // A loop body may run zero times; only what follows is certain.
        _ => released_on_all_paths(spec, nodes, k + 1, rest),
    }
}

/// Locates the acquire call at `line` inside `nodes` and runs the
/// all-paths check from just past it. Branch arms and loop/closure
/// bodies are searched recursively; the continuation for an arm is the
/// code after its branch.
fn check_from_acquire(
    spec: &PairSpec,
    nodes: &[Node],
    line: u32,
    rest: &dyn Fn() -> bool,
) -> Option<bool> {
    for (k, n) in nodes.iter().enumerate() {
        match n {
            Node::Call(c) if c.line == line && spec_matches(spec, c) => {
                return Some(released_on_all_paths(spec, nodes, k + 1, rest));
            }
            Node::Branch(arms) => {
                for a in arms {
                    if let Some(ok) = check_from_acquire(spec, &a.body.nodes, line, &|| {
                        released_on_all_paths(spec, nodes, k + 1, rest)
                    }) {
                        return Some(ok);
                    }
                }
            }
            Node::Loop(body) | Node::Closure(body) => {
                // Within a loop/closure, require a release before the
                // end of that body (re-acquisition next iteration would
                // otherwise stack leaks).
                if let Some(ok) = check_from_acquire(spec, &body.nodes, line, &|| false) {
                    return Some(ok);
                }
            }
            _ => {}
        }
    }
    None
}

fn finding(meta: &FileMeta, line: u32, message: String) -> Finding {
    Finding {
        file: meta.path.clone(),
        line,
        rule: "resource-leak",
        message,
    }
}

fn check_fn(
    meta: &FileMeta,
    f: &FnInfo,
    file_has_release: &dyn Fn(&PairSpec) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut acquires: Vec<(&PairSpec, u32, Option<String>, bool, bool)> = Vec::new();
    visit(&f.body, &mut |n| {
        if let Node::Call(c) = n {
            for spec in PAIRS {
                if spec_matches(spec, c) {
                    acquires.push((spec, c.line, c.bound_to.clone(), c.discarded, c.consumed));
                }
            }
        }
    });
    for (spec, line, bound, discarded, consumed) in acquires {
        let releases = spec.releases.join("`/`");
        match bound.as_deref() {
            // `let _ =` throws the handle away: nothing can release it.
            Some("_") => out.push(finding(
                meta,
                line,
                format!(
                    "`{}` acquires a {} resource but the handle is discarded with `let _ =`; \
                     keep it and call `{releases}`",
                    spec.acquire, spec.name
                ),
            )),
            Some(name) if binding_escapes(name, &f.body) => {
                // Ownership moved out of this fn: the release must live
                // somewhere in the same file (the owner's teardown).
                if !file_has_release(spec) {
                    out.push(finding(
                        meta,
                        line,
                        format!(
                            "`{}` acquires a {} resource that escapes `{}`, but this file \
                             contains no `{releases}` — release it in the owner's teardown",
                            spec.acquire, spec.name, f.name
                        ),
                    ));
                }
            }
            Some(_) => {
                let ok = check_from_acquire(spec, &f.body.nodes, line, &|| false).unwrap_or(true);
                if !ok {
                    out.push(finding(
                        meta,
                        line,
                        format!(
                            "`{}` acquires a {} resource in `{}` but `{releases}` is not \
                             called on every path to function exit (early `return`/`?` paths \
                             leak it)",
                            spec.acquire, spec.name, f.name
                        ),
                    ));
                }
            }
            None if discarded => out.push(finding(
                meta,
                line,
                format!(
                    "`{}` acquires a {} resource whose handle is dropped on the spot; bind it \
                     and call `{releases}`",
                    spec.acquire, spec.name
                ),
            )),
            // Consumed (returned / chained / argument): ownership
            // transfers to the consumer, which is analysed in turn.
            None if consumed => {}
            None => {
                if !file_has_release(spec) {
                    out.push(finding(
                        meta,
                        line,
                        format!(
                            "`{}` acquires a {} resource but this file contains no \
                             `{releases}`",
                            spec.acquire, spec.name
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Runs paired-resource analysis over one parsed file.
pub fn check_pairs(meta: &FileMeta, parsed: &ParsedFile) -> Vec<Finding> {
    if !meta.control_plane_lib {
        return Vec::new();
    }
    let file_has_release = |spec: &PairSpec| {
        parsed.fns.iter().any(|f| {
            // Accept a release in any fn of the file, *or* a fn whose
            // name is itself a release entry (this file defines the
            // teardown, e.g. `close` delegating to raw RPCs).
            spec.releases.contains(&f.name.as_str()) || contains_release(spec, &f.body)
        })
    };
    let mut out = Vec::new();
    for f in &parsed.fns {
        if f.in_test {
            continue;
        }
        out.extend(check_fn(meta, f, &file_has_release));
    }
    out
}
