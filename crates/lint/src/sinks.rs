//! Error-sink analysis: recovery errors must go *somewhere*.
//!
//! The paper's dependability argument assumes every substrate failure
//! is either retried, propagated, or at minimum made visible to the
//! observability plane. A `Result` dropped on the floor (`let _ =`,
//! `.ok();`) is clippy's to catch (`let_underscore_must_use`,
//! `unused_result_ok` at the control-plane crate roots); what no
//! off-the-shelf lint sees is an error that *was* matched and then
//! quietly ignored.
//!
//! One rule, scoped to the control-plane crates' library code:
//!
//! - `swallowed-error`: a `match` arm with an `Err` pattern whose body
//!   neither exits (`return`/`?`), re-wraps (`Err(…)`/`Ok(…)`), calls a
//!   handler (retry scheduling, job failure, responder), nor bumps a
//!   metric. Pure value-mapping arms (`Err(_) => 0`) are fine — the
//!   mapped value *is* the handling.

use crate::engine::FileMeta;
use crate::parser::{visit, Node, ParsedFile};
use crate::rules::Finding;

/// Call names accepted as *handling* an error: metric mutation, retry
/// scheduling, job/state degradation, responders, logging to the
/// observability plane, or explicit re-wrapping.
const HANDLERS: &[&str] = &[
    "counter_series",
    "gauge_series",
    "histogram_series",
    "inc",
    "observe",
    "observe_duration_us",
    "record",
    "schedule_in",
    "schedule_at",
    "err",
    "fail",
    "fail_job",
    "retry",
    "respond",
    "done",
    "Err",
    "Ok",
    "Some",
];

/// Runs error-sink analysis over one parsed file.
pub fn check_sinks(meta: &FileMeta, parsed: &ParsedFile) -> Vec<Finding> {
    if !meta.control_plane_lib {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in parsed.fns.iter().filter(|f| !f.in_test) {
        visit(&f.body, &mut |n| {
            let Node::Branch(arms) = n else { return };
            for a in arms {
                if !a.pattern.iter().any(|p| p == "Err") {
                    continue;
                }
                let mut has_call = false;
                let mut handled = false;
                visit(&a.body, &mut |bn| match bn {
                    Node::Call(c) => {
                        // Macro calls (`format!`, …) are value
                        // construction, not work that could have
                        // handled the error.
                        if !c.is_macro {
                            has_call = true;
                        }
                        if HANDLERS.contains(&c.name.as_str())
                            // `responder.ok(sim, resp)` sends a response —
                            // propagation to the caller (0-arg `.ok()` is
                            // `Result::ok`).
                            || (c.name == "ok" && c.n_args > 0)
                        {
                            handled = true;
                        }
                    }
                    Node::Exit(_) | Node::Panic => handled = true,
                    _ => {}
                });
                // Explicitly-empty arm (`{}`/`()`): a silent swallow.
                // Call-bearing arm with no handler: the calls do work but
                // the error still vanishes. Call-free non-empty arm: value
                // mapping — the mapped value is the handling.
                if a.empty || (has_call && !handled) {
                    out.push(Finding {
                        file: meta.path.clone(),
                        line: a.line,
                        rule: "swallowed-error",
                        message: "`Err` arm neither propagates, retries, fails the job, \
                                  nor bumps a metric — a silent recovery-error sink; \
                                  handle it or justify the suppression"
                            .into(),
                    });
                }
            }
        });
    }
    out
}
