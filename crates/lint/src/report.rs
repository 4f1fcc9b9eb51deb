//! Deterministic text and JSON rendering of a lint [`Report`].
//!
//! Output is a pure function of the findings: entries are pre-sorted by
//! the engine and the JSON writer emits keys in a fixed order with
//! hand-rolled escaping, so byte-identical trees produce byte-identical
//! reports (exercised by the output-stability test).

use crate::engine::Report;
use crate::rules::RULES;

/// Renders the human-readable report.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    let status = if report.clean() { "clean" } else { "FAIL" };
    out.push_str(&format!(
        "dlaas-lint: {} — {} finding(s), {} suppressed, {} file(s) scanned\n",
        status,
        report.findings.len(),
        report.suppressed.len(),
        report.files_scanned
    ));
    out
}

/// Renders the rule registry (for `--list-rules`).
pub fn render_rules() -> String {
    let mut out = String::new();
    for r in RULES {
        out.push_str(&format!("{:<34} [{}] {}\n", r.id, r.family, r.summary));
    }
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as stable JSON (fixed key order, sorted entries).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"files_scanned\":{},", report.files_scanned));
    out.push_str("\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"rule\":\"{}\"}}",
            escape(&f.file),
            f.line,
            escape(&f.message),
            f.rule
        ));
    }
    out.push_str("],\"suppressed\":[");
    for (i, s) in report.suppressed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"justification\":\"{}\",\"line\":{},\"rule\":\"{}\"}}",
            escape(&s.finding.file),
            escape(&s.justification),
            s.finding.line,
            s.finding.rule
        ));
    }
    out.push_str("]}");
    out.push('\n');
    out
}
