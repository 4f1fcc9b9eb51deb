//! Fixture-driven tests: every rule exercised with a positive case, a
//! suppressed case, and a clean/exempt case, plus the self-referential
//! checks (the workspace itself is clean; JSON output is stable).

use std::path::Path;

use dlaas_lint::{
    classify, lint_files, lint_source, lint_workspace, render_json, FileMeta, Report,
};

fn fixture_src(fixture: &str) -> String {
    std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(fixture),
    )
    .expect("fixture readable")
}

fn lint_fixture(fixture: &str, as_path: &str) -> Report {
    let meta = classify(as_path).expect("classifiable path");
    lint_source(&meta, &fixture_src(fixture))
}

/// Lints a set of fixtures together through the workspace pipeline,
/// which also runs the stale-suppression audit.
fn lint_fixtures_together(pairs: &[(&str, &str)]) -> Report {
    let files: Vec<(FileMeta, String)> = pairs
        .iter()
        .map(|(fixture, as_path)| {
            (
                classify(as_path).expect("classifiable path"),
                fixture_src(fixture),
            )
        })
        .collect();
    lint_files(&files)
}

fn rules_and_lines(r: &Report) -> Vec<(&'static str, u32)> {
    r.findings.iter().map(|f| (f.rule, f.line)).collect()
}

fn suppressed_rules_and_lines(r: &Report) -> Vec<(&'static str, u32)> {
    r.suppressed
        .iter()
        .map(|s| (s.finding.rule, s.finding.line))
        .collect()
}

#[test]
fn forbid_unsafe_rule() {
    let r = lint_fixture("missing_forbid_unsafe.rs", "crates/demo/src/lib.rs");
    assert_eq!(rules_and_lines(&r), vec![("forbid-unsafe", 1)]);
    // The same text anywhere but a crate root is fine.
    let r = lint_fixture("missing_forbid_unsafe.rs", "crates/demo/src/other.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
}

#[test]
fn bad_suppressions_are_findings_and_suppress_nothing() {
    let r = lint_fixture("bad_suppressions.rs", "crates/core/src/demo.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![
            ("suppression-unknown-rule", 8),
            ("swallowed-error", 9),
            ("suppression-missing-justification", 16),
            ("swallowed-error", 17),
        ]
    );
    assert_eq!(suppressed_rules_and_lines(&r), vec![]);
}

#[test]
fn clean_file_stays_clean() {
    let r = lint_fixture("clean.rs", "crates/core/src/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
    assert_eq!(suppressed_rules_and_lines(&r), vec![]);
}

#[test]
fn test_files_are_exempt_from_flow_rules() {
    for fixture in ["error_sink.rs", "resource_leak.rs"] {
        let r = lint_fixture(fixture, "crates/core/tests/demo.rs");
        assert_eq!(rules_and_lines(&r), vec![], "{fixture}");
    }
}

#[test]
fn resource_leak_rule() {
    let r = lint_fixture("resource_leak.rs", "crates/core/src/demo.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![("resource-leak", 4), ("resource-leak", 8)]
    );
    assert_eq!(suppressed_rules_and_lines(&r), vec![("resource-leak", 31)]);
    // The discarded acquire and the early-`?` leak read differently.
    assert!(r.findings[0].message.contains("dropped on the spot"));
    assert!(r.findings[1].message.contains("every path"));
}

#[test]
fn resource_leak_scoped_to_pair_crates() {
    // `net` is not a pair crate: watches there are someone else's model.
    let r = lint_fixture("resource_leak.rs", "crates/net/src/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
}

#[test]
fn lease_pair_rule() {
    // The etcd-lease pair went live with the replicated LCM: a grant
    // must be balanced by `lease_revoke` or `close` on every path (or
    // carry a justification naming expiry as the designed release).
    let r = lint_fixture("lease_pair.rs", "crates/core/src/demo.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![("resource-leak", 6), ("resource-leak", 10)]
    );
    assert!(r.findings.iter().all(|f| f.message.contains("etcd-lease")));
    assert_eq!(suppressed_rules_and_lines(&r), vec![("resource-leak", 39)]);
    assert!(r.suppressed[0].justification.contains("expiry"));
}

#[test]
fn lease_pair_scoped_to_pair_crates() {
    // `bench` drives platforms from outside; its lease calls model
    // other components' resources, not its own.
    let r = lint_fixture("lease_pair.rs", "crates/bench/src/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
}

#[test]
fn error_sink_rules() {
    let r = lint_fixture("error_sink.rs", "crates/core/src/demo.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![("swallowed-error", 7), ("swallowed-error", 11)]
    );
    assert_eq!(
        suppressed_rules_and_lines(&r),
        vec![("swallowed-error", 38)]
    );
}

#[test]
fn error_sink_scoped_to_control_plane_crates() {
    let r = lint_fixture("error_sink.rs", "crates/net/src/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
}

#[test]
fn stale_suppressions_are_findings_in_workspace_mode() {
    let r = lint_fixtures_together(&[("stale_suppression.rs", "crates/core/src/demo.rs")]);
    assert_eq!(rules_and_lines(&r), vec![("suppression-stale", 10)]);
    assert_eq!(suppressed_rules_and_lines(&r), vec![("resource-leak", 6)]);
}

#[test]
fn stale_suppressions_tolerated_in_single_file_mode() {
    // `lint_source` skips the stale audit: fixtures and editor
    // integrations lint fragments where the rest of the file is absent.
    let r = lint_fixture("stale_suppression.rs", "crates/core/src/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
}

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolvable")
}

#[test]
fn the_workspace_itself_is_clean() {
    let report = lint_workspace(&workspace_root()).expect("workspace lintable");
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        report.clean(),
        "dlaas-lint found violations in the workspace:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    // Every surviving suppression carries a written justification.
    for s in &report.suppressed {
        assert!(
            !s.justification.is_empty(),
            "unjustified allow at {}:{}",
            s.finding.file,
            s.finding.line
        );
    }
}

#[test]
fn json_output_is_stable_across_runs() {
    let root = workspace_root();
    let a = render_json(&lint_workspace(&root).expect("first run"));
    let b = render_json(&lint_workspace(&root).expect("second run"));
    assert_eq!(a, b, "two lints of the same tree must render identically");
    assert!(a.starts_with('{') && a.ends_with("}\n"));
}

#[test]
fn fixture_meta_classification() {
    assert!(
        classify("crates/core/src/demo.rs")
            .unwrap()
            .control_plane_lib
    );
    for elsewhere in [
        "crates/core/src/bin/tool.rs",
        "crates/core/tests/demo.rs",
        "crates/net/src/demo.rs",
        "tests/tests/demo.rs",
    ] {
        assert!(
            !classify(elsewhere).unwrap().control_plane_lib,
            "{elsewhere}"
        );
    }
    assert!(classify("README.md").is_none());
    assert!(classify("src/weird.rs").is_none());
}
