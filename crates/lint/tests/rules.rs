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
/// which also runs the cross-file passes (metric contract, panic
/// reachability, stale-suppression audit).
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
fn wall_clock_rule() {
    let r = lint_fixture("wall_clock.rs", "crates/net/src/demo.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![("wall-clock", 5), ("wall-clock", 9)]
    );
    assert_eq!(suppressed_rules_and_lines(&r), vec![("wall-clock", 14)]);
    assert!(r.suppressed[0].justification.contains("fixture"));
}

#[test]
fn thread_and_process_rules() {
    let r = lint_fixture("thread_process.rs", "crates/gpu/src/demo.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![("thread-spawn", 4), ("process-escape", 9)]
    );
    assert_eq!(suppressed_rules_and_lines(&r), vec![("process-escape", 14)]);
}

#[test]
fn thread_spawn_exempt_in_bench_campaign_runner() {
    // The one sanctioned home for OS threads: the seed-parallel campaign
    // runner, which shards whole Sims and merges results by trial id.
    let r = lint_fixture("parallel_runner.rs", "crates/bench/src/runner.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
}

#[test]
fn thread_spawn_fires_everywhere_else_in_bench() {
    let r = lint_fixture("parallel_runner.rs", "crates/bench/src/matrix.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![("thread-spawn", 4), ("thread-spawn", 11)]
    );
}

#[test]
fn thread_spawn_exemption_does_not_cover_other_crates_runner_rs() {
    // Only `crates/bench/src/runner.rs` is exempt; a runner.rs elsewhere
    // still violates the single-threaded-sim contract.
    let r = lint_fixture("parallel_runner.rs", "crates/sim/src/runner.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![("thread-spawn", 4), ("thread-spawn", 11)]
    );
}

#[test]
fn process_escape_exempt_in_binaries() {
    let r = lint_fixture("thread_process.rs", "crates/gpu/src/main.rs");
    // The CLI surface may exit, but OS threads stay forbidden everywhere.
    assert_eq!(rules_and_lines(&r), vec![("thread-spawn", 4)]);
}

#[test]
fn unseeded_rng_rule() {
    let r = lint_fixture("unseeded_rng.rs", "crates/bench/src/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![("unseeded-rng", 4)]);
    assert_eq!(suppressed_rules_and_lines(&r), vec![("unseeded-rng", 10)]);
}

#[test]
fn unseeded_rng_exempt_inside_sim() {
    let r = lint_fixture("unseeded_rng.rs", "crates/sim/src/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
}

#[test]
fn panic_in_core_rule() {
    let r = lint_fixture("panic_in_core.rs", "crates/core/src/demo.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![
            ("panic-in-core", 4),
            ("panic-in-core", 8),
            ("panic-in-core", 12),
            ("panic-in-core", 16),
        ]
    );
    assert_eq!(suppressed_rules_and_lines(&r), vec![("panic-in-core", 21)]);
}

#[test]
fn panic_rule_scoped_to_core() {
    let r = lint_fixture("panic_in_core.rs", "crates/net/src/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
}

#[test]
fn debug_print_rule() {
    let r = lint_fixture("debug_print.rs", "crates/obs/src/demo.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![("debug-print", 4), ("debug-print", 8)]
    );
    assert_eq!(suppressed_rules_and_lines(&r), vec![("debug-print", 13)]);
}

#[test]
fn debug_print_exempt_in_binaries() {
    let r = lint_fixture("debug_print.rs", "crates/obs/src/main.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
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
    let r = lint_fixture("bad_suppressions.rs", "crates/net/src/demo.rs");
    assert_eq!(
        rules_and_lines(&r),
        vec![
            ("suppression-unknown-rule", 5),
            ("wall-clock", 6),
            ("suppression-missing-justification", 10),
            ("wall-clock", 11),
        ]
    );
    assert_eq!(suppressed_rules_and_lines(&r), vec![]);
}

#[test]
fn clean_file_stays_clean() {
    let r = lint_fixture("clean.rs", "crates/net/src/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
    assert_eq!(suppressed_rules_and_lines(&r), vec![]);
}

#[test]
fn test_files_are_exempt_from_token_rules() {
    let r = lint_fixture("panic_in_core.rs", "crates/core/tests/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
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
        vec![
            ("discarded-result", 5),
            ("discarded-result", 6),
            ("swallowed-error", 12),
            ("swallowed-error", 16),
        ]
    );
    assert_eq!(
        suppressed_rules_and_lines(&r),
        vec![("swallowed-error", 39)]
    );
}

#[test]
fn error_sink_scoped_to_control_plane_crates() {
    let r = lint_fixture("error_sink.rs", "crates/net/src/demo.rs");
    assert_eq!(rules_and_lines(&r), vec![]);
}

#[test]
fn metric_contract_rules() {
    let r = lint_fixtures_together(&[
        ("metric_sites_a.rs", "crates/core/src/metrics_demo.rs"),
        ("metric_sites_b.rs", "crates/kube/src/demo.rs"),
    ]);
    let mut got = rules_and_lines(&r);
    got.sort_unstable();
    assert_eq!(
        got,
        vec![
            ("metric-arity-mismatch", 5),
            ("metric-kind-collision", 10),
            ("metric-uninterned", 5),
            ("metric-uninterned", 6),
            ("metric-uninterned", 10),
        ]
    );
    // Every finding lands in the hot drifting file, none in the declarer.
    assert!(r.findings.iter().all(|f| f.file.contains("kube")));
}

#[test]
fn metric_mutation_unflagged_in_cold_crates() {
    // The same name-based `inc` is fine outside the hot crates.
    let r = lint_fixtures_together(&[("metric_sites_a.rs", "crates/core/src/metrics_demo.rs")]);
    assert_eq!(rules_and_lines(&r), vec![]);
}

#[test]
fn panic_reachability_rule() {
    let r = lint_fixtures_together(&[
        ("reach_entry.rs", "crates/core/src/demo.rs"),
        ("reach_substrate.rs", "crates/etcd/src/demo.rs"),
    ]);
    // Reached via submit_job → validate_manifest → decode_manifest_body;
    // the orphan helper's panic is unreachable and stays silent.
    assert_eq!(rules_and_lines(&r), vec![("panic-reachable", 10)]);
    assert!(r.findings[0].message.contains("validate_manifest"));
    assert_eq!(
        suppressed_rules_and_lines(&r),
        vec![("panic-reachable", 15)]
    );
}

#[test]
fn panic_unreachable_without_core_entry() {
    // No core entry file in the set: nothing is reachable — and the
    // now-pointless allow(panic-reachable) is itself reported as stale.
    let r = lint_fixtures_together(&[("reach_substrate.rs", "crates/etcd/src/demo.rs")]);
    assert_eq!(rules_and_lines(&r), vec![("suppression-stale", 14)]);
}

#[test]
fn stale_suppressions_are_findings_in_workspace_mode() {
    let r = lint_fixtures_together(&[("stale_suppression.rs", "crates/net/src/demo.rs")]);
    assert_eq!(rules_and_lines(&r), vec![("suppression-stale", 11)]);
    assert_eq!(suppressed_rules_and_lines(&r), vec![("wall-clock", 6)]);
}

#[test]
fn stale_suppressions_tolerated_in_single_file_mode() {
    // `lint_source` skips the stale audit: fixtures and editor
    // integrations lint fragments where the rest of the file is absent.
    let r = lint_fixture("stale_suppression.rs", "crates/net/src/demo.rs");
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
fn committed_metric_manifest_matches_the_workspace() {
    let root = workspace_root();
    let generated = dlaas_lint::metric_manifest(&root).expect("manifest renderable");
    let committed = std::fs::read_to_string(root.join("metrics-manifest.json"))
        .expect("metrics-manifest.json exists at the repo root");
    assert_eq!(
        generated, committed,
        "metrics-manifest.json is stale — regenerate with \
         `cargo run -p dlaas-lint -- --workspace --metric-manifest metrics-manifest.json`"
    );
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
    let m: FileMeta = classify("crates/core/src/demo.rs").unwrap();
    assert_eq!(m.krate, "core");
    assert!(classify("README.md").is_none());
    assert!(classify("src/weird.rs").is_none());
}
