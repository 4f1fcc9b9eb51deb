//! Thread-count invariance of the campaign runner: the same campaign
//! must produce byte-identical reports, JSON artifacts, and metrics
//! expositions whether it ran on one worker or eight. This is the
//! acceptance gate for the seed-parallel runner — parallelism may only
//! change wall-clock, never bytes.

use dlaas_bench::cli::Args;
use dlaas_bench::matrix::{self, FaultKind};
use dlaas_bench::soak;

/// Everything byte-comparable a matrix campaign produces: the rendered
/// JSON artifact, the aggregated metrics exposition, and every outcome's
/// describe line, in order.
fn matrix_fingerprint(base_seed: u64, seeds: u64, threads: usize) -> String {
    let campaign = matrix::sweep(&FaultKind::all(), base_seed, seeds, threads, None);
    let mut out = matrix::render_matrix_json(base_seed, seeds, &campaign);
    out.push_str(&campaign.run.metrics.expose());
    for o in &campaign.run.outcomes {
        out.push_str(&o.describe());
        out.push('\n');
    }
    for r in &campaign.report.records {
        out.push_str(&r.describe());
        out.push('\n');
    }
    out
}

#[test]
fn fault_matrix_is_byte_identical_at_any_thread_count() {
    let one = matrix_fingerprint(700, 1, 1);
    let eight = matrix_fingerprint(700, 1, 8);
    assert_eq!(
        one, eight,
        "fault-matrix campaign diverged between --threads 1 and --threads 8"
    );
    assert!(
        one.contains("bench_matrix_recovery_seconds"),
        "campaign recorded no recovery observations"
    );
}

/// Every soak preset at smoke size: the byte-stable artifact and the
/// per-trial records are the same bytes on one worker, on eight, and on a
/// second same-seed run.
#[test]
fn soak_artifacts_are_byte_identical_at_any_thread_count_and_across_runs() {
    for (preset, sizes) in [
        ("uniform", "20,40"),
        ("traffic", "100,200"),
        ("chaos", "8,16"),
    ] {
        let fingerprint = |threads: &str| {
            let args = [preset, "--threads", threads, "710", sizes];
            let cli = Args::new(args.map(str::to_owned))
                .read(soak::parse_cli)
                .expect("valid command line");
            let report = soak::campaign(&cli);
            let runs: Vec<&soak::SoakRun> = report.results().collect();
            assert_eq!(runs.len(), 2, "{preset}: a trial went abnormal");
            for r in &runs {
                assert_eq!(r.malformed(), None, "{preset}");
            }
            let mut out = soak::render_json(cli.preset, cli.seed, &runs);
            for r in &report.records {
                out.push_str(&r.describe());
                out.push('\n');
            }
            out
        };
        let one = fingerprint("1");
        assert_eq!(
            one,
            fingerprint("8"),
            "{preset} soak diverged between --threads 1 and --threads 8"
        );
        assert_eq!(
            one,
            fingerprint("1"),
            "{preset} soak diverged between two same-seed runs"
        );
    }
}
