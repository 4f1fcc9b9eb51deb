//! Regenerates Figure 4: crash-recovery time by component.
//!
//! Usage: `cargo run -p dlaas-bench --bin fig4 [seed] [trials] [--threads T]`
//!
//! Each component's recoveries run as one trial of the campaign runner
//! on its own fresh rig; the table is byte-identical at any thread count.

use dlaas_bench::harness::print_table;
use dlaas_bench::{cli, fig4, metrics};

const USAGE: &str = "usage: fig4 [seed] [trials] [--threads T]";

fn main() {
    let (threads, seed, trials) = cli::parse_or_exit(USAGE, |a| {
        Ok((
            a.value("--threads")?.unwrap_or(1),
            a.positional("seed")?.unwrap_or(2018),
            a.positional("trials")?.unwrap_or(10),
        ))
    });

    eprintln!(
        "crashing every component {trials}x on a live platform (seed {seed}, {threads} thread(s))…"
    );
    let run = fig4::run_parallel(seed, trials, threads);

    // Percentiles come from the platform's metrics histograms
    // (`bench_recovery_seconds{component=…}`), not from the raw samples.
    let q = |component: &fig4::Component, q: f64| {
        run.metrics
            .quantile(
                metrics::RECOVERY_SECONDS,
                &[("component", component.label())],
                q,
            )
            .map(|s| format!("{s:.1}s"))
            .unwrap_or_else(|| "n/a".into())
    };
    let rows: Vec<Vec<String>> = run
        .results
        .iter()
        .map(|r| {
            vec![
                r.component.to_string(),
                r.stats.range_secs(),
                q(&r.component, 0.50),
                q(&r.component, 0.95),
                q(&r.component, 0.99),
                r.component.paper_range().to_owned(),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 — Time to recover from crash failures, by component",
        &[
            "Component",
            "measured (min-max)",
            "p50",
            "p95",
            "p99",
            "paper",
        ],
        &rows,
    );

    let d = fig4::guardian_creation_time(seed);
    println!(
        "\n§III-d claim: Guardian creation is quick — measured {:.1}s (paper: <3s)",
        d.as_secs_f64()
    );
}
