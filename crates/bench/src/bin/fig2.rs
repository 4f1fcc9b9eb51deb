//! Regenerates Figure 2: DLaaS vs IBM Cloud bare metal on K80s.
//!
//! Usage: `cargo run -p dlaas-bench --bin fig2 [seed] [iterations] [trials] [--threads T]`
//!
//! Each paper cell was a single measured run; `seed` plays the role of
//! "which day the experiment ran" (it draws the per-run jitter). The
//! (repetition, cell) trials shard across `--threads` workers; the table
//! is byte-identical at any thread count.

use dlaas_bench::harness::print_table;
use dlaas_bench::{cli, fig2};

const USAGE: &str = "usage: fig2 [seed] [iterations] [trials] [--threads T]";

fn main() {
    let (threads, seed, iterations, trials) = cli::parse_or_exit(USAGE, |a| {
        Ok((
            a.value("--threads")?.unwrap_or(1),
            a.positional("seed")?.unwrap_or(2018),
            a.positional("iterations")?.unwrap_or(400),
            a.positional("trials")?.unwrap_or(1),
        ))
    });

    eprintln!(
        "running {} full-stack training jobs (seed {seed}, {iterations} iters, {trials} trial(s), {threads} thread(s))…",
        8 * trials
    );
    let report = fig2::run_parallel(seed, iterations, trials, threads);
    eprintln!("{}", report.wall_summary("fig2"));
    let Some(trial_results) = fig2::by_repetition(&report, trials) else {
        eprintln!("\n{} abnormal trials:", report.abnormal().len());
        for r in report.failure_records() {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    };

    let rows: Vec<Vec<String>> = (0..trial_results[0].len())
        .map(|i| {
            let cell = &trial_results[0][i].cell;
            let pcts: Vec<f64> = trial_results.iter().map(|t| t[i].measured_pct).collect();
            let mean = pcts.iter().sum::<f64>() / pcts.len() as f64;
            let lo = pcts.iter().copied().fold(f64::MAX, f64::min);
            let hi = pcts.iter().copied().fold(f64::MIN, f64::max);
            let ours = if trials > 1 {
                format!("{mean:.2}% [{lo:.2}..{hi:.2}]")
            } else {
                format!("{mean:.2}%")
            };
            vec![
                cell.model.to_string(),
                cell.framework.to_string(),
                cell.gpus.to_string(),
                format!("{:.1}", trial_results[0][i].bare_metal),
                format!("{:.1}", trial_results[0][i].dlaas),
                ours,
                format!("{:.2}%", cell.paper_pct),
            ]
        })
        .collect();
    print_table(
        "Fig. 2 — Performance overhead of DLaaS vs bare metal (K80, 1GbE, COS data)",
        &[
            "Benchmark",
            "Framework",
            "#GPUs",
            "bare img/s",
            "DLaaS img/s",
            "diff (ours)",
            "diff (paper)",
        ],
        &rows,
    );

    let max = trial_results
        .iter()
        .flatten()
        .map(|r| r.measured_pct)
        .fold(f64::MIN, f64::max);
    println!("\nmax overhead: {max:.2}% — the paper's claim: overhead is minimal (≤ ~6%)");
}
