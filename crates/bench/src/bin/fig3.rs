//! Regenerates Figure 3: DLaaS (PCIe P100) vs NVIDIA DGX-1 (NVLink).
//!
//! Usage: `cargo run -p dlaas-bench --bin fig3 [seed] [iterations] [trials]`

use dlaas_bench::harness::print_table;
use dlaas_bench::{cli, fig3};

const USAGE: &str = "usage: fig3 [seed] [iterations] [trials]";

fn main() {
    let (seed, iterations, trials): (u64, u64, u64) = cli::parse_or_exit(USAGE, |a| {
        Ok((
            a.positional("seed")?.unwrap_or(2018),
            a.positional("iterations")?.unwrap_or(400),
            a.positional("trials")?.unwrap_or(1),
        ))
    });

    eprintln!(
        "running {} full-stack training jobs (seed {seed}, {iterations} iters, {trials} trial(s))…",
        6 * trials
    );
    let trial_results: Vec<Vec<fig3::Fig3Result>> = (0..trials)
        .map(|t| fig3::run_all(seed + t, iterations))
        .collect();
    let results = &trial_results[0];

    let rows: Vec<Vec<String>> = results
        .iter()
        .enumerate()
        .map(|(i, r)| {
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
                r.cell.model.to_string(),
                "TensorFlow".to_owned(),
                r.cell.gpus.to_string(),
                "P100".to_owned(),
                format!("{:.1}", r.dgx1),
                format!("{:.1}", r.dlaas),
                ours,
                format!("{:.2}%", r.cell.paper_pct),
            ]
        })
        .collect();
    print_table(
        "Fig. 3 — DLaaS vs NVIDIA DGX-1 bare metal (TensorFlow HPM benchmarks)",
        &[
            "Benchmark",
            "Framework",
            "#GPUs",
            "GPU",
            "DGX-1 img/s",
            "DLaaS img/s",
            "diff (ours)",
            "diff (paper)",
        ],
        &rows,
    );
    println!(
        "\nshape check: deficit grows with GPU count, worst for VGG-16, ≤ ~15% \
         (the DGX-1 costs 2-3x more — the paper's cost-effectiveness argument)"
    );
}
