//! Engine throughput bench: emits `BENCH_engine.json` with kernel events
//! per wall-second for the pure-kernel churn workload. See
//! `dlaas_bench::engine` for the workload definition and the artifact's
//! (wall-derived, not byte-stable) nature; the full platform is measured
//! by `soak uniform`.
//!
//! Usage:
//!   cargo run --release -p dlaas-bench --bin engine_bench -- \
//!     [--seed S] [--actors A] [--events E] [--out PATH] \
//!     [--check BASELINE.json] [--tolerance F]
//!
//! Defaults: seed 2018, 10000 churn actors, 2,000,000 churn events, out
//! `BENCH_engine.json`, tolerance 0.10. With `--check`, exits non-zero if
//! the workload's events/wall-sec is more than the tolerance below the
//! committed baseline.

use dlaas_bench::cli;
use dlaas_bench::engine::{self, EngineRun};
use dlaas_bench::harness::print_table;

const USAGE: &str = "usage: engine_bench [--seed S] [--actors A] [--events E] [--out PATH] \
    [--check BASELINE.json] [--tolerance F]";

struct Args {
    seed: u64,
    actors: u64,
    events: u64,
    out: String,
    check: Option<String>,
    tolerance: f64,
}

fn main() {
    let args = cli::parse_or_exit(USAGE, |a| {
        Ok(Args {
            seed: a.value("--seed")?.unwrap_or(2018),
            actors: a.value("--actors")?.unwrap_or(10_000),
            events: a.value("--events")?.unwrap_or(2_000_000),
            out: a
                .value("--out")?
                .unwrap_or_else(|| "BENCH_engine.json".into()),
            check: a.value("--check")?,
            tolerance: a.value("--tolerance")?.unwrap_or(0.10),
        })
    });
    eprintln!(
        "engine bench: kernel_churn ({} actors, {} events) (seed {})…",
        args.actors, args.events, args.seed
    );

    let runs: Vec<EngineRun> = vec![engine::kernel_churn(args.seed, args.actors, args.events)];

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.events.to_string(),
                format!("{:.1}", r.sim_secs),
                format!("{:.2}", r.wall_secs),
                format!("{:.0}", r.events_per_wall_sec()),
            ]
        })
        .collect();
    print_table(
        "Engine throughput (kernel events per host wall-second)",
        &["workload", "events", "sim s", "wall s", "ev/wall-s"],
        &rows,
    );

    let json = engine::render_json(args.seed, &runs);
    std::fs::write(&args.out, &json).expect("write BENCH_engine.json");
    println!("\nwrote {}", args.out);

    if let Some(baseline_path) = args.check {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        match engine::check_against_baseline(&json, &baseline, args.tolerance) {
            Ok(report) => {
                for line in report {
                    println!("{line}");
                }
            }
            Err(violations) => {
                for line in violations {
                    eprintln!("{line}");
                }
                eprintln!(
                    "engine bench regression vs {baseline_path} (tolerance {:.0}%)",
                    args.tolerance * 100.0
                );
                std::process::exit(1);
            }
        }
    }
}
