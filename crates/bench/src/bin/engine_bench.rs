//! Engine throughput bench: emits `BENCH_engine.json` with kernel events
//! per wall-second for the pure-kernel churn workload. See
//! `dlaas_bench::engine` for the workload definition and the artifact's
//! (wall-derived, not byte-stable) nature; the full platform is measured
//! by `soak uniform`.
//!
//! Usage:
//!   cargo run --release -p dlaas-bench --bin engine_bench -- \
//!     [--out PATH] [--check BASELINE.json]
//!
//! Runs 2,000,000 churn events over 10,000 actors at seed 2018 (the
//! committed baseline's workload) and writes `BENCH_engine.json` unless
//! `--out` names another path. With `--check`, exits non-zero if the
//! workload's events/wall-sec is more than `engine::TOLERANCE` (10 %)
//! below the committed baseline.

use dlaas_bench::cli;
use dlaas_bench::engine::{self, EngineRun};
use dlaas_bench::harness::print_table;

const USAGE: &str = "usage: engine_bench [--out PATH] [--check BASELINE.json]";

/// The workload the committed baseline measured.
const SEED: u64 = 2018;
const ACTORS: u64 = 10_000;
const EVENTS: u64 = 2_000_000;

struct Args {
    out: String,
    check: Option<String>,
}

fn main() {
    let args = cli::parse_or_exit(USAGE, |a| {
        Ok(Args {
            out: a
                .value("--out")?
                .unwrap_or_else(|| "BENCH_engine.json".into()),
            check: a.value("--check")?,
        })
    });
    eprintln!("engine bench: kernel_churn ({ACTORS} actors, {EVENTS} events) (seed {SEED})…");

    let runs: Vec<EngineRun> = vec![engine::kernel_churn(SEED, ACTORS, EVENTS)];

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

    let json = engine::render_json(SEED, &runs);
    std::fs::write(&args.out, &json).expect("write BENCH_engine.json");
    println!("\nwrote {}", args.out);

    if let Some(baseline_path) = args.check {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        match engine::check_against_baseline(&json, &baseline) {
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
                    engine::TOLERANCE * 100.0
                );
                std::process::exit(1);
            }
        }
    }
}
