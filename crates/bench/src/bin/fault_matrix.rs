//! The fault-matrix campaign: every fault kind × every Guardian
//! deployment step × N seeds, each trial judged by the platform
//! invariant checker. (The randomized soak with continuous checking is
//! `soak chaos`.)
//!
//! Usage:
//!   cargo run --release -p dlaas-bench --bin fault_matrix [--seeds N] [--base-seed S]
//!       [--threads T] [--sim-budget-secs B] [--out FILE] [--fault LABEL]
//!   cargo run --release -p dlaas-bench --bin fault_matrix -- --trial FAULT/POINT --seed S
//!
//! `--fault LABEL` restricts the matrix to one fault kind (the CI
//! `ha-smoke` job sweeps `lcm_owner_crash` alone on every push).
//!
//! Trials shard across `--threads` workers (each in its own `Sim`);
//! reports and the `--out` artifact are byte-identical for any thread
//! count. The process exits non-zero if any cell fails (job did not
//! complete, the fault never fired, or an invariant was violated
//! afterwards) **or** any trial was recorded abnormal — `TIMEOUT` past
//! the per-trial sim budget, or a panic converted into a failure record.
//! The budget defaults to 2h per cell; `--sim-budget-secs B` overrides it
//! and `--sim-budget-secs 0` uncaps entirely.
//! Abnormal records print the exact single-threaded repro command, which
//! is what `--trial FAULT/POINT --seed S` replays.

use dlaas_bench::harness::print_table;
use dlaas_bench::matrix::{
    render_matrix_json, run_cell, sweep_parallel_for, CellOutcome, FaultKind, InjectionPoint,
    MatrixCampaign,
};
use dlaas_bench::metrics::MATRIX_RECOVERY_SECONDS;
use dlaas_sim::SimDuration;

/// Default per-trial sim budget for matrix cells: a healthy cell tops out
/// near 65 simulated minutes (60s boot + 1h status wait + GC settle), so
/// 2h flags genuine runaways without ever clipping a passing trial.
const MATRIX_BUDGET: SimDuration = SimDuration::from_hours(2);

fn main() {
    let mut seeds: u64 = 5;
    let mut base_seed: u64 = 2018;
    let mut threads: usize = 1;
    let mut sim_budget = Some(MATRIX_BUDGET);
    let mut trial: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut fault: Option<FaultKind> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fault" => {
                let label = args.next().expect("--fault LABEL");
                fault = Some(FaultKind::from_label(&label).unwrap_or_else(|| {
                    let kinds: Vec<_> = FaultKind::all().iter().map(FaultKind::label).collect();
                    panic!("--fault expects one of {kinds:?}, got {label:?}")
                }));
            }
            "--seeds" => {
                seeds = args.next().and_then(|s| s.parse().ok()).expect("--seeds N");
            }
            "--base-seed" | "--seed" => {
                base_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--base-seed S");
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--threads T");
            }
            "--sim-budget-secs" => {
                let secs: u64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--sim-budget-secs B");
                // 0 = uncapped.
                sim_budget = (secs > 0).then(|| SimDuration::from_secs(secs));
            }
            "--trial" => {
                trial = Some(args.next().expect("--trial FAULT/POINT"));
            }
            "--out" => {
                out_path = Some(args.next().expect("--out FILE"));
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    if let Some(spec) = trial {
        run_single(base_seed, &spec);
    } else {
        let kinds = fault.map_or_else(|| FaultKind::all().to_vec(), |k| vec![k]);
        run_matrix(
            &kinds,
            base_seed,
            seeds,
            threads,
            sim_budget,
            out_path.as_deref(),
        );
    }
}

/// Replays one matrix cell alone, single-threaded — the repro mode the
/// campaign's failure records point at.
fn run_single(seed: u64, spec: &str) {
    let (kind, point) = parse_trial(spec);
    eprintln!("single trial: {kind} at {point} (seed {seed})…");
    let out = run_cell(seed, kind, point);
    println!("{}", out.describe());
    for v in &out.violations {
        println!("  VIOLATION {v}");
    }
    if !out.passed() {
        std::process::exit(1);
    }
}

fn parse_trial(spec: &str) -> (FaultKind, InjectionPoint) {
    let parse = || {
        let (fault, point) = spec.split_once('/')?;
        Some((
            FaultKind::from_label(fault)?,
            InjectionPoint::from_label(point)?,
        ))
    };
    parse().unwrap_or_else(|| {
        let kinds: Vec<_> = FaultKind::all().iter().map(FaultKind::label).collect();
        let points: Vec<_> = InjectionPoint::all()
            .iter()
            .map(InjectionPoint::label)
            .collect();
        panic!("--trial expects FAULT/POINT with FAULT in {kinds:?} and POINT in {points:?}")
    })
}

fn run_matrix(
    kinds: &[FaultKind],
    base_seed: u64,
    seeds: u64,
    threads: usize,
    sim_budget: Option<SimDuration>,
    out_path: Option<&str>,
) {
    let cells = kinds.len() * InjectionPoint::all().len();
    eprintln!(
        "fault matrix: {cells} cells x {seeds} seeds (base seed {base_seed}, {threads} thread(s))…"
    );
    let campaign = sweep_parallel_for(kinds, base_seed, seeds, threads, sim_budget);
    let run = &campaign.run;

    // One row per (fault, point): pass count and recovery range from the
    // aggregated obs histogram.
    let mut rows = Vec::new();
    for &kind in kinds {
        for point in InjectionPoint::all() {
            let of_cell: Vec<&CellOutcome> = run
                .outcomes
                .iter()
                .filter(|o| o.kind == kind && o.point == point)
                .collect();
            let passed = of_cell.iter().filter(|o| o.passed()).count();
            let labels = [("fault", kind.label()), ("point", point.label())];
            let q = |q: f64| {
                run.metrics
                    .quantile(MATRIX_RECOVERY_SECONDS, &labels, q)
                    .map(|s| format!("{s:.1}s"))
                    .unwrap_or_else(|| "n/a".into())
            };
            rows.push(vec![
                kind.to_string(),
                point.to_string(),
                format!("{passed}/{}", of_cell.len()),
                q(0.5),
                q(0.95),
            ]);
        }
    }
    print_table(
        "Fault matrix (fault x deployment step)",
        &["fault", "injection point", "passed", "p50 rec", "p95 rec"],
        &rows,
    );

    if let Some(path) = out_path {
        let json = render_matrix_json(base_seed, seeds, &campaign);
        std::fs::write(path, &json).expect("write fault-matrix report");
        println!("\nwrote {path}");
    }
    // Wall-clock goes to stderr only — never into the byte-compared
    // report or artifact.
    eprintln!("{}", campaign.report.wall_summary("fault_matrix"));

    if !exit_matrix_clean(&campaign) {
        std::process::exit(1);
    }
    println!(
        "\nall {} trials completed with every platform invariant intact.",
        run.outcomes.len()
    );
}

/// Prints every abnormal (timeout/panic) record with its repro command
/// and every failing cell; returns whether there were none.
fn exit_matrix_clean(campaign: &MatrixCampaign) -> bool {
    let abnormal = campaign.report.failure_records();
    if !abnormal.is_empty() {
        eprintln!("\n{} abnormal trials:", abnormal.len());
        for r in &abnormal {
            eprintln!("  {r}");
        }
    }
    let failures = campaign.run.failures();
    if !failures.is_empty() {
        eprintln!("\n{} failing cells:", failures.len());
        for f in &failures {
            eprintln!("  FAIL {}", f.describe());
            for v in &f.violations {
                eprintln!("       {v}");
            }
        }
    }
    abnormal.is_empty() && failures.is_empty()
}
