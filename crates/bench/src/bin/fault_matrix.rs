//! The fault-matrix campaign: every fault kind × every Guardian
//! deployment step × N seeds, each trial a one-job `soak` run under the
//! continuous invariant monitor. (The randomized soak is `soak chaos`.)
//!
//! Usage:
//!   cargo run --release -p dlaas-bench --bin fault_matrix [--seeds N] [--seed S]
//!       [--threads T] [--out FILE] [--fault LABEL]
//!   cargo run --release -p dlaas-bench --bin fault_matrix -- --trial FAULT/POINT --seed S
//!
//! `--fault LABEL` restricts the matrix to one fault kind (the CI
//! `ha-smoke` job sweeps `lcm_owner_crash` alone on every push).
//!
//! Trials shard across `--threads` workers (each in its own `Sim`);
//! reports and the `--out` artifact are byte-identical for any thread
//! count. The process exits 2 on a command line it cannot parse, and 1
//! if any cell fails (job did not complete, the fault never fired, or an
//! invariant was violated) **or** any trial was recorded abnormal —
//! `TIMEOUT` past the per-trial sim budget (2 h of simulated time), or a
//! panic converted into a failure record. Abnormal records print the
//! exact single-threaded repro command, which is what
//! `--trial FAULT/POINT --seed S` replays.

use dlaas_bench::cli;
use dlaas_bench::harness::print_table;
use dlaas_bench::matrix::{
    render_matrix_json, run_cell, sweep, CellOutcome, FaultKind, MatrixCampaign, POINTS,
};
use dlaas_bench::metrics::MATRIX_RECOVERY_SECONDS;

const USAGE: &str = "usage: fault_matrix [--seeds N] [--seed S] [--threads T] \
    [--out FILE] [--fault LABEL] | --trial FAULT/POINT --seed S";

struct Opts {
    seeds: u64,
    base_seed: u64,
    threads: usize,
    trial: Option<(FaultKind, &'static str)>,
    out_path: Option<String>,
    fault: Option<FaultKind>,
}

fn main() {
    let opts = cli::parse_or_exit(USAGE, |a| {
        let trial = a.value::<String>("--trial")?.map(|spec| {
            let (fault, point) = spec.split_once('/').ok_or("--trial expects FAULT/POINT")?;
            let point = POINTS
                .into_iter()
                .find(|&p| p == point)
                .ok_or_else(|| format!("unknown injection point {point:?} (one of {POINTS:?})"))?;
            Ok::<_, String>((fault.parse()?, point))
        });
        Ok(Opts {
            seeds: a.value("--seeds")?.unwrap_or(5),
            base_seed: a.value("--seed")?.unwrap_or(2018),
            threads: a.value("--threads")?.unwrap_or(1),
            trial: trial.transpose()?,
            out_path: a.value("--out")?,
            fault: a.value("--fault")?,
        })
    });

    if let Some((kind, point)) = opts.trial {
        run_single(opts.base_seed, kind, point);
    } else {
        let kinds = opts
            .fault
            .map_or_else(|| FaultKind::all().to_vec(), |k| vec![k]);
        run_matrix(&kinds, &opts);
    }
}

/// Replays one matrix cell alone, single-threaded — the repro mode the
/// campaign's failure records point at.
fn run_single(seed: u64, kind: FaultKind, point: &'static str) {
    eprintln!("single trial: {} at {point} (seed {seed})…", kind.label());
    let out = run_cell(seed, kind, point);
    println!("{}", out.describe());
    for v in &out.final_violations {
        println!("  VIOLATION {v}");
    }
    if !out.passed() {
        std::process::exit(1);
    }
}

fn run_matrix(kinds: &[FaultKind], opts: &Opts) {
    let (base_seed, seeds, threads) = (opts.base_seed, opts.seeds, opts.threads);
    let cells = kinds.len() * POINTS.len();
    eprintln!(
        "fault matrix: {cells} cells x {seeds} seeds (base seed {base_seed}, {threads} thread(s))…"
    );
    let campaign = sweep(kinds, base_seed, seeds, threads);

    // One row per (fault, point): pass count and recovery range from the
    // aggregated obs histogram.
    let mut rows = Vec::new();
    for &kind in kinds {
        for point in POINTS {
            let of_cell: Vec<&CellOutcome> = campaign
                .outcomes()
                .filter(|o| o.kind == kind && o.point == point)
                .collect();
            let passed = of_cell.iter().filter(|o| o.passed()).count();
            let labels = [("fault", kind.label()), ("point", point)];
            let q = |q: f64| {
                campaign
                    .metrics
                    .quantile(MATRIX_RECOVERY_SECONDS, &labels, q)
                    .map(|s| format!("{s:.1}s"))
                    .unwrap_or_else(|| "n/a".into())
            };
            rows.push(vec![
                kind.label().to_owned(),
                point.to_owned(),
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

    if let Some(path) = &opts.out_path {
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
        campaign.outcomes().count()
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
    let failures = campaign.failures();
    if !failures.is_empty() {
        eprintln!("\n{} failing cells:", failures.len());
        for f in &failures {
            eprintln!("  FAIL {}", f.describe());
            for v in &f.final_violations {
                eprintln!("       {v}");
            }
        }
    }
    abnormal.is_empty() && failures.is_empty()
}
