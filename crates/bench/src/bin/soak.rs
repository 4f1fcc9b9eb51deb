//! The soak: N jobs through the full platform under one of three presets
//! — `uniform` (identical jobs, capacity scales with N: control-plane
//! cost per job), `traffic` (NSML-style multi-tenant mix under quotas:
//! fairness under load) or `chaos` (mixed jobs under a pod monkey and a
//! rotating substrate fault: dependability). See `dlaas_bench::soak`.
//!
//! Emits two artifacts:
//!
//! * `BENCH_soak.json` — byte-stable: outcome counts, work-counter
//!   per-job costs, queue/admission figures and per-tenant turnaround
//!   quantiles. Byte-identical for a given seed at any `--threads`.
//! * `BENCH_soak.wall.json` — the gate sidecar (wall seconds and each
//!   tenant class's p99 per run, in the committed baseline's line
//!   format, and the process's peak resident memory); never
//!   byte-compared. Under `--check` the class p99s pool the command
//!   line's run with runs at the other seeds the baseline names.
//!
//! The process exits 2 on a command line it cannot parse, and 1 if any
//! trial is abnormal or malformed (lost submissions, unfinished jobs,
//! invariant violations), if a per-job cost at the largest N exceeds 2×
//! the smallest N, or if `--check` finds a regression against the
//! committed baseline.
//!
//! Usage:
//!   soak <uniform|traffic|chaos> [--threads T] [--check BASELINE [--tolerance 0.10]]
//!        [--lcm-replicas M] [--sim-budget-secs B] [--profile]
//!        [seed] [N1,N2,...] [out.json]
//! `--profile` adds, per run, the kernel's events by scheduling call
//! site (deterministic, on stdout) and the host time spent inside each
//! site's closures (wall-clock, on stderr).
//! Defaults: 1 thread, seed 2018, `BENCH_soak.json`, and per preset N ∈
//! {100, 1000, 10000} / {10000, 100000} / {120}.

use dlaas_bench::cli::parse_or_exit;
use dlaas_bench::harness::print_table;
use dlaas_bench::soak::{self, SoakRun};

fn main() {
    let cli = parse_or_exit(soak::USAGE, soak::parse_cli);
    let wall_path = cli
        .out
        .strip_suffix(".json")
        .map_or_else(|| format!("{}.wall", cli.out), |p| format!("{p}.wall.json"));

    eprintln!(
        "{} soak: N in {:?} (seed {}, {} thread(s))…",
        cli.preset.name, cli.sizes, cli.seed, cli.threads
    );
    let baseline = cli
        .check
        .as_ref()
        .map(|path| std::fs::read_to_string(path).expect("read baseline"));
    let report = soak::campaign(&cli);
    let runs: Vec<&SoakRun> = report.results().collect();
    let pool = soak::pooled(&cli, baseline.as_deref().unwrap_or_default());
    let pooled: Vec<&SoakRun> = pool.results().collect();

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{}/{}/{}", r.completed, r.failed, r.unfinished),
                r.queued_submissions.to_string(),
                format!("{:.1}", r.admission_wait_mean_us / 1e6),
                r.tenants
                    .first()
                    .map(|t| format!("{:.0}", t.p99))
                    .unwrap_or_default(),
                format!("{:.0}", r.events_per_job()),
                r.pod_restarts.to_string(),
                r.invariant_violations.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Soak: {}", cli.preset.name),
        &[
            "N",
            "done/failed/unfinished",
            "queued",
            "mean wait s",
            "first tenant p99 s",
            "events/job",
            "pod restarts",
            "violations",
        ],
        &rows,
    );

    if cli.profile {
        for run in &runs {
            let (counts, times) = soak::render_profile(run);
            println!("\n{counts}");
            eprintln!("{times}");
        }
    }

    let json = soak::render_json(cli.preset, cli.seed, &runs);
    std::fs::write(&cli.out, &json).expect("write soak artifact");
    let wall_json = soak::render_wall_json(&runs, &pooled, soak::peak_rss_kib());
    std::fs::write(&wall_path, &wall_json).expect("write wall sidecar");
    println!("\nwrote {} and {wall_path}", cli.out);
    // Wall-clock to stderr and the sidecar only — never into the
    // byte-compared artifact.
    eprintln!("{}", report.wall_summary("soak"));

    // No trial may be dropped, malformed, or out of budget: CI must not
    // go green over a lost submission even when the aggregates look fine.
    let mut dirty = false;
    let mut abnormal = report.failure_records();
    abnormal.extend(pool.failure_records());
    if !abnormal.is_empty() {
        eprintln!("\n{} abnormal trials:", abnormal.len());
        for r in &abnormal {
            eprintln!("  {r}");
        }
        dirty = true;
    }
    for line in runs.iter().chain(&pooled).filter_map(|r| r.malformed()) {
        eprintln!("  {line}");
        dirty = true;
    }

    let (lines, flat) = soak::cost_flatness(&runs);
    for l in lines {
        println!("{l}");
    }
    dirty |= !flat;

    if let Some(baseline) = &baseline {
        match soak::check_against_baseline(&wall_json, baseline, cli.tolerance) {
            Ok(lines) => {
                for l in lines {
                    println!("{l}");
                }
            }
            Err(violations) => {
                for v in violations {
                    eprintln!("{v}");
                }
                dirty = true;
            }
        }
    }

    if dirty {
        std::process::exit(1);
    }
}
