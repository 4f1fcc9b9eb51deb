//! The repo's benchmark: one workload per invocation, single-threaded.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload steady --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric by name with its unit on stderr and, as the last
//! line of stdout, one JSON object `{correct, attempted, failed, metrics}`
//! — the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero, printing no result, when an output check
//! fails. See `README.md` beside this package for what is measured and why.

mod counters;
mod harness;
mod hosttime;
mod metrics;
mod micro;
mod refkernel;
mod run;
mod trace;
mod traffic;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use harness::{median, Harness, PhaseTime};
use run::{run_rep, Rep};
use trace::{json_num, json_str};
use workloads::Workload;

/// Nominal host seconds one repetition measures for (every workload is
/// sized to about this much): `--seconds` buys `seconds / this`
/// repetitions. The count is a function of `--seconds` alone, never of
/// how fast the host happens to be, so that two runs always report the
/// median of the same number of repetitions.
const NOMINAL_REP_S: f64 = 2.5;
/// Repetitions every run makes at least: the host times are medians.
const MIN_REPS: usize = 3;
/// Upper bound on repetitions, so a large `--seconds` cannot run away.
const MAX_REPS: usize = 12;

/// Where a traced run writes its trace, relative to the working directory.
const TRACE_PATH: &str = "benchmark/out/BENCH_trace.json";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    selftest_noise: bool,
}

fn usage() -> String {
    format!(
        "usage: dlaas-benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] [--selftest-noise]",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut selftest_noise = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(workloads::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let s = value("a number")?;
                seed = Some(s.parse::<u64>().map_err(|e| format!("--seed {s:?}: {e}"))?);
            }
            "--seconds" => {
                let s = value("a number")?;
                seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or(format!("--seconds {s:?}: not a positive number"))?;
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                };
            }
            "--selftest-noise" => selftest_noise = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        selftest_noise,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `max / min - 1`, in per cent.
fn range_pct(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max / min - 1.0) * 100.0
}

/// Interquartile range over median, in per cent, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` gives (what the driver
/// that judges this benchmark computes).
fn iqr_pct(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0) - 1.0; // 0-based, exclusive method
        let lo = (pos.floor().max(0.0) as usize).min(n - 1);
        let hi = (lo + 1).min(n - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64).clamp(0.0, 1.0)
    };
    (at(0.75) - at(0.25)) / median(&v) * 100.0
}

/// How many repetitions `--seconds` pays for.
fn rep_count(seconds: f64) -> usize {
    ((seconds / NOMINAL_REP_S).round() as usize).clamp(MIN_REPS, MAX_REPS)
}

/// Whether repetition `rep` of a traced run records. Repetitions 0 and 3
/// of every four do and 1 and 2 do not, so that the slow drift from one
/// repetition of a process to the next weighs on both sides alike when
/// the overhead of recording is read off their difference.
fn records(rep: usize) -> bool {
    matches!(rep % 4, 0 | 3)
}

/// Runs `count` repetitions and checks they agree byte for byte on every
/// simulated output.
fn run_reps(args: &Args, count: usize, h: &mut Harness) -> Result<Vec<Rep>, String> {
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < count {
        let parked = if records(reps.len()) {
            None
        } else {
            h.trace.take()
        };
        let rep = run_rep(&args.workload, args.seed, reps.len(), h);
        if parked.is_some() {
            h.trace = parked;
        }
        if !rep.out.problems.is_empty() {
            return Err(rep.out.problems.join("\n"));
        }
        if let Some(first) = reps.first() {
            if first.out.digest() != rep.out.digest() {
                return Err(format!(
                    "repetition {} differs from repetition 0 on a simulated output:\n--- 0\n{}--- {}\n{}",
                    reps.len(),
                    first.out.digest(),
                    reps.len(),
                    rep.out.digest()
                ));
            }
        }
        reps.push(rep);
    }
    Ok(reps)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.selftest_noise {
        return selftest_noise(&args);
    }
    let mut h = Harness::new(args.traced);
    let run_span = h.open("run");
    let reps = match run_reps(&args, rep_count(args.seconds), &mut h) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "benchmark: output check failed on {}:\n{e}",
                args.workload.name
            );
            return ExitCode::FAILURE;
        }
    };
    let out = &reps[0].out;
    let each = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let host = each(|r| r.measured.normalised_s());
    let Some(rss) = hosttime::peak_rss_mib() else {
        eprintln!("benchmark: cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("setup_s", median(&each(|r| r.setup.normalised_s())));
    values.insert("host_s", median(&host));
    values.insert("peak_rss_mb", rss);
    values.extend(out.e2e.iter().copied());
    let mut all = PhaseTime::default();
    for r in &reps {
        all.add(&r.setup);
        all.add(&r.measured);
    }
    values.insert("bench.ref_events_per_s", all.ref_events_per_s());
    values.insert("bench.raw_host_s", median(&each(|r| r.measured.raw_s())));
    values.insert("bench.raw_setup_s", median(&each(|r| r.setup.raw_s())));
    values.insert("bench.rep_spread_pct", range_pct(&host));
    if args.traced {
        values.extend(out.layer.iter().copied());
        values.insert(
            "sim.host_ns_per_event",
            median(&host) * 1e9 / out.events as f64,
        );
        values.insert(
            "obs.expose_host_ms",
            median(&each(|r| r.expose_ns as f64 / 1e6)),
        );
        // Whole-repetition cost (set-up, measured, collection, recording;
        // reference work excluded), normalised like any host time:
        // recording repetitions against the ones that recorded nothing.
        let whole = |traced: bool| {
            let v: Vec<f64> = reps
                .iter()
                .enumerate()
                .filter(|(i, _)| records(*i) == traced)
                .map(|(_, r)| {
                    let mut t = r.setup;
                    t.add(&r.measured);
                    t.code_ns = r.total_code_ns;
                    t.normalised_s()
                })
                .collect();
            median(&v)
        };
        values.insert(
            "bench.trace_overhead_pct",
            (whole(true) / whole(false) - 1.0) * 100.0,
        );
        let micro_span = h.open("micro");
        let micro = micro::run_all(&out.ops, &mut h);
        h.close(micro_span);
        eprintln!("outside-in estimate of each layer's share of host_s (ops x micro ns):");
        let mut explained = 0.0;
        for m in &micro {
            let share = m.ops * m.ns_per_op / 1e9 / median(&host);
            eprintln!(
                "  {:<32} {:>12.0} ops x {:>10.1} ns = {:>5.1} %{}",
                m.name,
                m.ops,
                m.ns_per_op,
                share * 100.0,
                if m.contained {
                    "  (contained in a row below)"
                } else {
                    ""
                }
            );
            if !m.contained {
                explained += share;
            }
            values.insert(m.name, m.ns_per_op);
        }
        eprintln!(
            "  unexplained remainder {:.1} % (closures, strings, cache misses and layers no micro driver replays)",
            (1.0 - explained) * 100.0
        );
        values.insert("bench.micro_unexplained_share", 1.0 - explained);
    }
    h.close(run_span);

    let table = if args.traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut reported = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        match values.get(name) {
            Some(v) if v.is_finite() => reported.push(Metric {
                name,
                value: *v,
                unit,
            }),
            other => {
                eprintln!("benchmark: metric {name} has no finite value ({other:?})");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "workload {} seed {} repetitions {} ({} jobs, {} sim-min measured per repetition)",
        args.workload.name,
        args.seed,
        reps.len(),
        args.workload.jobs,
        args.workload.horizon.as_secs_f64() / 60.0
    );
    for note in &out.notes {
        eprintln!("  note: {note}");
    }
    eprintln!(
        "{HOST_LINE} {:.4} {:.4} {:.4} {:.4} {:.0}  (raw_host_s host_s raw_setup_s setup_s ref_events_per_s)",
        values["bench.raw_host_s"],
        values["host_s"],
        values["bench.raw_setup_s"],
        values["setup_s"],
        values["bench.ref_events_per_s"]
    );
    for m in &reported {
        eprintln!("  {:<46} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if let Some(mut t) = h.trace.take() {
        t.jobs = out.job_spans.clone();
        let rows: Vec<(&str, f64, &str)> =
            reported.iter().map(|m| (m.name, m.value, m.unit)).collect();
        let json = t.to_json(args.workload.name, args.seed, &rows);
        let path = std::path::Path::new(TRACE_PATH);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, json));
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {TRACE_PATH}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("  trace written to {TRACE_PATH}");
    }
    println!(
        "{}",
        result_line(true, out.attempted, out.failed, &reported)
    );
    ExitCode::SUCCESS
}

/// Prefix of the stderr line every run prints with its raw and
/// normalised host times; `--selftest-noise` reads it back.
const HOST_LINE: &str = "  host:";

/// `--selftest-noise`: ten back-to-back runs of this program, each a
/// process of its own as the driver starts them, printing every run's
/// raw and reference-normalised host time. Fails unless the normalised
/// values are steadier than the raw ones and their spread —
/// interquartile range over median, as the driver takes it — stays
/// within 10 %.
fn selftest_noise(args: &Args) -> ExitCode {
    const RUNS: usize = 10;
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut raw, mut norm) = (Vec::new(), Vec::new());
    println!("run  raw_host_s    host_s  raw_setup_s   setup_s  ref_events_per_s");
    for run in 0..RUNS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .output();
        let stderr = match child {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stderr).into_owned(),
            Ok(o) => {
                eprintln!(
                    "benchmark: run {run} failed:\n{}",
                    String::from_utf8_lossy(&o.stderr)
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("benchmark: cannot start run {run}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let fields: Vec<f64> = stderr
            .lines()
            .find_map(|l| l.strip_prefix(HOST_LINE))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let [r, n, rs, ns, rate] = fields[..] else {
            eprintln!("benchmark: run {run} printed no host-time line");
            return ExitCode::FAILURE;
        };
        println!("{run:>3} {r:>11.4} {n:>9.4} {rs:>12.4} {ns:>9.4} {rate:>17.0}");
        raw.push(r);
        norm.push(n);
    }
    println!(
        "host time over {RUNS} runs: raw max/min-1 {:.1} %, IQR/median {:.1} %; normalised max/min-1 {:.1} %, IQR/median {:.1} %",
        range_pct(&raw),
        iqr_pct(&raw),
        range_pct(&norm),
        iqr_pct(&norm)
    );
    if iqr_pct(&norm) <= 10.0 && range_pct(&norm) < range_pct(&raw) {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: reference normalisation did not steady the host time");
        ExitCode::FAILURE
    }
}
