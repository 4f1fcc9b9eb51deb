//! Traffic soak: realistic multi-tenant traffic — diurnal arrivals,
//! Pareto bursts, heavy-tailed durations, a whale/small tenant mix —
//! pushed through the full platform at N across two orders of
//! magnitude, with per-tenant GPU quotas and the weighted fair queue
//! engaged by the bursts.
//!
//! Emits two artifacts:
//!
//! * `BENCH_traffic.json` — byte-stable (sim-derived data only, fixed
//!   key order, fixed-precision floats): outcome counts, work-counter
//!   per-job costs, queue/admission figures and per-tenant turnaround
//!   quantiles. Byte-identical for a given seed at any `--threads`.
//! * `BENCH_traffic.wall.json` — the wall-clock sidecar (wall seconds
//!   per run) for the machine-speed baseline gate; never byte-compared.
//!
//! The process exits non-zero if any trial is abnormal or malformed
//! (lost submissions, unfinished jobs, invariant violations), if the
//! per-job event cost at the largest N exceeds 2× the smallest N, or if
//! `--check` finds a regression against the committed baseline.
//!
//! Usage:
//!   traffic_soak [--threads T] [--check BASELINE [--tolerance 0.10]]
//!                [--write-baseline BASELINE] [seed] [N1,N2,...] [out.json]
//! Defaults: 1 thread, seed 2018, N ∈ {10000, 100000}, `BENCH_traffic.json`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use dlaas_bench::harness::print_table;
use dlaas_bench::runner::{CampaignRunner, Trial, TrialRun};
use dlaas_bench::traffic::{self, Arrival, TenantSummary, TrafficConfig};
use dlaas_core::{
    check_invariants, metrics, DlaasPlatform, GpuNodeSpec, InvariantMonitor, JobStatus,
    PlatformConfig, Tenant, TrainingManifest,
};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_obs::wallclock::WallTimer;
use dlaas_sim::{Sim, SimDuration, SimTime};

/// Submissions stop at the window (2h); jobs then get a drain period to
/// finish queue waits, deploys and the duration tail. Identical for
/// every N so per-job costs are comparable across N.
const DRAIN: SimDuration = SimDuration::from_hours(1);

/// One work-count series, summarized from its `dlaas-obs` histogram.
struct Series {
    name: &'static str,
    sum: f64,
    per_job: f64,
}

struct Run {
    n: u64,
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    unfinished: u64,
    /// Jobs held in the fair queue at least once.
    queued_submissions: u64,
    /// Merged admission-wait histogram (µs): count / mean / p95.
    admission_waits: u64,
    admission_wait_mean_us: f64,
    admission_wait_p95_us: f64,
    /// Distinct invariant violations (periodic monitor + final sweep).
    invariant_violations: u64,
    events: u64,
    sim_secs: f64,
    events_per_job: f64,
    tenants: Vec<TenantSummary>,
    series: Vec<Series>,
    wall_secs: f64,
}

impl Run {
    fn malformed(&self) -> bool {
        self.submitted != self.n
            || self.rejected > 0
            || self.unfinished > 0
            || self.invariant_violations > 0
    }

    fn events_per_wall_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

fn job_manifest(serial: u64, a: &Arrival) -> TrainingManifest {
    TrainingManifest::builder(format!("t-{serial}"))
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .learners(a.learners)
        .data("traffic-data", "d/", 500_000_000)
        .results("traffic-results")
        .iterations(a.iterations)
        .build()
        .expect("generated manifest is valid")
}

/// Invariant-monitor period: the checker walks every job document, so
/// at large N it must run sparsely (a final full sweep still closes the
/// run). Deterministic in N only — never in thread count.
fn monitor_period(n: u64) -> SimDuration {
    if n <= 20_000 {
        SimDuration::from_secs(60)
    } else if n <= 200_000 {
        SimDuration::from_mins(10)
    } else {
        SimDuration::from_mins(30)
    }
}

fn run_one(seed: u64, n: u64) -> TrialRun<Run> {
    let wall = WallTimer::start();
    let cfg = TrafficConfig::default();
    let mut sim = Sim::new(seed);
    sim.trace_mut().set_enabled(false);

    let capacity = cfg.capacity_gpus(n);
    let platform_cfg = PlatformConfig {
        core_nodes: 4,
        gpu_nodes: vec![GpuNodeSpec {
            kind: GpuKind::K80,
            count: capacity.div_ceil(4).max(2),
            gpus_each: 4,
        }],
        ..PlatformConfig::default()
    };
    let platform = DlaasPlatform::new(&mut sim, platform_cfg);
    platform.run_until_ready(&mut sim, SimDuration::from_secs(60));

    let tenant_ids = cfg.tenant_ids();
    let mut clients = Vec::with_capacity(tenant_ids.len());
    for (i, id) in tenant_ids.iter().enumerate() {
        let key = format!("key-{id}");
        platform
            .add_tenant(
                &Tenant::new(id.clone(), key.clone(), cfg.quota_of(i, capacity))
                    .with_weight(cfg.weight_of(i)),
            )
            .expect("bootstrap tenant insert");
        clients.push(platform.client(id, &key));
    }
    platform.seed_dataset("traffic-data", "d/", 500_000_000);
    platform.create_bucket("traffic-results");

    let monitor = InvariantMonitor::install(&mut sim, &platform, monitor_period(n));

    // The whole schedule is precomputed from one rng fork: byte-identical
    // at any thread count by construction.
    let arrivals = traffic::generate(&mut sim.rng().fork("traffic-gen"), &cfg, n);
    let jobs: Rc<RefCell<Vec<(dlaas_core::JobId, usize)>>> =
        Rc::new(RefCell::new(Vec::with_capacity(n as usize)));
    let rejected = Rc::new(RefCell::new(0u64));
    for (serial, a) in arrivals.into_iter().enumerate() {
        let client = clients[a.tenant].clone();
        let jobs = jobs.clone();
        let rejected = rejected.clone();
        sim.schedule_in(a.at, move |sim| {
            let tenant = a.tenant;
            let m = job_manifest(serial as u64, &a);
            client.submit(sim, m, move |_sim, r| match r {
                Ok(job) => jobs.borrow_mut().push((job, tenant)),
                Err(_) => *rejected.borrow_mut() += 1,
            });
        });
    }
    sim.run_for(cfg.window + DRAIN);

    let (mut completed, mut failed, mut unfinished) = (0u64, 0u64, 0u64);
    for (job, _) in jobs.borrow().iter() {
        match platform.job_status(job) {
            Some(JobStatus::Completed) => completed += 1,
            Some(JobStatus::Failed | JobStatus::Killed) => failed += 1,
            _ => unfinished += 1,
        }
    }

    // Close the run with one full sweep, then fold in everything the
    // periodic monitor saw that the final state no longer shows.
    monitor.cancel();
    let final_report = check_invariants(&sim, &platform);
    let invariant_violations =
        (monitor.violations_seen() as u64).max(final_report.violations.len() as u64);
    if !final_report.is_clean() {
        eprintln!("{final_report}");
    }

    let m = platform.metrics();
    let tenants = tenant_ids
        .iter()
        .map(|id| {
            let labels = [("tenant", id.as_str())];
            let h = m.histogram(metrics::TENANT_JOB_TURNAROUND, &labels);
            TenantSummary {
                tenant: id.clone(),
                jobs: h.as_ref().map_or(0, dlaas_obs::Histogram::count),
                p50: h.as_ref().and_then(|h| h.quantile(0.50)).unwrap_or(0.0),
                p95: h.as_ref().and_then(|h| h.quantile(0.95)).unwrap_or(0.0),
                p99: h.as_ref().and_then(|h| h.quantile(0.99)).unwrap_or(0.0),
            }
        })
        .collect();

    let series = [
        (
            "etcd_watch_fanout_examined",
            m.histogram_merged("etcd_watch_fanout_examined"),
        ),
        (
            "kube_kick_pending_examined",
            m.histogram_merged("kube_kick_pending_examined"),
        ),
        (
            "lcm_sweep_docs_examined",
            m.histogram("mongo_docs_examined", &[("op", "find_changed")]),
        ),
    ]
    .into_iter()
    .map(|(name, h)| {
        let sum = h.map(|h| h.sum()).unwrap_or(0.0);
        Series {
            name,
            sum,
            per_job: sum / n as f64,
        }
    })
    .collect();

    let wait = m.histogram_merged(metrics::TENANT_ADMISSION_WAIT);
    let events = sim.events_executed();
    let run = Run {
        n,
        submitted: jobs.borrow().len() as u64,
        rejected: *rejected.borrow(),
        completed,
        failed,
        unfinished,
        queued_submissions: m.counter_value(metrics::API_SUBMISSIONS, &[("outcome", "queued")]),
        admission_waits: wait.as_ref().map_or(0, dlaas_obs::Histogram::count),
        admission_wait_mean_us: wait
            .as_ref()
            .and_then(dlaas_sim::Histogram::mean)
            .unwrap_or(0.0),
        admission_wait_p95_us: wait.as_ref().and_then(|h| h.quantile(0.95)).unwrap_or(0.0),
        invariant_violations,
        events,
        sim_secs: sim
            .now()
            .saturating_duration_since(SimTime::ZERO)
            .as_secs_f64(),
        events_per_job: events as f64 / n as f64,
        tenants,
        series,
        wall_secs: wall.elapsed_secs(),
    };
    TrialRun {
        result: run,
        sim_elapsed: sim.now().saturating_duration_since(SimTime::ZERO),
    }
}

/// Hand-rolled JSON with fixed key order and fixed-precision floats; no
/// wall-clock and no thread count, so `cmp` works across same-seed runs.
fn render_json(seed: u64, cfg: &TrafficConfig, runs: &[&Run]) -> String {
    let mut out = String::new();
    let mut w = |s: &str| out.push_str(s);
    w("{\n");
    w(&format!(
        "  \"bench\": \"traffic_soak\",\n  \"seed\": {seed},\n  \"window_secs\": {:.6},\n  \"drain_secs\": {:.6},\n  \"runs\": [\n",
        cfg.window.as_secs_f64(),
        DRAIN.as_secs_f64()
    ));
    for (ri, r) in runs.iter().enumerate() {
        w("    {\n");
        w(&format!(
            "      \"run\": \"n{}\",\n      \"n\": {},\n      \"completed\": {},\n      \"failed\": {},\n      \"unfinished\": {},\n      \"queued_submissions\": {},\n      \"admission_waits\": {},\n      \"admission_wait_mean_us\": {:.6},\n      \"admission_wait_p95_us\": {:.6},\n      \"invariant_violations\": {},\n      \"events\": {},\n      \"sim_secs\": {:.6},\n      \"events_per_job\": {:.6},\n",
            r.n,
            r.n,
            r.completed,
            r.failed,
            r.unfinished,
            r.queued_submissions,
            r.admission_waits,
            r.admission_wait_mean_us,
            r.admission_wait_p95_us,
            r.invariant_violations,
            r.events,
            r.sim_secs,
            r.events_per_job,
        ));
        w("      \"tenants\": [\n");
        for (ti, t) in r.tenants.iter().enumerate() {
            let mut line = String::new();
            write!(
                line,
                "        {{\"tenant\": \"{}\", \"jobs\": {}, \"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6}}}",
                t.tenant, t.jobs, t.p50, t.p95, t.p99
            )
            .unwrap();
            w(&line);
            w(if ti + 1 < r.tenants.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        w("      ],\n      \"series\": {\n");
        for (si, s) in r.series.iter().enumerate() {
            let mut line = String::new();
            write!(
                line,
                "        \"{}\": {{\"sum\": {:.6}, \"per_job\": {:.6}}}",
                s.name, s.sum, s.per_job
            )
            .unwrap();
            w(&line);
            w(if si + 1 < r.series.len() { ",\n" } else { "\n" });
        }
        w("      }\n");
        w(if ri + 1 < runs.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    w("  ]\n}\n");
    out
}

/// Wall sidecar in the engine-bench `workloads` shape so the same
/// baseline checker applies.
fn render_wall_json(seed: u64, runs: &[&Run]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    write!(
        out,
        "  \"bench\": \"traffic_soak-wall\",\n  \"seed\": {seed},\n  \"workloads\": [\n"
    )
    .unwrap();
    for (i, r) in runs.iter().enumerate() {
        let mut line = String::new();
        write!(
            line,
            "    {{\"name\": \"n{}\", \"events\": {}, \"sim_secs\": {:.6}, \"wall_secs\": {:.6}, \"events_per_wall_sec\": {:.1}}}",
            r.n,
            r.events,
            r.sim_secs,
            r.wall_secs,
            r.events_per_wall_sec()
        )
        .unwrap();
        out.push_str(&line);
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut threads: usize = 1;
    let mut check: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut tolerance = 0.10;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--threads T");
            }
            "--check" => check = Some(args.next().expect("--check BASELINE")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance X");
            }
            "--write-baseline" => {
                write_baseline = Some(args.next().expect("--write-baseline BASELINE"));
            }
            _ => positional.push(arg),
        }
    }
    let mut positional = positional.into_iter();
    let seed: u64 = positional
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2018);
    let ns: Vec<u64> = positional
        .next()
        .map(|s| s.split(',').filter_map(|p| p.parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| vec![10_000, 100_000]);
    let out_path = positional
        .next()
        .unwrap_or_else(|| "BENCH_traffic.json".into());
    let wall_path = out_path
        .strip_suffix(".json")
        .map(|p| format!("{p}.wall.json"))
        .unwrap_or_else(|| format!("{out_path}.wall"));

    let cfg = TrafficConfig::default();
    eprintln!("traffic soak: N in {ns:?} (seed {seed}, {threads} thread(s))…");
    let trials: Vec<Trial<u64>> = ns
        .iter()
        .map(|&n| Trial {
            label: format!("n{n}"),
            repro: format!(
                "cargo run --release -p dlaas-bench --bin traffic_soak -- {seed} {n} traffic-repro.json"
            ),
            spec: n,
        })
        .collect();
    // Every trial simulates boot + window + drain; anything past an
    // extra hour of sim time is a runaway.
    let report = CampaignRunner::new("traffic_soak", threads)
        .with_sim_budget(cfg.window + DRAIN + SimDuration::from_hours(1))
        .run(trials, |&n, _ctx| run_one(seed, n));
    let runs: Vec<&Run> = report.results().collect();

    let mut rows = Vec::new();
    for r in &runs {
        let whale_p99 = r
            .tenants
            .first()
            .map(|t| format!("{:.0}", t.p99))
            .unwrap_or_default();
        rows.push(vec![
            r.n.to_string(),
            format!("{}/{}/{}", r.completed, r.failed, r.unfinished),
            r.queued_submissions.to_string(),
            format!("{:.1}", r.admission_wait_mean_us / 1e6),
            whale_p99,
            format!("{:.0}", r.events_per_job),
            r.invariant_violations.to_string(),
        ]);
    }
    print_table(
        "Traffic soak: multi-tenant fairness under NSML-style load",
        &[
            "N",
            "done/failed/unfinished",
            "queued",
            "mean wait s",
            "whale p99 s",
            "events/job",
            "violations",
        ],
        &rows,
    );

    let json = render_json(seed, &cfg, &runs);
    std::fs::write(&out_path, &json).expect("write BENCH_traffic.json");
    let wall_json = render_wall_json(seed, &runs);
    std::fs::write(&wall_path, &wall_json).expect("write wall sidecar");
    println!("\nwrote {out_path} and {wall_path}");
    eprintln!("{}", report.wall_summary("traffic_soak"));

    let mut dirty = false;
    let abnormal = report.failure_records();
    if !abnormal.is_empty() {
        eprintln!("\n{} abnormal trials:", abnormal.len());
        for r in &abnormal {
            eprintln!("  {r}");
        }
        dirty = true;
    }
    for r in &runs {
        if r.malformed() {
            eprintln!(
                "  MALFORMED N={}: submitted={}/{} rejected={} unfinished={} violations={}",
                r.n, r.submitted, r.n, r.rejected, r.unfinished, r.invariant_violations
            );
            dirty = true;
        }
    }

    // Flat-curve criterion: per-job event cost at the largest N must be
    // within 2× of the smallest (+1 guards emptiness), and so must every
    // work-counter series.
    if let (Some(lo), Some(hi)) = (
        runs.iter().min_by_key(|r| r.n),
        runs.iter().max_by_key(|r| r.n),
    ) {
        if lo.n < hi.n {
            let ratio = (hi.events_per_job + 1.0) / (lo.events_per_job + 1.0);
            println!(
                "events/job: {:.0} @ N={} vs {:.0} @ N={} (×{ratio:.2})",
                lo.events_per_job, lo.n, hi.events_per_job, hi.n
            );
            if ratio > 2.0 {
                eprintln!(
                    "REGRESSION events/job grew ×{ratio:.2} from N={} to N={}",
                    lo.n, hi.n
                );
                dirty = true;
            }
            for (a, b) in lo.series.iter().zip(hi.series.iter()) {
                let ratio = (b.per_job + 1.0) / (a.per_job + 1.0);
                println!(
                    "{}: {:.2}/job @ N={} vs {:.2}/job @ N={} (×{ratio:.2})",
                    a.name, a.per_job, lo.n, b.per_job, hi.n
                );
                if ratio > 2.0 {
                    eprintln!(
                        "REGRESSION {}: per-job cost grew ×{ratio:.2} from N={} to N={}",
                        a.name, lo.n, hi.n
                    );
                    dirty = true;
                }
            }
        }
    }

    if let Some(path) = write_baseline {
        let wall_secs: Vec<(String, f64)> = runs
            .iter()
            .map(|r| (format!("n{}", r.n), r.wall_secs))
            .collect();
        let p99s: Vec<(String, String, f64)> = runs
            .iter()
            .flat_map(|r| {
                r.tenants
                    .iter()
                    .map(|t| (format!("n{}", r.n), t.tenant.clone(), t.p99))
            })
            .collect();
        let baseline = traffic::render_baseline(&wall_secs, &p99s);
        std::fs::write(&path, baseline).expect("write baseline");
        println!("wrote baseline {path}");
    }

    if let Some(path) = check {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        match traffic::check_against_baseline(&wall_json, &json, &baseline, tolerance) {
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
