//! Ablation (§III-g): checkpoint interval vs work lost to a crash.
//!
//! "The checkpointing interval depends on the tolerance level of the user
//! to failures, i.e., how many hours of work the user is willing to lose
//! in the event of a failure." This sweep quantifies the trade-off: more
//! frequent checkpoints cost upload stalls during healthy training but
//! bound the work a learner crash destroys.
//!
//! Usage: `cargo run -p dlaas-bench --bin ablation_checkpoint [seed]`

use dlaas_bench::cli;
use dlaas_bench::harness::{
    experiment_config, experiment_manifest, experiment_platform, print_table, reported_iteration,
    submit_blocking,
};
use dlaas_bench::soak::RESULTS;
use dlaas_core::{paths, JobStatus};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_sim::{Sim, SimDuration};

const USAGE: &str = "usage: ablation_checkpoint [seed]";

struct Outcome {
    interval: u64,
    completed: bool,
    wall_secs: f64,
    lost_iters: u64,
    restarts: u64,
    ckpt_writes: u64,
    stall_p95: Option<f64>,
}

fn run_one(seed: u64, interval: u64) -> Outcome {
    let mut sim = Sim::new(seed);
    let (platform, client) = experiment_platform(&mut sim, experiment_config(GpuKind::K80, 1));
    let manifest = experiment_manifest(format!("ckpt-{interval}"))
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .iterations(4_000)
        .checkpoint_every(interval)
        .build()
        .expect("valid manifest");
    let job = submit_blocking(&mut sim, &client, manifest);
    let t0 = sim.now();

    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    // Crash the learner half-way through the expected training time.
    sim.run_for(SimDuration::from_mins(40));
    let progress_at_crash = reported_iteration(&platform, &job).unwrap_or(0);
    let ckpt_iter: u64 = platform
        .objstore()
        .read_text(RESULTS, &paths::obj_ckpt_meta(&job))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    platform
        .kube()
        .crash_pod(&mut sim, &paths::learner_pod(&job, 0));

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(12),
    );
    let info = platform.job_info(&job).unwrap();
    let m = platform.metrics();
    Outcome {
        interval,
        completed: end == Some(JobStatus::Completed),
        wall_secs: (sim.now() - t0).as_secs_f64(),
        lost_iters: progress_at_crash.saturating_sub(ckpt_iter),
        restarts: info.learner_restarts,
        ckpt_writes: m.counter_total(dlaas_core::metrics::CHECKPOINT_WRITES),
        stall_p95: m.quantile(dlaas_core::metrics::CHECKPOINT_STALL_SECONDS, &[], 0.95),
    }
}

fn main() {
    let seed: u64 = cli::parse_or_exit(USAGE, |a| Ok(a.positional("seed")?.unwrap_or(2018)));
    let intervals = [0u64, 100, 250, 500, 1000, 2000];
    eprintln!("sweeping checkpoint intervals with a learner crash mid-run (seed {seed})…");
    let rows: Vec<Vec<String>> = intervals
        .iter()
        .map(|i| {
            let o = run_one(seed, *i);
            vec![
                if o.interval == 0 {
                    "none".to_owned()
                } else {
                    o.interval.to_string()
                },
                if o.completed { "COMPLETED" } else { "DNF" }.to_owned(),
                format!("{:.0}s", o.wall_secs),
                o.lost_iters.to_string(),
                o.restarts.to_string(),
                o.ckpt_writes.to_string(),
                o.stall_p95
                    .map(|s| format!("{s:.1}s"))
                    .unwrap_or_else(|| "n/a".into()),
            ]
        })
        .collect();
    print_table(
        "Ablation — checkpoint interval vs work lost to a learner crash (4000 iters)",
        &[
            "ckpt every",
            "outcome",
            "total time",
            "iters lost at crash",
            "restarts",
            "ckpt writes",
            "stall p95",
        ],
        &rows,
    );
    println!("\nno checkpoints ⇒ the crash loses all progress; tighter intervals bound the loss\nat the cost of checkpoint-upload stalls during healthy training.");
}
