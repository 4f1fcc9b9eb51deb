//! Ablation (§III-d): the Guardian's deploy-retry limit.
//!
//! The Guardian retries a failed deployment "a (configurable) number of
//! times before `[it]` gives up and marks the DL job in MongoDB as FAILED".
//! This sweep injects two Guardian crashes during deployment and varies
//! the limit: limits ≤ 2 burn out and fail the job; limits ≥ 3 ride the
//! faults out and complete it.
//!
//! Usage: `cargo run -p dlaas-bench --bin ablation_retry [seed]`

use dlaas_bench::cli;
use dlaas_bench::harness::{
    experiment_config, experiment_manifest, experiment_platform, print_table, submit_blocking,
};
use dlaas_core::{paths, CoreConfig, JobStatus, PlatformConfig};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_kube::PodPhase;
use dlaas_sim::{Sim, SimDuration};

const USAGE: &str = "usage: ablation_retry [seed]";

struct Outcome {
    limit: u32,
    crashes_injected: u32,
    status: JobStatus,
    attempts: u64,
    rollbacks: u64,
    gave_up: bool,
    wall_secs: f64,
}

fn run_one(seed: u64, limit: u32, crashes: u32) -> Outcome {
    let mut sim = Sim::new(seed);
    let cfg = PlatformConfig {
        core: CoreConfig {
            deploy_max_attempts: limit,
            ..CoreConfig::default()
        },
        ..experiment_config(GpuKind::K80, 1)
    };
    let (platform, client) = experiment_platform(&mut sim, cfg);
    let manifest = experiment_manifest(format!("retry-{limit}"))
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .iterations(500)
        .build()
        .expect("valid manifest");
    let job = submit_blocking(&mut sim, &client, manifest);
    let t0 = sim.now();
    let gpod = paths::guardian_job(&job);

    // Crash the Guardian during its first `crashes` deployment attempts.
    let mut injected = 0;
    while injected < crashes {
        let s = platform.wait_for_status(
            &mut sim,
            &job,
            JobStatus::Deploying,
            SimDuration::from_mins(10),
        );
        if s.is_some_and(dlaas_core::JobStatus::is_terminal) {
            break; // gave up before we could inject them all
        }
        if platform.kube().pod_phase(&gpod) == Some(PodPhase::Running) {
            platform.kube().crash_pod(&mut sim, &gpod);
            injected += 1;
            sim.run_for(SimDuration::from_secs(5));
        } else {
            sim.run_for(SimDuration::from_secs(1));
        }
    }

    let end = platform
        .wait_for_status(
            &mut sim,
            &job,
            JobStatus::Completed,
            SimDuration::from_hours(12),
        )
        .unwrap_or(JobStatus::Failed);
    // The attempt/rollback story comes from the platform's own metrics.
    let m = platform.metrics();
    Outcome {
        limit,
        crashes_injected: injected,
        status: end,
        attempts: m.counter_total(dlaas_core::metrics::GUARDIAN_DEPLOY_ATTEMPTS),
        rollbacks: m.counter_total(dlaas_core::metrics::GUARDIAN_ROLLBACKS),
        gave_up: m.counter_total(dlaas_core::metrics::GUARDIAN_GAVE_UP) > 0,
        wall_secs: (sim.now() - t0).as_secs_f64(),
    }
}

fn main() {
    let seed: u64 = cli::parse_or_exit(USAGE, |a| Ok(a.positional("seed")?.unwrap_or(2018)));
    eprintln!(
        "injecting 2 guardian crashes during deploy; sweeping the retry limit (seed {seed})…"
    );
    let rows: Vec<Vec<String>> = [1u32, 2, 3, 5]
        .iter()
        .map(|limit| {
            let o = run_one(seed, *limit, 2);
            vec![
                o.limit.to_string(),
                o.crashes_injected.to_string(),
                o.status.to_string(),
                o.attempts.to_string(),
                o.rollbacks.to_string(),
                if o.gave_up { "yes" } else { "no" }.to_owned(),
                format!("{:.0}s", o.wall_secs),
            ]
        })
        .collect();
    print_table(
        "Ablation — Guardian deploy-retry limit under 2 injected deploy crashes",
        &[
            "retry limit",
            "crashes injected",
            "job outcome",
            "attempts used",
            "rollbacks",
            "gave up",
            "time to terminal",
        ],
        &rows,
    );
    println!("\nlimits ≤ the fault count fail the job (after full rollback);\nlarger limits ride the faults out and complete it.");
}
