//! Shared experiment machinery: boot a platform, run one training job
//! through the whole stack, and report the measured throughput.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_core::{
    paths, DlaasPlatform, GpuNodeSpec, JobId, JobStatus, LearnerPhase, PlatformConfig, Tenant,
    TrainingManifest,
};
use dlaas_gpu::{DlModel, ExecEnv, Framework, GpuKind, Interconnect, TrainingConfig};
use dlaas_sim::{Sim, SimDuration};

/// API key used by every experiment tenant.
pub const BENCH_KEY: &str = "bench-key";

/// Outcome of running one job through the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRun {
    /// The job id.
    pub job: JobId,
    /// Terminal status.
    pub status: JobStatus,
    /// Throughput measured by the learners (images/sec), when completed.
    pub images_per_sec: Option<f64>,
    /// Simulated seconds from submission to completion.
    pub wall_secs: f64,
}

/// Builds a platform sized for the experiment's GPU demand.
pub fn experiment_platform(sim: &mut Sim, kind: GpuKind, gpus_per_node: u32) -> DlaasPlatform {
    let cfg = PlatformConfig {
        gpu_nodes: vec![GpuNodeSpec {
            kind,
            count: 2,
            gpus_each: gpus_per_node.max(1),
        }],
        ..PlatformConfig::default()
    };
    let p = DlaasPlatform::new(sim, cfg);
    p.run_until_ready(sim, SimDuration::from_secs(60));
    p.add_tenant(&Tenant::new("bench", BENCH_KEY, 0))
        .expect("bootstrap tenant insert");
    p.seed_dataset("bench-data", "d/", 2_000_000_000);
    p.create_bucket("bench-results");
    p
}

/// The training iteration learner 0 of `job` last reported — read where
/// the controller itself reads it, the learner's status file on the
/// job's NFS volume. etcd carries the figure at the Guardian's mirror
/// cadence and the job document trails that, so an experiment that
/// stages a fault at a given iteration reads the ground truth here.
pub fn reported_iteration(platform: &DlaasPlatform, job: &JobId) -> Option<u64> {
    let nfs = platform.nfs();
    let volume = nfs.find_volume(&paths::volume(job))?;
    nfs.mount(&volume)
        .ok()?
        .read_file(&paths::nfs_learner_status(0))
        .ok()?
        .parse::<LearnerPhase>()
        .ok()?
        .iteration()
}

/// Standard manifest for throughput experiments (no checkpoints, so the
/// measured rate is clean steady-state training).
pub fn throughput_manifest(
    model: DlModel,
    framework: Framework,
    gpu: GpuKind,
    gpus: u32,
    iterations: u64,
) -> TrainingManifest {
    TrainingManifest::builder(format!("{model}-{framework}-x{gpus}"))
        .framework(framework)
        .model(model)
        .gpus(gpu, gpus)
        .learners(1)
        .data("bench-data", "d/", 2_000_000_000)
        .results("bench-results")
        .iterations(iterations)
        .build()
        .expect("valid experiment manifest")
}

/// Submits `manifest` on a fresh platform and runs it to a terminal
/// state, returning the measured numbers. `seed` controls all simulated
/// noise (placement, jitter, timings).
pub fn measure_dlaas_throughput(seed: u64, manifest: TrainingManifest) -> JobRun {
    measure_dlaas_throughput_with(seed, manifest, dlaas_core::CoreConfig::default())
}

/// Like [`measure_dlaas_throughput`], with explicit control-plane config
/// (used by sensitivity sweeps).
pub fn measure_dlaas_throughput_with(
    seed: u64,
    manifest: TrainingManifest,
    core: dlaas_core::CoreConfig,
) -> JobRun {
    let mut sim = Sim::new(seed);
    let platform = {
        let cfg = PlatformConfig {
            core,
            gpu_nodes: vec![GpuNodeSpec {
                kind: manifest.gpu_kind,
                count: 2,
                gpus_each: (manifest.gpus_per_learner * manifest.learners).max(1),
            }],
            ..PlatformConfig::default()
        };
        let p = DlaasPlatform::new(&mut sim, cfg);
        p.run_until_ready(&mut sim, SimDuration::from_secs(60));
        p.add_tenant(&Tenant::new("bench", BENCH_KEY, 0))
            .expect("bootstrap tenant insert");
        p.seed_dataset("bench-data", "d/", 2_000_000_000);
        p.create_bucket("bench-results");
        p
    };
    let client = platform.client("bench", BENCH_KEY);

    let got: Rc<RefCell<Option<JobId>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    client.submit(&mut sim, manifest, move |_s, r| {
        *g.borrow_mut() = Some(r.expect("submission accepted"));
    });
    sim.run_until_pred(|_| got.borrow().is_some());
    let job = got.borrow().clone().expect("submitted");
    let submitted_at = sim.now();

    let status = platform
        .wait_for_status(
            &mut sim,
            &job,
            JobStatus::Completed,
            SimDuration::from_hours(12),
        )
        .unwrap_or(JobStatus::Failed);
    let info = platform.job_info(&job).expect("job recorded");
    JobRun {
        job,
        status,
        images_per_sec: info.images_per_sec,
        wall_secs: (sim.now() - submitted_at).as_secs_f64(),
    }
}

/// The bare-metal comparison arm: the same training computation without
/// any platform (no container, no helpers), measured the same way the
/// paper measured its baseline — a separate manual run on identical
/// hardware, with its own run-to-run jitter.
pub fn bare_metal_images_per_sec(
    seed: u64,
    model: DlModel,
    framework: Framework,
    gpu: GpuKind,
    gpus: u32,
    env: ExecEnv,
    jitter: f64,
) -> f64 {
    let cfg = TrainingConfig {
        model,
        framework,
        gpu,
        gpus_per_learner: gpus,
        learners: 1,
        intra_interconnect: gpu.native_interconnect(),
        inter_interconnect: Interconnect::Ethernet1G,
        batch_per_gpu: model.batch_per_gpu(),
    };
    let base = dlaas_gpu::images_per_sec(&cfg, &env);
    // An independent measurement has independent noise.
    let label = format!("baremetal/{model}/{framework}/{gpu}/{gpus}");
    #[expect(
        clippy::disallowed_methods,
        reason = "the bare-metal baseline runs outside any Sim: its stream is seeded from the run seed the caller passes, so it is as reproducible as a fork"
    )]
    let mut rng = dlaas_sim::SimRng::new(seed).fork(&label);
    if jitter > 0.0 {
        base * rng.range_f64(1.0 - jitter, 1.0 + jitter)
    } else {
        base
    }
}

/// Percentage difference `(baseline - measured) / baseline * 100`.
pub fn pct_diff(baseline: f64, measured: f64) -> f64 {
    (baseline - measured) / baseline * 100.0
}

/// Prints a table row list with a header (fixed-width, paper style).
#[expect(
    clippy::print_stdout,
    reason = "the table renderer shared by the CLI bins: stdout is its API, and it never runs inside the simulation"
)]
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, std::string::String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_diff_signs() {
        assert!((pct_diff(100.0, 95.0) - 5.0).abs() < 1e-9);
        assert!(pct_diff(100.0, 105.0) < 0.0);
    }

    #[test]
    fn bare_metal_is_deterministic_per_seed() {
        let a = bare_metal_images_per_sec(
            1,
            DlModel::Resnet50,
            Framework::TensorFlow,
            GpuKind::K80,
            1,
            ExecEnv::bare_metal_streaming(0.117e9),
            0.015,
        );
        let b = bare_metal_images_per_sec(
            1,
            DlModel::Resnet50,
            Framework::TensorFlow,
            GpuKind::K80,
            1,
            ExecEnv::bare_metal_streaming(0.117e9),
            0.015,
        );
        assert_eq!(a, b);
        let c = bare_metal_images_per_sec(
            2,
            DlModel::Resnet50,
            Framework::TensorFlow,
            GpuKind::K80,
            1,
            ExecEnv::bare_metal_streaming(0.117e9),
            0.015,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn full_stack_throughput_close_to_model() {
        let m = throughput_manifest(
            DlModel::Resnet50,
            Framework::TensorFlow,
            GpuKind::K80,
            1,
            300,
        );
        let run = measure_dlaas_throughput(3, m);
        assert_eq!(run.status, JobStatus::Completed);
        let thr = run.images_per_sec.expect("throughput measured");
        // Model says ~52 img/s minus platform overheads and jitter.
        assert!((40.0..60.0).contains(&thr), "{thr}");
    }
}
