//! Shared experiment machinery: boot a platform through the soak
//! driver's boot step, submit a job, run one training job through the
//! whole stack, and report the measured throughput.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_core::{
    paths, CoreConfig, DlaasClient, DlaasPlatform, GpuNodeSpec, JobId, JobStatus, LearnerPhase,
    PlatformConfig, Tenant, TrainingManifest, TrainingManifestBuilder,
};
use dlaas_gpu::{DlModel, ExecEnv, Framework, GpuKind, Interconnect, TrainingConfig};
use dlaas_sim::{Sim, SimDuration};

use crate::soak::{self, DATA, RESULTS};

/// API key used by every experiment tenant.
pub const BENCH_KEY: &str = "bench-key";

/// Size of the dataset an experiment's jobs stage.
pub(crate) const EXPERIMENT_DATASET_BYTES: u64 = 2_000_000_000;

/// Outcome of running one job through the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRun {
    /// Terminal status.
    pub status: JobStatus,
    /// Throughput measured by the learners (images/sec), when completed.
    pub images_per_sec: Option<f64>,
    /// Simulated seconds from submission to completion.
    pub wall_secs: f64,
}

/// The one experiment tenant, `bench`, without a quota (for `n` jobs).
pub(crate) fn bench_tenants(_n: u64) -> Vec<Tenant> {
    vec![Tenant::new("bench", BENCH_KEY, 0)]
}

/// The one-job experiments' cluster: the default core nodes and two GPU
/// nodes of `kind` with `gpus_per_node` GPUs each (one at least).
pub fn experiment_config(kind: GpuKind, gpus_per_node: u32) -> PlatformConfig {
    PlatformConfig {
        gpu_nodes: vec![GpuNodeSpec {
            kind,
            count: 2,
            gpus_each: gpus_per_node.max(1),
        }],
        ..PlatformConfig::default()
    }
}

/// Boots `cfg` through the soak driver's boot step with the bench tenant
/// and an `EXPERIMENT_DATASET_BYTES` dataset; returns the platform and
/// the tenant's client.
pub fn experiment_platform(sim: &mut Sim, cfg: PlatformConfig) -> (DlaasPlatform, DlaasClient) {
    let platform = soak::boot(sim, cfg, &bench_tenants(1), EXPERIMENT_DATASET_BYTES);
    let client = platform.client("bench", BENCH_KEY);
    (platform, client)
}

/// A manifest builder for a job on an [`experiment_platform`]: its data
/// and results buckets are set.
pub fn experiment_manifest(name: impl Into<String>) -> TrainingManifestBuilder {
    TrainingManifest::builder(name)
        .data(DATA, "d/", EXPERIMENT_DATASET_BYTES)
        .results(RESULTS)
}

/// Submits `manifest` and runs the simulation until the platform
/// acknowledges it.
///
/// # Panics
///
/// If the submission is refused, or the simulation runs dry first.
pub fn submit_blocking(sim: &mut Sim, client: &DlaasClient, manifest: TrainingManifest) -> JobId {
    let got: Rc<RefCell<Option<JobId>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    client.submit(sim, manifest, move |_s, r| {
        *g.borrow_mut() = Some(r.expect("submission accepted"));
    });
    sim.run_until_pred(|_| got.borrow().is_some());
    got.take().expect("acknowledged")
}

/// The training iteration learner 0 of `job` last reported — read where
/// the controller itself reads it, the learner's status file on the
/// job's NFS volume. etcd carries the figure at the Guardian's mirror
/// cadence and the job document trails that, so an experiment that
/// stages a fault at a given iteration reads the ground truth here.
pub fn reported_iteration(platform: &DlaasPlatform, job: &JobId) -> Option<u64> {
    let nfs = platform.nfs();
    nfs.mount(&paths::volume(job))
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
    experiment_manifest(format!("{model}-{framework}-x{gpus}"))
        .framework(framework)
        .model(model)
        .gpus(gpu, gpus)
        .learners(1)
        .iterations(iterations)
        .build()
        .expect("valid experiment manifest")
}

/// Submits `manifest` on a fresh platform with control-plane config
/// `core` and runs it to a terminal state, returning the measured
/// numbers. `seed` controls all simulated noise (placement, jitter,
/// timings).
pub fn measure_dlaas_throughput(seed: u64, manifest: TrainingManifest, core: CoreConfig) -> JobRun {
    let mut sim = Sim::new(seed);
    let gpus = manifest.gpus_per_learner * manifest.learners;
    let cfg = PlatformConfig {
        core,
        ..experiment_config(manifest.gpu_kind, gpus)
    };
    let (platform, client) = experiment_platform(&mut sim, cfg);
    let job = submit_blocking(&mut sim, &client, manifest);
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
        let run = measure_dlaas_throughput(3, m, CoreConfig::default());
        assert_eq!(run.status, JobStatus::Completed);
        let thr = run.images_per_sec.expect("throughput measured");
        // Model says ~52 img/s minus platform overheads and jitter.
        assert!((40.0..60.0).contains(&thr), "{thr}");
    }
}
