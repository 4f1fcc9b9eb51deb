//! Shared helpers for the cross-crate integration tests (the tests
//! themselves live in `tests/tests/`).

use dlaas_core::{DlaasPlatform, JobId, JobStatus, PlatformConfig, Tenant, TrainingManifest};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_sim::{Sim, SimDuration};

pub use dlaas_bench::harness::submit_blocking;

/// The standard test tenant's API key.
pub const KEY: &str = "itest-key";

/// Boots a default platform with a seeded tenant, dataset and results
/// bucket.
pub fn boot(seed: u64) -> (Sim, DlaasPlatform) {
    boot_in(Sim::new(seed))
}

/// [`boot`] in a world the caller prepared (a tap installed, say).
pub fn boot_in(sim: Sim) -> (Sim, DlaasPlatform) {
    boot_with(sim, PlatformConfig::default())
}

/// [`boot_in`] with a platform configuration of the caller's.
pub fn boot_with(mut sim: Sim, cfg: PlatformConfig) -> (Sim, DlaasPlatform) {
    let platform = DlaasPlatform::new(&mut sim, cfg);
    platform.run_until_ready(&mut sim, SimDuration::from_secs(60));
    platform
        .add_tenant(&Tenant::new("itest", KEY, 0))
        .expect("bootstrap tenant insert");
    platform.seed_dataset("itest-data", "d/", 2_000_000_000);
    platform.create_bucket("itest-results");
    (sim, platform)
}

/// A small single-learner manifest.
pub fn manifest(name: &str, iters: u64) -> TrainingManifest {
    TrainingManifest::builder(name)
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .learners(1)
        .data("itest-data", "d/", 2_000_000_000)
        .results("itest-results")
        .iterations(iters)
        .build()
        .expect("valid manifest")
}

/// Submits a single-learner job as the standard tenant and returns once
/// it is training.
pub fn start_training(sim: &mut Sim, platform: &DlaasPlatform, name: &str, iters: u64) -> JobId {
    let client = platform.client("itest", KEY);
    let job = submit_blocking(sim, &client, manifest(name, iters));
    let started =
        platform.wait_for_status(sim, &job, JobStatus::Processing, SimDuration::from_mins(30));
    assert_eq!(started, Some(JobStatus::Processing), "{job} never started");
    job
}
