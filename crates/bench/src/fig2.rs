//! Figure 2: performance overhead of DLaaS vs IBM Cloud bare-metal
//! servers, on K80 GPUs over 1 GbE with data in the object store.
//!
//! Paper rows (difference in images/sec, %):
//!
//! | Benchmark   | Framework  | GPUs | Paper |
//! |-------------|------------|------|-------|
//! | VGG-16      | Caffe      | 1    | 3.29  |
//! | VGG-16      | Caffe      | 2    | 0.34  |
//! | VGG-16      | Caffe      | 3    | 5.88  |
//! | VGG-16      | Caffe      | 4    | 5.2   |
//! | InceptionV3 | TensorFlow | 1    | 0.32  |
//! | InceptionV3 | TensorFlow | 2    | 4.86  |
//! | InceptionV3 | TensorFlow | 3    | 5.15  |
//! | InceptionV3 | TensorFlow | 4    | 1.54  |
//!
//! The paper's claim is the *shape*: overhead is small (≲6%) and
//! unsystematic — it is dominated by containerization, helper
//! interference and run-to-run noise, not by anything that scales with
//! the job. That is what this experiment must reproduce.

use dlaas_core::CoreConfig;
use dlaas_gpu::{DlModel, ExecEnv, Framework, GpuKind};
use dlaas_sim::SimDuration;

use crate::harness::{
    bare_metal_images_per_sec, measure_dlaas_throughput, pct_diff, throughput_manifest,
};
use crate::runner::{CampaignReport, CampaignRunner, Trial, TrialRun};

/// One cell of the Fig. 2 table.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Cell {
    /// The benchmark network.
    pub model: DlModel,
    /// The framework.
    pub framework: Framework,
    /// PCIe K80 GPUs used.
    pub gpus: u32,
    /// The paper's reported overhead (%).
    pub paper_pct: f64,
}

/// The eight cells of the paper's table.
pub fn cells() -> Vec<Fig2Cell> {
    let v = |gpus, paper_pct| Fig2Cell {
        model: DlModel::Vgg16,
        framework: Framework::Caffe,
        gpus,
        paper_pct,
    };
    let i = |gpus, paper_pct| Fig2Cell {
        model: DlModel::InceptionV3,
        framework: Framework::TensorFlow,
        gpus,
        paper_pct,
    };
    vec![
        v(1, 3.29),
        v(2, 0.34),
        v(3, 5.88),
        v(4, 5.2),
        i(1, 0.32),
        i(2, 4.86),
        i(3, 5.15),
        i(4, 1.54),
    ]
}

/// Result of reproducing one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// The cell.
    pub cell: Fig2Cell,
    /// Bare-metal throughput (images/sec).
    pub bare_metal: f64,
    /// DLaaS throughput through the full stack (images/sec).
    pub dlaas: f64,
    /// Measured overhead (%).
    pub measured_pct: f64,
}

/// Runs one cell: the DLaaS arm goes through the full platform; the
/// bare-metal arm is an independent run on the same hardware model,
/// streaming its data from the object store exactly as the paper's
/// baseline did. Also reports the simulated time the DLaaS arm consumed
/// (what the campaign runner's sim-time budget is checked against).
pub fn run_cell(seed: u64, cell: &Fig2Cell, iterations: u64) -> TrialRun<Fig2Result> {
    let manifest = throughput_manifest(
        cell.model,
        cell.framework,
        GpuKind::K80,
        cell.gpus,
        iterations,
    );
    let run = measure_dlaas_throughput(seed, manifest, CoreConfig::default());
    let dlaas = run
        .images_per_sec
        .expect("fig2 job must complete and report throughput");
    let bare_metal = bare_metal_images_per_sec(
        seed,
        cell.model,
        cell.framework,
        GpuKind::K80,
        cell.gpus,
        ExecEnv::bare_metal_streaming(0.117e9),
        0.015,
    );
    TrialRun {
        result: Fig2Result {
            cell: cell.clone(),
            bare_metal,
            dlaas,
            measured_pct: pct_diff(bare_metal, dlaas),
        },
        sim_elapsed: SimDuration::from_secs_f64(run.wall_secs),
    }
}

/// Runs `trials` independent repetitions of the whole table (trial `t`
/// uses seed `seed + t`) on `threads` workers, one runner trial per
/// (repetition, cell). The canonical trial enumeration is
/// repetition-major, so record `t * cells + c` is repetition `t` of
/// cell `c` — byte-identical at any thread count.
pub fn run_parallel(
    seed: u64,
    iterations: u64,
    trials: u64,
    threads: usize,
) -> CampaignReport<Fig2Result> {
    let mut specs = Vec::new();
    for t in 0..trials {
        for cell in cells() {
            specs.push(Trial {
                label: format!("t{t}/{}-{}-x{}", cell.model, cell.framework, cell.gpus),
                repro: format!(
                    "cargo run --release -p dlaas-bench --bin fig2 -- {} {iterations} 1",
                    seed + t
                ),
                spec: (seed + t, cell),
            });
        }
    }
    CampaignRunner::new("fig2", threads).run(specs, |(trial_seed, cell), _ctx| {
        run_cell(*trial_seed, cell, iterations)
    })
}

/// Regroups a clean campaign's records repetition-major: `out[t][c]` is
/// repetition `t` of cell `c`. `None` when any trial was abnormal
/// (timeout/panic) — callers must report the failure records instead.
pub fn by_repetition(
    report: &CampaignReport<Fig2Result>,
    trials: u64,
) -> Option<Vec<Vec<Fig2Result>>> {
    if !report.abnormal().is_empty() {
        return None;
    }
    let per = cells().len();
    let all: Vec<Fig2Result> = report.results().cloned().collect();
    if all.len() != per * trials as usize {
        return None;
    }
    Some(all.chunks(per).map(<[Fig2Result]>::to_vec).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_small_for_every_cell() {
        // The headline claim of Fig. 2: platform overhead is minimal.
        for cell in cells().iter().take(2) {
            let r = run_cell(42, cell, 200).result;
            assert!(
                r.measured_pct < 8.0,
                "{:?}: overhead {:.2}% is not 'minimal'",
                cell,
                r.measured_pct
            );
            assert!(
                r.measured_pct > -3.0,
                "{cell:?}: DLaaS can't meaningfully beat bare metal"
            );
        }
    }
}
