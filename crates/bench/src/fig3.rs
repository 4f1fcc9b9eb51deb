//! Figure 3: DLaaS (PCIe P100, containerized, data streamed) vs an
//! NVIDIA DGX-1 bare-metal server (SXM2 P100 with NVLink, local data),
//! TensorFlow benchmarks.
//!
//! Paper rows (difference in images/sec, %):
//!
//! | Benchmark   | GPUs | Paper  |
//! |-------------|------|--------|
//! | InceptionV3 | 1    | 3.30   |
//! | ResNet-50   | 1    | 7.07   |
//! | VGG-16      | 1    | 7.84   |
//! | InceptionV3 | 2    | 10.06  |
//! | ResNet-50   | 2    | 10.53  |
//! | VGG-16      | 2    | 13.69  |
//!
//! The shape to reproduce: the DGX-1 wins everywhere; its advantage
//! (a) grows with GPU count — NVLink vs PCIe gradient exchange — and
//! (b) is largest for communication-heavy models (VGG-16's 138 M
//! parameters), while remaining modest overall (≤ ~15%), which is the
//! paper's argument that commodity DLaaS hardware is cost-effective
//! against a 2–3× more expensive DGX-1.

use dlaas_core::CoreConfig;
use dlaas_gpu::{DlModel, ExecEnv, Framework, GpuKind};

use crate::harness::{
    bare_metal_images_per_sec, measure_dlaas_throughput, pct_diff, throughput_manifest,
};

/// One cell of the Fig. 3 table.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Cell {
    /// The benchmark network.
    pub model: DlModel,
    /// P100 GPUs used on each side (PCIe in DLaaS, SXM2 in the DGX-1).
    pub gpus: u32,
    /// The paper's reported difference (%).
    pub paper_pct: f64,
}

/// The six cells of the paper's table.
pub fn cells() -> Vec<Fig3Cell> {
    vec![
        Fig3Cell {
            model: DlModel::InceptionV3,
            gpus: 1,
            paper_pct: 3.30,
        },
        Fig3Cell {
            model: DlModel::Resnet50,
            gpus: 1,
            paper_pct: 7.07,
        },
        Fig3Cell {
            model: DlModel::Vgg16,
            gpus: 1,
            paper_pct: 7.84,
        },
        Fig3Cell {
            model: DlModel::InceptionV3,
            gpus: 2,
            paper_pct: 10.06,
        },
        Fig3Cell {
            model: DlModel::Resnet50,
            gpus: 2,
            paper_pct: 10.53,
        },
        Fig3Cell {
            model: DlModel::Vgg16,
            gpus: 2,
            paper_pct: 13.69,
        },
    ]
}

/// Result of reproducing one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// The cell.
    pub cell: Fig3Cell,
    /// DGX-1 throughput (images/sec).
    pub dgx1: f64,
    /// DLaaS throughput (images/sec).
    pub dlaas: f64,
    /// Measured deficit of DLaaS vs DGX-1 (%).
    pub measured_pct: f64,
}

/// Runs one cell: DLaaS through the full stack on PCIe P100s; the DGX-1
/// arm bare-metal on SXM2 P100s with NVLink and node-local data.
pub fn run_cell(seed: u64, cell: &Fig3Cell, iterations: u64) -> Fig3Result {
    let manifest = throughput_manifest(
        cell.model,
        Framework::TensorFlow,
        GpuKind::P100Pcie,
        cell.gpus,
        iterations,
    );
    let run = measure_dlaas_throughput(seed, manifest, CoreConfig::default());
    let dlaas = run
        .images_per_sec
        .expect("fig3 job must complete and report throughput");
    let dgx1 = bare_metal_images_per_sec(
        seed,
        cell.model,
        Framework::TensorFlow,
        GpuKind::P100Sxm2,
        cell.gpus,
        ExecEnv::bare_metal(),
        0.015,
    );
    Fig3Result {
        cell: cell.clone(),
        dgx1,
        dlaas,
        measured_pct: pct_diff(dgx1, dlaas),
    }
}

/// Runs the whole table.
pub fn run_all(seed: u64, iterations: u64) -> Vec<Fig3Result> {
    cells()
        .iter()
        .map(|c| run_cell(seed, c, iterations))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx_advantage_grows_with_gpus_and_stays_modest() {
        let one = run_cell(5, &cells()[2], 150); // VGG-16 x1
        let two = run_cell(5, &cells()[5], 150); // VGG-16 x2
        assert!(one.measured_pct > 0.0, "DGX-1 must win: {one:?}");
        assert!(
            two.measured_pct > one.measured_pct,
            "NVLink advantage must grow with GPUs: {one:?} vs {two:?}"
        );
        assert!(two.measured_pct < 20.0, "deficit must stay modest: {two:?}");
    }
}
