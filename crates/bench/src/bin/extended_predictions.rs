//! Beyond the paper: predictions for hardware/frameworks the paper
//! mentions but does not evaluate — V100 parts (DGX-1V), Horovod's
//! overlapped allreduce, and 10 GbE / InfiniBand cluster fabrics for
//! distributed jobs. These are forward-looking outputs of the calibrated
//! performance model (the paper's §I motivates exactly these trends:
//! NVLink, InfiniBand, 100G Ethernet).
//!
//! Usage: `cargo run --release -p dlaas-bench --bin extended_predictions`

use dlaas_bench::cli;
use dlaas_bench::harness::print_table;
use dlaas_gpu::{
    images_per_sec, DlModel, ExecEnv, Framework, GpuKind, Interconnect, TrainingConfig,
};

fn main() {
    cli::parse_or_exit("usage: extended_predictions", |_| Ok(()));
    // 1. The Fig. 3 experiment projected onto V100s.
    let mut rows = Vec::new();
    for model in DlModel::all() {
        for gpus in [1u32, 2, 4] {
            let pcie = TrainingConfig::new(model, Framework::TensorFlow, GpuKind::V100Pcie, gpus);
            let dgx = TrainingConfig::new(model, Framework::TensorFlow, GpuKind::V100Sxm2, gpus);
            let dlaas = images_per_sec(&pcie, &ExecEnv::dlaas(0.117e9, 0.008));
            let bare = images_per_sec(&dgx, &ExecEnv::bare_metal());
            rows.push(vec![
                model.to_string(),
                gpus.to_string(),
                format!("{bare:.0}"),
                format!("{dlaas:.0}"),
                format!("{:.1}%", (bare - dlaas) / bare * 100.0),
            ]);
        }
    }
    print_table(
        "Prediction — DLaaS (PCIe V100) vs DGX-1V (NVLink V100), TensorFlow",
        &[
            "Benchmark",
            "#GPUs",
            "DGX-1V img/s",
            "DLaaS img/s",
            "deficit",
        ],
        &rows,
    );

    // 2. Distributed scaling vs cluster fabric (the paper's §I point about
    //    Infiniband/fast Ethernet enabling distributed training).
    let mut rows = Vec::new();
    for fabric in [
        Interconnect::Ethernet1G,
        Interconnect::Ethernet10G,
        Interconnect::InfinibandEdr,
    ] {
        for learners in [1u32, 2, 4, 8] {
            let mut cfg = TrainingConfig::new(
                DlModel::Resnet50,
                Framework::TensorFlow,
                GpuKind::P100Pcie,
                1,
            )
            .distributed(learners);
            cfg.inter_interconnect = fabric;
            let rate = images_per_sec(&cfg, &ExecEnv::bare_metal());
            let ideal = images_per_sec(
                &TrainingConfig::new(
                    DlModel::Resnet50,
                    Framework::TensorFlow,
                    GpuKind::P100Pcie,
                    1,
                ),
                &ExecEnv::bare_metal(),
            ) * learners as f64;
            rows.push(vec![
                fabric.to_string(),
                learners.to_string(),
                format!("{rate:.0}"),
                format!("{:.0}%", rate / ideal * 100.0),
            ]);
        }
    }
    print_table(
        "Prediction — distributed ResNet-50 scaling efficiency by cluster fabric",
        &["fabric", "learners", "img/s", "scaling efficiency"],
        &rows,
    );

    // 3. Horovod's overlap advantage on communication-bound VGG-16.
    let mut rows = Vec::new();
    for fw in [Framework::TensorFlow, Framework::Horovod] {
        for learners in [2u32, 4, 8] {
            let mut cfg =
                TrainingConfig::new(DlModel::Vgg16, fw, GpuKind::P100Pcie, 1).distributed(learners);
            cfg.inter_interconnect = Interconnect::Ethernet10G;
            let rate = images_per_sec(&cfg, &ExecEnv::bare_metal());
            rows.push(vec![
                fw.to_string(),
                learners.to_string(),
                format!("{rate:.0}"),
            ]);
        }
    }
    print_table(
        "Prediction — VGG-16 over 10GbE: Horovod's comm overlap vs stock TF",
        &["framework", "learners", "img/s"],
        &rows,
    );

    println!("\nThese extend the paper's calibrated model; no measured counterpart exists.");
}
