//! Sensitivity analysis behind Fig. 2: where does the DLaaS overhead
//! come from? With run-to-run jitter switched off, the measured overhead
//! decomposes exactly into containerization (fixed ~0.8%) plus the
//! helper-interference (CPU-steal) term, which this sweep varies.
//!
//! Usage: `cargo run --release -p dlaas-bench --bin ablation_overhead [seed]`

use dlaas_bench::cli;
use dlaas_bench::harness::{
    bare_metal_images_per_sec, measure_dlaas_throughput, pct_diff, print_table, throughput_manifest,
};
use dlaas_core::CoreConfig;
use dlaas_gpu::{DlModel, ExecEnv, Framework, GpuKind};

const USAGE: &str = "usage: ablation_overhead [seed]";

fn main() {
    let seed: u64 = cli::parse_or_exit(USAGE, |a| Ok(a.positional("seed")?.unwrap_or(2018)));
    eprintln!("sweeping helper interference with jitter off (seed {seed})…");

    let bare = bare_metal_images_per_sec(
        seed,
        DlModel::Resnet50,
        Framework::TensorFlow,
        GpuKind::K80,
        1,
        ExecEnv::bare_metal_streaming(0.117e9),
        0.0, // jitter off: isolate the systematic terms
    );

    let rows: Vec<Vec<String>> = [0.0f64, 0.004, 0.008, 0.016, 0.032]
        .iter()
        .map(|steal| {
            let cfg = CoreConfig {
                helper_steal: *steal,
                throughput_jitter: 0.0,
                ..CoreConfig::default()
            };
            let manifest = throughput_manifest(
                DlModel::Resnet50,
                Framework::TensorFlow,
                GpuKind::K80,
                1,
                300,
            );
            let run = measure_dlaas_throughput(seed, manifest, cfg);
            let dlaas = run.images_per_sec.expect("job completes");
            let measured = pct_diff(bare, dlaas);
            let predicted = (1.0 - dlaas_gpu::CONTAINER_FACTOR * (1.0 - steal)) * 100.0;
            vec![
                format!("{:.1}%", steal * 100.0),
                format!("{dlaas:.2}"),
                format!("{measured:.2}%"),
                format!("{predicted:.2}%"),
            ]
        })
        .collect();
    print_table(
        "Sensitivity — DLaaS overhead vs helper interference (jitter off, ResNet-50/TF/1xK80)",
        &[
            "helper steal",
            "DLaaS img/s",
            "measured overhead",
            "container+steal model",
        ],
        &rows,
    );
    println!("\nwith noise removed, measured overhead equals the container+steal model —\nFig. 2's scatter is run-to-run measurement noise on top of this floor.");
}
