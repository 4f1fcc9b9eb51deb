//! Distributed training with failures: a 4-learner VGG-16 job with
//! checkpointing survives a learner crash *and* a whole-node crash, and
//! the user can see exactly what happened from the outside — the §II
//! requirement that "training progress graphs differ (slightly) between a
//! job that never experienced a failure and a job that did".
//!
//! Run with: `cargo run -p dlaas-examples --bin distributed_training`

use dlaas_core::{
    paths, DlaasPlatform, GpuNodeSpec, JobStatus, PlatformConfig, Tenant, TrainingManifest,
};
use dlaas_examples::{banner, submit_blocking};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_sim::{Sim, SimDuration};

fn main() {
    banner("booting a platform with 5 P100 nodes (one spare for fail-over)");
    let mut sim = Sim::new(7);
    let cfg = PlatformConfig {
        gpu_nodes: vec![GpuNodeSpec {
            kind: GpuKind::P100Pcie,
            count: 5,
            gpus_each: 2,
        }],
        ..PlatformConfig::default()
    };
    let platform = DlaasPlatform::new(&mut sim, cfg);
    platform.run_until_ready(&mut sim, SimDuration::from_secs(60));
    platform
        .add_tenant(&Tenant::new("research", "res-key", 32))
        .expect("bootstrap tenant insert");
    platform.seed_dataset("research-data", "openimages/", 40_000_000_000);
    platform.create_bucket("research-results");

    banner("submitting a 4-learner VGG-16 job (2 P100s each, ckpt every 400 iters)");
    let manifest = TrainingManifest::builder("vgg16-distributed")
        .framework(Framework::TensorFlow)
        .model(DlModel::Vgg16)
        .gpus(GpuKind::P100Pcie, 2)
        .learners(4)
        .data("research-data", "openimages/", 40_000_000_000)
        .results("research-results")
        .iterations(4_000)
        .checkpoint_every(400)
        .build()
        .expect("valid manifest");
    let client = platform.client("grad-student", "res-key");
    let job = submit_blocking(&mut sim, &client, manifest);
    println!("job {job} accepted");

    let s = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    assert_eq!(s, Some(JobStatus::Processing));
    println!("all 4 learners training at t={}", sim.now());
    for i in 0..4 {
        let pod = paths::learner_pod(&job, i);
        println!(
            "  {} on node {}",
            pod,
            platform.kube().pod_node(&pod).unwrap_or_default()
        );
    }

    banner("injecting failure 1: crash learner-2's process");
    sim.run_for(SimDuration::from_mins(8));
    let before = platform.job_info(&job).unwrap().iteration;
    platform
        .kube()
        .crash_pod(&mut sim, &paths::learner_pod(&job, 2));
    println!(
        "crashed at iteration ~{before}; kubernetes restarts it, it resumes from the checkpoint"
    );
    sim.run_for(SimDuration::from_mins(2));

    banner("injecting failure 2: crash the node under learner-0");
    let node = platform
        .kube()
        .pod_node(&paths::learner_pod(&job, 0))
        .expect("placed");
    platform.kube().crash_node(&mut sim, &node);
    println!("node {node} lost; the statefulset reschedules learner-0 elsewhere");

    banner("waiting for completion");
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(12),
    );
    assert_eq!(end, Some(JobStatus::Completed));

    let info = platform.job_info(&job).unwrap();
    println!("status:      {}", info.status);
    println!("iterations:  {}", info.iteration);
    println!(
        "throughput:  {:.0} images/sec across 8 GPUs",
        info.images_per_sec.unwrap_or(0.0)
    );
    println!(
        "restarts:    {} (the user is told the progress graph has seams)",
        info.learner_restarts
    );
    assert!(info.learner_restarts >= 2);

    // The restart seams are visible in the learner logs.
    let log = platform
        .objstore()
        .read_text("research-results", &paths::obj_log(&job, 2))
        .unwrap_or_default();
    let seam = log
        .lines()
        .find(|l| l.contains("restarted") || l.contains("resumed"));
    println!("log seam:    {}", seam.unwrap_or("(none)"));
}
