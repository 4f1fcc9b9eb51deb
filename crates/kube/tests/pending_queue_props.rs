//! Property test for the incrementally-maintained pending-pod queue: under
//! arbitrary interleavings of pod creation, node crash/restart, deployment
//! scale-up/down, cordons, and pod-delete races, the queue must stay
//! byte-identical to a from-scratch scan of the pod table.

use dlaas_gpu::GpuKind;
use dlaas_kube::{
    BehaviorRegistry, ContainerSpec, ImageRef, Kube, KubeConfig, NodeSpec, PodSpec, Resources,
};
use dlaas_sim::{Sim, SimDuration};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Create a bare pod; large resource asks park it as Pending forever.
    CreatePod {
        ix: u8,
        cpu: u32,
        gpus: u32,
    },
    DeletePod {
        ix: u8,
    },
    CrashPod {
        ix: u8,
    },
    CrashNode {
        ix: u8,
    },
    RestartNode {
        ix: u8,
    },
    CordonNode {
        ix: u8,
    },
    UncordonNode {
        ix: u8,
    },
    DrainNode {
        ix: u8,
    },
    ScaleDeployment {
        replicas: u32,
    },
    /// Let in-flight schedule/start/detect timers fire between mutations.
    Advance {
        secs: u16,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..16u8, 100..12000u32, 0..6u32).prop_map(|(ix, cpu, gpus)| Op::CreatePod {
            ix,
            cpu,
            gpus
        }),
        (0..16u8).prop_map(|ix| Op::DeletePod { ix }),
        (0..16u8).prop_map(|ix| Op::CrashPod { ix }),
        (0..3u8).prop_map(|ix| Op::CrashNode { ix }),
        (0..3u8).prop_map(|ix| Op::RestartNode { ix }),
        (0..3u8).prop_map(|ix| Op::CordonNode { ix }),
        (0..3u8).prop_map(|ix| Op::UncordonNode { ix }),
        (0..3u8).prop_map(|ix| Op::DrainNode { ix }),
        (0..6u32).prop_map(|replicas| Op::ScaleDeployment { replicas }),
        (1..90u16).prop_map(|secs| Op::Advance { secs }),
    ]
}

fn node_name(ix: u8) -> &'static str {
    ["a", "b", "c"][usize::from(ix) % 3]
}

fn boot(seed: u64) -> (Sim, Kube) {
    let mut sim = Sim::new(seed);
    let registry = BehaviorRegistry::new();
    registry.register_noop("pause");
    let kube = Kube::new(&mut sim, KubeConfig, registry);
    kube.add_node(NodeSpec::gpu("a", 8000, 32768, 4, GpuKind::K80));
    kube.add_node(NodeSpec::gpu("b", 8000, 32768, 2, GpuKind::K80));
    kube.add_node(NodeSpec::cpu("c", 8000, 32768));
    (sim, kube)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn pending_queue_matches_from_scratch_scan(
        seed in 0..u64::MAX,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let (mut sim, kube) = boot(seed);
        let template = PodSpec::new(
            "t",
            ContainerSpec::new("m", ImageRef::microservice("x"), "pause"),
        );
        kube.create_deployment(&mut sim, "d", 2, template);
        sim.run_for(SimDuration::from_secs(30));

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::CreatePod { ix, cpu, gpus } => {
                    let gpu_kind = if gpus > 0 { Some(GpuKind::K80) } else { None };
                    kube.create_pod(
                        &mut sim,
                        PodSpec::new(
                            format!("p{ix}"),
                            ContainerSpec::new("m", ImageRef::microservice("x"), "pause"),
                        )
                        .with_resources(Resources::new(cpu, 1024, gpus), gpu_kind),
                    );
                }
                Op::DeletePod { ix } => {
                    kube.delete_pod(&mut sim, &format!("p{ix}"));
                }
                Op::CrashPod { ix } => {
                    kube.crash_pod(&mut sim, &format!("p{ix}"));
                }
                Op::CrashNode { ix } => {
                    kube.crash_node(&mut sim, node_name(ix));
                }
                Op::RestartNode { ix } => {
                    kube.restart_node(&mut sim, node_name(ix));
                }
                Op::CordonNode { ix } => {
                    kube.cordon_node(&mut sim, node_name(ix));
                }
                Op::UncordonNode { ix } => {
                    kube.uncordon_node(&mut sim, node_name(ix));
                }
                Op::DrainNode { ix } => {
                    kube.drain_node(&mut sim, node_name(ix));
                }
                Op::ScaleDeployment { replicas } => {
                    kube.scale_deployment(&mut sim, "d", replicas);
                }
                Op::Advance { secs } => {
                    sim.run_for(SimDuration::from_secs(u64::from(secs)));
                }
            }
            // The invariant must hold after EVERY mutation, not just at
            // quiescence: kick_pending reads the queue synchronously.
            prop_assert_eq!(
                kube.pending_queue(),
                kube.pending_queue_scan(),
                "queue diverged from scan after step {} ({:?})", step, op
            );
        }

        // And again once every in-flight timer has fired.
        sim.run_for(SimDuration::from_secs(900));
        prop_assert_eq!(
            kube.pending_queue(),
            kube.pending_queue_scan(),
            "queue diverged from scan at quiescence"
        );
    }
}
