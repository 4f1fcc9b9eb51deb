//! Property tests of the scheduler and controllers: capacity is never
//! oversubscribed, feasible pods eventually run, infeasible pods stay
//! pending, and accounting balances after deletions.

use dlaas_gpu::GpuKind;
use dlaas_kube::{
    BehaviorRegistry, ContainerSpec, ImageRef, Kube, KubeConfig, NodeSpec, PodPhase, PodSpec,
    Resources,
};
use dlaas_sim::{Sim, SimDuration};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct PodReq {
    cpu: u32,
    mem: u32,
    gpus: u32,
    kind_ix: u8,
}

fn pod_strategy() -> impl Strategy<Value = PodReq> {
    (100..4000u32, 128..8192u32, 0..5u32, 0..2u8).prop_map(|(cpu, mem, gpus, kind_ix)| PodReq {
        cpu,
        mem,
        gpus,
        kind_ix,
    })
}

fn kind(ix: u8) -> GpuKind {
    if ix == 0 {
        GpuKind::K80
    } else {
        GpuKind::P100Pcie
    }
}

fn boot(seed: u64) -> (Sim, Kube) {
    let mut sim = Sim::new(seed);
    let registry = BehaviorRegistry::new();
    registry.register_noop("pause");
    let kube = Kube::new(&mut sim, KubeConfig, registry);
    kube.add_node(NodeSpec::gpu("a", 8000, 32768, 4, GpuKind::K80));
    kube.add_node(NodeSpec::gpu("b", 8000, 32768, 2, GpuKind::P100Pcie));
    kube.add_node(NodeSpec::cpu("c", 8000, 32768));
    (sim, kube)
}

fn node_capacity(kube: &Kube, node: &str) -> Resources {
    match node {
        "a" => Resources::new(8000, 32768, 4),
        "b" => Resources::new(8000, 32768, 2),
        "c" => Resources::new(8000, 32768, 0),
        other => panic!("unknown node {other}"),
    }
    .plus(&Resources::default())
    .plus(&Resources::default())
    .plus({
        let _ = kube;
        &Resources::default()
    })
}

fn feasible(req: &PodReq) -> bool {
    // Fits on at least one empty node of the matching GPU kind.
    if req.gpus == 0 {
        req.cpu <= 8000 && req.mem <= 32768
    } else {
        let max_gpus = if kind(req.kind_ix) == GpuKind::K80 {
            4
        } else {
            2
        };
        req.cpu <= 8000 && req.mem <= 32768 && req.gpus <= max_gpus
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn scheduler_never_oversubscribes_and_feasible_pods_run(
        seed in 0..u64::MAX,
        reqs in proptest::collection::vec(pod_strategy(), 1..25),
    ) {
        let (mut sim, kube) = boot(seed);
        for (i, req) in reqs.iter().enumerate() {
            let gpu_kind = if req.gpus > 0 { Some(kind(req.kind_ix)) } else { None };
            kube.create_pod(
                &mut sim,
                PodSpec::new(
                    format!("p{i}"),
                    ContainerSpec::new("m", ImageRef::microservice("x"), "pause"),
                )
                .with_resources(Resources::new(req.cpu, req.mem, req.gpus), gpu_kind),
            );
        }
        sim.run_for(SimDuration::from_secs(60));

        // Invariant 1: allocation never exceeds capacity on any node.
        for node in ["a", "b", "c"] {
            let alloc = kube.node_allocated(node).unwrap();
            let cap = node_capacity(&kube, node);
            prop_assert!(cap.fits(&alloc), "node {node}: {alloc:?} exceeds {cap:?}");
        }

        // Invariant 2: every pod is either Running or Pending — never lost.
        // Infeasible pods (too big for every node even empty) are Pending.
        for (i, req) in reqs.iter().enumerate() {
            let phase = kube.pod_phase(&format!("p{i}")).expect("pod exists");
            prop_assert!(
                matches!(phase, PodPhase::Running | PodPhase::Pending | PodPhase::Starting),
                "pod p{i} in unexpected phase {phase:?}"
            );
            if !feasible(req) {
                prop_assert_eq!(
                    phase,
                    PodPhase::Pending,
                    "infeasible pod p{} must stay pending", i
                );
            }
        }

        // Invariant 3 (progress): deleting every running pod frees enough
        // capacity that at least one pending *feasible* pod runs next.
        let pending_feasible: Vec<usize> = reqs
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                feasible(r) && kube.pod_phase(&format!("p{i}")) == Some(PodPhase::Pending)
            })
            .map(|(i, _)| i)
            .collect();
        if !pending_feasible.is_empty() {
            for (i, _) in reqs.iter().enumerate() {
                if kube.pod_phase(&format!("p{i}")) == Some(PodPhase::Running) {
                    kube.delete_pod(&mut sim, &format!("p{i}"));
                }
            }
            sim.run_for(SimDuration::from_secs(60));
            let progressed = pending_feasible
                .iter()
                .any(|i| kube.pod_phase(&format!("p{i}")) == Some(PodPhase::Running));
            prop_assert!(progressed, "freed capacity must unpark a feasible pod");
        }

        // Invariant 4: deleting everything returns allocation to zero.
        for (i, _) in reqs.iter().enumerate() {
            kube.delete_pod(&mut sim, &format!("p{i}"));
        }
        sim.run_for(SimDuration::from_secs(10));
        for node in ["a", "b", "c"] {
            prop_assert_eq!(
                kube.node_allocated(node).unwrap(),
                Resources::default(),
                "leaked allocation on {}", node
            );
        }
    }

    #[test]
    fn deployments_converge_to_replica_count_under_crashes(
        seed in 0..u64::MAX,
        replicas in 1..5u32,
        crashes in proptest::collection::vec(0..5u32, 0..6),
    ) {
        let (mut sim, kube) = boot(seed);
        let template = PodSpec::new(
            "t",
            ContainerSpec::new("m", ImageRef::microservice("x"), "pause"),
        );
        kube.create_deployment(&mut sim, "d", replicas, template);
        sim.run_for(SimDuration::from_secs(30));

        for c in crashes {
            let victim = format!("d-{}", c % replicas);
            if kube.pod_phase(&victim) == Some(PodPhase::Running) {
                kube.crash_pod(&mut sim, &victim);
            }
            sim.run_for(SimDuration::from_secs(15));
        }
        // Convergence: all replicas Running again (backoff capped at 300s).
        sim.run_for(SimDuration::from_secs(700));
        for i in 0..replicas {
            prop_assert_eq!(
                kube.pod_phase(&format!("d-{i}")),
                Some(PodPhase::Running),
                "replica {} did not converge", i
            );
        }
    }
}
