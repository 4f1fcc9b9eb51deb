//! Behavioural tests of the Kubernetes simulator: scheduling, controller
//! reconciliation, restart paths, services and network policies.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dlaas_gpu::GpuKind;
use dlaas_kube::{
    labels, BehaviorRegistry, ContainerSpec, ImageRef, JobStatus, Kube, KubeConfig, NetworkPolicy,
    NodeSpec, PodPhase, PodSpec, Resources, RestartPolicy,
};
use dlaas_sim::{Sim, SimDuration, SimTime};

fn boot(seed: u64) -> (Sim, Kube, BehaviorRegistry) {
    let mut sim = Sim::new(seed);
    let registry = BehaviorRegistry::new();
    registry.register_noop("pause");
    let kube = Kube::new(&mut sim, KubeConfig::default(), registry.clone());
    kube.add_node(NodeSpec::cpu("svc-1", 8000, 32768));
    kube.add_node(NodeSpec::cpu("svc-2", 8000, 32768));
    kube.add_node(NodeSpec::gpu("gpu-1", 16000, 131072, 4, GpuKind::K80));
    kube.add_node(NodeSpec::gpu("gpu-2", 16000, 131072, 4, GpuKind::P100Pcie));
    (sim, kube, registry)
}

fn pause_pod(name: &str) -> PodSpec {
    PodSpec::new(
        name,
        ContainerSpec::new("main", ImageRef::microservice("svc"), "pause"),
    )
}

#[test]
fn pod_reaches_running_through_lifecycle() {
    let (mut sim, kube, _) = boot(1);
    kube.create_pod(&mut sim, pause_pod("p0"));
    assert_eq!(kube.pod_phase("p0"), Some(PodPhase::Pending));
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(kube.pod_phase("p0"), Some(PodPhase::Running));
    assert!(kube.pod_ready(&sim, "p0"));
    assert!(kube.pod_node("p0").is_some());
    // Lifecycle events present.
    let reasons: Vec<String> = kube.events().iter().map(|e| e.reason.clone()).collect();
    for needed in ["Created", "Scheduled", "Starting", "Started"] {
        assert!(
            reasons.iter().any(|r| r == needed),
            "missing event {needed}"
        );
    }
}

#[test]
fn duplicate_pod_name_rejected() {
    let (mut sim, kube, _) = boot(2);
    kube.create_pod(&mut sim, pause_pod("dup"));
    kube.create_pod(&mut sim, pause_pod("dup"));
    sim.run_for(SimDuration::from_secs(5));
    let fails = kube
        .events()
        .iter()
        .filter(|e| e.reason == "CreateFailed")
        .count();
    assert_eq!(fails, 1);
}

#[test]
fn gpu_pods_land_on_matching_nodes_only() {
    let (mut sim, kube, _) = boot(3);
    let pod =
        pause_pod("learner-k80").with_resources(Resources::new(2000, 8192, 2), Some(GpuKind::K80));
    kube.create_pod(&mut sim, pod);
    let pod = pause_pod("learner-p100")
        .with_resources(Resources::new(2000, 8192, 2), Some(GpuKind::P100Pcie));
    kube.create_pod(&mut sim, pod);
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(kube.pod_node("learner-k80").as_deref(), Some("gpu-1"));
    assert_eq!(kube.pod_node("learner-p100").as_deref(), Some("gpu-2"));
}

#[test]
fn pod_parks_pending_until_capacity_frees() {
    let (mut sim, kube, _) = boot(4);
    // Two pods each needing 3 GPUs: only one fits on the K80 node.
    for name in ["big-0", "big-1"] {
        kube.create_pod(
            &mut sim,
            pause_pod(name).with_resources(Resources::new(1000, 1024, 3), Some(GpuKind::K80)),
        );
    }
    sim.run_for(SimDuration::from_secs(10));
    let phases = [kube.pod_phase("big-0"), kube.pod_phase("big-1")];
    assert!(phases.contains(&Some(PodPhase::Running)));
    assert!(phases.contains(&Some(PodPhase::Pending)));

    // Free the capacity: the parked pod schedules.
    let running = if kube.pod_phase("big-0") == Some(PodPhase::Running) {
        "big-0"
    } else {
        "big-1"
    };
    kube.delete_pod(&mut sim, running);
    sim.run_for(SimDuration::from_secs(10));
    let parked = if running == "big-0" { "big-1" } else { "big-0" };
    assert_eq!(kube.pod_phase(parked), Some(PodPhase::Running));
}

#[test]
fn first_pull_slow_then_cached_fast() {
    let (mut sim, kube, _) = boot(5);
    let big_image = ImageRef::new("dlaas/tensorflow:1.5", 3_800_000_000);
    let spec = |n: &str| {
        PodSpec::new(n, ContainerSpec::new("main", big_image.clone(), "pause"))
            .with_resources(Resources::new(1000, 1024, 1), Some(GpuKind::K80))
    };
    let t0 = sim.now();
    kube.create_pod(&mut sim, spec("first"));
    sim.run_until_pred(|_| kube.pod_phase("first") == Some(PodPhase::Running));
    let first_time = sim.now() - t0;

    let t1 = sim.now();
    kube.create_pod(&mut sim, spec("second"));
    sim.run_until_pred(|_| kube.pod_phase("second") == Some(PodPhase::Running));
    let second_time = sim.now() - t1;

    assert!(
        first_time > second_time * 3,
        "pull {first_time} should dwarf cached start {second_time}"
    );
    assert!(
        first_time > SimDuration::from_secs(10),
        "4GB pull takes >10s"
    );
}

#[test]
fn crashed_pod_restarts_in_place_quickly() {
    let (mut sim, kube, _) = boot(6);
    kube.create_pod(&mut sim, pause_pod("svc"));
    sim.run_for(SimDuration::from_secs(10));
    let node_before = kube.pod_node("svc");

    let crash_at = sim.now();
    assert!(kube.crash_pod(&mut sim, "svc"));
    sim.run_until_pred(|_| kube.pod_phase("svc") == Some(PodPhase::Running));
    let recovery = sim.now() - crash_at;
    assert_eq!(
        kube.pod_node("svc"),
        node_before,
        "in-place restart keeps the node"
    );
    assert_eq!(kube.pod_restarts("svc"), Some(1));
    assert!(
        recovery < SimDuration::from_secs(5),
        "first in-place restart is fast, got {recovery}"
    );
}

#[test]
fn crash_loop_backoff_grows() {
    let (mut sim, kube, _) = boot(7);
    kube.create_pod(&mut sim, pause_pod("flappy"));
    sim.run_for(SimDuration::from_secs(10));

    let mut recoveries = Vec::new();
    for _ in 0..3 {
        let t = sim.now();
        kube.crash_pod(&mut sim, "flappy");
        sim.run_until_pred(|_| kube.pod_phase("flappy") == Some(PodPhase::Running));
        recoveries.push(sim.now() - t);
    }
    assert!(
        recoveries[1] > recoveries[0],
        "second restart must include backoff: {recoveries:?}"
    );
    assert!(
        recoveries[2] > recoveries[1],
        "backoff must grow: {recoveries:?}"
    );
}

#[test]
fn deployment_keeps_replicas_and_replaces_deleted_pods() {
    let (mut sim, kube, _) = boot(8);
    kube.create_deployment(&mut sim, "api", 2, pause_pod("api"));
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(kube.pod_phase("api-0"), Some(PodPhase::Running));
    assert_eq!(kube.pod_phase("api-1"), Some(PodPhase::Running));

    // kubectl delete pod api-0: controller recreates it.
    let t = sim.now();
    kube.delete_pod(&mut sim, "api-0");
    sim.run_until_pred(|_| kube.pod_phase("api-0") == Some(PodPhase::Running));
    let recovery = sim.now() - t;
    assert!(
        recovery > SimDuration::from_millis(500) && recovery < SimDuration::from_secs(10),
        "full replacement path took {recovery}"
    );

    // Scaling down removes pods; scaling up adds them.
    kube.scale_deployment(&mut sim, "api", 1);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(kube.pod_phase("api-1"), None);
    kube.scale_deployment(&mut sim, "api", 3);
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(kube.pod_phase("api-2"), Some(PodPhase::Running));

    kube.delete_deployment(&mut sim, "api");
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(kube.pod_phase("api-0"), None);
}

#[test]
fn job_runs_to_completion() {
    let (mut sim, kube, registry) = boot(9);
    // A task that exits 0 after 2 seconds of work.
    registry.register("task", |sim, ctx| {
        let c = ctx.clone();
        sim.schedule_in(SimDuration::from_secs(2), move |sim| {
            c.exit(sim, 0);
        });
        Box::new(|_sim| {})
    });
    let pod = PodSpec::new(
        "unused",
        ContainerSpec::new("main", ImageRef::microservice("task"), "task"),
    );
    kube.create_job(&mut sim, "guardian-j1", 3, pod);
    sim.run_for(SimDuration::from_secs(20));
    assert_eq!(kube.job_status("guardian-j1"), Some(JobStatus::Complete));
    assert_eq!(kube.pod_phase("guardian-j1"), Some(PodPhase::Succeeded));
}

#[test]
fn job_restarts_on_failure_until_backoff_limit() {
    let (mut sim, kube, registry) = boot(10);
    // A task that always fails after 1 second.
    registry.register("failing", |sim, ctx| {
        let c = ctx.clone();
        sim.schedule_in(SimDuration::from_secs(1), move |sim| {
            c.exit(sim, 1);
        });
        Box::new(|_sim| {})
    });
    let pod = PodSpec::new(
        "unused",
        ContainerSpec::new("main", ImageRef::microservice("f"), "failing"),
    );
    kube.create_job(&mut sim, "doomed", 2, pod);
    sim.run_for(SimDuration::from_secs(300));
    assert_eq!(kube.job_status("doomed"), Some(JobStatus::Failed));
    assert_eq!(kube.pod_phase("doomed"), Some(PodPhase::Failed));
    assert_eq!(
        kube.pod_restarts("doomed"),
        Some(2),
        "restarted up to the limit"
    );
}

#[test]
fn job_retries_each_restart_with_fresh_process_state() {
    let (mut sim, kube, registry) = boot(11);
    // Fails twice, then succeeds (deploy-with-transient-failure pattern).
    let attempts = Rc::new(Cell::new(0u32));
    let a = attempts.clone();
    registry.register("flaky", move |sim, ctx| {
        a.set(a.get() + 1);
        let attempt = a.get();
        let c = ctx.clone();
        sim.schedule_in(SimDuration::from_secs(1), move |sim| {
            c.exit(sim, if attempt <= 2 { 1 } else { 0 });
        });
        Box::new(|_sim| {})
    });
    let pod = PodSpec::new(
        "unused",
        ContainerSpec::new("main", ImageRef::microservice("fl"), "flaky"),
    );
    kube.create_job(&mut sim, "eventually", 5, pod);
    sim.run_for(SimDuration::from_secs(300));
    assert_eq!(kube.job_status("eventually"), Some(JobStatus::Complete));
    assert_eq!(attempts.get(), 3);
}

#[test]
fn statefulset_restarts_replicas_with_stable_identity() {
    let (mut sim, kube, _) = boot(12);
    kube.create_statefulset(&mut sim, "learner", 3, pause_pod("learner"));
    sim.run_for(SimDuration::from_secs(10));
    for i in 0..3 {
        assert_eq!(
            kube.pod_phase(&format!("learner-{i}")),
            Some(PodPhase::Running)
        );
    }
    // The ordinal label is stamped.
    assert_eq!(
        kube.pod_labels("learner-1").unwrap().get("ordinal"),
        Some(&"1".to_string())
    );

    kube.delete_pod(&mut sim, "learner-1");
    sim.run_until_pred(|_| kube.pod_phase("learner-1") == Some(PodPhase::Running));
    assert_eq!(kube.pod_phase("learner-0"), Some(PodPhase::Running));

    kube.delete_statefulset(&mut sim, "learner");
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(kube.pod_phase("learner-0"), None);
}

#[test]
fn node_crash_reschedules_owned_pods_elsewhere() {
    let (mut sim, kube, _) = boot(13);
    kube.create_deployment(&mut sim, "api", 1, pause_pod("api"));
    sim.run_for(SimDuration::from_secs(10));
    let node = kube.pod_node("api-0").unwrap();

    let t = sim.now();
    kube.crash_node(&mut sim, &node);
    sim.run_until_pred(|_| {
        kube.pod_phase("api-0") == Some(PodPhase::Running)
            && kube.pod_node("api-0").as_deref() != Some(node.as_str())
    });
    let recovery = sim.now() - t;
    assert!(
        recovery > SimDuration::from_secs(3),
        "node-loss detection dominates: {recovery}"
    );
    assert_ne!(kube.pod_node("api-0").unwrap(), node);

    // The crashed node can come back empty.
    assert!(kube.restart_node(&mut sim, &node));
    assert!(kube.node_ready(&node));
}

#[test]
fn services_load_balance_and_fail_over() {
    let (mut sim, kube, _) = boot(14);
    let template = pause_pod("api").with_labels(labels! {"app" => "api"});
    kube.create_deployment(&mut sim, "api", 2, template);
    kube.create_service(&mut sim, "api-svc", labels! {"app" => "api"});
    sim.run_for(SimDuration::from_secs(10));

    // Round robin over both replicas.
    let picks: Vec<String> = (0..4)
        .map(|_| kube.resolve_service(&sim, "api-svc").unwrap().to_string())
        .collect();
    assert!(picks.contains(&"api-0".to_string()));
    assert!(picks.contains(&"api-1".to_string()));

    // Fail-over: crash one replica; resolution avoids it while down.
    kube.crash_pod(&mut sim, "api-0");
    let during: Vec<String> = (0..4)
        .map(|_| kube.resolve_service(&sim, "api-svc").unwrap().to_string())
        .collect();
    assert!(during.iter().all(|a| a == "api-1"), "{during:?}");

    // No endpoints at all -> None.
    kube.crash_pod(&mut sim, "api-1");
    assert!(kube.resolve_service(&sim, "api-svc").is_none());

    // Recovery restores endpoints.
    sim.run_for(SimDuration::from_secs(20));
    assert!(kube.resolve_service(&sim, "api-svc").is_some());
}

#[test]
fn unready_pods_receive_no_traffic() {
    let (mut sim, kube, _) = boot(15);
    let template = pause_pod("api").with_labels(labels! {"app" => "api"});
    kube.create_deployment(&mut sim, "api", 1, template);
    kube.create_service(&mut sim, "api-svc", labels! {"app" => "api"});
    // Run just until Running but within the readiness window.
    sim.run_until_pred(|_| kube.pod_phase("api-0") == Some(PodPhase::Running));
    assert!(!kube.pod_ready(&sim, "api-0"));
    assert!(kube.resolve_service(&sim, "api-svc").is_none());
    sim.run_for(SimDuration::from_secs(3));
    assert!(kube.resolve_service(&sim, "api-svc").is_some());
}

#[test]
fn network_policy_denies_learner_to_core_traffic() {
    let (mut sim, kube, _) = boot(16);
    kube.create_pod(
        &mut sim,
        pause_pod("learner-x").with_labels(labels! {"role" => "learner", "job" => "j1"}),
    );
    kube.create_pod(
        &mut sim,
        pause_pod("learner-y").with_labels(labels! {"role" => "learner", "job" => "j2"}),
    );
    kube.create_pod(
        &mut sim,
        pause_pod("api-0").with_labels(labels! {"role" => "core"}),
    );
    sim.run_for(SimDuration::from_secs(10));

    kube.add_network_policy(NetworkPolicy {
        name: "isolate-learners".into(),
        from: labels! {"role" => "learner"},
        to: labels! {"role" => "core"},
        to_services: vec!["lcm-svc".into()],
        exempt_same: None,
    });
    kube.add_network_policy(NetworkPolicy {
        name: "tenant-isolation".into(),
        from: labels! {"role" => "learner"},
        to: labels! {"role" => "learner"},
        to_services: vec![],
        exempt_same: Some("job".into()),
    });
    // Same-job learners may talk to each other (MPI) despite the
    // learner->learner deny; cross-job learners may not.
    kube.create_pod(
        &mut sim,
        pause_pod("learner-x2").with_labels(labels! {"role" => "learner", "job" => "j1"}),
    );
    sim.run_for(SimDuration::from_secs(10));
    assert!(kube.traffic_allowed("learner-x", Some("learner-x2"), None));

    // Learner -> core pod: denied. Learner -> core service: denied.
    assert!(!kube.traffic_allowed("learner-x", Some("api-0"), None));
    assert!(!kube.traffic_allowed("learner-x", None, Some("lcm-svc")));
    // Cross-tenant learner traffic: denied.
    assert!(!kube.traffic_allowed("learner-x", Some("learner-y"), None));
    // Core -> learner is allowed (policies are directional).
    assert!(kube.traffic_allowed("api-0", Some("learner-x"), None));
    // Unrelated service allowed.
    assert!(kube.traffic_allowed("learner-x", None, Some("metrics-svc")));

    assert_eq!(kube.remove_network_policy("isolate-learners"), 1);
    assert!(kube.traffic_allowed("learner-x", Some("api-0"), None));
}

#[test]
fn behaviors_get_fresh_state_per_restart() {
    let (mut sim, kube, registry) = boot(17);
    let incarnations = Rc::new(RefCell::new(Vec::new()));
    let inc = incarnations.clone();
    registry.register("track", move |_sim, ctx| {
        inc.borrow_mut().push(ctx.incarnation);
        Box::new(|_sim| {})
    });
    kube.create_pod(
        &mut sim,
        PodSpec::new(
            "t0",
            ContainerSpec::new("main", ImageRef::microservice("t"), "track"),
        ),
    );
    sim.run_for(SimDuration::from_secs(10));
    kube.crash_pod(&mut sim, "t0");
    sim.run_for(SimDuration::from_secs(10));
    let incs = incarnations.borrow();
    assert_eq!(incs.len(), 2, "factory runs once per start");
    assert_ne!(incs[0], incs[1], "each start has a distinct incarnation");
}

#[test]
fn cleanup_runs_on_crash() {
    let (mut sim, kube, registry) = boot(18);
    let cleaned = Rc::new(Cell::new(false));
    let c = cleaned.clone();
    registry.register("svc", move |_sim, _ctx| {
        let c = c.clone();
        Box::new(move |_sim| c.set(true))
    });
    kube.create_pod(
        &mut sim,
        PodSpec::new(
            "s0",
            ContainerSpec::new("main", ImageRef::microservice("s"), "svc"),
        ),
    );
    sim.run_for(SimDuration::from_secs(10));
    assert!(!cleaned.get());
    kube.crash_pod(&mut sim, "s0");
    assert!(cleaned.get(), "cleanup must run at crash time");
}

/// A two-container pod whose processes log their cleanup and the two
/// releases each registered with `on_teardown`; with `arg` = "exit" both
/// exit non-zero after one second.
fn owner_pod(
    registry: &BehaviorRegistry,
    name: &str,
    arg: &str,
) -> (PodSpec, Rc<RefCell<Vec<String>>>) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let l = log.clone();
    registry.register("owner", move |sim, ctx| {
        let note = |what: &'static str| {
            let (l, who) = (l.clone(), ctx.container.clone());
            move |_: &mut Sim| l.borrow_mut().push(format!("{who}:{what}"))
        };
        ctx.on_teardown(note("release-1"));
        ctx.on_teardown(note("release-2"));
        if ctx.arg == "exit" {
            let c = ctx.clone();
            sim.schedule_in(SimDuration::from_secs(1), move |sim| c.exit(sim, 3));
        }
        Box::new(note("cleanup"))
    });
    let container =
        |c: &str| ContainerSpec::new(c, ImageRef::microservice("o"), "owner").with_arg(arg);
    let spec = PodSpec::new(name, container("a"))
        .with_container(container("b"))
        .with_restart_policy(RestartPolicy::Never);
    (spec, log)
}

#[test]
fn teardown_hooks_run_once_in_order_after_cleanup_however_the_process_stops() {
    type Stop = fn(&mut Sim, &Kube);
    let stops: [(&str, Stop); 3] = [
        ("exit", |sim, _| {
            sim.run_for(SimDuration::from_secs(2));
        }),
        ("kill", |sim, kube| assert!(kube.crash_pod(sim, "own"))),
        ("delete", |sim, kube| assert!(kube.delete_pod(sim, "own"))),
    ];
    for (how, stop) in stops {
        let (mut sim, kube, registry) = boot(31);
        let (spec, log) = owner_pod(&registry, "own", how);
        kube.create_pod(&mut sim, spec);
        sim.run_until_pred(|_| kube.pod_phase("own") == Some(PodPhase::Running));
        assert!(log.borrow().is_empty(), "{how}: nothing runs while alive");
        stop(&mut sim, &kube);
        let expected = [
            "a:cleanup",
            "a:release-1",
            "a:release-2",
            "b:cleanup",
            "b:release-1",
            "b:release-2",
        ];
        assert_eq!(*log.borrow(), expected, "{how}");
        // Stopping what is already stopped finds nothing left to run.
        kube.crash_pod(&mut sim, "own");
        kube.delete_pod(&mut sim, "own");
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(*log.borrow(), expected, "{how}: each ran exactly once");
    }
}

#[test]
fn teardown_hooks_of_a_pod_that_never_started_never_run() {
    let (mut sim, kube, registry) = boot(32);
    let (spec, log) = owner_pod(&registry, "parked", "");
    // Asks for more than any node has: stays Pending, no factory runs.
    kube.create_pod(
        &mut sim,
        spec.with_resources(Resources::new(1_000_000, 1, 0), None),
    );
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(kube.pod_phase("parked"), Some(PodPhase::Pending));
    assert!(kube.delete_pod(&mut sim, "parked"));
    sim.run_for(SimDuration::from_secs(10));
    assert!(log.borrow().is_empty());
}

#[test]
fn restart_policy_never_stays_failed() {
    let (mut sim, kube, registry) = boot(19);
    registry.register("dies", |sim, ctx| {
        let c = ctx.clone();
        sim.schedule_in(SimDuration::from_secs(1), move |sim| c.exit(sim, 3));
        Box::new(|_sim| {})
    });
    kube.create_pod(
        &mut sim,
        PodSpec::new(
            "once",
            ContainerSpec::new("main", ImageRef::microservice("d"), "dies"),
        )
        .with_restart_policy(RestartPolicy::Never),
    );
    sim.run_for(SimDuration::from_secs(60));
    assert_eq!(kube.pod_phase("once"), Some(PodPhase::Failed));
    assert_eq!(kube.pod_restarts("once"), Some(0));
}

#[test]
fn multi_container_pod_succeeds_only_when_all_exit() {
    let (mut sim, kube, registry) = boot(20);
    registry.register("quick", |sim, ctx| {
        let c = ctx.clone();
        sim.schedule_in(SimDuration::from_secs(1), move |sim| c.exit(sim, 0));
        Box::new(|_sim| {})
    });
    registry.register("slow", |sim, ctx| {
        let c = ctx.clone();
        sim.schedule_in(SimDuration::from_secs(5), move |sim| c.exit(sim, 0));
        Box::new(|_sim| {})
    });
    kube.create_pod(
        &mut sim,
        PodSpec::new(
            "multi",
            ContainerSpec::new("a", ImageRef::microservice("q"), "quick"),
        )
        .with_container(ContainerSpec::new("b", ImageRef::microservice("s"), "slow"))
        .with_restart_policy(RestartPolicy::Never),
    );
    sim.run_until_pred(|_| kube.pod_phase("multi") == Some(PodPhase::Running));
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        kube.pod_phase("multi"),
        Some(PodPhase::Running),
        "one exit isn't enough"
    );
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(kube.pod_phase("multi"), Some(PodPhase::Succeeded));
}

#[test]
fn learner_style_pod_start_is_slow() {
    // The Fig. 4 asymmetry: learners bind COS + NFS and cold-start a big
    // framework; microservices don't.
    let (mut sim, kube, _) = boot(21);
    // Warm the framework image cache first.
    let warm = PodSpec::new(
        "warm",
        ContainerSpec::new("main", ImageRef::new("tf", 3_800_000_000), "pause"),
    )
    .with_resources(Resources::new(1000, 1024, 1), Some(GpuKind::K80));
    kube.create_pod(&mut sim, warm);
    sim.run_until_pred(|_| kube.pod_phase("warm") == Some(PodPhase::Running));
    kube.delete_pod(&mut sim, "warm");
    sim.run_for(SimDuration::from_secs(2));

    let t0 = sim.now();
    let learner = PodSpec::new(
        "learner-0",
        ContainerSpec::new("main", ImageRef::new("tf", 3_800_000_000), "pause")
            .with_cold_start(SimDuration::from_millis(5500)),
    )
    .with_resources(Resources::new(1000, 1024, 1), Some(GpuKind::K80))
    .with_volume("vol")
    .with_object_store_binding();
    kube.create_pod(&mut sim, learner);
    sim.run_until_pred(|_| kube.pod_phase("learner-0") == Some(PodPhase::Running));
    let learner_time = sim.now() - t0;

    let t1 = sim.now();
    kube.create_pod(&mut sim, pause_pod("micro"));
    sim.run_until_pred(|_| kube.pod_phase("micro") == Some(PodPhase::Running));
    let micro_time = sim.now() - t1;

    assert!(
        learner_time > micro_time * 3,
        "learner start {learner_time} vs microservice {micro_time}"
    );
    assert!(learner_time > SimDuration::from_secs(8));
    assert!(learner_time < SimDuration::from_secs(25));
}

#[test]
fn cordon_blocks_placement_until_uncordoned() {
    let (mut sim, kube, _) = boot(23);
    // Cordon every node: new pods park Pending.
    for n in kube.node_names() {
        assert!(kube.cordon_node(&mut sim, &n));
        assert!(kube.node_cordoned(&n));
    }
    assert!(!kube.cordon_node(&mut sim, "ghost"));
    kube.create_pod(&mut sim, pause_pod("blocked"));
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(kube.pod_phase("blocked"), Some(PodPhase::Pending));

    kube.uncordon_node(&mut sim, "svc-1");
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(kube.pod_phase("blocked"), Some(PodPhase::Running));
    assert_eq!(kube.pod_node("blocked").as_deref(), Some("svc-1"));
}

#[test]
fn drain_evicts_owned_pods_to_other_nodes() {
    let (mut sim, kube, _) = boot(24);
    kube.create_deployment(&mut sim, "svc", 4, pause_pod("svc"));
    sim.run_for(SimDuration::from_secs(15));
    // Find a node hosting at least one replica and drain it.
    let node = kube.pod_node("svc-0").unwrap();
    let evicted = kube.drain_node(&mut sim, &node);
    assert!(!evicted.is_empty(), "drain must evict the pods it hosts");
    assert!(kube.node_cordoned(&node));

    sim.run_for(SimDuration::from_secs(30));
    // All replicas are running again, none on the drained node.
    for i in 0..4 {
        let pod = format!("svc-{i}");
        assert_eq!(kube.pod_phase(&pod), Some(PodPhase::Running), "{pod}");
        assert_ne!(kube.pod_node(&pod).as_deref(), Some(node.as_str()), "{pod}");
    }
    // Maintenance done: the node takes work again.
    kube.uncordon_node(&mut sim, &node);
    kube.create_deployment(&mut sim, "more", 8, pause_pod("more"));
    sim.run_for(SimDuration::from_secs(30));
    let used_again =
        (0..8).any(|i| kube.pod_node(&format!("more-{i}")).as_deref() == Some(node.as_str()));
    assert!(used_again, "uncordoned node must be schedulable again");
}

#[test]
fn deterministic_event_stream() {
    fn run(seed: u64) -> Vec<(SimTime, String, String)> {
        let (mut sim, kube, _) = boot(seed);
        kube.create_deployment(&mut sim, "api", 2, pause_pod("api"));
        sim.run_for(SimDuration::from_secs(5));
        kube.crash_pod(&mut sim, "api-0");
        sim.run_for(SimDuration::from_secs(20));
        kube.events()
            .into_iter()
            .map(|e| (e.time, e.object, e.reason))
            .collect()
    }
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}
