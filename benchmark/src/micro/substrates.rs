//! The per-substrate bodies. Each call performs exactly its `*_BATCH`
//! operations; set-up that the platform pays once (building a cluster,
//! electing a leader, filling a collection) happens inside the body only
//! where it cannot be separated from the operations, and is small next
//! to them.

use std::hint::black_box;
use std::rc::Rc;

use dlaas_docstore::{obj, DocStore, Filter, Update};
use dlaas_etcd::EtcdCluster;
use dlaas_kube::{BehaviorRegistry, ContainerSpec, ImageRef, Kube, KubeConfig, NodeSpec, PodSpec};
use dlaas_net::{Addr, LatencyModel, RpcLayer};
use dlaas_obs::Registry;
use dlaas_raft::{RaftCluster, RaftConfig};
use dlaas_sim::{Sim, SimDuration};

use crate::run::SIM_SEED;

pub const SIM_BATCH: u64 = 300_000;
pub const RPC_BATCH: u64 = 20_000;
pub const RAFT_BATCH: u64 = 4_000;
pub const ETCD_BATCH: u64 = 2_000;
pub const DOC_BATCH: u64 = 20_000;
pub const KUBE_BATCH: u64 = 400;
pub const OBS_BATCH: u64 = 2_000_000;

fn bare_sim() -> Sim {
    let mut sim = Sim::new(SIM_SEED);
    sim.trace_mut().set_enabled(false);
    sim
}

/// Kernel churn: self-rescheduling actors with near (calendar ring) and
/// far (overflow tier) delays, a same-instant defer and a
/// schedule-then-cancel per firing — the queue paths the platform uses.
pub fn sim_churn() {
    fn fire(sim: &mut Sim) {
        sim.defer(|_| {});
        let id = sim.schedule_in(SimDuration::from_millis(5), |_| {});
        sim.cancel(id);
        let delay_us = if sim.rng().chance(0.9) {
            sim.rng().range_u64(1, 1_000)
        } else {
            sim.rng().range_u64(1_000_000, 30_000_000)
        };
        sim.schedule_in(SimDuration::from_micros(delay_us), fire);
    }
    let mut sim = bare_sim();
    for i in 0..2_000 {
        sim.schedule_in(SimDuration::from_micros(i), fire);
    }
    sim.run_until_pred(|s| s.events_executed() >= SIM_BATCH);
    black_box(sim.events_executed());
}

/// RPC echo: request and response over the datacenter latency model,
/// with the per-call timeout event scheduled and cancelled.
pub fn rpc_echo() {
    let mut sim = bare_sim();
    let rpc: RpcLayer<u64, u64> = RpcLayer::new(&mut sim, LatencyModel::datacenter());
    let server = Addr::new("echo");
    rpc.serve(server.clone(), |sim, req, responder| {
        responder.ok(sim, req + 1);
    });
    let client = Addr::new("client");
    let mut got = 0u64;
    for wave in 0..RPC_BATCH / 100 {
        for i in 0..100 {
            rpc.call(
                &mut sim,
                client.clone(),
                server.clone(),
                wave * 100 + i,
                SimDuration::from_millis(800),
                |_sim, r| {
                    black_box(r.ok());
                },
            );
        }
        got += sim.run_for(SimDuration::from_millis(20));
    }
    black_box(got);
}

/// Commits on a 3-node Raft group, proposed in waves as the etcd server
/// does.
pub fn raft_commits() {
    let mut sim = bare_sim();
    let cluster: RaftCluster<u64> = RaftCluster::new(
        &mut sim,
        3,
        RaftConfig::default(),
        LatencyModel::datacenter(),
        Rc::new(|_id| Box::new(|_s, _i, _c| {})),
        0,
    );
    let leader = cluster.expect_leader(&mut sim, SimDuration::from_secs(10));
    for i in 0..RAFT_BATCH {
        let _ = cluster.node(leader).propose(&mut sim, i);
        if i % 50 == 49 {
            sim.run_for(SimDuration::from_millis(20));
        }
    }
    sim.run_for(SimDuration::from_secs(1));
    black_box(cluster.node(leader).commit_index());
}

/// etcd puts through the client (RPC → leader → Raft → apply → watch
/// fan-out to one prefix watcher), as the status path does.
pub fn etcd_puts() {
    let mut sim = bare_sim();
    let etcd = EtcdCluster::new_3way(&mut sim);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    let watcher = etcd.client("watcher");
    watcher.watch_prefix(&mut sim, "jobs/", |_sim, ev| {
        black_box(ev);
    });
    let client = etcd.client("writer");
    for i in 0..ETCD_BATCH {
        client.put(
            &mut sim,
            format!("jobs/j{:04}/learners/0", i % 200),
            format!("PROCESSING iter={i}"),
            |_s, _r| {},
        );
        if i % 20 == 19 {
            sim.run_for(SimDuration::from_millis(50));
        }
    }
    sim.run_for(SimDuration::from_secs(2));
    black_box(etcd.kv_snapshot(0).len());
}

/// A `jobs` collection shaped like the platform's: indexed `status`,
/// a history array per document.
fn job_store() -> DocStore {
    let mut db = DocStore::new();
    db.create_index("jobs", "status");
    for i in 0..1_000 {
        db.insert(
            "jobs",
            obj! {
                "_id" => format!("j{i:04}"),
                "tenant" => format!("small-{}", i % 10),
                "status" => if i % 10 == 0 { "PROCESSING" } else { "COMPLETED" },
                "history" => vec![obj! {"status" => "PENDING", "t_us" => i as i64}],
                "gpus" => 1,
                "iteration" => 0,
            },
        )
        .expect("fresh ids");
    }
    db
}

/// Status updates by id, two fields each.
pub fn docstore_updates() -> impl FnMut() {
    let mut db = job_store();
    let mut n = 0i64;
    move || {
        for _ in 0..DOC_BATCH {
            n += 1;
            let id = format!("j{:04}", n % 1_000);
            black_box(db.update_one(
                "jobs",
                &Filter::eq("_id", id),
                &Update::Many(vec![
                    Update::set("iteration", n),
                    Update::set(
                        "status",
                        if n % 10 == 0 {
                            "PROCESSING"
                        } else {
                            "COMPLETED"
                        },
                    ),
                ]),
            ));
        }
    }
}

/// The read mix of the control plane: by-id reads, indexed status scans
/// and `find_changed` sweeps, 8 : 1 : 1.
pub fn docstore_finds() -> impl FnMut() {
    let db = job_store();
    let mut n = 0u64;
    move || {
        for _ in 0..DOC_BATCH {
            n += 1;
            match n % 10 {
                0 => {
                    black_box(db.find("jobs", &Filter::eq("status", "PROCESSING")).len());
                }
                1 => {
                    black_box(db.changed_since("jobs", u64::MAX / 2).0.len());
                }
                _ => {
                    let id = format!("j{:04}", n % 1_000);
                    black_box(db.find_one("jobs", &Filter::eq("_id", id)));
                }
            }
        }
    }
}

/// Pods through the scheduler and kubelet to Running on a 20-node
/// cluster.
pub fn kube_schedule() {
    let mut sim = bare_sim();
    let registry = BehaviorRegistry::new();
    registry.register_noop("pause");
    let kube = Kube::new(&mut sim, KubeConfig::default(), registry);
    for n in 0..20 {
        kube.add_node(NodeSpec::cpu(format!("n{n}"), 64_000, 262_144));
    }
    for i in 0..KUBE_BATCH {
        kube.create_pod(
            &mut sim,
            PodSpec::new(
                format!("p{i}"),
                ContainerSpec::new("m", ImageRef::microservice("x"), "pause"),
            ),
        );
    }
    sim.run_for(SimDuration::from_secs(30));
    black_box(kube.events().len());
}

/// Counter-handle increments, the registry's hot path.
pub fn obs_incs() -> impl FnMut() {
    let registry = Registry::new();
    let handle = registry.counter_handle("bench_ops_total", &[("layer", "obs")]);
    move || {
        for _ in 0..OBS_BATCH {
            black_box(&handle).inc();
        }
        black_box(handle.value());
    }
}
