//! Log-compaction behaviour: snapshots are taken past the threshold,
//! lagging/restarted followers catch up via InstallSnapshot, and safety
//! holds under chaos with compaction enabled.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dlaas_net::LatencyModel;
use dlaas_raft::{NodeId, RaftCluster, RaftConfig, SnapshotFactory, SnapshotHooks};
use dlaas_sim::{Sim, SimDuration};

type Cmd = u64;

/// A counting state machine: sum of all applied commands, snapshottable.
/// Shared per node so tests can inspect it.
#[derive(Default)]
struct Counter {
    sum: u64,
    applied: u64,
}

type Counters = Rc<RefCell<BTreeMap<NodeId, Rc<RefCell<Counter>>>>>;

fn build(sim: &mut Sim, n: u32, threshold: usize) -> (RaftCluster<Cmd>, Counters) {
    let counters: Counters = Rc::new(RefCell::new(BTreeMap::new()));
    let c1 = counters.clone();
    let apply_factory: dlaas_raft::ApplyFactory<Cmd> = Rc::new(move |id| {
        // Fresh state machine per incarnation.
        let cell = Rc::new(RefCell::new(Counter::default()));
        c1.borrow_mut().insert(id, cell.clone());
        Box::new(move |_sim, _idx, cmd: &Cmd| {
            let mut c = cell.borrow_mut();
            c.sum += *cmd;
            c.applied += 1;
        })
    });
    let c2 = counters.clone();
    let snapshot_factory: SnapshotFactory = Rc::new(move |id| {
        let counters = c2.clone();
        let counters2 = c2.clone();
        SnapshotHooks {
            take: Box::new(move || {
                let map = counters.borrow();
                let c = map.get(&id).expect("state machine exists").borrow();
                format!("{}:{}", c.sum, c.applied).into_bytes()
            }),
            restore: Box::new(move |_sim, _idx, data| {
                let text = String::from_utf8(data.to_vec()).expect("utf8 snapshot");
                let (sum, applied) = text.split_once(':').expect("sum:applied");
                let map = counters2.borrow();
                let mut c = map.get(&id).expect("state machine exists").borrow_mut();
                c.sum = sum.parse().expect("sum");
                c.applied = applied.parse().expect("applied");
            }),
        }
    });
    let cluster = RaftCluster::with_snapshot_factory(
        sim,
        n,
        RaftConfig {
            compact_threshold: threshold,
            ..RaftConfig::default()
        },
        LatencyModel::Uniform(SimDuration::from_micros(300), SimDuration::from_millis(2)),
        apply_factory,
        0,
        Some(snapshot_factory),
    );
    (cluster, counters)
}

fn sum_of(counters: &Counters, id: NodeId) -> u64 {
    counters.borrow().get(&id).unwrap().borrow().sum
}

#[test]
fn leader_compacts_past_threshold() {
    let mut sim = Sim::new(1);
    let (cluster, _counters) = build(&mut sim, 3, 50);
    let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
    for c in 1..=200u64 {
        let _ = cluster.node(l).propose(&mut sim, c);
        if c % 20 == 0 {
            sim.run_for(SimDuration::from_millis(200));
        }
    }
    sim.run_for(SimDuration::from_secs(3));
    let disk = cluster.disk(l).borrow();
    assert!(
        disk.snapshot_last_index() > 0,
        "leader must have compacted ({} entries live)",
        disk.log.len()
    );
    assert!(
        disk.log.len() < 120,
        "live log must stay bounded, has {} entries",
        disk.log.len()
    );
}

#[test]
fn state_survives_compaction_and_equals_uncompacted_sum() {
    let mut sim = Sim::new(2);
    let (cluster, counters) = build(&mut sim, 3, 30);
    let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
    let mut expect = 0u64;
    for c in 1..=150u64 {
        if cluster.node(l).propose(&mut sim, c).is_ok() {
            expect += c;
        }
        if c % 10 == 0 {
            sim.run_for(SimDuration::from_millis(100));
        }
    }
    sim.run_for(SimDuration::from_secs(3));
    for id in 0..3 {
        assert_eq!(sum_of(&counters, id), expect, "node {id}");
    }
}

#[test]
fn restarted_node_restores_from_snapshot_then_replays_tail() {
    let mut sim = Sim::new(3);
    let (cluster, counters) = build(&mut sim, 3, 25);
    let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
    let victim = (0..3).find(|i| *i != l).unwrap();

    let mut expect = 0u64;
    for c in 1..=60u64 {
        let _ = cluster.node(l).propose(&mut sim, c);
        expect += c;
        if c % 10 == 0 {
            sim.run_for(SimDuration::from_millis(150));
        }
    }
    sim.run_for(SimDuration::from_secs(2));
    // The victim has compacted state on disk; crash and restart it.
    cluster.crash(&mut sim, victim);
    for c in 61..=80u64 {
        let _ = cluster.node(l).propose(&mut sim, c);
        expect += c;
    }
    sim.run_for(SimDuration::from_secs(2));
    cluster.restart(&mut sim, victim);
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(sum_of(&counters, victim), expect);
}

#[test]
fn lagging_follower_catches_up_via_install_snapshot() {
    let mut sim = Sim::new(4);
    let (cluster, counters) = build(&mut sim, 3, 20);
    let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
    let victim = (0..3).find(|i| *i != l).unwrap();
    cluster.crash(&mut sim, victim);

    // Drive far past the threshold so the victim's entries are compacted
    // away on the leader.
    let mut expect = 0u64;
    for c in 1..=120u64 {
        let _ = cluster.node(l).propose(&mut sim, c);
        expect += c;
        if c % 15 == 0 {
            sim.run_for(SimDuration::from_millis(200));
        }
    }
    sim.run_for(SimDuration::from_secs(2));
    let leader_first = cluster.disk(l).borrow().first_index();
    assert!(leader_first > 1, "leader must have compacted");

    cluster.restart(&mut sim, victim);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(
        sum_of(&counters, victim),
        expect,
        "follower must catch up through InstallSnapshot"
    );
    assert!(
        cluster.disk(victim).borrow().snapshot_last_index() > 0,
        "victim must have installed a snapshot"
    );
}

#[test]
fn chaos_with_compaction_preserves_convergence() {
    // A miniature chaos run with compaction on: random crashes/restarts
    // interleaved with proposals; everything must converge.
    for seed in [11u64, 22, 33] {
        let mut sim = Sim::new(seed);
        let (cluster, counters) = build(&mut sim, 3, 15);
        cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        let mut rng = sim.rng().fork("chaos-schedule");
        for round in 0..30u64 {
            if let Some(l) = cluster.leader_id() {
                let _ = cluster.node(l).propose(&mut sim, round + 1);
            }
            if rng.chance(0.2) {
                let v = rng.range_u64(0, 3) as NodeId;
                if cluster.node(v).is_alive() {
                    cluster.crash(&mut sim, v);
                } else {
                    cluster.restart(&mut sim, v);
                }
            }
            sim.run_for(SimDuration::from_millis(400));
        }
        // Heal and settle.
        for v in 0..3 {
            if !cluster.node(v).is_alive() {
                cluster.restart(&mut sim, v);
            }
        }
        sim.run_for(SimDuration::from_secs(10));
        let sums: Vec<u64> = (0..3).map(|i| sum_of(&counters, i)).collect();
        assert_eq!(sums[0], sums[1], "seed {seed}: {sums:?}");
        assert_eq!(sums[1], sums[2], "seed {seed}: {sums:?}");
    }
}
