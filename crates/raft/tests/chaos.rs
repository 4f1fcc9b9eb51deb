//! Property-based chaos testing of Raft safety invariants.
//!
//! Random schedules of crashes, restarts, partitions, message loss and
//! client proposals are run against a cluster; afterwards (and during) the
//! classical Raft safety properties must hold:
//!
//! * **State-machine safety** — the sequences of `(index, cmd)` applied by
//!   any two nodes are prefixes of one another.
//! * **Log matching** — after healing and quiescence, all live logs agree
//!   on every shared index.
//! * **Election safety** — at most one leader per term, ever.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dlaas_net::LatencyModel;
use dlaas_raft::{raft_addr, NodeId, RaftCluster, RaftConfig, Role};
use dlaas_sim::{Sim, SimDuration};
use proptest::prelude::*;

type Cmd = u64;

#[derive(Debug, Clone)]
enum ChaosOp {
    Propose(u64),
    CrashNode(u8),
    RestartNode(u8),
    PartitionLonely(u8),
    Heal,
    SetLoss(u8),
    Advance(u16),
}

fn op_strategy() -> impl Strategy<Value = ChaosOp> {
    prop_oneof![
        4 => (1..1000u64).prop_map(ChaosOp::Propose),
        2 => (0..5u8).prop_map(ChaosOp::CrashNode),
        2 => (0..5u8).prop_map(ChaosOp::RestartNode),
        1 => (0..5u8).prop_map(ChaosOp::PartitionLonely),
        1 => Just(ChaosOp::Heal),
        1 => (0..30u8).prop_map(ChaosOp::SetLoss),
        4 => (10..800u16).prop_map(ChaosOp::Advance),
    ]
}

/// Per-node applied log: `(index, command)` in application order.
type AppliedLog = Rc<RefCell<BTreeMap<NodeId, Vec<(u64, Cmd)>>>>;

struct Harness {
    sim: Sim,
    cluster: RaftCluster<Cmd>,
    applied: AppliedLog,
    /// `(term, leader)` observations, for election safety.
    leaders_seen: BTreeMap<u64, NodeId>,
    next_cmd_tag: u64,
}

impl Harness {
    fn new(seed: u64, n: u32) -> Self {
        let mut sim = Sim::new(seed);
        let applied: AppliedLog = Rc::new(RefCell::new(BTreeMap::new()));
        let a = applied.clone();
        let factory: dlaas_raft::ApplyFactory<Cmd> = Rc::new(move |id| {
            a.borrow_mut().insert(id, Vec::new());
            let a = a.clone();
            Box::new(move |_s, idx, cmd: &Cmd| {
                a.borrow_mut().entry(id).or_default().push((idx, *cmd));
            })
        });
        let cluster = RaftCluster::new(
            &mut sim,
            n,
            RaftConfig::default(),
            LatencyModel::Uniform(SimDuration::from_micros(300), SimDuration::from_millis(3)),
            factory,
            0,
        );
        Harness {
            sim,
            cluster,
            applied,
            leaders_seen: BTreeMap::new(),
            next_cmd_tag: 0,
        }
    }

    fn observe_leaders(&mut self) {
        for node in self.cluster.nodes() {
            if node.is_alive() && node.role() == Role::Leader {
                let term = node.term();
                let prev = self.leaders_seen.insert(term, node.id());
                if let Some(p) = prev {
                    assert_eq!(
                        p,
                        node.id(),
                        "two leaders observed for term {term}: {p} and {}",
                        node.id()
                    );
                }
            }
        }
    }

    fn advance(&mut self, ms: u64) {
        // Step in small chunks so leader observations are fine-grained.
        let chunks = (ms / 25).max(1);
        for _ in 0..chunks {
            self.sim.run_for(SimDuration::from_millis(25));
            self.observe_leaders();
        }
    }

    fn check_state_machine_safety(&self) {
        let applied = self.applied.borrow();
        let seqs: Vec<&Vec<(u64, Cmd)>> = applied.values().collect();
        for (i, a) in seqs.iter().enumerate() {
            for b in seqs.iter().skip(i + 1) {
                let common = a.len().min(b.len());
                assert_eq!(
                    &a[..common],
                    &b[..common],
                    "applied sequences diverge within common prefix"
                );
            }
        }
    }

    fn run_ops(&mut self, ops: &[ChaosOp]) {
        let n = self.cluster.len() as u8;
        for op in ops {
            match op {
                ChaosOp::Propose(tag) => {
                    self.next_cmd_tag += 1;
                    let cmd = tag * 10_000 + self.next_cmd_tag;
                    if let Some(l) = self.cluster.leader_id() {
                        let _ = self.cluster.node(l).propose(&mut self.sim, cmd);
                    }
                }
                ChaosOp::CrashNode(i) => {
                    let id = (*i % n) as NodeId;
                    if self.cluster.node(id).is_alive() {
                        self.cluster.crash(&mut self.sim, id);
                    }
                }
                ChaosOp::RestartNode(i) => {
                    let id = (*i % n) as NodeId;
                    if !self.cluster.node(id).is_alive() {
                        self.cluster.restart(&mut self.sim, id);
                    }
                }
                ChaosOp::PartitionLonely(i) => {
                    let id = (*i % n) as NodeId;
                    let lonely = vec![raft_addr(id)];
                    let rest = (0..n as NodeId)
                        .filter(|x| *x != id)
                        .map(raft_addr)
                        .collect();
                    self.cluster
                        .net()
                        .partition(&mut self.sim, vec![lonely, rest]);
                }
                ChaosOp::Heal => {
                    self.cluster.net().heal(&mut self.sim);
                    self.cluster.net().set_loss(&mut self.sim, 0.0);
                }
                ChaosOp::SetLoss(pct) => {
                    self.cluster
                        .net()
                        .set_loss(&mut self.sim, *pct as f64 / 100.0);
                }
                ChaosOp::Advance(ms) => self.advance(*ms as u64),
            }
            self.check_state_machine_safety();
        }
    }

    fn quiesce_and_check_convergence(&mut self) {
        self.cluster.net().heal(&mut self.sim);
        self.cluster.net().set_loss(&mut self.sim, 0.0);
        for id in 0..self.cluster.len() as NodeId {
            if !self.cluster.node(id).is_alive() {
                self.cluster.restart(&mut self.sim, id);
            }
        }
        self.advance(10_000);
        self.check_state_machine_safety();

        // Log matching over the shared prefix.
        let logs: Vec<_> = (0..self.cluster.len() as NodeId)
            .map(|i| self.cluster.disk(i).borrow().log.clone())
            .collect();
        let min_len = logs.iter().map(std::vec::Vec::len).min().unwrap_or(0);
        for idx in 0..min_len {
            for log in &logs[1..] {
                assert_eq!(
                    log[idx].term, logs[0][idx].term,
                    "log term mismatch at {idx}"
                );
            }
        }

        // Liveness after healing: a leader exists and committed entries
        // propagated to every node.
        assert!(
            self.cluster.leader_id().is_some(),
            "no leader after healing and 10s of quiet time"
        );
        let applied = self.applied.borrow();
        let max_applied = applied.values().map(std::vec::Vec::len).max().unwrap_or(0);
        for (id, seq) in applied.iter() {
            assert_eq!(
                seq.len(),
                max_applied,
                "node {id} failed to converge after quiescence"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
    })]

    #[test]
    fn raft_safety_under_chaos_3(seed in 0..u64::MAX, ops in proptest::collection::vec(op_strategy(), 5..40)) {
        let mut h = Harness::new(seed, 3);
        h.advance(2_000);
        h.run_ops(&ops);
        h.quiesce_and_check_convergence();
    }

    #[test]
    fn raft_safety_under_chaos_5(seed in 0..u64::MAX, ops in proptest::collection::vec(op_strategy(), 5..30)) {
        let mut h = Harness::new(seed, 5);
        h.advance(2_000);
        h.run_ops(&ops);
        h.quiesce_and_check_convergence();
    }

    // Heartbeat suppression: a peer that was just sent log traffic is
    // skipped by the heartbeat tick. Under a healthy, loss-free leader no
    // interleaving of proposals, reads and idle gaps may starve a
    // follower into an election.
    #[test]
    fn no_follower_times_out_under_a_healthy_leader(
        seed in 0..u64::MAX,
        load in proptest::collection::vec((0..3u8, 1..180_000u64), 20..200),
    ) {
        let mut h = Harness::new(seed, 3);
        h.advance(2_000);
        let leader = h.cluster.leader_id().expect("leader after 2 s");
        let elections = |h: &Harness| -> u64 {
            h.cluster.nodes().iter().map(dlaas_raft::Raft::elections_started).sum()
        };
        let before = elections(&h);
        for (kind, gap_us) in load {
            let node = h.cluster.node(leader);
            match kind {
                0 => drop(node.propose(&mut h.sim, gap_us)),
                1 => drop(node.read_index(&mut h.sim, |_sim, ok| assert!(ok))),
                _ => {}
            }
            h.sim.run_for(SimDuration::from_micros(gap_us));
        }
        h.advance(1_000);
        prop_assert_eq!(elections(&h), before, "a follower timed out");
        prop_assert_eq!(h.cluster.leader_id(), Some(leader));
        h.check_state_machine_safety();
    }
}

#[test]
fn deterministic_replay_same_seed_same_history() {
    fn run(seed: u64) -> Vec<(u64, Cmd)> {
        let mut h = Harness::new(seed, 3);
        h.advance(1_000);
        for i in 0..20 {
            if let Some(l) = h.cluster.leader_id() {
                let _ = h.cluster.node(l).propose(&mut h.sim, 100 + i);
            }
            h.advance(100);
        }
        h.advance(2_000);
        let applied = h.applied.borrow();
        applied.values().max_by_key(|v| v.len()).unwrap().clone()
    }
    assert_eq!(run(77), run(77));
}
