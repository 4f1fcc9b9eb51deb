//! Test/deployment harness for a fixed-membership Raft cluster.
//!
//! Owns the per-node "disks" (persistent state that survives crashes) and
//! wires every node to a shared [`Net`]. This is the shape the paper's
//! etcd deployment uses: a 3-way replicated cluster on the platform layer.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_net::{LatencyModel, Net};
use dlaas_sim::{Sim, SimDuration, SimTime};

use crate::keepalive::Keepalives;
use crate::node::{ApplyFn, Raft, SnapshotFactory};
use crate::types::{NodeId, PersistentState, RaftConfig, RaftMsg, Role};

/// Factory producing a fresh apply callback (and implicitly a fresh state
/// machine) for node `id`; invoked at startup and again on every restart.
pub type ApplyFactory<C> = Rc<dyn Fn(NodeId) -> ApplyFn<C>>;

/// A fixed-size Raft cluster over a simulated network.
pub struct RaftCluster<C: 'static> {
    nodes: Vec<Raft<C>>,
    disks: Vec<Rc<RefCell<PersistentState<C>>>>,
    net: Net<RaftMsg<C>>,
    apply_factory: ApplyFactory<C>,
    /// Held for the nodes, which only keep a weak handle.
    _keepalives: Rc<Keepalives<C>>,
}

impl<C> std::fmt::Debug for RaftCluster<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaftCluster")
            .field("size", &self.nodes.len())
            .finish()
    }
}

impl<C: Clone + 'static> RaftCluster<C> {
    /// Builds an `n`-node cluster on a fresh network with the given latency.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the config is invalid.
    pub fn new(
        sim: &mut Sim,
        n: u32,
        config: RaftConfig,
        latency: LatencyModel,
        apply_factory: ApplyFactory<C>,
        noop: C,
    ) -> Self {
        Self::with_snapshot_factory(sim, n, config, latency, apply_factory, noop, None)
    }

    /// Like [`RaftCluster::new`], with per-node snapshot hooks enabling
    /// log compaction (pair with [`RaftConfig::compact_threshold`]).
    pub fn with_snapshot_factory(
        sim: &mut Sim,
        n: u32,
        config: RaftConfig,
        latency: LatencyModel,
        apply_factory: ApplyFactory<C>,
        noop: C,
        snapshot_factory: Option<SnapshotFactory>,
    ) -> Self {
        assert!(n > 0, "cluster must have at least one node");
        let net: Net<RaftMsg<C>> = Net::new(sim, latency);
        let mut disks = Vec::new();
        let mut nodes = Vec::new();
        for id in 0..n {
            let disk = Rc::new(RefCell::new(PersistentState::default()));
            let node = Raft::with_snapshots(
                sim,
                id,
                n,
                config.clone(),
                disk.clone(),
                net.clone(),
                apply_factory(id),
                noop.clone(),
                snapshot_factory.as_ref().map(|f| f(id)),
            );
            disks.push(disk);
            nodes.push(node);
        }
        let keepalives = Keepalives::install(&nodes, &net);
        RaftCluster {
            nodes,
            disks,
            net,
            apply_factory,
            _keepalives: keepalives,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for an empty cluster (never constructed by [`RaftCluster::new`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Handle to node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Raft<C> {
        &self.nodes[id as usize]
    }

    /// All node handles.
    pub fn nodes(&self) -> &[Raft<C>] {
        &self.nodes
    }

    /// The shared network (for partitions and loss injection).
    pub fn net(&self) -> &Net<RaftMsg<C>> {
        &self.net
    }

    /// The persistent state of node `id` (its "disk").
    pub fn disk(&self, id: NodeId) -> &Rc<RefCell<PersistentState<C>>> {
        &self.disks[id as usize]
    }

    /// Id of the live leader with the highest term, if any.
    pub fn leader_id(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_alive() && n.role() == Role::Leader)
            .max_by_key(|n| n.term())
            .map(super::node::Raft::id)
    }

    /// Handle to the current leader, if any.
    pub fn leader(&self) -> Option<&Raft<C>> {
        self.leader_id().map(|id| self.node(id))
    }

    /// Crashes node `id` (volatile state lost; disk survives).
    pub fn crash(&self, sim: &mut Sim, id: NodeId) {
        self.nodes[id as usize].crash(sim);
    }

    /// Restarts node `id` with a fresh state machine from the factory.
    pub fn restart(&self, sim: &mut Sim, id: NodeId) {
        let apply = (self.apply_factory)(id);
        self.nodes[id as usize].restart(sim, apply);
    }

    /// Runs the simulation until a leader exists (checked after every
    /// event) or `deadline` passes. Returns the leader id if one emerged.
    pub fn run_until_leader(&self, sim: &mut Sim, deadline: SimTime) -> Option<NodeId> {
        loop {
            if let Some(l) = self.leader_id() {
                return Some(l);
            }
            match sim.peek_time() {
                Some(t) if t <= deadline => {
                    sim.step();
                }
                _ => return self.leader_id(),
            }
        }
    }

    /// Convenience: runs until a leader exists, panicking after `limit`.
    ///
    /// # Panics
    ///
    /// Panics if no leader emerges within `limit`.
    pub fn expect_leader(&self, sim: &mut Sim, limit: SimDuration) -> NodeId {
        let deadline = sim.now() + limit;
        self.run_until_leader(sim, deadline)
            .expect("no leader elected within limit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    type Cmd = u64;
    type Applied = Rc<RefCell<BTreeMap<NodeId, Vec<(u64, Cmd)>>>>;

    /// Builds a cluster whose state machines record applied commands into a
    /// shared map keyed by node id.
    fn test_cluster(sim: &mut Sim, n: u32) -> (RaftCluster<Cmd>, Applied) {
        let applied: Applied = Rc::new(RefCell::new(BTreeMap::new()));
        let a = applied.clone();
        let factory: ApplyFactory<Cmd> = Rc::new(move |id| {
            // A restart rebuilds the state machine from scratch.
            a.borrow_mut().insert(id, Vec::new());
            let a = a.clone();
            Box::new(move |_sim, idx, cmd: &Cmd| {
                a.borrow_mut().entry(id).or_default().push((idx, *cmd));
            })
        });
        let cluster = RaftCluster::new(
            sim,
            n,
            RaftConfig::default(),
            LatencyModel::Uniform(SimDuration::from_micros(500), SimDuration::from_millis(2)),
            factory,
            0, // command 0 is the no-op barrier
        );
        (cluster, applied)
    }

    fn committed_user_cmds(applied: &Applied, id: NodeId) -> Vec<Cmd> {
        applied
            .borrow()
            .get(&id)
            .map(|v| v.iter().map(|(_, c)| *c).filter(|c| *c != 0).collect())
            .unwrap_or_default()
    }

    #[test]
    fn elects_exactly_one_leader() {
        let mut sim = Sim::new(11);
        let (cluster, _) = test_cluster(&mut sim, 3);
        cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(2));
        let leaders: Vec<_> = cluster
            .nodes()
            .iter()
            .filter(|n| n.role() == Role::Leader)
            .collect();
        assert_eq!(leaders.len(), 1, "exactly one leader must exist");
    }

    #[test]
    fn single_node_cluster_elects_itself() {
        let mut sim = Sim::new(3);
        let (cluster, _) = test_cluster(&mut sim, 1);
        let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(2));
        assert_eq!(l, 0);
    }

    #[test]
    fn replicates_and_applies_in_order_everywhere() {
        let mut sim = Sim::new(42);
        let (cluster, applied) = test_cluster(&mut sim, 3);
        let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        for c in 1..=20u64 {
            cluster.node(l).propose(&mut sim, c).unwrap();
        }
        sim.run_for(SimDuration::from_secs(2));
        for id in 0..3 {
            let cmds = committed_user_cmds(&applied, id);
            assert_eq!(cmds, (1..=20).collect::<Vec<_>>(), "node {id}");
        }
    }

    #[test]
    fn propose_on_follower_is_rejected_with_hint() {
        let mut sim = Sim::new(7);
        let (cluster, _) = test_cluster(&mut sim, 3);
        let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(1));
        let follower = (0..3).find(|i| *i != l).unwrap();
        let err = cluster.node(follower).propose(&mut sim, 9).unwrap_err();
        assert_eq!(err.hint, Some(l));
    }

    #[test]
    fn survives_leader_crash_and_preserves_committed_entries() {
        let mut sim = Sim::new(5);
        let (cluster, applied) = test_cluster(&mut sim, 3);
        let l1 = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        for c in 1..=5u64 {
            cluster.node(l1).propose(&mut sim, c).unwrap();
        }
        sim.run_for(SimDuration::from_secs(1));
        cluster.crash(&mut sim, l1);
        let l2 = cluster.expect_leader(&mut sim, SimDuration::from_secs(10));
        assert_ne!(l1, l2);
        for c in 6..=10u64 {
            cluster.node(l2).propose(&mut sim, c).unwrap();
        }
        sim.run_for(SimDuration::from_secs(2));
        for id in 0..3 {
            if id == l1 {
                continue;
            }
            assert_eq!(
                committed_user_cmds(&applied, id),
                (1..=10).collect::<Vec<_>>(),
                "node {id}"
            );
        }
    }

    #[test]
    fn restarted_node_catches_up_from_log() {
        let mut sim = Sim::new(9);
        let (cluster, applied) = test_cluster(&mut sim, 3);
        let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        let victim = (0..3).find(|i| *i != l).unwrap();
        cluster.crash(&mut sim, victim);
        for c in 1..=8u64 {
            cluster.node(l).propose(&mut sim, c).unwrap();
        }
        sim.run_for(SimDuration::from_secs(1));
        cluster.restart(&mut sim, victim);
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(
            committed_user_cmds(&applied, victim),
            (1..=8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let mut sim = Sim::new(13);
        let (cluster, applied) = test_cluster(&mut sim, 3);
        let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(1));
        // Isolate the leader from both followers.
        let others: Vec<_> = (0..3u32).filter(|i| *i != l).collect();
        cluster.net().partition(
            &mut sim,
            vec![
                vec![crate::node::raft_addr(l)],
                others.iter().map(|i| crate::node::raft_addr(*i)).collect(),
            ],
        );
        // Propose on the isolated leader: must never commit.
        let r = cluster.node(l).propose(&mut sim, 99);
        assert!(r.is_ok(), "stale leader still accepts proposals");
        sim.run_for(SimDuration::from_secs(3));
        for id in 0..3 {
            assert!(
                !committed_user_cmds(&applied, id).contains(&99),
                "entry committed without quorum on node {id}"
            );
        }
        // Majority side elects a new leader and commits.
        let l2 = cluster.leader_id().expect("majority side has a leader");
        assert_ne!(l2, l);
        cluster.node(l2).propose(&mut sim, 100).unwrap();
        sim.run_for(SimDuration::from_secs(2));
        assert!(committed_user_cmds(&applied, l2).contains(&100));

        // Heal: the stale leader's uncommitted entry is overwritten.
        cluster.net().heal(&mut sim);
        sim.run_for(SimDuration::from_secs(3));
        let cmds = committed_user_cmds(&applied, l);
        assert!(cmds.contains(&100), "healed node must learn new entries");
        assert!(!cmds.contains(&99), "unquorate entry must be discarded");
    }

    #[test]
    fn read_index_completes_after_quorum() {
        let mut sim = Sim::new(21);
        let (cluster, _) = test_cluster(&mut sim, 3);
        let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(1));
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        cluster
            .node(l)
            .read_index(&mut sim, move |_, ok| *d.borrow_mut() = Some(ok))
            .unwrap();
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(*done.borrow(), Some(true));
    }

    #[test]
    fn read_index_fails_on_follower() {
        let mut sim = Sim::new(22);
        let (cluster, _) = test_cluster(&mut sim, 3);
        let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(1));
        let f = (0..3).find(|i| *i != l).unwrap();
        assert!(cluster.node(f).read_index(&mut sim, |_, _| {}).is_err());
    }

    #[test]
    fn read_index_on_isolated_leader_does_not_succeed() {
        let mut sim = Sim::new(23);
        let (cluster, _) = test_cluster(&mut sim, 3);
        let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(1));
        let others: Vec<_> = (0..3u32).filter(|i| *i != l).collect();
        cluster.net().partition(
            &mut sim,
            vec![
                vec![crate::node::raft_addr(l)],
                others.iter().map(|i| crate::node::raft_addr(*i)).collect(),
            ],
        );
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        cluster
            .node(l)
            .read_index(&mut sim, move |_, ok| *d.borrow_mut() = Some(ok))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        // Either still pending (no quorum) or failed on step-down; never Some(true).
        assert_ne!(*done.borrow(), Some(true), "isolated leader served a read");
    }

    #[test]
    fn terms_are_monotonic_and_logs_match_on_quiescence() {
        let mut sim = Sim::new(31);
        let (cluster, _) = test_cluster(&mut sim, 5);
        let l = cluster.expect_leader(&mut sim, SimDuration::from_secs(5));
        for c in 1..=30u64 {
            let _ = cluster.node(l).propose(&mut sim, c);
        }
        sim.run_for(SimDuration::from_secs(3));
        // Log Matching: all live nodes' logs agree on every index up to the
        // minimum length.
        let logs: Vec<_> = (0..5)
            .map(|i| cluster.disk(i).borrow().log.clone())
            .collect();
        let min_len = logs.iter().map(std::vec::Vec::len).min().unwrap();
        for i in 0..min_len {
            let first = &logs[0][i];
            for log in &logs[1..] {
                assert_eq!(log[i], *first, "log mismatch at index {}", i + 1);
            }
        }
    }
}
