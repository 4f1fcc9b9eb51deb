//! The 3-way (or n-way) replicated etcd cluster harness.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_net::{LatencyModel, Net, RpcLayer};
use dlaas_raft::{NodeId, RaftCluster, RaftConfig};
use dlaas_sim::{Sim, SimDuration};

use crate::client::EtcdClient;
use crate::kv::{KvCommand, KvState};
use crate::proto::etcd_addr;
use crate::server::{EtcdRpc, EtcdServer, LeaseSweep, ServerCore, WatchNet};

/// A complete etcd deployment: Raft cluster + servers + client factory.
///
/// The paper (§III-f): *"ETCD itself is replicated (3-way), and uses the
/// Raft consensus protocol to ensure consistency."* [`EtcdCluster::new_3way`]
/// builds exactly that.
pub struct EtcdCluster {
    raft: RaftCluster<KvCommand>,
    servers: Vec<Rc<EtcdServer>>,
    cores: Vec<Rc<RefCell<ServerCore>>>,
    incarnations: Incarnations,
    rpc: EtcdRpc,
    watch_net: WatchNet,
}

impl std::fmt::Debug for EtcdCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EtcdCluster")
            .field("size", &self.servers.len())
            .field("leader", &self.leader_id())
            .finish()
    }
}

impl EtcdCluster {
    /// Builds an `n`-node cluster with the given Raft timing and network
    /// latency models (one model for peer traffic, one for client RPC).
    pub fn new(
        sim: &mut Sim,
        n: u32,
        raft_config: RaftConfig,
        peer_latency: LatencyModel,
        client_latency: LatencyModel,
    ) -> Self {
        let rpc: EtcdRpc = RpcLayer::new(sim, client_latency);
        let watch_net: WatchNet = Net::new(sim, LatencyModel::datacenter());

        // Per-node cores exist before the Raft nodes so apply callbacks can
        // capture them.
        let cores: Vec<Rc<RefCell<ServerCore>>> = (0..n)
            .map(|_| Rc::new(RefCell::new(ServerCoreFactory::fresh(0))))
            .collect();
        let incarnations = Incarnations::new(n);
        // Each node has a lease-expiry sweep, which runs only while its
        // node leads, so expiry survives failover. A sweep outlives
        // restarts of its node: a promotion re-arms it.
        let sweeps: Vec<Rc<LeaseSweep>> = (0..n).map(|_| LeaseSweep::new(sim)).collect();

        let cores_for_factory = cores.clone();
        let sweeps_for_factory = sweeps.clone();
        let watch_for_factory = watch_net.clone();
        let incarnations_for_factory = incarnations.clone();
        let factory: dlaas_raft::ApplyFactory<KvCommand> = Rc::new(move |id: NodeId| {
            let core = cores_for_factory[id as usize].clone();
            // Reset the core: the state machine is rebuilt by log replay.
            let inc = incarnations_for_factory.bump(id);
            *core.borrow_mut() = ServerCoreFactory::fresh(inc);
            let sweep = sweeps_for_factory[id as usize].clone();
            EtcdServer::make_apply(id, core, watch_for_factory.clone(), sweep)
        });

        // Snapshot hooks let Raft compact its log: the KV store *is* the
        // snapshot (it is exactly the applied state).
        let cores_for_snapshots = cores.clone();
        let snapshot_factory: dlaas_raft::SnapshotFactory = Rc::new(move |id: NodeId| {
            EtcdServer::make_snapshot_hooks(cores_for_snapshots[id as usize].clone())
        });

        let raft = RaftCluster::with_snapshot_factory(
            sim,
            n,
            raft_config,
            peer_latency,
            factory,
            KvCommand::noop(),
            Some(snapshot_factory),
        );

        let servers: Vec<Rc<EtcdServer>> = (0..n)
            .map(|id| {
                EtcdServer::new(
                    id,
                    raft.node(id).clone(),
                    cores[id as usize].clone(),
                    rpc.clone(),
                    sweeps[id as usize].clone(),
                )
            })
            .collect();

        EtcdCluster {
            raft,
            servers,
            cores,
            incarnations,
            rpc,
            watch_net,
        }
    }

    /// The paper's deployment: 3-way replication on etcd's own timing
    /// ([`RaftConfig::default`]: 100 ms heartbeats, 1–2 s election
    /// timeout) and log compaction every 500 applied entries.
    pub fn new_3way(sim: &mut Sim) -> Self {
        Self::new(
            sim,
            3,
            RaftConfig {
                compact_threshold: 500,
                ..RaftConfig::default()
            },
            LatencyModel::datacenter(),
            LatencyModel::datacenter(),
        )
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// `true` if the cluster has no nodes (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The RPC layer clients use to reach the cluster.
    pub fn rpc(&self) -> &EtcdRpc {
        &self.rpc
    }

    /// The watch-notification channel.
    pub fn watch_net(&self) -> &WatchNet {
        &self.watch_net
    }

    /// The underlying Raft cluster (for partitions, disks, …).
    pub fn raft(&self) -> &RaftCluster<KvCommand> {
        &self.raft
    }

    /// Current leader id, if any.
    pub fn leader_id(&self) -> Option<NodeId> {
        self.raft.leader_id()
    }

    /// Creates a client handle named `addr` (e.g. `"guardian-7"`). It
    /// sees each member's restarts, and re-registers its watches there.
    pub fn client(&self, addr: impl Into<String>) -> EtcdClient {
        EtcdClient::attached(
            addr.into(),
            self.rpc.clone(),
            self.watch_net.clone(),
            self.incarnations.clone(),
        )
    }

    /// Crashes node `id`: Raft volatile state and the server core
    /// (KV cache, watches, pending RPCs) are lost; the log survives.
    pub fn crash(&self, sim: &mut Sim, id: NodeId) {
        self.raft.crash(sim, id);
        self.rpc.stop_serving(&etcd_addr(id));
    }

    /// Restarts node `id`: the KV store is rebuilt by replaying the log.
    pub fn restart(&self, sim: &mut Sim, id: NodeId) {
        self.raft.restart(sim, id); // factory resets the core
        self.servers[id as usize].resume();
    }

    /// Runs the simulation until a leader is elected (panics after `limit`).
    ///
    /// # Panics
    ///
    /// Panics if no leader emerges within `limit`.
    pub fn expect_leader(&self, sim: &mut Sim, limit: SimDuration) -> NodeId {
        self.raft.expect_leader(sim, limit)
    }

    /// Runs `read` against node `id`'s KV replica in place
    /// (non-linearizable) — what a periodic reader such as the invariant
    /// monitor uses, so a pass costs its lookups, not a copy of the store.
    pub fn with_kv<R>(&self, id: NodeId, read: impl FnOnce(&KvState) -> R) -> R {
        self.servers[id as usize].with_kv(read)
    }

    /// Non-linearizable snapshot of node `id`'s KV replica (tests only).
    pub fn kv_snapshot(&self, id: NodeId) -> KvState {
        self.servers[id as usize].kv_snapshot()
    }

    /// Current incarnation of node `id` (bumps on restart; tests only).
    pub fn incarnation(&self, id: NodeId) -> u64 {
        self.incarnations.of(id)
    }

    /// Node `id`'s lease deadlines, in lease id order: its lessor's while
    /// it leads with one promoted, and none otherwise (tests only).
    pub fn lease_deadlines(&self, id: NodeId) -> Vec<(crate::kv::LeaseId, dlaas_sim::SimTime)> {
        self.servers[id as usize].lease_deadlines()
    }

    /// Direct access to core cells (used by failure-injection tooling).
    pub fn core(&self, id: NodeId) -> &Rc<RefCell<ServerCore>> {
        &self.cores[id as usize]
    }
}

/// Each member's incarnation, bumped by every restart. A restart loses
/// the member's watch registrations — the watch streams attached to it
/// break — so a client re-registers where the incarnation moved. Cloning
/// shares it.
#[derive(Debug, Clone)]
pub(crate) struct Incarnations(Rc<RefCell<Vec<u64>>>);

impl Incarnations {
    /// `n` members that never restarted.
    pub(crate) fn new(n: u32) -> Self {
        Incarnations(Rc::new(RefCell::new(vec![0; n as usize])))
    }

    /// Member `id`'s current incarnation.
    pub(crate) fn of(&self, id: NodeId) -> u64 {
        self.0.borrow()[id as usize]
    }

    /// The number of members.
    pub(crate) fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether every member is still at the incarnation `seen` holds.
    pub(crate) fn same_as(&self, seen: &[u64]) -> bool {
        self.0.borrow().as_slice() == seen
    }

    /// Copies every member's incarnation into `seen`.
    pub(crate) fn copy_into(&self, seen: &mut Vec<u64>) {
        seen.clone_from(&self.0.borrow());
    }

    /// Member `id` restarted: its next incarnation.
    fn bump(&self, id: NodeId) -> u64 {
        let mut incarnations = self.0.borrow_mut();
        incarnations[id as usize] += 1;
        incarnations[id as usize]
    }
}

/// Internal helper so `ServerCore`'s constructor stays private to the
/// server module while the cluster can still reset cores.
struct ServerCoreFactory;

impl ServerCoreFactory {
    fn fresh(incarnation: u64) -> ServerCore {
        ServerCore::fresh(incarnation)
    }
}
