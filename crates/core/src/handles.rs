//! Shared substrate handles passed to every service behavior.

use std::rc::Rc;

use dlaas_docstore::MongoRpc;
use dlaas_etcd::{EtcdClient, EtcdCluster, EtcdRpc, KvCommand, WatchNet};
use dlaas_kube::{Kube, ProcessCtx};
use dlaas_objstore::ObjectStore;
use dlaas_raft::RaftCluster;
use dlaas_sharedfs::NfsServer;

use crate::config::CoreConfig;
use crate::mongo::MetaClient;
use crate::ownership::ShardTracker;
use crate::proto::CoreRpc;

/// Name of the Kubernetes service fronting the API pods.
pub const API_SERVICE: &str = "dlaas-api";
/// Name of the Kubernetes service fronting the LCM pods.
pub const LCM_SERVICE: &str = "dlaas-lcm";

/// The etcd cluster as a component sees it: its networks and Raft group,
/// for counters and probes — and no way to a client. A client registers a
/// watch endpoint that somebody has to unregister, so the one way to get
/// one is [`Handles::etcd_client`], which makes the asking process that
/// somebody.
///
/// ```compile_fail
/// use dlaas_core::Handles;
/// fn unowned(h: &Handles) -> dlaas_etcd::EtcdClient {
///     h.etcd.client("guardian") // no such method: no process would own it
/// }
/// ```
#[derive(Clone)]
pub struct EtcdView(Rc<EtcdCluster>);

impl EtcdView {
    pub(crate) fn new(cluster: Rc<EtcdCluster>) -> Self {
        EtcdView(cluster)
    }

    /// The RPC layer clients use to reach the cluster.
    pub fn rpc(&self) -> &EtcdRpc {
        self.0.rpc()
    }

    /// The watch-notification channel.
    pub fn watch_net(&self) -> &WatchNet {
        self.0.watch_net()
    }

    /// The underlying Raft cluster.
    pub fn raft(&self) -> &RaftCluster<KvCommand> {
        self.0.raft()
    }
}

/// Everything a platform component needs to reach the substrates.
/// Cloning shares the underlying handles.
#[derive(Clone)]
pub struct Handles {
    /// Control-plane RPC (client ↔ API ↔ LCM).
    pub rpc: CoreRpc,
    /// Metadata-store RPC.
    pub mongo: MongoRpc,
    /// The replicated etcd cluster, without `client` (see [`EtcdView`]).
    pub etcd: EtcdView,
    /// The cloud object store.
    pub objstore: ObjectStore,
    /// The shared NFS service.
    pub nfs: NfsServer,
    /// The Kubernetes cluster.
    pub kube: Kube,
    /// Shared etcd client for garbage collection. Teardown runs from many
    /// contexts (LCM scan, Guardian cleanup, kill path); constructing a
    /// fresh client per call would leak one watch-net registration per
    /// job on the etcd servers, so they all share this one handle.
    pub etcd_gc: EtcdClient,
    /// Shard-ownership ledger the LCM replicas report into and the
    /// invariant checker reads (observability only — etcd's lease + CAS
    /// owner keys are the source of truth for who sweeps what).
    pub shard_tracker: ShardTracker,
    /// Platform configuration.
    pub config: Rc<CoreConfig>,
}

impl std::fmt::Debug for Handles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handles").finish_non_exhaustive()
    }
}

impl Handles {
    /// A metadata client identified as `who`, owned by the process `ctx`
    /// like [`Handles::etcd_client`]: when that incarnation stops it sends
    /// nothing more and the kubelet unregisters its RPC endpoint.
    pub fn meta(&self, ctx: &ProcessCtx, who: &str) -> MetaClient {
        let client = MetaClient::new(self.mongo.clone(), who).while_alive(ctx.alive_flag());
        let owned = client.clone();
        ctx.on_teardown(move |_sim| owned.close());
        client
    }

    /// An etcd client identified as `who`, owned by the process `ctx`:
    /// when that incarnation stops, however it stops, the kubelet closes
    /// the client — cancelling every watch registered on it and freeing
    /// its watch-net endpoint for a successor of the same name. (A lease
    /// granted through it is released by its TTL, by design: a crashed
    /// holder could not have revoked it.)
    ///
    /// ```
    /// use dlaas_core::Handles;
    /// fn owned(h: &Handles, ctx: &dlaas_kube::ProcessCtx) -> dlaas_etcd::EtcdClient {
    ///     h.etcd_client(ctx, "guardian")
    /// }
    /// ```
    pub fn etcd_client(&self, ctx: &ProcessCtx, who: &str) -> EtcdClient {
        let client = self.etcd.0.client(who);
        let owned = client.clone();
        ctx.on_teardown(move |sim| owned.close(sim));
        client
    }
}
