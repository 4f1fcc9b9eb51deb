//! The platform façade: builds every substrate, wires the core services
//! onto the simulated cluster, and exposes operator/test utilities
//! (tenants, datasets, fault injection, direct metadata reads).

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_docstore::{Doc, Filter, MongoRpc, MongoServer, MongoTimings, StoreError};
use dlaas_etcd::EtcdCluster;
use dlaas_gpu::GpuKind;
use dlaas_kube::{
    labels, BehaviorRegistry, ContainerSpec, ImageRef, Kube, KubeConfig, NodeSpec, PodSpec,
    Resources,
};
use dlaas_net::{LatencyModel, RpcLayer};
use dlaas_objstore::{ObjectBody, ObjectStore};
use dlaas_sharedfs::NfsServer;
use dlaas_sim::{Sim, SimDuration};

use crate::api::api_behavior;
use crate::client::DlaasClient;
use crate::config::{self, CoreConfig};
use crate::guardian::guardian_behavior;
use crate::handles::{EtcdView, Handles, API_SERVICE, LCM_SERVICE};
use crate::helper::{
    controller_behavior, load_data_behavior, log_collector_behavior, store_results_behavior,
};
use crate::job::{JobId, JobStatus};
use crate::lcm::lcm_behavior;
use crate::learner::learner_behavior;
use crate::mongo::{MetaClient, JOBS, TENANTS};
use crate::proto::{CoreRpc, JobInfo};
use crate::tenant::Tenant;

/// One class of GPU nodes in the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuNodeSpec {
    /// GPU model installed.
    pub kind: GpuKind,
    /// Number of nodes of this class.
    pub count: u32,
    /// GPUs per node.
    pub gpus_each: u32,
}

/// Full platform configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Control-plane tunables.
    pub core: CoreConfig,
    /// Kubernetes timing knobs.
    pub kube: KubeConfig,
    /// CPU-only nodes hosting the core services.
    pub core_nodes: u32,
    /// GPU node classes.
    pub gpu_nodes: Vec<GpuNodeSpec>,
    /// Object-store aggregate service bandwidth (bytes/sec).
    pub objstore_bytes_per_sec: f64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            core: CoreConfig::default(),
            kube: KubeConfig::default(),
            core_nodes: 3,
            gpu_nodes: vec![
                GpuNodeSpec {
                    kind: GpuKind::K80,
                    count: 2,
                    gpus_each: 4,
                },
                GpuNodeSpec {
                    kind: GpuKind::P100Pcie,
                    count: 2,
                    gpus_each: 2,
                },
            ],
            objstore_bytes_per_sec: 2e9,
        }
    }
}

/// The assembled platform. Cloning shares the underlying handles (so an
/// invariant monitor can hold one while tests drive the original).
#[derive(Clone)]
pub struct DlaasPlatform {
    handles: Handles,
    /// The etcd cluster itself, for the harness (faults, snapshots);
    /// components get [`EtcdView`] and owned clients instead.
    etcd: Rc<EtcdCluster>,
    /// The live MongoDB server; a shared slot so scheduled recovery events
    /// can swap a recovered server in.
    mongo: Rc<RefCell<Rc<MongoServer>>>,
    mongo_rpc: MongoRpc,
    /// Clone-handle of the sim's metrics registry (same underlying store).
    metrics: dlaas_sim::Registry,
}

impl std::fmt::Debug for DlaasPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlaasPlatform").finish_non_exhaustive()
    }
}

impl DlaasPlatform {
    /// Builds the platform: substrates, cluster nodes, behavior registry,
    /// and the API/LCM deployments with their services.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(sim: &mut Sim, cfg: PlatformConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "boot-time assertion on harness-supplied config, documented under `# Panics`; a malformed PlatformConfig is a programming error in the experiment setup, never reachable from runtime platform data"
        )]
        cfg.core.validate().expect("invalid core config");

        let registry = BehaviorRegistry::new();
        let kube = Kube::new(sim, cfg.kube.clone(), registry.clone());
        for i in 0..cfg.core_nodes {
            kube.add_node(NodeSpec::cpu(format!("core-{i}"), 16_000, 65_536));
        }
        for class in &cfg.gpu_nodes {
            for i in 0..class.count {
                kube.add_node(NodeSpec::gpu(
                    format!("gpu-{}-{i}", class.kind.to_string().to_lowercase()),
                    24_000,
                    262_144,
                    class.gpus_each,
                    class.kind,
                ));
            }
        }

        let rpc: CoreRpc = RpcLayer::new(sim, LatencyModel::datacenter());
        let mongo_rpc: MongoRpc = RpcLayer::new(sim, LatencyModel::datacenter());
        let mongo = MongoServer::new(mongo_rpc.clone());
        // The LCM sweeps and quota counts pin `status`; index it up front
        // (journaled, so it survives crash/recovery) to keep those queries
        // proportional to the matching set, not the whole jobs collection.
        mongo
            .store()
            .borrow_mut()
            .create_index(crate::mongo::JOBS, "status");
        let etcd = Rc::new(EtcdCluster::new_3way(sim));
        let objstore = ObjectStore::new(cfg.objstore_bytes_per_sec);
        let nfs = NfsServer::new();

        // The one client built without a process to own it: `lcm-gc` lives
        // in `Handles` for the whole simulation and is shared by every LCM
        // incarnation's GC sweep (it registers no watch).
        let etcd_gc = etcd.client("lcm-gc");
        let handles = Handles {
            rpc,
            mongo: mongo_rpc.clone(),
            etcd: EtcdView::new(etcd.clone()),
            objstore,
            nfs,
            kube: kube.clone(),
            etcd_gc,
            shard_tracker: crate::ownership::ShardTracker::new(config::LCM_SHARDS),
            config: Rc::new(cfg.core.clone()),
        };

        // Register every platform behavior.
        let reg =
            |name: &str,
             f: fn(Handles, &mut Sim, dlaas_kube::ProcessCtx) -> dlaas_kube::Cleanup| {
                let h = handles.clone();
                registry.register(name, move |sim, ctx| f(h.clone(), sim, ctx));
            };
        reg("api", api_behavior);
        reg("lcm", lcm_behavior);
        reg("guardian", guardian_behavior);
        reg("controller", controller_behavior);
        reg("load-data", load_data_behavior);
        reg("log-collector", log_collector_behavior);
        reg("store-results", store_results_behavior);
        reg("learner", learner_behavior);

        // Core services as Deployments + Services.
        let api_pod = PodSpec::new(
            "unused",
            ContainerSpec::new("api", ImageRef::microservice("dlaas/api"), "api")
                .with_cold_start(config::API_COLD_START),
        )
        .with_labels(labels! {"role" => "core", "app" => "api"})
        .with_resources(Resources::new(1000, 2048, 0), None);
        kube.create_deployment(sim, "dlaas-api", config::API_REPLICAS, api_pod);
        kube.create_service(sim, API_SERVICE, labels! {"app" => "api"});

        let lcm_pod = PodSpec::new(
            "unused",
            ContainerSpec::new("lcm", ImageRef::microservice("dlaas/lcm"), "lcm")
                .with_cold_start(config::LCM_COLD_START),
        )
        .with_labels(labels! {"role" => "core", "app" => "lcm"})
        .with_resources(Resources::new(1000, 2048, 0), None);
        kube.create_deployment(sim, "dlaas-lcm", cfg.core.lcm_replicas, lcm_pod);
        kube.create_service(sim, LCM_SERVICE, labels! {"app" => "lcm"});

        DlaasPlatform {
            handles,
            etcd,
            mongo: Rc::new(RefCell::new(mongo)),
            mongo_rpc,
            metrics: sim.metrics().clone(),
        }
    }

    /// Builds the platform with defaults and runs until it is ready.
    pub fn bootstrapped(sim: &mut Sim) -> Self {
        let p = Self::new(sim, PlatformConfig::default());
        p.run_until_ready(sim, SimDuration::from_secs(60));
        p
    }

    /// Shared substrate handles.
    pub fn handles(&self) -> &Handles {
        &self.handles
    }

    /// The Kubernetes cluster.
    pub fn kube(&self) -> &Kube {
        &self.handles.kube
    }

    /// The object store.
    pub fn objstore(&self) -> &ObjectStore {
        &self.handles.objstore
    }

    /// The NFS service.
    pub fn nfs(&self) -> &NfsServer {
        &self.handles.nfs
    }

    /// The etcd cluster.
    pub fn etcd(&self) -> &Rc<EtcdCluster> {
        &self.etcd
    }

    /// The shard-ownership ledger the LCM replicas report into.
    pub fn shard_tracker(&self) -> &crate::ownership::ShardTracker {
        &self.handles.shard_tracker
    }

    /// The platform's metrics registry — the same deterministic store the
    /// simulation kernel hands to every instrumented component.
    pub fn metrics(&self) -> &dlaas_sim::Registry {
        &self.metrics
    }

    /// Prometheus-style text exposition of every metric recorded so far.
    /// Deterministic: one seed produces one byte-identical page.
    pub fn expose_metrics(&self) -> String {
        self.metrics.expose()
    }

    /// `true` once both core services resolve and etcd has a leader.
    pub fn ready(&self, sim: &Sim) -> bool {
        self.handles
            .kube
            .resolve_service(sim, API_SERVICE)
            .is_some()
            && self
                .handles
                .kube
                .resolve_service(sim, LCM_SERVICE)
                .is_some()
            && self.etcd.leader_id().is_some()
    }

    /// Runs the simulation until [`DlaasPlatform::ready`] or the limit.
    ///
    /// # Panics
    ///
    /// Panics if the platform is not ready within `limit`.
    pub fn run_until_ready(&self, sim: &mut Sim, limit: SimDuration) {
        let deadline = sim.now() + limit;
        loop {
            if self.ready(sim) {
                return;
            }
            match sim.peek_time() {
                Some(t) if t <= deadline => {
                    sim.step();
                }
                _ if sim.now() < deadline => {
                    let next = (sim.now() + SimDuration::from_millis(100)).min(deadline);
                    sim.run_until(next);
                }
                #[expect(
                    clippy::panic,
                    reason = "test/bench readiness helper with documented `# Panics`; runs in the experiment harness before any workload, not on a platform control-plane path"
                )]
                _ => panic!("platform not ready within {limit}"),
            }
        }
    }

    /// Scales the API deployment (§I goal 2: horizontal scalability — the
    /// API tier grows and shrinks behind its service without disruption).
    pub fn scale_api(&self, sim: &mut Sim, replicas: u32) {
        self.handles
            .kube
            .scale_deployment(sim, "dlaas-api", replicas);
    }

    /// Scales the LCM deployment.
    pub fn scale_lcm(&self, sim: &mut Sim, replicas: u32) {
        self.handles
            .kube
            .scale_deployment(sim, "dlaas-lcm", replicas);
    }

    /// Registers a tenant (bootstrap path: writes the journaled store
    /// directly, as an operator would before opening the service).
    ///
    /// # Errors
    ///
    /// Propagates the store's rejection (e.g. a duplicate tenant id) so
    /// bootstrap scripts fail loudly instead of silently running with a
    /// missing tenant.
    pub fn add_tenant(&self, tenant: &Tenant) -> Result<(), StoreError> {
        self.mongo
            .borrow()
            .store()
            .borrow_mut()
            .insert(TENANTS, tenant.to_document())
            .map(|_id| ())
    }

    /// Creates a bucket and stages a synthetic training dataset in it.
    pub fn seed_dataset(&self, bucket: &str, prefix: &str, bytes: u64) {
        self.handles.objstore.seed(
            bucket,
            crate::paths::obj_dataset(prefix),
            ObjectBody::Synthetic(bytes),
        );
    }

    /// Creates a results bucket.
    pub fn create_bucket(&self, bucket: &str) {
        self.handles.objstore.create_bucket(bucket);
    }

    /// A client for the given tenant.
    pub fn client(&self, who: &str, api_key: &str) -> DlaasClient {
        DlaasClient::new(self.handles.clone(), who, api_key)
    }

    // ------------------------------------------------------------------
    // Direct metadata reads (tests & harnesses)
    // ------------------------------------------------------------------

    /// Every job document currently in the store (invariant checking and
    /// test harnesses; bypasses the API).
    pub fn job_documents(&self) -> Vec<Doc> {
        self.mongo
            .borrow()
            .store()
            .borrow()
            .find(JOBS, &Filter::True)
    }

    /// Lends every job document currently in the store to `visit` with
    /// its id, in id order, without collecting them — the invariant
    /// checker's walk.
    pub fn for_each_job_document(&self, visit: impl FnMut(&str, &Doc)) {
        self.mongo.borrow().store().borrow().for_each(JOBS, visit);
    }

    /// Every tenant document currently in the store (the invariant
    /// checker's fairness rule needs quotas and weights).
    pub fn tenant_documents(&self) -> Vec<Doc> {
        self.mongo
            .borrow()
            .store()
            .borrow()
            .find(TENANTS, &Filter::True)
    }

    /// Reads a job's document straight from the store (bypasses the API).
    pub fn job_document(&self, job: &JobId) -> Option<Doc> {
        self.mongo
            .borrow()
            .store()
            .borrow()
            .find_one(JOBS, &Filter::eq("_id", job.as_str()))
    }

    /// Parsed [`JobInfo`] straight from the store (`None` if the job is
    /// unknown or its document is malformed).
    pub fn job_info(&self, job: &JobId) -> Option<JobInfo> {
        self.job_document(job)
            .and_then(|d| MetaClient::parse_job_info(&d).ok())
    }

    /// Current status straight from the store.
    pub fn job_status(&self, job: &JobId) -> Option<JobStatus> {
        self.job_info(job).map(|i| i.status)
    }

    /// Metering counters for an API key: `(request_kind, count)` pairs, as
    /// accumulated by the API service (§III-c). `None` until the key has
    /// made at least one request.
    pub fn metering(&self, api_key: &str) -> Option<Vec<(String, i64)>> {
        let doc = self
            .mongo
            .borrow()
            .store()
            .borrow()
            .find_one(crate::api::METERING, &Filter::eq("_id", api_key))?;
        let obj = doc.as_obj()?;
        Some(
            obj.iter()
                .filter(|(k, _)| *k != "_id")
                .filter_map(|(k, v)| Some((k.clone(), v.as_i64()?)))
                .collect(),
        )
    }

    /// Runs the simulation until the job reaches `status` (or any terminal
    /// status, which also stops the wait) or the limit passes. Returns the
    /// status seen last.
    pub fn wait_for_status(
        &self,
        sim: &mut Sim,
        job: &JobId,
        status: JobStatus,
        limit: SimDuration,
    ) -> Option<JobStatus> {
        let deadline = sim.now() + limit;
        loop {
            let cur = self.job_status(job);
            if cur == Some(status) || cur.is_some_and(super::job::JobStatus::is_terminal) {
                return cur;
            }
            match sim.peek_time() {
                Some(t) if t <= deadline => {
                    sim.step();
                }
                _ if sim.now() < deadline => {
                    let next = (sim.now() + SimDuration::from_millis(100)).min(deadline);
                    sim.run_until(next);
                }
                _ => return cur,
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault operations (the paper's kubectl experiments)
    // ------------------------------------------------------------------

    /// Crashes the metadata store process. The journal (disk) survives;
    /// [`DlaasPlatform::restart_mongo`] recovers from it. When
    /// `auto_restart` is set, recovery is scheduled automatically after
    /// the given delay (mimicking the K8s restart of the MongoDB pod).
    pub fn crash_mongo(&self, sim: &mut Sim, auto_restart: Option<SimDuration>) {
        self.mongo.borrow().crash();
        sim.mark("platform", "mongo", "crashed", 0);
        if let Some(d) = auto_restart {
            let journal = self.mongo.borrow().journal();
            let rpc = self.mongo_rpc.clone();
            let slot = self.mongo.clone();
            sim.schedule_in(d, move |sim| {
                let server = MongoServer::recover(rpc, journal, MongoTimings::default());
                *slot.borrow_mut() = server;
                sim.mark("platform", "mongo", "recovered", 0);
            });
        }
    }

    /// Starts or ends a metadata-store write stall: mutations are dropped
    /// (clients time out and retry) while reads keep serving. A softer
    /// fault than [`DlaasPlatform::crash_mongo`] — it exercises exactly
    /// the paths that must notice an *unacknowledged* write.
    pub fn set_mongo_write_failures(&self, sim: &mut Sim, fail: bool) {
        self.mongo.borrow().set_fail_writes(fail);
        let what = if fail {
            "write-stall-begins"
        } else {
            "write-stall-ends"
        };
        sim.mark("platform", "mongo", what, 0);
    }

    /// Restarts the metadata store immediately from its journal.
    pub fn restart_mongo(&self, sim: &mut Sim) {
        let journal = self.mongo.borrow().journal();
        let server = MongoServer::recover(self.mongo_rpc.clone(), journal, MongoTimings::default());
        *self.mongo.borrow_mut() = server;
        sim.mark("platform", "mongo", "recovered", 0);
    }
}
