//! The cluster runtime: scheduler, kubelet, controllers, services,
//! network policies and fault operations.
//!
//! Two distinct recovery paths are modelled, because they have different
//! latencies and the paper's Fig. 4 measures the slower one:
//!
//! * **in-place container restart** — a crashed container is restarted by
//!   the kubelet on the same node (crash detection + crash-loop backoff +
//!   container setup). Used for container/process crashes.
//! * **pod replacement** — a deleted pod (or a pod lost with its node) is
//!   recreated by its owning controller and goes through the full path:
//!   reconcile + scheduling + image (cached or pulled) + volume mounts +
//!   object-store binding + process cold start + readiness. This is what
//!   `kubectl delete pod` exercises — the paper's crash experiment.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use dlaas_net::{Addr, Resolver, RpcError, SharedLink};
use dlaas_sim::{MarkDef, Sim, SimDuration, SimRng, SimTime};

use crate::marks::kube;
use crate::metrics;
use crate::process::{BehaviorRegistry, Cleanup, ProcessCtx};
use crate::types::{
    selector_matches, KubeConfig, Labels, NodeSpec, PodPhase, PodSpec, Resources, RestartPolicy,
};

// The timing model of the cluster machinery, after measured Kubernetes
// behaviour at the scale of the paper's deployment.

/// Scheduler latency from pending to bound.
const SCHEDULE_DELAY: SimDuration = SimDuration::from_millis(120);
/// Registry pull bandwidth per node, bytes/sec.
const PULL_BYTES_PER_SEC: f64 = 250e6;
/// Container create/start time when the image is cached.
const CONTAINER_SETUP: SimDuration = SimDuration::from_millis(1_100);
/// Kubelet detection latency for a container crash.
const CRASH_DETECT: SimDuration = SimDuration::from_millis(600);
/// Node-failure detection latency (node monitor grace).
const NODE_DETECT: SimDuration = SimDuration::from_secs(4);
/// Readiness-probe latency before a Running pod serves traffic.
const READINESS_DELAY: SimDuration = SimDuration::from_millis(900);
/// NFS persistent-volume mount time, per volume.
const VOLUME_MOUNT: SimDuration = SimDuration::from_millis(900);
/// Object-store credential/endpoint binding time (learners).
const OBJSTORE_BIND: SimDuration = SimDuration::from_millis(4_200);
/// Crash-loop backoff base (the second restart waits this long, doubling
/// after; the first restart is immediate).
const BACKOFF_BASE: SimDuration = SimDuration::from_secs(10);
/// Crash-loop backoff cap.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(300);
/// Symmetric jitter applied to all timing draws (fraction).
const JITTER: f64 = 0.25;

// What the timing constants must satisfy among themselves.
const _: () = {
    assert!(CRASH_DETECT.as_micros() < NODE_DETECT.as_micros());
    assert!(BACKOFF_BASE.as_micros() < BACKOFF_CAP.as_micros());
    assert!(0.0 <= JITTER && JITTER < 1.0);
};

/// What an event is about, and the prefix its subject gets on the
/// timeline when it is not a job-labelled pod.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Pod,
    Node,
    Deployment,
    StatefulSet,
    Job,
    Service,
}

impl Kind {
    fn prefix(self) -> &'static str {
        match self {
            Kind::Pod => "pod",
            Kind::Node => "node",
            Kind::Deployment => "deploy",
            Kind::StatefulSet => "sts",
            Kind::Job => "job",
            Kind::Service => "svc",
        }
    }
}

/// A Deployment or a StatefulSet: its kind and its name.
type SetKey = (Kind, String);

/// Who owns (and therefore replaces) a pod.
#[derive(Clone)]
enum Owner {
    /// A Deployment or a StatefulSet.
    Set(SetKey),
    /// A Kubernetes Job.
    Job(String),
}

/// Status of a Kubernetes Job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Pod running or being restarted.
    Active,
    /// Pod exited 0.
    Complete,
    /// Backoff limit exceeded.
    Failed,
}

struct Node {
    spec: NodeSpec,
    ready: bool,
    /// Cordoned nodes stay ready (their pods keep running) but accept no
    /// new placements.
    cordoned: bool,
    allocated: Resources,
    images: BTreeSet<String>,
    nic: SharedLink,
}

struct Pod {
    spec: PodSpec,
    uid: u64,
    phase: PodPhase,
    node: Option<String>,
    restarts: u32,
    owner: Option<Owner>,
    /// Each running container's handle and the cleanup its behaviour
    /// returned.
    procs: Vec<(ProcessCtx, Cleanup)>,
    exited_ok: BTreeSet<String>,
    ready_at: Option<SimTime>,
    started_at: Option<SimTime>,
    created_at: SimTime,
}

impl Pod {
    fn is_ready(&self, now: SimTime) -> bool {
        self.phase == PodPhase::Running && self.ready_at.is_some_and(|t| now >= t)
    }
}

/// A Deployment or a StatefulSet: `replicas` pods named `{name}-{i}`,
/// each recreated when it goes. The two differ only in the `ordinal`
/// label a StatefulSet stamps on its pods.
struct ReplicaSet {
    replicas: u32,
    template: PodSpec,
}

struct JobState {
    template: PodSpec,
    backoff_limit: u32,
    status: JobStatus,
}

struct ServiceState {
    selector: Labels,
    cursor: usize,
}

/// A deny rule: traffic from pods matching `from` to pods matching `to`
/// (or to the named services) is blocked. Everything else is allowed.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPolicy {
    /// Policy name.
    pub name: String,
    /// Source-pod selector.
    pub from: Labels,
    /// Destination-pod selector (empty = matches nothing).
    pub to: Labels,
    /// Destination services denied to matching sources.
    pub to_services: Vec<String>,
    /// Pod-to-pod traffic is exempt from this policy when both pods carry
    /// the same value for this label key (e.g. `"job"`: learners of one
    /// training job may talk MPI to each other while being isolated from
    /// every other tenant's learners).
    pub exempt_same: Option<String>,
}

struct ClusterState {
    rng: SimRng,
    nodes: BTreeMap<String, Node>,
    pods: BTreeMap<String, Pod>,
    /// Incrementally-maintained queue of schedulable pods. Invariant:
    /// contains exactly the pods with `phase == Pending && node == None`.
    /// Kept in sync by [`ClusterState::sync_pending`] at every mutation of
    /// a pod's phase, node binding, or existence, so [`Kube::kick_pending`]
    /// never rescans the full pod table.
    pending: BTreeSet<String>,
    sets: BTreeMap<SetKey, ReplicaSet>,
    jobs: BTreeMap<String, JobState>,
    services: BTreeMap<String, ServiceState>,
    policies: Vec<NetworkPolicy>,
    next_uid: u64,
    /// Handle to the `kube_kick_pending_examined` histogram, resolved on
    /// the first kick (not at boot, so the series set matches
    /// recording-on-demand) and bumped directly thereafter.
    kick_examined: Option<dlaas_sim::HistogramHandle>,
    /// Per-reason handles to `kube_events_total`, resolved as each reason
    /// first occurs (same first-use idiom as `kick_examined`).
    event_counters: BTreeMap<&'static str, dlaas_sim::CounterHandle>,
    /// Handle to the `kube_scheduling_latency_seconds` histogram.
    sched_latency: Option<dlaas_sim::HistogramHandle>,
    /// Handle to the `kube_pod_restarts_total` counter.
    restart_counter: Option<dlaas_sim::CounterHandle>,
}

impl ClusterState {
    /// Re-evaluates one pod's membership in the pending queue. Must run
    /// after any change to that pod's phase, node binding, or existence.
    fn sync_pending(&mut self, name: &str) {
        let waiting = self
            .pods
            .get(name)
            .is_some_and(|p| p.phase == PodPhase::Pending && p.node.is_none());
        if waiting {
            self.pending.insert(name.to_owned());
        } else {
            self.pending.remove(name);
        }
    }

    fn jittered(&mut self, d: SimDuration) -> SimDuration {
        self.rng.jitter(d, JITTER)
    }
}

/// Handle to the simulated cluster. Cloning shares the cluster.
#[derive(Clone)]
pub struct Kube {
    state: Rc<RefCell<ClusterState>>,
    registry: BehaviorRegistry,
}

impl fmt::Debug for Kube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("Kube")
            .field("nodes", &s.nodes.len())
            .field("pods", &s.pods.len())
            .finish()
    }
}

/// The network address a pod's processes serve at (= the pod name).
pub fn pod_addr(pod: &str) -> Addr {
    Addr::new(pod)
}

impl Kube {
    /// Creates an empty cluster. Its timing model is this module's
    /// constants; [`KubeConfig`] carries nothing.
    pub fn new(sim: &mut Sim, _config: KubeConfig, registry: BehaviorRegistry) -> Self {
        let rng = sim.rng().fork("kube");
        Kube {
            state: Rc::new(RefCell::new(ClusterState {
                rng,
                nodes: BTreeMap::new(),
                pods: BTreeMap::new(),
                pending: BTreeSet::new(),
                sets: BTreeMap::new(),
                jobs: BTreeMap::new(),
                services: BTreeMap::new(),
                policies: Vec::new(),
                next_uid: 0,
                kick_examined: None,
                event_counters: BTreeMap::new(),
                sched_latency: None,
                restart_counter: None,
            })),
            registry,
        }
    }

    /// The behavior registry.
    pub fn registry(&self) -> &BehaviorRegistry {
        &self.registry
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Registers a node.
    pub fn add_node(&self, spec: NodeSpec) {
        let nic = SharedLink::new(spec.nic_bytes_per_sec);
        self.state.borrow_mut().nodes.insert(
            spec.name.clone(),
            Node {
                spec,
                ready: true,
                cordoned: false,
                allocated: Resources::default(),
                images: BTreeSet::new(),
                nic,
            },
        );
    }

    /// Node names (sorted).
    pub fn node_names(&self) -> Vec<String> {
        self.state.borrow().nodes.keys().cloned().collect()
    }

    /// `true` if the node exists and is ready.
    pub fn node_ready(&self, name: &str) -> bool {
        self.state.borrow().nodes.get(name).is_some_and(|n| n.ready)
    }

    /// Allocated resources on a node (diagnostics).
    pub fn node_allocated(&self, name: &str) -> Option<Resources> {
        self.state.borrow().nodes.get(name).map(|n| n.allocated)
    }

    // ------------------------------------------------------------------
    // Events & introspection
    // ------------------------------------------------------------------

    /// A cluster event is a mark on the timeline and a bump of
    /// `kube_events_total{reason}`, and nothing else.
    fn event(&self, sim: &mut Sim, kind: Kind, name: &str, reason: &'static MarkDef) {
        let mut guard = self.state.borrow_mut();
        let s = &mut *guard;
        if sim.trace().is_enabled() {
            // A pod's events go on the timeline of the job it is labelled
            // with, where it has one, and carry the pod's uid.
            let pod = if kind == Kind::Pod {
                s.pods.get(name)
            } else {
                None
            };
            let uid = pod.map_or(0, |pod| pod.uid);
            match pod.and_then(|pod| pod.spec.labels.get("job")) {
                Some(job) => sim.mark(reason, job.as_str(), uid),
                None => {
                    let object = format!("{}/{name}", kind.prefix());
                    sim.mark(reason, object.as_str(), uid);
                }
            }
        }
        s.event_counters
            .entry(reason.what)
            .or_insert_with(|| sim.metrics().counter_series(metrics::EVENTS, [reason.what]))
            .inc();
    }

    /// Always empty. A cluster event is only its timeline mark
    /// (`sim.trace()`) and its `kube_events_total` count; this stays
    /// because the repository's benchmark package reads its length.
    pub fn events(&self) -> [(); 0] {
        []
    }

    /// Current phase of a pod, if it exists.
    pub fn pod_phase(&self, name: &str) -> Option<PodPhase> {
        self.state.borrow().pods.get(name).map(|p| p.phase)
    }

    /// Node a pod is bound to.
    pub fn pod_node(&self, name: &str) -> Option<String> {
        self.state
            .borrow()
            .pods
            .get(name)
            .and_then(|p| p.node.clone())
    }

    /// Restart count of a pod.
    pub fn pod_restarts(&self, name: &str) -> Option<u32> {
        self.state.borrow().pods.get(name).map(|p| p.restarts)
    }

    /// Time the pod most recently entered `Running`, if it is running.
    pub fn pod_started_at(&self, name: &str) -> Option<SimTime> {
        self.state
            .borrow()
            .pods
            .get(name)
            .and_then(|p| p.started_at)
    }

    /// `true` when the pod is running and past its readiness delay.
    pub fn pod_ready(&self, sim: &Sim, name: &str) -> bool {
        self.state
            .borrow()
            .pods
            .get(name)
            .is_some_and(|p| p.is_ready(sim.now()))
    }

    /// Names of pods whose labels match `selector` (sorted).
    pub fn pods_matching(&self, selector: &Labels) -> Vec<String> {
        self.state
            .borrow()
            .pods
            .iter()
            .filter(|(_, p)| selector_matches(selector, &p.spec.labels))
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Lends `(pod name, label value)` of every pod carrying the label
    /// `key` to `visit`, in pod-name order — a periodic checker's view of
    /// which pods exist for whom, without a copy of either.
    pub fn for_each_pod_labelled(&self, key: &str, mut visit: impl FnMut(&str, &str)) {
        for (name, pod) in &self.state.borrow().pods {
            if let Some(value) = pod.spec.labels.get(key) {
                visit(name, value);
            }
        }
    }

    /// Labels of a pod.
    pub fn pod_labels(&self, name: &str) -> Option<Labels> {
        self.state
            .borrow()
            .pods
            .get(name)
            .map(|p| p.spec.labels.clone())
    }

    // ------------------------------------------------------------------
    // Pod lifecycle
    // ------------------------------------------------------------------

    /// Creates a bare pod (no owner). Most callers use controllers instead.
    pub fn create_pod(&self, sim: &mut Sim, spec: PodSpec) {
        self.create_owned_pod(sim, spec, None);
    }

    fn create_owned_pod(&self, sim: &mut Sim, spec: PodSpec, owner: Option<Owner>) {
        let name = spec.name.clone();
        {
            let mut s = self.state.borrow_mut();
            if s.pods.contains_key(&name) {
                drop(s);
                self.event(sim, Kind::Pod, &name, &kube::CREATE_FAILED);
                return;
            }
            s.next_uid += 1;
            let uid = s.next_uid;
            s.pods.insert(
                name.clone(),
                Pod {
                    spec,
                    uid,
                    phase: PodPhase::Pending,
                    node: None,
                    restarts: 0,
                    owner,
                    procs: Vec::new(),
                    exited_ok: BTreeSet::new(),
                    ready_at: None,
                    started_at: None,
                    created_at: sim.now(),
                },
            );
            s.sync_pending(&name);
        }
        self.event(sim, Kind::Pod, &name, &kube::CREATED);
        let me = self.clone();
        sim.defer(move |sim| me.try_schedule(sim, name));
    }

    /// Attempts to bind a Pending pod to a node and begin its start chain.
    fn try_schedule(&self, sim: &mut Sim, name: String) {
        let (uid, delay) = {
            let mut guard = self.state.borrow_mut();
            // Borrow the state struct itself so `pods` and `nodes` can be
            // borrowed simultaneously: the winning node's `&mut` comes
            // straight out of the scheduling scan, with no re-lookup (and
            // no `expect`) after the fact.
            let s = &mut *guard;
            let Some(pod) = s.pods.get_mut(&name) else {
                return;
            };
            if pod.phase != PodPhase::Pending || pod.node.is_some() {
                return;
            }
            let uid = pod.uid;
            let req = pod.spec.resources;
            let want_kind = pod.spec.gpu_kind;
            // Filter: ready, resources fit, GPU kind matches; score: most
            // free CPU (spreads load like the default scheduler).
            let mut best: Option<(&String, &mut Node, u32)> = None;
            for (nname, node) in &mut s.nodes {
                if !node.ready || node.cordoned {
                    continue;
                }
                let free = node.spec.capacity.minus(&node.allocated);
                if !free.fits(&req) {
                    continue;
                }
                if req.gpus > 0 && want_kind.is_some() && node.spec.gpu_kind != want_kind {
                    continue;
                }
                let score = free.cpu_millis;
                if best.as_ref().is_none_or(|(_, _, b)| score > *b) {
                    best = Some((nname, node, score));
                }
            }
            let Some((chosen, node, _)) = best else {
                // Stays Pending; retried when capacity frees up.
                return;
            };
            node.allocated = node.allocated.plus(&req);
            pod.node = Some(chosen.clone());
            let wait = sim.now().saturating_duration_since(pod.created_at);
            s.sched_latency
                .get_or_insert_with(|| {
                    sim.metrics()
                        .histogram_series(metrics::SCHEDULING_LATENCY_SECONDS, [])
                })
                .observe_duration_us(wait.as_micros());
            s.sync_pending(&name);
            (uid, s.jittered(SCHEDULE_DELAY))
        };
        self.event(sim, Kind::Pod, &name, &kube::SCHEDULED);
        let me = self.clone();
        sim.schedule_in(delay, move |sim| me.begin_start(sim, name, uid));
    }

    /// Runs the start chain (pull + setup + mounts + cold start), then
    /// starts the behaviors.
    fn begin_start(&self, sim: &mut Sim, name: String, uid: u64) {
        let total = {
            let mut s = self.state.borrow_mut();
            let Some(pod) = s.pods.get(&name) else { return };
            if pod.uid != uid || pod.phase != PodPhase::Pending {
                return;
            }
            #[expect(
                clippy::expect_used,
                reason = "begin_start is only scheduled by try_schedule after binding, and the uid+phase guard above rejects any later incarnation — an unbound Pending pod here is a scheduler bug worth crashing on"
            )]
            let node_name = pod.node.clone().expect("start requires binding");
            let spec = pod.spec.clone();
            // Image pulls: containers pull in parallel; pay the largest
            // missing image, then mark all cached.
            let mut pull_bytes: u64 = 0;
            {
                #[expect(
                    clippy::expect_used,
                    reason = "pod.node was written by try_schedule from a live entry of s.nodes, and nodes are never removed from the map (drain/cordon flip flags instead)"
                )]
                let node = s.nodes.get_mut(&node_name).expect("bound node");
                for c in &spec.containers {
                    if !node.images.contains(&c.image.name) {
                        pull_bytes = pull_bytes.max(c.image.bytes);
                        node.images.insert(c.image.name.clone());
                    }
                }
            }
            let pull_secs = pull_bytes as f64 / PULL_BYTES_PER_SEC;
            let pull = SimDuration::from_secs_f64(pull_secs);
            // Container creation: base + a size term (big framework images
            // unpack slower even when cached).
            let max_image_bytes = spec
                .containers
                .iter()
                .map(|c| c.image.bytes)
                .max()
                .unwrap_or(0);
            let setup =
                CONTAINER_SETUP + SimDuration::from_secs_f64(max_image_bytes as f64 * 0.25e-9);
            let mounts = VOLUME_MOUNT * spec.volumes.len() as u64;
            let objstore = if spec.binds_object_store {
                OBJSTORE_BIND
            } else {
                SimDuration::ZERO
            };
            let cold = spec
                .containers
                .iter()
                .map(|c| c.cold_start)
                .max()
                .unwrap_or(SimDuration::ZERO);
            let total = s.jittered(pull + setup + mounts + objstore + cold);
            if let Some(p) = s.pods.get_mut(&name) {
                p.phase = PodPhase::Starting;
            }
            s.sync_pending(&name);
            total
        };
        self.event(sim, Kind::Pod, &name, &kube::STARTING);
        let me = self.clone();
        sim.schedule_in(total, move |sim| me.finish_start(sim, name, uid));
    }

    fn finish_start(&self, sim: &mut Sim, name: String, uid: u64) {
        let (containers, node_name, nic) = {
            let mut s = self.state.borrow_mut();
            let Some(pod) = s.pods.get(&name) else { return };
            if pod.uid != uid || pod.phase != PodPhase::Starting {
                return;
            }
            #[expect(
                clippy::expect_used,
                reason = "Starting phase (checked above) is only entered by begin_start after the binding invariant held; losing the binding mid-start is outside the modelled faults"
            )]
            let node_name = pod.node.clone().expect("started pod has node");
            #[expect(
                clippy::expect_used,
                reason = "same invariant as begin_start — node names bound to pods always exist in s.nodes (nodes are flagged, never removed)"
            )]
            let nic = s.nodes.get(&node_name).expect("node").nic.clone();
            let containers = pod.spec.containers.clone();
            let readiness = s.jittered(READINESS_DELAY);
            #[expect(
                clippy::expect_used,
                reason = "re-fetch of the entry matched at the top of this borrow block; `jittered` above needs `&mut s`, forcing the re-lookup, and no path between the two touches s.pods"
            )]
            let pod = s.pods.get_mut(&name).expect("checked");
            pod.phase = PodPhase::Running;
            pod.started_at = Some(sim.now());
            pod.ready_at = Some(sim.now() + readiness);
            pod.exited_ok.clear();
            s.sync_pending(&name);
            (containers, node_name, nic)
        };
        self.event(sim, Kind::Pod, &name, &kube::STARTED);
        // Instantiate behaviors.
        for c in containers {
            let Some(factory) = self.registry.get(&c.behavior) else {
                self.event(sim, Kind::Pod, &name, &kube::BEHAVIOR_MISSING);
                continue;
            };
            let me = self.clone();
            let pod_for_exit = name.clone();
            let cname = c.name.clone();
            let ctx = ProcessCtx::new(
                name.clone(),
                c.name.clone(),
                node_name.clone(),
                uid,
                c.arg.clone(),
                nic.clone(),
                move |sim, code| me.container_exited(sim, pod_for_exit, uid, cname, code),
            );
            let cleanup = factory(sim, ctx.clone());
            let mut s = self.state.borrow_mut();
            if let Some(pod) = s.pods.get_mut(&name) {
                if pod.uid == uid {
                    pod.procs.push((ctx, cleanup));
                }
            }
        }
    }

    /// Kills every process of the pod, then runs each one's cleanup
    /// followed by the releases it registered with
    /// [`ProcessCtx::on_teardown`]. Every stop — voluntary exit, `kill`,
    /// eviction, deletion — comes through here, and taking `procs` makes
    /// it once. Returns true if there was anything to stop.
    fn stop_processes(&self, sim: &mut Sim, name: &str) -> bool {
        let procs = {
            let mut s = self.state.borrow_mut();
            let Some(pod) = s.pods.get_mut(name) else {
                return false;
            };
            std::mem::take(&mut pod.procs)
        };
        for (ctx, _) in &procs {
            ctx.kill();
        }
        let had = !procs.is_empty();
        for (ctx, cleanup) in procs {
            cleanup(sim);
            ctx.run_teardown(sim);
        }
        had
    }

    /// Stops every pod's processes through the one stop path, cleanups
    /// and teardowns included, and leaves each pod where it was: what a
    /// world's end runs (`Sim::at_end`), since a process's exit hook
    /// holds this cluster, which holds the process.
    pub fn stop_every_process(&self, sim: &mut Sim) {
        let pods: Vec<String> = self.state.borrow().pods.keys().cloned().collect();
        for name in pods {
            self.stop_processes(sim, &name);
        }
    }

    fn release_node(&self, name: &str) {
        let mut s = self.state.borrow_mut();
        let Some(pod) = s.pods.get_mut(name) else {
            return;
        };
        let req = pod.spec.resources;
        if let Some(node_name) = pod.node.take() {
            if let Some(node) = s.nodes.get_mut(&node_name) {
                node.allocated = node.allocated.minus(&req);
            }
        }
        s.sync_pending(name);
    }

    /// A container exited voluntarily (via `ProcessCtx::exit`).
    fn container_exited(
        &self,
        sim: &mut Sim,
        name: String,
        uid: u64,
        container: String,
        code: i32,
    ) {
        let decision = {
            let mut s = self.state.borrow_mut();
            let Some(pod) = s.pods.get_mut(&name) else {
                return;
            };
            if pod.uid != uid || pod.phase != PodPhase::Running {
                return;
            }
            if code == 0 {
                pod.exited_ok.insert(container.clone());
                if pod.exited_ok.len() == pod.spec.containers.len() {
                    Some(PodPhase::Succeeded)
                } else {
                    None // other containers still running
                }
            } else {
                Some(PodPhase::Failed)
            }
        };
        self.event(sim, Kind::Pod, &name, &kube::CONTAINER_EXITED);
        match decision {
            None => {}
            Some(PodPhase::Succeeded) => {
                self.stop_processes(sim, &name);
                self.set_phase_and_handle(sim, name, PodPhase::Succeeded);
            }
            Some(_) => {
                self.stop_processes(sim, &name);
                self.set_phase_and_handle(sim, name, PodPhase::Failed);
            }
        }
    }

    fn set_phase_and_handle(&self, sim: &mut Sim, name: String, phase: PodPhase) {
        let (owner, policy, restarts) = {
            let mut s = self.state.borrow_mut();
            let Some(pod) = s.pods.get_mut(&name) else {
                return;
            };
            pod.phase = phase;
            pod.ready_at = None;
            let out = (pod.owner.clone(), pod.spec.restart_policy, pod.restarts);
            s.sync_pending(&name);
            out
        };
        self.event(sim, Kind::Pod, &name, &kube::PHASE_CHANGED);

        match phase {
            PodPhase::Succeeded => {
                self.release_node(&name);
                if let Some(Owner::Job(job)) = owner {
                    let mut s = self.state.borrow_mut();
                    if let Some(j) = s.jobs.get_mut(&job) {
                        j.status = JobStatus::Complete;
                    }
                    drop(s);
                    self.event(sim, Kind::Job, &job, &kube::COMPLETE);
                }
            }
            PodPhase::Failed => {
                let restart = match policy {
                    RestartPolicy::Always => true,
                    RestartPolicy::OnFailure => true,
                    RestartPolicy::Never => false,
                };
                // Job backoff-limit accounting.
                let mut allow = restart;
                if let Some(Owner::Job(job)) = &owner {
                    let mut s = self.state.borrow_mut();
                    if let Some(j) = s.jobs.get_mut(job) {
                        if restarts >= j.backoff_limit {
                            j.status = JobStatus::Failed;
                            allow = false;
                        }
                    }
                    drop(s);
                    if !allow {
                        self.event(sim, Kind::Job, job, &kube::BACKOFF_LIMIT_EXCEEDED);
                        self.release_node(&name);
                        return;
                    }
                }
                if allow {
                    self.restart_in_place(sim, name);
                } else {
                    self.release_node(&name);
                }
            }
            _ => {}
        }
    }

    /// Kubelet in-place restart after a crash: detection + backoff +
    /// container setup on the same node (images cached, volumes mounted).
    fn restart_in_place(&self, sim: &mut Sim, name: String) {
        let (uid, delay) = {
            let mut guard = self.state.borrow_mut();
            // Borrow the state struct so `pods` and `next_uid` can be
            // borrowed simultaneously: one pod lookup, no re-fetch.
            let s = &mut *guard;
            s.restart_counter
                .get_or_insert_with(|| sim.metrics().counter_series(metrics::POD_RESTARTS, []))
                .inc();
            let Some(pod) = s.pods.get_mut(&name) else {
                return;
            };
            pod.restarts += 1;
            pod.phase = PodPhase::Pending; // restart chain re-enters via begin_start
            s.next_uid += 1;
            let uid = s.next_uid;
            pod.uid = uid;
            let n = pod.restarts;
            s.sync_pending(&name);
            let backoff = if n <= 1 {
                SimDuration::ZERO
            } else {
                let exp = (n - 2).min(5);
                (BACKOFF_BASE * 2u64.pow(exp)).min(BACKOFF_CAP)
            };
            let total = s.jittered(CRASH_DETECT + backoff);
            (uid, total)
        };
        self.event(sim, Kind::Pod, &name, &kube::RESTARTING);
        let me = self.clone();
        sim.schedule_in(delay, move |sim| me.begin_start(sim, name, uid));
    }

    // ------------------------------------------------------------------
    // Fault operations (the `kubectl` of the fault injector)
    // ------------------------------------------------------------------

    /// Crashes a pod's processes (machine/OOM/segfault). The kubelet
    /// detects it and restarts in place per policy.
    pub fn crash_pod(&self, sim: &mut Sim, name: &str) -> bool {
        let phase = self.pod_phase(name);
        if !matches!(phase, Some(PodPhase::Running | PodPhase::Starting)) {
            return false;
        }
        self.stop_processes(sim, name);
        self.event(sim, Kind::Pod, name, &kube::CRASHED);
        self.set_phase_and_handle(sim, name.to_owned(), PodPhase::Failed);
        true
    }

    /// Deletes a pod (graceful, `kubectl delete pod`). If a controller
    /// owns it, the controller recreates it through the full scheduling
    /// path. Returns `false` if the pod does not exist.
    pub fn delete_pod(&self, sim: &mut Sim, name: &str) -> bool {
        if self.pod_phase(name).is_none() {
            return false;
        }
        self.stop_processes(sim, name);
        self.release_node(name);
        // While the pod is still there to say whose it was.
        self.event(sim, Kind::Pod, name, &kube::DELETED);
        let owner = {
            let mut s = self.state.borrow_mut();
            let removed = s.pods.remove(name);
            s.sync_pending(name);
            removed.and_then(|pod| pod.owner)
        };
        if let Some(owner) = owner {
            let me = self.clone();
            sim.defer(move |sim| me.reconcile_owner(sim, owner));
        }
        // Capacity freed: maybe a parked pod can now schedule.
        self.kick_pending(sim);
        true
    }

    /// Crashes a node: its pods die now, the control plane notices after
    /// the node-detection grace and replaces owned pods elsewhere.
    pub fn crash_node(&self, sim: &mut Sim, name: &str) -> bool {
        {
            let mut s = self.state.borrow_mut();
            let Some(node) = s.nodes.get_mut(name) else {
                return false;
            };
            if !node.ready {
                return false;
            }
            node.ready = false;
        }
        self.event(sim, Kind::Node, name, &kube::NODE_CRASHED);
        let victims: Vec<String> = {
            let s = self.state.borrow();
            s.pods
                .iter()
                .filter(|(_, p)| p.node.as_deref() == Some(name))
                .map(|(n, _)| n.clone())
                .collect()
        };
        // Processes die immediately…
        for v in &victims {
            self.stop_processes(sim, v);
        }
        // …but the control plane only notices after the grace period.
        let detect = self.state.borrow_mut().jittered(NODE_DETECT);
        let me = self.clone();
        sim.schedule_in(detect, move |sim| {
            for v in victims {
                if me.pod_phase(&v).is_none() {
                    continue;
                }
                me.event(sim, Kind::Pod, &v, &kube::NODE_LOST);
                let owner = {
                    let mut s = me.state.borrow_mut();
                    let removed = s.pods.remove(&v);
                    s.sync_pending(&v);
                    removed.and_then(|pod| pod.owner)
                };
                if let Some(owner) = owner {
                    me.reconcile_owner(sim, owner);
                }
            }
        });
        true
    }

    /// Cordons a node: running pods are untouched, but nothing new is
    /// scheduled onto it (`kubectl cordon`). Returns `false` for unknown
    /// nodes.
    pub fn cordon_node(&self, sim: &mut Sim, name: &str) -> bool {
        {
            let mut s = self.state.borrow_mut();
            let Some(node) = s.nodes.get_mut(name) else {
                return false;
            };
            node.cordoned = true;
        }
        self.event(sim, Kind::Node, name, &kube::CORDONED);
        true
    }

    /// Lifts a cordon (`kubectl uncordon`) and retries parked pods.
    pub fn uncordon_node(&self, sim: &mut Sim, name: &str) -> bool {
        {
            let mut s = self.state.borrow_mut();
            let Some(node) = s.nodes.get_mut(name) else {
                return false;
            };
            node.cordoned = false;
        }
        self.event(sim, Kind::Node, name, &kube::UNCORDONED);
        self.kick_pending(sim);
        true
    }

    /// `true` if the node exists and is cordoned.
    pub fn node_cordoned(&self, name: &str) -> bool {
        self.state
            .borrow()
            .nodes
            .get(name)
            .is_some_and(|n| n.cordoned)
    }

    /// Drains a node for maintenance (`kubectl drain`): cordons it, then
    /// deletes every pod on it so owners recreate them elsewhere. Returns
    /// the names of evicted pods.
    pub fn drain_node(&self, sim: &mut Sim, name: &str) -> Vec<String> {
        if !self.cordon_node(sim, name) {
            return Vec::new();
        }
        let victims: Vec<String> = {
            let s = self.state.borrow();
            s.pods
                .iter()
                .filter(|(_, p)| p.node.as_deref() == Some(name))
                .map(|(n, _)| n.clone())
                .collect()
        };
        for v in &victims {
            self.event(sim, Kind::Pod, v, &kube::EVICTED);
            self.delete_pod(sim, v);
        }
        victims
    }

    /// Brings a crashed node back (empty: its pods were lost).
    pub fn restart_node(&self, sim: &mut Sim, name: &str) -> bool {
        {
            let mut s = self.state.borrow_mut();
            let Some(node) = s.nodes.get_mut(name) else {
                return false;
            };
            node.ready = true;
            node.allocated = Resources::default();
        }
        self.event(sim, Kind::Node, name, &kube::NODE_READY);
        self.kick_pending(sim);
        true
    }

    /// Retries every parked pod. Reads the incrementally-maintained
    /// pending queue instead of rescanning the whole pod table, so the
    /// work here is proportional to the number of pods actually waiting.
    fn kick_pending(&self, sim: &mut Sim) {
        let pending: Vec<String> = {
            let s = self.state.borrow();
            s.pending.iter().cloned().collect()
        };
        self.state
            .borrow_mut()
            .kick_examined
            .get_or_insert_with(|| {
                sim.metrics()
                    .histogram_series(metrics::KICK_PENDING_EXAMINED, [])
            })
            .observe(pending.len() as f64);
        for name in pending {
            let me = self.clone();
            sim.defer(move |sim| me.try_schedule(sim, name));
        }
    }

    /// The incrementally-maintained pending queue (sorted pod names).
    /// Exposed for tests that check it against [`Self::pending_queue_scan`].
    pub fn pending_queue(&self) -> Vec<String> {
        self.state.borrow().pending.iter().cloned().collect()
    }

    /// From-scratch recomputation of what the pending queue must contain:
    /// every pod that is `Pending` with no node binding, in name order.
    pub fn pending_queue_scan(&self) -> Vec<String> {
        let s = self.state.borrow();
        s.pods
            .iter()
            .filter(|(_, p)| p.phase == PodPhase::Pending && p.node.is_none())
            .map(|(n, _)| n.clone())
            .collect()
    }

    // ------------------------------------------------------------------
    // Controllers
    // ------------------------------------------------------------------

    fn reconcile_owner(&self, sim: &mut Sim, owner: Owner) {
        match owner {
            Owner::Set(key) => self.reconcile_set(sim, key),
            Owner::Job(name) => self.reconcile_job(sim, &name),
        }
    }

    /// Creates a Deployment: `replicas` pods named `{name}-{i}` kept alive.
    pub fn create_deployment(&self, sim: &mut Sim, name: &str, replicas: u32, template: PodSpec) {
        self.create_set(sim, Kind::Deployment, name, replicas, template);
    }

    /// Creates a StatefulSet: `replicas` pods with stable ordinal
    /// identities `{name}-{i}` (parallel pod management).
    pub fn create_statefulset(&self, sim: &mut Sim, name: &str, replicas: u32, template: PodSpec) {
        self.create_set(sim, Kind::StatefulSet, name, replicas, template);
    }

    fn create_set(&self, sim: &mut Sim, kind: Kind, name: &str, replicas: u32, template: PodSpec) {
        let key = (kind, name.to_owned());
        let set = ReplicaSet { replicas, template };
        self.state.borrow_mut().sets.insert(key.clone(), set);
        self.event(sim, kind, name, &kube::CREATED);
        self.reconcile_set(sim, key);
    }

    /// Creates every missing replica of a set, a StatefulSet's labelled
    /// with its ordinal.
    fn reconcile_set(&self, sim: &mut Sim, key: SetKey) {
        let missing: Vec<PodSpec> = {
            let s = self.state.borrow();
            let Some(set) = s.sets.get(&key) else {
                return;
            };
            let (kind, name) = &key;
            (0..set.replicas)
                .map(|i| (i, format!("{name}-{i}")))
                .filter(|(_, pname)| !s.pods.contains_key(pname))
                .map(|(i, pname)| {
                    let mut spec = set.template.clone();
                    spec.name = pname;
                    if *kind == Kind::StatefulSet {
                        spec.labels.insert("ordinal".to_owned(), i.to_string());
                    }
                    spec
                })
                .collect()
        };
        for spec in missing {
            self.create_owned_pod(sim, spec, Some(Owner::Set(key.clone())));
        }
    }

    /// Scales a Deployment up or down.
    pub fn scale_deployment(&self, sim: &mut Sim, name: &str, replicas: u32) {
        let key = (Kind::Deployment, name.to_owned());
        let old = {
            let mut s = self.state.borrow_mut();
            let Some(set) = s.sets.get_mut(&key) else {
                return;
            };
            std::mem::replace(&mut set.replicas, replicas)
        };
        for i in replicas..old {
            self.delete_orphan(sim, &format!("{name}-{i}"));
        }
        self.reconcile_set(sim, key);
    }

    /// Deletes a Deployment and its pods.
    pub fn delete_deployment(&self, sim: &mut Sim, name: &str) {
        self.delete_set(sim, Kind::Deployment, name);
    }

    /// Deletes a StatefulSet and its pods.
    pub fn delete_statefulset(&self, sim: &mut Sim, name: &str) {
        self.delete_set(sim, Kind::StatefulSet, name);
    }

    fn delete_set(&self, sim: &mut Sim, kind: Kind, name: &str) {
        let set = self
            .state
            .borrow_mut()
            .sets
            .remove(&(kind, name.to_owned()));
        if let Some(set) = set {
            for i in 0..set.replicas {
                self.delete_orphan(sim, &format!("{name}-{i}"));
            }
            self.event(sim, kind, name, &kube::DELETED);
        }
    }

    /// Removes a pod without triggering its owner (used when the owner
    /// itself is being deleted or scaled down).
    fn delete_orphan(&self, sim: &mut Sim, name: &str) {
        if self.pod_phase(name).is_none() {
            return;
        }
        self.stop_processes(sim, name);
        self.release_node(name);
        self.event(sim, Kind::Pod, name, &kube::DELETED);
        {
            let mut s = self.state.borrow_mut();
            s.pods.remove(name);
            s.sync_pending(name);
        }
        self.kick_pending(sim);
    }

    /// Creates a Kubernetes Job: one pod, restarted in place on failure up
    /// to `backoff_limit` times, then marked failed.
    pub fn create_job(&self, sim: &mut Sim, name: &str, backoff_limit: u32, mut template: PodSpec) {
        template.name = name.to_owned();
        template.restart_policy = RestartPolicy::OnFailure;
        self.state.borrow_mut().jobs.insert(
            name.to_owned(),
            JobState {
                template: template.clone(),
                backoff_limit,
                status: JobStatus::Active,
            },
        );
        self.event(sim, Kind::Job, name, &kube::CREATED);
        self.create_owned_pod(sim, template, Some(Owner::Job(name.to_owned())));
    }

    fn reconcile_job(&self, sim: &mut Sim, name: &str) {
        // Pod was deleted (e.g. node lost): recreate unless finished.
        let template = {
            let s = self.state.borrow();
            match s.jobs.get(name) {
                Some(j) if j.status == JobStatus::Active && !s.pods.contains_key(name) => {
                    Some(j.template.clone())
                }
                _ => None,
            }
        };
        if let Some(t) = template {
            self.create_owned_pod(sim, t, Some(Owner::Job(name.to_owned())));
        }
    }

    /// Status of a Job.
    pub fn job_status(&self, name: &str) -> Option<JobStatus> {
        self.state.borrow().jobs.get(name).map(|j| j.status)
    }

    /// Deletes a Job and its pod.
    pub fn delete_job(&self, sim: &mut Sim, name: &str) {
        if self.state.borrow_mut().jobs.remove(name).is_some() {
            self.delete_orphan(sim, name);
            self.event(sim, Kind::Job, name, &kube::DELETED);
        }
    }

    // ------------------------------------------------------------------
    // Services & network policies
    // ------------------------------------------------------------------

    /// Creates a Service selecting pods by label; resolution load-balances
    /// round-robin over ready pods.
    pub fn create_service(&self, sim: &mut Sim, name: &str, selector: Labels) {
        self.state.borrow_mut().services.insert(
            name.to_owned(),
            ServiceState {
                selector,
                cursor: 0,
            },
        );
        self.event(sim, Kind::Service, name, &kube::CREATED);
    }

    /// Resolves a service to a ready endpoint (round robin), if any.
    pub fn resolve_service(&self, sim: &Sim, name: &str) -> Option<Addr> {
        let mut s = self.state.borrow_mut();
        let now = sim.now();
        let (selector, cursor) = {
            let svc = s.services.get(name)?;
            (svc.selector.clone(), svc.cursor)
        };
        let ready: Vec<String> = s
            .pods
            .iter()
            .filter(|(_, p)| selector_matches(&selector, &p.spec.labels) && p.is_ready(now))
            .map(|(n, _)| n.clone())
            .collect();
        if ready.is_empty() {
            return None;
        }
        let pick = ready[cursor % ready.len()].clone();
        if let Some(svc) = s.services.get_mut(name) {
            svc.cursor = cursor.wrapping_add(1);
        }
        Some(pod_addr(&pick))
    }

    /// Where the attempts of a call to service `name` go
    /// ([`dlaas_net::Retry::send`]): resolved as each starts.
    pub fn service_resolver(&self, name: impl Into<String>) -> Resolver {
        let me = self.clone();
        let name = name.into();
        Rc::new(move |sim| {
            let addr = me.resolve_service(sim, &name);
            addr.ok_or_else(|| RpcError::NoEndpoint(name.clone()))
        })
    }

    /// Installs a deny policy.
    pub fn add_network_policy(&self, policy: NetworkPolicy) {
        self.state.borrow_mut().policies.push(policy);
    }

    /// Names of all installed policies, sorted and deduplicated (a job
    /// installs several policies under one name; leak diagnostics only
    /// care about the names).
    pub fn network_policy_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .state
            .borrow()
            .policies
            .iter()
            .map(|p| p.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Lends the name of every network policy to `visit`, in creation
    /// order (a name installed twice is visited twice).
    pub fn for_each_network_policy(&self, mut visit: impl FnMut(&str)) {
        for policy in &self.state.borrow().policies {
            visit(&policy.name);
        }
    }

    /// Removes policies by name. Returns how many were removed.
    pub fn remove_network_policy(&self, name: &str) -> usize {
        let mut s = self.state.borrow_mut();
        let before = s.policies.len();
        s.policies.retain(|p| p.name != name);
        before - s.policies.len()
    }

    /// `true` unless a deny policy forbids `from_pod` reaching the target
    /// (a pod, a service, or both sides of the check).
    pub fn traffic_allowed(
        &self,
        from_pod: &str,
        to_pod: Option<&str>,
        to_service: Option<&str>,
    ) -> bool {
        let s = self.state.borrow();
        let Some(from) = s.pods.get(from_pod) else {
            return true; // unknown source: not subject to pod policies
        };
        for p in &s.policies {
            if !selector_matches(&p.from, &from.spec.labels) {
                continue;
            }
            if let Some(svc) = to_service {
                if p.to_services.iter().any(|x| x == svc) {
                    return false;
                }
            }
            if let Some(tp) = to_pod {
                if let Some(target) = s.pods.get(tp) {
                    if !p.to.is_empty() && selector_matches(&p.to, &target.spec.labels) {
                        let exempt = p.exempt_same.as_ref().is_some_and(|key| {
                            match (from.spec.labels.get(key), target.spec.labels.get(key)) {
                                (Some(a), Some(b)) => a == b,
                                _ => false,
                            }
                        });
                        if !exempt {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}
