//! Kubernetes object specifications, lifecycle phases and timing config.

use std::collections::BTreeMap;

use dlaas_gpu::GpuKind;
use dlaas_sim::SimDuration;

/// Label set used by selectors (Kubernetes labels).
pub type Labels = BTreeMap<String, String>;

/// Builds a [`Labels`] map from `key => value` pairs.
#[macro_export]
macro_rules! labels {
    () => { std::collections::BTreeMap::new() };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {{
        let mut m: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
        $( m.insert(String::from($k), String::from($v)); )+
        m
    }};
}

/// Returns `true` when every entry of `selector` appears in `labels`.
pub fn selector_matches(selector: &Labels, labels: &Labels) -> bool {
    selector
        .iter()
        .all(|(k, v)| labels.get(k).is_some_and(|x| x == v))
}

/// Resources a pod requests / a node offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources {
    /// CPU in millicores.
    pub cpu_millis: u32,
    /// Memory in MiB.
    pub mem_mib: u32,
    /// Number of GPUs.
    pub gpus: u32,
}

impl Resources {
    /// Resource bundle.
    pub fn new(cpu_millis: u32, mem_mib: u32, gpus: u32) -> Self {
        Resources {
            cpu_millis,
            mem_mib,
            gpus,
        }
    }

    /// `true` when `other` fits inside what remains of `self`.
    pub fn fits(&self, other: &Resources) -> bool {
        self.cpu_millis >= other.cpu_millis
            && self.mem_mib >= other.mem_mib
            && self.gpus >= other.gpus
    }

    /// Component-wise addition.
    pub fn plus(&self, other: &Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis + other.cpu_millis,
            mem_mib: self.mem_mib + other.mem_mib,
            gpus: self.gpus + other.gpus,
        }
    }

    /// Component-wise saturating subtraction.
    pub fn minus(&self, other: &Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis.saturating_sub(other.cpu_millis),
            mem_mib: self.mem_mib.saturating_sub(other.mem_mib),
            gpus: self.gpus.saturating_sub(other.gpus),
        }
    }
}

/// A cluster node's hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Node name (unique).
    pub name: String,
    /// Allocatable resources.
    pub capacity: Resources,
    /// Kind of the node's GPUs (all GPUs on a node are uniform, as in the
    /// paper's testbed).
    pub gpu_kind: Option<GpuKind>,
    /// NIC bandwidth in bytes/sec (1 GbE in the paper's clusters).
    pub nic_bytes_per_sec: f64,
}

impl NodeSpec {
    /// A CPU-only node for platform services.
    pub fn cpu(name: impl Into<String>, cpu_millis: u32, mem_mib: u32) -> Self {
        NodeSpec {
            name: name.into(),
            capacity: Resources::new(cpu_millis, mem_mib, 0),
            gpu_kind: None,
            nic_bytes_per_sec: 0.117e9,
        }
    }

    /// A GPU node.
    pub fn gpu(
        name: impl Into<String>,
        cpu_millis: u32,
        mem_mib: u32,
        gpus: u32,
        kind: GpuKind,
    ) -> Self {
        NodeSpec {
            name: name.into(),
            capacity: Resources::new(cpu_millis, mem_mib, gpus),
            gpu_kind: Some(kind),
            nic_bytes_per_sec: 0.117e9,
        }
    }
}

/// A container image reference with its (pull-relevant) size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ImageRef {
    /// Image name, e.g. `"dlaas/api:v1"` or `"dlaas/tensorflow:1.5"`.
    pub name: String,
    /// Compressed size in bytes (drives pull time).
    pub bytes: u64,
}

impl ImageRef {
    /// An image reference.
    pub fn new(name: impl Into<String>, bytes: u64) -> Self {
        ImageRef {
            name: name.into(),
            bytes,
        }
    }

    /// A small Go-binary microservice image (the DLaaS core services).
    pub fn microservice(name: impl Into<String>) -> Self {
        Self::new(name, 180_000_000)
    }
}

/// One container within a pod.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerSpec {
    /// Container name, unique within the pod.
    pub name: String,
    /// Image to run.
    pub image: ImageRef,
    /// Name of the registered behavior to instantiate when the container
    /// starts (see `BehaviorRegistry`), with an opaque argument string.
    pub behavior: String,
    /// Argument passed to the behavior factory (e.g. a job id).
    pub arg: String,
    /// Extra process start delay beyond image/container setup (e.g.
    /// framework + CUDA initialization for learners).
    pub cold_start: SimDuration,
}

impl ContainerSpec {
    /// A container running a registered behavior.
    pub fn new(name: impl Into<String>, image: ImageRef, behavior: impl Into<String>) -> Self {
        ContainerSpec {
            name: name.into(),
            image,
            behavior: behavior.into(),
            arg: String::new(),
            cold_start: SimDuration::ZERO,
        }
    }

    /// Sets the behavior argument.
    pub fn with_arg(mut self, arg: impl Into<String>) -> Self {
        self.arg = arg.into();
        self
    }

    /// Sets the cold-start delay.
    pub fn with_cold_start(mut self, d: SimDuration) -> Self {
        self.cold_start = d;
        self
    }
}

/// What the kubelet does when a pod's process exits or crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// Always restart (Deployments, StatefulSets).
    #[default]
    Always,
    /// Restart only on failure (Jobs).
    OnFailure,
    /// Never restart.
    Never,
}

/// A pod specification (the template controllers stamp out).
#[derive(Debug, Clone, PartialEq)]
pub struct PodSpec {
    /// Pod name (unique in the cluster).
    pub name: String,
    /// Labels (matched by services and controllers).
    pub labels: Labels,
    /// Containers to run (all share fate: one crash fails the pod).
    pub containers: Vec<ContainerSpec>,
    /// Resources requested (scheduling unit is the whole pod).
    pub resources: Resources,
    /// Kind of GPU required, when `resources.gpus > 0`.
    pub gpu_kind: Option<GpuKind>,
    /// Names of shared volumes to mount at start (each adds mount time).
    pub volumes: Vec<String>,
    /// Whether the pod binds cloud-object-store credentials at start
    /// (learners do; adds significant start latency — see Fig. 4).
    pub binds_object_store: bool,
    /// Restart policy.
    pub restart_policy: RestartPolicy,
}

impl PodSpec {
    /// A minimal pod with one container and default resources.
    pub fn new(name: impl Into<String>, container: ContainerSpec) -> Self {
        PodSpec {
            name: name.into(),
            labels: Labels::new(),
            containers: vec![container],
            resources: Resources::new(500, 512, 0),
            gpu_kind: None,
            volumes: Vec::new(),
            binds_object_store: false,
            restart_policy: RestartPolicy::Always,
        }
    }

    /// Adds labels.
    pub fn with_labels(mut self, labels: Labels) -> Self {
        self.labels.extend(labels);
        self
    }

    /// Adds a container.
    pub fn with_container(mut self, c: ContainerSpec) -> Self {
        self.containers.push(c);
        self
    }

    /// Sets resource requests.
    pub fn with_resources(mut self, r: Resources, gpu_kind: Option<GpuKind>) -> Self {
        self.resources = r;
        self.gpu_kind = gpu_kind;
        self
    }

    /// Mounts a shared volume.
    pub fn with_volume(mut self, name: impl Into<String>) -> Self {
        self.volumes.push(name.into());
        self
    }

    /// Marks the pod as binding object-store credentials at start.
    pub fn with_object_store_binding(mut self) -> Self {
        self.binds_object_store = true;
        self
    }

    /// Sets the restart policy.
    pub fn with_restart_policy(mut self, p: RestartPolicy) -> Self {
        self.restart_policy = p;
        self
    }
}

/// Pod lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PodPhase {
    /// Accepted, not yet bound to a node.
    Pending,
    /// Bound to a node; images pulling / containers creating.
    Starting,
    /// All containers running.
    Running,
    /// Exited with code 0.
    Succeeded,
    /// Crashed or exited non-zero; may be restarted by policy.
    Failed,
    /// Deleted.
    Terminated,
}

impl std::fmt::Display for PodPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PodPhase::Pending => "Pending",
            PodPhase::Starting => "Starting",
            PodPhase::Running => "Running",
            PodPhase::Succeeded => "Succeeded",
            PodPhase::Failed => "Failed",
            PodPhase::Terminated => "Terminated",
        };
        f.write_str(s)
    }
}

/// What [`crate::Kube::new`] takes. It carries nothing: the cluster's
/// timing model is a set of constants, which no deployment varies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KubeConfig;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_macro_and_selector() {
        let l = labels! {"app" => "api", "tier" => "core"};
        assert!(selector_matches(&labels! {"app" => "api"}, &l));
        assert!(selector_matches(&Labels::new(), &l));
        assert!(!selector_matches(&labels! {"app" => "lcm"}, &l));
        assert!(!selector_matches(&labels! {"zone" => "a"}, &l));
    }

    #[test]
    fn resource_arithmetic() {
        let cap = Resources::new(4000, 16384, 4);
        let req = Resources::new(1000, 2048, 2);
        assert!(cap.fits(&req));
        let rem = cap.minus(&req);
        assert_eq!(rem, Resources::new(3000, 14336, 2));
        assert!(rem.fits(&req));
        assert!(!rem.minus(&req).fits(&req));
        assert_eq!(req.plus(&req), Resources::new(2000, 4096, 4));
        // Saturating subtraction never underflows.
        assert_eq!(req.minus(&cap), Resources::new(0, 0, 0));
    }

    #[test]
    fn node_constructors() {
        let n = NodeSpec::cpu("svc-1", 8000, 32768);
        assert_eq!(n.capacity.gpus, 0);
        assert!(n.gpu_kind.is_none());
        let g = NodeSpec::gpu("gpu-1", 16000, 131072, 4, GpuKind::K80);
        assert_eq!(g.capacity.gpus, 4);
        assert_eq!(g.gpu_kind, Some(GpuKind::K80));
    }

    #[test]
    fn pod_spec_builder() {
        let spec = PodSpec::new(
            "learner-0",
            ContainerSpec::new("main", ImageRef::new("tf", 3_800_000_000), "learner")
                .with_arg("job-1")
                .with_cold_start(SimDuration::from_secs(5)),
        )
        .with_labels(labels! {"job" => "job-1"})
        .with_resources(Resources::new(4000, 16384, 2), Some(GpuKind::K80))
        .with_volume("job-1-vol")
        .with_object_store_binding()
        .with_restart_policy(RestartPolicy::OnFailure);

        assert_eq!(spec.containers.len(), 1);
        assert_eq!(spec.containers[0].arg, "job-1");
        assert_eq!(spec.resources.gpus, 2);
        assert!(spec.binds_object_store);
        assert_eq!(spec.restart_policy, RestartPolicy::OnFailure);
        assert_eq!(spec.volumes, vec!["job-1-vol"]);
    }

    #[test]
    fn image_sizes() {
        assert!(ImageRef::microservice("dlaas/api").bytes < 1_000_000_000);
    }

    #[test]
    fn phase_display() {
        assert_eq!(PodPhase::Running.to_string(), "Running");
        assert_eq!(PodPhase::Pending.to_string(), "Pending");
    }
}
