//! # dlaas-kube — simulated Kubernetes
//!
//! DLaaS "employs Kubernetes for container orchestration and cluster
//! management" (paper §III-b) and leans on specific K8s semantics for its
//! dependability guarantees:
//!
//! * **K8s Jobs** run the per-training-job *Guardian* — "tasks that K8s
//!   guarantees to reliably run to completion", restarted automatically on
//!   any failure (§III-d, atomic deployment),
//! * **StatefulSets** run the learners — crashed learners are restarted
//!   with stable identities (§III-e, §III-h),
//! * **Deployments** run the core services and the per-job helper pod,
//! * **Services** give the API layer load balancing and fail-over,
//! * **NetworkPolicies** isolate learners (arbitrary customer code) from
//!   platform services and from other tenants (§II).
//!
//! This crate implements those semantics over the discrete-event kernel:
//! a GPU-aware scheduler with an incrementally-maintained pending-pod
//! queue (capacity changes retry only the pods actually waiting, never a
//! full pod-table rescan), per-node image caches with pull times, pod
//! start chains (mounts, object-store binding, cold start, readiness),
//! kubelet in-place restarts with crash-loop backoff, controller-driven
//! pod replacement, and fault operations (`crash_pod`, `delete_pod`,
//! `crash_node`) mirroring what the paper did with `kubectl` to produce
//! Fig. 4.
//!
//! # Examples
//!
//! ```
//! use dlaas_kube::{labels, BehaviorRegistry, ContainerSpec, ImageRef, Kube, KubeConfig,
//!                  NodeSpec, PodPhase, PodSpec};
//! use dlaas_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(7);
//! let registry = BehaviorRegistry::new();
//! registry.register_noop("pause");
//!
//! let kube = Kube::new(&mut sim, KubeConfig, registry);
//! kube.add_node(NodeSpec::cpu("node-1", 8000, 32768));
//!
//! let pod = PodSpec::new(
//!     "web-0",
//!     ContainerSpec::new("main", ImageRef::microservice("web"), "pause"),
//! );
//! kube.create_pod(&mut sim, pod);
//! sim.run_for(SimDuration::from_secs(10));
//! assert_eq!(kube.pod_phase("web-0"), Some(PodPhase::Running));
//! ```

// No unmodelled crash, no silently dropped error (DESIGN.md §7): a panic
// here is a platform process dying outside the fault vocabulary, a
// discarded `Result` a recovery error nobody can attribute.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]
// Library code stays quiet and inside the simulation (DESIGN.md §7).
#![warn(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::exit
)]
#![warn(missing_docs)]

mod cluster;
pub mod marks;
pub mod metrics;
mod process;
mod types;

pub use cluster::{pod_addr, JobStatus, Kube, NetworkPolicy};
pub use process::{BehaviorFactory, BehaviorRegistry, Cleanup, ProcessCtx};
pub use types::{
    selector_matches, ContainerSpec, ImageRef, KubeConfig, Labels, NodeSpec, PodPhase, PodSpec,
    Resources, RestartPolicy,
};
