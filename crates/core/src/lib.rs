//! # dlaas-core — the DLaaS platform
//!
//! A faithful reproduction of the orchestration system described in
//! *“Dependability in a Multi-tenant Multi-framework Deep Learning
//! as-a-Service Platform”* (Boag et al., DSN 2018): the IBM DLaaS control
//! plane, rebuilt in Rust over simulated substrates (Kubernetes, etcd on
//! Raft, a journaled document store, NFS, a cloud object store and a GPU
//! performance model).
//!
//! The layering follows the paper's Figure 1:
//!
//! * **Core services** — the API service (durable
//!   submission, auth, metering) and the LCM (deployment, GC,
//!   termination), both as Kubernetes Deployments behind Services;
//! * **Per-job components** — the *Guardian* (a Kubernetes Job providing
//!   atomic deployment with rollback-and-retry) and the *helper pod*
//!   (controller, load-data, log-collector, store-results) sharing an NFS
//!   volume with the learners;
//! * **Learners** — framework containers in a StatefulSet, training at a
//!   modelled rate, checkpointing to the object store, restarted by
//!   Kubernetes after crashes.
//!
//! # Examples
//!
//! ```no_run
//! use dlaas_core::{DlaasPlatform, JobStatus, Tenant, TrainingManifest};
//! use dlaas_gpu::{DlModel, Framework, GpuKind};
//! use dlaas_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(42);
//! let platform = DlaasPlatform::bootstrapped(&mut sim);
//! platform.add_tenant(&Tenant::new("acme", "key-1", 16)).expect("bootstrap tenant insert");
//! platform.seed_dataset("acme-data", "imagenet/", 20_000_000_000);
//! platform.create_bucket("acme-results");
//!
//! let manifest = TrainingManifest::builder("demo")
//!     .framework(Framework::TensorFlow)
//!     .model(DlModel::Resnet50)
//!     .gpus(GpuKind::K80, 1)
//!     .data("acme-data", "imagenet/", 20_000_000_000)
//!     .results("acme-results")
//!     .iterations(1_000)
//!     .build()?;
//!
//! let client = platform.client("alice", "key-1");
//! client.submit(&mut sim, manifest, |_sim, r| { r.unwrap(); });
//! sim.run_for(SimDuration::from_hours(2));
//! # Ok::<(), dlaas_core::ManifestError>(())
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

mod api;
mod client;
pub mod config;
pub mod fairness;
mod guardian;
mod handles;
mod helper;
pub mod invariants;
mod job;
mod lcm;
mod learner;
mod manifest;
pub mod marks;
pub mod metrics;
mod mongo;
pub mod ownership;
pub mod paths;
mod platform;
mod proto;
pub mod publisher;
mod tenant;

pub use client::{ClientError, DlaasClient};
pub use config::CoreConfig;
pub use handles::{EtcdView, Handles, API_SERVICE, LCM_SERVICE};
pub use invariants::{
    check_all as check_invariants, InvariantBounds, InvariantMonitor, InvariantReport,
    InvariantViolation,
};
pub use job::{JobId, JobStatus, LearnerPhase, ParseStatusError};
pub use manifest::{ManifestError, TrainingManifest, TrainingManifestBuilder};
pub use mongo::{MetaClient, MetaError, JOBS, TENANTS};
pub use ownership::{OwnershipConflict, ShardTracker};
pub use platform::{DlaasPlatform, GpuNodeSpec, PlatformConfig};
pub use proto::{CoreRequest, CoreResponse, CoreRpc, JobInfo};
pub use tenant::Tenant;
