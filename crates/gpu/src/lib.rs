//! # dlaas-gpu — GPU & training performance model
//!
//! Stand-in for the hardware the paper evaluates on (K80 and P100 PCIe
//! servers on IBM Cloud, and an NVLink DGX-1) and for the Caffe/TensorFlow
//! training loops. Everything the platform needs is a *rate*: how many
//! images/sec a given (model, framework, GPU, topology) combination
//! sustains under a given execution environment — bare metal, or
//! containerized inside DLaaS with helpers sharing the node and data
//! streaming over 1 GbE.
//!
//! See [`images_per_sec`] for the model and its calibration sources.
//!
//! # Examples
//!
//! ```
//! use dlaas_gpu::{images_per_sec, DlModel, ExecEnv, Framework, GpuKind, TrainingConfig};
//!
//! let cfg = TrainingConfig::new(DlModel::Resnet50, Framework::TensorFlow, GpuKind::P100Pcie, 2);
//! let bare = images_per_sec(&cfg, &ExecEnv::bare_metal());
//! let dlaas = images_per_sec(&cfg, &ExecEnv::dlaas(0.117e9, 0.01));
//! assert!(dlaas < bare);               // the platform costs something…
//! assert!(dlaas > bare * 0.9);         // …but not much (Fig. 2's point)
//! ```

// Library code stays quiet and inside the simulation (DESIGN.md §7).
#![warn(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::exit
)]
#![warn(missing_docs)]

mod devices;
mod models;
mod throughput;

pub use devices::{GpuKind, Interconnect, ParseGpuKindError};
pub use models::{DlModel, Framework, ParseFrameworkError, ParseModelError};
pub use throughput::{
    checkpoint_bytes, images_per_sec, step_time_secs, ExecEnv, TrainingConfig, CONTAINER_FACTOR,
};
