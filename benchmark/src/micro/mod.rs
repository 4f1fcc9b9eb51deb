//! Substrate micro drivers: each exercises one substrate alone on a bare
//! `Sim`, through its public functions, and reports reference-normalised
//! host nanoseconds per operation.
//!
//! They exist so a layer can be measured without the platform on top,
//! and so that `Σ ops × micro_ns` — with the op counts the platform run
//! recorded — can be held against the platform run's host time as an
//! outside-in estimate of each layer's share. The estimate is rough (the
//! platform's events carry closures, strings and cache misses no micro
//! driver reproduces) and the remainder is printed, not hidden.

mod substrates;

use crate::harness::{Harness, PhaseTime};
use crate::run::OpCounts;

/// One micro driver's result.
pub struct Micro {
    /// Per-layer metric name.
    pub name: &'static str,
    /// Reference-normalised host nanoseconds per operation.
    pub ns_per_op: f64,
    /// How many such operations the platform run recorded.
    pub ops: f64,
    /// Its operations are part of another driver's (an etcd put contains
    /// its Raft commit, its RPCs and their kernel events), so it is
    /// reported but left out of the sum held against the platform run.
    pub contained: bool,
}

/// Times `body` (which performs `batch` operations, followed by its
/// reference work) `ROUNDS` times and returns normalised ns per op.
fn drive(h: &mut Harness, span: &str, batch: u64, mut body: impl FnMut()) -> f64 {
    const ROUNDS: u64 = 3;
    let mut t = PhaseTime::default();
    let s = h.open(span);
    for _ in 0..ROUNDS {
        h.time(&mut t, "batch", &mut body);
    }
    h.close(s);
    t.normalised_s() * 1e9 / (batch * ROUNDS) as f64
}

/// Runs every micro driver.
pub fn run_all(ops: &OpCounts, h: &mut Harness) -> Vec<Micro> {
    use substrates::*;
    vec![
        Micro {
            name: "sim.micro_ns_per_event",
            ns_per_op: drive(h, "sim", SIM_BATCH, sim_churn),
            ops: ops.sim_events,
            contained: true,
        },
        Micro {
            name: "net.micro_ns_per_rpc",
            ns_per_op: drive(h, "net", RPC_BATCH, rpc_echo),
            ops: ops.rpc_calls,
            contained: true,
        },
        Micro {
            name: "raft.micro_ns_per_commit",
            ns_per_op: drive(h, "raft", RAFT_BATCH, raft_commits),
            ops: ops.raft_commits,
            contained: true,
        },
        Micro {
            name: "etcd.micro_ns_per_put",
            ns_per_op: drive(h, "etcd", ETCD_BATCH, etcd_puts),
            ops: ops.etcd_puts,
            contained: false,
        },
        Micro {
            name: "docstore.micro_ns_per_update",
            ns_per_op: drive(h, "docstore.update", DOC_BATCH, docstore_updates()),
            ops: ops.docstore_updates,
            contained: false,
        },
        Micro {
            name: "docstore.micro_ns_per_find",
            ns_per_op: drive(h, "docstore.find", DOC_BATCH, docstore_finds()),
            ops: ops.docstore_finds + ops.docstore_sweeps,
            contained: false,
        },
        Micro {
            name: "kube.micro_ns_per_pod_schedule",
            ns_per_op: drive(h, "kube", KUBE_BATCH, kube_schedule),
            ops: ops.kube_pods,
            contained: false,
        },
        Micro {
            name: "obs.micro_ns_per_handle_inc",
            ns_per_op: drive(h, "obs", OBS_BATCH, obs_incs()),
            ops: ops.obs_incs,
            contained: false,
        },
    ]
}
