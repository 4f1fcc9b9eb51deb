//! The metrics `dlaas-kube` emits, declared once.

use dlaas_sim::{count_buckets, CounterDecl, HistogramDecl};

dlaas_sim::declare_metrics! {
    /// Cluster events recorded, by reason (`Scheduled`, `Started`, `Killing`, …).
    pub const EVENTS: &CounterDecl<1> = &CounterDecl::new(
        "kube_events_total",
        ["reason"],
        "cluster events recorded, by reason",
    );
    /// Kubelet in-place container restarts after a crash.
    pub const POD_RESTARTS: &CounterDecl<0> = &CounterDecl::new(
        "kube_pod_restarts_total",
        [],
        "kubelet in-place restarts after a crash",
    );
    /// Seconds from pod creation to its binding to a node.
    pub const SCHEDULING_LATENCY_SECONDS: &HistogramDecl<0> = &HistogramDecl::new(
        "kube_scheduling_latency_seconds",
        [],
        "seconds from pod creation to node binding",
    );
    /// Pods examined per scheduler kick of the pending queue (work count).
    pub const KICK_PENDING_EXAMINED: &HistogramDecl<0> = &HistogramDecl::new(
        "kube_kick_pending_examined",
        [],
        "pods examined per scheduler kick of the pending queue",
    )
    .with_buckets(count_buckets());
}
