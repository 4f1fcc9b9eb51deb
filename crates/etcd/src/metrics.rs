//! The metrics `dlaas-etcd` emits, declared once.

use dlaas_sim::{count_buckets, CounterDecl, HistogramDecl};

dlaas_sim::declare_metrics! {
    /// Commands proposed to Raft, by op (`put`, `cas`, `lease_grant`, …).
    pub const PROPOSALS: &CounterDecl<1> = &CounterDecl::new(
        "etcd_proposals_total",
        ["op"],
        "commands proposed to raft, by op",
    );
    /// Linearizable reads served by the leader (one ReadIndex round each).
    pub const READS: &CounterDecl<0> =
        &CounterDecl::new("etcd_reads_total", [], "linearizable reads served");
    /// Key events delivered to watchers.
    pub const WATCH_EVENTS: &CounterDecl<0> = &CounterDecl::new(
        "etcd_watch_events_total",
        [],
        "key events delivered to watchers",
    );
    /// Expired leases the leader's sweep proposed to revoke.
    pub const LEASE_EXPIRATIONS: &CounterDecl<0> = &CounterDecl::new(
        "etcd_lease_expirations_total",
        [],
        "expired leases proposed for revocation by the leader's sweep",
    );
    /// Watch registrations examined per committed command (work count — the
    /// scale soak reads it to prove fan-out stays sub-linear).
    pub const WATCH_FANOUT_EXAMINED: &HistogramDecl<0> = &HistogramDecl::new(
        "etcd_watch_fanout_examined",
        [],
        "watch registrations examined per committed etcd command",
    )
    .with_buckets(count_buckets());
}
