//! Cumulative work counters read from outside the program, through its
//! public functions and public metric registry only.

use dlaas_core::{metrics, DlaasPlatform};
use dlaas_net::NetStats;
use dlaas_obs::Snapshot;
use dlaas_sim::Sim;

/// Cumulative counter values at one instant, in a fixed order.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters(pub Vec<(&'static str, f64)>);

/// Sum of every series of metric family `name` in `snap`; for a
/// histogram family pass the `:count` or `:sum` suffix.
fn family_sum(snap: &Snapshot, name: &str, suffix: &str) -> f64 {
    snap.iter()
        .filter(|(key, _)| {
            let Some(rest) = key.strip_prefix(name) else {
                return false;
            };
            let Some(rest) = rest.strip_suffix(suffix) else {
                return false;
            };
            rest.is_empty() || (rest.starts_with('{') && rest.ends_with('}'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// One labelled series of a family (`0.0` when absent).
fn series(snap: &Snapshot, key: &str) -> f64 {
    snap.get(key).unwrap_or(0.0)
}

fn dropped(s: &NetStats) -> u64 {
    s.dropped_loss + s.dropped_partition + s.dropped_down
}

impl Counters {
    /// Reads every counter the per-layer metrics are built from.
    pub fn read(sim: &Sim, platform: &DlaasPlatform) -> Counters {
        let h = platform.handles();
        let snap = platform.metrics().snapshot();
        let core_net = h.rpc.net().stats();
        let mongo_net = h.mongo.net().stats();
        let etcd_net = h.etcd.rpc().net().stats();
        let raft_net = h.etcd.raft().net().stats();
        let watch_net = h.etcd.watch_net().stats();
        let raft_nodes = h.etcd.raft().nodes();
        let obj = h.objstore.stats();
        let nfs = h.nfs.stats();
        let examined = |op: &str, suffix: &str| {
            series(
                &snap,
                &format!("mongo_docs_examined{{op=\"{op}\"}}{suffix}"),
            )
        };
        let sent_total =
            core_net.sent + mongo_net.sent + etcd_net.sent + raft_net.sent + watch_net.sent;
        let dropped_total = dropped(&core_net)
            + dropped(&mongo_net)
            + dropped(&etcd_net)
            + dropped(&raft_net)
            + dropped(&watch_net);
        let c = |name: &str| family_sum(&snap, name, "");
        Counters(vec![
            ("sim.events", sim.events_executed() as f64),
            (
                "net.rpc_msgs",
                (core_net.sent + mongo_net.sent + etcd_net.sent) as f64,
            ),
            ("net.core_rpc_msgs", core_net.sent as f64),
            ("net.raft_msgs", raft_net.sent as f64),
            ("net.watch_msgs", watch_net.sent as f64),
            ("net.sent", sent_total as f64),
            ("net.dropped", dropped_total as f64),
            (
                "raft.elections",
                raft_nodes
                    .iter()
                    .map(dlaas_raft::Raft::elections_started)
                    .sum::<u64>() as f64,
            ),
            (
                "raft.commits",
                raft_nodes
                    .iter()
                    .map(dlaas_raft::Raft::commit_index)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            ("etcd.proposals", c("etcd_proposals_total")),
            ("etcd.reads", c("etcd_reads_total")),
            ("etcd.watch_events", c("etcd_watch_events_total")),
            (
                "etcd.fanout_examined",
                family_sum(&snap, metrics::ETCD_WATCH_FANOUT_EXAMINED, ":sum"),
            ),
            ("etcd.lease_expirations", c("etcd_lease_expirations_total")),
            (
                "docstore.ops",
                family_sum(&snap, metrics::MONGO_DOCS_EXAMINED, ":count"),
            ),
            (
                "docstore.docs_examined",
                family_sum(&snap, metrics::MONGO_DOCS_EXAMINED, ":sum"),
            ),
            ("docstore.sweep_docs", examined("find_changed", ":sum")),
            ("docstore.updates", examined("update_one", ":count")),
            (
                "docstore.finds",
                examined("find", ":count")
                    + examined("find_one", ":count")
                    + examined("count", ":count"),
            ),
            ("docstore.sweeps", examined("find_changed", ":count")),
            ("objstore.puts", obj.puts as f64),
            ("objstore.gets", obj.gets as f64),
            ("objstore.bytes", (obj.bytes_in + obj.bytes_out) as f64),
            ("sharedfs.writes", nfs.writes as f64),
            ("sharedfs.reads", nfs.reads as f64),
            ("sharedfs.bytes_written", nfs.bytes_written as f64),
            ("kube.events", c("kube_events_total")),
            (
                "kube.scheduled",
                family_sum(&snap, "kube_scheduling_latency_seconds", ":count"),
            ),
            (
                "kube.sched_wait_s",
                family_sum(&snap, "kube_scheduling_latency_seconds", ":sum"),
            ),
            (
                "kube.kick_examined",
                family_sum(&snap, metrics::KUBE_KICK_EXAMINED, ":sum"),
            ),
            ("kube.pod_restarts", c("kube_pod_restarts_total")),
            ("core.api.requests", c(metrics::API_REQUESTS)),
            (
                "core.api.queued",
                series(
                    &snap,
                    &format!("{}{{outcome=\"queued\"}}", metrics::API_SUBMISSIONS),
                ),
            ),
            ("core.lcm.redeploys", c(metrics::LCM_SCAN_REDEPLOYS)),
            (
                "core.lcm.shard_acquisitions",
                c(metrics::LCM_SHARD_ACQUISITIONS),
            ),
            ("core.lcm.shard_losses", c(metrics::LCM_SHARD_LOSSES)),
            (
                "core.lcm.keepalive_failures",
                c(metrics::LCM_LEASE_KEEPALIVE_FAILURES),
            ),
            (
                "core.guardian.deploy_attempts",
                c(metrics::GUARDIAN_DEPLOY_ATTEMPTS),
            ),
            ("core.guardian.rollbacks", c(metrics::GUARDIAN_ROLLBACKS)),
            ("core.learner.restarts", c(metrics::LEARNER_RESTARTS)),
            (
                "core.learner.checkpoint_writes",
                c(metrics::CHECKPOINT_WRITES),
            ),
            (
                "core.learner.checkpoint_restores",
                c(metrics::CHECKPOINT_RESTORES),
            ),
            (
                "core.invariants.violations",
                c(metrics::INVARIANT_VIOLATIONS),
            ),
            ("obs.series", snap.len() as f64),
        ])
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("unknown counter {name}"))
    }

    /// `self - base`, counter by counter.
    pub fn since(&self, base: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .zip(&base.0)
                .map(|((n, v), (_, b))| (*n, v - b))
                .collect(),
        )
    }
}
