//! The etcd server: one per Raft node.
//!
//! Serves client requests over RPC, proposing mutations through its Raft
//! node and serving reads via ReadIndex. The server's volatile core (KV
//! store, watch registry, pending proposals) is rebuilt from the Raft log
//! on restart — exactly the recovery model of real etcd.

use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::{Rc, Weak};

use dlaas_net::{Addr, Net, Responder, RpcLayer};
use dlaas_raft::{NodeId, Raft};
use dlaas_sim::{DeadlineTimer, Grid, Sim, SimDuration, SimTime};

use crate::kv::{KvCommand, KvEvent, KvOp, KvState};
use crate::metrics;
use crate::proto::{etcd_addr, EtcdRequest, EtcdResponse, WatchNotify};

/// The grid on which each server checks (when leader) for leases whose
/// deadline has passed and proposes guarded revokes for them. Well below
/// any practical TTL so expiry lag is bounded by the sweep, not the lease.
pub const LEASE_SWEEP_PERIOD: SimDuration = SimDuration::from_millis(500);

/// RPC layer type used by etcd.
pub type EtcdRpc = RpcLayer<EtcdRequest, EtcdResponse>;
/// One-way channel type for watch notifications.
pub type WatchNet = Net<WatchNotify>;

/// Watch registrations indexed by prefix, so commit-time fan-out visits
/// only the registrations whose prefix actually matches a changed key
/// instead of scanning every registration on every committed command.
///
/// Dispatch enumerates the key's own prefixes (each char boundary of the
/// key, including the empty prefix) and looks each up exactly: every
/// registration prefix that prefixes the key is one of them, so the walk
/// is complete without a fallback scan, in `O(len(key) · log n)`.
#[derive(Debug, Default)]
struct WatchIndex {
    /// prefix → registrations listening on it, in `(watcher, id)` order.
    by_prefix: BTreeMap<String, BTreeSet<(Addr, u64)>>,
    /// `(watcher, id)` → its registered prefix. Makes registration
    /// idempotent (an RPC retry of `WatchCreate` after a timed-out ack
    /// must not double-register) and cancellation `O(log n)`.
    by_key: BTreeMap<(Addr, u64), String>,
}

impl WatchIndex {
    fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Registers `(watcher, watch_id)` on `prefix`. Idempotent: re-sending
    /// the same registration replaces it instead of duplicating delivery,
    /// and a changed prefix supersedes the old one.
    fn register(&mut self, watch_id: u64, prefix: String, watcher: Addr) {
        let key = (watcher, watch_id);
        if let Some(old) = self.by_key.get(&key) {
            if *old == prefix {
                return;
            }
            let stale = old.clone();
            if let Some(set) = self.by_prefix.get_mut(&stale) {
                set.remove(&key);
                if set.is_empty() {
                    self.by_prefix.remove(&stale);
                }
            }
        }
        self.by_prefix
            .entry(prefix.clone())
            .or_default()
            .insert(key.clone());
        self.by_key.insert(key, prefix);
    }

    /// Drops the `(watcher, watch_id)` registration if present.
    fn cancel(&mut self, watch_id: u64, watcher: &Addr) {
        let key = (watcher.clone(), watch_id);
        if let Some(prefix) = self.by_key.remove(&key) {
            if let Some(set) = self.by_prefix.get_mut(&prefix) {
                set.remove(&key);
                if set.is_empty() {
                    self.by_prefix.remove(&prefix);
                }
            }
        }
    }

    /// Calls `f` for every registration matching `key`, in
    /// `(watcher, id)` order per prefix bucket (shortest prefix first).
    /// Returns how many registrations were visited (the fan-out work).
    fn for_matching(&self, key: &str, mut f: impl FnMut(&Addr, u64)) -> u64 {
        let mut examined = 0;
        for l in (0..=key.len()).filter(|&l| key.is_char_boundary(l)) {
            if let Some(set) = self.by_prefix.get(&key[..l]) {
                for (watcher, id) in set {
                    examined += 1;
                    f(watcher, *id);
                }
            }
        }
        examined
    }
}

/// One server's lease-expiry sweep. It acts on the instants of a
/// [`LEASE_SWEEP_PERIOD`] grid from the server's boot, but only on those
/// that can find a lease expired: one armed event waits for the grid
/// instant at or after the earliest lease deadline, and every grant,
/// keepalive, revoke or snapshot the server applies re-arms it for the
/// deadline it leaves. Only while an expired lease is still waiting for a
/// revoke (no leader here, or the revoke not yet applied) does the sweep
/// poll its grid.
pub(crate) struct LeaseSweep {
    grid: Grid,
    timer: DeadlineTimer,
    server: OnceCell<Weak<EtcdServer>>,
}

impl LeaseSweep {
    /// The sweep of a server booted now.
    pub(crate) fn new(sim: &Sim) -> Rc<Self> {
        Rc::new(LeaseSweep {
            grid: Grid::new(sim.now(), LEASE_SWEEP_PERIOD),
            timer: DeadlineTimer::default(),
            server: OnceCell::new(),
        })
    }

    /// Arms the sweep for the earliest deadline in `kv`: on the first grid
    /// instant at or after it, or — if it has passed — on the next one.
    fn rearm(self: &Rc<Self>, sim: &mut Sim, kv: &KvState) {
        let Some(deadline_us) = kv.earliest_lease_deadline() else {
            self.timer.cancel(sim);
            return;
        };
        let due = SimTime::from_micros(deadline_us).max(self.grid.after(sim.now()));
        let me = self.clone();
        self.timer
            .set(sim, self.grid.at_or_after(due), move |sim| me.run(sim));
    }

    fn run(self: &Rc<Self>, sim: &mut Sim) {
        let Some(server) = self.server.get().and_then(Weak::upgrade) else {
            return;
        };
        server.sweep_expired_leases(sim);
        self.rearm(sim, &server.core.borrow().kv);
    }
}

/// Volatile per-server state, dropped wholesale on crash.
pub struct ServerCore {
    kv: KvState,
    watches: WatchIndex,
    pending: BTreeMap<u64, Responder<EtcdRequest, EtcdResponse>>,
    next_req_id: u64,
    /// Server incarnation, bumped on restart; stale pendings die with it.
    incarnation: u64,
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("keys", &self.kv.len())
            .field("watches", &self.watches.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl ServerCore {
    /// A fresh core for the given incarnation (crate-internal: used by the
    /// cluster harness when booting or restarting a node).
    pub(crate) fn fresh(incarnation: u64) -> Self {
        Self::new(incarnation)
    }

    /// Snapshot of the live watch registrations as
    /// `(prefix, watcher, watch_id)` triples, sorted — lets the cluster
    /// harness and regression tests assert exactly which registrations a
    /// server holds (e.g. no duplicates after an RPC retry, no stale
    /// entries after a failover cancel).
    pub fn watch_registrations(&self) -> Vec<(String, Addr, u64)> {
        let mut v: Vec<_> = self
            .watches
            .by_key
            .iter()
            .map(|((watcher, id), prefix)| (prefix.clone(), watcher.clone(), *id))
            .collect();
        v.sort();
        v
    }

    fn new(incarnation: u64) -> Self {
        ServerCore {
            kv: KvState::new(),
            watches: WatchIndex::default(),
            pending: BTreeMap::new(),
            // req_ids are namespaced by incarnation so a restarted server
            // never collides with commands it proposed before crashing.
            next_req_id: incarnation << 32,
            incarnation,
        }
    }
}

/// Lazily-resolved counter handles for the request hot path, taken at
/// the point of first use (same idiom as the apply-path handles in
/// [`EtcdServer::make_apply`]) so the series set matches
/// recording-on-demand exactly while keeping label canonicalization and
/// family lookup off the per-request path.
#[derive(Default)]
struct RequestCounters {
    reads: Option<dlaas_sim::CounterHandle>,
    /// One handle per proposal op, in `KvOp` label order:
    /// put, delete, delete_prefix, cas, noop, lease_grant,
    /// lease_keepalive, lease_revoke.
    proposals: Option<[dlaas_sim::CounterHandle; 8]>,
    /// Guarded revokes proposed by the leader's expiry sweep.
    lease_expirations: Option<dlaas_sim::CounterHandle>,
}

/// One etcd server bound to one Raft node.
pub struct EtcdServer {
    id: NodeId,
    raft: Raft<KvCommand>,
    core: Rc<RefCell<ServerCore>>,
    rpc: EtcdRpc,
    counters: RefCell<RequestCounters>,
}

impl std::fmt::Debug for EtcdServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EtcdServer")
            .field("id", &self.id)
            .field("core", &*self.core.borrow())
            .finish()
    }
}

impl EtcdServer {
    /// Wires a server around an existing Raft node, binds it to its lease
    /// sweep (the one its apply callback re-arms) and starts serving.
    pub(crate) fn new(
        id: NodeId,
        raft: Raft<KvCommand>,
        core: Rc<RefCell<ServerCore>>,
        rpc: EtcdRpc,
        sweep: &LeaseSweep,
    ) -> Rc<Self> {
        let server = Rc::new(EtcdServer {
            id,
            raft,
            core,
            rpc,
            counters: RefCell::new(RequestCounters::default()),
        });
        let bound = sweep.server.set(Rc::downgrade(&server));
        debug_assert!(bound.is_ok(), "a sweep serves one server");
        server.start_serving();
        server
    }

    /// Builds the Raft snapshot hooks for this server's core: `take`
    /// serializes the KV store (it is exactly the applied state), and
    /// `restore` replaces it wholesale — used both for leader-shipped
    /// InstallSnapshot and for recovery from a compacted on-disk log —
    /// and re-arms the lease sweep for the leases it brought.
    pub(crate) fn make_snapshot_hooks(
        core: Rc<RefCell<ServerCore>>,
        sweep: Rc<LeaseSweep>,
    ) -> dlaas_raft::SnapshotHooks {
        let take_core = core.clone();
        dlaas_raft::SnapshotHooks {
            take: Box::new(move || take_core.borrow().kv.to_snapshot_bytes()),
            restore: Box::new(move |sim, _idx, data| {
                #[expect(
                    clippy::expect_used,
                    reason = "the bytes were produced by to_snapshot_bytes on the same closed system; snapshot corruption is outside the modelled fault vocabulary, so failing fast beats silently restoring an empty store"
                )]
                let kv = KvState::from_snapshot_bytes(data).expect("snapshot deserializes");
                sweep.rearm(sim, &kv);
                core.borrow_mut().kv = kv;
            }),
        }
    }

    /// Builds the Raft apply callback for this server's core: applies each
    /// committed command to the KV store, re-arms the lease sweep when a
    /// lease command moved a deadline, fans out watch events, and answers
    /// the pending client RPC when this server proposed the command.
    pub(crate) fn make_apply(
        core: Rc<RefCell<ServerCore>>,
        watch_net: WatchNet,
        self_addr: Addr,
        sweep: Rc<LeaseSweep>,
    ) -> dlaas_raft::ApplyFn<KvCommand> {
        // Per-event metric handles, resolved once on first use (not at
        // boot, so the series set matches recording-on-demand exactly)
        // and then bumped directly — label canonicalization and family
        // lookup are off the apply hot path.
        let mut fanout_examined: Option<dlaas_sim::HistogramHandle> = None;
        let mut watch_events: Option<dlaas_sim::CounterHandle> = None;
        Box::new(move |sim, _idx, cmd| {
            let (outcome, notifications, examined, responder) = {
                let mut c = core.borrow_mut();
                let mut outcome = c.kv.apply(cmd);
                if matches!(
                    cmd.op,
                    KvOp::LeaseGrant { .. }
                        | KvOp::LeaseKeepAlive { .. }
                        | KvOp::LeaseRevoke { .. }
                ) {
                    sweep.rearm(sim, &c.kv);
                }
                // Group matched events per registration so each watcher
                // still receives one notification per committed command,
                // in deterministic (watcher, id) order. An event nobody
                // watches costs the index walk and nothing else; one that
                // is watched is allocated once and shared by every
                // registration it matches.
                let mut per_reg: BTreeMap<(Addr, u64), Vec<Rc<KvEvent>>> = BTreeMap::new();
                let mut examined = 0;
                for e in std::mem::take(&mut outcome.events) {
                    let mut matched = Vec::new();
                    examined += c
                        .watches
                        .for_matching(e.key(), |watcher, id| matched.push((watcher.clone(), id)));
                    if matched.is_empty() {
                        continue;
                    }
                    let e = Rc::new(e);
                    for reg in matched {
                        per_reg.entry(reg).or_default().push(e.clone());
                    }
                }
                let notifications: Vec<_> = per_reg
                    .into_iter()
                    .map(|((watcher, watch_id), events)| {
                        (watcher, WatchNotify { watch_id, events })
                    })
                    .collect();
                let responder = c.pending.remove(&cmd.req_id);
                (outcome, notifications, examined, responder)
            };
            fanout_examined
                .get_or_insert_with(|| {
                    sim.metrics()
                        .histogram_series(metrics::WATCH_FANOUT_EXAMINED, [])
                })
                .observe(examined as f64);
            for (watcher, notify) in notifications {
                watch_events
                    .get_or_insert_with(|| sim.metrics().counter_series(metrics::WATCH_EVENTS, []))
                    .add(notify.events.len() as u64);
                watch_net.send(sim, self_addr.clone(), watcher, notify);
            }
            if let Some(r) = responder {
                match cmd.op {
                    KvOp::Cas { .. } => r.ok(
                        sim,
                        EtcdResponse::CasResult {
                            succeeded: outcome.succeeded,
                            revision: outcome.revision,
                        },
                    ),
                    KvOp::LeaseGrant { .. } => match outcome.lease {
                        Some(id) => r.ok(
                            sim,
                            EtcdResponse::LeaseGranted {
                                id,
                                revision: outcome.revision,
                            },
                        ),
                        // Grants are infallible; a missing id means the
                        // state machine broke its own contract.
                        None => r.err(sim, "lease grant allocated no id"),
                    },
                    KvOp::LeaseKeepAlive { .. } => r.ok(
                        sim,
                        EtcdResponse::LeaseKept {
                            alive: outcome.succeeded,
                            revision: outcome.revision,
                        },
                    ),
                    // A put naming a revoked lease is an application
                    // error, not a CAS-style soft failure.
                    KvOp::Put { .. } if !outcome.succeeded => {
                        r.err(sim, "lease revoked or unknown");
                    }
                    _ => r.ok(
                        sim,
                        EtcdResponse::Ok {
                            revision: outcome.revision,
                        },
                    ),
                }
            }
        })
    }

    fn start_serving(self: &Rc<Self>) {
        let me = Rc::downgrade(self);
        self.rpc
            .serve(etcd_addr(self.id), move |sim, req, responder| {
                if let Some(server) = me.upgrade() {
                    server.handle(sim, req, responder);
                }
            });
    }

    /// Re-registers the RPC handler (after restart).
    pub fn resume(self: &Rc<Self>) {
        self.start_serving();
    }

    /// One sweep ([`LeaseSweep`]). It runs on every node but only the
    /// current Raft leader proposes revokes, so expiry survives leader
    /// failover without coordination: whoever is leader at the next grid
    /// instant picks the sweep up. Revokes are guarded by the sweep's own
    /// clock stamp, so a keepalive that commits first wins.
    fn sweep_expired_leases(&self, sim: &mut Sim) {
        if self.raft.role() != dlaas_raft::Role::Leader {
            return;
        }
        let now_us = sim.now().as_micros();
        let expired = self.core.borrow().kv.expired_leases(now_us);
        if expired.is_empty() {
            return;
        }
        self.counters
            .borrow_mut()
            .lease_expirations
            .get_or_insert_with(|| sim.metrics().counter_series(metrics::LEASE_EXPIRATIONS, []))
            .add(expired.len() as u64);
        for id in expired {
            sim.mark("etcd", self.id, "lease-expired", id);
            let req_id = {
                let mut c = self.core.borrow_mut();
                c.next_req_id += 1;
                c.next_req_id
            };
            #[expect(
                clippy::let_underscore_must_use,
                reason = "losing leadership between the role check and the proposal just drops this revoke; the lease is still expired, so every server's sweep polls its grid and the new leader re-proposes it"
            )]
            let _ = self.raft.propose(
                sim,
                KvCommand {
                    req_id,
                    op: KvOp::LeaseRevoke {
                        id,
                        if_expired_at_us: Some(now_us),
                    },
                },
            );
        }
    }

    /// This server's Raft handle.
    pub fn raft(&self) -> &Raft<KvCommand> {
        &self.raft
    }

    /// The volatile core (for the cluster harness to reset on restart).
    pub fn core(&self) -> &Rc<RefCell<ServerCore>> {
        &self.core
    }

    /// Runs `read` against this replica's KV state in place (not
    /// linearizable). `read` must not re-enter this server.
    pub fn with_kv<R>(&self, read: impl FnOnce(&KvState) -> R) -> R {
        read(&self.core.borrow().kv)
    }

    /// A copy of this replica's whole KV state (test/debug aid; not
    /// linearizable). Periodic readers use [`EtcdServer::with_kv`].
    pub fn kv_snapshot(&self) -> KvState {
        self.with_kv(KvState::clone)
    }

    fn handle(
        self: &Rc<Self>,
        sim: &mut Sim,
        req: &EtcdRequest,
        responder: Responder<EtcdRequest, EtcdResponse>,
    ) {
        // The request stays with its caller (who may retry it); what the
        // replicated command keeps is copied here, once.
        match req {
            EtcdRequest::Put { key, value, lease } => {
                let op = KvOp::Put {
                    key: key.clone(),
                    value: value.clone(),
                    lease: *lease,
                };
                self.propose(sim, op, responder);
            }
            EtcdRequest::Delete { key } => {
                self.propose(sim, KvOp::Delete { key: key.clone() }, responder);
            }
            EtcdRequest::DeletePrefix { prefix } => {
                let prefix = prefix.clone();
                self.propose(sim, KvOp::DeletePrefix { prefix }, responder);
            }
            EtcdRequest::Cas {
                key,
                expect,
                value,
                lease,
            } => {
                let op = KvOp::Cas {
                    key: key.clone(),
                    expect: expect.clone(),
                    value: value.clone(),
                    lease: *lease,
                };
                self.propose(sim, op, responder);
            }
            &EtcdRequest::LeaseGrant { ttl_us } => {
                // The proposer stamps the grant with its own sim clock;
                // the replicated deadline is identical on every node.
                let now_us = sim.now().as_micros();
                self.propose(sim, KvOp::LeaseGrant { ttl_us, now_us }, responder);
            }
            &EtcdRequest::LeaseKeepAlive { id } => {
                let now_us = sim.now().as_micros();
                self.propose(sim, KvOp::LeaseKeepAlive { id, now_us }, responder);
            }
            &EtcdRequest::LeaseRevoke { id } => {
                self.propose(
                    sim,
                    KvOp::LeaseRevoke {
                        id,
                        if_expired_at_us: None,
                    },
                    responder,
                );
            }
            EtcdRequest::Get { key } => {
                let key = key.clone();
                self.linearizable_read(sim, responder, move |kv| EtcdResponse::Value {
                    value: kv.get(&key).map(|v| v.value.clone()),
                    revision: kv.revision(),
                });
            }
            EtcdRequest::GetPrefix { prefix } => {
                let prefix = prefix.clone();
                self.linearizable_read(sim, responder, move |kv| EtcdResponse::Values {
                    pairs: kv.get_prefix(&prefix),
                    revision: kv.revision(),
                });
            }
            EtcdRequest::WatchCreate {
                prefix,
                watcher,
                watch_id,
            } => {
                self.core
                    .borrow_mut()
                    .watches
                    .register(*watch_id, prefix.clone(), watcher.clone());
                responder.ok(sim, EtcdResponse::WatchAck);
            }
            EtcdRequest::WatchCancel { watch_id, watcher } => {
                self.core.borrow_mut().watches.cancel(*watch_id, watcher);
                responder.ok(sim, EtcdResponse::WatchAck);
            }
        }
    }

    /// Serves a linearizable read: rejects fast on followers, otherwise
    /// answers from the local KV once ReadIndex confirms leadership and
    /// application has caught up.
    fn linearizable_read(
        self: &Rc<Self>,
        sim: &mut Sim,
        responder: Responder<EtcdRequest, EtcdResponse>,
        read: impl FnOnce(&KvState) -> EtcdResponse + 'static,
    ) {
        if self.raft.role() != dlaas_raft::Role::Leader {
            responder.ok(
                sim,
                EtcdResponse::NotLeader {
                    hint: self.raft.leader_hint(),
                },
            );
            return;
        }
        self.counters
            .borrow_mut()
            .reads
            .get_or_insert_with(|| sim.metrics().counter_series(metrics::READS, []))
            .inc();
        let core = self.core.clone();
        let incarnation = core.borrow().incarnation;
        // The Err arm is unreachable after the role check above within one
        // event; if a step-down races in, the read fails via `ok = false`.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "read_index only errs when called on a non-leader, checked two lines up in the same event; the real failure mode (losing leadership mid-read) is delivered through the `ok` flag and answered with NotLeader"
        )]
        let _ = self.raft.read_index(sim, move |sim, ok| {
            let resp = {
                let c = core.borrow();
                if !ok || c.incarnation != incarnation {
                    EtcdResponse::NotLeader { hint: None }
                } else {
                    read(&c.kv)
                }
            };
            responder.ok(sim, resp);
        });
    }

    fn propose(
        self: &Rc<Self>,
        sim: &mut Sim,
        op: KvOp,
        responder: Responder<EtcdRequest, EtcdResponse>,
    ) {
        let op_ix = match &op {
            KvOp::Put { .. } => 0,
            KvOp::Delete { .. } => 1,
            KvOp::DeletePrefix { .. } => 2,
            KvOp::Cas { .. } => 3,
            KvOp::Noop => 4,
            KvOp::LeaseGrant { .. } => 5,
            KvOp::LeaseKeepAlive { .. } => 6,
            KvOp::LeaseRevoke { .. } => 7,
        };
        self.counters.borrow_mut().proposals.get_or_insert_with(|| {
            [
                "put",
                "delete",
                "delete_prefix",
                "cas",
                "noop",
                "lease_grant",
                "lease_keepalive",
                "lease_revoke",
            ]
            .map(|op_label| sim.metrics().counter_series(metrics::PROPOSALS, [op_label]))
        })[op_ix]
            .inc();
        let req_id = {
            let mut c = self.core.borrow_mut();
            c.next_req_id += 1;
            c.next_req_id
        };
        match self.raft.propose(sim, KvCommand { req_id, op }) {
            Ok(_) => {
                self.core.borrow_mut().pending.insert(req_id, responder);
            }
            Err(nl) => {
                responder.ok(sim, EtcdResponse::NotLeader { hint: nl.hint });
            }
        }
    }
}
