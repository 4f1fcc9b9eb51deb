//! The etcd server: one per Raft node.
//!
//! Serves client requests over RPC, proposing mutations through its Raft
//! node and serving reads via ReadIndex. The server's volatile core (KV
//! store, watch registry, pending proposals, and the lessor while it
//! leads) is rebuilt from the Raft log on restart — exactly the recovery
//! model of real etcd.
//!
//! Only the member that leads when it applies a committed command
//! notifies watchers of it, as an etcd watch stream is served by the one
//! member it is attached to. Registrations are kept on every member, so a
//! new leader notifies from its promotion on; an older-term entry a new
//! leader applies again is at worst a duplicate.

use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::{Rc, Weak};

use dlaas_net::{Addr, Net, Responder, RpcLayer};
use dlaas_raft::{LogIndex, NodeId, Raft};
use dlaas_sim::{DeadlineTimer, Grid, Sim, SimDuration, SimTime};

use crate::kv::{KvCommand, KvEvent, KvOp, KvState, LeaseId};
use crate::lessor::{Lessor, Renewal};
use crate::marks::etcd;
use crate::metrics;
use crate::proto::{etcd_addr, EtcdRequest, EtcdResponse, WatchNotify};

/// The grid on which the leader checks for leases whose deadline has
/// passed and proposes revokes for them. Well below any practical TTL so
/// expiry lag is bounded by the sweep, not the lease.
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

    /// The notifications `events` make: one per registration that some
    /// of them match, carrying those events in order, in deterministic
    /// `(watcher, id)` order. An event nobody watches costs the index walk
    /// and nothing else; one that is watched is allocated once and shared
    /// by every registration it matches. Also returns how many
    /// registrations were visited (the fan-out work).
    fn notifications(&self, events: Vec<KvEvent>) -> (Vec<(Addr, WatchNotify)>, u64) {
        let mut per_reg: BTreeMap<(Addr, u64), Vec<Rc<KvEvent>>> = BTreeMap::new();
        let mut examined = 0;
        for e in events {
            let mut matched = Vec::new();
            examined += self.for_matching(e.key(), |watcher, id| {
                matched.push((watcher.clone(), id));
            });
            if matched.is_empty() {
                continue;
            }
            let e = Rc::new(e);
            for reg in matched {
                per_reg.entry(reg).or_default().push(e.clone());
            }
        }
        let notifications = per_reg
            .into_iter()
            .map(|((watcher, watch_id), events)| (watcher, WatchNotify { watch_id, events }))
            .collect();
        (notifications, examined)
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

/// One member's lease-expiry sweep, which runs only while the member
/// leads with a promoted lessor. It acts on the instants of a
/// [`LEASE_SWEEP_PERIOD`] grid from the member's boot, but only on those
/// that can find a lease expired: one armed event waits for the grid
/// instant at or after the lessor's earliest deadline, and every
/// promotion, grant, renewal or revoke re-arms it for the deadline it
/// leaves. Only while an expired lease is still waiting for its revoke to
/// apply does the sweep poll its grid. It outlives restarts of its member.
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

    /// Arms the sweep for the earliest deadline: on the first grid
    /// instant at or after it, or — if it has passed — on the next one.
    fn rearm(self: &Rc<Self>, sim: &mut Sim, earliest: Option<SimTime>) {
        let Some(deadline) = earliest else {
            self.timer.cancel(sim);
            return;
        };
        let due = deadline.max(self.grid.after(sim.now()));
        let me = self.clone();
        self.timer
            .set(sim, self.grid.at_or_after(due), move |sim| me.run(sim));
    }

    fn run(self: &Rc<Self>, sim: &mut Sim) {
        if let Some(server) = self.server.get().and_then(Weak::upgrade) {
            server.sweep_expired_leases(sim);
        }
    }

    /// The member's server, while its Raft node leads.
    fn leader(&self) -> Option<Rc<EtcdServer>> {
        self.server
            .get()
            .and_then(Weak::upgrade)
            .filter(|server| server.raft.term_start().is_some())
    }
}

/// Volatile per-server state, dropped wholesale on crash.
pub struct ServerCore {
    kv: KvState,
    /// The lease deadlines, from this member's promotion as leader; stale
    /// once it no longer leads that term.
    lessor: Option<Lessor>,
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
            lessor: None,
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
    /// put, delete, delete_prefix, cas, noop, lease_grant, lease_revoke.
    proposals: Option<[dlaas_sim::CounterHandle; 7]>,
    /// Revokes proposed by the leader's expiry sweep.
    lease_expirations: Option<dlaas_sim::CounterHandle>,
    /// Renewals answered, by outcome: renewed, expired, not_leader.
    renewals: Option<[dlaas_sim::CounterHandle; 3]>,
}

/// One etcd server bound to one Raft node.
pub struct EtcdServer {
    id: NodeId,
    raft: Raft<KvCommand>,
    core: Rc<RefCell<ServerCore>>,
    sweep: Rc<LeaseSweep>,
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
        sweep: Rc<LeaseSweep>,
    ) -> Rc<Self> {
        let server = Rc::new(EtcdServer {
            id,
            raft,
            core,
            sweep,
            rpc,
            counters: RefCell::new(RequestCounters::default()),
        });
        let bound = server.sweep.server.set(Rc::downgrade(&server));
        debug_assert!(bound.is_ok(), "a sweep serves one server");
        server.start_serving();
        server
    }

    /// Builds the Raft snapshot hooks for this server's core: `take`
    /// clones the KV store (it is exactly the applied state), `restore`
    /// replaces it with a copy of the snapshot — for leader-shipped
    /// InstallSnapshot and for recovery from a compacted on-disk log, on a
    /// member that does not lead and so keeps no lease deadlines.
    pub(crate) fn make_snapshot_hooks(core: Rc<RefCell<ServerCore>>) -> dlaas_raft::SnapshotHooks {
        let take_core = core.clone();
        dlaas_raft::SnapshotHooks {
            take: Box::new(move || Rc::new(take_core.borrow().kv.clone())),
            restore: Box::new(move |_sim, _idx, data| {
                #[expect(
                    clippy::expect_used,
                    reason = "every snapshot of this cluster was taken by the `take` above, so a snapshot of any other type is a wiring bug, not a fault to survive"
                )]
                let kv: &KvState = data.downcast_ref().expect("an etcd snapshot");
                core.borrow_mut().kv = kv.clone();
            }),
        }
    }

    /// Builds the Raft apply callback for this server's core: applies each
    /// committed command to the KV store; while the member leads, keeps
    /// its lessor (promoted when its term's no-op applies) and fans out
    /// watch events; and answers the pending client RPC when this server
    /// proposed the command.
    pub(crate) fn make_apply(
        id: NodeId,
        core: Rc<RefCell<ServerCore>>,
        watch_net: WatchNet,
        sweep: Rc<LeaseSweep>,
    ) -> dlaas_raft::ApplyFn<KvCommand> {
        let self_addr = etcd_addr(id);
        // Per-event metric handles, resolved once on first use (not at
        // boot, so the series set matches recording-on-demand exactly)
        // and then bumped directly — label canonicalization and family
        // lookup are off the apply hot path.
        let mut fanout_examined: Option<dlaas_sim::HistogramHandle> = None;
        let mut watch_events: Option<dlaas_sim::CounterHandle> = None;
        Box::new(move |sim, idx, cmd| {
            let leader = sweep.leader();
            let (outcome, notifications, examined, responder) = {
                let mut c = core.borrow_mut();
                if let KvOp::LeaseRevoke { id: lease } = cmd.op {
                    if c.kv.lease(lease).is_some() {
                        sim.mark(&etcd::LEASE_REVOKED, id, lease);
                    }
                }
                let mut outcome = c.kv.apply(cmd);
                if let Some(leader) = &leader {
                    let lessor_moved = leader.upkeep_lessor(sim, &mut c, idx, cmd, &outcome);
                    if lessor_moved {
                        let earliest = c.lessor.as_ref().and_then(Lessor::earliest);
                        sweep.rearm(sim, earliest);
                    }
                }
                // A follower notifies nobody.
                let (notifications, examined) = match leader {
                    Some(_) => {
                        let (notifications, examined) =
                            c.watches.notifications(std::mem::take(&mut outcome.events));
                        (notifications, Some(examined))
                    }
                    None => (Vec::new(), None),
                };
                let responder = c.pending.remove(&cmd.req_id);
                (outcome, notifications, examined, responder)
            };
            if let Some(examined) = examined {
                fanout_examined
                    .get_or_insert_with(|| {
                        sim.metrics()
                            .histogram_series(metrics::WATCH_FANOUT_EXAMINED, [])
                    })
                    .observe(examined as f64);
            }
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

    /// Keeps this leader's lessor in step with the command applied at
    /// `idx`: promotes it when the term's own no-op applies (every older
    /// entry has applied by then), and tracks grants and revokes after
    /// that. Returns whether a deadline moved.
    fn upkeep_lessor(
        &self,
        sim: &mut Sim,
        c: &mut ServerCore,
        idx: LogIndex,
        cmd: &KvCommand,
        outcome: &crate::kv::ApplyOutcome,
    ) -> bool {
        let now = sim.now();
        match cmd.op {
            KvOp::Noop if self.raft.term_start() == Some(idx) => {
                let term = self.raft.term();
                sim.mark(&etcd::LESSOR_PROMOTED, self.id, term);
                c.lessor = Some(Lessor::promote(term, &c.kv, now));
                true
            }
            KvOp::LeaseGrant { ttl_us } => match (outcome.lease, self.lessor(c)) {
                (Some(id), Some(lessor)) => {
                    lessor.granted(id, SimDuration::from_micros(ttl_us), now);
                    true
                }
                _ => false,
            },
            KvOp::LeaseRevoke { id } => self.lessor(c).map(|lessor| lessor.revoked(id)).is_some(),
            _ => false,
        }
    }

    /// The lessor, while this member leads the term it was promoted in.
    fn lessor<'c>(&self, c: &'c mut ServerCore) -> Option<&'c mut Lessor> {
        self.raft.term_start()?;
        let term = self.raft.term();
        c.lessor.as_mut().filter(|lessor| lessor.term() == term)
    }

    /// One sweep ([`LeaseSweep`]): the leader proposes a revoke for every
    /// lease past its deadline. A renewal that arrives after the deadline
    /// is refused, so a revoke needs no guard. A revoke lost with the
    /// leadership is proposed again by the next leader's sweep, one TTL
    /// after its promotion.
    fn sweep_expired_leases(&self, sim: &mut Sim) {
        let (expired, earliest) = {
            let mut c = self.core.borrow_mut();
            let Some(lessor) = self.lessor(&mut c) else {
                return;
            };
            (lessor.expired(sim.now()), lessor.earliest())
        };
        if !expired.is_empty() {
            self.counters
                .borrow_mut()
                .lease_expirations
                .get_or_insert_with(|| sim.metrics().counter_series(metrics::LEASE_EXPIRATIONS, []))
                .add(expired.len() as u64);
        }
        for id in expired {
            sim.mark(&etcd::LEASE_EXPIRED, self.id, id);
            let req_id = {
                let mut c = self.core.borrow_mut();
                c.next_req_id += 1;
                c.next_req_id
            };
            #[expect(
                clippy::let_underscore_must_use,
                reason = "losing leadership between the role check and the proposal just drops this revoke; the next leader promotes the lease afresh and its own sweep revokes it one TTL later"
            )]
            let _ = self.raft.propose(
                sim,
                KvCommand {
                    req_id,
                    op: KvOp::LeaseRevoke { id },
                },
            );
        }
        self.sweep.rearm(sim, earliest);
    }

    /// Renews lease `id` received now: once a ReadIndex round confirms
    /// the leadership (and so that this leader's no-op, and every older
    /// entry, has applied), the lessor moves its deadline to the receipt
    /// instant plus its TTL. No log entry.
    fn renew(
        self: &Rc<Self>,
        sim: &mut Sim,
        id: LeaseId,
        responder: Responder<EtcdRequest, EtcdResponse>,
    ) {
        if self.raft.role() != dlaas_raft::Role::Leader {
            self.count_renewal(sim, None);
            let hint = self.raft.leader_hint();
            responder.ok(sim, EtcdResponse::NotLeader { hint });
            return;
        }
        let receipt = sim.now();
        let server = self.clone();
        let incarnation = self.core.borrow().incarnation;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "read_index only errs when called on a non-leader, checked above in the same event; losing leadership mid-round is delivered through the `ok` flag and answered with NotLeader"
        )]
        let _ = self.raft.read_index(sim, move |sim, ok| {
            let renewal = if ok {
                server.renew_confirmed(sim, id, receipt, incarnation)
            } else {
                None
            };
            server.count_renewal(sim, renewal);
            let resp = match renewal {
                Some(renewal) => EtcdResponse::LeaseKept {
                    alive: renewal == Renewal::Renewed,
                    revision: server.core.borrow().kv.revision(),
                },
                None => EtcdResponse::NotLeader { hint: None },
            };
            responder.ok(sim, resp);
        });
    }

    /// The lessor's answer to a renewal received at `receipt`, now that
    /// leadership is confirmed; `None` if this incarnation no longer leads
    /// with a promoted lessor.
    fn renew_confirmed(
        &self,
        sim: &mut Sim,
        id: LeaseId,
        receipt: SimTime,
        incarnation: u64,
    ) -> Option<Renewal> {
        let (renewal, earliest) = {
            let mut c = self.core.borrow_mut();
            if c.incarnation != incarnation {
                return None;
            }
            let lessor = self.lessor(&mut c)?;
            (lessor.renew(id, receipt, sim.now()), lessor.earliest())
        };
        if renewal == Renewal::Renewed {
            self.sweep.rearm(sim, earliest);
        }
        Some(renewal)
    }

    fn count_renewal(&self, sim: &mut Sim, renewal: Option<Renewal>) {
        let ix = match renewal {
            Some(Renewal::Renewed) => 0,
            Some(Renewal::Expired) => 1,
            None => 2,
        };
        self.counters.borrow_mut().renewals.get_or_insert_with(|| {
            ["renewed", "expired", "not_leader"].map(|outcome| {
                sim.metrics()
                    .counter_series(metrics::LEASE_RENEWALS, [outcome])
            })
        })[ix]
            .inc();
    }

    /// The leader's lease deadlines, in id order; empty unless this
    /// member leads with a promoted lessor.
    pub fn lease_deadlines(&self) -> Vec<(LeaseId, SimTime)> {
        let mut c = self.core.borrow_mut();
        self.lessor(&mut c)
            .map(|lessor| lessor.deadlines().collect())
            .unwrap_or_default()
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
                self.propose(sim, KvOp::LeaseGrant { ttl_us }, responder);
            }
            &EtcdRequest::LeaseKeepAlive { id } => self.renew(sim, id, responder),
            &EtcdRequest::LeaseRevoke { id } => {
                self.propose(sim, KvOp::LeaseRevoke { id }, responder);
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
                let incarnation = {
                    let mut c = self.core.borrow_mut();
                    c.watches
                        .register(*watch_id, prefix.clone(), watcher.clone());
                    c.incarnation
                };
                responder.ok(sim, EtcdResponse::WatchAck { incarnation });
            }
            EtcdRequest::WatchCancel { watch_id, watcher } => {
                let incarnation = {
                    let mut c = self.core.borrow_mut();
                    c.watches.cancel(*watch_id, watcher);
                    c.incarnation
                };
                responder.ok(sim, EtcdResponse::WatchAck { incarnation });
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
            KvOp::LeaseRevoke { .. } => 6,
        };
        self.counters.borrow_mut().proposals.get_or_insert_with(|| {
            [
                "put",
                "delete",
                "delete_prefix",
                "cas",
                "noop",
                "lease_grant",
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
