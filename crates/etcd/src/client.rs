//! The etcd client: leader discovery, retries, and watch dispatch.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use dlaas_net::{Addr, Attempts, Retry, RpcError};
use dlaas_raft::NodeId;
use dlaas_sim::{Sim, SimDuration};

use crate::cluster::Incarnations;
use crate::kv::{KvEvent, LeaseId, Revision};
use crate::proto::{etcd_addr, EtcdError, EtcdRequest, EtcdResponse, WatchNotify};
use crate::server::{EtcdRpc, WatchNet};

/// How a request is retried: 500 ms attempts 100 ms apart, for 12 s
/// from its first send, before it reports `Unavailable`. A leader
/// election takes 1–2 s (the election timeout,
/// [`dlaas_raft::RaftConfig::default`]), well inside it. A time, not a
/// count of attempts: against a cluster below quorum each attempt fails
/// at once, and 20 of them spanned 5.5 s, not 12.
const RETRY: &Retry = &Retry {
    name: "etcd",
    timeout: SimDuration::from_millis(500),
    backoff: SimDuration::from_millis(100),
    budget: SimDuration::from_secs(12),
};

type WatchCb = Rc<dyn Fn(&mut Sim, &KvEvent)>;

/// One watch: its handler, its prefix, and its stream on each member —
/// the member incarnation its registration was sent to (the one that
/// acknowledged it, once the ack lands), `None` where a registration
/// failed.
struct Watch {
    on_event: WatchCb,
    prefix: String,
    streams: Vec<Option<u64>>,
}

struct ClientState {
    leader_hint: Option<NodeId>,
    rr_cursor: u32,
    watches: BTreeMap<u64, Watch>,
    next_watch_id: u64,
    /// The member incarnations the streams were last checked against,
    /// and whether a registration failed (or a watch was added) since:
    /// while neither moved, a check has nothing to re-register.
    checked: Vec<u64>,
    broken: bool,
    /// Watch cancels a server has not acknowledged yet, per server. A
    /// `WatchCancel` lost to a partition or crash leaves a stale
    /// registration live on that server, which double-notifies once it
    /// rejoins — so un-acked cancels are retried on every failover signal
    /// and from `rewatch` until the server acks.
    pending_cancels: BTreeMap<NodeId, BTreeSet<u64>>,
    /// Set by [`EtcdClient::close`]: the RPC endpoint goes whenever no
    /// call from the client's address is pending.
    closed: bool,
}

/// Handle used by DLaaS components to talk to etcd. Cloning shares the
/// handle (same address, same watch table).
///
/// All operations are asynchronous: the callback fires when the operation
/// completes or the retry budget is exhausted. Writes are linearizable
/// (they commit through Raft); reads are linearizable (ReadIndex).
#[derive(Clone)]
pub struct EtcdClient {
    addr: Addr,
    rpc: EtcdRpc,
    watch_net: WatchNet,
    /// The servers' addresses by node id, built once per client.
    servers: Rc<[Addr]>,
    /// Each member's incarnation: a restart breaks the streams there.
    incarnations: Incarnations,
    state: Rc<RefCell<ClientState>>,
}

impl std::fmt::Debug for EtcdClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EtcdClient")
            .field("addr", &self.addr)
            .field("watches", &self.state.borrow().watches.len())
            .finish()
    }
}

impl EtcdClient {
    /// Creates a client named `addr` against a cluster of `cluster_size`
    /// servers reachable at [`etcd_addr`] addresses, none of which it
    /// sees restart ([`EtcdCluster::client`](crate::EtcdCluster::client)
    /// hands out clients that do).
    pub fn new(addr: String, rpc: EtcdRpc, watch_net: WatchNet, cluster_size: u32) -> Self {
        Self::attached(addr, rpc, watch_net, Incarnations::new(cluster_size))
    }

    /// A client named `addr` of the members whose restarts `incarnations`
    /// counts.
    pub(crate) fn attached(
        addr: String,
        rpc: EtcdRpc,
        watch_net: WatchNet,
        incarnations: Incarnations,
    ) -> Self {
        let members = incarnations.len() as u32;
        let client = EtcdClient {
            addr: Addr::new(format!("etcdc/{addr}")),
            rpc,
            watch_net: watch_net.clone(),
            servers: (0..members).map(etcd_addr).collect(),
            incarnations,
            state: Rc::new(RefCell::new(ClientState {
                leader_hint: None,
                rr_cursor: 0,
                watches: BTreeMap::new(),
                next_watch_id: 0,
                checked: Vec::new(),
                broken: false,
                pending_cancels: BTreeMap::new(),
                closed: false,
            })),
        };
        // Receive watch notifications at our address.
        let st = client.state.clone();
        watch_net.register(client.addr.clone(), move |sim, env| {
            let WatchNotify { watch_id, events } = env.msg;
            let cb = st
                .borrow()
                .watches
                .get(&watch_id)
                .map(|w| w.on_event.clone());
            if let Some(cb) = cb {
                for ev in &events {
                    cb(sim, ev);
                }
            }
        });
        client
    }

    /// This client's network address.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    fn cluster_size(&self) -> u32 {
        self.servers.len() as u32
    }

    fn pick_server(&self) -> NodeId {
        let mut s = self.state.borrow_mut();
        if let Some(l) = s.leader_hint {
            return l;
        }
        let id = s.rr_cursor % self.cluster_size();
        s.rr_cursor += 1;
        id
    }

    /// Sends `req` to the presumed leader, retrying elsewhere on
    /// redirects and timeouts under [`RETRY`].
    fn request(
        &self,
        sim: &mut Sim,
        req: impl Into<Rc<EtcdRequest>>,
        done: impl FnOnce(&mut Sim, Result<EtcdResponse, EtcdError>) + 'static,
    ) {
        let attempts = ToLeader {
            client: self.clone(),
            target: 0,
        };
        let from = self.addr.clone();
        RETRY.send(sim, &self.rpc, from, req, attempts, |sim, answer| {
            done(sim, settled(answer));
        });
    }

    /// Sends one unretried request (a watch registration or cancel) to
    /// member `to`. A closed client whose call registered its endpoint
    /// again leaves once more when the answer (or timeout) is in, as
    /// [`ToLeader::again`] does for the retried ones.
    fn call(
        &self,
        sim: &mut Sim,
        to: NodeId,
        req: impl Into<Rc<EtcdRequest>>,
        on_reply: impl FnOnce(&mut Sim, Result<EtcdResponse, RpcError>) + 'static,
    ) {
        let me = self.clone();
        self.rpc.call(
            sim,
            self.addr.clone(),
            self.servers[to as usize].clone(),
            req,
            RETRY.timeout,
            move |sim, result| {
                on_reply(sim, result);
                if me.state.borrow().closed {
                    me.rpc.leave_when_idle(&me.addr);
                }
            },
        );
    }

    /// Sets `key` to `value`; the callback receives the commit revision.
    pub fn put(
        &self,
        sim: &mut Sim,
        key: impl Into<String>,
        value: impl Into<String>,
        done: impl FnOnce(&mut Sim, Result<Revision, EtcdError>) + 'static,
    ) {
        self.put_with_lease(sim, key, value, None, done);
    }

    /// Sets `key` to `value` attached to `lease` (`None` detaches). Fails
    /// with [`EtcdError::Failed`] when the named lease has been revoked.
    pub fn put_with_lease(
        &self,
        sim: &mut Sim,
        key: impl Into<String>,
        value: impl Into<String>,
        lease: Option<LeaseId>,
        done: impl FnOnce(&mut Sim, Result<Revision, EtcdError>) + 'static,
    ) {
        let req = EtcdRequest::Put {
            key: key.into(),
            value: value.into(),
            lease,
        };
        self.request(sim, req, move |sim, r| {
            done(sim, r.and_then(revision_of));
        });
    }

    /// Linearizable read of `key`.
    pub fn get(
        &self,
        sim: &mut Sim,
        key: impl Into<String>,
        done: impl FnOnce(&mut Sim, Result<Option<String>, EtcdError>) + 'static,
    ) {
        let req = EtcdRequest::Get { key: key.into() };
        self.request(sim, req, move |sim, r| {
            done(
                sim,
                r.and_then(|resp| match resp {
                    EtcdResponse::Value { value, .. } => Ok(value),
                    other => Err(unexpected("Get", &other)),
                }),
            );
        });
    }

    /// Linearizable read of every key under `prefix`.
    pub fn get_prefix(
        &self,
        sim: &mut Sim,
        prefix: impl Into<String>,
        done: impl FnOnce(&mut Sim, Result<Vec<(String, String)>, EtcdError>) + 'static,
    ) {
        let req = EtcdRequest::GetPrefix {
            prefix: prefix.into(),
        };
        self.request(sim, req, move |sim, r| {
            done(
                sim,
                r.and_then(|resp| match resp {
                    EtcdResponse::Values { pairs, .. } => Ok(pairs),
                    other => Err(unexpected("GetPrefix", &other)),
                }),
            );
        });
    }

    /// Removes `key`.
    pub fn delete(
        &self,
        sim: &mut Sim,
        key: impl Into<String>,
        done: impl FnOnce(&mut Sim, Result<Revision, EtcdError>) + 'static,
    ) {
        let req = EtcdRequest::Delete { key: key.into() };
        self.request(sim, req, move |sim, r| {
            done(sim, r.and_then(revision_of));
        });
    }

    /// Removes every key under `prefix`.
    pub fn delete_prefix(
        &self,
        sim: &mut Sim,
        prefix: impl Into<String>,
        done: impl FnOnce(&mut Sim, Result<Revision, EtcdError>) + 'static,
    ) {
        let req = EtcdRequest::DeletePrefix {
            prefix: prefix.into(),
        };
        self.request(sim, req, move |sim, r| {
            done(sim, r.and_then(revision_of));
        });
    }

    /// Compare-and-swap; callback receives whether the swap applied.
    pub fn cas(
        &self,
        sim: &mut Sim,
        key: impl Into<String>,
        expect: Option<String>,
        value: Option<String>,
        done: impl FnOnce(&mut Sim, Result<bool, EtcdError>) + 'static,
    ) {
        self.cas_with_lease(sim, key, expect, value, None, done);
    }

    /// Compare-and-swap attaching the written key to `lease`. A CAS
    /// naming a revoked lease reports `false` without touching the key —
    /// the fence that stops a holder whose lease expired from re-winning
    /// an ownership key.
    pub fn cas_with_lease(
        &self,
        sim: &mut Sim,
        key: impl Into<String>,
        expect: Option<String>,
        value: Option<String>,
        lease: Option<LeaseId>,
        done: impl FnOnce(&mut Sim, Result<bool, EtcdError>) + 'static,
    ) {
        let req = EtcdRequest::Cas {
            key: key.into(),
            expect,
            value,
            lease,
        };
        self.request(sim, req, move |sim, r| {
            done(
                sim,
                r.and_then(|resp| match resp {
                    EtcdResponse::CasResult { succeeded, .. } => Ok(succeeded),
                    other => Err(unexpected("Cas", &other)),
                }),
            );
        });
    }

    /// Grants a lease with the given sim-time TTL; the callback receives
    /// the allocated lease id. An RPC retry after a timed-out ack may
    /// leave an extra unreferenced lease behind — it is never keepalive'd,
    /// so the leader's expiry sweep collects it one TTL later.
    pub fn lease_grant(
        &self,
        sim: &mut Sim,
        ttl: SimDuration,
        done: impl FnOnce(&mut Sim, Result<LeaseId, EtcdError>) + 'static,
    ) {
        let req = EtcdRequest::LeaseGrant {
            ttl_us: ttl.as_micros(),
        };
        self.request(sim, req, move |sim, r| {
            done(
                sim,
                r.and_then(|resp| match resp {
                    EtcdResponse::LeaseGranted { id, .. } => Ok(id),
                    other => Err(unexpected("LeaseGrant", &other)),
                }),
            );
        });
    }

    /// Renews a lease: the leader moves its deadline to the instant it
    /// received the request plus the TTL, once a ReadIndex round confirms
    /// its leadership. The callback receives `true` while the lease is
    /// live; `false` means it is gone or past its deadline (the holder
    /// must stop relying on anything the lease protected).
    pub fn lease_keepalive(
        &self,
        sim: &mut Sim,
        id: LeaseId,
        done: impl FnOnce(&mut Sim, Result<bool, EtcdError>) + 'static,
    ) {
        let req = EtcdRequest::LeaseKeepAlive { id };
        self.request(sim, req, move |sim, r| {
            done(
                sim,
                r.and_then(|resp| match resp {
                    EtcdResponse::LeaseKept { alive, .. } => Ok(alive),
                    other => Err(unexpected("LeaseKeepAlive", &other)),
                }),
            );
        });
    }

    /// Revokes a lease, deleting every attached key (watchers see the
    /// deletions as ordinary delete events). Idempotent.
    pub fn lease_revoke(
        &self,
        sim: &mut Sim,
        id: LeaseId,
        done: impl FnOnce(&mut Sim, Result<Revision, EtcdError>) + 'static,
    ) {
        let req = EtcdRequest::LeaseRevoke { id };
        self.request(sim, req, move |sim, r| {
            done(sim, r.and_then(revision_of));
        });
    }

    /// Registers a prefix watch on every cluster node and dispatches
    /// events to `on_event`. The member that leads when it applies a
    /// committed change notifies; the registrations on the others let a
    /// new leader notify from its promotion on. A member's restart loses
    /// its registrations: the client registers there again on its next
    /// check ([`EtcdClient::rewatch`], or any reply that names the
    /// leader). Delivery is at-least-once — a new leader may notify again
    /// an older-term change it applies — so handlers must be idempotent;
    /// DLaaS status updates are (they are keyed puts).
    ///
    /// Returns the watch id, usable with [`EtcdClient::unwatch`].
    pub fn watch_prefix(
        &self,
        sim: &mut Sim,
        prefix: impl Into<String>,
        on_event: impl Fn(&mut Sim, &KvEvent) + 'static,
    ) -> u64 {
        let watch_id = {
            let mut s = self.state.borrow_mut();
            s.next_watch_id += 1;
            let id = s.next_watch_id;
            let watch = Watch {
                on_event: Rc::new(on_event),
                prefix: prefix.into(),
                streams: vec![None; self.servers.len()],
            };
            s.watches.insert(id, watch);
            s.broken = true;
            id
        };
        self.resync(sim);
        watch_id
    }

    /// Registers every watch again on each member where its stream broke:
    /// the member restarted since it acknowledged the registration, or
    /// the registration failed. Free while nothing moved.
    fn resync(&self, sim: &mut Sim) {
        let opens: Vec<(u64, NodeId, String)> = {
            let mut s = self.state.borrow_mut();
            let s = &mut *s;
            if s.watches.is_empty() || (!s.broken && self.incarnations.same_as(&s.checked)) {
                return;
            }
            s.broken = false;
            self.incarnations.copy_into(&mut s.checked);
            let mut opens = Vec::new();
            for (id, watch) in &mut s.watches {
                for (member, stream) in watch.streams.iter_mut().enumerate() {
                    let incarnation = s.checked[member];
                    if *stream != Some(incarnation) {
                        *stream = Some(incarnation);
                        opens.push((*id, member as NodeId, watch.prefix.clone()));
                    }
                }
            }
            opens
        };
        for (watch_id, member, prefix) in opens {
            self.open_stream(sim, watch_id, member, prefix);
        }
    }

    /// Sends one registration to one member. Its acknowledgement names
    /// the incarnation that holds it; a failure marks the stream broken,
    /// for the next check to open again.
    fn open_stream(&self, sim: &mut Sim, watch_id: u64, member: NodeId, prefix: String) {
        let req = EtcdRequest::WatchCreate {
            prefix,
            watcher: self.addr.clone(),
            watch_id,
        };
        let st = self.state.clone();
        self.call(sim, member, req, move |_sim, result| {
            let acked = match result {
                Ok(EtcdResponse::WatchAck { incarnation }) => Some(incarnation),
                _ => None,
            };
            let mut s = st.borrow_mut();
            s.broken |= acked.is_none();
            if let Some(watch) = s.watches.get_mut(&watch_id) {
                watch.streams[member as usize] = acked;
            }
        });
    }

    /// Re-registers the watches on every member where a restart (or a
    /// failed registration) broke their stream, and re-sends the cancels
    /// no member acknowledged yet. Cheap while nothing moved; the
    /// Guardian calls it every poll.
    pub fn rewatch(&self, sim: &mut Sim) {
        self.resync(sim);
        // The same servers that need re-registration may also hold stale
        // registrations whose cancel they never acked.
        self.flush_pending_cancels(sim);
    }

    /// Re-sends every `WatchCancel` not yet acknowledged by its server.
    /// Best-effort and idempotent (watch ids are never reused): called on
    /// failover signals and from [`EtcdClient::rewatch`], so a cancel lost
    /// while a server was partitioned lands once the server is reachable
    /// again, instead of the old registration double-notifying forever.
    fn flush_pending_cancels(&self, sim: &mut Sim) {
        let pending: Vec<(NodeId, u64)> = self
            .state
            .borrow()
            .pending_cancels
            .iter()
            .flat_map(|(server, ids)| ids.iter().map(|id| (*server, *id)))
            .collect();
        for (server, watch_id) in pending {
            self.send_cancel(sim, server, watch_id);
        }
    }

    /// Sends one `WatchCancel` to one server; the pending entry is cleared
    /// only when that server acks.
    fn send_cancel(&self, sim: &mut Sim, server: NodeId, watch_id: u64) {
        let req = EtcdRequest::WatchCancel {
            watch_id,
            watcher: self.addr.clone(),
        };
        let st = self.state.clone();
        self.call(sim, server, req, move |_sim, result| {
            if matches!(result, Ok(EtcdResponse::WatchAck { .. })) {
                let mut s = st.borrow_mut();
                if let Some(ids) = s.pending_cancels.get_mut(&server) {
                    ids.remove(&watch_id);
                    if ids.is_empty() {
                        s.pending_cancels.remove(&server);
                    }
                }
            }
        });
    }

    /// Shuts the client down: cancels every watch on every server,
    /// unregisters the notification endpoint from the watch network, and
    /// leaves the RPC network once no call from its address is pending
    /// ([`dlaas_net::RpcLayer::leave_when_idle`]), so no answer is dropped that
    /// would have landed — neither this client's cancels nor the calls of
    /// a successor that took the same address. Call from process cleanup — a client that
    /// is merely dropped leaves its endpoints registered forever (each
    /// incarnation of a component creates a fresh client, so the leak
    /// grows without bound).
    pub fn close(&self, sim: &mut Sim) {
        let ids: Vec<u64> = self.state.borrow().watches.keys().copied().collect();
        for id in ids {
            self.unwatch(sim, id);
        }
        self.watch_net.unregister(&self.addr);
        self.state.borrow_mut().closed = true;
        self.rpc.leave_when_idle(&self.addr);
    }

    /// Cancels a watch locally and on all servers. Each server's cancel is
    /// tracked until acked, so a server that misses it (crashed or
    /// partitioned) is retried on the next failover signal or `rewatch`.
    pub fn unwatch(&self, sim: &mut Sim, watch_id: u64) {
        {
            let mut s = self.state.borrow_mut();
            s.watches.remove(&watch_id);
            for server in 0..self.cluster_size() {
                s.pending_cancels
                    .entry(server)
                    .or_default()
                    .insert(watch_id);
            }
        }
        for server in 0..self.cluster_size() {
            self.send_cancel(sim, server, watch_id);
        }
    }
}

/// A request's attempts: each to the member the client presumes leads.
struct ToLeader {
    client: EtcdClient,
    /// The member the attempt in flight went to.
    target: NodeId,
}

impl Attempts<EtcdResponse> for ToLeader {
    fn target(&mut self, _sim: &mut Sim) -> Result<Addr, RpcError> {
        self.target = self.client.pick_server();
        Ok(self.client.servers[self.target as usize].clone())
    }

    /// A member that does not lead names the one it believes does and
    /// asks again; an answer names the leader; a timeout names nobody.
    fn again(&mut self, sim: &mut Sim, answer: &Result<EtcdResponse, RpcError>) -> bool {
        let (me, target) = (&self.client, self.target);
        let again = match answer {
            Ok(EtcdResponse::NotLeader { hint }) => {
                me.state.borrow_mut().leader_hint = hint.filter(|h| *h != target);
                // Leadership moved: any cancel the old topology lost
                // gets another best-effort delivery now, and a named
                // leader is the moment to mend broken streams.
                me.flush_pending_cancels(sim);
                if hint.is_some() {
                    me.resync(sim);
                }
                true
            }
            Ok(_) => {
                me.state.borrow_mut().leader_hint = Some(target);
                me.resync(sim);
                false
            }
            Err(RpcError::Timeout | RpcError::NoEndpoint(_)) => {
                me.state.borrow_mut().leader_hint = None;
                me.flush_pending_cancels(sim);
                true
            }
            Err(RpcError::Remote(_)) => false,
        };
        // A closed client whose retry registered its endpoint again
        // leaves once more when the answer (or timeout) is in.
        if me.state.borrow().closed {
            me.rpc.leave_when_idle(&me.addr);
        }
        again
    }
}

/// What a request's last answer says: a member that does not lead, or
/// none that answers, is no leader at all.
fn settled(answer: Result<EtcdResponse, RpcError>) -> Result<EtcdResponse, EtcdError> {
    match answer {
        Ok(EtcdResponse::NotLeader { .. }) | Err(RpcError::Timeout | RpcError::NoEndpoint(_)) => {
            Err(EtcdError::Unavailable)
        }
        Ok(resp) => Ok(resp),
        Err(RpcError::Remote(m)) => Err(EtcdError::Failed(m)),
    }
}

/// A reply of the wrong shape fails the one operation it answers (every
/// caller handles `Err`); it must not take the calling process down.
fn unexpected(request: &str, resp: &EtcdResponse) -> EtcdError {
    EtcdError::Failed(format!("unexpected response to {request}: {resp:?}"))
}

fn revision_of(resp: EtcdResponse) -> Result<Revision, EtcdError> {
    match resp {
        EtcdResponse::Ok { revision } => Ok(revision),
        other => Err(unexpected("mutation", &other)),
    }
}
