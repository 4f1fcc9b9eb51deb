//! The etcd client: leader discovery, retries, and watch dispatch.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use dlaas_net::{Addr, RpcError};
use dlaas_raft::NodeId;
use dlaas_sim::{Sim, SimDuration};

use crate::kv::{KvEvent, LeaseId, Revision};
use crate::proto::{etcd_addr, EtcdError, EtcdRequest, EtcdResponse, WatchNotify};
use crate::server::{EtcdRpc, WatchNet};

/// Per-attempt RPC deadline.
const RPC_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Delay between retries. A leader election takes 1–2 s (the election
/// timeout, [`dlaas_raft::RaftConfig::default`]), well inside the
/// ~12 s the `MAX_ATTEMPTS` budget spans.
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(100);
/// Total attempts before reporting `Unavailable`.
const MAX_ATTEMPTS: u32 = 20;

type WatchCb = Rc<dyn Fn(&mut Sim, &KvEvent)>;

struct ClientState {
    leader_hint: Option<NodeId>,
    rr_cursor: u32,
    watches: BTreeMap<u64, WatchCb>,
    watch_meta: BTreeMap<u64, String>, // id -> prefix, for re-registration
    next_watch_id: u64,
    /// Watch cancels a server has not acknowledged yet, per server. A
    /// `WatchCancel` lost to a partition or crash leaves a stale
    /// registration live on that server, which double-notifies once it
    /// rejoins — so un-acked cancels are retried on every failover signal
    /// and from `rewatch` until the server acks.
    pending_cancels: BTreeMap<NodeId, BTreeSet<u64>>,
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
    /// servers reachable at [`etcd_addr`] addresses.
    pub fn new(addr: String, rpc: EtcdRpc, watch_net: WatchNet, cluster_size: u32) -> Self {
        let client = EtcdClient {
            addr: Addr::new(format!("etcdc/{addr}")),
            rpc,
            watch_net: watch_net.clone(),
            servers: (0..cluster_size).map(etcd_addr).collect(),
            state: Rc::new(RefCell::new(ClientState {
                leader_hint: None,
                rr_cursor: 0,
                watches: BTreeMap::new(),
                watch_meta: BTreeMap::new(),
                next_watch_id: 0,
                pending_cancels: BTreeMap::new(),
            })),
        };
        // Receive watch notifications at our address.
        let st = client.state.clone();
        watch_net.register(client.addr.clone(), move |sim, env| {
            let WatchNotify { watch_id, events } = env.msg;
            let cb = st.borrow().watches.get(&watch_id).cloned();
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
    /// redirects and timeouts. The request is allocated once: each
    /// attempt's frame and the retry continuation share it.
    fn request(
        &self,
        sim: &mut Sim,
        req: impl Into<Rc<EtcdRequest>>,
        attempts_left: u32,
        done: impl FnOnce(&mut Sim, Result<EtcdResponse, EtcdError>) + 'static,
    ) {
        if attempts_left == 0 {
            done(sim, Err(EtcdError::Unavailable));
            return;
        }
        let req: Rc<EtcdRequest> = req.into();
        let target = self.pick_server();
        let me = self.clone();
        self.rpc.call(
            sim,
            self.addr.clone(),
            self.servers[target as usize].clone(),
            req.clone(),
            RPC_TIMEOUT,
            move |sim, result| match result {
                Ok(EtcdResponse::NotLeader { hint }) => {
                    {
                        let mut s = me.state.borrow_mut();
                        s.leader_hint = hint.filter(|h| *h != target);
                    }
                    // Leadership moved: any cancel the old topology lost
                    // gets another best-effort delivery now.
                    me.flush_pending_cancels(sim);
                    let me2 = me.clone();
                    sim.schedule_in(RETRY_BACKOFF, move |sim| {
                        me2.request(sim, req, attempts_left - 1, done);
                    });
                }
                Ok(resp) => {
                    me.state.borrow_mut().leader_hint = Some(target);
                    done(sim, Ok(resp));
                }
                Err(RpcError::Timeout | RpcError::NoEndpoint(_)) => {
                    me.state.borrow_mut().leader_hint = None;
                    me.flush_pending_cancels(sim);
                    let me2 = me.clone();
                    sim.schedule_in(RETRY_BACKOFF, move |sim| {
                        me2.request(sim, req, attempts_left - 1, done);
                    });
                }
                Err(RpcError::Remote(m)) => done(sim, Err(EtcdError::Failed(m))),
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
        self.request(sim, req, MAX_ATTEMPTS, move |sim, r| {
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
        self.request(sim, req, MAX_ATTEMPTS, move |sim, r| {
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
        self.request(sim, req, MAX_ATTEMPTS, move |sim, r| {
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
        self.request(sim, req, MAX_ATTEMPTS, move |sim, r| {
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
        self.request(sim, req, MAX_ATTEMPTS, move |sim, r| {
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
        self.request(sim, req, MAX_ATTEMPTS, move |sim, r| {
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
        self.request(sim, req, MAX_ATTEMPTS, move |sim, r| {
            done(
                sim,
                r.and_then(|resp| match resp {
                    EtcdResponse::LeaseGranted { id, .. } => Ok(id),
                    other => Err(unexpected("LeaseGrant", &other)),
                }),
            );
        });
    }

    /// Refreshes a lease's deadline to now + TTL. The callback receives
    /// `true` while the lease is live; `false` means it was revoked (the
    /// holder must stop relying on anything the lease protected).
    pub fn lease_keepalive(
        &self,
        sim: &mut Sim,
        id: LeaseId,
        done: impl FnOnce(&mut Sim, Result<bool, EtcdError>) + 'static,
    ) {
        let req = EtcdRequest::LeaseKeepAlive { id };
        self.request(sim, req, MAX_ATTEMPTS, move |sim, r| {
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
        self.request(sim, req, MAX_ATTEMPTS, move |sim, r| {
            done(sim, r.and_then(revision_of));
        });
    }

    /// Registers a prefix watch on every cluster node (so notifications
    /// survive any single server crash) and dispatches events to
    /// `on_event`. Delivery is at-least-once: with `n` servers alive each
    /// event arrives up to `n` times, so handlers must be idempotent —
    /// DLaaS status updates are (they are keyed puts).
    ///
    /// Returns the watch id, usable with [`EtcdClient::unwatch`].
    pub fn watch_prefix(
        &self,
        sim: &mut Sim,
        prefix: impl Into<String>,
        on_event: impl Fn(&mut Sim, &KvEvent) + 'static,
    ) -> u64 {
        let prefix = prefix.into();
        let watch_id = {
            let mut s = self.state.borrow_mut();
            s.next_watch_id += 1;
            let id = s.next_watch_id;
            s.watches.insert(id, Rc::new(on_event));
            s.watch_meta.insert(id, prefix.clone());
            id
        };
        self.register_watch_everywhere(sim, watch_id, prefix);
        watch_id
    }

    fn register_watch_everywhere(&self, sim: &mut Sim, watch_id: u64, prefix: String) {
        for server in 0..self.cluster_size() {
            let req = EtcdRequest::WatchCreate {
                prefix: prefix.clone(),
                watcher: self.addr.clone(),
                watch_id,
            };
            // Fire-and-forget with a long per-server retry budget; a down
            // server gets the registration again via `rewatch`.
            self.rpc.call(
                sim,
                self.addr.clone(),
                self.servers[server as usize].clone(),
                req,
                RPC_TIMEOUT,
                |_sim, _result| {},
            );
        }
    }

    /// Re-registers all watches on all servers. Call after a known etcd
    /// node restart (a restarted node loses its watch registry); cheap and
    /// idempotent-safe to call periodically.
    pub fn rewatch(&self, sim: &mut Sim) {
        let metas: Vec<(u64, String)> = self
            .state
            .borrow()
            .watch_meta
            .iter()
            .map(|(id, p)| (*id, p.clone()))
            .collect();
        for (id, prefix) in metas {
            self.register_watch_everywhere(sim, id, prefix);
        }
        // The same servers that need re-registration may also hold stale
        // registrations whose cancel they never acked.
        self.flush_pending_cancels(sim);
    }

    /// Re-sends every `WatchCancel` not yet acknowledged by its server.
    /// Best-effort and idempotent (watch ids are never reused): called on
    /// failover signals and from [`EtcdClient::rewatch`], so a cancel lost
    /// while a server was partitioned lands once the server is reachable
    /// again, instead of the old registration double-notifying forever.
    pub fn flush_pending_cancels(&self, sim: &mut Sim) {
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
        self.rpc.call(
            sim,
            self.addr.clone(),
            self.servers[server as usize].clone(),
            req,
            RPC_TIMEOUT,
            move |_sim, result| {
                if matches!(result, Ok(EtcdResponse::WatchAck)) {
                    let mut s = st.borrow_mut();
                    if let Some(ids) = s.pending_cancels.get_mut(&server) {
                        ids.remove(&watch_id);
                        if ids.is_empty() {
                            s.pending_cancels.remove(&server);
                        }
                    }
                }
            },
        );
    }

    /// Shuts the client down: cancels every watch on every server and
    /// unregisters the notification endpoint from the watch network.
    /// Call from process cleanup — a client that is merely dropped leaves
    /// its endpoint registered forever (each incarnation of a component
    /// creates a fresh client, so the leak grows without bound).
    pub fn close(&self, sim: &mut Sim) {
        let ids: Vec<u64> = self.state.borrow().watch_meta.keys().copied().collect();
        for id in ids {
            self.unwatch(sim, id);
        }
        self.watch_net.unregister(&self.addr);
    }

    /// Cancels a watch locally and on all servers. Each server's cancel is
    /// tracked until acked, so a server that misses it (crashed or
    /// partitioned) is retried on the next failover signal or `rewatch`.
    pub fn unwatch(&self, sim: &mut Sim, watch_id: u64) {
        {
            let mut s = self.state.borrow_mut();
            s.watches.remove(&watch_id);
            s.watch_meta.remove(&watch_id);
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
