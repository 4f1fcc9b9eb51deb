//! Request/response RPC over the simulated network.
//!
//! The paper's microservices communicate over GRPC. [`RpcLayer`] reproduces
//! the relevant semantics: typed request/response pairs, deadlines
//! (timeouts), retries with backoff, and a resolver hook so calls can be
//! addressed to a *service* (load-balanced across healthy instances by the
//! Kubernetes service registry) rather than a fixed endpoint.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use dlaas_sim::{EventId, Sim, SimDuration};

use crate::{Addr, Envelope, LatencyModel, Net};

/// Why an RPC failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// No response arrived within the deadline.
    Timeout,
    /// The resolver produced no healthy endpoint for the target service.
    NoEndpoint(String),
    /// The server handler reported an application-level failure.
    Remote(String),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "rpc deadline exceeded"),
            RpcError::NoEndpoint(svc) => write!(f, "no healthy endpoint for service {svc}"),
            RpcError::Remote(m) => write!(f, "remote error: {m}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Wire frames exchanged by the RPC layer.
#[derive(Debug, Clone)]
pub enum RpcFrame<Req, Resp> {
    /// A request carrying a correlation id.
    Request {
        /// Correlation id, unique per layer.
        id: u64,
        /// The request payload: one allocation shared by the caller
        /// (which keeps it to retry) and every attempt's frame.
        req: Rc<Req>,
    },
    /// A response to the request with the same id.
    Response {
        /// Correlation id of the request being answered.
        id: u64,
        /// Outcome produced by the server handler.
        resp: Result<Resp, String>,
    },
}

/// Capability to answer one request; passed to server handlers so they can
/// reply immediately or after further asynchronous work.
pub struct Responder<Req: 'static, Resp: 'static> {
    layer: RpcLayer<Req, Resp>,
    id: u64,
    server: Addr,
    client: Addr,
    /// The request being answered — the caller's own allocation.
    req: Rc<Req>,
}

impl<Req, Resp> fmt::Debug for Responder<Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Responder")
            .field("id", &self.id)
            .field("client", &self.client)
            .finish()
    }
}

impl<Req: 'static, Resp: 'static> Responder<Req, Resp> {
    /// The request this responder answers. A handler that replies after
    /// further asynchronous work reads the request from here when it
    /// resumes, instead of copying out of the borrow it was handed.
    pub fn request(&self) -> &Req {
        &self.req
    }

    /// Sends a successful response.
    pub fn ok(self, sim: &mut Sim, resp: Resp) {
        self.finish(sim, Ok(resp));
    }

    /// Sends an application-level error.
    pub fn err(self, sim: &mut Sim, msg: impl Into<String>) {
        self.finish(sim, Err(msg.into()));
    }

    fn finish(self, sim: &mut Sim, resp: Result<Resp, String>) {
        self.layer.net.send(
            sim,
            self.server,
            self.client,
            RpcFrame::Response { id: self.id, resp },
        );
    }
}

type ReplyFn<Resp> = Box<dyn FnOnce(&mut Sim, Result<Resp, RpcError>)>;

/// A target-resolution closure for [`RpcLayer::call_service`] — returns a
/// healthy endpoint for the service, or `None` when none exists right now.
pub type Resolver = Rc<dyn Fn(&mut Sim) -> Option<Addr>>;

struct Pending<Resp> {
    reply: ReplyFn<Resp>,
    timeout_ev: EventId,
}

type ServerFn<Req, Resp> = Rc<dyn Fn(&mut Sim, &Req, Responder<Req, Resp>)>;

struct LayerState<Req: 'static, Resp: 'static> {
    pending: BTreeMap<u64, Pending<Resp>>,
    next_id: u64,
    /// Addresses with a registered dispatch handler on the network. One
    /// endpoint can be both a server and a client (e.g. the API service
    /// serves users while calling the LCM), so the single per-address
    /// handler dispatches on the frame type.
    endpoints: std::collections::BTreeSet<Addr>,
    servers: BTreeMap<Addr, ServerFn<Req, Resp>>,
}

/// Typed request/response RPC over a [`Net`]. Cloning shares the layer.
///
/// # Examples
///
/// ```
/// use dlaas_net::{Addr, LatencyModel, RpcLayer};
/// use dlaas_sim::{Sim, SimDuration};
/// use std::{cell::Cell, rc::Rc};
///
/// let mut sim = Sim::new(1);
/// let rpc: RpcLayer<u32, u32> = RpcLayer::new(&mut sim, LatencyModel::local());
///
/// rpc.serve(Addr::new("doubler"), |sim, req, responder| {
///     responder.ok(sim, *req * 2);
/// });
///
/// let got = Rc::new(Cell::new(0));
/// let g = got.clone();
/// rpc.call(
///     &mut sim,
///     Addr::new("client"),
///     Addr::new("doubler"),
///     21,
///     SimDuration::from_secs(1),
///     move |_sim, result| g.set(result.unwrap()),
/// );
/// sim.run_until_idle();
/// assert_eq!(got.get(), 42);
/// ```
pub struct RpcLayer<Req: 'static, Resp: 'static> {
    net: Net<RpcFrame<Req, Resp>>,
    state: Rc<RefCell<LayerState<Req, Resp>>>,
}

impl<Req, Resp> Clone for RpcLayer<Req, Resp> {
    fn clone(&self) -> Self {
        RpcLayer {
            net: self.net.clone(),
            state: self.state.clone(),
        }
    }
}

impl<Req, Resp> fmt::Debug for RpcLayer<Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RpcLayer")
            .field("pending", &self.state.borrow().pending.len())
            .finish()
    }
}

impl<Req: 'static, Resp: 'static> RpcLayer<Req, Resp> {
    /// Creates an RPC layer over a fresh network with the given latency.
    pub fn new(sim: &mut Sim, latency: LatencyModel) -> Self {
        RpcLayer {
            net: Net::new(sim, latency),
            state: Rc::new(RefCell::new(LayerState {
                pending: BTreeMap::new(),
                next_id: 0,
                endpoints: Default::default(),
                servers: BTreeMap::new(),
            })),
        }
    }

    /// The underlying network (for partitions, loss, endpoint up/down).
    pub fn net(&self) -> &Net<RpcFrame<Req, Resp>> {
        &self.net
    }

    /// Registers a server handler at `addr`. The handler borrows each
    /// request (a retrying caller still holds it) and receives a
    /// [`Responder`] it must eventually consume; a handler that answers
    /// later finds the request again in [`Responder::request`]. The
    /// address can simultaneously act as an RPC client.
    pub fn serve(
        &self,
        addr: Addr,
        handler: impl Fn(&mut Sim, &Req, Responder<Req, Resp>) + 'static,
    ) {
        self.state
            .borrow_mut()
            .servers
            .insert(addr.clone(), Rc::new(handler));
        // A stopped endpoint was unregistered: this registers it again, up.
        self.ensure_endpoint(&addr);
    }

    /// Stops serving at `addr` (e.g. the process crashed). In-flight
    /// requests to it will time out at their callers. The endpoint also
    /// stops receiving responses to its own outstanding calls (the
    /// process is gone).
    pub fn stop_serving(&self, addr: &Addr) {
        {
            let mut s = self.state.borrow_mut();
            s.servers.remove(addr);
            s.endpoints.remove(addr);
        }
        self.net.unregister(addr);
    }

    /// Registers the per-address dispatch handler once: requests go to
    /// the server handler (if any), responses complete pending calls.
    fn ensure_endpoint(&self, addr: &Addr) {
        {
            let mut s = self.state.borrow_mut();
            if !s.endpoints.insert(addr.clone()) {
                return;
            }
        }
        let layer = self.clone();
        let my_addr = addr.clone();
        self.net.register(
            addr.clone(),
            move |sim, env: Envelope<RpcFrame<Req, Resp>>| {
                match env.msg {
                    RpcFrame::Request { id, req } => {
                        let server = layer.state.borrow().servers.get(&my_addr).cloned();
                        if let Some(handler) = server {
                            let responder = Responder {
                                layer: layer.clone(),
                                id,
                                server: my_addr.clone(),
                                client: env.from,
                                req: req.clone(),
                            };
                            handler(sim, &req, responder);
                        }
                        // No server here: drop; the caller times out.
                    }
                    RpcFrame::Response { id, resp } => {
                        layer.complete(sim, id, resp.map_err(RpcError::Remote));
                    }
                }
            },
        );
    }

    fn complete(&self, sim: &mut Sim, id: u64, result: Result<Resp, RpcError>) {
        let pending = self.state.borrow_mut().pending.remove(&id);
        if let Some(p) = pending {
            sim.cancel(p.timeout_ev);
            (p.reply)(sim, result);
        }
        // else: response arrived after timeout — dropped, caller already failed.
    }

    /// Issues a request from `from` to the fixed endpoint `to` with a
    /// deadline. Exactly one of the outcomes is delivered to `on_reply`:
    /// the response, a remote error, or [`RpcError::Timeout`]. A caller
    /// that may retry passes an `Rc<Req>` and keeps a share of it.
    pub fn call(
        &self,
        sim: &mut Sim,
        from: Addr,
        to: Addr,
        req: impl Into<Rc<Req>>,
        timeout: SimDuration,
        on_reply: impl FnOnce(&mut Sim, Result<Resp, RpcError>) + 'static,
    ) {
        self.ensure_endpoint(&from);
        let id = {
            let mut s = self.state.borrow_mut();
            let id = s.next_id;
            s.next_id += 1;
            id
        };
        let layer = self.clone();
        let timeout_ev = sim.schedule_in(timeout, move |sim| {
            layer.complete(sim, id, Err(RpcError::Timeout));
        });
        self.state.borrow_mut().pending.insert(
            id,
            Pending {
                reply: Box::new(on_reply),
                timeout_ev,
            },
        );
        let req = req.into();
        self.net.send(sim, from, to, RpcFrame::Request { id, req });
    }

    /// Issues a request to a *service* through `resolve`, retrying up to
    /// `retries` additional times on timeout/no-endpoint with the given
    /// backoff between attempts. Application-level (`Remote`) errors are
    /// not retried — the request reached the server.
    #[expect(
        clippy::too_many_arguments,
        reason = "one call site per retry policy; a params struct would only rename the arguments"
    )]
    pub fn call_service(
        &self,
        sim: &mut Sim,
        from: Addr,
        service: String,
        resolve: Resolver,
        req: impl Into<Rc<Req>>,
        timeout: SimDuration,
        retries: u32,
        backoff: SimDuration,
        on_reply: impl FnOnce(&mut Sim, Result<Resp, RpcError>) + 'static,
    ) {
        let req: Rc<Req> = req.into();
        let target = resolve(sim);
        match target {
            None => {
                if retries == 0 {
                    on_reply(sim, Err(RpcError::NoEndpoint(service)));
                } else {
                    let layer = self.clone();
                    sim.schedule_in(backoff, move |sim| {
                        layer.call_service(
                            sim,
                            from,
                            service,
                            resolve,
                            req,
                            timeout,
                            retries - 1,
                            backoff,
                            on_reply,
                        );
                    });
                }
            }
            Some(addr) => {
                let layer = self.clone();
                self.call(
                    sim,
                    from.clone(),
                    addr,
                    req.clone(),
                    timeout,
                    move |sim, result| match result {
                        Err(RpcError::Timeout) if retries > 0 => {
                            sim.schedule_in(backoff, move |sim| {
                                layer.call_service(
                                    sim,
                                    from,
                                    service,
                                    resolve,
                                    req,
                                    timeout,
                                    retries - 1,
                                    backoff,
                                    on_reply,
                                );
                            });
                        }
                        other => on_reply(sim, other),
                    },
                );
            }
        }
    }
}

/// A round-robin resolver over a mutable set of endpoints, with per-endpoint
/// health; the building block for load-balanced service calls when a full
/// Kubernetes service registry is not in play.
///
/// # Examples
///
/// ```
/// use dlaas_net::{Addr, RoundRobin};
///
/// let rr = RoundRobin::new();
/// rr.add(Addr::new("api-0"));
/// rr.add(Addr::new("api-1"));
/// assert_eq!(rr.next().unwrap(), Addr::new("api-0"));
/// assert_eq!(rr.next().unwrap(), Addr::new("api-1"));
/// assert_eq!(rr.next().unwrap(), Addr::new("api-0"));
/// rr.set_healthy(&Addr::new("api-0"), false);
/// assert_eq!(rr.next().unwrap(), Addr::new("api-1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    inner: Rc<RefCell<RoundRobinState>>,
}

#[derive(Debug, Default)]
struct RoundRobinState {
    endpoints: Vec<(Addr, bool)>,
    cursor: usize,
}

impl RoundRobin {
    /// Creates an empty balancer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a healthy endpoint (no-op if already present).
    pub fn add(&self, addr: Addr) {
        let mut s = self.inner.borrow_mut();
        if !s.endpoints.iter().any(|(a, _)| *a == addr) {
            s.endpoints.push((addr, true));
        }
    }

    /// Removes an endpoint.
    pub fn remove(&self, addr: &Addr) {
        self.inner.borrow_mut().endpoints.retain(|(a, _)| a != addr);
    }

    /// Marks an endpoint healthy or unhealthy.
    pub fn set_healthy(&self, addr: &Addr, healthy: bool) {
        let mut s = self.inner.borrow_mut();
        if let Some(e) = s.endpoints.iter_mut().find(|(a, _)| a == addr) {
            e.1 = healthy;
        }
    }

    /// Next healthy endpoint in rotation, or `None` if none are healthy.
    pub fn next(&self) -> Option<Addr> {
        let mut s = self.inner.borrow_mut();
        let n = s.endpoints.len();
        for _ in 0..n {
            let i = s.cursor % n.max(1);
            s.cursor = s.cursor.wrapping_add(1);
            let (addr, healthy) = s.endpoints[i].clone();
            if healthy {
                return Some(addr);
            }
        }
        None
    }

    /// Number of endpoints (healthy or not).
    pub fn len(&self) -> usize {
        self.inner.borrow().endpoints.len()
    }

    /// `true` when no endpoints are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn layer(sim: &mut Sim) -> RpcLayer<String, String> {
        RpcLayer::new(sim, LatencyModel::Fixed(SimDuration::from_millis(1)))
    }

    #[test]
    fn request_response_roundtrip() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        rpc.serve(Addr::new("echo"), |sim, req: &String, r| {
            r.ok(sim, format!("echo:{req}"));
        });
        let got: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        rpc.call(
            &mut sim,
            Addr::new("c"),
            Addr::new("echo"),
            "hi".to_string(),
            SimDuration::from_secs(1),
            move |_, r| *g.borrow_mut() = Some(r.unwrap()),
        );
        sim.run_until_idle();
        assert_eq!(got.borrow().as_deref(), Some("echo:hi"));
    }

    #[test]
    fn remote_error_propagates() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        rpc.serve(Addr::new("s"), |sim, _req, r| r.err(sim, "boom"));
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        rpc.call(
            &mut sim,
            Addr::new("c"),
            Addr::new("s"),
            "x".to_string(),
            SimDuration::from_secs(1),
            move |_, r| *g.borrow_mut() = Some(r),
        );
        sim.run_until_idle();
        assert_eq!(*got.borrow(), Some(Err(RpcError::Remote("boom".into()))));
    }

    #[test]
    fn timeout_fires_when_server_absent() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        rpc.call(
            &mut sim,
            Addr::new("c"),
            Addr::new("nobody"),
            "x".to_string(),
            SimDuration::from_millis(100),
            move |_, r| *g.borrow_mut() = Some(r),
        );
        sim.run_until_idle();
        assert_eq!(*got.borrow(), Some(Err(RpcError::Timeout)));
        assert_eq!(sim.now().as_millis(), 100);
    }

    #[test]
    fn late_response_after_timeout_is_dropped() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        // Server replies after 200ms (deferred), client deadline is 50ms.
        rpc.serve(Addr::new("slow"), |sim, _req: &String, r| {
            sim.schedule_in(SimDuration::from_millis(200), move |sim| {
                r.ok(sim, "late".into());
            });
        });
        let calls = Rc::new(Cell::new(0));
        let c = calls.clone();
        let outcome = Rc::new(RefCell::new(None));
        let o = outcome.clone();
        rpc.call(
            &mut sim,
            Addr::new("c"),
            Addr::new("slow"),
            "x".to_string(),
            SimDuration::from_millis(50),
            move |_, r| {
                c.set(c.get() + 1);
                *o.borrow_mut() = Some(r);
            },
        );
        sim.run_until_idle();
        assert_eq!(calls.get(), 1, "callback must fire exactly once");
        assert_eq!(*outcome.borrow(), Some(Err(RpcError::Timeout)));
    }

    #[test]
    fn deferred_reply_within_deadline_succeeds() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        rpc.serve(Addr::new("async"), |sim, req: &String, r| {
            let req = req.clone();
            sim.schedule_in(SimDuration::from_millis(10), move |sim| {
                r.ok(sim, format!("done:{req}"));
            });
        });
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        rpc.call(
            &mut sim,
            Addr::new("c"),
            Addr::new("async"),
            "job".to_string(),
            SimDuration::from_secs(1),
            move |_, r| *g.borrow_mut() = Some(r.unwrap()),
        );
        sim.run_until_idle();
        assert_eq!(got.borrow().as_deref(), Some("done:job"));
    }

    #[test]
    fn call_service_retries_until_endpoint_appears() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        let rr = RoundRobin::new();
        // Endpoint appears after 50ms.
        let rr2 = rr.clone();
        let rpc2 = rpc.clone();
        sim.schedule_in(SimDuration::from_millis(50), move |_| {
            rpc2.serve(Addr::new("api-0"), |sim, _req: &String, r| {
                r.ok(sim, "served".into());
            });
            rr2.add(Addr::new("api-0"));
        });
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let rr3 = rr.clone();
        rpc.call_service(
            &mut sim,
            Addr::new("c"),
            "api".into(),
            Rc::new(move |_| rr3.next()),
            "x".to_string(),
            SimDuration::from_millis(100),
            5,
            SimDuration::from_millis(20),
            move |_, r| *g.borrow_mut() = Some(r),
        );
        sim.run_until_idle();
        assert_eq!(*got.borrow(), Some(Ok("served".into())));
    }

    #[test]
    fn call_service_gives_up_after_retries() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        rpc.call_service(
            &mut sim,
            Addr::new("c"),
            "ghost".into(),
            Rc::new(|_| None),
            "x".to_string(),
            SimDuration::from_millis(100),
            2,
            SimDuration::from_millis(10),
            move |_, r| *g.borrow_mut() = Some(r),
        );
        sim.run_until_idle();
        assert_eq!(
            *got.borrow(),
            Some(Err(RpcError::NoEndpoint("ghost".into())))
        );
    }

    #[test]
    fn endpoint_serves_and_calls_simultaneously() {
        // Regression: making an outbound call from a serving address must
        // not clobber its server registration (the API service calls the
        // LCM while serving users).
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        rpc.serve(Addr::new("lcm"), |sim, _req: &String, r| {
            r.ok(sim, "lcm-ok".into());
        });
        let middle = rpc.clone();
        rpc.serve(Addr::new("api"), move |sim, req: &String, r| {
            if req == "ping" {
                r.ok(sim, "pong".into());
            } else {
                // Outbound call from the serving address.
                middle.call(
                    sim,
                    Addr::new("api"),
                    Addr::new("lcm"),
                    "deploy".to_string(),
                    SimDuration::from_secs(1),
                    move |sim, result| {
                        r.ok(sim, format!("forwarded:{}", result.unwrap()));
                    },
                );
            }
        });

        let first = Rc::new(RefCell::new(None));
        let f = first.clone();
        rpc.call(
            &mut sim,
            Addr::new("c"),
            Addr::new("api"),
            "submit".to_string(),
            SimDuration::from_secs(1),
            move |_, r| *f.borrow_mut() = Some(r),
        );
        sim.run_until_idle();
        assert_eq!(*first.borrow(), Some(Ok("forwarded:lcm-ok".into())));

        // The address must still serve AFTER having made an outbound call.
        let second = Rc::new(RefCell::new(None));
        let s = second.clone();
        rpc.call(
            &mut sim,
            Addr::new("c"),
            Addr::new("api"),
            "ping".to_string(),
            SimDuration::from_secs(1),
            move |_, r| *s.borrow_mut() = Some(r),
        );
        sim.run_until_idle();
        assert_eq!(*second.borrow(), Some(Ok("pong".into())));
    }

    #[test]
    fn stop_serving_then_reserve_restores_service() {
        let mut sim = Sim::new(2);
        let rpc = layer(&mut sim);
        rpc.serve(Addr::new("s"), |sim, _req: &String, r| {
            r.ok(sim, "v1".into());
        });
        rpc.stop_serving(&Addr::new("s"));
        let dead = Rc::new(RefCell::new(None));
        let d = dead.clone();
        rpc.call(
            &mut sim,
            Addr::new("c"),
            Addr::new("s"),
            "x".to_string(),
            SimDuration::from_millis(50),
            move |_, r| *d.borrow_mut() = Some(r),
        );
        sim.run_until_idle();
        assert_eq!(*dead.borrow(), Some(Err(RpcError::Timeout)));

        rpc.serve(Addr::new("s"), |sim, _req: &String, r| {
            r.ok(sim, "v2".into());
        });
        let live = Rc::new(RefCell::new(None));
        let l = live.clone();
        rpc.call(
            &mut sim,
            Addr::new("c"),
            Addr::new("s"),
            "x".to_string(),
            SimDuration::from_secs(1),
            move |_, r| *l.borrow_mut() = Some(r),
        );
        sim.run_until_idle();
        assert_eq!(*live.borrow(), Some(Ok("v2".into())));
    }

    #[test]
    fn round_robin_rotates_and_skips_unhealthy() {
        let rr = RoundRobin::new();
        assert!(rr.is_empty());
        assert_eq!(rr.next(), None);
        rr.add(Addr::new("a"));
        rr.add(Addr::new("b"));
        rr.add(Addr::new("a")); // duplicate ignored
        assert_eq!(rr.len(), 2);
        assert_eq!(rr.next(), Some(Addr::new("a")));
        assert_eq!(rr.next(), Some(Addr::new("b")));
        rr.set_healthy(&Addr::new("b"), false);
        assert_eq!(rr.next(), Some(Addr::new("a")));
        assert_eq!(rr.next(), Some(Addr::new("a")));
        rr.set_healthy(&Addr::new("b"), true);
        rr.remove(&Addr::new("a"));
        assert_eq!(rr.next(), Some(Addr::new("b")));
    }

    #[test]
    fn concurrent_calls_correlate_correctly() {
        let mut sim = Sim::new(1);
        let rpc: RpcLayer<u32, u32> = RpcLayer::new(
            &mut sim,
            LatencyModel::Uniform(SimDuration::from_millis(1), SimDuration::from_millis(20)),
        );
        rpc.serve(Addr::new("sq"), |sim, req, r| r.ok(sim, req * req));
        let results = Rc::new(RefCell::new(Vec::new()));
        for i in 0..20u32 {
            let res = results.clone();
            rpc.call(
                &mut sim,
                Addr::new("c"),
                Addr::new("sq"),
                i,
                SimDuration::from_secs(1),
                move |_, r| res.borrow_mut().push((i, r.unwrap())),
            );
        }
        sim.run_until_idle();
        let results = results.borrow();
        assert_eq!(results.len(), 20);
        for (i, sq) in results.iter() {
            assert_eq!(*sq, i * i);
        }
    }
}
