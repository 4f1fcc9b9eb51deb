//! Request/response RPC over the simulated network, and the retry loop.
//!
//! The paper's microservices communicate over GRPC. [`RpcLayer`] reproduces
//! the relevant semantics: typed request/response pairs and deadlines
//! (timeouts). A client that retries names a [`Retry`] (timeout, backoff,
//! and a budget from the first send) and sends through it; its
//! [`Attempts`] say where each attempt goes (a service's [`Resolver`] picks
//! a healthy instance per attempt) and which answers ask again.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use dlaas_sim::{EventId, Sim, SimDuration, SimTime};

use crate::metrics::{RPC_BUDGETS_SPENT, RPC_RETRIES};
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

/// A service's endpoint resolution: a healthy endpoint of the service, or
/// [`RpcError::NoEndpoint`] naming it when none exists right now.
pub type Resolver = Rc<dyn Fn(&mut Sim) -> Result<Addr, RpcError>>;

struct Pending<Resp> {
    reply: ReplyFn<Resp>,
    /// The calling address, which [`RpcLayer::leave_when_idle`] waits on.
    from: Addr,
    /// The type name of the caller's continuation, which the event that
    /// runs it is charged to ([`Sim::charge_to`]).
    site: &'static str,
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
    /// Addresses whose endpoint goes once no call from them is pending
    /// ([`RpcLayer::leave_when_idle`]).
    leaving: std::collections::BTreeSet<Addr>,
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
    ///
    /// The world's end ([`Sim::at_end`]) drops every pending call's
    /// continuation and every server handler — no continuation runs, not
    /// even as a timeout — before the network drops its endpoints.
    pub fn new(sim: &mut Sim, latency: LatencyModel) -> Self {
        let net = Net::new(sim, latency);
        let state = Rc::new(RefCell::new(LayerState {
            pending: BTreeMap::new(),
            next_id: 0,
            endpoints: Default::default(),
            servers: BTreeMap::new(),
            leaving: Default::default(),
        }));
        let world = Rc::downgrade(&state);
        sim.at_end(move |_| {
            if let Some(state) = world.upgrade() {
                let dropped = {
                    let mut s = state.borrow_mut();
                    (
                        std::mem::take(&mut s.pending),
                        std::mem::take(&mut s.servers),
                    )
                };
                drop(dropped);
            }
        });
        RpcLayer { net, state }
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
            s.leaving.remove(addr);
        }
        self.net.unregister(addr);
    }

    /// Unregisters the calling address `addr` once no call from it is
    /// pending: at once if none is, else when the last one is answered
    /// or times out, so no reply that would have landed is dropped.
    /// Pending calls are matched by address, not by caller, so a
    /// successor calling from the same address keeps the endpoint until
    /// its own calls settle too. A later call from `addr` registers it
    /// again. An address that serves stays (see [`RpcLayer::stop_serving`]).
    pub fn leave_when_idle(&self, addr: &Addr) {
        {
            let mut s = self.state.borrow_mut();
            s.leaving.remove(addr);
            if s.servers.contains_key(addr) {
                return;
            }
            if s.pending.values().any(|p| p.from == *addr) {
                s.leaving.insert(addr.clone());
                return;
            }
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
            sim.charge_to(p.site);
            (p.reply)(sim, result);
            // After the reply, which may have called again from here.
            if self.state.borrow().leaving.contains(&p.from) {
                self.leave_when_idle(&p.from);
            }
        }
        // else: response arrived after timeout — dropped, caller already failed.
    }

    /// Issues a request from `from` to the fixed endpoint `to` with a
    /// deadline. Exactly one of the outcomes is delivered to `on_reply`:
    /// the response, a remote error, or [`RpcError::Timeout`]. A caller
    /// that may retry passes an `Rc<Req>` and keeps a share of it.
    pub fn call<F: FnOnce(&mut Sim, Result<Resp, RpcError>) + 'static>(
        &self,
        sim: &mut Sim,
        from: Addr,
        to: Addr,
        req: impl Into<Rc<Req>>,
        timeout: SimDuration,
        on_reply: F,
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
                from: from.clone(),
                site: std::any::type_name::<F>(),
                timeout_ev,
            },
        );
        let req = req.into();
        self.net.send(sim, from, to, RpcFrame::Request { id, req });
    }
}

/// How a caller retries a request ([`Retry::send`]).
#[derive(Debug)]
pub struct Retry {
    /// The caller, as the retry counters name it.
    pub name: &'static str,
    /// Each attempt's deadline.
    pub timeout: SimDuration,
    /// The wait after an attempt that asks again.
    pub backoff: SimDuration,
    /// How long after the first send an attempt may start: under pure
    /// timeouts, `n × (timeout + backoff)` sends `n` attempts.
    pub budget: SimDuration,
}

/// A caller's own part of a retried request.
pub trait Attempts<Resp>: 'static {
    /// Where the next attempt goes, asked as each starts. An `Err` is the
    /// answer of an attempt that could not be sent.
    fn target(&mut self, sim: &mut Sim) -> Result<Addr, RpcError>;

    /// Whether an answer asks again. By default a timeout or no endpoint
    /// does; a reply or an application error reached a server.
    fn again(&mut self, _sim: &mut Sim, answer: &Result<Resp, RpcError>) -> bool {
        matches!(answer, Err(RpcError::Timeout | RpcError::NoEndpoint(_)))
    }

    /// Whether the caller stopped, asked before each attempt and before
    /// the refusal: a stopped caller sends nothing more, and no refusal
    /// reaches it.
    fn stopped(&self) -> bool {
        false
    }
}

/// A service's attempts each go where its resolver points as they start.
impl<Resp> Attempts<Resp> for Resolver {
    fn target(&mut self, sim: &mut Sim) -> Result<Addr, RpcError> {
        self(sim)
    }
}

impl Retry {
    /// Sends `req` from `from` until an answer does not ask again, and
    /// hands it to `done`; or, once no attempt may start inside the
    /// budget, the last answer. Each retry counts in [`RPC_RETRIES`],
    /// each spent budget in [`RPC_BUDGETS_SPENT`].
    pub fn send<Req: 'static, Resp: 'static>(
        &'static self,
        sim: &mut Sim,
        rpc: &RpcLayer<Req, Resp>,
        from: Addr,
        req: impl Into<Rc<Req>>,
        attempts: impl Attempts<Resp>,
        done: impl FnOnce(&mut Sim, Result<Resp, RpcError>) + 'static,
    ) {
        let deadline = sim.now() + self.budget;
        let (rpc, req) = (rpc.clone(), req.into());
        Flight {
            retry: self,
            rpc,
            from,
            req,
            deadline,
            attempts,
            done,
        }
        .attempt(sim, None);
    }
}

/// A retried request between its attempts.
struct Flight<Req: 'static, Resp: 'static, A, D> {
    retry: &'static Retry,
    rpc: RpcLayer<Req, Resp>,
    from: Addr,
    req: Rc<Req>,
    /// The first send plus the budget: no attempt starts at or past it.
    deadline: SimTime,
    attempts: A,
    done: D,
}

impl<Req, Resp, A, D> Flight<Req, Resp, A, D>
where
    A: Attempts<Resp>,
    D: FnOnce(&mut Sim, Result<Resp, RpcError>) + 'static,
{
    /// Starts the first attempt, or the next after `last` asked again,
    /// which past the deadline is the outcome instead.
    fn attempt(mut self, sim: &mut Sim, last: Option<Result<Resp, RpcError>>) {
        if self.attempts.stopped() {
            return;
        }
        if let Some(last) = last {
            let name = [self.retry.name];
            if sim.now() >= self.deadline {
                sim.metrics().counter_series(RPC_BUDGETS_SPENT, name).inc();
                return (self.done)(sim, last);
            }
            sim.metrics().counter_series(RPC_RETRIES, name).inc();
        }
        match self.attempts.target(sim) {
            Ok(to) => {
                let (rpc, from, req) = (self.rpc.clone(), self.from.clone(), self.req.clone());
                let timeout = self.retry.timeout;
                rpc.call(sim, from, to, req, timeout, move |sim, answer| {
                    self.answered(sim, answer);
                });
            }
            Err(unsent) => self.answered(sim, Err(unsent)),
        }
    }

    /// Hands `answer` on, or attempts again after the backoff.
    fn answered(mut self, sim: &mut Sim, answer: Result<Resp, RpcError>) {
        if self.attempts.again(sim, &answer) {
            let backoff = self.retry.backoff;
            sim.schedule_in(backoff, move |sim| self.attempt(sim, Some(answer)));
        } else {
            (self.done)(sim, answer);
        }
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

    /// A caller that leaves keeps its endpoint while a call from its
    /// address is pending — its own or a successor's at the same address
    /// — and loses it once none is.
    #[test]
    fn leaving_waits_for_every_call_from_the_address() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        // Answers after as many ms as the request names.
        rpc.serve(Addr::new("s"), |sim, req: &String, r| {
            let ms = req.parse().unwrap();
            sim.schedule_in(SimDuration::from_millis(ms), move |sim| {
                r.ok(sim, "ok".into());
            });
        });
        let got = Rc::new(Cell::new(0));
        let call = |sim: &mut Sim, ms: &str| {
            let g = got.clone();
            rpc.call(
                sim,
                Addr::new("c"),
                Addr::new("s"),
                ms.to_string(),
                SimDuration::from_secs(1),
                move |_, r| {
                    assert_eq!(r, Ok("ok".to_string()));
                    g.set(g.get() + 1);
                },
            );
        };
        let registered =
            |rpc: &RpcLayer<String, String>| rpc.net().endpoint_addrs().contains(&Addr::new("c"));
        call(&mut sim, "10");
        rpc.leave_when_idle(&Addr::new("c"));
        call(&mut sim, "50");
        sim.run_for(SimDuration::from_millis(30));
        assert_eq!(got.get(), 1);
        assert!(registered(&rpc), "left with a call still pending");
        sim.run_for(SimDuration::from_millis(30));
        assert_eq!(got.get(), 2, "the second reply was dropped");
        assert!(!registered(&rpc));
        // Idle: it leaves at once, and calling registers it again.
        call(&mut sim, "1");
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(got.get(), 3);
        rpc.leave_when_idle(&Addr::new("c"));
        assert!(!registered(&rpc));
        assert_eq!(rpc.net().stats().dropped_down, 0);
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

    /// A policy of 100 ms attempts 20 ms apart, for five of them.
    const FIVE: &Retry = &Retry {
        name: "five",
        timeout: SimDuration::from_millis(100),
        backoff: SimDuration::from_millis(20),
        budget: SimDuration::from_millis(600),
    };

    /// When a call was answered, in ms, and how.
    type Outcome = Rc<RefCell<Option<(u64, Result<String, RpcError>)>>>;

    /// Sends `x` through `resolve` under [`FIVE`]; the outcome lands in
    /// the cell with its instant.
    fn call_service(sim: &mut Sim, rpc: &RpcLayer<String, String>, resolve: Resolver) -> Outcome {
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let from = Addr::new("c");
        FIVE.send(sim, rpc, from, "x".to_string(), resolve, move |sim, r| {
            *g.borrow_mut() = Some((sim.now().as_millis(), r));
        });
        got
    }

    /// The series of `decl` for [`FIVE`], if it was made.
    fn five(sim: &Sim, decl: &dlaas_sim::CounterDecl<1>) -> Option<f64> {
        let series = format!("{}{{client=\"five\"}}", decl.name());
        sim.metrics().snapshot().get(&series)
    }

    #[test]
    fn call_service_retries_until_endpoint_appears() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        let endpoint: Rc<RefCell<Option<Addr>>> = Rc::default();
        // Endpoint appears after 50ms.
        let appears = endpoint.clone();
        let rpc2 = rpc.clone();
        sim.schedule_in(SimDuration::from_millis(50), move |_| {
            rpc2.serve(Addr::new("api-0"), |sim, _req: &String, r| {
                r.ok(sim, "served".into());
            });
            *appears.borrow_mut() = Some(Addr::new("api-0"));
        });
        let resolve: Resolver = Rc::new(move |_| {
            let endpoint = endpoint.borrow().clone();
            endpoint.ok_or_else(|| RpcError::NoEndpoint("api".into()))
        });
        let got = call_service(&mut sim, &rpc, resolve);
        sim.run_until_idle();
        // Resolved at 0, 20, 40 and 60 ms; served over two 1 ms hops.
        assert_eq!(*got.borrow(), Some((62, Ok("served".into()))));
        assert_eq!(five(&sim, RPC_RETRIES), Some(3.0));
        assert_eq!(five(&sim, RPC_BUDGETS_SPENT), None, "made unbumped");
    }

    /// No endpoint fails each attempt at once: the call retries for its
    /// time, not for five attempts, and is refused with the last error
    /// at the first instant an attempt would start past the budget.
    #[test]
    fn call_service_gives_up_after_retries() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        let ghost = Rc::new(|_: &mut Sim| Err(RpcError::NoEndpoint("ghost".into())));
        let got = call_service(&mut sim, &rpc, ghost);
        sim.run_until_idle();
        let refused = Err(RpcError::NoEndpoint("ghost".into()));
        assert_eq!(*got.borrow(), Some((600, refused)));
        // Attempts at 0, 20, …, 580 ms.
        assert_eq!(five(&sim, RPC_RETRIES), Some(29.0));
        assert_eq!(five(&sim, RPC_BUDGETS_SPENT), Some(1.0));
    }

    /// Under pure timeouts the budget sends exactly its `n` attempts,
    /// and the refusal is the last one's timeout.
    #[test]
    fn a_budget_of_n_timeouts_and_backoffs_sends_n_attempts() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        let got = call_service(&mut sim, &rpc, Rc::new(|_| Ok(Addr::new("mute"))));
        sim.run_until_idle();
        assert_eq!(*got.borrow(), Some((600, Err(RpcError::Timeout))));
        assert_eq!(rpc.net().stats().sent, 5);
        assert_eq!(five(&sim, RPC_RETRIES), Some(4.0));
    }

    /// An application error reached a server: it settles at once.
    #[test]
    fn a_remote_error_is_not_retried() {
        let mut sim = Sim::new(1);
        let rpc = layer(&mut sim);
        rpc.serve(Addr::new("s"), |sim, _req: &String, r| r.err(sim, "no"));
        let got = call_service(&mut sim, &rpc, Rc::new(|_| Ok(Addr::new("s"))));
        sim.run_until_idle();
        let rejected = Err(RpcError::Remote("no".into()));
        assert_eq!(*got.borrow(), Some((2, rejected)));
        assert_eq!(five(&sim, RPC_RETRIES), None);
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
