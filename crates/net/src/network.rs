//! The simulated message network.
//!
//! [`Net`] connects named endpoints (see [`Addr`]) and delivers typed
//! messages between them with modelled latency, optional loss, endpoint
//! up/down state, and partitions. It is a cheap-to-clone handle over shared
//! state, so components capture a clone in their event callbacks.
//!
//! Delivery semantics follow the asynchronous-network model used by the
//! paper's substrates (GRPC over a datacenter network, etcd's Raft):
//! messages may be delayed, dropped, or reordered (by unequal latency), but
//! are never corrupted or duplicated by the network itself.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use dlaas_sim::{Sim, SimDuration, SimRng, SimTime};

use crate::{Addr, LatencyModel};

/// A message in flight, as seen by the receiving handler.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sender address.
    pub from: Addr,
    /// Receiver address.
    pub to: Addr,
    /// When the message was sent.
    pub sent_at: SimTime,
    /// The payload.
    pub msg: M,
}

/// Counters describing network activity so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages passed to [`Net::send`].
    pub sent: u64,
    /// Messages delivered to a handler.
    pub delivered: u64,
    /// Messages dropped by the random-loss model.
    pub dropped_loss: u64,
    /// Messages dropped because sender and receiver were partitioned.
    pub dropped_partition: u64,
    /// Messages dropped because the receiver was down or unregistered.
    pub dropped_down: u64,
}

type Handler<M> = Rc<dyn Fn(&mut Sim, Envelope<M>)>;

/// What [`Net::on_rule_change`] installs.
type Hook = Rc<dyn Fn(&mut Sim)>;

struct Endpoint<M> {
    handler: Handler<M>,
    up: bool,
}

struct State<M> {
    endpoints: BTreeMap<Addr, Endpoint<M>>,
    latency: LatencyModel,
    loss: f64,
    blocked_pairs: BTreeSet<(Addr, Addr)>,
    groups: Vec<BTreeSet<Addr>>,
    rng: SimRng,
    stats: NetStats,
    /// While the handler of a timed request ([`Net::send_exchange`]) runs:
    /// the replier, the requester and the latency drawn for the answer.
    reply: Option<(Addr, Addr, SimDuration)>,
    on_rule_change: Option<Hook>,
}

impl<M> State<M> {
    /// `true` when traffic `from → to` is currently blocked by a partition.
    ///
    /// Runs on every send and every deliver, and outside a partition
    /// fault both sets are empty: that path touches nothing else.
    fn partitioned(&self, from: &Addr, to: &Addr) -> bool {
        if !self.blocked_pairs.is_empty()
            && self.blocked_pairs.contains(&(from.clone(), to.clone()))
        {
            return true;
        }
        if self.groups.is_empty() {
            return false;
        }
        let gf = self.groups.iter().position(|g| g.contains(from));
        let gt = self.groups.iter().position(|g| g.contains(to));
        match (gf, gt) {
            // Both sides belong to groups: blocked iff different groups.
            (Some(a), Some(b)) => a != b,
            // An address outside every group is unaffected by the partition.
            _ => false,
        }
    }
}

/// Handle to the simulated network carrying messages of type `M`.
///
/// # Examples
///
/// ```
/// use dlaas_net::{Addr, LatencyModel, Net};
/// use dlaas_sim::{Sim, SimDuration};
/// use std::{cell::RefCell, rc::Rc};
///
/// let mut sim = Sim::new(1);
/// let net: Net<String> = Net::new(&mut sim, LatencyModel::Fixed(SimDuration::from_millis(1)));
///
/// let seen = Rc::new(RefCell::new(Vec::new()));
/// let s = seen.clone();
/// net.register(Addr::new("b"), move |_sim, env| {
///     s.borrow_mut().push(env.msg);
/// });
///
/// net.send(&mut sim, Addr::new("a"), Addr::new("b"), "hello".to_string());
/// sim.run_until_idle();
/// assert_eq!(*seen.borrow(), vec!["hello".to_string()]);
/// ```
pub struct Net<M> {
    state: Rc<RefCell<State<M>>>,
}

impl<M> Clone for Net<M> {
    fn clone(&self) -> Self {
        Net {
            state: self.state.clone(),
        }
    }
}

impl<M> fmt::Debug for Net<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("Net")
            .field("endpoints", &s.endpoints.len())
            .field("loss", &s.loss)
            .field("stats", &s.stats)
            .finish()
    }
}

impl<M: 'static> Net<M> {
    /// Creates a network with the given default latency model and no loss.
    /// Each network of a world draws its latencies from a stream of its
    /// own ([`Sim::fork_rng`]).
    ///
    /// The world's end ([`Sim::at_end`]) drops every endpoint's handler and
    /// the rule hook, since a handler holds the component it delivers to
    /// and that component holds the network. Counters stay readable.
    pub fn new(sim: &mut Sim, latency: LatencyModel) -> Self {
        let rng = sim.fork_rng("net");
        let state = Rc::new(RefCell::new(State {
            endpoints: BTreeMap::new(),
            latency,
            loss: 0.0,
            blocked_pairs: BTreeSet::new(),
            groups: Vec::new(),
            rng,
            stats: NetStats::default(),
            reply: None,
            on_rule_change: None,
        }));
        let world = Rc::downgrade(&state);
        sim.at_end(move |_| {
            if let Some(state) = world.upgrade() {
                let dropped = {
                    let mut s = state.borrow_mut();
                    (std::mem::take(&mut s.endpoints), s.on_rule_change.take())
                };
                // Outside the borrow: a handler may own the last handle on
                // a component whose teardown reaches this network.
                drop(dropped);
            }
        });
        Net { state }
    }

    /// Registers (or replaces) the handler for `addr` and marks it up.
    pub fn register(&self, addr: Addr, handler: impl Fn(&mut Sim, Envelope<M>) + 'static) {
        self.state.borrow_mut().endpoints.insert(
            addr,
            Endpoint {
                handler: Rc::new(handler),
                up: true,
            },
        );
    }

    /// Removes the endpoint entirely; in-flight messages to it are dropped
    /// at delivery time.
    pub fn unregister(&self, addr: &Addr) {
        self.state.borrow_mut().endpoints.remove(addr);
    }

    /// Marks an endpoint up or down without removing its handler. Messages
    /// to a down endpoint are dropped at delivery time (a crashed process
    /// does not receive traffic).
    pub fn set_up(&self, sim: &mut Sim, addr: &Addr, up: bool) {
        if let Some(ep) = self.state.borrow_mut().endpoints.get_mut(addr) {
            ep.up = up;
        }
        self.rules_changed(sim);
    }

    /// Sets the probability in `[0, 1]` that any message is silently lost.
    pub fn set_loss(&self, sim: &mut Sim, p: f64) {
        self.state.borrow_mut().loss = p.clamp(0.0, 1.0);
        self.rules_changed(sim);
    }

    /// Replaces the latency model for all messages sent from now on.
    /// Messages already in flight keep their sampled delay (fault windows
    /// degrade new traffic, they do not rewrite history).
    pub fn set_latency(&self, sim: &mut Sim, model: LatencyModel) {
        self.state.borrow_mut().latency = model;
        self.rules_changed(sim);
    }

    /// The current latency model (so a fault window can restore it).
    pub fn latency(&self) -> LatencyModel {
        self.state.borrow().latency.clone()
    }

    /// Draws one latency of the current model from the caller's stream
    /// (see [`Net::send_exchange`]).
    pub fn draw_latency(&self, rng: &mut SimRng) -> SimDuration {
        self.state.borrow().latency.sample(rng)
    }

    /// A latency no message sent under the current model exceeds.
    pub fn latency_bound(&self) -> SimDuration {
        self.state.borrow().latency.bound()
    }

    /// Addresses of all registered endpoints, sorted (leak diagnostics).
    pub fn endpoint_addrs(&self) -> Vec<Addr> {
        let mut addrs: Vec<Addr> = self.state.borrow().endpoints.keys().cloned().collect();
        addrs.sort();
        addrs
    }

    /// Blocks traffic in **both** directions between `a` and `b`.
    pub fn block_pair(&self, sim: &mut Sim, a: Addr, b: Addr) {
        {
            let mut s = self.state.borrow_mut();
            s.blocked_pairs.insert((a.clone(), b.clone()));
            s.blocked_pairs.insert((b, a));
        }
        self.rules_changed(sim);
    }

    /// Removes a pairwise block installed by [`Net::block_pair`].
    pub fn unblock_pair(&self, sim: &mut Sim, a: &Addr, b: &Addr) {
        {
            let mut s = self.state.borrow_mut();
            s.blocked_pairs.remove(&(a.clone(), b.clone()));
            s.blocked_pairs.remove(&(b.clone(), a.clone()));
        }
        self.rules_changed(sim);
    }

    /// Installs a group partition: traffic between addresses in different
    /// groups is blocked; addresses not mentioned are unaffected. Replaces
    /// any previous group partition.
    pub fn partition(&self, sim: &mut Sim, groups: Vec<Vec<Addr>>) {
        self.state.borrow_mut().groups = groups
            .into_iter()
            .map(|g| g.into_iter().collect())
            .collect();
        self.rules_changed(sim);
    }

    /// Removes the group partition and all pairwise blocks.
    pub fn heal(&self, sim: &mut Sim) {
        {
            let mut s = self.state.borrow_mut();
            s.groups.clear();
            s.blocked_pairs.clear();
        }
        self.rules_changed(sim);
    }

    /// `true` while nothing but a down endpoint can stop a message: no
    /// partition, no blocked pair, no loss.
    pub fn is_open(&self) -> bool {
        let s = self.state.borrow();
        s.groups.is_empty() && s.blocked_pairs.is_empty() && s.loss == 0.0
    }

    /// Installs the one callback every mutator of the network's rules —
    /// [`Net::set_up`], [`Net::set_loss`], [`Net::set_latency`],
    /// [`Net::block_pair`], [`Net::unblock_pair`], [`Net::partition`],
    /// [`Net::heal`] — runs once the change is made. A component that
    /// settled exchanges under the old rules puts them back on the wire
    /// here ([`Net::resume_request`]).
    pub fn on_rule_change(&self, hook: impl Fn(&mut Sim) + 'static) {
        self.state.borrow_mut().on_rule_change = Some(Rc::new(hook));
    }

    fn rules_changed(&self, sim: &mut Sim) {
        let hook = self.state.borrow().on_rule_change.clone();
        if let Some(hook) = hook {
            hook(sim);
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> NetStats {
        self.state.borrow().stats
    }

    /// Sends `msg` from `from` to `to`.
    ///
    /// The message is dropped (with the appropriate counter bumped) if the
    /// pair is partitioned at send time, the loss model fires, or the
    /// receiver is down/unregistered at delivery time.
    ///
    /// Inside the handler of a request sent with [`Net::send_exchange`],
    /// the first message back to the requester is its reply and travels
    /// on the latency drawn for it then.
    pub fn send(&self, sim: &mut Sim, from: Addr, to: Addr, msg: M) {
        let Some(delay) = self.admit(&from, &to, None) else {
            return;
        };
        let net = self.clone();
        let sent_at = sim.now();
        sim.schedule_in(delay, move |sim| {
            let env = Envelope {
                from,
                to,
                sent_at,
                msg,
            };
            net.deliver(sim, env, None);
        });
    }

    /// Sends a request whose round trip is drawn up front, from the
    /// caller's own stream ([`Net::draw_latency`]): it arrives `there`
    /// after now, and the receiver's reply (see [`Net::send`]) takes
    /// `back`. Drops and counters are those of [`Net::send`].
    pub fn send_exchange(
        &self,
        sim: &mut Sim,
        from: Addr,
        to: Addr,
        msg: M,
        there: SimDuration,
        back: SimDuration,
    ) {
        let Some(there) = self.admit(&from, &to, Some(there)) else {
            return;
        };
        let net = self.clone();
        let sent_at = sim.now();
        sim.schedule_in(there, move |sim| {
            let env = Envelope {
                from,
                to,
                sent_at,
                msg,
            };
            net.deliver(sim, env, Some(back));
        });
    }

    /// Counts an exchange its sender settled without the wire — a request
    /// and its reply, each sent and delivered — as [`Net::send_exchange`]
    /// would have by the time the reply landed. Sound only while the
    /// network [`is_open`](Net::is_open) and both ends are up; a sender
    /// whose exchange is still in flight when a rule changes
    /// ([`Net::on_rule_change`]) puts it back on the wire.
    pub fn count_settled_exchange(&self) {
        let mut s = self.state.borrow_mut();
        s.stats.sent += 2;
        s.stats.delivered += 2;
    }

    /// Puts a settled exchange whose request has not arrived back on the
    /// wire: `request` is delivered at `arrives`, and its receiver's reply
    /// takes `back`, as under [`Net::send_exchange`]. The delivery and
    /// the reply are counted again when they happen.
    pub fn resume_request(
        &self,
        sim: &mut Sim,
        request: Envelope<M>,
        arrives: SimTime,
        back: SimDuration,
    ) {
        {
            let mut s = self.state.borrow_mut();
            s.stats.sent -= 1;
            s.stats.delivered -= 2;
        }
        let net = self.clone();
        sim.schedule_at(arrives, move |sim| net.deliver(sim, request, Some(back)));
    }

    /// Puts the reply of a settled exchange, sent when its request
    /// arrived, back on the wire: it is delivered at `arrives`, and
    /// counted again then.
    pub fn resume_reply(&self, sim: &mut Sim, reply: Envelope<M>, arrives: SimTime) {
        self.state.borrow_mut().stats.delivered -= 1;
        let net = self.clone();
        sim.schedule_at(arrives, move |sim| net.deliver(sim, reply, None));
    }

    /// Counts a message `from → to` sent and returns its latency, or
    /// `None` when the pair is partitioned or the loss model fires. The
    /// latency is `drawn` when the caller drew it, the one drawn for this
    /// message when it is the reply to a timed request, and a sample of
    /// the model from the network's stream otherwise.
    fn admit(&self, from: &Addr, to: &Addr, drawn: Option<SimDuration>) -> Option<SimDuration> {
        let mut s = self.state.borrow_mut();
        let drawn = drawn.or_else(|| match &s.reply {
            Some((replier, requester, _)) if replier == from && requester == to => {
                s.reply.take().map(|(_, _, back)| back)
            }
            _ => None,
        });
        s.stats.sent += 1;
        if s.partitioned(from, to) {
            s.stats.dropped_partition += 1;
            return None;
        }
        let loss = s.loss;
        if loss > 0.0 && s.rng.chance(loss) {
            s.stats.dropped_loss += 1;
            return None;
        }
        Some(drawn.unwrap_or_else(|| {
            let model = s.latency.clone();
            model.sample(&mut s.rng)
        }))
    }

    fn deliver(&self, sim: &mut Sim, env: Envelope<M>, back: Option<SimDuration>) {
        let handler = {
            let mut s = self.state.borrow_mut();
            // A partition installed while the message was in flight also
            // blocks delivery (the TCP connection is cut).
            if s.partitioned(&env.from, &env.to) {
                s.stats.dropped_partition += 1;
                return;
            }
            let handler = match s.endpoints.get(&env.to) {
                Some(ep) if ep.up => Some(ep.handler.clone()),
                _ => None,
            };
            match handler {
                Some(h) => {
                    s.stats.delivered += 1;
                    if let Some(back) = back {
                        s.reply = Some((env.to.clone(), env.from.clone(), back));
                    }
                    h
                }
                None => {
                    s.stats.dropped_down += 1;
                    return;
                }
            }
        };
        handler(sim, env);
        if back.is_some() {
            self.state.borrow_mut().reply = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlaas_sim::SimDuration;

    fn fixed_net(sim: &mut Sim, ms: u64) -> Net<u32> {
        Net::new(sim, LatencyModel::Fixed(SimDuration::from_millis(ms)))
    }

    fn collector(net: &Net<u32>, addr: &str) -> Rc<RefCell<Vec<u32>>> {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        net.register(Addr::new(addr), move |_, env| s.borrow_mut().push(env.msg));
        seen
    }

    #[test]
    fn delivers_with_latency() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 5);
        let seen = collector(&net, "b");
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 42);
        sim.run_until_idle();
        assert_eq!(*seen.borrow(), vec![42]);
        assert_eq!(sim.now(), dlaas_sim::SimTime::from_millis(5));
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn unknown_endpoint_drops() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        net.send(&mut sim, Addr::new("a"), Addr::new("ghost"), 1);
        sim.run_until_idle();
        assert_eq!(net.stats().dropped_down, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn down_endpoint_drops_until_back_up() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        let seen = collector(&net, "b");
        net.set_up(&mut sim, &Addr::new("b"), false);
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 1);
        sim.run_until_idle();
        assert!(seen.borrow().is_empty());

        net.set_up(&mut sim, &Addr::new("b"), true);
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 2);
        sim.run_until_idle();
        assert_eq!(*seen.borrow(), vec![2]);
    }

    #[test]
    fn crash_mid_flight_drops_at_delivery() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 10);
        let seen = collector(&net, "b");
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 7);
        // The endpoint goes down while the message is in flight.
        let net2 = net.clone();
        sim.schedule_in(SimDuration::from_millis(5), move |sim| {
            net2.set_up(sim, &Addr::new("b"), false);
        });
        sim.run_until_idle();
        assert!(seen.borrow().is_empty());
        assert_eq!(net.stats().dropped_down, 1);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        let seen = collector(&net, "b");
        net.set_loss(&mut sim, 1.0);
        for i in 0..10 {
            net.send(&mut sim, Addr::new("a"), Addr::new("b"), i);
        }
        sim.run_until_idle();
        assert!(seen.borrow().is_empty());
        assert_eq!(net.stats().dropped_loss, 10);
    }

    #[test]
    fn partial_loss_drops_some() {
        let mut sim = Sim::new(2);
        let net = fixed_net(&mut sim, 1);
        let seen = collector(&net, "b");
        net.set_loss(&mut sim, 0.5);
        for i in 0..200 {
            net.send(&mut sim, Addr::new("a"), Addr::new("b"), i);
        }
        sim.run_until_idle();
        let n = seen.borrow().len();
        assert!((60..140).contains(&n), "delivered {n}");
    }

    #[test]
    fn pair_block_is_bidirectional_and_healable() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        let sa = collector(&net, "a");
        let sb = collector(&net, "b");
        net.block_pair(&mut sim, Addr::new("a"), Addr::new("b"));
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 1);
        net.send(&mut sim, Addr::new("b"), Addr::new("a"), 2);
        sim.run_until_idle();
        assert!(sa.borrow().is_empty() && sb.borrow().is_empty());
        assert_eq!(net.stats().dropped_partition, 2);

        net.unblock_pair(&mut sim, &Addr::new("a"), &Addr::new("b"));
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 3);
        sim.run_until_idle();
        assert_eq!(*sb.borrow(), vec![3]);
    }

    #[test]
    fn group_partition_blocks_cross_group_only() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        let sa = collector(&net, "a");
        let sb = collector(&net, "b");
        let sc = collector(&net, "c");
        net.partition(
            &mut sim,
            vec![vec![Addr::new("a"), Addr::new("b")], vec![Addr::new("c")]],
        );
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 1); // same group
        net.send(&mut sim, Addr::new("a"), Addr::new("c"), 2); // cross group
        net.send(&mut sim, Addr::new("c"), Addr::new("a"), 3); // cross group
                                                               // "d" is outside the partition spec: unaffected.
        net.send(&mut sim, Addr::new("d"), Addr::new("a"), 4);
        sim.run_until_idle();
        assert_eq!(*sb.borrow(), vec![1]);
        assert!(sc.borrow().is_empty());
        assert_eq!(*sa.borrow(), vec![4]);

        net.heal(&mut sim);
        net.send(&mut sim, Addr::new("a"), Addr::new("c"), 5);
        sim.run_until_idle();
        assert_eq!(*sc.borrow(), vec![5]);
    }

    #[test]
    fn partition_installed_mid_flight_blocks_delivery() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 10);
        let seen = collector(&net, "b");
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 1);
        let net2 = net.clone();
        sim.schedule_in(SimDuration::from_millis(3), move |sim| {
            net2.partition(sim, vec![vec![Addr::new("a")], vec![Addr::new("b")]]);
        });
        sim.run_until_idle();
        assert!(seen.borrow().is_empty());
    }

    #[test]
    fn set_latency_affects_new_sends_only() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        let seen = collector(&net, "b");
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 1); // 1 ms
        net.set_latency(&mut sim, LatencyModel::Fixed(SimDuration::from_millis(50)));
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 2); // 50 ms
        sim.run_until(dlaas_sim::SimTime::from_millis(10));
        assert_eq!(*seen.borrow(), vec![1], "in-flight kept its old delay");
        sim.run_until_idle();
        assert_eq!(*seen.borrow(), vec![1, 2]);
        assert_eq!(sim.now(), dlaas_sim::SimTime::from_millis(50));
        // The old model can be read back and restored.
        net.set_latency(&mut sim, LatencyModel::Fixed(SimDuration::from_millis(1)));
        match net.latency() {
            LatencyModel::Fixed(d) => assert_eq!(d, SimDuration::from_millis(1)),
            other => panic!("unexpected model: {other:?}"),
        }
    }

    #[test]
    fn an_exchange_travels_on_its_drawn_latencies_both_ways() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        let replier = net.clone();
        net.register(Addr::new("b"), move |sim, env| {
            // The reply, then a second message that is no reply.
            replier.send(sim, env.to.clone(), env.from.clone(), env.msg + 1);
            replier.send(sim, env.to.clone(), env.from.clone(), env.msg + 2);
        });
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        net.register(Addr::new("a"), move |sim, env| {
            s.borrow_mut().push((sim.now().as_millis(), env.msg));
        });
        let ms = SimDuration::from_millis;
        net.send_exchange(&mut sim, Addr::new("a"), Addr::new("b"), 10, ms(5), ms(7));
        sim.run_until_idle();
        assert_eq!(*seen.borrow(), vec![(6, 12), (12, 11)]);
        // A plain request's reply samples the model.
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 20);
        sim.run_until_idle();
        assert_eq!(seen.borrow()[2..], [(14, 21), (14, 22)]);
        assert_eq!(net.stats().sent, 6);
    }

    #[test]
    fn a_settled_exchange_put_back_on_the_wire_is_a_sent_one() {
        // One exchange — request there in 5 ms, reply back in 7 — sent;
        // settled and resumed before the request arrived; settled and
        // resumed before the reply landed.
        let ms = SimDuration::from_millis;
        let run = |resume_at: Option<u64>| {
            let mut sim = Sim::new(1);
            let net = fixed_net(&mut sim, 1);
            let replier = net.clone();
            net.register(Addr::new("b"), move |sim, env| {
                replier.send(sim, env.to.clone(), env.from.clone(), env.msg + 1);
            });
            let seen = Rc::new(RefCell::new(Vec::new()));
            let s = seen.clone();
            net.register(Addr::new("a"), move |sim, env| {
                s.borrow_mut().push((sim.now().as_millis(), env.msg));
            });
            let envelope = |from: &str, to: &str, sent_at: u64, msg: u32| Envelope {
                from: Addr::new(from),
                to: Addr::new(to),
                sent_at: SimTime::from_millis(sent_at),
                msg,
            };
            match resume_at {
                None => {
                    net.send_exchange(&mut sim, Addr::new("a"), Addr::new("b"), 10, ms(5), ms(7));
                }
                Some(at) => {
                    net.count_settled_exchange();
                    sim.run_until(SimTime::from_millis(at));
                    if at < 5 {
                        let request = envelope("a", "b", 0, 10);
                        net.resume_request(&mut sim, request, SimTime::from_millis(5), ms(7));
                    } else {
                        let reply = envelope("b", "a", 5, 11);
                        net.resume_reply(&mut sim, reply, SimTime::from_millis(12));
                    }
                }
            }
            sim.run_until_idle();
            let seen = seen.take();
            (seen, net.stats())
        };
        let sent = run(None);
        assert_eq!(sent.0, vec![(12, 11)]);
        assert_eq!((sent.1.sent, sent.1.delivered), (2, 2));
        assert_eq!(run(Some(3)), sent);
        assert_eq!(run(Some(8)), sent);
    }

    #[test]
    fn every_rule_change_runs_the_hook() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        let _b = collector(&net, "b");
        let runs = Rc::new(std::cell::Cell::new(0));
        let r = runs.clone();
        net.on_rule_change(move |_| r.set(r.get() + 1));
        let (a, b) = (Addr::new("a"), Addr::new("b"));
        net.set_up(&mut sim, &b, false);
        net.set_loss(&mut sim, 0.1);
        net.set_latency(&mut sim, LatencyModel::local());
        net.block_pair(&mut sim, a.clone(), b.clone());
        net.unblock_pair(&mut sim, &a, &b);
        net.partition(&mut sim, vec![vec![a], vec![b]]);
        assert!(!net.is_open());
        net.heal(&mut sim);
        net.set_loss(&mut sim, 0.0);
        assert!(net.is_open());
        assert_eq!(runs.get(), 8);
    }

    #[test]
    fn two_networks_of_one_world_draw_independent_latencies() {
        let mut sim = Sim::new(9);
        let arrivals = |sim: &mut Sim| {
            let net: Net<u32> = Net::new(sim, LatencyModel::datacenter());
            let seen = Rc::new(RefCell::new(Vec::new()));
            let s = seen.clone();
            net.register(Addr::new("b"), move |sim, env| {
                s.borrow_mut().push(sim.now() - env.sent_at);
            });
            for i in 0..20 {
                net.send(sim, Addr::new("a"), Addr::new("b"), i);
            }
            sim.run_until_idle();
            seen.take()
        };
        let first = arrivals(&mut sim);
        let second = arrivals(&mut sim);
        assert_eq!(first.len(), 20);
        assert_ne!(
            first, second,
            "the k-th message of each network got the same delay"
        );
    }

    #[test]
    fn endpoint_accounting() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        assert!(net.endpoint_addrs().is_empty());
        let _a = collector(&net, "a");
        let _b = collector(&net, "b");
        let _b2 = collector(&net, "b"); // replaces, no growth
        assert_eq!(net.endpoint_addrs(), vec![Addr::new("a"), Addr::new("b")]);
        net.unregister(&Addr::new("a"));
        assert_eq!(net.endpoint_addrs(), vec![Addr::new("b")]);
    }

    #[test]
    fn handlers_can_reply() {
        let mut sim = Sim::new(1);
        let net: Net<u32> = fixed_net(&mut sim, 1);
        // "server" echoes incremented value back to sender.
        let net_for_server = net.clone();
        net.register(Addr::new("server"), move |sim, env| {
            net_for_server.send(sim, env.to.clone(), env.from.clone(), env.msg + 1);
        });
        let seen = collector(&net, "client");
        net.send(&mut sim, Addr::new("client"), Addr::new("server"), 10);
        sim.run_until_idle();
        assert_eq!(*seen.borrow(), vec![11]);
    }

    #[test]
    fn reregistering_replaces_handler() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        let first = collector(&net, "x");
        let second = collector(&net, "x"); // replaces the first handler
        net.send(&mut sim, Addr::new("a"), Addr::new("x"), 9);
        sim.run_until_idle();
        assert!(first.borrow().is_empty());
        assert_eq!(*second.borrow(), vec![9]);
    }

    #[test]
    fn unregister_drops() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        let seen = collector(&net, "b");
        net.unregister(&Addr::new("b"));
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 1);
        sim.run_until_idle();
        assert!(seen.borrow().is_empty());
    }
}
