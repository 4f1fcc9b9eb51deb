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

use dlaas_sim::{Sim, SimRng, SimTime};

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
    pub fn new(sim: &mut Sim, latency: LatencyModel) -> Self {
        let rng = sim.rng().fork("net");
        Net {
            state: Rc::new(RefCell::new(State {
                endpoints: BTreeMap::new(),
                latency,
                loss: 0.0,
                blocked_pairs: BTreeSet::new(),
                groups: Vec::new(),
                rng,
                stats: NetStats::default(),
            })),
        }
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
    pub fn set_up(&self, addr: &Addr, up: bool) {
        if let Some(ep) = self.state.borrow_mut().endpoints.get_mut(addr) {
            ep.up = up;
        }
    }

    /// `true` if `addr` is registered and up.
    pub fn is_up(&self, addr: &Addr) -> bool {
        self.state
            .borrow()
            .endpoints
            .get(addr)
            .is_some_and(|e| e.up)
    }

    /// Sets the probability in `[0, 1]` that any message is silently lost.
    pub fn set_loss(&self, p: f64) {
        self.state.borrow_mut().loss = p.clamp(0.0, 1.0);
    }

    /// Replaces the latency model for all messages sent from now on.
    /// Messages already in flight keep their sampled delay (fault windows
    /// degrade new traffic, they do not rewrite history).
    pub fn set_latency(&self, model: LatencyModel) {
        self.state.borrow_mut().latency = model;
    }

    /// The current latency model (so a fault window can restore it).
    pub fn latency(&self) -> LatencyModel {
        self.state.borrow().latency.clone()
    }

    /// Number of registered endpoints (leak diagnostics).
    pub fn endpoint_count(&self) -> usize {
        self.state.borrow().endpoints.len()
    }

    /// Addresses of all registered endpoints, sorted (leak diagnostics).
    pub fn endpoint_addrs(&self) -> Vec<Addr> {
        let mut addrs: Vec<Addr> = self.state.borrow().endpoints.keys().cloned().collect();
        addrs.sort();
        addrs
    }

    /// Blocks traffic in **both** directions between `a` and `b`.
    pub fn block_pair(&self, a: Addr, b: Addr) {
        let mut s = self.state.borrow_mut();
        s.blocked_pairs.insert((a.clone(), b.clone()));
        s.blocked_pairs.insert((b, a));
    }

    /// Removes a pairwise block installed by [`Net::block_pair`].
    pub fn unblock_pair(&self, a: &Addr, b: &Addr) {
        let mut s = self.state.borrow_mut();
        s.blocked_pairs.remove(&(a.clone(), b.clone()));
        s.blocked_pairs.remove(&(b.clone(), a.clone()));
    }

    /// Installs a group partition: traffic between addresses in different
    /// groups is blocked; addresses not mentioned are unaffected. Replaces
    /// any previous group partition.
    pub fn partition(&self, groups: Vec<Vec<Addr>>) {
        self.state.borrow_mut().groups = groups
            .into_iter()
            .map(|g| g.into_iter().collect())
            .collect();
    }

    /// Removes the group partition and all pairwise blocks.
    pub fn heal(&self) {
        let mut s = self.state.borrow_mut();
        s.groups.clear();
        s.blocked_pairs.clear();
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
    pub fn send(&self, sim: &mut Sim, from: Addr, to: Addr, msg: M) {
        let delay = {
            let mut s = self.state.borrow_mut();
            s.stats.sent += 1;
            if s.partitioned(&from, &to) {
                s.stats.dropped_partition += 1;
                return;
            }
            let loss = s.loss;
            if loss > 0.0 && s.rng.chance(loss) {
                s.stats.dropped_loss += 1;
                return;
            }
            let model = s.latency.clone();
            model.sample(&mut s.rng)
        };
        let net = self.clone();
        let sent_at = sim.now();
        sim.schedule_in(delay, move |sim| {
            net.deliver(
                sim,
                Envelope {
                    from,
                    to,
                    sent_at,
                    msg,
                },
            );
        });
    }

    fn deliver(&self, sim: &mut Sim, env: Envelope<M>) {
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
                    h
                }
                None => {
                    s.stats.dropped_down += 1;
                    return;
                }
            }
        };
        handler(sim, env);
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
        net.set_up(&Addr::new("b"), false);
        assert!(!net.is_up(&Addr::new("b")));
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 1);
        sim.run_until_idle();
        assert!(seen.borrow().is_empty());

        net.set_up(&Addr::new("b"), true);
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
        sim.schedule_in(SimDuration::from_millis(5), move |_| {
            net2.set_up(&Addr::new("b"), false);
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
        net.set_loss(1.0);
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
        net.set_loss(0.5);
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
        net.block_pair(Addr::new("a"), Addr::new("b"));
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 1);
        net.send(&mut sim, Addr::new("b"), Addr::new("a"), 2);
        sim.run_until_idle();
        assert!(sa.borrow().is_empty() && sb.borrow().is_empty());
        assert_eq!(net.stats().dropped_partition, 2);

        net.unblock_pair(&Addr::new("a"), &Addr::new("b"));
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
        net.partition(vec![
            vec![Addr::new("a"), Addr::new("b")],
            vec![Addr::new("c")],
        ]);
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 1); // same group
        net.send(&mut sim, Addr::new("a"), Addr::new("c"), 2); // cross group
        net.send(&mut sim, Addr::new("c"), Addr::new("a"), 3); // cross group
                                                               // "d" is outside the partition spec: unaffected.
        net.send(&mut sim, Addr::new("d"), Addr::new("a"), 4);
        sim.run_until_idle();
        assert_eq!(*sb.borrow(), vec![1]);
        assert!(sc.borrow().is_empty());
        assert_eq!(*sa.borrow(), vec![4]);

        net.heal();
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
        sim.schedule_in(SimDuration::from_millis(3), move |_| {
            net2.partition(vec![vec![Addr::new("a")], vec![Addr::new("b")]]);
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
        net.set_latency(LatencyModel::Fixed(SimDuration::from_millis(50)));
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), 2); // 50 ms
        sim.run_until(dlaas_sim::SimTime::from_millis(10));
        assert_eq!(*seen.borrow(), vec![1], "in-flight kept its old delay");
        sim.run_until_idle();
        assert_eq!(*seen.borrow(), vec![1, 2]);
        assert_eq!(sim.now(), dlaas_sim::SimTime::from_millis(50));
        // The old model can be read back and restored.
        net.set_latency(LatencyModel::Fixed(SimDuration::from_millis(1)));
        match net.latency() {
            LatencyModel::Fixed(d) => assert_eq!(d, SimDuration::from_millis(1)),
            other => panic!("unexpected model: {other:?}"),
        }
    }

    #[test]
    fn endpoint_accounting() {
        let mut sim = Sim::new(1);
        let net = fixed_net(&mut sim, 1);
        assert_eq!(net.endpoint_count(), 0);
        let _a = collector(&net, "a");
        let _b = collector(&net, "b");
        let _b2 = collector(&net, "b"); // replaces, no growth
        assert_eq!(net.endpoint_count(), 2);
        assert_eq!(net.endpoint_addrs(), vec![Addr::new("a"), Addr::new("b")]);
        net.unregister(&Addr::new("a"));
        assert_eq!(net.endpoint_count(), 1);
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
