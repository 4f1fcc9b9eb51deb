//! Settled keep-alives change nothing but the number of events.
//!
//! A `RaftCluster` settles a heartbeat exchange at the leader's tick when
//! the exchange can only move its follower's election deadline, and puts
//! it back on the wire when something changes before its reply lands.
//! Every case here runs twice: as is, and with an inert `block_pair`
//! between two addresses no node uses, which keeps every keep-alive on the
//! message path (the network is not open). The two runs must agree on
//! everything Raft does and reports: each node's role, term, commit,
//! applied entries and leader hint, every ReadIndex outcome, every
//! election and leadership instant, every node's timeline, and the
//! network's counters.
//!
//! The faults land anywhere, and on purpose also inside the exchanges of
//! a tick (`Op::NextTick` runs to a leader's next tick plus a few hundred
//! microseconds, and `Op::ReadAhead` issues a read just before one).

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_net::{Addr, LatencyModel, NetStats};
use dlaas_raft::{raft_addr, NodeId, RaftCluster, RaftConfig, Role};
use dlaas_sim::{Sim, SimDuration, SimTime};
use proptest::prelude::*;

type Cmd = u64;

const NODES: u32 = 3;

#[derive(Debug, Clone)]
enum Op {
    Propose(u64),
    Read,
    /// Crashes node `i` if it is alive, restarts it otherwise.
    Toggle(u8),
    /// Cuts node `i` off from the others for this many ms.
    Isolate(u8, u16),
    /// Blocks the link between nodes `i` and `j` for this many ms.
    Cut(u8, u8, u16),
    /// Peer latency up to this many ms, for this many ms.
    Slow(u16, u16),
    /// Node `i` cut off for this many ms, into a network that stays slow
    /// (latency up to this many ms) for a while after it heals: its
    /// deadline can fall due before the first heartbeat lands.
    Rejoin(u8, u16, u16),
    /// This percentage of messages lost, for this many ms.
    Lossy(u8, u16),
    /// This many µs pass.
    Wait(u32),
    /// To the leader's next heartbeat tick plus this many µs: the next op
    /// lands among the tick's exchanges.
    NextTick(u16),
    /// A read this many µs before the leader's next tick.
    ReadAhead(u16),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1..1_000u64).prop_map(Op::Propose),
        2 => Just(Op::Read),
        2 => (0..NODES as u8).prop_map(Op::Toggle),
        1 => ((0..NODES as u8), (200..2_500u16)).prop_map(|(i, ms)| Op::Isolate(i, ms)),
        1 => ((0..NODES as u8), (0..NODES as u8), (50..2_000u16))
            .prop_map(|(i, j, ms)| Op::Cut(i, j, ms)),
        1 => ((2..900u16), (100..3_000u16)).prop_map(|(hi, ms)| Op::Slow(hi, ms)),
        1 => ((0..NODES as u8), (600..2_000u16), (100..900u16))
            .prop_map(|(i, ms, hi)| Op::Rejoin(i, ms, hi)),
        1 => ((1..40u8), (100..1_500u16)).prop_map(|(pct, ms)| Op::Lossy(pct, ms)),
        3 => (1..2_500_000u32).prop_map(Op::Wait),
        4 => (0..1_500u16).prop_map(Op::NextTick),
        1 => (0..1_000u16).prop_map(Op::ReadAhead),
    ]
}

/// `(µs, node, index, command)` of one applied entry.
type Applied = (u64, NodeId, u64, Cmd);

/// One node as the runs compare it.
type NodeView = (bool, Role, u64, u64, u64, Option<NodeId>);

/// What one run did, in the order it did it.
#[derive(Debug, Default, PartialEq)]
struct Record {
    /// `(µs, every node)` after each op and every 5 ms of waiting.
    views: Vec<(u64, Vec<NodeView>)>,
    /// The network's counters after each op that changed its rules.
    stats: Vec<(u64, NetStats)>,
    /// Every applied entry.
    applied: Vec<Applied>,
    /// `(µs, ok)` per completed ReadIndex read.
    reads: Vec<(u64, bool)>,
    /// Each node's timeline (elections, leadership, crashes, restarts).
    timelines: Vec<String>,
}

struct Run {
    sim: Sim,
    cluster: RaftCluster<Cmd>,
    inert: bool,
    applied: Rc<RefCell<Vec<Applied>>>,
    reads: Rc<RefCell<Vec<(u64, bool)>>>,
    record: Record,
}

fn ghosts() -> (Addr, Addr) {
    (Addr::new("ghost-a"), Addr::new("ghost-b"))
}

impl Run {
    fn new(seed: u64, inert: bool) -> Run {
        let mut sim = Sim::new(seed);
        sim.trace_mut().set_enabled(true);
        let applied = Rc::new(RefCell::new(Vec::new()));
        let a = applied.clone();
        let factory: dlaas_raft::ApplyFactory<Cmd> = Rc::new(move |id| {
            let a = a.clone();
            Box::new(move |sim: &mut Sim, idx, cmd: &Cmd| {
                a.borrow_mut().push((sim.now().as_micros(), id, idx, *cmd));
            })
        });
        let cluster = RaftCluster::new(
            &mut sim,
            NODES,
            RaftConfig::default(),
            LatencyModel::datacenter(),
            factory,
            0,
        );
        if inert {
            let (a, b) = ghosts();
            cluster.net().block_pair(&mut sim, a, b);
        }
        Run {
            sim,
            cluster,
            inert,
            applied,
            reads: Rc::new(RefCell::new(Vec::new())),
            record: Record::default(),
        }
    }

    fn view(&mut self) {
        let nodes = self
            .cluster
            .nodes()
            .iter()
            .map(|n| {
                (
                    n.is_alive(),
                    n.role(),
                    n.term(),
                    n.commit_index(),
                    n.last_applied(),
                    n.leader_hint(),
                )
            })
            .collect();
        let now = self.sim.now().as_micros();
        self.record.views.push((now, nodes));
    }

    fn stats(&mut self) {
        let now = self.sim.now().as_micros();
        let stats = self.cluster.net().stats();
        self.record.stats.push((now, stats));
    }

    fn wait(&mut self, d: SimDuration) {
        let end = self.sim.now() + d;
        while self.sim.now() < end {
            let step = SimDuration::from_millis(5).min(end - self.sim.now());
            self.sim.run_for(step);
            self.view();
        }
    }

    /// The current leader's next heartbeat tick: it became leader at its
    /// last `leader` mark and ticks every heartbeat interval from there.
    fn next_tick(&self) -> Option<SimTime> {
        let leader = self.cluster.leader_id()?;
        let elected = self
            .sim
            .trace()
            .of(leader)
            .marks()
            .filter(|m| m.what == "leader")
            .last()?
            .time;
        let interval = RaftConfig::default().heartbeat_interval.as_micros();
        let since = (self.sim.now() - elected).as_micros();
        Some(elected + SimDuration::from_micros((since / interval + 1) * interval))
    }

    /// Heals the network after a fault window (the inert run keeps its
    /// block between the ghosts).
    fn heal_after(&mut self, ms: u16) {
        let net = self.cluster.net().clone();
        let inert = self.inert;
        self.sim
            .schedule_in(SimDuration::from_millis(ms.into()), move |sim| {
                net.heal(sim);
                if inert {
                    let (a, b) = ghosts();
                    net.block_pair(sim, a, b);
                }
            });
    }

    fn apply(&mut self, op: &Op) {
        let net = self.cluster.net().clone();
        match *op {
            Op::Propose(cmd) => {
                if let Some(l) = self.cluster.leader_id() {
                    let _ = self.cluster.node(l).propose(&mut self.sim, cmd);
                }
            }
            Op::Read => self.read(),
            Op::Toggle(i) => {
                let id = NodeId::from(i);
                if self.cluster.node(id).is_alive() {
                    self.cluster.crash(&mut self.sim, id);
                } else {
                    self.cluster.restart(&mut self.sim, id);
                }
                self.stats();
            }
            Op::Isolate(i, ms) => self.isolate(i, ms),
            Op::Rejoin(i, ms, hi) => {
                self.isolate(i, ms);
                self.apply(&Op::Slow(hi, ms + 2_000));
            }
            Op::Cut(i, j, ms) => {
                let (a, b) = (raft_addr(i.into()), raft_addr(j.into()));
                net.block_pair(&mut self.sim, a.clone(), b.clone());
                self.stats();
                self.sim
                    .schedule_in(SimDuration::from_millis(ms.into()), move |sim| {
                        net.unblock_pair(sim, &a, &b);
                    });
            }
            Op::Slow(hi, ms) => {
                let base = net.latency();
                let slow = LatencyModel::Uniform(
                    SimDuration::from_micros(200),
                    SimDuration::from_millis(hi.into()),
                );
                net.set_latency(&mut self.sim, slow);
                self.stats();
                self.sim
                    .schedule_in(SimDuration::from_millis(ms.into()), move |sim| {
                        net.set_latency(sim, base);
                    });
            }
            Op::Lossy(pct, ms) => {
                net.set_loss(&mut self.sim, f64::from(pct) / 100.0);
                self.stats();
                self.sim
                    .schedule_in(SimDuration::from_millis(ms.into()), move |sim| {
                        net.set_loss(sim, 0.0);
                    });
            }
            Op::Wait(us) => self.wait(SimDuration::from_micros(us.into())),
            Op::NextTick(us) => {
                if let Some(tick) = self.next_tick() {
                    self.sim
                        .run_until(tick + SimDuration::from_micros(us.into()));
                }
            }
            Op::ReadAhead(us) => {
                if let Some(tick) = self.next_tick() {
                    let early = tick - SimDuration::from_micros(us.into());
                    if early > self.sim.now() {
                        self.sim.run_until(early);
                    }
                }
                self.read();
            }
        }
        self.view();
    }

    fn isolate(&mut self, i: u8, ms: u16) {
        let lonely = vec![raft_addr(i.into())];
        let rest = (0..NODES)
            .filter(|n| *n != NodeId::from(i))
            .map(raft_addr)
            .collect();
        self.cluster
            .net()
            .partition(&mut self.sim, vec![lonely, rest]);
        self.stats();
        self.heal_after(ms);
    }

    fn read(&mut self) {
        let Some(l) = self.cluster.leader_id() else {
            return;
        };
        let reads = self.reads.clone();
        let _ = self
            .cluster
            .node(l)
            .read_index(&mut self.sim, move |sim, ok| {
                reads.borrow_mut().push((sim.now().as_micros(), ok));
            });
    }

    /// Runs `ops` after the first election, then a quiet stretch, and
    /// returns what happened. The last rule change puts any settled
    /// exchange back on the wire, so the counters are exact.
    fn play(mut self, ops: &[Op]) -> (Record, u64) {
        self.wait(SimDuration::from_secs(3));
        for op in ops {
            self.apply(op);
        }
        self.wait(SimDuration::from_secs(3));
        let net = self.cluster.net().clone();
        net.set_loss(&mut self.sim, 0.0);
        self.stats();
        self.wait(SimDuration::from_millis(50));
        let mut record = self.record;
        record.applied = self.applied.take();
        record.reads = self.reads.take();
        record.timelines = (0..NODES)
            .map(|id| self.sim.trace().of(id).to_string())
            .collect();
        (record, self.sim.events_executed())
    }
}

/// The first place two records part, for a readable failure.
fn first_difference(a: &Record, b: &Record) -> String {
    fn first<T: PartialEq + std::fmt::Debug>(what: &str, a: &[T], b: &[T]) -> Option<String> {
        let i = a.iter().zip(b).position(|(x, y)| x != y);
        match i {
            Some(i) => Some(format!("{what}[{i}]: {:?} vs {:?}", a[i], b[i])),
            None if a.len() != b.len() => {
                Some(format!("{what}: {} vs {} entries", a.len(), b.len()))
            }
            None => None,
        }
    }
    first("views", &a.views, &b.views)
        .or_else(|| first("applied", &a.applied, &b.applied))
        .or_else(|| first("reads", &a.reads, &b.reads))
        .or_else(|| first("stats", &a.stats, &b.stats))
        .or_else(|| first("timelines", &a.timelines, &b.timelines))
        .unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        max_shrink_iters: 100,
    })]

    #[test]
    fn settled_keepalives_match_the_message_path(
        seed in 0..u64::MAX,
        ops in proptest::collection::vec(op(), 10..40),
    ) {
        let (settled, settled_events) = Run::new(seed, false).play(&ops);
        let (sent, sent_events) = Run::new(seed, true).play(&ops);
        prop_assert!(
            settled == sent,
            "settled and message-path runs part at {}",
            first_difference(&settled, &sent)
        );
        prop_assert!(
            settled_events < sent_events,
            "nothing was settled: {settled_events} events either way"
        );
    }
}

/// The shortcut is taken: an idle three-node cluster runs its keep-alive
/// at the tick and a deadline timer per follower, not at two deliveries
/// per follower per tick, and counts the messages all the same.
#[test]
fn an_idle_cluster_settles_its_keepalives() {
    let events = |inert: bool| {
        let mut run = Run::new(7, inert);
        run.wait(SimDuration::from_secs(3));
        let (events, sent) = (run.sim.events_executed(), run.cluster.net().stats().sent);
        run.sim.run_for(SimDuration::from_secs(10));
        (
            (run.sim.events_executed() - events) as f64 / 10.0,
            (run.cluster.net().stats().sent - sent) as f64 / 10.0,
        )
    };
    let (settled, settled_msgs) = events(false);
    let (sent, sent_msgs) = events(true);
    assert_eq!(settled_msgs, sent_msgs, "messages per second");
    assert!(
        (39.0..=41.0).contains(&sent_msgs),
        "{sent_msgs} messages per second"
    );
    assert!(
        settled <= 12.0 && sent >= 50.0,
        "{settled} events per second settled, {sent} on the message path"
    );
}
