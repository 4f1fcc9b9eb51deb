//! Settled keep-alives.
//!
//! On an idle cluster nearly every Raft message is a heartbeat whose only
//! effect is to move a follower's election deadline: the follower already
//! has the log and the commit index, and its reply changes nothing at the
//! leader. The heartbeat tick asks [`Keepalives::settle`] before it sends
//! such an exchange. When the simulation's ground truth — every node's
//! state, which only the cluster can see — shows that the exchange can do
//! nothing else, the tick applies its one effect (the follower's deadline
//! moves to the instant the heartbeat would arrive plus the term's
//! timeout), counts the heartbeat and the reply in [`Net::stats`], and
//! schedules no event. Every other exchange travels as messages: that
//! path stays the definition, and `tests/keepalive.rs` runs every case
//! both ways.
//!
//! Two parts of the timing model make the shortcut exact. A follower's
//! timeout is drawn once per term, and a contact moves its deadline to
//! `contact + timeout` and never earlier, so contacts commute and one
//! applied early equals one applied on delivery. And the tick draws both
//! latencies of an exchange from the link's own stream, so a settled
//! exchange consumes the same random numbers as a sent one.
//!
//! What is applied early must not be changed by what happens before the
//! reply lands. A change to the network's rules (partition, heal, block,
//! loss, latency, an endpoint going down or up — which is how a node
//! crash or restart shows) and an append that leaves entries unsent put
//! the exchanges in flight back on the wire at their original instants,
//! and take back what the tick applied ([`Keepalives::unsettle`]).
//!
//! A ReadIndex read's heartbeat round settles the same way
//! ([`Keepalives::hold_read`]): when every exchange in it would settle,
//! it is applied as the tick applies one, and one event at the instant
//! the quorum-th reply would land acks the read. An unsettle voids that
//! event and the round's replies travel with the rest.
//!
//! The heartbeat tick itself runs in place ([`Sim::schedule_in_place`]):
//! in the slot its event would have had, with no event, whenever it would
//! send nothing — every follower it is due to reach settles, and a
//! follower it is not due to reach gets nothing. A tick that must send
//! declines, having done nothing, and runs as its event in its slot. A
//! tick that settled every follower's heartbeat stays that way until
//! something touches the group ([`Keepalives::touch`]): a proposal or a
//! ReadIndex read, a message to any node, a crash or restart, a change
//! of the network's rules, a change of term or role. Until then the next
//! tick applies each exchange with [`Keepalives::apply`] unchecked; after
//! a touch it first checks each with [`Keepalives::settles`], as the
//! queued tick would. Of what the predicate reads only the followers'
//! deadlines move with time alone, and they cannot fall behind while
//! every follower's timeout exceeds a heartbeat interval plus the
//! longest latency ([`Keepalives::stays_in_time`]); otherwise every tick
//! is checked.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dlaas_net::{Envelope, Net};
use dlaas_sim::{EventId, Sim, SimDuration, SimTime};

use crate::node::Raft;
use crate::types::{LogIndex, NodeId, RaftMsg, Role, Term};

/// A heartbeat: an AppendEntries that carries no entries, by its fields.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Heartbeat {
    pub(crate) term: Term,
    pub(crate) prev_log_index: LogIndex,
    pub(crate) prev_log_term: Term,
    pub(crate) leader_commit: LogIndex,
    pub(crate) hb_seq: u64,
}

impl Heartbeat {
    /// `msg`'s fields, if it is a heartbeat.
    fn of<C>(msg: &RaftMsg<C>) -> Option<Self> {
        match *msg {
            RaftMsg::AppendEntries {
                term,
                prev_log_index,
                prev_log_term,
                ref entries,
                leader_commit,
                hb_seq,
                ..
            } if entries.is_empty() => Some(Heartbeat {
                term,
                prev_log_index,
                prev_log_term,
                leader_commit,
                hb_seq,
            }),
            _ => None,
        }
    }
}

/// A settled heartbeat and its reply, until the reply would have landed.
#[derive(Debug)]
struct Exchange {
    leader: NodeId,
    follower: NodeId,
    sent: SimTime,
    /// When the heartbeat reaches the follower, and when its reply
    /// reaches the leader.
    arrives: SimTime,
    returns: SimTime,
    back: SimDuration,
    /// To put it back on the wire.
    heartbeat: Heartbeat,
}

/// A ReadIndex read's settled round, until its quorum-th reply lands.
#[derive(Debug)]
struct SettledRead {
    leader: NodeId,
    /// The round's heartbeat sequence number.
    seq: u64,
    /// When each follower's reply lands, earliest first.
    replies: Vec<(SimTime, NodeId)>,
    /// The event at the quorum-th reply that acks the read.
    lands: SimTime,
    event: EventId,
}

/// The keep-alives of one cluster that were settled and whose replies
/// have not landed yet.
pub(crate) struct Keepalives<C: 'static> {
    nodes: Vec<Raft<C>>,
    net: Net<RaftMsg<C>>,
    flight: RefCell<Vec<Exchange>>,
    /// The settled round of a read, if one waits: at most one, since a
    /// round settles only while no read waits at the leader.
    read: RefCell<Option<SettledRead>>,
    /// Something touched the group since the last heartbeat tick that
    /// settled every follower's heartbeat ([`Keepalives::touch`]).
    touched: Cell<bool>,
}

impl<C: Clone + 'static> Keepalives<C> {
    /// Starts settling the keep-alives of `nodes`, which talk over `net`.
    pub(crate) fn install(nodes: &[Raft<C>], net: &Net<RaftMsg<C>>) -> Rc<Self> {
        let keepalives = Rc::new(Keepalives {
            nodes: nodes.to_vec(),
            net: net.clone(),
            flight: RefCell::new(Vec::new()),
            read: RefCell::new(None),
            touched: Cell::new(true),
        });
        for node in nodes {
            node.settle_keepalives_with(Rc::downgrade(&keepalives));
        }
        let weak = Rc::downgrade(&keepalives);
        net.on_rule_change(move |sim| {
            if let Some(keepalives) = weak.upgrade() {
                keepalives.unsettle(sim);
            }
        });
        keepalives
    }

    /// Something touched the group: the next heartbeat tick checks every
    /// exchange before it settles it.
    pub(crate) fn touch(&self) {
        self.touched.set(true);
    }

    /// Whether something touched the group since the last tick that
    /// settled every follower's heartbeat.
    pub(crate) fn touched(&self) -> bool {
        self.touched.get()
    }

    /// A tick settled every follower's heartbeat and time alone cannot
    /// unsettle the next ([`Keepalives::stays_in_time`]): until something
    /// touches the group, each tick settles them all again unchecked.
    pub(crate) fn untouched(&self) {
        self.touched.set(false);
    }

    /// Whether, round after round, every heartbeat of `leader` lands
    /// before its follower's deadline with nothing but time passing: the
    /// part of [`Keepalives::settles`] time alone could break. A round
    /// that settled every follower moved each deadline to its heartbeat's
    /// arrival plus the follower's timeout; one `interval` later that
    /// heartbeat has arrived (no latency exceeds `latency`, which is at
    /// most `interval`), and the next lands within `latency` — in time
    /// whenever every live follower's timeout exceeds `interval +
    /// latency`. Timeouts change only with a term or a role, and the
    /// latency model only with a rule change, both of which touch the
    /// group.
    pub(crate) fn stays_in_time(
        &self,
        leader: NodeId,
        interval: SimDuration,
        latency: SimDuration,
    ) -> bool {
        latency <= interval
            && self.nodes.iter().enumerate().all(|(id, node)| {
                id == leader as usize
                    || !node.is_alive()
                    || node.election_timeout() > interval + latency
            })
    }

    /// Settles the heartbeat tick's `msg` from `leader` to `follower`,
    /// whose round trip was drawn as `there` and `back`, if it can change
    /// nothing but the follower's election deadline
    /// ([`Keepalives::settles`], [`Keepalives::apply`]). Returns whether it
    /// did; if not, the caller sends it.
    pub(crate) fn settle(
        &self,
        now: SimTime,
        leader: NodeId,
        follower: NodeId,
        msg: &RaftMsg<C>,
        there: SimDuration,
        back: SimDuration,
    ) -> bool {
        let Some(heartbeat) = Heartbeat::of(msg) else {
            return false;
        };
        if !self.settles(now, leader, follower, &heartbeat, now + there) {
            return false;
        }
        self.apply(now, leader, follower, heartbeat, there, back);
        true
    }

    /// Whether `heartbeat`, sent from `leader` at `now` and arriving at
    /// `arrives`, can change nothing but `follower`'s election deadline.
    pub(crate) fn settles(
        &self,
        now: SimTime,
        leader: NodeId,
        follower: NodeId,
        heartbeat: &Heartbeat,
        arrives: SimTime,
    ) -> bool {
        if !self.net.is_open() {
            return false;
        }
        self.retire(now);
        // The leader: alive, no read waiting on a heartbeat round, and the
        // follower acknowledged the whole log with nothing in flight.
        if !self.nodes[leader as usize].idle_link_to(follower) {
            return false;
        }
        // The follower: alive, and it already knows the commit index.
        let receiver = self.nodes[follower as usize].vitals();
        if !receiver.alive || receiver.commit < heartbeat.leader_commit {
            return false;
        }
        // Every node: no term above the leader's, not even on a crashed
        // node's disk (its messages may still be in flight). Every live
        // one but the leader: a follower of this term and this leader
        // whose deadline lies beyond the heartbeat's arrival, so no
        // election can start before the heartbeat lands.
        let term = heartbeat.term;
        self.nodes.iter().enumerate().all(|(id, node)| {
            let v = node.vitals();
            v.term <= term
                && (id == leader as usize
                    || !v.alive
                    || (v.role == Role::Follower
                        && v.term == term
                        && v.leader_hint == Some(leader)
                        && v.deadline > arrives))
        })
    }

    /// Applies a settled exchange's one effect — the follower's deadline
    /// moves to the heartbeat's arrival plus its timeout — counts it in
    /// [`Net::stats`] and records it in flight until its reply lands.
    pub(crate) fn apply(
        &self,
        now: SimTime,
        leader: NodeId,
        follower: NodeId,
        heartbeat: Heartbeat,
        there: SimDuration,
        back: SimDuration,
    ) {
        let arrives = now + there;
        let receiver = &self.nodes[follower as usize];
        receiver.postpone_election(arrives + receiver.election_timeout());
        self.net.count_settled_exchange();
        self.flight.borrow_mut().push(Exchange {
            leader,
            follower,
            sent: now,
            arrives,
            returns: arrives + back,
            back,
            heartbeat,
        });
    }

    /// Holds the settled round `seq` of a read at `leader`, whose replies
    /// land at `replies` (earliest first): one event at the `needed`-th
    /// acks the read, as those replies would.
    pub(crate) fn hold_read(
        self: &Rc<Self>,
        sim: &mut Sim,
        leader: NodeId,
        seq: u64,
        replies: Vec<(SimTime, NodeId)>,
        needed: usize,
    ) {
        let lands = replies[needed - 1].0;
        let me = Rc::downgrade(self);
        let event = sim.schedule_at(lands, move |sim| {
            if let Some(keepalives) = me.upgrade() {
                keepalives.land_read(sim);
            }
        });
        let held = self.read.borrow_mut().replace(SettledRead {
            leader,
            seq,
            replies,
            lands,
            event,
        });
        debug_assert!(held.is_none(), "a round settles only while no read waits");
    }

    /// The held read's quorum-th reply landed: the replies that have
    /// landed ack it.
    fn land_read(&self, sim: &mut Sim) {
        let Some(read) = self.read.borrow_mut().take() else {
            return;
        };
        let now = sim.now();
        let landed = read.replies.iter().filter(|(at, _)| *at <= now);
        self.nodes[read.leader as usize].round_acked(sim, read.seq, landed.map(|(_, p)| *p), true);
    }

    /// Puts every settled exchange back on the wire at its original
    /// instants: a heartbeat that has not arrived is delivered when it
    /// would have been, and its follower's deadline returns to what the
    /// contacts that happened imply; a reply that has not landed is
    /// delivered when it would have been. It touches the group
    /// ([`Keepalives::touch`]).
    pub(crate) fn unsettle(&self, sim: &mut Sim) {
        self.touch();
        let now = sim.now();
        self.retire(now);
        // A held read's replies travel with the rest; those that landed
        // already ack it now. Its event stays only if it is due now.
        let voided = self.read.borrow_mut().take_if(|read| read.lands > now);
        if let Some(read) = voided {
            sim.cancel(read.event);
            let landed = read.replies.iter().filter(|(at, _)| *at <= now);
            self.nodes[read.leader as usize].round_acked(
                sim,
                read.seq,
                landed.map(|(_, p)| *p),
                false,
            );
        }
        let resumed = std::mem::take(&mut *self.flight.borrow_mut());
        for e in &resumed {
            let leader = self.nodes[e.leader as usize].addr().clone();
            let follower = self.nodes[e.follower as usize].addr().clone();
            if e.arrives > now {
                let hb = e.heartbeat;
                let heartbeat = Envelope {
                    from: leader,
                    to: follower,
                    sent_at: e.sent,
                    msg: RaftMsg::AppendEntries {
                        term: hb.term,
                        leader: e.leader,
                        prev_log_index: hb.prev_log_index,
                        prev_log_term: hb.prev_log_term,
                        entries: Vec::new(),
                        leader_commit: hb.leader_commit,
                        hb_seq: hb.hb_seq,
                    },
                };
                self.net.resume_request(sim, heartbeat, e.arrives, e.back);
            } else {
                let reply = Envelope {
                    from: follower,
                    to: leader,
                    sent_at: e.arrives,
                    msg: RaftMsg::AppendEntriesResp {
                        term: e.heartbeat.term,
                        from: e.follower,
                        success: true,
                        match_index: e.heartbeat.prev_log_index,
                        hb_seq: e.heartbeat.hb_seq,
                    },
                };
                self.net.resume_reply(sim, reply, e.returns);
            }
        }
        for e in resumed.iter().filter(|e| e.arrives > now) {
            self.nodes[e.follower as usize].restore_election_deadline(sim);
        }
    }

    /// Folds every heartbeat that has arrived by `now` into its
    /// follower's record of contacts, and forgets the exchanges whose
    /// reply has landed.
    pub(crate) fn retire(&self, now: SimTime) {
        self.flight.borrow_mut().retain(|e| {
            if e.arrives <= now {
                self.nodes[e.follower as usize].heard_at(e.arrives);
            }
            e.returns > now
        });
    }
}
