//! Settled keep-alives.
//!
//! On an idle cluster nearly every Raft message is a heartbeat whose only
//! effect is to move a follower's election deadline: the follower already
//! has the log and the commit index, and its reply changes nothing at the
//! leader. A heartbeat round — the leader's tick, or the round a
//! ReadIndex read waits on — settles whole or travels whole. The round
//! asks [`Keepalives::settles`] once, for all the followers it reaches.
//! When the simulation's ground truth — every node's state, which only
//! the cluster can see — shows that no exchange in it can do anything
//! else, each exchange's one effect is applied at once (the follower's
//! deadline moves to the instant the heartbeat arrives plus the term's
//! timeout), counted in [`Net::stats`], and no event is scheduled.
//! Otherwise every heartbeat of the round is sent: that path stays the
//! definition, and `tests/keepalive.rs` runs every case both ways.
//!
//! Two parts of the timing model make the shortcut exact. A follower's
//! timeout is drawn once per term, and a contact moves its deadline to
//! `contact + timeout` and never earlier, so contacts commute and one
//! applied early equals one applied on delivery. And a round draws both
//! latencies of each exchange from the link's own stream, settled or
//! sent, so both consume the same random numbers. The check asks that
//! every deadline lie beyond `now` plus [`Net::latency_bound`], which no
//! drawn arrival exceeds; a round that fails against the bound travels,
//! which is exact too.
//!
//! What is applied early must not be changed by what happens before the
//! reply lands. A change to the network's rules (partition, heal, block,
//! loss, latency, an endpoint going down or up — which is how a node
//! crash or restart shows) and an append that leaves entries unsent put
//! the exchanges in flight back on the wire at their original instants,
//! and take back what the round applied ([`Keepalives::unsettle`]).
//!
//! A settled read round is held ([`Keepalives::hold_read`]): one event at
//! the instant the quorum-th reply would land acks the read. An unsettle
//! voids that event and the round's replies travel with the rest.
//!
//! The heartbeat tick runs in place ([`Sim::schedule_in_place`]): in the
//! slot its event would have had, with no event, whenever its round
//! settles. A tick whose round does not settle declines, having done
//! nothing, and runs as its event in its slot, sending every heartbeat
//! that is due.

use std::cell::RefCell;
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
}

impl<C: Clone + 'static> Keepalives<C> {
    /// Starts settling the keep-alives of `nodes`, which talk over `net`.
    pub(crate) fn install(nodes: &[Raft<C>], net: &Net<RaftMsg<C>>) -> Rc<Self> {
        let keepalives = Rc::new(Keepalives {
            nodes: nodes.to_vec(),
            net: net.clone(),
            flight: RefCell::new(Vec::new()),
            read: RefCell::new(None),
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

    /// Whether a round of `heartbeat`, sent from `leader` at `now` to each
    /// of `followers`, can change nothing but their election deadlines.
    pub(crate) fn settles(
        &self,
        now: SimTime,
        leader: NodeId,
        followers: &[NodeId],
        heartbeat: &Heartbeat,
    ) -> bool {
        if !self.net.is_open() {
            return false;
        }
        self.retire(now);
        // Every node: no term above the leader's, not even on a crashed
        // node's disk (its messages may still be in flight). Each node
        // the round reaches: alive, already knowing the commit index, and
        // the leader's link to it idle — no read waiting on a round, the
        // whole log acknowledged with nothing in flight. Every live node
        // but the leader: a follower of this term and this leader whose
        // deadline lies beyond any heartbeat's arrival, so no election
        // can start before the round lands.
        let leads = &self.nodes[leader as usize];
        let term = heartbeat.term;
        let arrives = now + self.net.latency_bound();
        (0..).zip(&self.nodes).all(|(id, node)| {
            let v = node.vitals();
            v.term <= term
                && (!followers.contains(&id)
                    || (v.alive && v.commit >= heartbeat.leader_commit && leads.idle_link_to(id)))
                && (id == leader
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
    /// delivered when it would have been.
    pub(crate) fn unsettle(&self, sim: &mut Sim) {
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
