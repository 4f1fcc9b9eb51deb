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

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_net::{Envelope, Net};
use dlaas_sim::{Sim, SimDuration, SimTime};

use crate::node::Raft;
use crate::types::{LogIndex, NodeId, RaftMsg, Role, Term};

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
    // The heartbeat's fields, to put it back on the wire.
    term: Term,
    prev_log_index: LogIndex,
    prev_log_term: Term,
    leader_commit: LogIndex,
    hb_seq: u64,
}

/// The keep-alives of one cluster that were settled and whose replies
/// have not landed yet.
pub(crate) struct Keepalives<C: 'static> {
    nodes: Vec<Raft<C>>,
    net: Net<RaftMsg<C>>,
    flight: RefCell<Vec<Exchange>>,
}

impl<C: Clone + 'static> Keepalives<C> {
    /// Starts settling the keep-alives of `nodes`, which talk over `net`.
    pub(crate) fn install(nodes: &[Raft<C>], net: &Net<RaftMsg<C>>) -> Rc<Self> {
        let keepalives = Rc::new(Keepalives {
            nodes: nodes.to_vec(),
            net: net.clone(),
            flight: RefCell::new(Vec::new()),
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

    /// Settles the heartbeat tick's `msg` from `leader` to `follower`,
    /// whose round trip was drawn as `there` and `back`, if it can change
    /// nothing but the follower's election deadline. Returns whether it
    /// did; if not, the caller sends it.
    pub(crate) fn settle(
        &self,
        sim: &mut Sim,
        leader: NodeId,
        follower: NodeId,
        msg: &RaftMsg<C>,
        there: SimDuration,
        back: SimDuration,
    ) -> bool {
        let &RaftMsg::AppendEntries {
            term,
            prev_log_index,
            prev_log_term,
            ref entries,
            leader_commit,
            hb_seq,
            ..
        } = msg
        else {
            return false;
        };
        if !entries.is_empty() || !self.net.is_open() {
            return false;
        }
        let now = sim.now();
        self.retire(now);
        let arrives = now + there;
        // The leader: alive, no read waiting on a heartbeat round, and the
        // follower acknowledged the whole log with nothing in flight.
        if !self.nodes[leader as usize].idle_link_to(follower) {
            return false;
        }
        // Every node: no term above the leader's, not even on a crashed
        // node's disk (its messages may still be in flight). Every live
        // one but the leader: a follower of this term and this leader
        // whose deadline lies beyond the heartbeat's arrival, so no
        // election can start before the heartbeat lands.
        let quiet = self.nodes.iter().enumerate().all(|(id, node)| {
            let v = node.vitals();
            v.term <= term
                && (id == leader as usize
                    || !v.alive
                    || (v.role == Role::Follower
                        && v.term == term
                        && v.leader_hint == Some(leader)
                        && v.deadline > arrives))
        });
        // The follower: alive, and it already knows the commit index.
        let receiver = self.nodes[follower as usize].vitals();
        if !quiet || !receiver.alive || receiver.commit < leader_commit {
            return false;
        }
        self.nodes[follower as usize].postpone_election(arrives + receiver.timeout);
        self.net.count_settled_exchange();
        self.flight.borrow_mut().push(Exchange {
            leader,
            follower,
            sent: now,
            arrives,
            returns: arrives + back,
            back,
            term,
            prev_log_index,
            prev_log_term,
            leader_commit,
            hb_seq,
        });
        true
    }

    /// Puts every settled exchange back on the wire at its original
    /// instants: a heartbeat that has not arrived is delivered when it
    /// would have been, and its follower's deadline returns to what the
    /// contacts that happened imply; a reply that has not landed is
    /// delivered when it would have been.
    pub(crate) fn unsettle(&self, sim: &mut Sim) {
        let now = sim.now();
        self.retire(now);
        let resumed = std::mem::take(&mut *self.flight.borrow_mut());
        for e in &resumed {
            let leader = self.nodes[e.leader as usize].addr().clone();
            let follower = self.nodes[e.follower as usize].addr().clone();
            if e.arrives > now {
                let heartbeat = Envelope {
                    from: leader,
                    to: follower,
                    sent_at: e.sent,
                    msg: RaftMsg::AppendEntries {
                        term: e.term,
                        leader: e.leader,
                        prev_log_index: e.prev_log_index,
                        prev_log_term: e.prev_log_term,
                        entries: Vec::new(),
                        leader_commit: e.leader_commit,
                        hb_seq: e.hb_seq,
                    },
                };
                self.net.resume_request(sim, heartbeat, e.arrives, e.back);
            } else {
                let reply = Envelope {
                    from: follower,
                    to: leader,
                    sent_at: e.arrives,
                    msg: RaftMsg::AppendEntriesResp {
                        term: e.term,
                        from: e.follower,
                        success: true,
                        match_index: e.prev_log_index,
                        hb_seq: e.hb_seq,
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
    fn retire(&self, now: SimTime) {
        self.flight.borrow_mut().retain(|e| {
            if e.arrives <= now {
                self.nodes[e.follower as usize].heard_at(e.arrives);
            }
            e.returns > now
        });
    }
}
