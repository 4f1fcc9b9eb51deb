//! The Raft node state machine.
//!
//! Implements leader election, log replication, commitment and ReadIndex
//! reads per the Raft paper (Ongaro & Ousterhout, 2014), on top of the
//! simulated network. Persistent state lives on a "disk"
//! ([`PersistentState`] behind a shared cell owned by the harness), so a
//! crashed-and-restarted node recovers exactly what real Raft persists:
//! `current_term`, `voted_for`, and the log — and nothing else.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::{Rc, Weak};

use dlaas_net::{Addr, Net};
use dlaas_sim::{DeadlineTimer, Sim, SimDuration, SimRng, SimTime};

use crate::keepalive::{Heartbeat, Keepalives};
use crate::marks::raft;
use crate::types::{
    LogEntry, LogIndex, NodeId, Peers, PersistentState, RaftConfig, RaftMsg, Role, Snapshot, Term,
};

/// Most entries one `AppendEntries` ships.
const MAX_BATCH: usize = 64;

/// State-machine hooks for log compaction: `take` captures the current
/// (fully applied) state as a shared value that is never changed;
/// `restore` rebuilds the state machine from a snapshot installed by the
/// leader or found on disk at restart. Raft only moves the value between
/// the two; it is whatever `take` returned.
pub struct SnapshotHooks {
    /// Captures the state machine as of the last applied entry.
    pub take: Box<dyn Fn() -> Rc<dyn Any>>,
    /// Rebuilds the state machine to be exactly the snapshot at
    /// `last_index`.
    pub restore: RestoreFn,
}

/// Signature of [`SnapshotHooks::restore`].
pub type RestoreFn = Box<dyn FnMut(&mut Sim, LogIndex, &dyn Any)>;

impl std::fmt::Debug for SnapshotHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotHooks").finish_non_exhaustive()
    }
}

/// Per-node factory for snapshot hooks.
pub type SnapshotFactory = Rc<dyn Fn(NodeId) -> SnapshotHooks>;

/// Error returned by operations that must run on the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeader {
    /// The node's best guess at the current leader, if any.
    pub hint: Option<NodeId>,
}

impl fmt::Display for NotLeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.hint {
            Some(l) => write!(f, "not leader; try node {l}"),
            None => write!(f, "not leader; leader unknown"),
        }
    }
}

impl std::error::Error for NotLeader {}

/// Callback applying one committed command to the replicated state machine.
pub type ApplyFn<C> = Box<dyn FnMut(&mut Sim, LogIndex, &C)>;

/// Callback completing a ReadIndex read; `true` means the read is
/// linearizable now, `false` means leadership was lost and the caller must
/// retry elsewhere.
pub type ReadFn = Box<dyn FnOnce(&mut Sim, bool)>;

struct PendingRead {
    read_index: LogIndex,
    min_seq: u64,
    acks: BTreeSet<NodeId>,
    done: ReadFn,
}

/// One node as the settle predicate of [`Keepalives`] reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Vitals {
    pub(crate) alive: bool,
    pub(crate) role: Role,
    /// The term on the node's disk (a crashed node's too).
    pub(crate) term: Term,
    pub(crate) leader_hint: Option<NodeId>,
    pub(crate) commit: LogIndex,
    /// The election deadline the contacts that have happened imply.
    pub(crate) deadline: SimTime,
}

struct NodeState<C: 'static> {
    id: NodeId,
    cluster_size: u32,
    config: RaftConfig,
    disk: Rc<RefCell<PersistentState<C>>>,
    noop: Rc<C>,
    // Volatile state (lost on crash).
    alive: bool,
    role: Role,
    leader_hint: Option<NodeId>,
    commit_index: LogIndex,
    last_applied: LogIndex,
    votes: BTreeSet<NodeId>,
    next_index: BTreeMap<NodeId, LogIndex>,
    match_index: BTreeMap<NodeId, LogIndex>,
    /// When each peer was last sent an AppendEntries/InstallSnapshot;
    /// the heartbeat tick skips peers that heard from us since the
    /// previous tick.
    last_sent: BTreeMap<NodeId, SimTime>,
    hb_gen: u64,
    hb_seq: u64,
    /// The index of the no-op this node appended when it last became
    /// leader: a read waits until it has applied.
    term_start: LogIndex,
    pending_reads: Vec<PendingRead>,
    apply: ApplyFn<C>,
    hooks: Option<SnapshotHooks>,
    /// This term's (and role's) election timeout, drawn once per term or
    /// role change, as etcd's `resetRandomizedElectionTimeout` does.
    timeout: SimDuration,
    /// When the current term or role began, or the leader was last heard
    /// from (a granted vote counts): the election deadline is
    /// `heard + timeout`.
    heard: SimTime,
    rng: SimRng,
    /// One latency stream per link to each peer (indexed by peer id):
    /// the heartbeat tick draws both legs of its exchange from it.
    links: Vec<SimRng>,
    /// The cluster's settled keep-alives, when the node is part of one.
    keepalives: Weak<Keepalives<C>>,
    // Counters for tests/benches.
    elections_started: u64,
}

impl<C: 'static> NodeState<C> {
    fn quorum(&self) -> usize {
        (self.cluster_size as usize / 2) + 1
    }

    fn others(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.id;
        (0..self.cluster_size).filter(move |p| *p != me)
    }
}

/// Handle to one Raft node. Cloning shares the node.
pub struct Raft<C: 'static> {
    inner: Rc<RefCell<NodeState<C>>>,
    net: Net<RaftMsg<C>>,
    addr: Addr,
    /// Every node's address by id (this node's included), built once so
    /// a message costs two reference-count bumps, not two `format!`s.
    peers: Rc<[Addr]>,
    election: DeadlineTimer,
}

impl<C> Clone for Raft<C> {
    fn clone(&self) -> Self {
        Raft {
            inner: self.inner.clone(),
            net: self.net.clone(),
            addr: self.addr.clone(),
            peers: self.peers.clone(),
            election: self.election.clone(),
        }
    }
}

impl<C> fmt::Debug for Raft<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.inner.borrow();
        let term = s.disk.borrow().current_term;
        f.debug_struct("Raft")
            .field("id", &s.id)
            .field("role", &s.role)
            .field("term", &term)
            .field("commit", &s.commit_index)
            .field("alive", &s.alive)
            .finish()
    }
}

/// The network address of Raft node `id` (shared convention with clients).
pub fn raft_addr(id: NodeId) -> Addr {
    Addr::new(format!("raft-{id}"))
}

impl<C: Clone + 'static> Raft<C> {
    /// Creates a node, registers its network handler and arms its election
    /// timer.
    ///
    /// `noop` is the command the leader appends at the start of its term to
    /// commit an entry of the new term promptly (required for ReadIndex).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`RaftConfig::validate`].
    #[expect(
        clippy::too_many_arguments,
        reason = "a node is wired to its cluster, disk, network and state machine at once"
    )]
    pub fn new(
        sim: &mut Sim,
        id: NodeId,
        cluster_size: u32,
        config: RaftConfig,
        disk: Rc<RefCell<PersistentState<C>>>,
        net: Net<RaftMsg<C>>,
        apply: ApplyFn<C>,
        noop: C,
    ) -> Self {
        Self::with_snapshots(sim, id, cluster_size, config, disk, net, apply, noop, None)
    }

    /// Like [`Raft::new`], with state-machine snapshot hooks enabling log
    /// compaction (see [`RaftConfig::compact_threshold`]).
    #[expect(
        clippy::too_many_arguments,
        reason = "a node is wired to its cluster, disk, network and state machine at once"
    )]
    pub fn with_snapshots(
        sim: &mut Sim,
        id: NodeId,
        cluster_size: u32,
        config: RaftConfig,
        disk: Rc<RefCell<PersistentState<C>>>,
        net: Net<RaftMsg<C>>,
        apply: ApplyFn<C>,
        noop: C,
        hooks: Option<SnapshotHooks>,
    ) -> Self {
        config.validate().expect("invalid raft config");
        assert!(id < cluster_size, "node id out of range");
        assert!(cluster_size <= Peers::MAX, "more than {} nodes", Peers::MAX);
        let rng = sim.fork_rng(&format!("raft-{id}"));
        let links = (0..cluster_size)
            .map(|p| sim.fork_rng(&format!("raft-{id}/link-{p}")))
            .collect();
        let node = Raft {
            inner: Rc::new(RefCell::new(NodeState {
                id,
                cluster_size,
                config,
                disk,
                noop: Rc::new(noop),
                alive: true,
                role: Role::Follower,
                leader_hint: None,
                commit_index: 0,
                last_applied: 0,
                votes: BTreeSet::new(),
                next_index: BTreeMap::new(),
                match_index: BTreeMap::new(),
                last_sent: BTreeMap::new(),
                hb_gen: 0,
                hb_seq: 0,
                term_start: 0,
                pending_reads: Vec::new(),
                apply,
                hooks,
                timeout: SimDuration::ZERO,
                heard: SimTime::ZERO,
                rng,
                links,
                keepalives: Weak::new(),
                elections_started: 0,
            })),
            net,
            addr: raft_addr(id),
            peers: (0..cluster_size).map(raft_addr).collect(),
            election: DeadlineTimer::default(),
        };
        node.restore_from_disk_snapshot(sim);
        node.register_handler();
        node.reset_election_timer(sim);
        node
    }

    /// If the disk holds a snapshot, rebuild the state machine from it and
    /// fast-forward the applied/commit indices past the compacted prefix.
    fn restore_from_disk_snapshot(&self, sim: &mut Sim) {
        let snapshot = {
            let s = self.inner.borrow();
            let disk = s.disk.borrow();
            let snap = disk.snapshot.clone();
            drop(disk);
            drop(s);
            snap
        };
        let Some(snap) = snapshot else { return };
        let mut s = self.inner.borrow_mut();
        s.commit_index = s.commit_index.max(snap.last_index);
        s.last_applied = s.last_applied.max(snap.last_index);
        if let Some(hooks) = &mut s.hooks {
            (hooks.restore)(sim, snap.last_index, &*snap.data);
        }
    }

    fn peer(&self, id: NodeId) -> Addr {
        self.peers[id as usize].clone()
    }

    fn register_handler(&self) {
        let me = self.clone();
        self.net.register(self.addr.clone(), move |sim, env| {
            me.handle(sim, env.msg);
        });
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.inner.borrow().id
    }

    /// This node's network address.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.inner.borrow().role
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.inner.borrow().disk.borrow().current_term
    }

    /// Highest committed index.
    pub fn commit_index(&self) -> LogIndex {
        self.inner.borrow().commit_index
    }

    /// Highest applied index.
    pub fn last_applied(&self) -> LogIndex {
        self.inner.borrow().last_applied
    }

    /// Best guess at the current leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.inner.borrow().leader_hint
    }

    /// `true` unless crashed.
    pub fn is_alive(&self) -> bool {
        self.inner.borrow().alive
    }

    /// Number of elections this node has started (diagnostics).
    pub fn elections_started(&self) -> u64 {
        self.inner.borrow().elections_started
    }

    /// Proposes a command. On the leader, appends it to the log, begins
    /// replication and returns its `(term, index)`; commitment is signalled
    /// later through the apply callback.
    ///
    /// # Errors
    ///
    /// [`NotLeader`] if this node is not the leader (the hint names the
    /// likely leader).
    pub fn propose(&self, sim: &mut Sim, cmd: C) -> Result<(Term, LogIndex), NotLeader> {
        {
            let mut s = self.inner.borrow_mut();
            if !s.alive || s.role != Role::Leader {
                return Err(NotLeader {
                    hint: s.leader_hint,
                });
            }
            let term = s.disk.borrow().current_term;
            s.disk.borrow_mut().log.push(LogEntry::new(term, cmd));
            let last = s.disk.borrow().last_index();
            let me = s.id;
            s.match_index.insert(me, last);
        }
        self.broadcast_append(sim);
        self.maybe_advance_commit(sim);
        let s = self.inner.borrow();
        let disk = s.disk.borrow();
        let result = (disk.current_term, disk.last_index());
        drop(disk);
        drop(s);
        Ok(result)
    }

    /// The index of the no-op this node appended at the start of its
    /// term, while it leads: everything committed by an older term is
    /// applied here once this entry is.
    pub fn term_start(&self) -> Option<LogIndex> {
        let s = self.inner.borrow();
        (s.alive && s.role == Role::Leader).then_some(s.term_start)
    }

    /// Begins a linearizable ReadIndex read. `done` fires with `true` once
    /// this node has (a) confirmed leadership for the current term with a
    /// quorum and (b) applied everything committed as of the read's start,
    /// its own term's no-op included (Raft §6.4: a new leader's commit
    /// index may trail its predecessor's); it fires with `false` if
    /// leadership is lost first.
    ///
    /// The round that confirms leadership is a heartbeat to every
    /// follower. It settles whole, as the heartbeat tick's round does
    /// (`Raft::settled_round`), and one event at the instant the
    /// quorum-th reply would land acks the read
    /// (`Keepalives::hold_read`); or it travels whole, as exchanges
    /// drawn from each link.
    ///
    /// # Errors
    ///
    /// [`NotLeader`] if this node is not currently the leader.
    pub fn read_index(
        &self,
        sim: &mut Sim,
        done: impl FnOnce(&mut Sim, bool) + 'static,
    ) -> Result<(), NotLeader> {
        let read = {
            let s = self.inner.borrow();
            if !s.alive || s.role != Role::Leader {
                return Err(NotLeader {
                    hint: s.leader_hint,
                });
            }
            let me = s.id;
            PendingRead {
                read_index: s.commit_index.max(s.term_start),
                min_seq: s.hb_seq + 1,
                acks: BTreeSet::from([me]),
                done: Box::new(done),
            }
        };
        let settled = self
            .keepalives()
            .is_some_and(|group| self.settle_read_round(sim, &group));
        self.inner.borrow_mut().pending_reads.push(read);
        if !settled {
            let peers: Vec<NodeId> = {
                let mut s = self.inner.borrow_mut();
                s.hb_seq += 1;
                s.others().collect()
            };
            for p in peers {
                self.send_heartbeat_to(sim, p);
            }
        }
        self.check_reads(sim);
        Ok(())
    }

    /// Crashes the node: volatile state will be discarded, traffic to it is
    /// dropped, timers become no-ops. Persistent state survives on `disk`.
    pub fn crash(&self, sim: &mut Sim) {
        let mut s = self.inner.borrow_mut();
        if !s.alive {
            return;
        }
        s.alive = false;
        s.hb_gen += 1;
        // Fail pending reads (their clients will time out / retry).
        let reads: Vec<_> = s.pending_reads.drain(..).collect();
        drop(s);
        self.election.cancel(sim);
        self.net.set_up(sim, &self.addr, false);
        for r in reads {
            (r.done)(sim, false);
        }
        let id = self.id();
        sim.mark(&raft::CRASHED, id, 0);
    }

    /// Restarts a crashed node with a fresh replicated-state-machine apply
    /// callback (the state machine is rebuilt by re-applying the log).
    ///
    /// # Panics
    ///
    /// Panics if the node is still alive.
    pub fn restart(&self, sim: &mut Sim, apply: ApplyFn<C>) {
        {
            let mut s = self.inner.borrow_mut();
            assert!(!s.alive, "restart of a live node");
            s.alive = true;
            s.role = Role::Follower;
            s.leader_hint = None;
            s.commit_index = 0;
            s.last_applied = 0;
            s.votes.clear();
            s.next_index.clear();
            s.match_index.clear();
            s.last_sent.clear();
            s.pending_reads.clear();
            s.apply = apply;
        }
        self.restore_from_disk_snapshot(sim);
        self.net.set_up(sim, &self.addr, true);
        self.reset_election_timer(sim);
        let id = self.id();
        sim.mark(&raft::RESTARTED, id, 0);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// A term or role change: draws the epoch's election timeout and
    /// counts it from now.
    fn reset_election_timer(&self, sim: &mut Sim) {
        let deadline = {
            let mut s = self.inner.borrow_mut();
            let lo = s.config.election_timeout_min;
            let hi = s.config.election_timeout_max;
            s.timeout = s.rng.duration_between(lo, hi);
            s.heard = sim.now();
            s.heard + s.timeout
        };
        self.arm_election_timer(sim, deadline);
    }

    /// The leader was heard from (or a vote granted) within the term: the
    /// deadline moves to now plus the term's timeout, never earlier, so
    /// two contacts land on the same deadline in either order.
    fn heard_from_leader(&self, sim: &mut Sim) {
        let deadline = {
            let mut s = self.inner.borrow_mut();
            s.heard = sim.now();
            s.heard + s.timeout
        };
        if !self.election.postpone(deadline) {
            self.arm_election_timer(sim, deadline);
        }
    }

    fn arm_election_timer(&self, sim: &mut Sim, deadline: SimTime) {
        let me = self.clone();
        self.election.set(sim, deadline, move |sim| {
            let fire = {
                let s = me.inner.borrow();
                s.alive && s.role != Role::Leader
            };
            if fire {
                me.campaign(sim, true);
            }
        });
    }

    /// Arms the heartbeat tick one interval from now: in place when the
    /// node belongs to a group that settles keep-alives (the tick declines
    /// to its event when it must send; see [`Raft::heartbeats_in_place`]),
    /// an event otherwise.
    fn schedule_heartbeat(&self, sim: &mut Sim, gen: u64) {
        let interval = self.inner.borrow().config.heartbeat_interval;
        let me = self.clone();
        let tick = move |sim: &mut Sim| {
            if me.leads(gen) {
                me.send_heartbeats(sim);
                me.schedule_heartbeat(sim, gen);
            }
        };
        let at = sim.now() + interval;
        match self.keepalives() {
            Some(group) => {
                let me = self.clone();
                let round = move |now| {
                    me.heartbeats_in_place(&group, now, gen)
                        .then(|| now + interval)
                };
                sim.schedule_in_place(at, round, tick);
            }
            None => {
                sim.schedule_at(at, tick);
            }
        }
    }

    /// Whether this node still leads the term whose heartbeats are `gen`.
    fn leads(&self, gen: u64) -> bool {
        let s = self.inner.borrow();
        s.alive && s.hb_gen == gen && s.role == Role::Leader
    }

    fn keepalives(&self) -> Option<Rc<Keepalives<C>>> {
        self.inner.borrow().keepalives.upgrade()
    }

    // ------------------------------------------------------------------
    // Elections
    // ------------------------------------------------------------------

    /// Campaigns: a pre-vote (`pre`) after an election timeout, asking the
    /// peers whether they would vote for this node in the next term, and
    /// the election itself once a quorum says yes (Raft thesis §9.6). A
    /// pre-vote changes no term and no vote, so a node cut off from a
    /// quorum never raises its term, and cannot depose the leader a
    /// restarted or reconnected majority elects by standing at a higher
    /// term the moment it hears from them.
    fn campaign(&self, sim: &mut Sim, pre: bool) {
        let (id, term, last_index, last_term, peers) = {
            let mut s = self.inner.borrow_mut();
            let me = s.id;
            let mut disk = s.disk.borrow_mut();
            let term = if pre {
                disk.current_term + 1
            } else {
                disk.current_term += 1;
                disk.voted_for = Some(me);
                disk.current_term
            };
            let li = disk.last_index();
            let lt = disk.last_term();
            drop(disk);
            if pre {
                s.role = Role::PreCandidate;
            } else {
                s.role = Role::Candidate;
                s.elections_started += 1;
            }
            s.votes.clear();
            s.votes.insert(me);
            s.leader_hint = None;
            (me, term, li, lt, s.others().collect::<Vec<_>>())
        };
        if !pre {
            sim.mark(&raft::ELECTION, id, term);
        }
        for p in peers {
            self.net.send(
                sim,
                self.addr.clone(),
                self.peer(p),
                RaftMsg::RequestVote {
                    term,
                    candidate: id,
                    last_log_index: last_index,
                    last_log_term: last_term,
                    pre,
                },
            );
        }
        // Re-arm for a fresh campaign if this one stalls.
        self.reset_election_timer(sim);
        // Single-node cluster: win immediately.
        self.maybe_win(sim);
    }

    fn maybe_win(&self, sim: &mut Sim) {
        let (role, won) = {
            let s = self.inner.borrow();
            (s.role, s.votes.len() >= s.quorum())
        };
        match role {
            Role::PreCandidate if won => self.campaign(sim, false),
            Role::Candidate if won => self.become_leader(sim),
            _ => {}
        }
    }

    fn become_leader(&self, sim: &mut Sim) {
        let (id, term, gen) = {
            let mut s = self.inner.borrow_mut();
            s.role = Role::Leader;
            let me = s.id;
            s.leader_hint = Some(me);
            let last = s.disk.borrow().last_index();
            let peers: Vec<NodeId> = s.others().collect();
            for p in peers {
                s.next_index.insert(p, last + 1);
                s.match_index.insert(p, 0);
            }
            s.match_index.insert(me, last);
            s.hb_gen += 1;
            let term = s.disk.borrow().current_term;
            // Commit an entry of the new term promptly (no-op barrier).
            let cmd = s.noop.clone();
            s.disk.borrow_mut().log.push(LogEntry { term, cmd });
            let new_last = s.disk.borrow().last_index();
            s.match_index.insert(me, new_last);
            s.term_start = new_last;
            (s.id, term, s.hb_gen)
        };
        sim.mark(&raft::LEADER, id, term);
        self.broadcast_append(sim);
        self.maybe_advance_commit(sim);
        self.schedule_heartbeat(sim, gen);
    }

    fn step_down(&self, sim: &mut Sim, new_term: Term, leader: Option<NodeId>) {
        let reads = {
            let mut s = self.inner.borrow_mut();
            {
                let mut disk = s.disk.borrow_mut();
                if new_term > disk.current_term {
                    disk.current_term = new_term;
                    disk.voted_for = None;
                }
            }
            s.role = Role::Follower;
            if leader.is_some() {
                s.leader_hint = leader;
            }
            s.votes.clear();
            s.hb_gen += 1; // stop heartbeats
            s.pending_reads.drain(..).collect::<Vec<_>>()
        };
        for r in reads {
            (r.done)(sim, false);
        }
        self.reset_election_timer(sim);
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    fn broadcast_append(&self, sim: &mut Sim) {
        let peers: Vec<NodeId> = {
            let mut s = self.inner.borrow_mut();
            if s.role != Role::Leader || !s.alive {
                return;
            }
            s.hb_seq += 1;
            s.others().collect()
        };
        for p in peers {
            self.send_append_to(sim, p);
        }
    }

    /// The heartbeat tick. Any AppendEntries moves its receiver's
    /// election deadline, so a peer that was sent one since the previous
    /// tick needs no heartbeat on top: under load the log traffic is the
    /// heartbeat. A follower still hears from a healthy leader at least
    /// every two intervals, which [`RaftConfig::validate`] keeps within
    /// the shortest election timeout.
    fn send_heartbeats(&self, sim: &mut Sim) {
        let due = self.due_peers(sim.now());
        self.inner.borrow_mut().hb_seq += 1;
        for p in due.iter() {
            self.send_heartbeat_to(sim, p);
        }
    }

    /// The heartbeat tick at `now` run in place, with no event; returns
    /// whether it ran. It runs when its round settles
    /// ([`Raft::settled_round`]) and otherwise declines, having done
    /// nothing: the tick then runs as its event, in its slot, and sends
    /// every due heartbeat.
    fn heartbeats_in_place(&self, group: &Keepalives<C>, now: SimTime, gen: u64) -> bool {
        if !self.leads(gen) {
            return false;
        }
        let due = self.due_peers(now);
        self.settled_round(group, now, due, |_, _| {})
    }

    /// The heartbeat this leader sends next.
    fn next_heartbeat(&self) -> Heartbeat {
        let s = self.inner.borrow();
        let disk = s.disk.borrow();
        let last = disk.last_index();
        Heartbeat {
            term: disk.current_term,
            prev_log_index: last,
            prev_log_term: disk.term_at(last).expect("the last entry is addressable"),
            leader_commit: s.commit_index,
            hb_seq: s.hb_seq + 1,
        }
    }

    /// A heartbeat round at `now` to each of `peers`, settled: the one
    /// place a heartbeat is applied without the wire. The round settles
    /// whole when [`Keepalives::settles`] holds for all of `peers` at
    /// once, and each exchange is then drawn from its link and applied.
    /// Hands `replied` each exchange's reply instant and follower and
    /// returns `true`; or returns `false`, having done nothing, when the
    /// round must travel.
    fn settled_round(
        &self,
        group: &Keepalives<C>,
        now: SimTime,
        peers: Peers,
        mut replied: impl FnMut(SimTime, NodeId),
    ) -> bool {
        let me = self.id();
        let heartbeat = self.next_heartbeat();
        if !peers.is_empty() && !group.settles(now, me, peers, &heartbeat) {
            return false;
        }
        self.inner.borrow_mut().hb_seq += 1;
        for p in peers.iter() {
            self.inner.borrow_mut().last_sent.insert(p, now);
            let (there, back) = self.draw_exchange(p);
            group.apply(now, me, p, heartbeat, there, back);
            replied(now + there + back, p);
        }
        true
    }

    /// A ReadIndex read's round, settled: every follower is reached as by
    /// the heartbeat tick ([`Raft::settled_round`]), and the read is acked
    /// by one event at the instant the quorum-th reply would land. Only
    /// when no other read waits (the settle predicate asks), so the round
    /// is the only one the group holds.
    fn settle_read_round(&self, sim: &mut Sim, group: &Rc<Keepalives<C>>) -> bool {
        let (me, quorum, peers) = {
            let s = self.inner.borrow();
            (s.id, s.quorum(), s.others().collect::<Peers>())
        };
        if peers.is_empty() {
            return false;
        }
        let mut replies = Vec::new();
        if !self.settled_round(group, sim.now(), peers, |at, p| replies.push((at, p))) {
            return false;
        }
        replies.sort_unstable();
        let seq = self.inner.borrow().hb_seq;
        group.hold_read(sim, me, seq, replies, quorum - 1);
        true
    }

    /// Replies to the heartbeats of round `seq` landed from `followers`,
    /// as [`Raft::on_append_resp`] records them for the reads waiting on
    /// them (a settled round changes nothing else at the leader); with
    /// `check`, a read they complete is answered.
    pub(crate) fn round_acked(
        &self,
        sim: &mut Sim,
        seq: u64,
        followers: impl Iterator<Item = NodeId>,
        check: bool,
    ) {
        {
            let mut s = self.inner.borrow_mut();
            for from in followers {
                for r in &mut s.pending_reads {
                    if seq >= r.min_seq {
                        r.acks.insert(from);
                    }
                }
            }
        }
        if check {
            self.check_reads(sim);
        }
    }

    /// Whether a heartbeat tick at `now` is due to reach `peer`: it was not
    /// sent an append within the last interval.
    fn due(&self, peer: NodeId, now: SimTime) -> bool {
        let s = self.inner.borrow();
        let interval = s.config.heartbeat_interval;
        s.last_sent
            .get(&peer)
            .is_none_or(|t| now.saturating_duration_since(*t) >= interval)
    }

    /// The peers a heartbeat round at `now` is due to reach.
    fn due_peers(&self, now: SimTime) -> Peers {
        let (me, peers) = {
            let s = self.inner.borrow();
            (s.id, s.cluster_size)
        };
        (0..peers)
            .filter(|p| *p != me && self.due(*p, now))
            .collect()
    }

    /// A heartbeat round's message to `peer`, sent.
    fn send_heartbeat_to(&self, sim: &mut Sim, peer: NodeId) {
        let Some(msg) = self.prepare_append(sim, peer) else {
            return;
        };
        let (there, back) = self.draw_exchange(peer);
        self.net
            .send_exchange(sim, self.addr.clone(), self.peer(peer), msg, there, back);
    }

    /// Both legs of a heartbeat exchange with `peer`, there and back,
    /// drawn now from the link's own stream, so they do not depend on what
    /// else the network carries meanwhile.
    fn draw_exchange(&self, peer: NodeId) -> (SimDuration, SimDuration) {
        let mut s = self.inner.borrow_mut();
        let link = &mut s.links[peer as usize];
        (self.net.draw_latency(link), self.net.draw_latency(link))
    }

    fn send_append_to(&self, sim: &mut Sim, peer: NodeId) {
        if let Some(msg) = self.prepare_append(sim, peer) {
            self.net.send(sim, self.addr.clone(), self.peer(peer), msg);
        }
    }

    /// What `peer` needs next — entries from its `next_index`, or the
    /// snapshot when they were compacted away — recorded as sent.
    fn prepare_append(&self, sim: &mut Sim, peer: NodeId) -> Option<RaftMsg<C>> {
        let msg = {
            let s = self.inner.borrow();
            if s.role != Role::Leader || !s.alive {
                return None;
            }
            let disk = s.disk.borrow();
            let next = *s.next_index.get(&peer).unwrap_or(&(disk.last_index() + 1));
            if next > disk.last_index() + 1 {
                return None; // nothing new for this peer
            }
            let prev_index = next - 1;
            if next < disk.first_index() {
                // The peer needs entries we compacted away: ship the
                // snapshot instead (Raft §7).
                let snapshot = disk
                    .snapshot
                    .clone()
                    .expect("compacted prefix implies a snapshot");
                RaftMsg::InstallSnapshot {
                    term: disk.current_term,
                    leader: s.id,
                    snapshot,
                }
            } else {
                let prev_term = disk
                    .term_at(prev_index)
                    .expect("next >= first_index implies prev is addressable");
                let first = disk.first_index();
                let start = (next - first) as usize;
                let end = (start + MAX_BATCH).min(disk.log.len());
                let entries: Vec<LogEntry<C>> = disk.log[start..end].to_vec();
                RaftMsg::AppendEntries {
                    term: disk.current_term,
                    leader: s.id,
                    prev_log_index: prev_index,
                    prev_log_term: prev_term,
                    entries,
                    leader_commit: s.commit_index,
                    hb_seq: s.hb_seq,
                }
            }
        };
        let unsent = {
            let mut s = self.inner.borrow_mut();
            s.last_sent.insert(peer, sim.now());
            // Pipelining: assume the entries arrive, so the next proposal
            // ships only what is new instead of everything un-acked. A
            // lost or overtaken message makes a later append fail its
            // consistency check, and the follower's hint backs us up.
            if let RaftMsg::AppendEntries {
                prev_log_index,
                entries,
                ..
            } = &msg
            {
                let through = prev_log_index + entries.len() as LogIndex;
                s.next_index.insert(peer, through + 1);
            }
            let next = s.next_index.get(&peer).copied().unwrap_or(0);
            let last = s.disk.borrow().last_index();
            next <= last
        };
        // A capped batch or a snapshot leaves entries unsent, which the
        // reply to a heartbeat in flight would send: that reply has to
        // land for real.
        if unsent {
            if let Some(keepalives) = self.keepalives() {
                keepalives.unsettle(sim);
            }
        }
        Some(msg)
    }

    /// What the settle predicate reads of this node.
    pub(crate) fn vitals(&self) -> Vitals {
        let s = self.inner.borrow();
        let term = s.disk.borrow().current_term;
        Vitals {
            alive: s.alive,
            role: s.role,
            term,
            leader_hint: s.leader_hint,
            commit: s.commit_index,
            deadline: s.heard + s.timeout,
        }
    }

    /// Whether this node leads and its link to `peer` carries nothing but
    /// keep-alives: no ReadIndex read waits on a heartbeat round, and
    /// `peer` acknowledged the whole log with nothing in flight to it.
    pub(crate) fn idle_link_to(&self, peer: NodeId) -> bool {
        let s = self.inner.borrow();
        let last = s.disk.borrow().last_index();
        s.alive
            && s.role == Role::Leader
            && s.pending_reads.is_empty()
            && s.match_index.get(&peer) == Some(&last)
            && s.next_index.get(&peer) == Some(&(last + 1))
    }

    /// Joins the cluster's settled keep-alives.
    pub(crate) fn settle_keepalives_with(&self, keepalives: Weak<Keepalives<C>>) {
        self.inner.borrow_mut().keepalives = keepalives;
    }

    /// This term's (and role's) election timeout.
    pub(crate) fn election_timeout(&self) -> SimDuration {
        self.inner.borrow().timeout
    }

    /// A settled heartbeat moves this follower's election deadline to
    /// `deadline`, as its delivery would, with no event.
    pub(crate) fn postpone_election(&self, deadline: SimTime) {
        let armed = self.election.postpone(deadline);
        debug_assert!(armed, "a live follower's election timer is armed");
    }

    /// A settled heartbeat reached this follower at `at`.
    pub(crate) fn heard_at(&self, at: SimTime) {
        let mut s = self.inner.borrow_mut();
        s.heard = s.heard.max(at);
    }

    /// A settled heartbeat that had not arrived went back on the wire: the
    /// deadline returns to what the contacts that happened imply.
    pub(crate) fn restore_election_deadline(&self, sim: &mut Sim) {
        let (live, deadline) = {
            let s = self.inner.borrow();
            (s.alive && s.role != Role::Leader, s.heard + s.timeout)
        };
        if live {
            self.arm_election_timer(sim, deadline);
        }
    }

    fn maybe_advance_commit(&self, sim: &mut Sim) {
        let advanced = {
            let mut s = self.inner.borrow_mut();
            if s.role != Role::Leader {
                false
            } else {
                let disk_last = s.disk.borrow().last_index();
                let current_term = s.disk.borrow().current_term;
                let quorum = s.quorum();
                let mut new_commit = s.commit_index;
                for n in (s.commit_index + 1)..=disk_last {
                    // Only entries from the current term commit by counting
                    // (Raft §5.4.2).
                    if s.disk.borrow().term_at(n) != Some(current_term) {
                        continue;
                    }
                    let replicas = s.match_index.values().filter(|m| **m >= n).count();
                    if replicas >= quorum {
                        new_commit = n;
                    }
                }
                if new_commit > s.commit_index {
                    s.commit_index = new_commit;
                    true
                } else {
                    false
                }
            }
        };
        if advanced {
            self.apply_committed(sim);
        }
    }

    fn apply_committed(&self, sim: &mut Sim) {
        loop {
            let next = {
                let mut s = self.inner.borrow_mut();
                if s.last_applied >= s.commit_index {
                    None
                } else {
                    s.last_applied += 1;
                    let idx = s.last_applied;
                    // A handle, not a copy: the callback below borrows
                    // the command while the node itself is unborrowed.
                    let cmd = s
                        .disk
                        .borrow()
                        .entry_at(idx)
                        .expect("committed entry must exist")
                        .cmd
                        .clone();
                    Some((idx, cmd))
                }
            };
            match next {
                None => break,
                Some((idx, cmd)) => {
                    // The apply callback runs with the node borrowed mutably;
                    // it must not call back into this Raft handle.
                    let mut s = self.inner.borrow_mut();
                    let mut apply = std::mem::replace(&mut s.apply, Box::new(|_, _, _| {}));
                    drop(s);
                    apply(sim, idx, &cmd);
                    self.inner.borrow_mut().apply = apply;
                }
            }
        }
        self.maybe_compact(sim);
        self.check_reads(sim);
    }

    /// Folds the applied prefix into a snapshot once it exceeds the
    /// configured threshold (no-op without hooks or with threshold 0).
    fn maybe_compact(&self, sim: &mut Sim) {
        let (due, upto) = {
            let s = self.inner.borrow();
            let threshold = s.config.compact_threshold as u64;
            if threshold == 0 || s.hooks.is_none() {
                return;
            }
            let snap = s.disk.borrow().snapshot_last_index();
            (
                s.last_applied.saturating_sub(snap) >= threshold,
                s.last_applied,
            )
        };
        if !due {
            return;
        }
        let data = {
            let s = self.inner.borrow();
            let hooks = s.hooks.as_ref().expect("checked above");
            (hooks.take)()
        };
        let compacted = {
            let s = self.inner.borrow();
            let mut disk = s.disk.borrow_mut();
            disk.compact(upto, data)
        };
        if compacted {
            let id = self.id();
            sim.mark(&raft::COMPACTED, id, upto);
        }
    }

    fn check_reads(&self, sim: &mut Sim) {
        loop {
            let ready = {
                let mut s = self.inner.borrow_mut();
                let quorum = s.quorum();
                let applied = s.last_applied;
                let pos = s
                    .pending_reads
                    .iter()
                    .position(|r| r.acks.len() >= quorum && applied >= r.read_index);
                pos.map(|i| s.pending_reads.remove(i))
            };
            match ready {
                None => break,
                Some(r) => (r.done)(sim, true),
            }
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn handle(&self, sim: &mut Sim, msg: RaftMsg<C>) {
        if !self.inner.borrow().alive {
            return;
        }
        match msg {
            RaftMsg::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
                pre,
            } => self.on_request_vote(sim, term, candidate, (last_log_index, last_log_term), pre),
            RaftMsg::RequestVoteResp {
                term,
                from,
                granted,
                pre,
            } => self.on_vote_resp(sim, term, from, granted, pre),
            RaftMsg::AppendEntries {
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
                hb_seq,
            } => self.on_append(
                sim,
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
                hb_seq,
            ),
            RaftMsg::AppendEntriesResp {
                term,
                from,
                success,
                match_index,
                hb_seq,
            } => self.on_append_resp(sim, term, from, success, match_index, hb_seq),
            RaftMsg::InstallSnapshot {
                term,
                leader,
                snapshot,
            } => self.on_install_snapshot(sim, term, leader, snapshot),
            RaftMsg::InstallSnapshotResp {
                term,
                from,
                last_index,
            } => self.on_install_snapshot_resp(sim, term, from, last_index),
        }
    }

    /// Follower side of Raft §7: adopt the leader's snapshot, reset the
    /// state machine to it, and fast-forward the applied index.
    fn on_install_snapshot(&self, sim: &mut Sim, term: Term, leader: NodeId, snapshot: Snapshot) {
        let current = self.term();
        if term < current {
            let from = self.id();
            self.net.send(
                sim,
                self.addr.clone(),
                self.peer(leader),
                RaftMsg::InstallSnapshotResp {
                    term: current,
                    from,
                    last_index: 0,
                },
            );
            return;
        }
        if term > current || self.role() != Role::Follower {
            self.step_down(sim, term, Some(leader));
        } else {
            self.inner.borrow_mut().leader_hint = Some(leader);
            self.heard_from_leader(sim);
        }

        let acked = snapshot.last_index;
        let fresh = {
            let s = self.inner.borrow();
            acked > s.commit_index
        };
        if fresh {
            {
                let s = self.inner.borrow();
                s.disk.borrow_mut().install_snapshot(snapshot.clone());
            }
            let mut s = self.inner.borrow_mut();
            s.commit_index = s.commit_index.max(acked);
            s.last_applied = acked;
            // Rebuild the state machine from the snapshot contents.
            let mut hooks = s.hooks.take();
            drop(s);
            if let Some(h) = &mut hooks {
                (h.restore)(sim, acked, &*snapshot.data);
            }
            self.inner.borrow_mut().hooks = hooks;
            let id = self.id();
            sim.mark(&raft::SNAPSHOT_INSTALLED, id, acked);
            // Catch up anything committed above the snapshot next round.
            self.apply_committed(sim);
        }

        let from = self.id();
        let my_term = self.term();
        self.net.send(
            sim,
            self.addr.clone(),
            self.peer(leader),
            RaftMsg::InstallSnapshotResp {
                term: my_term,
                from,
                last_index: acked,
            },
        );
    }

    fn on_install_snapshot_resp(
        &self,
        sim: &mut Sim,
        term: Term,
        from: NodeId,
        last_index: LogIndex,
    ) {
        let current = self.term();
        if term > current {
            self.step_down(sim, term, None);
            return;
        }
        if term < current || self.role() != Role::Leader || last_index == 0 {
            return;
        }
        {
            let mut s = self.inner.borrow_mut();
            let m = s.match_index.entry(from).or_insert(0);
            if last_index > *m {
                *m = last_index;
            }
            // Never move next_index backwards on a (possibly stale)
            // snapshot ack — that would re-probe ground the follower has
            // already confirmed and can loop forever against a follower
            // whose own snapshot is ahead of ours.
            let next_floor = *m + 1;
            let cur = s.next_index.get(&from).copied().unwrap_or(1);
            s.next_index.insert(from, cur.max(next_floor));
        }
        self.maybe_advance_commit(sim);
        // Continue with the live entries above the snapshot.
        self.send_append_to(sim, from);
    }

    /// Answers a vote request. `last` is the candidate's last log entry,
    /// `(index, term)`. A pre-vote is granted if the candidate's log is at
    /// least as up to date as ours and the term it would stand in is above
    /// ours, and changes nothing here.
    fn on_request_vote(
        &self,
        sim: &mut Sim,
        term: Term,
        candidate: NodeId,
        last: (LogIndex, Term),
        pre: bool,
    ) {
        if !pre && term > self.term() {
            self.step_down(sim, term, None);
        }
        let (granted, my_term) = {
            let s = self.inner.borrow();
            let disk = s.disk.borrow();
            let current = disk.current_term;
            let (last_log_index, last_log_term) = last;
            let up_to_date = last_log_term > disk.last_term()
                || (last_log_term == disk.last_term() && last_log_index >= disk.last_index());
            if pre {
                let granted = term > current && up_to_date;
                (granted, if granted { term } else { current })
            } else if term < current {
                (false, current)
            } else {
                let can_vote = disk.voted_for.is_none() || disk.voted_for == Some(candidate);
                (can_vote && up_to_date, current)
            }
        };
        if granted && !pre {
            self.inner.borrow().disk.borrow_mut().voted_for = Some(candidate);
            self.heard_from_leader(sim);
        }
        let from = self.id();
        self.net.send(
            sim,
            self.addr.clone(),
            self.peer(candidate),
            RaftMsg::RequestVoteResp {
                term: my_term,
                from,
                granted,
                pre,
            },
        );
    }

    fn on_vote_resp(&self, sim: &mut Sim, term: Term, from: NodeId, granted: bool, pre: bool) {
        let current = self.term();
        // A granted pre-vote carries the term it was asked for, one above
        // ours; any other higher term is news.
        if term > current && !(pre && granted) {
            self.step_down(sim, term, None);
            return;
        }
        let (asked, role) = if pre {
            (current + 1, Role::PreCandidate)
        } else {
            (current, Role::Candidate)
        };
        if term != asked || self.role() != role {
            return;
        }
        if granted {
            self.inner.borrow_mut().votes.insert(from);
            self.maybe_win(sim);
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the arguments are the fields of the AppendEntries message, destructured by the dispatcher"
    )]
    fn on_append(
        &self,
        sim: &mut Sim,
        term: Term,
        leader: NodeId,
        prev_log_index: LogIndex,
        prev_log_term: Term,
        entries: Vec<LogEntry<C>>,
        leader_commit: LogIndex,
        hb_seq: u64,
    ) {
        let current = self.term();
        if term < current {
            let from = self.id();
            self.net.send(
                sim,
                self.addr.clone(),
                self.peer(leader),
                RaftMsg::AppendEntriesResp {
                    term: current,
                    from,
                    success: false,
                    match_index: 0,
                    hb_seq,
                },
            );
            return;
        }
        // Valid leader for this term: follow it.
        if term > current || self.role() != Role::Follower {
            self.step_down(sim, term, Some(leader));
        } else {
            self.inner.borrow_mut().leader_hint = Some(leader);
            self.heard_from_leader(sim);
        }

        let (success, match_index) = {
            let s = self.inner.borrow_mut();
            let mut disk = s.disk.borrow_mut();
            if prev_log_index < disk.snapshot_last_index() {
                // The leader is probing below our snapshot: everything up
                // to the snapshot is committed and therefore identical to
                // the leader's log (leader completeness), so acknowledge
                // the whole compacted prefix and let the leader jump its
                // next_index forward instead of probing further back.
                (true, disk.snapshot_last_index())
            } else {
                match disk.term_at(prev_log_index) {
                    None => {
                        // Log too short: hint the leader to back up to our end.
                        (false, disk.last_index())
                    }
                    Some(t) if t != prev_log_term => {
                        // Conflict: back up past the bad prefix.
                        (false, prev_log_index.saturating_sub(1))
                    }
                    Some(_) => {
                        // Append, truncating any conflicting suffix. Entries
                        // at or below the snapshot boundary are already
                        // committed here and are skipped.
                        let through = prev_log_index + entries.len() as LogIndex;
                        for (i, entry) in entries.into_iter().enumerate() {
                            let idx = prev_log_index + 1 + i as LogIndex;
                            if idx <= disk.snapshot_last_index() {
                                continue;
                            }
                            match disk.term_at(idx) {
                                Some(t) if t == entry.term => { /* already have it */ }
                                Some(_) => {
                                    disk.truncate_to(idx - 1);
                                    disk.log.push(entry);
                                }
                                None => disk.log.push(entry),
                            }
                        }
                        (true, through)
                    }
                }
            }
        };

        if success {
            let new_commit = {
                let mut s = self.inner.borrow_mut();
                let last = s.disk.borrow().last_index();
                let target = leader_commit.min(last);
                if target > s.commit_index {
                    s.commit_index = target;
                    true
                } else {
                    false
                }
            };
            if new_commit {
                self.apply_committed(sim);
            }
        }

        let from = self.id();
        let my_term = self.term();
        self.net.send(
            sim,
            self.addr.clone(),
            self.peer(leader),
            RaftMsg::AppendEntriesResp {
                term: my_term,
                from,
                success,
                match_index,
                hb_seq,
            },
        );
    }

    fn on_append_resp(
        &self,
        sim: &mut Sim,
        term: Term,
        from: NodeId,
        success: bool,
        match_index: LogIndex,
        hb_seq: u64,
    ) {
        let current = self.term();
        if term > current {
            self.step_down(sim, term, None);
            return;
        }
        if term < current || self.role() != Role::Leader {
            return;
        }
        if success {
            let send_more = {
                let mut s = self.inner.borrow_mut();
                let m = s.match_index.entry(from).or_insert(0);
                if match_index > *m {
                    *m = match_index;
                }
                // Never backwards: entries beyond the ack may be in flight.
                let next = s.next_index.entry(from).or_insert(1);
                *next = (*next).max(match_index + 1);
                let unsent = *next <= s.disk.borrow().last_index();
                // Record the heartbeat ack for pending ReadIndex reads.
                for r in &mut s.pending_reads {
                    if hb_seq >= r.min_seq {
                        r.acks.insert(from);
                    }
                }
                unsent
            };
            self.maybe_advance_commit(sim);
            self.check_reads(sim);
            if send_more {
                self.send_append_to(sim, from);
            }
        } else {
            {
                let mut s = self.inner.borrow_mut();
                let acked = s.match_index.get(&from).copied().unwrap_or(0);
                let next = s.next_index.entry(from).or_insert(1);
                // Back up using the follower's hint, never below what it
                // already acknowledged this term (a stale rejection can
                // trail the ack of a retransmission).
                *next = (match_index + 1)
                    .min((*next).saturating_sub(1))
                    .max(acked + 1);
            }
            self.send_append_to(sim, from);
        }
    }
}
