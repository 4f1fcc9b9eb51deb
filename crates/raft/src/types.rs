//! Raft wire types, configuration and persistent state.

use std::rc::Rc;

use dlaas_sim::SimDuration;

/// Identifier of a Raft node within its cluster (0-based).
pub type NodeId = u32;

/// A Raft term number.
pub type Term = u64;

/// A 1-based index into the replicated log.
pub type LogIndex = u64;

/// One replicated log entry.
///
/// The command is allocated once, when the leader accepts the proposal,
/// and shared from then on: the leader's log, every `AppendEntries` that
/// ships it and every follower's log hold handles to the same immutable
/// value, so replication copies a pointer per hop, never the command.
#[derive(Debug, PartialEq, Eq)]
pub struct LogEntry<C> {
    /// Term in which the entry was created by a leader.
    pub term: Term,
    /// The replicated command.
    pub cmd: Rc<C>,
}

impl<C> LogEntry<C> {
    /// An entry of `term` owning `cmd`.
    pub fn new(term: Term, cmd: C) -> Self {
        LogEntry {
            term,
            cmd: Rc::new(cmd),
        }
    }
}

// Not derived: a handle clones without `C: Clone`.
impl<C> Clone for LogEntry<C> {
    fn clone(&self) -> Self {
        LogEntry {
            term: self.term,
            cmd: self.cmd.clone(),
        }
    }
}

/// A compacted prefix of the log: the state machine's serialized state
/// as of `last_index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Index of the last entry folded into this snapshot.
    pub last_index: LogIndex,
    /// Term of that entry.
    pub last_term: Term,
    /// Serialized state-machine contents.
    pub data: Vec<u8>,
}

/// Messages exchanged between Raft peers (Figure 2 of the Raft paper, plus
/// a heartbeat sequence number used for ReadIndex reads, plus
/// InstallSnapshot from §7 for followers that have fallen behind a
/// compacted log).
#[derive(Debug, Clone)]
pub enum RaftMsg<C> {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// The candidate requesting the vote.
        candidate: NodeId,
        /// Index of the candidate's last log entry.
        last_log_index: LogIndex,
        /// Term of the candidate's last log entry.
        last_log_term: Term,
    },
    /// Reply to `RequestVote`.
    RequestVoteResp {
        /// Responder's current term.
        term: Term,
        /// Responder id.
        from: NodeId,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries / heartbeats.
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// The leader's id (so followers learn who to redirect to).
        leader: NodeId,
        /// Index of the entry immediately preceding `entries`.
        prev_log_index: LogIndex,
        /// Term of the entry at `prev_log_index`.
        prev_log_term: Term,
        /// Entries to append (empty for pure heartbeats).
        entries: Vec<LogEntry<C>>,
        /// Leader's commit index.
        leader_commit: LogIndex,
        /// Monotone per-leader heartbeat round, echoed in the response;
        /// lets the leader confirm leadership for ReadIndex reads.
        hb_seq: u64,
    },
    /// Leader ships its snapshot to a follower whose next entry has been
    /// compacted away.
    InstallSnapshot {
        /// Leader's term.
        term: Term,
        /// The leader's id.
        leader: NodeId,
        /// The snapshot.
        snapshot: Snapshot,
    },
    /// Reply to `InstallSnapshot`.
    InstallSnapshotResp {
        /// Responder's current term.
        term: Term,
        /// Responder id.
        from: NodeId,
        /// The snapshot index now replicated on the responder.
        last_index: LogIndex,
    },
    /// Reply to `AppendEntries`.
    AppendEntriesResp {
        /// Responder's current term.
        term: Term,
        /// Responder id.
        from: NodeId,
        /// Whether the append matched and was accepted.
        success: bool,
        /// On success, the index of the last entry now known replicated on
        /// the responder; on failure, the responder's suggested retry
        /// point (one before `prev_log_index`, capped to its log length).
        match_index: LogIndex,
        /// Echo of the request's `hb_seq`.
        hb_seq: u64,
    },
}

/// Tunable timing parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaftConfig {
    /// Minimum randomized election timeout.
    pub election_timeout_min: SimDuration,
    /// Maximum randomized election timeout.
    pub election_timeout_max: SimDuration,
    /// Leader heartbeat period (must be well under the election timeout).
    pub heartbeat_interval: SimDuration,
    /// Maximum entries shipped per `AppendEntries`.
    pub max_batch: usize,
    /// Log-compaction threshold: once at least this many applied entries
    /// sit above the last snapshot, the node folds them into a new
    /// snapshot (requires snapshot hooks; `0` disables compaction).
    pub compact_threshold: usize,
}

impl Default for RaftConfig {
    /// etcd's defaults (its tuning guide, "Time parameters"): a 100 ms
    /// heartbeat and a 1 s election timeout, randomized up to 2 s as etcd
    /// randomizes its own. The Raft paper's 50 ms / 150–300 ms example
    /// costs twice the keep-alive and elects needlessly once peer latency
    /// degrades to a few hundred ms; `ablation_detection` (EXPERIMENTS.md)
    /// is the sweep this was chosen from.
    fn default() -> Self {
        RaftConfig {
            election_timeout_min: SimDuration::from_millis(1_000),
            election_timeout_max: SimDuration::from_millis(2_000),
            heartbeat_interval: SimDuration::from_millis(100),
            max_batch: 64,
            compact_threshold: 0,
        }
    }
}

impl RaftConfig {
    /// Validates invariants between the timing parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.election_timeout_min.is_zero() {
            return Err("election_timeout_min must be positive".into());
        }
        if self.election_timeout_max <= self.election_timeout_min {
            return Err("election_timeout_max must exceed election_timeout_min".into());
        }
        if self.heartbeat_interval.is_zero()
            || self.heartbeat_interval * 2 > self.election_timeout_min
        {
            return Err("heartbeat_interval must be well under election_timeout_min".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be positive".into());
        }
        Ok(())
    }
}

/// State that must survive crashes (Raft's "persistent state on all
/// servers"). In the simulation this lives on a per-node "disk" owned by
/// the cluster harness, outside the crashable node object.
///
/// The log may have a compacted prefix: `log` then holds only the entries
/// **after** `snapshot.last_index`. All index arithmetic is 1-based global
/// log indices; compacted indices report `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistentState<C> {
    /// Latest term the node has seen.
    pub current_term: Term,
    /// Candidate voted for in `current_term`, if any.
    pub voted_for: Option<NodeId>,
    /// The suffix of the replicated log after the snapshot (all of it
    /// when no snapshot exists); `log[0]` is index `first_index()`.
    pub log: Vec<LogEntry<C>>,
    /// The compacted prefix, if any.
    pub snapshot: Option<Snapshot>,
}

impl<C> Default for PersistentState<C> {
    fn default() -> Self {
        PersistentState {
            current_term: 0,
            voted_for: None,
            log: Vec::new(),
            snapshot: None,
        }
    }
}

impl<C> PersistentState<C> {
    /// Index of the last entry folded into the snapshot (0 = none).
    pub fn snapshot_last_index(&self) -> LogIndex {
        self.snapshot.as_ref().map_or(0, |s| s.last_index)
    }

    /// Term of the last snapshot entry (0 = none).
    pub fn snapshot_last_term(&self) -> Term {
        self.snapshot.as_ref().map_or(0, |s| s.last_term)
    }

    /// Global index of the first entry still in `log`.
    pub fn first_index(&self) -> LogIndex {
        self.snapshot_last_index() + 1
    }

    /// Index of the last log entry (counting the snapshot; 0 when empty).
    pub fn last_index(&self) -> LogIndex {
        self.snapshot_last_index() + self.log.len() as LogIndex
    }

    /// Term of the last log entry (falling back to the snapshot's term).
    pub fn last_term(&self) -> Term {
        self.log
            .last()
            .map_or(self.snapshot_last_term(), |e| e.term)
    }

    /// Term of the entry at `index`: 0 for index 0, the snapshot's term at
    /// its boundary, `None` for compacted interior indices or past the
    /// end.
    pub fn term_at(&self, index: LogIndex) -> Option<Term> {
        if index == 0 {
            return Some(0);
        }
        let snap = self.snapshot_last_index();
        if index == snap {
            return Some(self.snapshot_last_term());
        }
        if index < snap {
            return None; // compacted away
        }
        self.log.get((index - snap) as usize - 1).map(|e| e.term)
    }

    /// The entry at 1-based global `index`, if still present in the log.
    pub fn entry_at(&self, index: LogIndex) -> Option<&LogEntry<C>> {
        let snap = self.snapshot_last_index();
        if index <= snap {
            None
        } else {
            self.log.get((index - snap) as usize - 1)
        }
    }

    /// Truncates the log so `last_index()` becomes `index` (entries at or
    /// below the snapshot are untouchable).
    pub fn truncate_to(&mut self, index: LogIndex) {
        let snap = self.snapshot_last_index();
        let keep = index.saturating_sub(snap) as usize;
        self.log.truncate(keep);
    }

    /// Folds everything up to `upto` (inclusive) into a snapshot carrying
    /// `data`. No-op if `upto` is not past the current snapshot or is not
    /// present in the log.
    pub fn compact(&mut self, upto: LogIndex, data: Vec<u8>) -> bool {
        let snap = self.snapshot_last_index();
        if upto <= snap || upto > self.last_index() {
            return false;
        }
        let Some(term) = self.term_at(upto) else {
            return false;
        };
        let drop = (upto - snap) as usize;
        self.log.drain(..drop);
        self.snapshot = Some(Snapshot {
            last_index: upto,
            last_term: term,
            data,
        });
        true
    }

    /// Replaces everything at or below the incoming snapshot (follower
    /// side of InstallSnapshot). Retains any log suffix that extends past
    /// it and matches its term at the boundary; otherwise clears the log.
    pub fn install_snapshot(&mut self, snapshot: Snapshot) {
        if snapshot.last_index <= self.snapshot_last_index() {
            return; // stale
        }
        let keeps_suffix = self.term_at(snapshot.last_index) == Some(snapshot.last_term)
            && self.last_index() > snapshot.last_index;
        if keeps_suffix {
            let snap = self.snapshot_last_index();
            let drop = (snapshot.last_index - snap) as usize;
            self.log.drain(..drop.min(self.log.len()));
        } else {
            self.log.clear();
        }
        self.snapshot = Some(snapshot);
    }
}

/// The role a node currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Role {
    /// Passive replica, following a leader.
    #[default]
    Follower,
    /// Running an election for the current term.
    Candidate,
    /// The (unique per term) log replicator.
    Leader,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Role::Follower => "follower",
            Role::Candidate => "candidate",
            Role::Leader => "leader",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        RaftConfig::default().validate().unwrap();
    }

    #[test]
    fn config_validation_catches_bad_timings() {
        let d = RaftConfig::default();
        let c = RaftConfig {
            election_timeout_max: d.election_timeout_min,
            ..d.clone()
        };
        assert!(c.validate().is_err());

        let c = RaftConfig {
            heartbeat_interval: d.election_timeout_min,
            ..d.clone()
        };
        assert!(c.validate().is_err());

        let c = RaftConfig {
            max_batch: 0,
            ..d.clone()
        };
        assert!(c.validate().is_err());

        let c = RaftConfig {
            election_timeout_min: SimDuration::ZERO,
            ..d
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn persistent_state_indexing() {
        let mut p: PersistentState<&str> = PersistentState::default();
        assert_eq!(p.last_index(), 0);
        assert_eq!(p.last_term(), 0);
        assert_eq!(p.term_at(0), Some(0));
        assert_eq!(p.term_at(1), None);
        assert_eq!(p.first_index(), 1);

        p.log.push(LogEntry::new(1, "a"));
        p.log.push(LogEntry::new(2, "b"));
        assert_eq!(p.last_index(), 2);
        assert_eq!(p.last_term(), 2);
        assert_eq!(p.term_at(1), Some(1));
        assert_eq!(p.term_at(2), Some(2));
        assert_eq!(*p.entry_at(2).unwrap().cmd, "b");
        assert_eq!(p.entry_at(0), None);
        assert_eq!(p.entry_at(3), None);
    }

    #[test]
    fn compaction_preserves_global_indexing() {
        let mut p: PersistentState<u32> = PersistentState::default();
        for i in 1..=10u32 {
            p.log.push(LogEntry::new((i as u64).div_ceil(2), i));
        }
        assert!(p.compact(6, vec![1, 2, 3]));
        assert_eq!(p.snapshot_last_index(), 6);
        assert_eq!(p.snapshot_last_term(), 3);
        assert_eq!(p.first_index(), 7);
        assert_eq!(p.last_index(), 10);
        assert_eq!(p.last_term(), 5);
        // Boundary, compacted interior, live suffix, past the end.
        assert_eq!(p.term_at(6), Some(3));
        assert_eq!(p.term_at(3), None);
        assert_eq!(p.term_at(7), Some(4));
        assert_eq!(p.term_at(11), None);
        assert_eq!(p.entry_at(6), None);
        assert_eq!(*p.entry_at(7).unwrap().cmd, 7);
        // Invalid compactions are rejected.
        assert!(!p.compact(6, vec![]), "not past snapshot");
        assert!(!p.compact(99, vec![]), "past the end");
        // truncate_to respects the boundary.
        p.truncate_to(8);
        assert_eq!(p.last_index(), 8);
        p.truncate_to(2); // below snapshot: clamps to empty suffix
        assert_eq!(p.last_index(), 6);
    }

    #[test]
    fn install_snapshot_follower_side() {
        let mut p: PersistentState<u32> = PersistentState::default();
        for i in 1..=4u32 {
            p.log.push(LogEntry::new(1, i));
        }
        // Snapshot covering past our whole log: everything is replaced.
        p.install_snapshot(Snapshot {
            last_index: 6,
            last_term: 2,
            data: vec![9],
        });
        assert_eq!(p.last_index(), 6);
        assert!(p.log.is_empty());

        // A matching suffix survives a snapshot that lands mid-log.
        p.log.push(LogEntry::new(2, 7));
        p.log.push(LogEntry::new(2, 8));
        p.install_snapshot(Snapshot {
            last_index: 7,
            last_term: 2,
            data: vec![],
        });
        assert_eq!(p.first_index(), 8);
        assert_eq!(*p.entry_at(8).unwrap().cmd, 8);

        // Stale snapshots are ignored.
        p.install_snapshot(Snapshot {
            last_index: 3,
            last_term: 1,
            data: vec![],
        });
        assert_eq!(p.snapshot_last_index(), 7);
    }

    #[test]
    fn role_display() {
        assert_eq!(Role::Follower.to_string(), "follower");
        assert_eq!(Role::Leader.to_string(), "leader");
        assert_eq!(Role::default(), Role::Follower);
    }
}
