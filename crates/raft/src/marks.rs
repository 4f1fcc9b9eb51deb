//! The marks a Raft node makes, each on its own timeline (subject: the
//! node id).

dlaas_sim::marks! {
    /// A Raft node's marks.
    raft: "raft" {
        /// The node crashed; arg: 0.
        CRASHED = "crashed";
        /// The node restarted from its disk; arg: 0.
        RESTARTED = "restarted";
        /// The node started an election; arg: the term it stands in.
        ELECTION = "election";
        /// The node won an election; arg: its term.
        LEADER = "leader";
        /// The node compacted its log; arg: the index it compacted up to.
        COMPACTED = "compacted";
        /// The node installed a leader's snapshot; arg: the snapshot's last
        /// index.
        SNAPSHOT_INSTALLED = "snapshot-installed";
    }
}
