//! The marks the campaigns make: a fault injected by the matrix or the
//! chaos rotation (subject: the job it targets, or `platform`). Each
//! def's `what` is its [`FaultKind`](crate::matrix::FaultKind)'s label.

dlaas_sim::marks! {
    /// An injected fault, by kind; arg: 0.
    fault: "fault" {
        /// The job's Guardian pod was crashed.
        GUARDIAN_CRASH = "guardian_crash";
        /// The etcd leader was crashed.
        ETCD_LEADER_CRASH = "etcd_leader_crash";
        /// The metadata store was crashed.
        MONGO_CRASH = "mongo_crash";
        /// The NFS data plane went away.
        NFS_OUTAGE = "nfs_outage";
        /// The etcd leader was partitioned from its peers.
        PARTITION = "partition";
        /// The LCM leader was crashed.
        LCM_OWNER_CRASH = "lcm_owner_crash";
    }
}
