//! The marks an etcd member makes, each on its own timeline (subject:
//! the member id).

dlaas_sim::marks! {
    /// An etcd member's marks.
    etcd: "etcd" {
        /// The member applied a lease revocation; arg: the lease id.
        LEASE_REVOKED = "lease-revoked";
        /// The member became the leader's lessor; arg: its Raft term.
        LESSOR_PROMOTED = "lessor-promoted";
        /// The leader's lessor found a lease past its deadline; arg: the
        /// lease id.
        LEASE_EXPIRED = "lease-expired";
    }
}
