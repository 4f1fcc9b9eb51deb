//! Client-facing etcd protocol types.

use std::rc::Rc;

use dlaas_net::Addr;
use dlaas_raft::NodeId;

use crate::kv::{KvEvent, LeaseId, Revision};

/// Requests a client sends to an etcd server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EtcdRequest {
    /// Set `key` to `value` (linearizable write).
    Put {
        /// Key to set.
        key: String,
        /// New value.
        value: String,
        /// Lease to attach the key to (`None` detaches).
        lease: Option<LeaseId>,
    },
    /// Linearizable read of one key.
    Get {
        /// Key to read.
        key: String,
    },
    /// Linearizable read of all keys with a prefix.
    GetPrefix {
        /// Prefix to read.
        prefix: String,
    },
    /// Remove one key.
    Delete {
        /// Key to remove.
        key: String,
    },
    /// Remove all keys with a prefix.
    DeletePrefix {
        /// Prefix to remove.
        prefix: String,
    },
    /// Compare-and-swap (see [`crate::kv::KvOp::Cas`]).
    Cas {
        /// Key to conditionally modify.
        key: String,
        /// Expected current value (`None` expects absence).
        expect: Option<String>,
        /// Replacement (`None` deletes).
        value: Option<String>,
        /// Lease to attach the written key to; the CAS fails if the
        /// lease has been revoked.
        lease: Option<LeaseId>,
    },
    /// Grant a lease with the given sim-time TTL; the id comes back in
    /// [`EtcdResponse::LeaseGranted`].
    LeaseGrant {
        /// Time-to-live in sim microseconds.
        ttl_us: u64,
    },
    /// Renew a lease: once a ReadIndex round confirms its leadership, the
    /// leader moves the lease's deadline to the instant it received this
    /// request plus the TTL. No log entry.
    LeaseKeepAlive {
        /// The lease to refresh.
        id: LeaseId,
    },
    /// Revoke a lease, deleting every attached key.
    LeaseRevoke {
        /// The lease to revoke.
        id: LeaseId,
    },
    /// Register a prefix watch; events flow to `watcher` on the watch
    /// channel, tagged with `watch_id`.
    WatchCreate {
        /// Prefix to observe.
        prefix: String,
        /// Address to notify.
        watcher: Addr,
        /// Client-chosen id echoed in notifications.
        watch_id: u64,
    },
    /// Cancel a previously created watch.
    WatchCancel {
        /// Id passed at creation.
        watch_id: u64,
        /// Address that registered the watch.
        watcher: Addr,
    },
}

/// Responses from an etcd server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EtcdResponse {
    /// Mutation applied at this store revision.
    Ok {
        /// Store revision after the mutation.
        revision: Revision,
    },
    /// Result of [`EtcdRequest::Get`].
    Value {
        /// The value, if the key exists.
        value: Option<String>,
        /// Store revision at read time.
        revision: Revision,
    },
    /// Result of [`EtcdRequest::GetPrefix`].
    Values {
        /// Matching `(key, value)` pairs in key order.
        pairs: Vec<(String, String)>,
        /// Store revision at read time.
        revision: Revision,
    },
    /// Result of [`EtcdRequest::Cas`].
    CasResult {
        /// `false` when the expectation did not hold.
        succeeded: bool,
        /// Store revision after the command.
        revision: Revision,
    },
    /// Result of [`EtcdRequest::LeaseGrant`].
    LeaseGranted {
        /// The allocated lease id.
        id: LeaseId,
        /// Store revision when the grant applied.
        revision: Revision,
    },
    /// Result of [`EtcdRequest::LeaseKeepAlive`].
    LeaseKept {
        /// `false` when the lease is unknown, revoked or past its deadline.
        alive: bool,
        /// Store revision when the renewal was answered.
        revision: Revision,
    },
    /// This node is not the leader; retry at `hint` if known.
    NotLeader {
        /// Likely current leader.
        hint: Option<NodeId>,
    },
    /// Watch registered / cancelled.
    WatchAck {
        /// The incarnation of the member that acknowledged: a registration
        /// dies with it (the member's restart breaks the watch stream).
        incarnation: u64,
    },
}

/// One-way watch notification delivered on the watch channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchNotify {
    /// The id the client chose at registration.
    pub watch_id: u64,
    /// Changes, in application order. Each event is one allocation
    /// shared by every registration (on this replica) it matched.
    pub events: Vec<Rc<KvEvent>>,
}

/// Client-visible failure of an etcd operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EtcdError {
    /// No server could be reached / no leader emerged within the retry
    /// budget.
    Unavailable,
    /// The server reported an application error.
    Failed(String),
}

impl std::fmt::Display for EtcdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EtcdError::Unavailable => write!(f, "etcd unavailable"),
            EtcdError::Failed(m) => write!(f, "etcd error: {m}"),
        }
    }
}

impl std::error::Error for EtcdError {}

/// The network address of etcd server `id`.
pub fn etcd_addr(id: NodeId) -> Addr {
    Addr::new(format!("etcd-{id}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_scheme() {
        assert_eq!(etcd_addr(2).as_str(), "etcd-2");
    }

    #[test]
    fn error_display() {
        assert_eq!(EtcdError::Unavailable.to_string(), "etcd unavailable");
        assert_eq!(EtcdError::Failed("x".into()).to_string(), "etcd error: x");
    }
}
