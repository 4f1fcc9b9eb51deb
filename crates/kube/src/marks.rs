//! The cluster's events: each is a mark (and a bump of
//! `kube_events_total{reason}`, the mark's `what`), on the timeline of
//! the job a pod is labelled with, or else of `pod/…`, `node/…`,
//! `deploy/…`, `sts/…`, `job/…` or `svc/…`. The arg of every one is the
//! pod's uid, and 0 for an event that is not a pod's.

dlaas_sim::marks! {
    /// The cluster's events, by reason.
    kube: "kube" {
        /// An object was created.
        CREATED = "Created";
        /// A pod's creation was refused (its name is taken).
        CREATE_FAILED = "CreateFailed";
        /// A pod was bound to a node.
        SCHEDULED = "Scheduled";
        /// A pod's containers began starting (image pull, start latency).
        STARTING = "Starting";
        /// A pod's container is running.
        STARTED = "Started";
        /// A started pod's container names no registered behavior.
        BEHAVIOR_MISSING = "BehaviorMissing";
        /// A pod's container exited.
        CONTAINER_EXITED = "ContainerExited";
        /// A pod changed phase.
        PHASE_CHANGED = "PhaseChanged";
        /// A K8s Job completed.
        COMPLETE = "Complete";
        /// A K8s Job's pods failed past its backoff limit.
        BACKOFF_LIMIT_EXCEEDED = "BackoffLimitExceeded";
        /// A pod's container is being restarted.
        RESTARTING = "Restarting";
        /// A pod crashed.
        CRASHED = "Crashed";
        /// An object was deleted.
        DELETED = "Deleted";
        /// A node crashed.
        NODE_CRASHED = "NodeCrashed";
        /// A pod was lost with its node.
        NODE_LOST = "NodeLost";
        /// A node was cordoned.
        CORDONED = "Cordoned";
        /// A node was uncordoned.
        UNCORDONED = "Uncordoned";
        /// A pod was evicted from a draining node.
        EVICTED = "Evicted";
        /// A node is ready again.
        NODE_READY = "NodeReady";
    }
}
