//! The marks the fault injectors make.

dlaas_sim::marks! {
    /// The substrate fault windows and triggers: subject `net`, `nfs` or
    /// the trigger's label.
    faults: "faults" {
        /// A predicate trigger fired its action; arg: 0.
        TRIGGER_FIRED = "trigger-fired";
        /// A network partition began; arg: its length in µs.
        PARTITION = "partition";
        /// The partition healed; arg: 0.
        PARTITION_HEALED = "partition-healed";
        /// A network's latency model was degraded; arg: the window's length
        /// in µs.
        LATENCY_DEGRADED = "latency-degraded";
        /// The network's latency model was restored; arg: 0.
        LATENCY_RESTORED = "latency-restored";
        /// The NFS data plane went away; arg: the outage's length in µs.
        OUTAGE = "outage";
        /// The NFS data plane came back; arg: 0.
        RESTORED = "restored";
    }
    /// The chaos monkey's marks (subject: the pod).
    chaos_monkey: "chaos-monkey" {
        /// The monkey crashed a running pod; arg: 0.
        CRASH = "crash";
    }
}
