//! The metrics `dlaas-net` emits, declared once.

use dlaas_sim::CounterDecl;

dlaas_sim::declare_metrics! {
    /// Attempts a retry policy ([`crate::Retry`]) started after a
    /// request's first, by policy: what an acknowledged operation cost
    /// beyond its one send.
    pub const RPC_RETRIES: &CounterDecl<1> = &CounterDecl::new(
        "rpc_retries_total",
        ["client"],
        "attempts started after a request's first, by retry policy",
    );
    /// Requests a retry policy refused because no attempt could start
    /// inside its budget, by policy.
    pub const RPC_BUDGETS_SPENT: &CounterDecl<1> = &CounterDecl::new(
        "rpc_budgets_spent_total",
        ["client"],
        "requests refused with their retry budget spent, by retry policy",
    );
}
