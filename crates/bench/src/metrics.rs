//! The metrics the experiment harness itself records, declared once.

use dlaas_sim::HistogramDecl;

dlaas_sim::declare_metrics! {
    /// Fig. 4 recovery times, by crashed component.
    pub const RECOVERY_SECONDS: &HistogramDecl<1> = &HistogramDecl::new(
        "bench_recovery_seconds",
        ["component"],
        "seconds from a component crash to its recovery, by component",
    );
    /// Fault-matrix fault-to-terminal times, by fault kind and injection
    /// point. No help text: the matrix report embeds this family's
    /// exposition, and a `# HELP` line would change its bytes.
    pub const MATRIX_RECOVERY_SECONDS: &HistogramDecl<2> =
        &HistogramDecl::new("bench_matrix_recovery_seconds", ["fault", "point"], "");
    /// Per-trial host wall-clock, by campaign. Lives in the runner's
    /// *reporting* registry — never in a trial's `Sim` registry — so
    /// deterministic artifacts stay wall-free.
    pub const TRIAL_WALL_SECONDS: &HistogramDecl<1> = &HistogramDecl::new(
        "bench_trial_wall_seconds",
        ["campaign"],
        "host wall-clock seconds per trial, by campaign",
    )
    .with_buckets(&[
        0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
        1800.0,
    ]);
}
