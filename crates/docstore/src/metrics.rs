//! The metrics `dlaas-docstore` emits, declared once.

use dlaas_sim::{count_buckets, HistogramDecl};

dlaas_sim::declare_metrics! {
    /// Candidate documents examined per metadata-store request, by op
    /// (`find`, `find_changed`, `update_one`, …) — a work count, and its
    /// `_count` is the number of requests served.
    pub const DOCS_EXAMINED: &HistogramDecl<1> = &HistogramDecl::new(
        "mongo_docs_examined",
        ["op"],
        "candidate documents examined per metadata query, by op",
    )
    .with_buckets(count_buckets());
}
