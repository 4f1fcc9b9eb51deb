//! Deterministic metrics for the DLaaS reproduction.
//!
//! The platform's dependability story is quantitative — recovery times per
//! component, restart counts under chaos, deploy latencies — so every layer
//! records into a shared [`Registry`] of labelled counters, gauges and
//! fixed-bucket histograms. Two properties distinguish this from a typical
//! metrics library:
//!
//! - **Determinism.** The registry never reads wall-clock time or any other
//!   ambient state. Durations are recorded from the simulation clock (as
//!   integer microseconds), label sets and families iterate in sorted
//!   order, and the text exposition is byte-identical across runs with the
//!   same seed.
//! - **Zero dependencies.** `dlaas-obs` sits below `dlaas-sim` in the crate
//!   graph, so the simulation kernel itself can own a registry and every
//!   component reachable from a `&mut Sim` can instrument itself.
//!
//! # Examples
//!
//! ```
//! use dlaas_obs::{CounterDecl, HistogramDecl, Registry};
//!
//! const JOBS_SUBMITTED: &CounterDecl<1> =
//!     &CounterDecl::new("jobs_submitted_total", ["tenant"], "jobs submitted, by tenant");
//! const DEPLOY_SECONDS: &HistogramDecl<0> =
//!     &HistogramDecl::new("deploy_seconds", [], "seconds to deploy a job");
//!
//! let reg = Registry::new();
//! reg.counter_series(JOBS_SUBMITTED, ["acme"]).inc();
//! reg.histogram_series(DEPLOY_SECONDS, []).observe_duration_us(2_500_000); // 2.5 s
//! // A declaration reads as its name wherever a `&str` is expected.
//! assert_eq!(reg.counter_value(JOBS_SUBMITTED, &[("tenant", "acme")]), 1);
//! assert!(reg.expose().contains(r#"jobs_submitted_total{tenant="acme"} 1"#));
//! ```
//!
//! The declaration's type is the contract: a wrong number of label
//! values does not compile,
//!
//! ```compile_fail
//! use dlaas_obs::{CounterDecl, Registry};
//! const REQS: &CounterDecl<1> = &CounterDecl::new("reqs_total", ["kind"], "requests, by kind");
//! Registry::new().counter_series(REQS, ["submit", "acme"]);
//! ```
//!
//! and neither does using a counter as a gauge:
//!
//! ```compile_fail
//! use dlaas_obs::{CounterDecl, Registry};
//! const REQS: &CounterDecl<0> = &CounterDecl::new("reqs_total", [], "requests");
//! Registry::new().gauge_series(REQS, []);
//! ```

// Library code stays quiet and inside the simulation (DESIGN.md §7).
#![warn(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::exit
)]
#![warn(missing_docs)]

mod decl;
mod histogram;
mod snapshot;
#[cfg(feature = "wallclock")]
pub mod wallclock;

pub use decl::{CounterDecl, GaugeDecl, HistogramDecl, MetricDecl};
pub use histogram::{count_buckets, default_buckets, Histogram};
pub use snapshot::{Snapshot, SnapshotDiff};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// A label set in canonical (sorted, owned) form.
pub type Labels = Vec<(String, String)>;

fn canon(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
    v.sort();
    v
}

/// The canonical label set of a declared family's series.
fn declared<const N: usize>(keys: &[&'static str; N], values: [&str; N]) -> Labels {
    canon(&std::array::from_fn::<_, N, _>(|i| (keys[i], values[i])))
}

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Distribution over fixed buckets.
    Histogram,
}

impl MetricKind {
    /// Lowercase name, as on the `# TYPE` line.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Series values live behind shared cells so a [`CounterHandle`] /
/// [`GaugeHandle`] / [`HistogramHandle`] can update them directly,
/// bypassing the family and label-set lookups entirely.
#[derive(Debug, Clone)]
enum Series {
    Counter(Rc<Cell<u64>>),
    Gauge(Rc<Cell<f64>>),
    Histogram(Rc<RefCell<Histogram>>),
}

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: &'static str,
    /// Bucket bounds of every histogram series of the family, shared
    /// (never deep-copied) into each; empty for counters and gauges.
    buckets: Rc<[f64]>,
    series: BTreeMap<Labels, Series>,
}

#[derive(Debug, Default)]
struct Inner {
    families: BTreeMap<&'static str, Family>,
}

/// A shared, clonable handle to a metrics registry.
///
/// Cloning is cheap and every clone records into the same store, which is
/// how one registry is threaded through the simulation kernel, the
/// platform services and the substrates.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Rc<RefCell<Inner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The series of family `name` under `key` (a clone of its shared
    /// cell), creating the family from its declaration and the series at
    /// zero on first use. A name has one kind for the life of the registry.
    fn series(
        &self,
        name: &'static str,
        kind: MetricKind,
        help: &'static str,
        buckets: &[f64],
        key: Labels,
    ) -> Series {
        let mut inner = self.inner.borrow_mut();
        let fam = inner.families.entry(name).or_insert_with(|| Family {
            kind,
            help,
            buckets: buckets.into(),
            series: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric '{name}' already registered as {} (used as {})",
            fam.kind.as_str(),
            kind.as_str()
        );
        let Family {
            buckets, series, ..
        } = fam;
        series
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Series::Counter(Rc::new(Cell::new(0))),
                MetricKind::Gauge => Series::Gauge(Rc::new(Cell::new(0.0))),
                // Rc clone of the bounds, not a copy: a new series
                // allocates only its own counts.
                MetricKind::Histogram => Series::Histogram(Rc::new(RefCell::new(
                    Histogram::with_shared_bounds(buckets.clone()),
                ))),
            })
            .clone()
    }

    /// The series of counter family `decl` under `values` (one per
    /// declared label key, in declaration order), created at 0 if
    /// absent. Hot sites keep the handle; cold ones bump it and drop it.
    pub fn counter_series<const N: usize>(
        &self,
        decl: &CounterDecl<N>,
        values: [&str; N],
    ) -> CounterHandle {
        let key = declared(&decl.label_keys, values);
        match self.series(decl.name, MetricKind::Counter, decl.help, &[], key) {
            Series::Counter(cell) => CounterHandle { cell },
            _ => unreachable!("family kind checked"),
        }
    }

    /// The series of gauge family `decl` under `values` (created at 0 if
    /// absent).
    pub fn gauge_series<const N: usize>(
        &self,
        decl: &GaugeDecl<N>,
        values: [&str; N],
    ) -> GaugeHandle {
        let key = declared(&decl.label_keys, values);
        match self.series(decl.name, MetricKind::Gauge, decl.help, &[], key) {
            Series::Gauge(cell) => GaugeHandle { cell },
            _ => unreachable!("family kind checked"),
        }
    }

    /// The series of histogram family `decl` under `values` (created
    /// empty if absent, over the declaration's buckets).
    pub fn histogram_series<const N: usize>(
        &self,
        decl: &HistogramDecl<N>,
        values: [&str; N],
    ) -> HistogramHandle {
        let key = declared(&decl.label_keys, values);
        match self.series(
            decl.name,
            MetricKind::Histogram,
            decl.help,
            decl.buckets,
            key,
        ) {
            Series::Histogram(cell) => HistogramHandle { cell },
            _ => unreachable!("family kind checked"),
        }
    }

    /// A handle to one counter series of an *undeclared* family, by
    /// name. Kept only because the frozen `benchmark/` package calls it;
    /// the workspace bans it (`clippy.toml`, `disallowed-methods`) in
    /// favour of [`Registry::counter_series`].
    pub fn counter_handle(&self, name: &'static str, labels: &[(&str, &str)]) -> CounterHandle {
        match self.series(name, MetricKind::Counter, "", &[], canon(labels)) {
            Series::Counter(cell) => CounterHandle { cell },
            _ => unreachable!("family kind checked"),
        }
    }

    /// Current value of a counter series (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let inner = self.inner.borrow();
        match inner
            .families
            .get(name)
            .and_then(|f| f.series.get(&canon(labels)))
        {
            Some(Series::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Sum over every series of a counter family (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        let inner = self.inner.borrow();
        inner.families.get(name).map_or(0, |f| {
            f.series
                .values()
                .map(|s| match s {
                    Series::Counter(c) => c.get(),
                    _ => 0,
                })
                .sum()
        })
    }

    /// Current value of a gauge series (`None` when absent).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let inner = self.inner.borrow();
        match inner
            .families
            .get(name)
            .and_then(|f| f.series.get(&canon(labels)))
        {
            Some(Series::Gauge(g)) => Some(g.get()),
            _ => None,
        }
    }

    /// A copy of one histogram series (`None` when absent).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        let inner = self.inner.borrow();
        match inner
            .families
            .get(name)
            .and_then(|f| f.series.get(&canon(labels)))
        {
            Some(Series::Histogram(h)) => Some(h.borrow().clone()),
            _ => None,
        }
    }

    /// One histogram aggregated across every series of the family
    /// (`None` when the family is absent or empty).
    pub fn histogram_merged(&self, name: &str) -> Option<Histogram> {
        let inner = self.inner.borrow();
        let fam = inner.families.get(name)?;
        let mut merged: Option<Histogram> = None;
        for s in fam.series.values() {
            if let Series::Histogram(h) = s {
                let h = h.borrow();
                match &mut merged {
                    None => merged = Some(h.clone()),
                    Some(m) => m.merge(&h),
                }
            }
        }
        merged
    }

    /// Interpolated quantile of one histogram series.
    pub fn quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        self.histogram(name, labels).and_then(|h| h.quantile(q))
    }

    /// Renders the whole registry in Prometheus text exposition format.
    ///
    /// Output is fully deterministic: families and label sets appear in
    /// sorted order and numbers format identically across runs.
    pub fn expose(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        for (name, fam) in &inner.families {
            if fam.series.is_empty() {
                continue;
            }
            if !fam.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", fam.help);
            }
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            for (labels, series) in &fam.series {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", fmt_labels(labels, &[]), c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{name}{} {}",
                            fmt_labels(labels, &[]),
                            fmt_f64(g.get())
                        );
                    }
                    Series::Histogram(h) => {
                        let h = h.borrow();
                        let mut cumulative = 0u64;
                        for (bound, count) in h.bounds().iter().zip(h.bucket_counts()) {
                            cumulative += count;
                            let le = ("le", fmt_f64(*bound));
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                fmt_labels(labels, &[(le.0, &le.1)])
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            fmt_labels(labels, &[("le", "+Inf")]),
                            h.count()
                        );
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            fmt_labels(labels, &[]),
                            fmt_f64(h.sum())
                        );
                        let _ =
                            writeln!(out, "{name}_count{} {}", fmt_labels(labels, &[]), h.count());
                    }
                }
            }
        }
        out
    }

    /// A point-in-time copy of every scalar the registry holds, for
    /// snapshot/diff assertions in tests and benches.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.borrow();
        let mut values = BTreeMap::new();
        for (name, fam) in &inner.families {
            for (labels, series) in &fam.series {
                let key = format!("{name}{}", fmt_labels(labels, &[]));
                match series {
                    Series::Counter(c) => {
                        values.insert(key, c.get() as f64);
                    }
                    Series::Gauge(g) => {
                        values.insert(key, g.get());
                    }
                    Series::Histogram(h) => {
                        let h = h.borrow();
                        values.insert(format!("{key}:count"), h.count() as f64);
                        values.insert(format!("{key}:sum"), h.sum());
                    }
                }
            }
        }
        Snapshot::from_values(values)
    }
}

/// A direct handle to one counter series (see
/// [`Registry::counter_series`]). Increments write the shared cell
/// in-place — no registry borrow, no family lookup, no label
/// canonicalization — which is what lets per-event hot counters bump an
/// index instead of paying the full record path.
#[derive(Debug, Clone)]
pub struct CounterHandle {
    cell: Rc<Cell<u64>>,
}

impl CounterHandle {
    /// Increments by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.cell.set(self.cell.get() + n);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.get()
    }
}

/// A direct handle to one gauge series (see [`Registry::gauge_series`]).
#[derive(Debug, Clone)]
pub struct GaugeHandle {
    cell: Rc<Cell<f64>>,
}

impl GaugeHandle {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.cell.set(v);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        self.cell.set(self.cell.get() + delta);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.cell.get()
    }
}

/// A direct handle to one histogram series (see
/// [`Registry::histogram_series`]).
#[derive(Debug, Clone)]
pub struct HistogramHandle {
    cell: Rc<RefCell<Histogram>>,
}

impl HistogramHandle {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        self.cell.borrow_mut().observe(v);
    }

    /// Records a duration given in integer microseconds, in seconds.
    pub fn observe_duration_us(&self, micros: u64) {
        self.observe(micros as f64 / 1_000_000.0);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.cell.borrow().count()
    }
}

fn fmt_labels(labels: &Labels, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats an `f64` the same way on every run (shortest round-trip form;
/// whole numbers render without a trailing `.0` except to disambiguate).
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQ: &CounterDecl<1> = &CounterDecl::new("req_total", ["kind"], "requests, by kind");
    const M: &CounterDecl<0> = &CounterDecl::new("m", [], "");
    const PODS: &GaugeDecl<0> = &GaugeDecl::new("pods", [], "");
    const LAT: &HistogramDecl<1> = &HistogramDecl::new("lat_seconds", ["op"], "");

    #[test]
    fn counters_accumulate_per_label_set() {
        let reg = Registry::new();
        reg.counter_series(REQ, ["submit"]).inc();
        reg.counter_series(REQ, ["submit"]).inc();
        reg.counter_series(REQ, ["kill"]).add(5);
        assert_eq!(reg.counter_value(REQ, &[("kind", "submit")]), 2);
        assert_eq!(reg.counter_value(REQ, &[("kind", "kill")]), 5);
        assert_eq!(reg.counter_value(REQ, &[("kind", "other")]), 0);
        assert_eq!(reg.counter_total(REQ), 7);
        assert_eq!(reg.counter_total("absent"), 0);
    }

    #[test]
    fn label_order_is_canonical() {
        const BA: &CounterDecl<2> = &CounterDecl::new("m", ["b", "a"], "");
        let reg = Registry::new();
        reg.counter_series(BA, ["2", "1"]).inc();
        assert_eq!(reg.counter_value(BA, &[("b", "2"), ("a", "1")]), 1);
        assert_eq!(reg.counter_value(BA, &[("a", "1"), ("b", "2")]), 1);
        let expo = reg.expose();
        assert!(expo.contains(r#"m{a="1",b="2"} 1"#), "{expo}");
    }

    #[test]
    fn gauges_set_and_add() {
        const FRESH: &GaugeDecl<0> = &GaugeDecl::new("fresh", [], "");
        let reg = Registry::new();
        reg.gauge_series(PODS, []).set(3.0);
        assert_eq!(reg.gauge_value(PODS, &[]), Some(3.0));
        reg.gauge_series(PODS, []).add(-1.0);
        assert_eq!(reg.gauge_value(PODS, &[]), Some(2.0));
        reg.gauge_series(FRESH, []).add(4.0);
        assert_eq!(reg.gauge_value(FRESH, &[]), Some(4.0));
        assert_eq!(reg.gauge_value("absent", &[]), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        // Two declarations of one name (which `tests/tests/metrics.rs`
        // rules out across the workspace) still cannot share a family.
        const M_GAUGE: &GaugeDecl<0> = &GaugeDecl::new("m", [], "");
        let reg = Registry::new();
        reg.counter_series(M, []).inc();
        reg.gauge_series(M_GAUGE, []).set(1.0);
    }

    #[test]
    fn exposition_is_sorted_and_stable() {
        const ZZ: &CounterDecl<0> = &CounterDecl::new("zz_total", [], "last family");
        const AA: &CounterDecl<1> = &CounterDecl::new("aa_total", ["x"], "");
        const MID: &GaugeDecl<0> = &GaugeDecl::new("mid", [], "");
        let build = || {
            let reg = Registry::new();
            reg.counter_series(ZZ, []).inc();
            reg.counter_series(AA, ["2"]).inc();
            reg.counter_series(AA, ["1"]).inc();
            reg.gauge_series(MID, []).set(1.5);
            reg.histogram_series(LAT, ["find"]).observe(0.02);
            reg.expose()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "exposition must be byte-identical");
        let aa = a.find("aa_total").unwrap();
        let mid = a.find("mid").unwrap();
        let zz = a.find("zz_total").unwrap();
        assert!(aa < mid && mid < zz, "families must be sorted");
        assert!(a.contains("# TYPE lat_seconds histogram"));
        assert!(a.contains("# HELP zz_total last family"));
        assert!(!a.contains("# HELP aa_total"), "empty help renders no line");
        assert!(a.contains(r#"lat_seconds_bucket{op="find",le="+Inf"} 1"#));
    }

    #[test]
    fn exposition_escapes_label_values() {
        const PATHS: &CounterDecl<1> = &CounterDecl::new("m", ["path"], "");
        let reg = Registry::new();
        reg.counter_series(PATHS, ["a\"b\\c"]).inc();
        assert!(reg.expose().contains(r#"m{path="a\"b\\c"} 1"#));
    }

    #[test]
    fn histogram_sum_count_via_registry() {
        let reg = Registry::new();
        let h = reg.histogram_series(LAT, ["find"]);
        h.observe_duration_us(1_500_000);
        h.observe_duration_us(500_000);
        assert_eq!(h.count(), 2);
        let read = reg.histogram(LAT, &[("op", "find")]).unwrap();
        assert_eq!(read.count(), 2);
        assert!((read.sum() - 2.0).abs() < 1e-9);
        assert!(reg.quantile(LAT, &[("op", "find")], 0.5).is_some());
        assert!(reg.quantile("absent", &[], 0.5).is_none());
    }

    #[test]
    fn merged_histogram_spans_series() {
        let reg = Registry::new();
        reg.histogram_series(LAT, ["a"]).observe(1.0);
        reg.histogram_series(LAT, ["b"]).observe(3.0);
        let m = reg.histogram_merged(LAT).unwrap();
        assert_eq!(m.count(), 2);
        assert!((m.sum() - 4.0).abs() < 1e-9);
        assert!(reg.histogram_merged("absent").is_none());
    }

    #[test]
    fn clones_share_the_store() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.counter_series(M, []).inc();
        assert_eq!(reg.counter_value(M, &[]), 1);
    }

    #[test]
    fn handles_update_the_same_series_as_the_string_api() {
        // The one by-name mutator left (the frozen benchmark calls it)
        // lands in the same series as the declaration.
        let reg = Registry::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "the by-name handle is what this test exercises"
        )]
        let by_name = reg.counter_handle("req_total", &[("kind", "submit")]);
        by_name.inc();
        by_name.add(2);
        reg.counter_series(REQ, ["submit"]).inc();
        assert_eq!(by_name.value(), 4);
        assert_eq!(reg.counter_value(REQ, &[("kind", "submit")]), 4);
    }

    #[test]
    fn histogram_handle_respects_family_buckets() {
        const W: &HistogramDecl<1> =
            &HistogramDecl::new("w", ["side"], "").with_buckets(&[1.0, 2.0]);
        let reg = Registry::new();
        reg.histogram_series(W, ["l"]).observe(1.5);
        reg.histogram_series(W, ["r"]).observe(0.5);
        for side in ["l", "r"] {
            assert_eq!(
                reg.histogram(W, &[("side", side)]).unwrap().bounds(),
                &[1.0, 2.0],
                "every series carries the declaration's bounds"
            );
        }
    }

    #[test]
    fn a_family_has_one_bucket_layout() {
        // Regression: with `set_buckets` a family could change layout
        // between two series (observe, re-bucket, observe under a second
        // label) and `histogram_merged` then panicked on differing
        // bounds. The layout is part of the declaration now, so there is
        // no later moment to change it at.
        const WORK: &HistogramDecl<1> =
            &HistogramDecl::new("work_examined", ["op"], "").with_buckets(count_buckets());
        let reg = Registry::new();
        reg.histogram_series(WORK, ["find"]).observe(3.0);
        reg.histogram_series(WORK, ["update"]).observe(700.0);
        let merged = reg.histogram_merged(WORK).expect("two series");
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.bounds(), count_buckets());
    }

    #[test]
    fn declarations_list_their_kind_and_keys() {
        assert_eq!(
            REQ.erased(),
            MetricDecl {
                name: "req_total",
                kind: MetricKind::Counter,
                label_keys: &["kind"],
                help: "requests, by kind",
            }
        );
        assert_eq!(PODS.erased().kind, MetricKind::Gauge);
        assert_eq!(LAT.erased().kind, MetricKind::Histogram);
        assert_eq!(format!("{LAT}"), "lat_seconds");
    }
}
