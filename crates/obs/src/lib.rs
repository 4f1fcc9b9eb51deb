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
//! use dlaas_obs::Registry;
//!
//! let reg = Registry::new();
//! reg.inc("jobs_submitted_total", &[("tenant", "acme")]);
//! reg.observe_duration_us("deploy_seconds", &[], 2_500_000); // 2.5 s
//! assert_eq!(reg.counter_value("jobs_submitted_total", &[("tenant", "acme")]), 1);
//! assert!(reg.expose().contains(r#"jobs_submitted_total{tenant="acme"} 1"#));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod snapshot;
#[cfg(feature = "wallclock")]
pub mod wallclock;

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
    fn as_str(self) -> &'static str {
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
#[derive(Debug)]
enum Series {
    Counter(Rc<Cell<u64>>),
    Gauge(Rc<Cell<f64>>),
    Histogram(Rc<RefCell<Histogram>>),
}

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Bucket bounds new histogram series start from, shared (never
    /// deep-copied) into each series.
    buckets: Rc<[f64]>,
    series: BTreeMap<Labels, Series>,
}

#[derive(Debug, Default)]
struct Inner {
    families: BTreeMap<String, Family>,
}

/// The family `name`, created on first use; its kind must not change.
fn family<'a>(
    families: &'a mut BTreeMap<String, Family>,
    name: &str,
    kind: MetricKind,
) -> &'a mut Family {
    let fam = families.entry(name.to_owned()).or_insert_with(|| Family {
        kind,
        help: String::new(),
        buckets: default_buckets().into(),
        series: BTreeMap::new(),
    });
    assert!(
        fam.kind == kind,
        "metric '{name}' already registered as {} (used as {})",
        fam.kind.as_str(),
        kind.as_str()
    );
    fam
}

fn counter_cell(fam: &mut Family, key: Labels) -> Rc<Cell<u64>> {
    match fam
        .series
        .entry(key)
        .or_insert_with(|| Series::Counter(Rc::new(Cell::new(0))))
    {
        Series::Counter(c) => c.clone(),
        _ => unreachable!("family kind checked"),
    }
}

fn gauge_cell(fam: &mut Family, key: Labels) -> Rc<Cell<f64>> {
    match fam
        .series
        .entry(key)
        .or_insert_with(|| Series::Gauge(Rc::new(Cell::new(0.0))))
    {
        Series::Gauge(g) => g.clone(),
        _ => unreachable!("family kind checked"),
    }
}

fn histogram_cell(fam: &mut Family, key: Labels) -> Rc<RefCell<Histogram>> {
    // Rc clone of the bounds, not a Vec copy — the old per-observation
    // deep clone of the family's bucket bounds was a hot-path allocation.
    let buckets = fam.buckets.clone();
    match fam.series.entry(key).or_insert_with(|| {
        Series::Histogram(Rc::new(RefCell::new(Histogram::with_shared_bounds(
            buckets,
        ))))
    }) {
        Series::Histogram(h) => h.clone(),
        _ => unreachable!("family kind checked"),
    }
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

    /// Attaches help text to a family (creates it if needed). Optional —
    /// families auto-register on first use — but exposition includes the
    /// help line only when set.
    pub fn describe(&self, name: &str, kind: MetricKind, help: &str) {
        let mut inner = self.inner.borrow_mut();
        family(&mut inner.families, name, kind).help = help.to_owned();
    }

    /// Overrides the bucket bounds that *new* histogram series of `name`
    /// start from. Bounds must be strictly increasing.
    pub fn set_buckets(&self, name: &str, bounds: &[f64]) {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        let mut inner = self.inner.borrow_mut();
        family(&mut inner.families, name, MetricKind::Histogram).buckets = bounds.into();
    }

    /// Increments a counter by 1.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.inc_by(name, labels, 1);
    }

    /// Increments a counter by `n`.
    pub fn inc_by(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        let mut inner = self.inner.borrow_mut();
        let fam = family(&mut inner.families, name, MetricKind::Counter);
        let c = counter_cell(fam, canon(labels));
        c.set(c.get() + n);
    }

    /// Sets a gauge to `v`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let mut inner = self.inner.borrow_mut();
        let fam = family(&mut inner.families, name, MetricKind::Gauge);
        gauge_cell(fam, canon(labels)).set(v);
    }

    /// Adds `delta` (may be negative) to a gauge, starting from 0.
    pub fn add_gauge(&self, name: &str, labels: &[(&str, &str)], delta: f64) {
        let mut inner = self.inner.borrow_mut();
        let fam = family(&mut inner.families, name, MetricKind::Gauge);
        let g = gauge_cell(fam, canon(labels));
        g.set(g.get() + delta);
    }

    /// Records one observation into a histogram.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let mut inner = self.inner.borrow_mut();
        let fam = family(&mut inner.families, name, MetricKind::Histogram);
        histogram_cell(fam, canon(labels)).borrow_mut().observe(v);
    }

    /// Records a duration given in integer microseconds (the simulation's
    /// native clock unit) into a histogram, in seconds.
    pub fn observe_duration_us(&self, name: &str, labels: &[(&str, &str)], micros: u64) {
        self.observe(name, labels, micros as f64 / 1_000_000.0);
    }

    /// A direct handle to one counter series. Creates the series (at 0)
    /// if absent — take handles at the point of first use, not at boot,
    /// if a series existing with no observations would be misleading.
    pub fn counter_handle(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        let mut inner = self.inner.borrow_mut();
        let fam = family(&mut inner.families, name, MetricKind::Counter);
        CounterHandle {
            cell: counter_cell(fam, canon(labels)),
        }
    }

    /// A direct handle to one gauge series (created at 0 if absent).
    pub fn gauge_handle(&self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        let mut inner = self.inner.borrow_mut();
        let fam = family(&mut inner.families, name, MetricKind::Gauge);
        GaugeHandle {
            cell: gauge_cell(fam, canon(labels)),
        }
    }

    /// A direct handle to one histogram series (created empty if absent,
    /// with the family's bucket bounds at this moment).
    pub fn histogram_handle(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let mut inner = self.inner.borrow_mut();
        let fam = family(&mut inner.families, name, MetricKind::Histogram);
        HistogramHandle {
            cell: histogram_cell(fam, canon(labels)),
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

    /// Names of all registered families, sorted.
    pub fn family_names(&self) -> Vec<String> {
        self.inner.borrow().families.keys().cloned().collect()
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
/// [`Registry::counter_handle`]). Increments write the shared cell
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

/// A direct handle to one gauge series (see [`Registry::gauge_handle`]).
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
/// [`Registry::histogram_handle`]).
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

/// Measures a span of simulated time against a registry histogram.
///
/// The stopwatch never reads a clock itself — both endpoints come from the
/// caller, which keeps the crate free of ambient time.
///
/// # Examples
///
/// ```
/// use dlaas_obs::{Registry, Stopwatch};
///
/// let reg = Registry::new();
/// let sw = Stopwatch::start(1_000_000);
/// sw.observe_into(&reg, "phase_seconds", &[("phase", "deploy")], 3_500_000);
/// assert_eq!(reg.histogram("phase_seconds", &[("phase", "deploy")]).unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_us: u64,
}

impl Stopwatch {
    /// Starts at the given simulated time (microseconds).
    pub fn start(now_us: u64) -> Self {
        Stopwatch { start_us: now_us }
    }

    /// The start time in microseconds.
    pub fn started_at_us(&self) -> u64 {
        self.start_us
    }

    /// Elapsed simulated seconds at `now_us` (0 when time went backwards).
    pub fn elapsed_secs(&self, now_us: u64) -> f64 {
        now_us.saturating_sub(self.start_us) as f64 / 1_000_000.0
    }

    /// Records the elapsed span into `registry`'s histogram `name`.
    pub fn observe_into(
        &self,
        registry: &Registry,
        name: &str,
        labels: &[(&str, &str)],
        now_us: u64,
    ) {
        registry.observe_duration_us(name, labels, now_us.saturating_sub(self.start_us));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let reg = Registry::new();
        reg.inc("req_total", &[("kind", "submit")]);
        reg.inc("req_total", &[("kind", "submit")]);
        reg.inc_by("req_total", &[("kind", "kill")], 5);
        assert_eq!(reg.counter_value("req_total", &[("kind", "submit")]), 2);
        assert_eq!(reg.counter_value("req_total", &[("kind", "kill")]), 5);
        assert_eq!(reg.counter_value("req_total", &[("kind", "other")]), 0);
        assert_eq!(reg.counter_total("req_total"), 7);
        assert_eq!(reg.counter_total("absent"), 0);
    }

    #[test]
    fn label_order_is_canonical() {
        let reg = Registry::new();
        reg.inc("m", &[("b", "2"), ("a", "1")]);
        reg.inc("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(reg.counter_value("m", &[("b", "2"), ("a", "1")]), 2);
        let expo = reg.expose();
        assert!(expo.contains(r#"m{a="1",b="2"} 2"#), "{expo}");
    }

    #[test]
    fn gauges_set_and_add() {
        let reg = Registry::new();
        reg.set_gauge("pods", &[], 3.0);
        assert_eq!(reg.gauge_value("pods", &[]), Some(3.0));
        reg.add_gauge("pods", &[], -1.0);
        assert_eq!(reg.gauge_value("pods", &[]), Some(2.0));
        reg.add_gauge("fresh", &[], 4.0);
        assert_eq!(reg.gauge_value("fresh", &[]), Some(4.0));
        assert_eq!(reg.gauge_value("absent", &[]), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        reg.inc("m", &[]);
        reg.set_gauge("m", &[], 1.0);
    }

    #[test]
    fn exposition_is_sorted_and_stable() {
        let build = || {
            let reg = Registry::new();
            reg.describe("zz_total", MetricKind::Counter, "last family");
            reg.inc("zz_total", &[]);
            reg.inc("aa_total", &[("x", "2")]);
            reg.inc("aa_total", &[("x", "1")]);
            reg.set_gauge("mid", &[], 1.5);
            reg.observe("lat_seconds", &[], 0.02);
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
        assert!(a.contains(r#"lat_seconds_bucket{le="+Inf"} 1"#));
    }

    #[test]
    fn exposition_escapes_label_values() {
        let reg = Registry::new();
        reg.inc("m", &[("path", "a\"b\\c")]);
        assert!(reg.expose().contains(r#"m{path="a\"b\\c"} 1"#));
    }

    #[test]
    fn histogram_sum_count_via_registry() {
        let reg = Registry::new();
        reg.observe_duration_us("d_seconds", &[], 1_500_000);
        reg.observe_duration_us("d_seconds", &[], 500_000);
        let h = reg.histogram("d_seconds", &[]).unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 2.0).abs() < 1e-9);
        assert!(reg.quantile("d_seconds", &[], 0.5).is_some());
        assert!(reg.quantile("absent", &[], 0.5).is_none());
    }

    #[test]
    fn merged_histogram_spans_series() {
        let reg = Registry::new();
        reg.observe("h", &[("c", "a")], 1.0);
        reg.observe("h", &[("c", "b")], 3.0);
        let m = reg.histogram_merged("h").unwrap();
        assert_eq!(m.count(), 2);
        assert!((m.sum() - 4.0).abs() < 1e-9);
        assert!(reg.histogram_merged("absent").is_none());
    }

    #[test]
    fn stopwatch_measures_sim_time() {
        let reg = Registry::new();
        let sw = Stopwatch::start(2_000_000);
        assert_eq!(sw.started_at_us(), 2_000_000);
        assert!((sw.elapsed_secs(3_500_000) - 1.5).abs() < 1e-9);
        assert_eq!(sw.elapsed_secs(1_000_000), 0.0, "backwards time clamps");
        sw.observe_into(&reg, "span_seconds", &[], 3_000_000);
        let h = reg.histogram("span_seconds", &[]).unwrap();
        assert!((h.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clones_share_the_store() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.inc("m", &[]);
        assert_eq!(reg.counter_value("m", &[]), 1);
    }

    #[test]
    fn handles_update_the_same_series_as_the_string_api() {
        let reg = Registry::new();
        let c = reg.counter_handle("hits_total", &[("svc", "etcd")]);
        c.inc();
        c.add(2);
        reg.inc("hits_total", &[("svc", "etcd")]);
        assert_eq!(c.value(), 4);
        assert_eq!(reg.counter_value("hits_total", &[("svc", "etcd")]), 4);

        let g = reg.gauge_handle("depth", &[]);
        g.set(3.0);
        g.add(-1.0);
        reg.add_gauge("depth", &[], 0.5);
        assert_eq!(reg.gauge_value("depth", &[]), Some(2.5));
        assert_eq!(g.value(), 2.5);

        let h = reg.histogram_handle("lat_seconds", &[("op", "find")]);
        h.observe(0.02);
        h.observe_duration_us(30_000);
        reg.observe("lat_seconds", &[("op", "find")], 0.04);
        assert_eq!(h.count(), 3);
        assert_eq!(
            reg.histogram("lat_seconds", &[("op", "find")])
                .unwrap()
                .count(),
            3
        );
    }

    #[test]
    fn exposition_is_byte_identical_across_record_apis() {
        // The handle fast path must be invisible in the exposition: the
        // same logical recording through either API renders the same
        // bytes.
        let via_strings = || {
            let reg = Registry::new();
            reg.inc_by("req_total", &[("op", "find")], 3);
            reg.observe("lat_seconds", &[("op", "find")], 0.02);
            reg.observe("lat_seconds", &[("op", "find")], 0.7);
            reg.set_gauge("depth", &[], 2.0);
            reg.expose()
        };
        let via_handles = || {
            let reg = Registry::new();
            let c = reg.counter_handle("req_total", &[("op", "find")]);
            c.add(3);
            let h = reg.histogram_handle("lat_seconds", &[("op", "find")]);
            h.observe(0.02);
            h.observe(0.7);
            reg.gauge_handle("depth", &[]).set(2.0);
            reg.expose()
        };
        assert_eq!(via_strings(), via_handles());
    }

    #[test]
    fn histogram_handle_respects_family_buckets() {
        let reg = Registry::new();
        reg.set_buckets("w", &[1.0, 2.0]);
        let h = reg.histogram_handle("w", &[]);
        h.observe(1.5);
        assert_eq!(
            reg.histogram("w", &[]).unwrap().bounds(),
            &[1.0, 2.0],
            "handle-created series must share the family's bounds"
        );
    }
}
