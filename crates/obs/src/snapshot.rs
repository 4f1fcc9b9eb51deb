//! Point-in-time snapshots and diffs of a registry.

use std::collections::BTreeMap;

/// A flattened copy of every scalar in a registry at one instant.
///
/// Keys are `name{label="v",...}` for counters and gauges, plus
/// `name{...}:count` / `name{...}:sum` for histograms. Taking a snapshot
/// before and after an operation and diffing the two is how integration
/// tests assert "this code path emitted exactly these metrics".
///
/// # Examples
///
/// ```
/// use dlaas_obs::{CounterDecl, Registry};
///
/// const A: &CounterDecl<0> = &CounterDecl::new("a_total", [], "");
/// const B: &CounterDecl<0> = &CounterDecl::new("b_total", [], "");
/// let reg = Registry::new();
/// reg.counter_series(A, []).inc();
/// let before = reg.snapshot();
/// reg.counter_series(A, []).inc();
/// reg.counter_series(B, []).inc();
/// let delta = reg.snapshot().diff(&before);
/// assert_eq!(delta.get("a_total"), Some(1.0));
/// assert_eq!(delta.get("b_total"), Some(1.0));
/// assert_eq!(delta.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    values: BTreeMap<String, f64>,
}

impl Snapshot {
    pub(crate) fn from_values(values: BTreeMap<String, f64>) -> Self {
        Snapshot { values }
    }

    /// The value of a series key (`None` when absent).
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// All `(key, value)` pairs, sorted by key.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of series captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Series whose value changed since `earlier` (new minus old; series
    /// absent earlier count from 0). Unchanged series are omitted.
    pub fn diff(&self, earlier: &Snapshot) -> SnapshotDiff {
        let mut changed = BTreeMap::new();
        for (k, v) in &self.values {
            let was = earlier.values.get(k).copied().unwrap_or(0.0);
            if *v != was {
                changed.insert(k.clone(), *v - was);
            }
        }
        // A series that vanished (registry reset) shows up as its negation.
        for (k, was) in &earlier.values {
            if !self.values.contains_key(k) && *was != 0.0 {
                changed.insert(k.clone(), -*was);
            }
        }
        SnapshotDiff { changed }
    }
}

/// The changed series between two snapshots (see [`Snapshot::diff`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotDiff {
    changed: BTreeMap<String, f64>,
}

impl SnapshotDiff {
    /// Change in a series (`None` when it did not change).
    pub fn get(&self, key: &str) -> Option<f64> {
        self.changed.get(key).copied()
    }

    /// All changed `(key, delta)` pairs, sorted by key.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.changed.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of changed series.
    pub fn len(&self) -> usize {
        self.changed.len()
    }

    /// `true` when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::{CounterDecl, GaugeDecl, HistogramDecl, Registry};

    #[test]
    fn diff_reports_only_changes() {
        const A: &CounterDecl<1> = &CounterDecl::new("a", ["k"], "");
        const G: &GaugeDecl<0> = &GaugeDecl::new("g", [], "");
        const H: &HistogramDecl<0> = &HistogramDecl::new("h", [], "");
        let reg = Registry::new();
        reg.counter_series(A, ["1"]).inc();
        reg.gauge_series(G, []).set(2.0);
        reg.histogram_series(H, []).observe(0.5);
        let before = reg.snapshot();

        reg.counter_series(A, ["1"]).inc();
        reg.histogram_series(H, []).observe(1.5);
        let after = reg.snapshot();

        let d = after.diff(&before);
        assert_eq!(d.get(r#"a{k="1"}"#), Some(1.0));
        assert_eq!(d.get("h:count"), Some(1.0));
        assert_eq!(d.get("h:sum"), Some(1.5));
        assert_eq!(d.get("g"), None, "unchanged gauge omitted");
        assert_eq!(d.len(), 3);
        assert!(after.diff(&after).is_empty());
    }

    #[test]
    fn snapshot_accessors() {
        let reg = Registry::new();
        assert!(reg.snapshot().is_empty());
        reg.counter_series(&CounterDecl::new("a", [], ""), []).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.get("a"), Some(1.0));
        assert_eq!(snap.iter().next(), Some(("a", 1.0)));
    }
}
