//! Point-in-time snapshots of a registry.

use std::collections::BTreeMap;

/// A flattened copy of every scalar in a registry at one instant.
///
/// Keys are `name{label="v",...}` for counters and gauges, plus
/// `name{...}:count` / `name{...}:sum` for histograms.
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
/// let after = reg.snapshot();
/// assert_eq!(before.get("a_total"), Some(1.0));
/// assert_eq!(after.get("a_total"), Some(2.0));
/// assert_eq!((before.len(), after.len()), (1, 2));
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
}

#[cfg(test)]
mod tests {
    use crate::{CounterDecl, Registry};

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
