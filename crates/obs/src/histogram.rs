//! Fixed-bucket histograms with interpolated quantiles.

use std::rc::Rc;

/// Default bucket upper bounds, in seconds: spans sub-millisecond RPCs up
/// to multi-minute recovery times (paper Fig. 4 tops out around 5 min).
pub const fn default_buckets() -> &'static [f64] {
    &[
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 30.0,
        60.0, 120.0, 180.0, 300.0, 600.0,
    ]
}

/// Bucket upper bounds for work-count histograms (items examined per
/// operation, not seconds): powers of two from 1 up to 64k, sized for
/// hot-path fan-out/scan costs at the 10k-concurrent-job scale soak.
pub const fn count_buckets() -> &'static [f64] {
    &[
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
        16384.0, 32768.0, 65536.0,
    ]
}

/// A fixed-bucket histogram: per-bucket counts plus sum/count/min/max.
///
/// Quantiles are answered by linear interpolation inside the bucket that
/// contains the requested rank, clamped by the observed min/max so small
/// sample counts don't extrapolate past real observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Shared with the owning family (and every sibling series), so
    /// creating or observing a series never deep-copies the bounds.
    bounds: Rc<[f64]>,
    /// `counts[i]` observations fell in `(bounds[i-1], bounds[i]]`;
    /// the final slot counts observations above the last bound.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram over the given strictly-increasing bounds.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        Histogram::with_shared_bounds(bounds.into())
    }

    /// An empty histogram sharing an already-validated bounds allocation.
    /// This is the allocation-free path the registry uses when a new
    /// series joins an existing family.
    pub fn with_shared_bounds(bounds: Rc<[f64]>) -> Self {
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram (same bounds) into this one.
    ///
    /// # Panics
    ///
    /// Panics when the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "cannot merge differing buckets");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the extra final slot holds
    /// observations above the last bound.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Interpolated quantile (`q` in `[0, 1]`; `None` when empty).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upto = seen + c;
            if rank <= upto as f64 {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                // Position of the rank inside this bucket, interpolated.
                let within = (rank - seen as f64) / c as f64;
                let est = lower + within.clamp(0.0, 1.0) * (upper - lower);
                return Some(est.clamp(self.min, self.max));
            }
            seen = upto;
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_places_into_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.0).abs() < 1e-9);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(100.0));
        assert!((h.mean().unwrap() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_answers_none() {
        let h = Histogram::new(default_buckets());
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_none());
        assert!(h.mean().is_none());
        assert!(h.min().is_none());
        assert!(h.max().is_none());
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::new(default_buckets());
        // 100 observations uniform over (0, 10].
        for i in 1..=100 {
            h.observe(i as f64 / 10.0);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((4.0..=6.0).contains(&p50), "p50={p50}");
        assert!((8.5..=10.0).contains(&p95), "p95={p95}");
        assert!(p95 <= p99, "p95={p95} p99={p99}");
        assert!(p99 <= 10.0, "p99={p99}");
        assert_eq!(h.quantile(0.0).unwrap(), 0.1, "clamped to min");
        assert_eq!(h.quantile(1.0).unwrap(), 10.0, "clamped to max");
    }

    #[test]
    fn quantile_of_single_observation_is_exactish() {
        let mut h = Histogram::new(default_buckets());
        h.observe(42.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(42.0));
        }
    }

    #[test]
    fn overflow_bucket_quantile_uses_max() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(5.0);
        h.observe(9.0);
        let p99 = h.quantile(0.99).unwrap();
        assert!((5.0..=9.0).contains(&p99), "p99={p99}");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let mut b = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
        assert_eq!(a.min(), Some(0.5));
        assert_eq!(a.max(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "differing buckets")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge(&b);
    }
}
