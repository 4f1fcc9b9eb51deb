//! Message latency models.

use dlaas_sim::{SimDuration, SimRng};

/// How long a message takes from send to delivery.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Always exactly this long.
    Fixed(SimDuration),
    /// Uniform in `[lo, hi)`.
    Uniform(SimDuration, SimDuration),
    /// Uniform in `[lo, hi)` with probability `1 - spike_p`, otherwise a
    /// spike uniform in `[hi, hi * spike_factor)` — models datacenter tail
    /// latency.
    Spiky {
        /// Lower bound of the common case.
        lo: SimDuration,
        /// Upper bound of the common case.
        hi: SimDuration,
        /// Probability of a tail-latency spike.
        spike_p: f64,
        /// Spike upper bound as a multiple of `hi`.
        spike_factor: f64,
    },
}

impl LatencyModel {
    /// A typical intra-datacenter model: 0.2–0.6 ms with 1% spikes up to ~3 ms.
    pub fn datacenter() -> Self {
        LatencyModel::Spiky {
            lo: SimDuration::from_micros(200),
            hi: SimDuration::from_micros(600),
            spike_p: 0.01,
            spike_factor: 5.0,
        }
    }

    /// A loopback model for co-located processes: 30–80 µs.
    pub fn local() -> Self {
        LatencyModel::Uniform(SimDuration::from_micros(30), SimDuration::from_micros(80))
    }

    /// A latency no sample exceeds.
    pub fn bound(&self) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform(lo, hi) => lo.max(hi),
            LatencyModel::Spiky {
                lo,
                hi,
                spike_factor,
                ..
            } => lo.max(hi).max(hi.mul_f64(spike_factor)),
        }
    }

    /// Draws one latency sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform(lo, hi) => sample_uniform(rng, lo, hi),
            LatencyModel::Spiky {
                lo,
                hi,
                spike_p,
                spike_factor,
            } => {
                if rng.chance(spike_p) {
                    sample_uniform(rng, hi, hi.mul_f64(spike_factor))
                } else {
                    sample_uniform(rng, lo, hi)
                }
            }
        }
    }
}

fn sample_uniform(rng: &mut SimRng, lo: SimDuration, hi: SimDuration) -> SimDuration {
    if hi <= lo {
        lo
    } else {
        rng.duration_between(lo, hi)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::datacenter()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests sample the models from a directly seeded stream, with no Sim around"
)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_exact() {
        let mut rng = SimRng::new(1);
        let m = LatencyModel::Fixed(SimDuration::from_millis(3));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(3));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::new(2);
        let lo = SimDuration::from_micros(100);
        let hi = SimDuration::from_micros(200);
        let m = LatencyModel::Uniform(lo, hi);
        for _ in 0..200 {
            let s = m.sample(&mut rng);
            assert!(s >= lo && s < hi, "{s}");
        }
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let mut rng = SimRng::new(3);
        let d = SimDuration::from_micros(50);
        assert_eq!(LatencyModel::Uniform(d, d).sample(&mut rng), d);
    }

    #[test]
    fn spiky_produces_occasional_spikes() {
        let mut rng = SimRng::new(4);
        let m = LatencyModel::Spiky {
            lo: SimDuration::from_micros(100),
            hi: SimDuration::from_micros(200),
            spike_p: 0.2,
            spike_factor: 10.0,
        };
        let samples: Vec<_> = (0..500).map(|_| m.sample(&mut rng)).collect();
        let spikes = samples
            .iter()
            .filter(|s| **s >= SimDuration::from_micros(200))
            .count();
        assert!(spikes > 40 && spikes < 200, "spikes={spikes}");
        assert!(samples.iter().all(|s| *s < SimDuration::from_micros(2000)));
    }

    #[test]
    fn presets_are_sane() {
        let mut rng = SimRng::new(5);
        assert!(LatencyModel::datacenter().sample(&mut rng) < SimDuration::from_millis(5));
        assert!(LatencyModel::local().sample(&mut rng) < SimDuration::from_micros(100));
    }
}
