//! Deterministic randomness.
//!
//! All randomness in the simulation flows from a single seed through
//! [`SimRng`]. Components that need their own stream fork one with
//! [`SimRng::fork`], keyed by a label, so that adding randomness to one
//! component does not perturb the draws seen by another.
//!
//! The generator is a self-contained xoshiro256++ seeded via splitmix64,
//! so the simulation has no external randomness dependency and the
//! stream for a given seed is frozen forever.

use crate::SimDuration;

/// Expands a 64-bit seed into well-mixed state words (splitmix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, forkable random number generator.
///
/// # Examples
///
/// ```
/// use dlaas_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Forked streams are independent of draws on the parent.
/// let mut fork = a.fork("scheduler");
/// let _ = fork.next_u64();
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a seed. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            seed,
        }
    }

    /// The seed this generator (or its original ancestor) was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent stream keyed by `label`.
    ///
    /// Forking does not consume entropy from `self`, so the parent's
    /// subsequent draws are unaffected by how many forks were taken.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the root seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed.rotate_left(17);
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "this is the derivation every other stream must come through: the child seed is a pure function of the parent seed and the label"
        )]
        SimRng::new(h)
    }

    /// Draws a uniform `u64` (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Draws a uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Draws a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Unbiased bounded draw (rejection sampling on the top of the range).
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return lo + x % span;
            }
        }
    }

    /// Draws a uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        lo + self.unit() * (hi - lo)
    }

    /// Draws a duration uniformly in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn duration_between(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        SimDuration::from_micros(self.range_u64(lo.as_micros(), hi.as_micros()))
    }

    /// Multiplies `base` by a uniform factor in `[1 - spread, 1 + spread]`,
    /// modelling symmetric jitter.
    pub fn jitter(&mut self, base: SimDuration, spread: f64) -> SimDuration {
        let f = self.range_f64(1.0 - spread, 1.0 + spread);
        base.mul_f64(f.max(0.0))
    }

    /// Draws from an exponential distribution with the given mean,
    /// truncated at 100× the mean (used for arrival processes).
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        let u = self.unit().max(1e-12);
        let factor = (-u.ln()).min(100.0);
        mean.mul_f64(factor)
    }

    /// Picks a uniformly random element of `items`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.range_u64(0, items.len() as u64) as usize;
            Some(&items[i])
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the generator's own unit tests seed it directly"
)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let parent = SimRng::new(99);
        let mut f1 = parent.fork("net");
        let mut f2 = parent.fork("net");
        assert_eq!(f1.next_u64(), f2.next_u64());

        let mut other = parent.fork("kube");
        assert_ne!(f1.next_u64(), other.next_u64());

        // Forking does not consume parent entropy.
        let mut p1 = SimRng::new(99);
        let _ = p1.fork("a");
        let _ = p1.fork("b");
        let mut p2 = SimRng::new(99);
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..1000).filter(|_| r.chance(0.5)).count();
        assert!((350..650).contains(&hits), "hits={hits}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SimRng::new(4);
        for _ in 0..100 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut r = SimRng::new(11);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn jitter_stays_within_spread() {
        let mut r = SimRng::new(5);
        let base = SimDuration::from_millis(100);
        for _ in 0..100 {
            let j = r.jitter(base, 0.2);
            assert!(j >= SimDuration::from_millis(80), "{j}");
            assert!(j <= SimDuration::from_millis(120), "{j}");
        }
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = SimRng::new(6);
        let mean = SimDuration::from_millis(100);
        let total: u64 = (0..2000).map(|_| r.exponential(mean).as_micros()).sum();
        let avg = total / 2000;
        assert!((60_000..160_000).contains(&avg), "avg={avg}us");
    }

    #[test]
    fn choose_handles_empty_and_picks_members() {
        let mut r = SimRng::new(8);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        let items = [1, 2, 3];
        for _ in 0..20 {
            assert!(items.contains(r.choose(&items).unwrap()));
        }
    }
}
