//! Host wall-clock measurement, gated behind the `wallclock` feature.
//!
//! Everything else in this crate is deterministic by construction: time
//! enters the registry only as caller-provided simulated microseconds.
//! The one legitimate exception is the campaign runner in `dlaas-bench`,
//! which shards independent trials across OS threads and needs to report
//! the *host* time each trial took — that is the quantity a speedup claim
//! is about, and it cannot come from the simulated clock. This module
//! confines the host-clock read to a single feature-gated type so that:
//!
//! * no default build of the workspace can read wall time (the feature is
//!   off everywhere except `dlaas-bench`),
//! * wall readings never mix into deterministic artifacts — a
//!   [`WallTimer`] yields plain `f64` seconds for *reporting* (stderr,
//!   speedup tables), and callers must keep them out of byte-compared
//!   output, which the thread-count invariance tests enforce.

#![expect(
    clippy::disallowed_types,
    reason = "the one sanctioned home of the host clock: a feature-gated stopwatch for measuring real campaign speedup outside any Sim, whose readings are reporting-only"
)]

/// A started host stopwatch. Readings are wall seconds and are only as
/// stable as the host scheduler — never fold them into anything that
/// must be byte-identical across runs.
#[derive(Debug, Clone, Copy)]
pub struct WallTimer {
    start: std::time::Instant,
}

impl WallTimer {
    /// Starts the stopwatch now.
    #[must_use]
    pub fn start() -> Self {
        WallTimer {
            start: std::time::Instant::now(),
        }
    }

    /// Host seconds elapsed since [`WallTimer::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let t = WallTimer::start();
        let a = t.elapsed_secs();
        let b = t.elapsed_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
