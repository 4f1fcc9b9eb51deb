//! Timing harness shared by the platform run and the micro drivers:
//! CPU-timed sections, each followed by its share of reference work, and
//! (on a traced run) the span recorder.

use std::hint::black_box;

use crate::hosttime::HostClock;
use crate::refkernel::{RefKernel, REF_NOMINAL_NS_PER_EVENT, REF_SENSITIVITY};
use crate::trace::Trace;

/// Reference work run after a timed section, as a share of the CPU time
/// the section took.
const REF_SHARE: f64 = 0.10;
/// Fewest toy events in one burst of reference work.
const REF_MIN_EVENTS: u64 = 1_000;

/// Host time of one phase: CPU spent in the code under test and in the
/// reference work interleaved with it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTime {
    pub code_ns: u64,
    pub ref_ns: u64,
    pub ref_events: u64,
}

impl PhaseTime {
    /// Raw CPU seconds of the code under test.
    pub fn raw_s(&self) -> f64 {
        self.code_ns as f64 / 1e9
    }

    /// How much longer than nominal the reference events interleaved
    /// with this phase took.
    pub fn slowdown(&self) -> f64 {
        assert!(self.ref_events > 0, "phase has no reference work");
        self.ref_ns as f64 / (self.ref_events as f64 * REF_NOMINAL_NS_PER_EVENT)
    }

    /// Reference-normalised seconds: what the phase would have taken on
    /// the machine that defines [`REF_NOMINAL_NS_PER_EVENT`], in the
    /// state that constant was read in.
    pub fn normalised_s(&self) -> f64 {
        self.raw_s() / self.slowdown().powf(REF_SENSITIVITY)
    }

    /// Toy events per CPU second the reference kernel reached.
    pub fn ref_events_per_s(&self) -> f64 {
        self.ref_events as f64 / (self.ref_ns as f64 / 1e9)
    }

    pub fn add(&mut self, other: &PhaseTime) {
        self.code_ns += other.code_ns;
        self.ref_ns += other.ref_ns;
        self.ref_events += other.ref_events;
    }
}

pub struct Harness {
    pub clock: HostClock,
    refk: RefKernel,
    /// `Some` on a traced run.
    pub trace: Option<Trace>,
}

impl Harness {
    pub fn new(traced: bool) -> Self {
        Harness {
            clock: HostClock::new(),
            refk: RefKernel::new(),
            trace: traced.then(Trace::default),
        }
    }

    /// Runs `f` as span `name`, then reference work worth [`REF_SHARE`]
    /// of the CPU time `f` took, and charges both to `phase`.
    pub fn time<T>(&mut self, phase: &mut PhaseTime, name: &str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let t0 = self.clock.now_ns();
        let out = f();
        let t1 = self.clock.now_ns();
        self.close(span);
        let code_ns = t1 - t0;
        let events =
            ((code_ns as f64 * REF_SHARE / REF_NOMINAL_NS_PER_EVENT) as u64).max(REF_MIN_EVENTS);
        let span = self.open("ref");
        let t2 = self.clock.now_ns();
        black_box(self.refk.run(events));
        let ref_ns = self.clock.now_ns() - t2;
        self.close(span);
        phase.code_ns += code_ns;
        phase.ref_ns += ref_ns;
        phase.ref_events += events;
        out
    }

    /// Opens a trace span (no-op handle on an untraced run).
    pub fn open(&mut self, name: &str) -> Option<usize> {
        let now = self.clock.wall_ns();
        self.trace.as_mut().map(|t| t.open(name, now))
    }

    pub fn close(&mut self, span: Option<usize>) {
        let now = self.clock.wall_ns();
        if let (Some(t), Some(id)) = (self.trace.as_mut(), span) {
            t.close(id, now);
        }
    }
}

/// Median of a non-empty slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
