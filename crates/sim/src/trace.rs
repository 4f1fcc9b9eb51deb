//! Structured trace log for simulation runs.
//!
//! Components emit `(time, component, message)` records through
//! [`crate::Sim::trace`]. Tests assert on traces; experiment harnesses dump
//! them for debugging. A [`crate::Sim`] starts with its trace disabled:
//! whoever wants to read one enables it first.

use std::fmt;

use crate::SimTime;

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time the record was emitted.
    pub time: SimTime,
    /// Emitting component (e.g. `"kube"`, `"guardian/job-3"`).
    pub component: String,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.time, self.component, self.message)
    }
}

/// An append-only trace buffer, optionally capped to the most recent
/// records (see [`Trace::set_capacity`]).
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
    capacity: Option<usize>,
    dropped: u64,
}

impl Trace {
    /// Creates an enabled, unbounded trace buffer.
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
            capacity: None,
            dropped: 0,
        }
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Bounds the buffer to the `capacity` most recent records: once full,
    /// each new record evicts the oldest one (counted by
    /// [`Trace::dropped`]). `None` removes the bound. Any existing
    /// overflow is trimmed immediately. Long soak runs use this to keep
    /// trace memory flat.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        self.enforce_capacity();
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of records evicted so far by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn enforce_capacity(&mut self) {
        if let Some(cap) = self.capacity {
            if self.events.len() > cap {
                let excess = self.events.len() - cap;
                self.events.drain(..excess);
                self.dropped += excess as u64;
            }
        }
    }

    /// Appends a record (no-op when disabled).
    pub fn record(
        &mut self,
        time: SimTime,
        component: impl Into<String>,
        message: impl Into<String>,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            time,
            component: component.into(),
            message: message.into(),
        });
        self.enforce_capacity();
    }

    /// All records in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no records have been emitted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records whose component matches `component` exactly.
    pub fn by_component<'a>(&'a self, component: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.component == component)
    }

    /// Records whose message contains `needle`.
    pub fn containing<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.message.contains(needle))
    }

    /// First record whose message contains `needle`, if any.
    pub fn first_containing(&self, needle: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.message.contains(needle))
    }

    /// Drops all records.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_queries() {
        let mut t = Trace::new();
        t.record(SimTime::from_secs(1), "kube", "pod scheduled");
        t.record(SimTime::from_secs(2), "api", "job accepted");
        t.record(SimTime::from_secs(3), "kube", "pod running");

        assert_eq!(t.len(), 3);
        assert_eq!(t.by_component("kube").count(), 2);
        assert_eq!(t.containing("pod").count(), 2);
        assert_eq!(
            t.first_containing("accepted").unwrap().time,
            SimTime::from_secs(2)
        );
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.set_enabled(false);
        t.record(SimTime::ZERO, "x", "y");
        assert!(t.is_empty());
        t.set_enabled(true);
        t.record(SimTime::ZERO, "x", "y");
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let mut t = Trace::new();
        t.set_capacity(Some(3));
        for i in 0..5 {
            t.record(SimTime::from_secs(i), "c", format!("ev-{i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        // Only the most recent records remain, in order.
        let msgs: Vec<_> = t.events().iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, ["ev-2", "ev-3", "ev-4"]);
        // Lifting the bound stops eviction.
        t.set_capacity(None);
        t.record(SimTime::from_secs(9), "c", "ev-9");
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn shrinking_capacity_trims_immediately() {
        let mut t = Trace::new();
        for i in 0..10 {
            t.record(SimTime::from_secs(i), "c", format!("ev-{i}"));
        }
        t.set_capacity(Some(4));
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.events()[0].message, "ev-6");
        assert_eq!(t.capacity(), Some(4));
    }

    #[test]
    fn display_format() {
        let ev = TraceEvent {
            time: SimTime::from_millis(1500),
            component: "lcm".into(),
            message: "deploying".into(),
        };
        assert_eq!(format!("{ev}"), "[1.500s] lcm: deploying");
    }
}
