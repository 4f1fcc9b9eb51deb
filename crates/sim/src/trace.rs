//! The timeline: typed marks in one fixed-size ring.
//!
//! A component says what happened with [`crate::Sim::mark`]: *who* says
//! it (a static name), the *subject* it is about (a job id, a pod name,
//! a Raft node or shard number), *what* happened (a static name) and one
//! number (attempt, term, bytes, waited µs; 0 when there is none).
//! Nothing in a mark is formatted or owned by the caller, so a mark on a
//! disabled trace — every [`crate::Sim`] starts with one — costs one
//! branch. Whoever wants to read a timeline switches the trace on first
//! (`sim.trace_mut().set_enabled(true)`) and reads it with [`Trace::of`].

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;

use crate::SimTime;

/// How many marks an enabled [`Trace`] keeps: once full, each new mark
/// evicts the oldest one.
pub const TRACE_RING: usize = 16_384;

/// What a mark is about, as the caller passes it: borrowed text or a
/// number. There is deliberately no conversion from an owned `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject<'a> {
    /// A job id, a pod name, a substrate's name.
    Name(&'a str),
    /// A Raft node, an LCM shard or replica.
    Num(u32),
}

impl<'a> From<&'a str> for Subject<'a> {
    fn from(name: &'a str) -> Self {
        Subject::Name(name)
    }
}

impl From<u32> for Subject<'_> {
    fn from(n: u32) -> Self {
        Subject::Num(n)
    }
}

impl fmt::Display for Subject<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Name(name) => f.write_str(name),
            Subject::Num(n) => write!(f, "{n}"),
        }
    }
}

/// A subject as the ring holds it: a name is interned on first sight, so
/// every later mark about it shares the one allocation.
#[derive(Debug)]
enum Held {
    Name(Rc<str>),
    Num(u32),
}

/// One mark.
#[derive(Debug)]
pub struct Mark {
    /// Simulated time the mark was made.
    pub time: SimTime,
    /// The component that made it (`"guardian"`, `"kube"`, `"raft"`).
    pub who: &'static str,
    subject: Held,
    /// What happened (`"deploy-attempt"`, `"Scheduled"`, `"leader"`).
    pub what: &'static str,
    /// The number that goes with `what`; 0 when there is none.
    pub arg: u64,
}

impl Mark {
    /// What the mark is about.
    pub fn subject(&self) -> Subject<'_> {
        match &self.subject {
            Held::Name(name) => Subject::Name(name),
            Held::Num(n) => Subject::Num(*n),
        }
    }
}

impl fmt::Display for Mark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (time, who, subject, what) = (self.time, self.who, self.subject(), self.what);
        write!(f, "[{time}] {who} {subject}: {what}")?;
        if self.arg != 0 {
            write!(f, " {}", self.arg)?;
        }
        Ok(())
    }
}

/// The ring of marks. Disabled (the default) it owns no buffer.
#[derive(Debug, Default)]
pub struct Trace {
    pub(crate) enabled: bool,
    ring: VecDeque<Mark>,
    /// The names the marks in the ring refer to, and no others.
    names: BTreeSet<Rc<str>>,
}

impl Trace {
    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Appends a mark ([`crate::Sim::mark`] asks `enabled` first).
    pub(crate) fn push(
        &mut self,
        time: SimTime,
        who: &'static str,
        subject: Subject<'_>,
        what: &'static str,
        arg: u64,
    ) {
        let subject = match subject {
            Subject::Num(n) => Held::Num(n),
            Subject::Name(name) => Held::Name(match self.names.get(name) {
                Some(seen) => seen.clone(),
                None => {
                    let first: Rc<str> = Rc::from(name);
                    self.names.insert(first.clone());
                    first
                }
            }),
        };
        if self.ring.len() == TRACE_RING {
            // A name leaves the table with the last mark about it (the
            // table's copy and `name` are then the only two).
            if let Some(Held::Name(name)) = self.ring.pop_front().map(|m| m.subject) {
                if Rc::strong_count(&name) == 2 {
                    self.names.remove(&*name);
                }
            }
        }
        let mark = Mark {
            time,
            who,
            subject,
            what,
            arg,
        };
        self.ring.push_back(mark);
    }

    /// The marks about `subject`, oldest first: one job's (pod's, node's)
    /// timeline. Empty on a trace that was never enabled.
    pub fn of<'a>(&'a self, subject: impl Into<Subject<'a>>) -> Timeline<'a> {
        Timeline {
            trace: self,
            subject: subject.into(),
        }
    }
}

/// The marks of one subject; prints one line per mark.
#[derive(Debug, Clone, Copy)]
pub struct Timeline<'a> {
    trace: &'a Trace,
    subject: Subject<'a>,
}

impl<'a> Timeline<'a> {
    /// The subject's marks, oldest first.
    pub fn marks(&self) -> impl Iterator<Item = &'a Mark> + 'a {
        let subject = self.subject;
        let marks = self.trace.ring.iter();
        marks.filter(move |m| m.subject() == subject)
    }
}

impl fmt::Display for Timeline<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.marks().try_for_each(|mark| writeln!(f, "{mark}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(t: &mut Trace, us: u64, who: &'static str, subject: Subject<'_>, what: &'static str) {
        t.push(SimTime::from_micros(us), who, subject, what, us);
    }

    #[test]
    fn records_and_queries() {
        let mut t = Trace::default();
        mark(&mut t, 1, "kube", "job-1".into(), "Scheduled");
        mark(&mut t, 2, "api", "job-2".into(), "recorded");
        mark(&mut t, 3, "kube", "job-1".into(), "Started");
        mark(&mut t, 4, "raft", 1.into(), "leader");

        let whats: Vec<_> = t.of("job-1").marks().map(|m| m.what).collect();
        assert_eq!(whats, ["Scheduled", "Started"]);
        assert_eq!(t.of(1).marks().next().unwrap().who, "raft");
        assert_eq!(t.of("job-3").marks().count(), 0);
        // A name and a number never alias.
        assert_eq!(t.of("1").marks().count(), 0);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut sim = crate::Sim::new(1);
        sim.mark("x", "y", "z", 0);
        assert_eq!(sim.trace().ring.capacity(), 0, "no buffer either");
        sim.trace_mut().set_enabled(true);
        sim.mark("x", "y", "z", 0);
        assert_eq!(sim.trace().ring.len(), 1);
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let mut t = Trace::default();
        let n = TRACE_RING as u64 + 5;
        for i in 0..n {
            // Two long-lived subjects and one that is seen once.
            let subject = if i == 2 {
                "once"
            } else {
                ["a", "b"][(i % 2) as usize]
            };
            mark(&mut t, i, "c", subject.into(), "tick");
        }
        assert_eq!(t.ring.len(), TRACE_RING);
        // Oldest first out: what remains is the newest ring-full, in order.
        let args: Vec<u64> = t.ring.iter().map(|m| m.arg).collect();
        assert_eq!(args, (5..n).collect::<Vec<_>>());
        // A subject's marks are its own, whatever was evicted around them.
        assert!(t.of("a").marks().all(|m| m.arg % 2 == 0));
        assert!(t.of("b").marks().all(|m| m.arg % 2 == 1));
        assert_eq!(
            t.of("a").marks().count() + t.of("b").marks().count(),
            TRACE_RING
        );
        // The evicted subject's name went with its last mark.
        assert_eq!(t.of("once").marks().count(), 0);
        assert_eq!(t.names.len(), 2);
    }

    #[test]
    fn display_format() {
        let mut t = Trace::default();
        mark(
            &mut t,
            1_500_000,
            "guardian",
            "job-3".into(),
            "deploy-attempt",
        );
        t.push(
            SimTime::from_secs(2),
            "guardian",
            "job-3".into(),
            "deployed",
            0,
        );
        assert_eq!(
            t.of("job-3").to_string(),
            "[1.500s] guardian job-3: deploy-attempt 1500000\n[2.000s] guardian job-3: deployed\n"
        );
    }
}
