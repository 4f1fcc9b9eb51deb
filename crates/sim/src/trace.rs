//! The timeline: typed marks in one fixed-size ring.
//!
//! A component says what happened with [`crate::Sim::mark`]: *which*
//! mark (a [`MarkDef`]: who says it and what it says, declared once as a
//! `static` in the component crate's `marks` module, see [`crate::marks!`]),
//! the *subject* it is about (a job id, a pod name, a Raft node or shard
//! number) and one number (attempt, term, bytes, waited µs; 0 when there
//! is none — each def's doc names it). Nothing in a mark is formatted or
//! owned by the caller, so a mark on a disabled trace — every
//! [`crate::Sim`] starts with one — costs one branch. Whoever wants to
//! read a timeline switches the trace on first
//! (`sim.trace_mut().set_enabled(true)`) and reads it with [`Trace::of`].
//! Whoever reacts to a mark ([`crate::Sim::tap`]) names the defs it
//! wants and is handed the def itself: a consumer matches a mark by
//! identity, so a mark that is renamed or deleted cannot leave one
//! matching a string nobody marks any more.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use crate::SimTime;

/// How many marks an enabled [`Trace`] keeps: once full, each new mark
/// evicts the oldest one.
pub const TRACE_RING: usize = 16_384;

/// One kind of mark: the component that makes it and what it says. Each
/// is one `static`, made by its crate's [`crate::marks!`] block, and is
/// equal only to itself: two defs are the same mark when they are the
/// same `static`, whatever their strings.
#[derive(Debug)]
pub struct MarkDef {
    /// The component that makes it (`"guardian"`, `"kube"`, `"raft"`).
    pub who: &'static str,
    /// What happened (`"deploy-attempt"`, `"Scheduled"`, `"leader"`).
    pub what: &'static str,
}

impl PartialEq for MarkDef {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Eq for MarkDef {}

/// Declares a crate's marks: one `pub mod` per component, holding one
/// `pub static` [`MarkDef`] per mark it makes, plus `pub static ALL`
/// listing every def of the block — so a mark cannot be missing from
/// the crate's registry. Each def's doc names what its `arg` counts.
///
/// ```
/// dlaas_sim::marks! {
///     /// The service's marks.
///     service: "service" {
///         /// A request was served; arg: its size in bytes.
///         SERVED = "served";
///     }
/// }
/// assert_eq!((service::SERVED.who, service::SERVED.what), ("service", "served"));
/// assert_eq!(ALL, [&service::SERVED]);
/// ```
#[macro_export]
macro_rules! marks {
    ($($(#[$group:meta])* $module:ident: $who:literal {
        $($(#[$doc:meta])* $name:ident = $what:literal;)*
    })*) => {
        $($(#[$group])* pub mod $module {
            $($(#[$doc])* pub static $name: $crate::MarkDef =
                $crate::MarkDef { who: $who, what: $what };)*
        })*

        /// Every mark this module declares.
        pub static ALL: &[&$crate::MarkDef] = &[$($(&$module::$name,)*)*];
    };
}

/// What a mark is about, as the caller passes it: borrowed text or a
/// number. There is deliberately no conversion from an owned `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject<'a> {
    /// A job id, a pod name, a substrate's name.
    Name(&'a str),
    /// A Raft node, or the LCM's one shard (0).
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

/// One mark. It reads as its def (`mark.who`, `mark.what`).
#[derive(Debug)]
pub struct Mark {
    /// Simulated time the mark was made.
    pub time: SimTime,
    /// Which mark it is.
    pub def: &'static MarkDef,
    subject: Held,
    /// The number that goes with it; 0 when there is none.
    pub arg: u64,
}

impl Deref for Mark {
    type Target = MarkDef;

    fn deref(&self) -> &MarkDef {
        self.def
    }
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
        let (time, subject) = (self.time, self.subject());
        let MarkDef { who, what } = self.def;
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

    /// Whether marks are recorded: a caller whose subject has to be built
    /// first builds it only then.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a mark ([`crate::Sim::mark`] asks `enabled` first).
    pub(crate) fn push(
        &mut self,
        time: SimTime,
        def: &'static MarkDef,
        subject: Subject<'_>,
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
            def,
            subject,
            arg,
        };
        self.ring.push_back(mark);
    }

    /// Every mark the ring holds, oldest first: the whole run's history
    /// (what a determinism check fingerprints).
    pub fn marks(&self) -> impl Iterator<Item = &Mark> {
        self.ring.iter()
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

    crate::marks! {
        /// Test marks.
        kube: "kube" {
            /// Test mark.
            SCHEDULED = "Scheduled";
            /// Test mark.
            STARTED = "Started";
        }
        /// Test marks.
        api: "api" {
            /// Test mark.
            RECORDED = "recorded";
        }
        /// Test marks.
        raft: "raft" {
            /// Test mark.
            LEADER = "leader";
        }
        /// Test marks.
        guardian: "guardian" {
            /// Test mark.
            DEPLOY_ATTEMPT = "deploy-attempt";
            /// Test mark.
            DEPLOYED = "deployed";
        }
        /// Test marks.
        c: "c" {
            /// Test mark.
            TICK = "tick";
        }
    }

    fn mark(t: &mut Trace, us: u64, def: &'static MarkDef, subject: Subject<'_>) {
        t.push(SimTime::from_micros(us), def, subject, us);
    }

    #[test]
    fn records_and_queries() {
        let mut t = Trace::default();
        mark(&mut t, 1, &kube::SCHEDULED, "job-1".into());
        mark(&mut t, 2, &api::RECORDED, "job-2".into());
        mark(&mut t, 3, &kube::STARTED, "job-1".into());
        mark(&mut t, 4, &raft::LEADER, 1.into());

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
        sim.mark(&c::TICK, "y", 0);
        assert_eq!(sim.trace().ring.capacity(), 0, "no buffer either");
        sim.trace_mut().set_enabled(true);
        sim.mark(&c::TICK, "y", 0);
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
            mark(&mut t, i, &c::TICK, subject.into());
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
    fn a_block_lists_every_def_it_declares() {
        assert_eq!(ALL.len(), 7);
        assert_eq!(ALL[2], &api::RECORDED);
        assert_ne!(ALL[2], ALL[1]);
    }

    #[test]
    fn a_mark_holds_its_def_once() {
        // Time, def, subject, arg: the def is one pointer where `who` and
        // `what` were two string slices.
        assert_eq!(std::mem::size_of::<Mark>(), 40);
    }

    #[test]
    fn display_format() {
        let mut t = Trace::default();
        mark(&mut t, 1_500_000, &guardian::DEPLOY_ATTEMPT, "job-3".into());
        t.push(
            SimTime::from_secs(2),
            &guardian::DEPLOYED,
            "job-3".into(),
            0,
        );
        assert_eq!(
            t.of("job-3").to_string(),
            "[1.500s] guardian job-3: deploy-attempt 1500000\n[2.000s] guardian job-3: deployed\n"
        );
    }
}
