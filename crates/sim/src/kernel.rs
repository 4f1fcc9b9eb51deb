//! The discrete-event simulation kernel.
//!
//! [`Sim`] owns the clock, the pending-event queue, the root RNG, and the
//! trace log. Components schedule closures to run at future instants;
//! running an event may schedule further events. Ties are broken by
//! scheduling order, so a given seed always produces the same execution.
//!
//! # Event queue
//!
//! The pending set is one [`BinaryHeap`] ordered by `(instant, event id)`.
//! Ids are issued in scheduling order, so ties at an instant break by
//! scheduling order: the order the kernel has always popped in, enforced
//! against a reference model by the property tests in
//! `tests/kernel_props.rs`. A cancelled event stays in the heap until it
//! reaches the head, where its dead id is skipped.
//!
//! # Rounds run in place
//!
//! A periodic event whose next round can neither schedule anything nor
//! send anything — a Raft leader's heartbeat tick whose every exchange is
//! settled — need not be an event at all. [`Sim::schedule_in_place`]
//! reserves the place its queued event would take (instant and event id)
//! and, when the clock reaches it, runs a callback that gets the instant
//! and no `&mut Sim`, then reserves the next place the same way; a round
//! that cannot run that way declines, and the event it stands for runs in
//! its place. A reserved round is a heap entry like any event, so every
//! other event pops in exactly the order, with exactly the ids, it would
//! have had.
//!
//! # The end of a world
//!
//! Components hold one another in `Rc` cells — a network's handlers hold
//! the servers they deliver to, and the servers hold the network — so a
//! world's components would outlive it in cycles. [`Sim::at_end`]
//! registers what breaks them: when the `Sim` is dropped it runs each
//! registered hook, the last registered first, before its queue and the
//! closures in it are freed. A component built over another registers
//! after it, so its hook still finds what it stands on.
//!
//! # Re-entrancy convention
//!
//! Components in this workspace live in `Rc<RefCell<...>>` cells and their
//! callbacks receive `&mut Sim`. To avoid `RefCell` double-borrows, a
//! component that needs to call back into itself (or into its caller)
//! schedules the call with [`Sim::defer`] instead of invoking it inline.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use dlaas_obs::Registry;

use crate::{MarkDef, SimDuration, SimRng, SimTime, Subject, Trace};

/// Identifier of a scheduled event, usable to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// A scheduled closure. Under the `site-profile` feature it also names
/// the call site that scheduled it: the closure's type name, which the
/// compiler already knows at every `schedule_*` / `every` / `defer` call.
/// The name is read through the vtable, so it costs an entry no space.
trait Event {
    fn run(self: Box<Self>, sim: &mut Sim);
    #[cfg(feature = "site-profile")]
    fn site(&self) -> &'static str;
}

impl<F: FnOnce(&mut Sim) + 'static> Event for F {
    fn run(self: Box<Self>, sim: &mut Sim) {
        (*self)(sim);
    }

    #[cfg(feature = "site-profile")]
    fn site(&self) -> &'static str {
        std::any::type_name::<F>()
    }
}

type EventFn = Box<dyn Event>;

/// A mark tap: what [`Sim::tap`] registered.
type Tap = dyn FnMut(&mut Sim, Subject<'_>, &'static MarkDef, u64) -> bool;

/// A round run in place: `round(at)` does its work and returns the
/// instant of the next round, or declines (`None`), having done nothing.
type Round = Box<dyn FnMut(SimTime) -> Option<SimTime>>;

/// What one scheduling call site cost so far (`site-profile` feature).
#[cfg(feature = "site-profile")]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SiteCost {
    /// Events executed. Deterministic for a given seed.
    pub events: u64,
    /// Host seconds spent inside their closures. Wall-clock: report it,
    /// never fold it into anything byte-compared.
    pub host_secs: f64,
}

/// What runs when an entry reaches the head of the queue.
enum Run {
    Event(EventFn),
    /// A periodic event's next round run in place, and the round as an
    /// event: what runs in a declined round's place. Boxed, because it is
    /// rare and every entry is as large as the largest variant.
    InPlace(Box<(Round, EventFn)>),
}

/// One pending entry: an event or a reserved round.
struct Scheduled {
    at: SimTime,
    id: EventId,
    run: Run,
}

// Every pop moves entries of this size; keep them at four words.
const _: () = assert!(std::mem::size_of::<Scheduled>() <= 32);

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (then lowest id) pops first.
        (other.at, other.id).cmp(&(self.at, self.id))
    }
}

/// Tracks which scheduled events are still live (scheduled, not yet fired
/// or cancelled) as a bit-window over the monotonically increasing
/// [`EventId`] space: bit `id - base` of the word deque is set iff `id`
/// is live. Ids below `base` are guaranteed dead (the window only
/// advances past all-zero words), so cancel-validation is an O(1) bit
/// test — no tombstone set to grow, fixing the old `cancel` leak.
struct LiveSet {
    base: u64,
    words: VecDeque<u64>,
    live: usize,
}

impl LiveSet {
    fn new() -> Self {
        LiveSet {
            base: 0,
            words: VecDeque::new(),
            live: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Marks a freshly allocated id live. Ids arrive in increasing order,
    /// so a zeroed front word can never be re-targeted — trimming is safe.
    fn insert(&mut self, id: u64) {
        if self.words.is_empty() {
            // Nothing live: snap the window to the new id instead of
            // growing zero words from a stale base.
            self.base = id & !63;
        }
        debug_assert!(id >= self.base);
        let idx = (id - self.base) as usize;
        while self.words.len() <= idx / 64 {
            self.words.push_back(0);
        }
        self.words[idx / 64] |= 1 << (idx % 64);
        self.live += 1;
    }

    fn contains(&self, id: u64) -> bool {
        if id < self.base {
            return false;
        }
        let idx = (id - self.base) as usize;
        idx / 64 < self.words.len() && self.words[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Clears `id`'s live bit. Returns `false` if the id was never
    /// allocated, already fired, or already cancelled.
    fn remove(&mut self, id: u64) -> bool {
        if id < self.base {
            return false;
        }
        let idx = (id - self.base) as usize;
        if idx / 64 >= self.words.len() {
            return false;
        }
        let bit = 1u64 << (idx % 64);
        if self.words[idx / 64] & bit == 0 {
            return false;
        }
        self.words[idx / 64] &= !bit;
        self.live -= 1;
        while let Some(&0) = self.words.front() {
            self.words.pop_front();
            self.base += 64;
        }
        true
    }
}

/// The simulation world: clock, event queue, RNG and trace.
///
/// # Examples
///
/// ```
/// use dlaas_sim::{Sim, SimDuration, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(42);
/// let fired = Rc::new(Cell::new(false));
/// let f = fired.clone();
/// sim.schedule_in(SimDuration::from_secs(5), move |sim| {
///     assert_eq!(sim.now(), SimTime::from_secs(5));
///     f.set(true);
/// });
/// sim.run_until_idle();
/// assert!(fired.get());
/// ```
pub struct Sim {
    now: SimTime,
    queue: BinaryHeap<Scheduled>,
    next_id: u64,
    live: LiveSet,
    rng: SimRng,
    /// How many streams [`Sim::fork_rng`] has handed out per label.
    forks: BTreeMap<String, u32>,
    trace: Trace,
    /// What [`Sim::tap`] registered, and the marks each sees, in
    /// registration order.
    taps: Vec<(&'static [&'static MarkDef], Box<Tap>)>,
    metrics: Registry,
    executed: u64,
    rounds_in_place: u64,
    /// What [`Sim::at_end`] registered, run when the world is dropped.
    at_end: Vec<EventFn>,
    /// Per-site costs, once [`Sim::profile_sites`] switched them on.
    #[cfg(feature = "site-profile")]
    sites: Option<BTreeMap<&'static str, SiteCost>>,
    /// The site [`Sim::charge_to`] named for the event now running.
    #[cfg(feature = "site-profile")]
    charged: Option<&'static str>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.live.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        for end in std::mem::take(&mut self.at_end).into_iter().rev() {
            end.run(self);
        }
    }
}

impl Sim {
    /// Creates a world at time zero with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_id: 0,
            live: LiveSet::new(),
            #[expect(
                clippy::disallowed_methods,
                reason = "the root stream of the world, seeded from the run seed; everything else forks from it"
            )]
            rng: SimRng::new(seed),
            forks: BTreeMap::new(),
            // Off until a reader asks (`sim.trace_mut().set_enabled(true)`).
            trace: Trace::default(),
            taps: Vec::new(),
            metrics: Registry::new(),
            executed: 0,
            rounds_in_place: 0,
            at_end: Vec::new(),
            #[cfg(feature = "site-profile")]
            sites: None,
            #[cfg(feature = "site-profile")]
            charged: None,
        }
    }

    /// Starts attributing every executed event, and the host time its
    /// closure takes, to the call site that scheduled it — the type name
    /// of the closure handed to `schedule_at` / `schedule_in` / `defer`
    /// (for [`every`], `kernel::tick<..>` of the timer's closure).
    /// Nothing simulated changes; events cost a stopwatch read more.
    #[cfg(feature = "site-profile")]
    pub fn profile_sites(&mut self) {
        self.sites.get_or_insert_with(BTreeMap::new);
    }

    /// Cost per call site since [`Sim::profile_sites`], by site name
    /// (empty if profiling was never switched on).
    #[cfg(feature = "site-profile")]
    pub fn site_costs(&self) -> Vec<(&'static str, SiteCost)> {
        self.sites
            .iter()
            .flatten()
            .map(|(site, cost)| (*site, *cost))
            .collect()
    }

    /// Charges the event now running — its count and its closure's host
    /// time — to `site` instead of to the call site that scheduled it. A
    /// layer that runs a continuation it was handed (an RPC reply) names
    /// the continuation's type here, so the profile shows whose work the
    /// event did. Does nothing unless sites are being profiled.
    #[inline]
    pub fn charge_to(&mut self, site: &'static str) {
        #[cfg(feature = "site-profile")]
        if self.sites.is_some() {
            self.charged = Some(site);
        }
        #[cfg(not(feature = "site-profile"))]
        let _ = site;
    }

    #[cfg(not(feature = "site-profile"))]
    fn fire(&mut self, ev: EventFn) {
        ev.run(self);
    }

    #[cfg(feature = "site-profile")]
    fn fire(&mut self, ev: EventFn) {
        if self.sites.is_none() {
            return ev.run(self);
        }
        let scheduled_by = ev.site();
        let stopwatch = dlaas_obs::wallclock::WallTimer::start();
        ev.run(self);
        let host_secs = stopwatch.elapsed_secs();
        let site = self.charged.take().unwrap_or(scheduled_by);
        if let Some(sites) = &mut self.sites {
            let cost = sites.entry(site).or_default();
            cost.events += 1;
            cost.host_secs += host_secs;
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Mutable access to the root RNG.
    ///
    /// Components should generally [`SimRng::fork`] their own stream once at
    /// construction instead of drawing from the root on every call.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// A stream of its own for one component of this world, keyed by
    /// `label`. [`SimRng::fork`] depends only on the root seed and the
    /// label, so two components built alike — two networks, two
    /// clusters' nodes — would replay one sequence. Here the first fork
    /// of a label is `rng().fork(label)` and the n-th (n ≥ 2) is keyed
    /// `label#n`: each instance draws independently, and the streams
    /// depend only on the order the world builds its components in.
    pub fn fork_rng(&mut self, label: &str) -> SimRng {
        let n = self.forks.entry(label.to_owned()).or_insert(0);
        *n += 1;
        match *n {
            1 => self.rng.fork(label),
            n => self.rng.fork(&format!("{label}#{n}")),
        }
    }

    /// The timeline of marks.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the timeline (to enable it).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Marks, at the current time, that `def` happened to `subject`
    /// (dropped unless the trace was enabled). `arg` is the one number
    /// that goes with it — attempt, term, bytes, as `def`'s doc says — or
    /// 0. The types admit nothing that had to be formatted or allocated
    /// first. Every tap on `def` ([`Sim::tap`]) sees the mark, whether the
    /// trace is on or not.
    #[inline]
    pub fn mark<'a>(&mut self, def: &'static MarkDef, subject: impl Into<Subject<'a>>, arg: u64) {
        let subject = subject.into();
        if self.trace.enabled {
            self.trace.push(self.now, def, subject, arg);
        }
        if !self.taps.is_empty() {
            self.run_taps(def, subject, arg);
        }
    }

    /// Taps the marks `on` lists: `f` runs inside every later
    /// [`Sim::mark`] of one of them, with the mark's def, subject and
    /// number, trace on or off, after the taps registered before it. It
    /// runs inside the marking component's borrows, so it records and
    /// leaves acting to an event it queues ([`Sim::defer`]). It returns
    /// `false` to unsubscribe. A mark made inside a tap is traced but not
    /// tapped.
    pub fn tap(
        &mut self,
        on: &'static [&'static MarkDef],
        f: impl FnMut(&mut Sim, Subject<'_>, &'static MarkDef, u64) -> bool + 'static,
    ) {
        self.taps.push((on, Box::new(f)));
    }

    /// Runs the taps on `def` for one mark; a def is found by address.
    /// The list is out of the world while they run, which is what keeps
    /// their own marks untapped; taps registered meanwhile join it after
    /// them.
    fn run_taps(&mut self, def: &'static MarkDef, subject: Subject<'_>, arg: u64) {
        let mut taps = std::mem::take(&mut self.taps);
        taps.retain_mut(|(on, f)| !on.contains(&def) || f(self, subject, def, arg));
        taps.append(&mut self.taps);
        self.taps = taps;
    }

    /// The world's metrics registry. The returned handle is cheap to clone
    /// and every clone records into the same store, so components can keep
    /// one or call through `sim.metrics()` at each site.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Number of events executed so far (rounds run in place are not
    /// events: see [`Sim::rounds_in_place`]).
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of rounds run in place so far ([`Sim::schedule_in_place`]).
    pub fn rounds_in_place(&self) -> u64 {
        self.rounds_in_place
    }

    /// Number of live events currently pending. Cancelled events stop
    /// counting the moment they are cancelled, even though their queue
    /// entries are reclaimed lazily — budget and idle checks see only
    /// work that will actually run.
    pub fn events_pending(&self) -> usize {
        self.live.len()
    }

    /// Registers `end` to run when this world is dropped, before every
    /// hook registered before it: a component's end runs while what it was
    /// built on still stands (a platform stops its processes, whose last
    /// calls reach the networks, before the networks drop). A hook gets the world as it was when dropped
    /// (its clock and its pending events, none of which run again); what
    /// it schedules, or registers with `at_end`, is freed unrun. It is how
    /// a component breaks the `Rc` cycles that would otherwise outlive the
    /// world.
    ///
    /// A world dropped while its thread panics runs no hook — a second
    /// panic inside one would abort the process — so a world that
    /// panicked leaks the cycles its hooks would have broken.
    pub fn at_end(&mut self, end: impl FnOnce(&mut Sim) + 'static) {
        self.at_end.push(Box::new(end));
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) -> EventId {
        self.push(at, Box::new(f))
    }

    /// Queues a boxed event for `at`: a new one, or a repeating timer's
    /// own box again.
    #[inline]
    fn push(&mut self, at: SimTime, ev: EventFn) -> EventId {
        let id = self.reserve(at);
        self.queue.push(Scheduled {
            at,
            id,
            run: Run::Event(ev),
        });
        id
    }

    /// The (live) id of an event scheduled now for `at`: its place among
    /// that instant's events.
    fn reserve(&mut self, at: SimTime) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.live.insert(id.0);
        id
    }

    /// Schedules a periodic event's next round, due at `at`, to run in
    /// place: it takes the place `schedule_at(at, queued)` would take — the
    /// instant, the place among that instant's events, the event id — and
    /// there the kernel calls `round(at)` instead of running an event. A
    /// round that ran returns the instant of the next one, which takes the
    /// next place the same way; one that declines returns `None` having
    /// done nothing, and `queued` runs in its place as the event it stands
    /// for. A round gets no `&mut Sim`: it runs only when it would have
    /// scheduled nothing, and changes only state no other event is
    /// scheduled by. Rounds run in place are not executed events; they are
    /// counted by [`Sim::rounds_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_in_place(
        &mut self,
        at: SimTime,
        round: impl FnMut(SimTime) -> Option<SimTime> + 'static,
        queued: impl FnOnce(&mut Sim) + 'static,
    ) {
        let id = self.reserve(at);
        self.queue.push(Scheduled {
            at,
            id,
            run: Run::InPlace(Box::new((Box::new(round), Box::new(queued)))),
        });
    }

    /// Schedules `f` to run after `delay`.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Sim) + 'static,
    ) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, f)
    }

    /// Schedules `f` to run at the current time, after all already-queued
    /// work for this instant. Use to break `RefCell` borrow chains.
    pub fn defer(&mut self, f: impl FnOnce(&mut Sim) + 'static) -> EventId {
        self.schedule_at(self.now, f)
    }

    /// Cancels a pending event. Returns `true` if the event had not yet run
    /// or been cancelled. Cancelling an already-fired or never-issued id is
    /// a validated no-op — it leaves no state behind.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.live.remove(id.0)
    }

    /// Runs the next pending event, or round in place, advancing the clock
    /// to its instant. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        while let Some(Scheduled { at, id, run }) = self.queue.pop() {
            if !self.live.remove(id.0) {
                // Cancelled after scheduling; its queue entry is reclaimed
                // here, on the instant it would have fired.
                continue;
            }
            debug_assert!(at >= self.now);
            self.now = at;
            match run {
                Run::Event(ev) => {
                    self.executed += 1;
                    self.fire(ev);
                }
                Run::InPlace(mut round) => match (round.0)(at) {
                    Some(next) => {
                        let id = self.reserve(next);
                        self.rounds_in_place += 1;
                        self.queue.push(Scheduled {
                            at: next,
                            id,
                            run: Run::InPlace(round),
                        });
                    }
                    None => {
                        self.executed += 1;
                        self.fire(round.1);
                    }
                },
            }
            return true;
        }
        false
    }

    /// Runs events until the queue is empty. Returns the number of events
    /// executed.
    ///
    /// # Panics
    ///
    /// Panics after 200 million events as a runaway-loop backstop.
    pub fn run_until_idle(&mut self) -> u64 {
        let start = self.executed;
        let rounds = self.rounds_in_place;
        while self.step() {
            assert!(
                self.executed - start + self.rounds_in_place - rounds < 200_000_000,
                "runaway simulation: >200M events without idling"
            );
        }
        self.executed - start
    }

    /// Runs events with timestamps `<= deadline`, then advances the clock to
    /// exactly `deadline`. Returns the number of events executed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.executed;
        while let Some(next_at) = self.peek_time() {
            if next_at > deadline {
                break;
            }
            self.step();
        }
        if deadline > self.now {
            self.now = deadline;
        }
        self.executed - start
    }

    /// Runs events for `d` of simulated time from now.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// Runs until `pred` returns `true` (checked after every event) or the
    /// queue empties. Returns `true` if the predicate was satisfied.
    pub fn run_until_pred(&mut self, mut pred: impl FnMut(&Sim) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        while self.step() {
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Timestamp of the next non-cancelled pending event or round run in
    /// place, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(head) = self.queue.peek() {
            if self.live.contains(head.id.0) {
                return Some(head.at);
            }
            // Cancelled entry at the head: discard it and look again.
            self.queue.pop();
        }
        None
    }
}

/// A repeating timer: reschedules itself every `period` until cancelled via
/// the returned handle.
///
/// The callback receives the tick count (starting at 1) and may return
/// `false` to stop the timer from inside. The timer is one box for its
/// whole life: each tick that goes on queues the same box again.
pub fn every(
    sim: &mut Sim,
    period: SimDuration,
    f: impl FnMut(&mut Sim, u64) -> bool + 'static,
) -> TimerHandle {
    assert!(!period.is_zero(), "timer period must be positive");
    let handle = TimerHandle::new();
    let timer = Timer {
        period,
        f,
        handle: handle.clone(),
        n: 1,
    };
    sim.push(sim.now + period, Box::new(timer));
    handle
}

/// A timer of [`every`]: its closure and the number of its next tick.
struct Timer<F> {
    period: SimDuration,
    f: F,
    handle: TimerHandle,
    n: u64,
}

impl<F: FnMut(&mut Sim, u64) -> bool + 'static> Event for Timer<F> {
    fn run(self: Box<Self>, sim: &mut Sim) {
        tick(self, sim);
    }

    /// The site of the function that runs the timer, `kernel::tick<F>`:
    /// one site per timer closure, as for any other event.
    #[cfg(feature = "site-profile")]
    fn site(&self) -> &'static str {
        std::any::type_name_of_val(&tick::<F>)
    }
}

/// One tick: runs the closure, then queues the timer's box for the next.
fn tick<F: FnMut(&mut Sim, u64) -> bool + 'static>(mut timer: Box<Timer<F>>, sim: &mut Sim) {
    if timer.handle.is_cancelled() {
        return;
    }
    if (timer.f)(sim, timer.n) {
        timer.n += 1;
        sim.push(sim.now + timer.period, timer);
    }
}

/// Cancellation handle for [`every`].
#[derive(Debug, Clone, Default)]
pub struct TimerHandle {
    cancelled: std::rc::Rc<std::cell::Cell<bool>>,
}

impl TimerHandle {
    fn new() -> Self {
        Self::default()
    }

    /// Stops the timer; pending ticks become no-ops.
    pub fn cancel(&self) {
        self.cancelled.set(true);
    }

    /// `true` once [`TimerHandle::cancel`] has been called.
    fn is_cancelled(&self) -> bool {
        self.cancelled.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    static FIRED: MarkDef = MarkDef {
        who: "test",
        what: "fired",
    };
    static HELLO: MarkDef = MarkDef {
        who: "test",
        what: "hello",
    };
    static HELPER_CREATED: MarkDef = MarkDef {
        who: "guardian",
        what: "helper-created",
    };
    static DEPLOYED: MarkDef = MarkDef {
        who: "guardian",
        what: "deployed",
    };
    /// A second def with `HELPER_CREATED`'s strings.
    static TWIN: MarkDef = MarkDef {
        who: "guardian",
        what: "helper-created",
    };

    #[test]
    fn a_dropped_world_runs_its_end_hooks_in_order_and_frees_its_queue() {
        let ran = Rc::new(RefCell::new(Vec::new()));
        let pending = Rc::new(());
        let mut sim = Sim::new(1);
        let held = pending.clone();
        sim.schedule_in(SimDuration::from_secs(1), move |_| drop(held));
        let r = ran.clone();
        sim.at_end(move |sim| {
            r.borrow_mut().push(1);
            // What a hook schedules or registers never runs.
            sim.at_end(|_| unreachable!("a hook registered at the end ran"));
            sim.defer(|_| unreachable!("an event scheduled at the end ran"));
        });
        let r = ran.clone();
        sim.at_end(move |_| r.borrow_mut().push(2));
        drop(sim);
        assert_eq!(*ran.borrow(), [2, 1]);
        assert_eq!(Rc::strong_count(&pending), 1, "the queue was not freed");
    }

    #[test]
    fn a_world_dropped_while_its_thread_panics_runs_no_end_hook() {
        let ran = Rc::new(RefCell::new(false));
        let r = ran.clone();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sim = Sim::new(1);
            sim.at_end(move |_| *r.borrow_mut() = true);
            panic!("a trial fails with its world alive");
        }));
        assert!(unwound.is_err());
        assert!(!*ran.borrow());
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (delay, tag) in [(30u64, "c"), (10, "a"), (20, "b")] {
            let order = order.clone();
            sim.schedule_in(SimDuration::from_millis(delay), move |_| {
                order.borrow_mut().push(tag);
            });
        }
        sim.run_until_idle();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for tag in ["first", "second", "third"] {
            let order = order.clone();
            sim.schedule_in(SimDuration::from_millis(5), move |_| {
                order.borrow_mut().push(tag);
            });
        }
        sim.run_until_idle();
        assert_eq!(*order.borrow(), vec!["first", "second", "third"]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new(1);
        let fired = Rc::new(std::cell::Cell::new(false));
        let f = fired.clone();
        let id = sim.schedule_in(SimDuration::from_secs(1), move |_| f.set(true));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel reports false");
        sim.run_until_idle();
        assert!(!fired.get());
    }

    #[test]
    fn nested_scheduling_runs_same_instant_in_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        sim.schedule_in(SimDuration::from_secs(1), move |sim| {
            o.borrow_mut().push(1);
            let o2 = o.clone();
            sim.defer(move |_| o2.borrow_mut().push(3));
            o.borrow_mut().push(2);
        });
        sim.run_until_idle();
        assert_eq!(*order.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(1);
        let count = Rc::new(std::cell::Cell::new(0u32));
        for s in 1..=10u64 {
            let c = count.clone();
            sim.schedule_in(SimDuration::from_secs(s), move |_| c.set(c.get() + 1));
        }
        let executed = sim.run_until(SimTime::from_secs(4));
        assert_eq!(executed, 4);
        assert_eq!(count.get(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        sim.run_until_idle();
        assert_eq!(count.get(), 10);
    }

    #[test]
    fn run_until_advances_to_deadline_with_empty_queue() {
        let mut sim = Sim::new(1);
        sim.run_until(SimTime::from_secs(100));
        assert_eq!(sim.now(), SimTime::from_secs(100));
    }

    #[test]
    fn run_until_pred_stops_early() {
        let mut sim = Sim::new(1);
        let count = Rc::new(std::cell::Cell::new(0u32));
        for s in 1..=10u64 {
            let c = count.clone();
            sim.schedule_in(SimDuration::from_secs(s), move |_| c.set(c.get() + 1));
        }
        let c = count.clone();
        let hit = sim.run_until_pred(move |_| c.get() >= 3);
        assert!(hit);
        assert_eq!(count.get(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Sim::new(1);
        sim.schedule_in(SimDuration::from_secs(5), |_| {});
        sim.run_until_idle();
        sim.schedule_at(SimTime::from_secs(1), |_| {});
    }

    #[test]
    fn repeating_timer_ticks_until_cancelled() {
        let mut sim = Sim::new(1);
        let ticks = Rc::new(std::cell::Cell::new(0u64));
        let t = ticks.clone();
        let handle = every(&mut sim, SimDuration::from_secs(1), move |_, n| {
            t.set(n);
            true
        });
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(ticks.get(), 5);
        handle.cancel();
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(ticks.get(), 5);
    }

    #[test]
    fn repeating_timer_stops_when_callback_returns_false() {
        let mut sim = Sim::new(1);
        let ticks = Rc::new(std::cell::Cell::new(0u64));
        let t = ticks.clone();
        every(&mut sim, SimDuration::from_secs(1), move |_, n| {
            t.set(n);
            n < 3
        });
        sim.run_until_idle();
        assert_eq!(ticks.get(), 3);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> String {
            let mut sim = Sim::new(seed);
            sim.trace_mut().set_enabled(true);
            for n in 0..50u64 {
                let delay = SimDuration::from_micros(sim.rng().range_u64(1, 1_000_000));
                sim.schedule_in(delay, move |sim| sim.mark(&FIRED, "timer", n));
            }
            sim.run_until_idle();
            sim.trace().of("timer").to_string()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn a_repeated_fork_label_gets_a_stream_of_its_own() {
        let mut sim = Sim::new(5);
        let first = sim.fork_rng("net").next_u64();
        let second = sim.fork_rng("net").next_u64();
        assert_eq!(
            first,
            sim.rng().fork("net").next_u64(),
            "first is the plain fork"
        );
        assert_ne!(first, second);
        assert_eq!(second, sim.rng().fork("net#2").next_u64());
        // Per world: a fresh world starts counting again.
        assert_eq!(Sim::new(5).fork_rng("net").next_u64(), first);
    }

    #[test]
    fn cancel_of_fired_or_bogus_id_is_rejected_and_leaks_nothing() {
        // Regression: the old `cancel` inserted a tombstone for any id
        // below `next_id` without checking it was still queued, so
        // cancelling fired events grew the tombstone set forever.
        let mut sim = Sim::new(1);
        let id = sim.schedule_in(SimDuration::from_secs(1), |_| {});
        sim.run_until_idle();
        assert!(
            !sim.cancel(id),
            "cancelling a fired event must report false"
        );
        assert!(
            !sim.cancel(EventId(9999)),
            "cancelling a never-issued id must report false"
        );
        assert_eq!(sim.live.len(), 0, "no tombstone state may survive");
        assert!(
            sim.live.words.is_empty(),
            "live-set window must fully drain"
        );
    }

    #[test]
    fn events_pending_reports_live_events_only() {
        // Regression: `events_pending` used to count cancelled-but-unpopped
        // queue entries, over-reporting outstanding work.
        let mut sim = Sim::new(1);
        let ids: Vec<EventId> = (1..=3u64)
            .map(|s| sim.schedule_in(SimDuration::from_secs(s), |_| {}))
            .collect();
        assert_eq!(sim.events_pending(), 3);
        assert!(sim.cancel(ids[1]));
        assert_eq!(
            sim.events_pending(),
            2,
            "a cancelled event must stop counting immediately"
        );
        sim.step();
        assert_eq!(sim.events_pending(), 1);
        sim.run_until_idle();
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Delays spanning µs to hours, with ties, pop in time order.
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let delays_us = [
            3_600_000_000u64, // 1 h
            5,                // same-instant ties
            10_000_000,       // 10 s
            5,
            4_194_304,
            999,
            7_200_000_000, // 2 h
            2_000_000,     // 2 s
        ];
        for (i, us) in delays_us.iter().enumerate() {
            let order = order.clone();
            sim.schedule_in(SimDuration::from_micros(*us), move |sim| {
                order.borrow_mut().push((sim.now().as_micros(), i));
            });
        }
        sim.run_until_idle();
        let got = order.borrow().clone();
        let mut want: Vec<(u64, usize)> = delays_us
            .iter()
            .enumerate()
            .map(|(i, us)| (*us, i))
            .collect();
        // Same (time, scheduling-order) contract as the old global heap.
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn a_cancelled_far_future_event_is_skipped() {
        let mut sim = Sim::new(1);
        let fired = Rc::new(std::cell::Cell::new(false));
        let f = fired.clone();
        let id = sim.schedule_in(SimDuration::from_hours(1), move |_| f.set(true));
        sim.schedule_in(SimDuration::from_hours(2), |_| {});
        assert!(sim.cancel(id));
        sim.run_until_idle();
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::from_secs(7200));
    }

    #[test]
    fn peek_time_skips_cancelled_heads() {
        let mut sim = Sim::new(1);
        let near = sim.schedule_in(SimDuration::from_millis(1), |_| {});
        let far = sim.schedule_in(SimDuration::from_hours(1), |_| {});
        sim.schedule_in(SimDuration::from_hours(3), |_| {});
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(1)));
        sim.cancel(near);
        assert_eq!(sim.peek_time(), Some(SimTime::from_secs(3600)));
        sim.cancel(far);
        assert_eq!(sim.peek_time(), Some(SimTime::from_secs(3 * 3600)));
    }

    #[cfg(feature = "site-profile")]
    #[test]
    fn site_profile_attributes_events_to_the_closure_that_scheduled_them() {
        fn ping(sim: &mut Sim, left: u32) {
            if left > 0 {
                sim.schedule_in(SimDuration::from_secs(1), move |sim| ping(sim, left - 1));
            }
        }
        let mut sim = Sim::new(1);
        sim.defer(|_| {});
        sim.run_until_idle();
        assert!(sim.site_costs().is_empty(), "off until switched on");

        sim.profile_sites();
        ping(&mut sim, 3);
        every(&mut sim, SimDuration::from_secs(1), |_, n| n < 5);
        sim.defer(|_| {});
        sim.run_until_idle();
        let costs = sim.site_costs();
        let events_of = |what: &str| -> Vec<u64> {
            costs
                .iter()
                .filter(|(site, _)| site.contains(what))
                .map(|(_, c)| c.events)
                .collect()
        };
        assert_eq!(events_of("ping"), [3]);
        assert_eq!(events_of("kernel::tick<"), [5], "a timer is one site");
        let total: u64 = costs.iter().map(|(_, c)| c.events).sum();
        assert_eq!(total, 9, "every executed event is attributed: {costs:?}");
        assert!(costs.iter().all(|(_, c)| c.host_secs >= 0.0));

        // An event that names whose work it does is charged there, once.
        sim.defer(|sim| sim.charge_to("the reply's continuation"));
        sim.run_until_idle();
        let costs = sim.site_costs();
        let charged = costs
            .iter()
            .find(|(site, _)| *site == "the reply's continuation");
        assert_eq!(charged.map(|(_, c)| c.events), Some(1));
        assert_eq!(costs.iter().map(|(_, c)| c.events).sum::<u64>(), 10);
    }

    #[test]
    fn an_armed_mark_queues_its_event_once_after_the_instants_queued_work() {
        let mut sim = Sim::new(1);
        let ran = Rc::new(RefCell::new(Vec::new()));
        let log = |what: &'static str| {
            let ran = ran.clone();
            move |sim: &mut Sim| ran.borrow_mut().push((sim.now(), what))
        };
        // An arm: the first `helper-created` of job-1 by the Guardian
        // queues one event, and the tap unsubscribes.
        let fired = log("fired");
        sim.tap(const { &[&HELPER_CREATED] }, move |sim, subject, _, _| {
            let hit = subject == Subject::Name("job-1");
            if hit {
                sim.defer(fired.clone());
            }
            !hit
        });
        // A second tap on both Guardian marks sees every one of them,
        // those after the arm left too; a mark made inside a tap is not
        // tapped.
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let on = const { &[&HELPER_CREATED, &DEPLOYED] };
        sim.tap(on, move |sim, subject, def, _| {
            sim.mark(&DEPLOYED, subject, 0);
            seen2.borrow_mut().push(def.what);
            true
        });
        let marked = log("marked");
        sim.schedule_in(SimDuration::from_secs(2), move |sim| {
            sim.mark(&TWIN, "job-1", 0);
            sim.mark(&HELPER_CREATED, "job-2", 0);
            sim.mark(&HELPER_CREATED, 1, 0);
            sim.mark(&DEPLOYED, "job-1", 0);
            sim.mark(&HELPER_CREATED, "job-1", 0);
            sim.mark(&HELPER_CREATED, "job-1", 0);
            marked(sim);
        });
        // Queued for the marking instant before the mark was made.
        sim.schedule_in(SimDuration::from_secs(2), log("queued"));
        sim.run_until_idle();
        assert!(!sim.trace().is_enabled());
        let at = SimTime::from_secs(2);
        assert_eq!(
            *ran.borrow(),
            [(at, "marked"), (at, "queued"), (at, "fired")]
        );
        // A def with the same strings is another mark: the first one,
        // the twin's, reached neither tap.
        let created = "helper-created";
        assert_eq!(
            *seen.borrow(),
            [created, created, "deployed", created, created]
        );
    }

    #[test]
    fn trace_records_through_sim() {
        let mut sim = Sim::new(1);
        sim.trace_mut().set_enabled(true);
        sim.schedule_in(SimDuration::from_secs(2), |sim| {
            sim.mark(&HELLO, 7, 3);
        });
        sim.run_until_idle();
        let timeline = sim.trace().of(7);
        let mark = timeline.marks().next().unwrap();
        assert_eq!(mark.time, SimTime::from_secs(2));
        assert_eq!(mark.def, &HELLO);
        assert_eq!((mark.who, mark.what, mark.arg), ("test", "hello", 3));
    }
}
