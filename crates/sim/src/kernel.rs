//! The discrete-event simulation kernel.
//!
//! [`Sim`] owns the clock, the pending-event queue, the root RNG, and the
//! trace log. Components schedule closures to run at future instants;
//! running an event may schedule further events. Ties are broken by
//! scheduling order, so a given seed always produces the same execution.
//!
//! # Event queue
//!
//! The pending set lives in a calendar queue ([`CalendarQueue`]): a ring
//! of time-bucketed slots covering a sliding window ahead of the clock,
//! with a sorted overflow tier for events beyond the window. Pops come
//! from tiny per-slot heaps instead of one global heap, so the hot path
//! is near-O(1) regardless of how many events are outstanding. Ordering
//! is exactly the old global-heap order — `(time, then scheduling seq)` —
//! so every seed produces the byte-identical execution it always did; the
//! argument is laid out in DESIGN.md and enforced by the queue-vs-heap
//! property test in `tests/kernel_props.rs`.
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

use crate::{SimDuration, SimRng, SimTime, Subject, Trace};

/// Identifier of a scheduled event, usable to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// A scheduled closure and, under the `site-profile` feature, the call
/// site that scheduled it: the closure's type name, which the compiler
/// already knows at every `schedule_*` / `every` / `defer` call.
struct EventFn {
    run: Box<dyn FnOnce(&mut Sim)>,
    #[cfg(feature = "site-profile")]
    site: &'static str,
}

impl EventFn {
    fn new<F: FnOnce(&mut Sim) + 'static>(f: F) -> Self {
        EventFn {
            run: Box::new(f),
            #[cfg(feature = "site-profile")]
            site: std::any::type_name::<F>(),
        }
    }
}

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

struct Scheduled {
    at: SimTime,
    seq: u64,
    id: EventId,
    run: EventFn,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so earliest (then lowest seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Log2 of the calendar slot width: 1024 µs ≈ 1 ms per slot, sized to the
/// platform's hot delays (sub-millisecond defers, RPC service times of
/// 300–1500 µs land within a slot or two of the clock).
const SLOT_WIDTH_LOG2: u32 = 10;
/// Log2 of the slot count: 4096 slots × 1024 µs ≈ a 4.2 s window, wide
/// enough that per-second timers (guardian polls, heartbeats) stay in the
/// ring; only multi-second timers (LCM sweeps, deploy timeouts) take the
/// overflow tier.
const N_SLOTS_LOG2: u32 = 12;
const N_SLOTS: usize = 1 << N_SLOTS_LOG2;
const OCCUPANCY_WORDS: usize = N_SLOTS / 64;
/// Heap capacity a drained slot may keep for its next burst. A slot that
/// grew past it for a burst gives the memory back when it empties, so the
/// ring holds at most `N_SLOTS × SLOT_KEEP` idle entries, not the largest
/// burst every slot ever saw.
const SLOT_KEEP: usize = 64;

const fn epoch_of(at_us: u64) -> u64 {
    at_us >> SLOT_WIDTH_LOG2
}

const fn slot_of(epoch: u64) -> usize {
    (epoch as usize) & (N_SLOTS - 1)
}

/// Calendar/bucket event queue: a ring of `N_SLOTS` time buckets, each a
/// small [`BinaryHeap`] ordered by `(at, seq)`, plus a sorted overflow
/// tier for events beyond the ring's window.
///
/// Invariant: every ring event's epoch (`at / slot_width`) lies in
/// `[epoch(now), epoch(now) + N_SLOTS)`. Pushes respect it by routing
/// far-future events to `overflow`; because the clock never goes
/// backwards and events never fire early, the window only slides forward
/// under events already inside it. Within the window, epoch → slot is a
/// bijection, so scanning slots cyclically from `slot(epoch(now))` visits
/// buckets in strictly increasing epoch order and the first occupied slot
/// holds the global minimum. After [`CalendarQueue::migrate`], every
/// overflow event's timestamp is at or beyond the window end and thus
/// strictly after every ring event — the ring, when non-empty, always
/// wins. Ties inside a bucket fall to the per-slot heap's `(at, seq)`
/// order, which is the exact order the old global heap used.
struct CalendarQueue {
    slots: Vec<BinaryHeap<Scheduled>>,
    /// One bit per slot: set iff the slot's heap is non-empty. Scanning
    /// 64 slots per word keeps next-event search at worst a few dozen
    /// word reads even when the window is sparse.
    occupied: [u64; OCCUPANCY_WORDS],
    /// Entries currently in the ring (live or cancelled-but-unpopped).
    ring_len: usize,
    /// Events beyond the window, keyed by `(at_us, seq)` so iteration
    /// order is pop order.
    overflow: BTreeMap<(u64, u64), (EventId, EventFn)>,
    /// Cached earliest overflow timestamp (`u64::MAX` when empty), so the
    /// per-pop migration check is one compare instead of a tree descent.
    overflow_min_us: u64,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            slots: (0..N_SLOTS).map(|_| BinaryHeap::new()).collect(),
            occupied: [0; OCCUPANCY_WORDS],
            ring_len: 0,
            overflow: BTreeMap::new(),
            overflow_min_us: u64::MAX,
        }
    }

    fn push(&mut self, now_us: u64, ev: Scheduled) {
        let epoch = epoch_of(ev.at.as_micros());
        if epoch < epoch_of(now_us) + N_SLOTS as u64 {
            self.push_ring(epoch, ev);
        } else {
            self.overflow_min_us = self.overflow_min_us.min(ev.at.as_micros());
            self.overflow
                .insert((ev.at.as_micros(), ev.seq), (ev.id, ev.run));
        }
    }

    fn push_ring(&mut self, epoch: u64, ev: Scheduled) {
        let slot = slot_of(epoch);
        self.slots[slot].push(ev);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_len += 1;
    }

    /// Moves overflow events whose epoch has entered the window into the
    /// ring. Called before every peek/pop; each event migrates at most
    /// once, so the cost is amortized O(log overflow) per event.
    fn migrate(&mut self, now_us: u64) {
        let window_end_us = (epoch_of(now_us) + N_SLOTS as u64) << SLOT_WIDTH_LOG2;
        if self.overflow_min_us >= window_end_us {
            return;
        }
        while let Some((&(at_us, _), _)) = self.overflow.first_key_value() {
            if at_us >= window_end_us {
                self.overflow_min_us = at_us;
                return;
            }
            let ((at_us, seq), (id, run)) = self.overflow.pop_first().expect("peeked");
            self.push_ring(
                epoch_of(at_us),
                Scheduled {
                    at: SimTime::from_micros(at_us),
                    seq,
                    id,
                    run,
                },
            );
        }
        self.overflow_min_us = u64::MAX;
    }

    /// Index of the first occupied slot at or (cyclically) after `start`.
    /// Must only be called while the ring is non-empty.
    fn first_occupied_from(&self, start: usize) -> usize {
        let word = start / 64;
        let masked = self.occupied[word] & (!0u64 << (start % 64));
        if masked != 0 {
            return word * 64 + masked.trailing_zeros() as usize;
        }
        // Wrap the whole ring; revisiting `word` last also covers the
        // bits below `start` skipped above.
        for i in 1..=OCCUPANCY_WORDS {
            let w = (word + i) % OCCUPANCY_WORDS;
            if self.occupied[w] != 0 {
                return w * 64 + self.occupied[w].trailing_zeros() as usize;
            }
        }
        unreachable!("first_occupied_from on an empty ring");
    }

    /// Removes and returns the globally earliest event (by `(at, seq)`),
    /// cancelled or not — the caller filters against its live set.
    fn pop(&mut self, now_us: u64) -> Option<Scheduled> {
        self.migrate(now_us);
        if self.ring_len > 0 {
            let slot = self.first_occupied_from(slot_of(epoch_of(now_us)));
            let heap = &mut self.slots[slot];
            let ev = heap.pop().expect("occupied slot");
            if heap.is_empty() {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
                if heap.capacity() > SLOT_KEEP {
                    *heap = BinaryHeap::new();
                }
            }
            self.ring_len -= 1;
            return Some(ev);
        }
        let ((at_us, seq), (id, run)) = self.overflow.pop_first()?;
        self.overflow_min_us = self
            .overflow
            .first_key_value()
            .map_or(u64::MAX, |(&(at, _), _)| at);
        Some(Scheduled {
            at: SimTime::from_micros(at_us),
            seq,
            id,
            run,
        })
    }

    /// Timestamp and id of the earliest event without removing it.
    fn peek(&mut self, now_us: u64) -> Option<(SimTime, EventId)> {
        self.migrate(now_us);
        if self.ring_len > 0 {
            let slot = self.first_occupied_from(slot_of(epoch_of(now_us)));
            let ev = self.slots[slot].peek().expect("occupied slot");
            return Some((ev.at, ev.id));
        }
        self.overflow
            .first_key_value()
            .map(|(&(at_us, _), &(id, _))| (SimTime::from_micros(at_us), id))
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
    queue: CalendarQueue,
    seq: u64,
    next_id: u64,
    live: LiveSet,
    rng: SimRng,
    /// How many streams [`Sim::fork_rng`] has handed out per label.
    forks: BTreeMap<String, u32>,
    trace: Trace,
    metrics: Registry,
    executed: u64,
    /// Per-site costs, once [`Sim::profile_sites`] switched them on.
    #[cfg(feature = "site-profile")]
    sites: Option<BTreeMap<&'static str, SiteCost>>,
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

impl Sim {
    /// Creates a world at time zero with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            seq: 0,
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
            metrics: Registry::new(),
            executed: 0,
            #[cfg(feature = "site-profile")]
            sites: None,
        }
    }

    /// Starts attributing every executed event, and the host time its
    /// closure takes, to the call site that scheduled it — the type name
    /// of the closure handed to `schedule_at` / `schedule_in` / `defer`
    /// (for [`every`], the timer's closure inside `kernel::tick<..>`).
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

    #[cfg(not(feature = "site-profile"))]
    fn fire(&mut self, ev: EventFn) {
        (ev.run)(self);
    }

    #[cfg(feature = "site-profile")]
    fn fire(&mut self, ev: EventFn) {
        if self.sites.is_none() {
            return (ev.run)(self);
        }
        let stopwatch = dlaas_obs::wallclock::WallTimer::start();
        (ev.run)(self);
        let host_secs = stopwatch.elapsed_secs();
        if let Some(sites) = &mut self.sites {
            let cost = sites.entry(ev.site).or_default();
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

    /// Marks, at the current time, that `who` saw `what` happen to
    /// `subject` (dropped unless the trace was enabled). `arg` is the one
    /// number that goes with `what` — attempt, term, bytes — or 0. The
    /// types admit nothing that had to be formatted or allocated first.
    #[inline]
    pub fn mark<'a>(
        &mut self,
        who: &'static str,
        subject: impl Into<Subject<'a>>,
        what: &'static str,
        arg: u64,
    ) {
        if self.trace.enabled {
            self.trace.push(self.now, who, subject.into(), what, arg);
        }
    }

    /// The world's metrics registry. The returned handle is cheap to clone
    /// and every clone records into the same store, so components can keep
    /// one or call through `sim.metrics()` at each site.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of live events currently pending. Cancelled events stop
    /// counting the moment they are cancelled, even though their queue
    /// entries are reclaimed lazily — budget and idle checks see only
    /// work that will actually run.
    pub fn events_pending(&self) -> usize {
        self.live.len()
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.seq += 1;
        self.live.insert(id.0);
        self.queue.push(
            self.now.as_micros(),
            Scheduled {
                at,
                seq: self.seq,
                id,
                run: EventFn::new(f),
            },
        );
        id
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

    /// Runs the next pending event, advancing the clock to its instant.
    /// Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        while let Some(ev) = self.queue.pop(self.now.as_micros()) {
            if !self.live.remove(ev.id.0) {
                // Cancelled after scheduling; its queue entry is reclaimed
                // here, on the instant it would have fired.
                continue;
            }
            debug_assert!(ev.at >= self.now);
            self.now = ev.at;
            self.executed += 1;
            self.fire(ev.run);
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
        while self.step() {
            assert!(
                self.executed - start < 200_000_000,
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

    /// Timestamp of the next non-cancelled pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some((at, id)) = self.queue.peek(self.now.as_micros()) {
            if !self.live.contains(id.0) {
                // Cancelled entry at the head: discard it and look again.
                self.queue.pop(self.now.as_micros());
                continue;
            }
            return Some(at);
        }
        None
    }
}

/// A repeating timer: reschedules itself every `period` until cancelled via
/// the returned handle.
///
/// The callback receives the tick count (starting at 1) and may return
/// `false` to stop the timer from inside.
pub fn every(
    sim: &mut Sim,
    period: SimDuration,
    f: impl FnMut(&mut Sim, u64) -> bool + 'static,
) -> TimerHandle {
    assert!(!period.is_zero(), "timer period must be positive");
    let handle = TimerHandle::new();
    tick(sim, period, f, handle.clone(), 1);
    handle
}

fn tick(
    sim: &mut Sim,
    period: SimDuration,
    mut f: impl FnMut(&mut Sim, u64) -> bool + 'static,
    handle: TimerHandle,
    n: u64,
) {
    sim.schedule_in(period, move |sim| {
        if handle.is_cancelled() {
            return;
        }
        if f(sim, n) {
            tick(sim, period, f, handle, n + 1);
        }
    });
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
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

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
                sim.schedule_in(delay, move |sim| sim.mark("test", "timer", "fired", n));
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
    fn far_future_events_pop_in_order_across_the_overflow_tier() {
        // Delays spanning µs to hours cross the ring window (~4.2 s), so
        // this exercises overflow routing and migration back into the ring.
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let delays_us = [
            3_600_000_000u64, // 1 h — overflow
            5,                // same-slot ties
            10_000_000,       // 10 s — overflow
            5,
            4_194_304, // exactly one window ahead
            999,
            7_200_000_000, // 2 h — overflow
            2_000_000,     // 2 s — ring
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
    fn events_sharing_a_slot_modulo_window_stay_ordered() {
        // Two events whose epochs differ by exactly N_SLOTS map to the
        // same slot index; the second must wait in overflow until the
        // window reaches it, not jump the queue.
        let window_us = (N_SLOTS as u64) << SLOT_WIDTH_LOG2;
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (tag, at) in [("late", 1_000 + window_us), ("early", 1_000)] {
            let order = order.clone();
            sim.schedule_at(SimTime::from_micros(at), move |_| {
                order.borrow_mut().push(tag);
            });
        }
        sim.run_until_idle();
        assert_eq!(*order.borrow(), vec!["early", "late"]);
        assert_eq!(sim.now(), SimTime::from_micros(1_000 + window_us));
    }

    #[test]
    fn cancelled_overflow_event_is_skipped_after_migration() {
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
    fn peek_time_skips_cancelled_heads_in_ring_and_overflow() {
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

    #[test]
    fn a_drained_burst_slot_gives_its_capacity_back() {
        let mut sim = Sim::new(1);
        let at = SimTime::from_micros(5_000);
        let slot = slot_of(epoch_of(at.as_micros()));
        for _ in 0..10_000 {
            sim.schedule_at(at, |_| {});
        }
        assert!(sim.queue.slots[slot].capacity() >= 10_000);
        assert_eq!(sim.run_until_idle(), 10_000);
        assert!(
            sim.queue.slots[slot].capacity() <= SLOT_KEEP,
            "a drained slot kept {} entries of capacity",
            sim.queue.slots[slot].capacity()
        );
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
    }

    #[test]
    fn trace_records_through_sim() {
        let mut sim = Sim::new(1);
        sim.trace_mut().set_enabled(true);
        sim.schedule_in(SimDuration::from_secs(2), |sim| {
            sim.mark("test", 7, "hello", 3);
        });
        sim.run_until_idle();
        let timeline = sim.trace().of(7);
        let mark = timeline.marks().next().unwrap();
        assert_eq!(mark.time, SimTime::from_secs(2));
        assert_eq!((mark.who, mark.what, mark.arg), ("test", "hello", 3));
    }
}
