//! Timers that cost no event while nothing is due.
//!
//! Two pieces, shared by every component that used to poll:
//!
//! * [`Grid`] — the instants a periodic poller acts at. A poller that
//!   *parks* on the event it waits for instead of ticking wakes at the
//!   grid instant its old poll would have acted at, so parking removes
//!   only the polls that could not see a change.
//! * [`DeadlineTimer`] — a resettable one-shot. A Raft follower's election
//!   deadline moves later each time it hears from its leader, and is
//!   drawn afresh on a term or role change. Scheduling a fresh kernel
//!   event per move and letting the superseded one fire as a no-op made
//!   stale election timers a fifth of all events of a quiescent platform.
//!   This timer keeps the deadline as data and at most one armed event:
//!   an event that fires before the deadline re-arms itself at it, only a
//!   deadline moving *before* the armed event replaces the event, and
//!   [`DeadlineTimer::postpone`] moves it later with no event at all — the
//!   way a settled keep-alive (DESIGN.md §5) reaches a follower.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::{EventId, Sim, SimDuration, SimTime};

/// The instants `origin + k·period`, `k ≥ 0`: when a poller started at
/// `origin` with that period polls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    origin: SimTime,
    period: SimDuration,
}

impl Grid {
    /// The grid of a poller started at `origin`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(origin: SimTime, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "grid period must be positive");
        Grid { origin, period }
    }

    /// The first instant of the grid at or after `t`.
    pub fn at_or_after(&self, t: SimTime) -> SimTime {
        let since = t.saturating_duration_since(self.origin).as_micros();
        let period = self.period.as_micros();
        self.origin + SimDuration::from_micros(since.div_ceil(period) * period)
    }

    /// The first instant of the grid strictly after `t`: when a poller
    /// whose poll at or before `t` found nothing polls next.
    pub fn after(&self, t: SimTime) -> SimTime {
        self.at_or_after(t + SimDuration::from_micros(1))
    }
}

#[derive(Default)]
struct State {
    deadline: SimTime,
    /// Instant and id of the one pending kernel event.
    armed: Option<(SimTime, EventId)>,
}

/// Handle to one resettable one-shot timer. Cloning shares it.
#[derive(Clone, Default)]
pub struct DeadlineTimer {
    state: Rc<RefCell<State>>,
}

impl fmt::Debug for DeadlineTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("DeadlineTimer")
            .field("deadline", &st.deadline)
            .field("armed", &st.armed.map(|(at, _)| at))
            .finish()
    }
}

impl DeadlineTimer {
    /// Moves the deadline to `deadline`: `on_due` runs at exactly that
    /// instant unless the timer is set again or cancelled first. When an
    /// event armed for an earlier deadline is still pending, it carries
    /// its own callback on to the new deadline and `on_due` is dropped —
    /// every callback of one timer must therefore do the same thing.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is in the past.
    pub fn set(&self, sim: &mut Sim, deadline: SimTime, on_due: impl FnOnce(&mut Sim) + 'static) {
        let mut st = self.state.borrow_mut();
        st.deadline = deadline;
        match st.armed {
            Some((at, _)) if at <= deadline => return,
            Some((_, too_late)) => {
                sim.cancel(too_late);
            }
            None => {}
        }
        drop(st);
        arm(self.state.clone(), sim, on_due);
    }

    /// Disarms the timer; a pending callback never runs.
    pub fn cancel(&self, sim: &mut Sim) {
        if let Some((_, id)) = self.state.borrow_mut().armed.take() {
            sim.cancel(id);
        }
    }

    /// The instant the pending callback runs at, `None` when nothing is
    /// armed (cancelled, or already fired).
    pub fn deadline(&self) -> Option<SimTime> {
        let st = self.state.borrow();
        st.armed.map(|_| st.deadline)
    }

    /// Moves an armed timer's deadline to `to` if that is later, and
    /// never earlier. Costs no event: the armed one already lies at or
    /// before the old deadline and re-arms itself when it fires. Returns
    /// `false`, changing nothing, when no callback is armed.
    pub fn postpone(&self, to: SimTime) -> bool {
        let mut st = self.state.borrow_mut();
        if st.armed.is_none() {
            return false;
        }
        st.deadline = st.deadline.max(to);
        true
    }
}

/// Schedules the timer's one event at its current deadline.
fn arm(state: Rc<RefCell<State>>, sim: &mut Sim, on_due: impl FnOnce(&mut Sim) + 'static) {
    let at = state.borrow().deadline;
    let st = state.clone();
    let id = sim.schedule_at(at, move |sim| {
        let deadline = {
            let mut s = st.borrow_mut();
            s.armed = None;
            s.deadline
        };
        if sim.now() < deadline {
            arm(st, sim, on_due);
        } else {
            on_due(sim);
        }
    });
    state.borrow_mut().armed = Some((at, id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    #[test]
    fn a_grid_keeps_its_phase() {
        let grid = Grid::new(SimTime::from_millis(300), SimDuration::from_secs(1));
        let at = |ms| grid.at_or_after(SimTime::from_millis(ms)).as_millis();
        let after = |ms| grid.after(SimTime::from_millis(ms)).as_millis();
        assert_eq!(
            [at(0), at(300), at(301), at(1_300)],
            [300, 300, 1_300, 1_300]
        );
        assert_eq!(
            [after(0), after(300), after(1_299), after(1_300)],
            [300, 1_300, 1_300, 2_300]
        );
    }

    /// What the model check drives: the real timer and its reference.
    trait Timer: Clone + Default + 'static {
        fn set(&self, sim: &mut Sim, deadline: SimTime, on_due: Box<dyn FnOnce(&mut Sim)>);
        fn cancel(&self, sim: &mut Sim);
    }

    impl Timer for DeadlineTimer {
        fn set(&self, sim: &mut Sim, deadline: SimTime, on_due: Box<dyn FnOnce(&mut Sim)>) {
            DeadlineTimer::set(self, sim, deadline, on_due);
        }

        fn cancel(&self, sim: &mut Sim) {
            DeadlineTimer::cancel(self, sim);
        }
    }

    /// The timer this one replaced, as the reference: every `set`
    /// schedules an event, a generation counter voids the superseded ones.
    #[derive(Clone, Default)]
    struct EagerTimer {
        gen: Rc<Cell<u64>>,
    }

    impl Timer for EagerTimer {
        fn set(&self, sim: &mut Sim, deadline: SimTime, on_due: Box<dyn FnOnce(&mut Sim)>) {
            self.gen.set(self.gen.get() + 1);
            let (gen, mine) = (self.gen.clone(), self.gen.get());
            sim.schedule_at(deadline, move |sim| {
                if gen.get() == mine {
                    on_due(sim);
                }
            });
        }

        fn cancel(&self, _sim: &mut Sim) {
            self.gen.set(self.gen.get() + 1);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A heartbeat, vote grant, step-down or restart: the node draws a
        /// fresh timeout of this many ms.
        Reset(u64),
        /// The node crashes.
        Crash,
        /// The next timeout finds the node leader (no re-arm) or not (it
        /// starts an election and draws a fresh timeout).
        Leader(bool),
        /// Time passes (µs, so that resets land between the ms grid too).
        Advance(u64),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                6 => (150..300u64).prop_map(Op::Reset),
                1 => Just(Op::Crash),
                1 => any::<bool>().prop_map(Op::Leader),
                6 => (1..120_000u64).prop_map(Op::Advance),
            ],
            1..200,
        )
    }

    /// What a node does when its election timer is due: nothing as
    /// leader; otherwise it starts an election (recorded in `fired`) and
    /// re-arms for a fresh one.
    fn on_due<T: Timer>(
        timer: T,
        leader: Rc<Cell<bool>>,
        fired: Rc<RefCell<Vec<u64>>>,
    ) -> Box<dyn FnOnce(&mut Sim)> {
        Box::new(move |sim| {
            if leader.get() {
                return;
            }
            fired.borrow_mut().push(sim.now().as_micros());
            let again = on_due(timer.clone(), leader, fired);
            timer.set(sim, sim.now() + SimDuration::from_millis(200), again);
        })
    }

    /// Runs `ops` against one timer implementation and returns the
    /// instants (µs) at which an election would have started.
    fn elections<T: Timer>(ops: &[Op]) -> Vec<u64> {
        let mut sim = Sim::new(1);
        let timer = T::default();
        let leader = Rc::new(Cell::new(false));
        let fired = Rc::new(RefCell::new(Vec::new()));
        for op in ops {
            match op {
                Op::Reset(ms) => {
                    let at = sim.now() + SimDuration::from_millis(*ms);
                    let due = on_due(timer.clone(), leader.clone(), fired.clone());
                    timer.set(&mut sim, at, due);
                }
                Op::Crash => timer.cancel(&mut sim),
                Op::Leader(l) => leader.set(*l),
                Op::Advance(us) => {
                    sim.run_for(SimDuration::from_micros(*us));
                }
            }
        }
        sim.run_for(SimDuration::from_secs(1));
        let fired = fired.borrow().clone();
        fired
    }

    proptest! {
        // Under any interleaving of heartbeats, crashes, restarts and
        // leadership changes, the deadline timer starts elections at
        // exactly the instants the event-per-reset timer did.
        #[test]
        fn fires_exactly_when_the_eager_timer_would(ops in ops()) {
            prop_assert_eq!(elections::<EagerTimer>(&ops), elections::<DeadlineTimer>(&ops));
        }
    }

    #[test]
    fn a_reset_costs_no_event_unless_the_deadline_moves_earlier() {
        let mut sim = Sim::new(1);
        let timer = DeadlineTimer::default();
        let fired = Rc::new(Cell::new(0u32));
        for _ in 0..100 {
            let f = fired.clone();
            let at = sim.now() + SimDuration::from_millis(200);
            timer.set(&mut sim, at, move |_| f.set(f.get() + 1));
            sim.run_for(SimDuration::from_millis(50));
        }
        // 5 s of heartbeats: the armed event hops from its instant to the
        // then-current deadline (150 ms on) instead of one event per reset.
        assert_eq!(sim.events_executed(), 33);
        assert_eq!(fired.get(), 0);
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn a_postponed_deadline_is_read_back_and_costs_no_event() {
        let mut sim = Sim::new(1);
        let timer = DeadlineTimer::default();
        assert!(!timer.postpone(SimTime::from_secs(1)), "nothing armed");
        let fired = Rc::new(Cell::new(None));
        let f = fired.clone();
        timer.set(&mut sim, SimTime::from_millis(100), move |sim| {
            f.set(Some(sim.now()));
        });
        assert!(timer.postpone(SimTime::from_millis(300)));
        assert!(timer.postpone(SimTime::from_millis(200)), "never earlier");
        assert_eq!(timer.deadline(), Some(SimTime::from_millis(300)));
        assert_eq!(sim.events_pending(), 1);
        sim.run_until_idle();
        assert_eq!(fired.get(), Some(SimTime::from_millis(300)));
        assert_eq!(timer.deadline(), None, "fired");
    }
}
