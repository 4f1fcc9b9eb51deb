//! Property tests of the event kernel — the bedrock every other crate's
//! determinism claims stand on.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_sim::{EventId, Sim, SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum KernelOp {
    /// Schedule an event after this many microseconds carrying a tag.
    Schedule { delay_us: u32, tag: u16 },
    /// Schedule then immediately cancel.
    ScheduleCancelled { delay_us: u32, tag: u16 },
    /// An event that schedules a child event when it fires.
    ScheduleNested {
        delay_us: u32,
        child_us: u32,
        tag: u16,
    },
}

fn op_strategy() -> impl Strategy<Value = KernelOp> {
    prop_oneof![
        4 => (0..1_000_000u32, any::<u16>())
            .prop_map(|(delay_us, tag)| KernelOp::Schedule { delay_us, tag }),
        1 => (0..1_000_000u32, any::<u16>())
            .prop_map(|(delay_us, tag)| KernelOp::ScheduleCancelled { delay_us, tag }),
        2 => (0..1_000_000u32, 0..100_000u32, any::<u16>())
            .prop_map(|(delay_us, child_us, tag)| KernelOp::ScheduleNested {
                delay_us,
                child_us,
                tag
            }),
    ]
}

/// Runs a schedule and returns the `(fire_time_us, tag)` trace.
fn execute(ops: &[KernelOp]) -> Vec<(u64, u16)> {
    let mut sim = Sim::new(0);
    let fired: Rc<RefCell<Vec<(u64, u16)>>> = Rc::new(RefCell::new(Vec::new()));
    for op in ops {
        match *op {
            KernelOp::Schedule { delay_us, tag } => {
                let f = fired.clone();
                sim.schedule_in(SimDuration::from_micros(delay_us as u64), move |sim| {
                    f.borrow_mut().push((sim.now().as_micros(), tag));
                });
            }
            KernelOp::ScheduleCancelled { delay_us, tag } => {
                let f = fired.clone();
                let id = sim.schedule_in(SimDuration::from_micros(delay_us as u64), move |sim| {
                    f.borrow_mut().push((sim.now().as_micros(), tag));
                });
                assert!(sim.cancel(id));
            }
            KernelOp::ScheduleNested {
                delay_us,
                child_us,
                tag,
            } => {
                let f = fired.clone();
                sim.schedule_in(SimDuration::from_micros(delay_us as u64), move |sim| {
                    f.borrow_mut().push((sim.now().as_micros(), tag));
                    let f2 = f.clone();
                    sim.schedule_in(SimDuration::from_micros(child_us as u64), move |sim| {
                        f2.borrow_mut().push((sim.now().as_micros(), tag ^ 0xffff));
                    });
                });
            }
        }
    }
    sim.run_until_idle();
    let v = fired.borrow().clone();
    v
}

/// Ops for the calendar-queue-vs-reference-heap equivalence test:
/// arbitrary interleavings of scheduling (near and far enough to span the
/// ring window and the overflow tier), cancelling ids in any state
/// (live, fired, or already cancelled), and partial runs.
#[derive(Debug, Clone)]
enum QueueOp {
    Schedule { delay_us: u64 },
    CancelNth { n: usize },
    RunSteps { k: usize },
    RunUntilPlus { dt_us: u64 },
}

fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        // Near delays stay inside the ~4.2 s calendar ring window...
        3 => (0..2_000_000u64).prop_map(|delay_us| QueueOp::Schedule { delay_us }),
        // ...far delays land in the overflow tier and migrate back later.
        2 => (4_000_000..40_000_000u64).prop_map(|delay_us| QueueOp::Schedule { delay_us }),
        2 => any::<usize>().prop_map(|n| QueueOp::CancelNth { n }),
        2 => (0..5usize).prop_map(|k| QueueOp::RunSteps { k }),
        1 => (0..10_000_000u64).prop_map(|dt_us| QueueOp::RunUntilPlus { dt_us }),
    ]
}

/// Reference model of the pre-calendar-queue kernel: one globally sorted
/// set ordered by `(at, seq)`. Cancellation removes eagerly, which fires
/// the exact same events in the exact same order as the old
/// `BinaryHeap` + tombstone implementation (tombstones only deferred the
/// removal to pop time) while also modelling the fixed `cancel` /
/// `events_pending` semantics: only queued events can be cancelled, and
/// pending counts live events alone.
#[derive(Default)]
struct RefModel {
    now: u64,
    /// `(at_us, seq, issue_index)` — pop order is iteration order.
    queue: std::collections::BTreeSet<(u64, u64, usize)>,
    seq: u64,
    issued: usize,
    fired: Vec<(u64, usize)>,
}

impl RefModel {
    fn schedule(&mut self, delay_us: u64) -> usize {
        let idx = self.issued;
        self.issued += 1;
        self.seq += 1;
        self.queue.insert((self.now + delay_us, self.seq, idx));
        idx
    }

    fn cancel(&mut self, idx: usize) -> bool {
        let entry = self.queue.iter().find(|&&(_, _, i)| i == idx).copied();
        match entry {
            Some(e) => self.queue.remove(&e),
            None => false,
        }
    }

    fn step(&mut self) -> bool {
        match self.queue.pop_first() {
            Some((at, _, idx)) => {
                self.now = at;
                self.fired.push((at, idx));
                true
            }
            None => false,
        }
    }

    fn run_until(&mut self, deadline: u64) {
        while let Some(&(at, _, _)) = self.queue.first() {
            if at > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    fn run_until_idle(&mut self) {
        while self.step() {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    // The calendar queue is observationally identical to the old global
    // heap: same pop order, same fired set, same cancel verdicts, same
    // live-pending counts, at every point of any interleaving.
    #[test]
    fn calendar_queue_matches_reference_heap(
        ops in proptest::collection::vec(queue_op_strategy(), 1..80),
    ) {
        let mut sim = Sim::new(0);
        let fired: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut ids = Vec::new();
        let mut model = RefModel::default();

        for op in &ops {
            match *op {
                QueueOp::Schedule { delay_us } => {
                    let f = fired.clone();
                    let idx = model.schedule(delay_us);
                    ids.push(sim.schedule_in(
                        SimDuration::from_micros(delay_us),
                        move |sim| f.borrow_mut().push((sim.now().as_micros(), idx)),
                    ));
                }
                QueueOp::CancelNth { n } => {
                    if !ids.is_empty() {
                        let n = n % ids.len();
                        prop_assert_eq!(sim.cancel(ids[n]), model.cancel(n));
                    }
                }
                QueueOp::RunSteps { k } => {
                    for _ in 0..k {
                        prop_assert_eq!(sim.step(), model.step());
                    }
                }
                QueueOp::RunUntilPlus { dt_us } => {
                    let deadline = sim.now() + SimDuration::from_micros(dt_us);
                    sim.run_until(deadline);
                    model.run_until(deadline.as_micros());
                }
            }
            prop_assert_eq!(sim.now().as_micros(), model.now);
            prop_assert_eq!(sim.events_pending(), model.queue.len());
        }
        sim.run_until_idle();
        model.run_until_idle();
        prop_assert_eq!(&*fired.borrow(), &model.fired);
        prop_assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn replay_is_bit_identical(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        prop_assert_eq!(execute(&ops), execute(&ops));
    }

    #[test]
    fn time_never_goes_backwards_and_counts_balance(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let trace = execute(&ops);
        for w in trace.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards: {trace:?}");
        }
        // Exactly the non-cancelled events fire (nested ones fire twice).
        let expected: usize = ops
            .iter()
            .map(|op| match op {
                KernelOp::Schedule { .. } => 1,
                KernelOp::ScheduleCancelled { .. } => 0,
                KernelOp::ScheduleNested { .. } => 2,
            })
            .sum();
        prop_assert_eq!(trace.len(), expected);
    }

    #[test]
    fn run_until_is_equivalent_to_free_running(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        chunk_us in 1_000..500_000u64,
    ) {
        // Stepping the clock in arbitrary chunks must produce the same
        // trace as running to idle in one go.
        let free = execute(&ops);

        let mut sim = Sim::new(0);
        let fired: Rc<RefCell<Vec<(u64, u16)>>> = Rc::new(RefCell::new(Vec::new()));
        for op in &ops {
            match *op {
                KernelOp::Schedule { delay_us, tag } => {
                    let f = fired.clone();
                    sim.schedule_in(SimDuration::from_micros(delay_us as u64), move |sim| {
                        f.borrow_mut().push((sim.now().as_micros(), tag));
                    });
                }
                KernelOp::ScheduleCancelled { delay_us, tag } => {
                    let f = fired.clone();
                    let id = sim.schedule_in(
                        SimDuration::from_micros(delay_us as u64),
                        move |sim| {
                            f.borrow_mut().push((sim.now().as_micros(), tag));
                        },
                    );
                    sim.cancel(id);
                }
                KernelOp::ScheduleNested { delay_us, child_us, tag } => {
                    let f = fired.clone();
                    sim.schedule_in(SimDuration::from_micros(delay_us as u64), move |sim| {
                        f.borrow_mut().push((sim.now().as_micros(), tag));
                        let f2 = f.clone();
                        sim.schedule_in(
                            SimDuration::from_micros(child_us as u64),
                            move |sim| {
                                f2.borrow_mut().push((sim.now().as_micros(), tag ^ 0xffff));
                            },
                        );
                    });
                }
            }
        }
        let mut deadline = SimTime::ZERO;
        // 1.2M us covers delay (≤1M) + nested child (≤100k) comfortably.
        while deadline < SimTime::from_micros(1_200_000) {
            deadline += SimDuration::from_micros(chunk_us);
            sim.run_until(deadline);
        }
        sim.run_until_idle();
        let chunked = fired.borrow().clone();
        prop_assert_eq!(free, chunked);
    }
}

/// One background event of the in-place test: when it fires it logs its
/// tag and, optionally, schedules a child.
#[derive(Debug, Clone)]
struct Background {
    /// Milliseconds from now (coarse, so that many land on a round's
    /// instant and the tie-break decides).
    delay_ms: u8,
    tag: u16,
    child_ms: Option<u8>,
    cancelled: bool,
}

fn background() -> impl Strategy<Value = Background> {
    (0..120u8, any::<u16>(), 0..80u8, 0..8u8).prop_map(|(delay_ms, tag, child_ms, c)| Background {
        delay_ms,
        tag,
        child_ms: (child_ms < 40).then_some(child_ms),
        cancelled: c == 0,
    })
}

/// What the log of either run holds: `(µs, what, id)` — a background
/// event's tag and the id its child got, or a round of the periodic
/// event (tag `None`).
type Entry = (u64, Option<u16>, Option<EventId>);
type Log = Rc<RefCell<Vec<Entry>>>;

/// A periodic event every `period`, run either as queued events or in
/// place; every `decline`-th round in place declines to its event.
struct Periodic {
    log: Log,
    period: SimDuration,
    in_place: bool,
    decline: u64,
    rounds: std::cell::Cell<u64>,
}

impl Periodic {
    fn round(&self, now: SimTime) {
        self.rounds.set(self.rounds.get() + 1);
        self.log.borrow_mut().push((now.as_micros(), None, None));
    }

    fn arm(self: Rc<Self>, sim: &mut Sim, at: SimTime) {
        let me = self.clone();
        let queued = move |sim: &mut Sim| {
            me.round(sim.now());
            let next = sim.now() + me.period;
            me.arm(sim, next);
        };
        if !self.in_place {
            sim.schedule_at(at, queued);
            return;
        }
        let me = self.clone();
        let round = move |now| {
            if me.rounds.get() % me.decline == me.decline - 1 {
                return None;
            }
            me.round(now);
            Some(now + me.period)
        };
        sim.schedule_in_place(at, round, queued);
    }
}

/// Runs `events` around a periodic event for one simulated second;
/// returns the log, and the kernel's count of events plus rounds.
fn with_periodic(
    events: &[Background],
    period_ms: u64,
    decline: u64,
    in_place: bool,
) -> (Vec<Entry>, u64) {
    let mut sim = Sim::new(0);
    let log = Log::default();
    let periodic = Rc::new(Periodic {
        log: log.clone(),
        period: SimDuration::from_millis(period_ms),
        in_place,
        decline,
        rounds: Default::default(),
    });
    let first = SimTime::from_millis(period_ms);
    periodic.clone().arm(&mut sim, first);
    for (i, e) in events.iter().enumerate() {
        let (log, e2) = (log.clone(), e.clone());
        let fire = move |sim: &mut Sim| {
            let child = e2.child_ms.map(|ms| {
                let log = log.clone();
                let tag = e2.tag ^ 0xffff;
                sim.schedule_in(SimDuration::from_millis(u64::from(ms)), move |sim| {
                    log.borrow_mut()
                        .push((sim.now().as_micros(), Some(tag), None));
                })
            });
            log.borrow_mut()
                .push((sim.now().as_micros(), Some(e2.tag), child));
        };
        let delay = SimDuration::from_millis(u64::from(e.delay_ms));
        // Half the events are scheduled mid-run, from inside the world.
        if i % 2 == 0 {
            let id = sim.schedule_in(delay, fire);
            if e.cancelled {
                sim.cancel(id);
            }
        } else {
            let cancelled = e.cancelled;
            sim.schedule_in(SimDuration::from_millis(3), move |sim| {
                let id = sim.schedule_in(delay, fire);
                if cancelled {
                    sim.cancel(id);
                }
            });
        }
    }
    sim.run_until(SimTime::from_secs(1));
    let v = log.borrow().clone();
    (v, sim.events_executed() + sim.rounds_in_place())
}

proptest! {
    // A periodic event whose rounds run in place and decline at random
    // pops every other event in the same order, with the same ids, at the
    // same instants, as the periodic event queued every round; its rounds
    // land at the same instants in the same places among them.
    #[test]
    fn a_round_run_in_place_keeps_every_other_event_where_it_was(
        events in proptest::collection::vec(background(), 0..80),
        period_ms in 1..15u64,
        decline in 2..9u64,
    ) {
        let (queued, all) = with_periodic(&events, period_ms, decline, false);
        let (in_place, all_in_place) = with_periodic(&events, period_ms, decline, true);
        prop_assert_eq!(queued, in_place);
        prop_assert_eq!(all, all_in_place, "every round is an event or a round in place");
    }
}

#[test]
fn rounds_run_in_place_cost_no_event_and_keep_the_world_live() {
    let mut sim = Sim::new(0);
    let n = Rc::new(std::cell::Cell::new(0u32));
    let (m, queued) = (n.clone(), n.clone());
    // A hundred rounds in place, then one that declines to its event.
    let round = move |now: SimTime| {
        (m.get() < 100).then(|| {
            m.set(m.get() + 1);
            now + SimDuration::from_millis(100)
        })
    };
    let event = move |_: &mut Sim| queued.set(queued.get() + 1_000);
    sim.schedule_in_place(SimTime::from_millis(100), round, event);
    assert_eq!(sim.events_pending(), 1, "a reserved slot is pending work");
    assert_eq!(sim.peek_time(), Some(SimTime::from_millis(100)));
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(
        (n.get(), sim.events_executed(), sim.rounds_in_place()),
        (100, 0, 100)
    );
    assert_eq!(
        sim.run_until_idle(),
        1,
        "the declined round ran as its event"
    );
    assert_eq!((n.get(), sim.now()), (1_100, SimTime::from_millis(10_100)));
}
