//! `Publisher`'s contract (DESIGN.md §5), against a scripted sink: over
//! random interleavings of offers, acknowledgements, refusals — late or on
//! the spot — flushes and clock advances,
//!
//! * there are never two writes in flight;
//! * what the sink acknowledged is a subsequence of what was offered, in
//!   order — no older value after a newer one;
//! * no write repeats the acknowledged value, and a change that is not
//!   `urgent` waits out `coalesce`;
//! * once the sink is healthy, one more flush leaves the last offer
//!   acknowledged.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dlaas_core::publisher::{Ack, Publisher, Sink};
use dlaas_sim::{Sim, SimDuration, SimTime};
use proptest::prelude::*;

const COALESCE: SimDuration = SimDuration::from_secs(30);

/// A change of decade goes out at once; within a decade it coalesces.
fn urgent(was: &u32, now: &u32) -> bool {
    was / 10 != now / 10
}

/// What the sink saw and holds, shared with the test.
#[derive(Default)]
struct Wire {
    in_flight: RefCell<Option<Ack<u32, Scripted>>>,
    /// While set, a write is refused inside `send`.
    down: Cell<bool>,
    /// Every acknowledged write: its value and when it was sent.
    acknowledged: RefCell<Vec<(u32, SimTime)>>,
}

struct Scripted(Rc<Wire>);

impl Sink<u32> for Scripted {
    fn send(&self, sim: &mut Sim, ack: Ack<u32, Self>) {
        let wire = &self.0;
        assert!(wire.in_flight.borrow().is_none(), "two writes in flight");
        if let Some((was, at)) = wire.acknowledged.borrow().last() {
            assert_ne!(*was, ack.value, "the acknowledged value was sent again");
            assert!(
                urgent(was, &ack.value) || ack.sent.saturating_duration_since(*at) >= COALESCE,
                "{was} -> {} is not urgent and went out {:?} after {at:?}",
                ack.value,
                ack.sent
            );
        }
        if wire.down.get() {
            return ack.settle(sim, false);
        }
        *wire.in_flight.borrow_mut() = Some(ack);
    }
}

impl Wire {
    /// Settles the write in flight, if any.
    fn settle(&self, sim: &mut Sim, acknowledged: bool) {
        let Some(ack) = self.in_flight.borrow_mut().take() else {
            return;
        };
        if acknowledged {
            self.acknowledged.borrow_mut().push((ack.value, ack.sent));
        }
        ack.settle(sim, acknowledged);
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Offer a value `step` above the last one offered (0: the same again).
    Offer {
        step: u32,
    },
    Settle {
        acknowledged: bool,
    },
    Down {
        down: bool,
    },
    Flush,
    Advance {
        secs: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..12u32).prop_map(|step| Op::Offer { step }),
        4 => any::<bool>().prop_map(|acknowledged| Op::Settle { acknowledged }),
        1 => any::<bool>().prop_map(|down| Op::Down { down }),
        2 => Just(Op::Flush),
        3 => (1..40u64).prop_map(|secs| Op::Advance { secs }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn one_in_flight_in_order_and_the_last_offer_lands(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let mut sim = Sim::new(7);
        let wire = Rc::new(Wire::default());
        let alive = Rc::new(Cell::new(true));
        let publisher = Publisher::new(Scripted(wire.clone()), urgent, COALESCE, &alive);
        let mut offered: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                Op::Offer { step } => {
                    let value = offered.last().copied().unwrap_or(0) + step;
                    offered.push(value);
                    publisher.offer(&mut sim, value);
                }
                Op::Settle { acknowledged } => wire.settle(&mut sim, acknowledged),
                Op::Down { down } => wire.down.set(down),
                Op::Flush => publisher.flush(&mut sim),
                Op::Advance { secs } => {
                    sim.run_for(SimDuration::from_secs(secs));
                }
            }
            prop_assert_eq!(publisher.idle(), wire.in_flight.borrow().is_none());
        }

        // The sink is healthy again and a coalescing period passes: what is
        // in flight lands, and one more flush (and its acknowledgement)
        // leaves the last offer acknowledged.
        wire.down.set(false);
        wire.settle(&mut sim, true);
        wire.settle(&mut sim, true);
        sim.run_for(COALESCE);
        publisher.flush(&mut sim);
        wire.settle(&mut sim, true);
        prop_assert!(publisher.settled());
        let acknowledged: Vec<u32> = wire.acknowledged.borrow().iter().map(|(v, _)| *v).collect();
        prop_assert_eq!(acknowledged.last(), offered.last());

        // Offers never decrease, so "a subsequence, in order" is: every
        // acknowledged value was offered, and none is below its predecessor.
        prop_assert!(acknowledged.windows(2).all(|w| w[0] < w[1]), "{:?}", acknowledged);
        prop_assert!(acknowledged.iter().all(|v| offered.contains(v)));
    }
}
