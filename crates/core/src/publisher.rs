//! One owed write: a value that must reach a store is owed from the
//! moment it is known until the store says it has it — "sent" is not
//! "stored". [`Publisher`] is the one place that debt is kept; DESIGN.md
//! §5 ("Errors dropped on purpose") states the contract: one write in
//! flight, latest value wins, a refused write stays owed, the owner's own
//! period re-offers.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dlaas_sim::{Sim, SimDuration, SimTime};

/// Where a [`Publisher`] sends: whatever can send a value and later say
/// whether the store has it.
pub trait Sink<V>: Sized {
    /// Sends `ack.value`. `ack` is settled once, when the outcome is
    /// known — inside this call if the sink can tell at once.
    fn send(&self, sim: &mut Sim, ack: Ack<V, Self>);
}

/// The write a [`Publisher`] has in flight, handed to its [`Sink`].
pub struct Ack<V, S> {
    publisher: Rc<Publisher<V, S>>,
    /// The value being written.
    pub value: V,
    /// When the write was sent.
    pub sent: SimTime,
}

impl<V: Clone + PartialEq + 'static, S: Sink<V> + 'static> Ack<V, S> {
    /// The outcome: the store has the value, or refused it (it stays
    /// owed). Whatever was offered meanwhile goes out now; after a refusal
    /// the owner's next offer retries instead.
    pub fn settle(self, sim: &mut Sim, acknowledged: bool) {
        let publisher = self.publisher;
        {
            let mut st = publisher.state.borrow_mut();
            st.busy = false;
            if acknowledged {
                st.published = Some((self.value, self.sent));
            }
        }
        if acknowledged && publisher.alive.get() {
            publisher.flush(sim);
        }
    }
}

/// `urgent` for a value every change of which goes out at once.
pub fn at_once<V>(_was: &V, _now: &V) -> bool {
    true
}

/// Publishes the latest value offered to one sink (see the module docs).
pub struct Publisher<V, S> {
    /// Where the value goes.
    pub sink: S,
    /// Whether going from the published value to the offered one must
    /// not wait out `coalesce`.
    urgent: fn(&V, &V) -> bool,
    coalesce: SimDuration,
    alive: Rc<Cell<bool>>,
    state: RefCell<State<V>>,
}

struct State<V> {
    latest: Option<V>,
    /// The last write the sink acknowledged, and when it was sent.
    published: Option<(V, SimTime)>,
    busy: bool,
}

impl<V: Clone + PartialEq + 'static, S: Sink<V> + 'static> Publisher<V, S> {
    /// A publisher with nothing offered and nothing published. A change
    /// that is not `urgent` waits until `coalesce` has passed since the
    /// last acknowledged write was sent; nothing is sent once `alive` is
    /// false.
    pub fn new(
        sink: S,
        urgent: fn(&V, &V) -> bool,
        coalesce: SimDuration,
        alive: &Rc<Cell<bool>>,
    ) -> Rc<Self> {
        Rc::new(Publisher {
            sink,
            urgent,
            coalesce,
            alive: alive.clone(),
            state: RefCell::new(State {
                latest: None,
                published: None,
                busy: false,
            }),
        })
    }

    /// The latest value offered, if any.
    pub(crate) fn latest(&self) -> Option<V> {
        self.state.borrow().latest.clone()
    }

    /// Whether nothing is in flight.
    pub fn idle(&self) -> bool {
        !self.state.borrow().busy
    }

    /// Whether the latest offer is acknowledged and nothing is in flight.
    pub fn settled(&self) -> bool {
        self.idle() && self.due().is_none()
    }

    /// Takes `value` for acknowledged as of `at`: the store was read and
    /// holds it (a predecessor's write).
    pub fn seed(&self, value: V, at: SimTime) {
        self.state.borrow_mut().published = Some((value, at));
    }

    /// The instant from which an offer of the latest value would send it,
    /// or `None` when there is nothing to send (nothing offered, or the
    /// store has it). An urgent change is due at once
    /// ([`SimTime::ZERO`]), a coalesced one `coalesce` after the last
    /// acknowledged write was sent. Whether a write is in flight does not
    /// enter into it (see [`Publisher::idle`]).
    pub(crate) fn due(&self) -> Option<SimTime> {
        let st = self.state.borrow();
        let latest = st.latest.as_ref()?;
        match &st.published {
            None => Some(SimTime::ZERO),
            Some((was, _)) if was == latest => None,
            Some((was, _)) if (self.urgent)(was, latest) => Some(SimTime::ZERO),
            Some((_, at)) => Some(*at + self.coalesce),
        }
    }

    /// Records the current value and publishes it if due.
    pub fn offer(self: &Rc<Self>, sim: &mut Sim, value: V) {
        self.state.borrow_mut().latest = Some(value);
        self.flush(sim);
    }

    /// Sends the latest offer if it is due and nothing is in flight.
    pub fn flush(self: &Rc<Self>, sim: &mut Sim) {
        if !self.idle() || self.due().is_none_or(|due| due > sim.now()) {
            return;
        }
        let value = {
            let mut st = self.state.borrow_mut();
            let Some(latest) = st.latest.clone() else {
                return;
            };
            st.busy = true;
            latest
        };
        let ack = Ack {
            publisher: self.clone(),
            value,
            sent: sim.now(),
        };
        self.sink.send(sim, ack);
    }
}
