//! The reference kernel: a fixed piece of work, owned by the benchmark,
//! that is interleaved with the code under test so that host time can be
//! reported *relative to it*.
//!
//! Why: on the sandbox the same seeded simulation takes anything from
//! 2.6 s to 6.2 s of CPU time from one repetition to the next, because
//! the host speeds up and slows down — over tens of seconds, and again
//! within tens of milliseconds. Longer runs, min-of-k and CPU-instead-of-
//! wall time do not remove that; dividing by how slow a fixed kernel ran
//! *in the same seconds* removes most of it (README, "Noise").
//!
//! Every host-time metric is therefore
//!
//! ```text
//! x_s = cpu_s(x) / slowdown ^ REF_SENSITIVITY
//! slowdown = cpu_ns(reference events interleaved with x)
//!            / (their count × REF_NOMINAL_NS_PER_EVENT)
//! ```
//!
//! The kernel calls no `dlaas-*` code, so no change to the program can
//! move the ruler. It is shaped like the program so that it suffers the
//! same contention: a toy event loop of boxed closures in a binary heap,
//! `BTreeMap<String, String>` churn with freshly formatted keys and
//! values, and random touches over a 32 MiB arena (larger than the
//! core's private caches).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Nominal CPU nanoseconds per toy event: what the sandbox the benchmark
/// was defined on needs when it is quiet, run in the short bursts the
/// harness uses. Frozen: changing it rescales every host-time metric,
/// which is a change of ruler, not of the program.
pub const REF_NOMINAL_NS_PER_EVENT: f64 = 1_800.0;

/// How much more the program slows down than the kernel does when the
/// host is contended, as an exponent: the program's larger footprint
/// loses more of the shared cache than the kernel's does. Regressing log
/// program time on log kernel time over two sets of ten runs per workload
/// gave slopes of 1.31 (`steady`), 1.28 (`quiescent`), 1.53 (`burst`) and
/// 1.48 (`chaos`); single sittings gave anything from 0.7 to 2.1, so the
/// exponent is a calibration of this sandbox, not a law. At 1.4 the
/// run-to-run spread of `host_s` is smallest on three of the four
/// workloads and about a quarter below what a plain ratio leaves. Frozen.
pub const REF_SENSITIVITY: f64 = 1.4;

/// Arena touches and table operations per toy event.
const TOUCHES: u32 = 2;

const ARENA_WORDS: usize = 4 << 20; // 4 Mi × 8 B = 32 MiB
const ACTORS: u64 = 20_000;
const KEY_SPACE: u64 = 1 << 16;

type Action = Box<dyn FnOnce(&mut State)>;

struct Event {
    at: u64,
    seq: u64,
    action: Action,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed: `BinaryHeap` is a max-heap and the loop wants the
    // earliest (time, sequence) first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct State {
    now: u64,
    rng: u64,
    arena: Vec<u64>,
    table: BTreeMap<String, String>,
    spawned: Vec<(u64, Action)>,
    checksum: u64,
}

impl State {
    fn next(&mut self) -> u64 {
        // xorshift64*: small, fast, and independent of the program's rng.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn actor(st: &mut State, id: u64, payload: [u64; 3]) {
    let r = st.next();
    for k in 0..TOUCHES {
        let idx = (r.rotate_left(k * 16) as usize) % ARENA_WORDS;
        st.arena[idx] = st.arena[idx].wrapping_add(payload[k as usize % 3] ^ id);
        st.checksum ^= st.arena[idx];
    }
    let key = format!("jobs/j{:05}/learners/{}", st.next() % KEY_SPACE, id % 4);
    if st.table.remove(&key).is_none() {
        st.table
            .insert(key, format!("PROCESSING iter={}", r % 100_000));
    }
    let delay = 1 + st.next() % 1_000;
    let at = st.now + delay;
    let next_payload = [payload[1], payload[2], r];
    st.spawned
        .push((at, Box::new(move |st| actor(st, id, next_payload))));
}

/// The reference kernel. Built once per process; its state carries over
/// from burst to burst so each runs against a steady-state heap and table.
pub struct RefKernel {
    heap: BinaryHeap<Event>,
    seq: u64,
    state: State,
}

impl RefKernel {
    pub fn new() -> Self {
        let mut k = RefKernel {
            heap: BinaryHeap::new(),
            seq: 0,
            state: State {
                now: 0,
                rng: 0x9E37_79B9_7F4A_7C15,
                arena: vec![1; ARENA_WORDS],
                table: BTreeMap::new(),
                spawned: Vec::new(),
                checksum: 0,
            },
        };
        for id in 0..ACTORS {
            let payload = [id, id.wrapping_mul(31), id.wrapping_mul(131)];
            k.push(id % 1_000, Box::new(move |st| actor(st, id, payload)));
        }
        // Untimed: page in the arena and bring the table to its
        // steady-state size before anything is measured against it.
        k.run(200_000);
        k
    }

    fn push(&mut self, at: u64, action: Action) {
        self.seq += 1;
        self.heap.push(Event {
            at,
            seq: self.seq,
            action,
        });
    }

    /// Runs `events` toy events and returns a checksum (pass it through
    /// `black_box`).
    pub fn run(&mut self, events: u64) -> u64 {
        for _ in 0..events {
            let Some(ev) = self.heap.pop() else { break };
            self.state.now = ev.at;
            (ev.action)(&mut self.state);
            while let Some((at, action)) = self.state.spawned.pop() {
                self.push(at, action);
            }
        }
        self.state.checksum
    }
}
