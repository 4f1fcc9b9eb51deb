//! What a watcher observes of the committed history.
//!
//! The member that leads when it applies a committed change notifies the
//! watchers registered there; the client keeps a registration on every
//! member and opens it again where a restart broke it. Under random puts,
//! member crashes and restarts, Raft partitions and `rewatch` calls:
//!
//! - every put acknowledged under the watched prefix reaches the watcher
//!   at least once, and nothing outside the prefix does;
//! - no member incarnation — one watch stream — delivers the same event
//!   twice (a new leader that applies an older-term entry again may
//!   repeat it: at-least-once, as the Guardian absorbs).
//!
//! The watcher notices a member's restart at once, as a broken stream is
//! noticed (`rewatch` right after it); `a_client_that_never_rewatches_*`
//! checks the lazy path, a client that learns of the restart only from its
//! next reply.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use dlaas_etcd::{etcd_addr, EtcdCluster, KvEvent};
use dlaas_raft::raft_addr;
use dlaas_sim::{Sim, SimDuration};
use proptest::prelude::*;

const MEMBERS: u32 = 3;

#[derive(Debug, Clone)]
enum Op {
    /// The writer puts key `k` under the watched prefix, or outside it.
    Put(u8, bool),
    /// Member `i` crashes (if it is up).
    Crash(u8),
    /// The current leader crashes.
    CrashLeader,
    /// Member `i` restarts (if it is down); the watcher notices.
    Restart(u8),
    /// Member `i` is cut off from its peers for this many ms.
    Isolate(u8, u16),
    /// The watcher re-registers where its streams broke.
    Rewatch,
    /// This many µs pass.
    Wait(u32),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => ((0..16u8), any::<bool>()).prop_map(|(k, inside)| Op::Put(k, inside)),
        1 => (0..MEMBERS as u8).prop_map(Op::Crash),
        1 => Just(Op::CrashLeader),
        2 => (0..MEMBERS as u8).prop_map(Op::Restart),
        1 => ((0..MEMBERS as u8), (200..3_000u16)).prop_map(|(i, ms)| Op::Isolate(i, ms)),
        2 => Just(Op::Rewatch),
        4 => (1..2_500_000u32).prop_map(Op::Wait),
    ]
}

/// `(key, revision)` of one put.
type Put = (String, u64);

/// What one run saw.
#[derive(Debug, Default)]
struct Seen {
    /// Puts the writer saw acknowledged, under the prefix or not.
    acked: Vec<(Put, bool)>,
    /// `(member, incarnation, put)` of every put event delivered.
    delivered: Vec<(u32, u64, Put)>,
}

fn run(seed: u64, ops: &[Op]) -> Seen {
    let mut sim = Sim::new(seed);
    let etcd = EtcdCluster::new_3way(&mut sim);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    let watcher = etcd.client("watcher");
    let writer = etcd.client("writer");
    watcher.watch_prefix(&mut sim, "w/", |_sim, _ev| {});

    // Every notification the watcher's address receives, by the member
    // and the incarnation that sent it (the restarts before its sending).
    let restarts: Rc<RefCell<Vec<(u64, u32)>>> = Rc::default();
    let seen: Rc<RefCell<Seen>> = Rc::default();
    let (r, s) = (restarts.clone(), seen.clone());
    etcd.watch_net()
        .register(watcher.addr().clone(), move |_sim, env| {
            let member = (0..MEMBERS)
                .find(|m| etcd_addr(*m) == env.from)
                .expect("notified by a member");
            let sent = env.sent_at.as_micros();
            let incarnation = r
                .borrow()
                .iter()
                .filter(|(at, m)| *m == member && *at <= sent)
                .count() as u64;
            for ev in &env.msg.events {
                if let KvEvent::Put { key, revision, .. } = &**ev {
                    let put = (key.clone(), *revision);
                    s.borrow_mut().delivered.push((member, incarnation, put));
                }
            }
        });
    sim.run_for(SimDuration::from_secs(1));

    let mut down = BTreeSet::new();
    let mut n = 0u32;
    for op in ops {
        match *op {
            Op::Put(k, inside) => {
                n += 1;
                let key = format!("{}/{k}", if inside { "w" } else { "x" });
                let seen = seen.clone();
                let k2 = key.clone();
                writer.put(&mut sim, key, n.to_string(), move |_sim, r| {
                    if let Ok(revision) = r {
                        seen.borrow_mut().acked.push(((k2, revision), inside));
                    }
                });
            }
            Op::Crash(i) => {
                let id = u32::from(i);
                if down.insert(id) {
                    etcd.crash(&mut sim, id);
                }
            }
            Op::CrashLeader => {
                if let Some(id) = etcd.leader_id() {
                    down.insert(id);
                    etcd.crash(&mut sim, id);
                }
            }
            Op::Restart(i) => {
                let id = u32::from(i);
                if down.remove(&id) {
                    etcd.restart(&mut sim, id);
                    restarts.borrow_mut().push((sim.now().as_micros(), id));
                    watcher.rewatch(&mut sim);
                }
            }
            Op::Isolate(i, ms) => {
                let id = u32::from(i);
                let rest = (0..MEMBERS).filter(|m| *m != id).map(raft_addr).collect();
                dlaas_faults::partition_window(
                    &mut sim,
                    etcd.raft().net(),
                    vec![vec![raft_addr(id)], rest],
                    SimDuration::from_millis(ms.into()),
                );
            }
            Op::Rewatch => watcher.rewatch(&mut sim),
            Op::Wait(us) => {
                sim.run_for(SimDuration::from_micros(us.into()));
            }
        }
    }
    // Everyone back, and time for the writer's retries and the last
    // notifications to land.
    for id in std::mem::take(&mut down) {
        etcd.restart(&mut sim, id);
        restarts.borrow_mut().push((sim.now().as_micros(), id));
        watcher.rewatch(&mut sim);
    }
    sim.run_for(SimDuration::from_secs(20));
    seen.take()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn every_acknowledged_put_reaches_the_watcher_once_per_stream(
        seed in 0..u64::MAX,
        ops in proptest::collection::vec(op(), 5..50),
    ) {
        let seen = run(seed, &ops);
        let delivered: BTreeSet<&Put> = seen.delivered.iter().map(|(_, _, put)| put).collect();
        for (put, inside) in &seen.acked {
            prop_assert_eq!(
                delivered.contains(put),
                *inside,
                "put {:?} (watched: {}) delivered: {}",
                put,
                inside,
                delivered.contains(put)
            );
        }
        let mut per_stream: BTreeMap<(u32, u64, &Put), u32> = BTreeMap::new();
        for (member, incarnation, put) in &seen.delivered {
            *per_stream.entry((*member, *incarnation, put)).or_default() += 1;
        }
        let twice = per_stream.iter().find(|(_, n)| **n > 1);
        prop_assert!(twice.is_none(), "one stream delivered an event twice: {:?}", twice);
    }
}

/// A client that never calls `rewatch` — the LCM's — still mends its
/// streams: a reply that names the leader makes it register again on
/// every member whose restart broke its stream.
#[test]
fn a_client_that_never_rewatches_reregisters_on_its_next_reply() {
    let mut sim = Sim::new(5);
    let etcd = EtcdCluster::new_3way(&mut sim);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    let watcher = etcd.client("lcm");
    let writer = etcd.client("writer");
    let count = Rc::new(RefCell::new(0u32));
    let c = count.clone();
    watcher.watch_prefix(&mut sim, "k/", move |_s, _e| *c.borrow_mut() += 1);
    sim.run_for(SimDuration::from_secs(1));

    // Every member restarts: every registration is lost.
    for id in 0..MEMBERS {
        etcd.crash(&mut sim, id);
        sim.run_for(SimDuration::from_secs(2));
        etcd.restart(&mut sim, id);
        sim.run_for(SimDuration::from_secs(2));
    }
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    writer.put(&mut sim, "k/lost", "1", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        *count.borrow(),
        0,
        "registrations were wiped with the cores"
    );

    // One ordinary request; its reply names the leader.
    watcher.get(&mut sim, "k/lost", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(1));
    for id in 0..MEMBERS {
        assert_eq!(
            etcd.core(id).borrow().watch_registrations().len(),
            1,
            "member {id} holds the registration again"
        );
    }
    writer.put(&mut sim, "k/found", "2", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(*count.borrow(), 1, "the leader notifies once");
}
