//! Property-based model checking of leases.
//!
//! The first block checks the replicated half: random interleavings of
//! grant / revoke / leased writes applied to two independent replicas
//! must leave identical states. Raft guarantees every node applies
//! the same command sequence; these properties guarantee that a same
//! sequence produces the same store — together they are why leases
//! survive leader failover. It also checks the lease bookkeeping
//! invariants that the LCM's shard-ownership protocol leans on.
//!
//! The rest checks the leader's lessor on a live cluster, where deadlines
//! live and renewals are answered after a ReadIndex round: under leader
//! crashes, restarts and partitions, only a confirmed leader answers a
//! renewal, only after its term's no-op (so every older-term entry) has
//! applied, a holder's fence is never later than a revoke of its lease
//! applies anywhere, and the sweep revokes when a polling sweep would.

use dlaas_etcd::{ApplyOutcome, KvCommand, KvOp, KvState, LeaseId};
use proptest::prelude::*;

/// One abstract operation. Lease-naming ops pick from the leases the
/// sequence has granted so far (`ix` modulo granted-count), plus one
/// always-invalid id to cover the revoked/unknown path.
#[derive(Debug, Clone)]
enum Op {
    Grant {
        ttl_us: u64,
    },
    Revoke {
        ix: u8,
    },
    PutLeased {
        key: u8,
        ix: u8,
    },
    /// The shard-owner claim shape: CAS expect-absent, bound to a lease.
    CasClaim {
        key: u8,
        ix: u8,
    },
    Delete {
        key: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1_000..50_000u64).prop_map(|ttl_us| Op::Grant { ttl_us }),
        3 => any::<u8>().prop_map(|ix| Op::Revoke { ix }),
        4 => (0..12u8, any::<u8>()).prop_map(|(key, ix)| Op::PutLeased { key, ix }),
        4 => (0..12u8, any::<u8>()).prop_map(|(key, ix)| Op::CasClaim { key, ix }),
        2 => (0..12u8).prop_map(|key| Op::Delete { key }),
    ]
}

/// Resolves an abstract lease index against the ids granted so far.
/// Index `granted.len()` maps to a deliberately-unknown id.
fn pick_lease(granted: &[LeaseId], ix: u8) -> LeaseId {
    let slot = ix as usize % (granted.len() + 1);
    granted.get(slot).copied().unwrap_or(u64::MAX)
}

/// Applies one abstract op, recording any granted lease id.
fn apply_op(state: &mut KvState, granted: &mut Vec<LeaseId>, op: &Op) -> ApplyOutcome {
    let kv_op = match op {
        Op::Grant { ttl_us } => KvOp::LeaseGrant { ttl_us: *ttl_us },
        Op::Revoke { ix } => KvOp::LeaseRevoke {
            id: pick_lease(granted, *ix),
        },
        Op::PutLeased { key, ix } => KvOp::Put {
            key: format!("k/{key}"),
            value: format!("v{key}"),
            lease: Some(pick_lease(granted, *ix)),
        },
        Op::CasClaim { key, ix } => KvOp::Cas {
            key: format!("k/{key}"),
            expect: None,
            value: Some("owner".into()),
            lease: Some(pick_lease(granted, *ix)),
        },
        Op::Delete { key } => KvOp::Delete {
            key: format!("k/{key}"),
        },
    };
    let out = state.apply(&KvCommand {
        req_id: 0,
        op: kv_op,
    });
    if let Some(id) = out.lease {
        granted.push(id);
    }
    out
}

/// Every key naming a lease must be in that lease's key set, and every
/// lease's key set must point back at live keys naming it — the
/// bidirectional bookkeeping revoke-driven deletion depends on.
fn check_lease_bookkeeping(state: &KvState) {
    for (key, _) in state.get_prefix("") {
        if let Some(lease) = state.get(&key).and_then(|v| v.lease) {
            let rec = state
                .lease(lease)
                .unwrap_or_else(|| panic!("{key} names dead lease {lease}"));
            assert!(rec.keys.contains(&key), "{key} missing from lease {lease}");
        }
    }
    for (id, rec) in state.leases() {
        for key in &rec.keys {
            let v = state
                .get(key)
                .unwrap_or_else(|| panic!("lease {id} tracks ghost key {key}"));
            assert_eq!(v.lease, Some(*id), "lease {id} tracks foreign key {key}");
        }
    }
}

proptest! {
    // Two replicas fed the same command sequence end identical: same
    // state, same per-command outcomes (success flags, revisions, events,
    // allocated lease ids). Lease ids are allocated at apply time from
    // replicated state, so they never diverge.
    #[test]
    fn replicas_converge_on_any_interleaving(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut a = KvState::new();
        let mut b = KvState::new();
        let mut granted_a = Vec::new();
        let mut granted_b = Vec::new();
        for op in &ops {
            let out_a = apply_op(&mut a, &mut granted_a, op);
            let out_b = apply_op(&mut b, &mut granted_b, op);
            prop_assert_eq!(out_a, out_b, "outcome diverged on {:?}", op);
        }
        prop_assert_eq!(granted_a, granted_b);
        prop_assert_eq!(&a, &b);
    }

    // After any sequence the lease/key bookkeeping is bidirectionally
    // consistent.
    #[test]
    fn bookkeeping_survives_any_interleaving(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let mut state = KvState::new();
        let mut granted = Vec::new();
        for op in &ops {
            apply_op(&mut state, &mut granted, op);
            check_lease_bookkeeping(&state);
        }
    }
}

/// One full lease lifecycle on a live 3-node cluster: grant, a claimed
/// owner key, keepalives, a leader crash mid-lease, then expiry after
/// the keepalives stop. Returns every surviving node's store.
fn failover_lifecycle(seed: u64) -> Vec<KvState> {
    use dlaas_etcd::EtcdCluster;
    use dlaas_sim::{Sim, SimDuration};

    let mut sim = Sim::new(seed);
    let etcd = EtcdCluster::new_3way(&mut sim);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    sim.run_for(SimDuration::from_secs(1));

    let client = etcd.client("model");
    let granted = std::rc::Rc::new(std::cell::RefCell::new(None));
    let g = granted.clone();
    client.lease_grant(&mut sim, SimDuration::from_secs(8), move |_s, r| {
        *g.borrow_mut() = Some(r);
    });
    sim.run_for(SimDuration::from_secs(1));
    let id = granted.borrow().clone().expect("grant settled").unwrap();
    client.cas_with_lease(
        &mut sim,
        "lcm/shards/001",
        None,
        Some("lcm-0".into()),
        Some(id),
        |_s, _r| {},
    );
    for _ in 0..3 {
        sim.run_for(SimDuration::from_secs(2));
        client.lease_keepalive(&mut sim, id, |_s, _r| {});
    }

    // Leader crash mid-lease; keepalives stop; the new leader's sweep
    // must expire the lease one TTL after its promotion.
    let old_leader = etcd.leader_id().expect("leader");
    etcd.crash(&mut sim, old_leader);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(30));
    sim.run_for(SimDuration::from_secs(20));

    (0..etcd.len() as u32)
        .filter(|&n| n != old_leader)
        .map(|n| etcd.kv_snapshot(n))
        .collect()
}

/// Same seed, same store — on every surviving node, across independent
/// runs. The expiry order (sweep → revoke → key deletes) is part of the
/// replicated history, so nothing about failover may depend on
/// wall-clock or map iteration order.
#[test]
fn failover_expiry_is_byte_identical_per_seed() {
    for seed in [61, 62, 63] {
        let a = failover_lifecycle(seed);
        let b = failover_lifecycle(seed);
        assert_eq!(a, b, "seed {seed}: reruns diverged");
        for w in a.windows(2) {
            assert_eq!(w[0], w[1], "seed {seed}: replicas diverged");
        }
        assert!(!a.is_empty());
    }
}

/// What the world does to a 3-node cluster and one lease holder.
#[derive(Debug, Clone)]
enum ClusterOp {
    /// The holder asks for a lease with this TTL (ms).
    Grant(u64),
    /// The holder renews one of its leases.
    KeepAlive(u8),
    /// A renewal of one of the leases sent to every member at once, past
    /// the client's leader discovery.
    Probe(u8),
    /// A probe of the lease the leader's sweep revokes next, sent just
    /// after the sweep proposed the revoke.
    ProbeAtExpiry,
    /// The holder gives one of its leases back.
    Revoke(u8),
    /// The current leader crashes.
    CrashLeader,
    /// Every crashed node restarts.
    RestartAll,
    /// The current leader is cut off from its peers for this many ms.
    IsolateLeader(u64),
    /// Time passes (µs: requests land between grid instants too).
    Advance(u64),
}

fn cluster_op() -> impl Strategy<Value = ClusterOp> {
    prop_oneof![
        3 => (600..4_000u64).prop_map(ClusterOp::Grant),
        4 => any::<u8>().prop_map(ClusterOp::KeepAlive),
        3 => any::<u8>().prop_map(ClusterOp::Probe),
        1 => Just(ClusterOp::ProbeAtExpiry),
        1 => any::<u8>().prop_map(ClusterOp::Revoke),
        1 => Just(ClusterOp::CrashLeader),
        1 => Just(ClusterOp::RestartAll),
        1 => (300..4_000u64).prop_map(ClusterOp::IsolateLeader),
        6 => (1..3_000_000u64).prop_map(ClusterOp::Advance),
    ]
}

/// `(µs, member, lease)`: a member did something to a lease.
type LeaseMark = (u64, u32, LeaseId);

/// One renewal answered as a lease: `(member, lease, sent µs, answered
/// µs, alive)`.
type Answer = (u32, LeaseId, u64, u64, bool);

/// One renewal sent to one member: `(member, lease, sent µs, TTL µs)`.
type Probe = (u32, LeaseId, u64, u64);

/// What a run did.
#[derive(Debug, Default)]
struct History {
    /// The leader sweeps' revoke proposals (`lease-expired` marks).
    expired: Vec<LeaseMark>,
    /// What the every-`LEASE_SWEEP_PERIOD` sweep they replaced would have
    /// proposed: each expired lease of every leader's lessor.
    polled: Vec<LeaseMark>,
    /// Every application of a revoke of a live lease, on any member.
    revoked: Vec<LeaseMark>,
    /// The holder's fence per lease: the latest send instant plus TTL of
    /// a grant or renewal it saw acknowledged alive (µs).
    fences: std::collections::BTreeMap<LeaseId, u64>,
    /// Leases the holder revoked itself (its fence does not bind those).
    given_back: Vec<LeaseId>,
    /// Every renewal answered with a lease (not `NotLeader`).
    answers: Vec<Answer>,
    /// `(µs, member, term)` of each Raft `leader` mark.
    elected: Vec<LeaseMark>,
    /// `(µs, member, term)` of each lessor promotion.
    promoted: Vec<LeaseMark>,
    /// `(µs, member)` of each crash.
    crashed: Vec<(u64, u32)>,
}

/// Drives a cluster and one lease holder through `ops` and returns what
/// happened.
fn drive(ops: &[ClusterOp]) -> History {
    use dlaas_etcd::{etcd_addr, EtcdCluster, EtcdRequest, EtcdResponse, LEASE_SWEEP_PERIOD};
    use dlaas_net::{Addr, RpcFrame};
    use dlaas_raft::raft_addr;
    use dlaas_sim::{Sim, SimDuration, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut sim = Sim::new(7);
    sim.trace_mut().set_enabled(true);
    let etcd = Rc::new(EtcdCluster::new_3way(&mut sim));
    let history: Rc<RefCell<History>> = Rc::default();
    let (cluster, seen) = (etcd.clone(), history.clone());
    dlaas_sim::every(&mut sim, LEASE_SWEEP_PERIOD, move |sim, _| {
        let now = sim.now();
        for id in 0..cluster.len() as u32 {
            let expired = cluster.lease_deadlines(id).into_iter();
            seen.borrow_mut().polled.extend(
                expired
                    .filter(|(_, deadline)| *deadline <= now)
                    .map(|(lease, _)| (now.as_micros(), id, lease)),
            );
        }
        true
    });
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));

    // The holder's leases with their TTL (µs), and what moves a fence.
    let granted: Rc<RefCell<Vec<(LeaseId, u64)>>> = Rc::default();
    let fenced = |history: &Rc<RefCell<History>>, lease: LeaseId, fence: u64| {
        let mut h = history.borrow_mut();
        let f = h.fences.entry(lease).or_default();
        *f = (*f).max(fence);
    };

    // Renewals sent to one member each, answered as their server answers;
    // one acknowledged alive moves the fence as the holder's own do.
    let probe = Addr::new("probe");
    let probes: Rc<RefCell<Vec<Probe>>> = Rc::default();
    let (sent, seen) = (probes.clone(), history.clone());
    etcd.rpc().net().register(probe.clone(), move |_sim, env| {
        let RpcFrame::Response { id, resp } = env.msg else {
            return;
        };
        let (member, lease, at, ttl) = sent.borrow()[id as usize];
        if let Ok(EtcdResponse::LeaseKept { alive, .. }) = resp {
            let answered = env.sent_at.as_micros();
            seen.borrow_mut()
                .answers
                .push((member, lease, at, answered, alive));
            if alive {
                fenced(&seen, lease, at + ttl);
            }
        }
    });

    let send_probes = |sim: &mut Sim, lease: LeaseId, ttl: u64| {
        let now = sim.now().as_micros();
        for member in 0..etcd.len() as u32 {
            let id = probes.borrow().len() as u64;
            probes.borrow_mut().push((member, lease, now, ttl));
            let req = Rc::new(EtcdRequest::LeaseKeepAlive { id: lease });
            let frame = RpcFrame::Request { id, req };
            etcd.rpc()
                .net()
                .send(sim, probe.clone(), etcd_addr(member), frame);
        }
    };

    let holder = etcd.client("holder");
    let mut crashed = Vec::new();
    let pick = |ix: u8| {
        let granted = granted.borrow();
        (!granted.is_empty()).then(|| granted[ix as usize % granted.len()])
    };
    for op in ops {
        let now = sim.now().as_micros();
        match op {
            ClusterOp::Grant(ms) => {
                let (granted, history) = (granted.clone(), history.clone());
                let ttl = SimDuration::from_millis(*ms);
                holder.lease_grant(&mut sim, ttl, move |_sim, r| {
                    if let Ok(lease) = r {
                        granted.borrow_mut().push((lease, ttl.as_micros()));
                        fenced(&history, lease, now + ttl.as_micros());
                    }
                });
            }
            ClusterOp::KeepAlive(ix) => {
                if let Some((lease, ttl)) = pick(*ix) {
                    let history = history.clone();
                    holder.lease_keepalive(&mut sim, lease, move |_sim, r| {
                        if r == Ok(true) {
                            fenced(&history, lease, now + ttl);
                        }
                    });
                }
            }
            ClusterOp::Probe(ix) => {
                if let Some((lease, ttl)) = pick(*ix) {
                    send_probes(&mut sim, lease, ttl);
                }
            }
            ClusterOp::ProbeAtExpiry => {
                let leader = etcd.leader_id();
                let next = leader.and_then(|l| {
                    let deadlines = etcd.lease_deadlines(l);
                    deadlines.into_iter().min_by_key(|(_, deadline)| *deadline)
                });
                let ttl = next.and_then(|(lease, _)| {
                    let granted = granted.borrow();
                    granted
                        .iter()
                        .find(|(id, _)| *id == lease)
                        .map(|(_, ttl)| *ttl)
                });
                if let (Some((lease, deadline)), Some(ttl)) = (next, ttl) {
                    // The sweep's grid runs from boot.
                    let grid = LEASE_SWEEP_PERIOD.as_micros();
                    let swept = deadline.as_micros().div_ceil(grid) * grid;
                    let at = SimTime::from_micros(swept + 1).max(sim.now());
                    sim.run_until(at);
                    send_probes(&mut sim, lease, ttl);
                }
            }
            ClusterOp::Revoke(ix) => {
                if let Some((lease, _)) = pick(*ix) {
                    history.borrow_mut().given_back.push(lease);
                    holder.lease_revoke(&mut sim, lease, |_sim, _r| {});
                }
            }
            ClusterOp::CrashLeader => {
                if let Some(leader) = etcd.leader_id() {
                    if !crashed.contains(&leader) {
                        etcd.crash(&mut sim, leader);
                        crashed.push(leader);
                    }
                }
            }
            ClusterOp::RestartAll => {
                for id in crashed.drain(..) {
                    etcd.restart(&mut sim, id);
                }
            }
            ClusterOp::IsolateLeader(ms) => {
                if let Some(leader) = etcd.leader_id() {
                    let peers = (0..etcd.len() as u32)
                        .filter(|&i| i != leader)
                        .map(raft_addr)
                        .collect();
                    dlaas_faults::partition_window(
                        &mut sim,
                        etcd.raft().net(),
                        vec![vec![raft_addr(leader)], peers],
                        SimDuration::from_millis(*ms),
                    );
                }
            }
            ClusterOp::Advance(us) => {
                sim.run_for(SimDuration::from_micros(*us));
            }
        }
    }
    for id in crashed.drain(..) {
        etcd.restart(&mut sim, id);
    }
    sim.run_for(SimDuration::from_secs(10));
    // Every probe settled one way or another by now.
    etcd.rpc().net().unregister(&probe);

    let mut h = history.take();
    for id in 0..etcd.len() as u32 {
        for m in sim.trace().of(id).marks() {
            let at = m.time.as_micros();
            match m.what {
                "lease-expired" => h.expired.push((at, id, m.arg)),
                "lease-revoked" => h.revoked.push((at, id, m.arg)),
                "leader" => h.elected.push((at, id, m.arg)),
                "lessor-promoted" => h.promoted.push((at, id, m.arg)),
                "crashed" => h.crashed.push((at, id)),
                _ => {}
            }
        }
    }
    h.expired.sort_unstable();
    h.polled.sort_unstable();
    h.elected.sort_unstable();
    h
}

/// The term `member` led at `at` (its last `leader` mark before it, not
/// followed by a crash), if it led.
fn term_led(h: &History, member: u32, at: u64) -> Option<u64> {
    let (elected, _, term) = h
        .elected
        .iter()
        .rev()
        .find(|(t, m, _)| *m == member && *t <= at)?;
    let crashed_since = h
        .crashed
        .iter()
        .any(|(t, m)| *m == member && t >= elected && *t <= at);
    (!crashed_since).then_some(*term)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    // The parked sweep — one event at the grid instant of the leader's
    // earliest deadline, re-armed by every promotion, grant, renewal and
    // revoke — revokes at exactly the instants an every-500-ms sweep of
    // each leader's lessor would, under any interleaving of grants,
    // renewals, revokes, leader crashes, restarts and partitions.
    #[test]
    fn the_parked_sweep_revokes_when_the_polling_sweep_did(
        ops in proptest::collection::vec(cluster_op(), 1..60),
    ) {
        let h = drive(&ops);
        prop_assert_eq!(h.expired, h.polled);
    }

    // Only a confirmed leader answers a renewal: the member led the term
    // it answered in, and no later term had a leader when the renewal
    // was sent — a leader deposed by then, or cut off from its peers,
    // cannot gather the quorum its ReadIndex round needs.
    #[test]
    fn only_a_confirmed_leader_answers_a_renewal(
        ops in proptest::collection::vec(cluster_op(), 1..60),
    ) {
        let h = drive(&ops);
        for &(member, lease, sent, answered, _) in &h.answers {
            let term = term_led(&h, member, answered);
            prop_assert!(term.is_some(), "member {} answered a renewal of {} at {} µs without leading", member, lease, answered);
            let term = term.unwrap_or_default();
            let newer = h.elected.iter().find(|(t, _, tm)| *tm > term && *t < sent);
            prop_assert!(
                newer.is_none(),
                "member {} answered for term {} a renewal sent at {} µs, after {:?} was elected",
                member, term, sent, newer
            );
        }
    }

    // A new leader answers a renewal only once its lessor was promoted,
    // which happens when its term's no-op applies: every entry of an
    // older term — every revoke an older leader proposed — has applied
    // before it.
    #[test]
    fn a_new_leader_renews_only_after_every_older_entry_applied(
        ops in proptest::collection::vec(cluster_op(), 1..60),
    ) {
        let h = drive(&ops);
        for &(member, lease, _, answered, _) in &h.answers {
            let term = term_led(&h, member, answered).unwrap_or_default();
            let promoted = h
                .promoted
                .iter()
                .any(|&(t, m, tm)| m == member && tm == term && t <= answered);
            prop_assert!(
                promoted,
                "member {} answered a renewal of {} at {} µs before its term {} lessor",
                member, lease, answered, term
            );
        }
    }

    // The holder's fence — the send instant plus TTL of the last grant or
    // renewal it saw acknowledged — is never later than the instant any
    // member applies a revoke of its lease, under leader crashes,
    // restarts and partitions: a holder that stops at its fence never
    // overlaps the lease's next owner.
    #[test]
    fn a_holder_is_fenced_before_any_member_applies_a_revoke(
        ops in proptest::collection::vec(cluster_op(), 1..60),
    ) {
        let h = drive(&ops);
        for &(at, member, lease) in &h.revoked {
            if h.given_back.contains(&lease) {
                continue;
            }
            let fence = h.fences.get(&lease).copied().unwrap_or_default();
            prop_assert!(
                fence <= at,
                "member {} applied a revoke of lease {} at {} µs, before its holder's fence at {} µs",
                member, lease, at, fence
            );
        }
    }
}
