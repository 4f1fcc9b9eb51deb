//! Property-based model checking of the lease state machine: random
//! interleavings of grant / keepalive / guarded revoke / leased writes
//! applied to two independent replicas must leave byte-identical
//! states. Raft guarantees every node applies the same command
//! sequence; these properties guarantee that a same sequence produces
//! the same store — together they are why leases survive leader
//! failover. A second block checks the lease bookkeeping invariants
//! that the LCM's shard-ownership protocol leans on.

use dlaas_etcd::{ApplyOutcome, KvCommand, KvOp, KvState, LeaseId};
use proptest::prelude::*;

/// One abstract operation. Lease-naming ops pick from the leases the
/// sequence has granted so far (`ix` modulo granted-count), plus one
/// always-invalid id to cover the revoked/unknown path.
#[derive(Debug, Clone)]
enum Op {
    Grant {
        ttl_us: u64,
        now_us: u64,
    },
    KeepAlive {
        ix: u8,
        now_us: u64,
    },
    /// The leader's expiry sweep: only applies past the deadline.
    SweepRevoke {
        ix: u8,
        stamp_us: u64,
    },
    /// An unconditional revoke (client shutdown path).
    HardRevoke {
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
        3 => (1_000..50_000u64, 0..100_000u64)
            .prop_map(|(ttl_us, now_us)| Op::Grant { ttl_us, now_us }),
        4 => (any::<u8>(), 0..200_000u64).prop_map(|(ix, now_us)| Op::KeepAlive { ix, now_us }),
        3 => (any::<u8>(), 0..200_000u64)
            .prop_map(|(ix, stamp_us)| Op::SweepRevoke { ix, stamp_us }),
        1 => any::<u8>().prop_map(|ix| Op::HardRevoke { ix }),
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
        Op::Grant { ttl_us, now_us } => KvOp::LeaseGrant {
            ttl_us: *ttl_us,
            now_us: *now_us,
        },
        Op::KeepAlive { ix, now_us } => KvOp::LeaseKeepAlive {
            id: pick_lease(granted, *ix),
            now_us: *now_us,
        },
        Op::SweepRevoke { ix, stamp_us } => KvOp::LeaseRevoke {
            id: pick_lease(granted, *ix),
            if_expired_at_us: Some(*stamp_us),
        },
        Op::HardRevoke { ix } => KvOp::LeaseRevoke {
            id: pick_lease(granted, *ix),
            if_expired_at_us: None,
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
    // Two replicas fed the same command sequence end byte-identical:
    // same snapshot bytes, same per-command outcomes (success flags,
    // revisions, events, allocated lease ids). Lease ids are allocated
    // at apply time from replicated state, so they never diverge.
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
        prop_assert_eq!(a.to_snapshot_bytes(), b.to_snapshot_bytes());
    }

    // After any sequence the lease/key bookkeeping is bidirectionally
    // consistent, and the snapshot round-trips exactly (a follower
    // installed from snapshot is indistinguishable from one that
    // replayed the log).
    #[test]
    fn bookkeeping_and_snapshot_survive_any_interleaving(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let mut state = KvState::new();
        let mut granted = Vec::new();
        for op in &ops {
            apply_op(&mut state, &mut granted, op);
            check_lease_bookkeeping(&state);
        }
        let restored = KvState::from_snapshot_bytes(&state.to_snapshot_bytes())
            .expect("snapshot parses");
        prop_assert_eq!(&restored, &state);
    }

    // The holder always wins a race with the expiry sweep: a guarded
    // revoke whose stamp predates the (possibly keepalive-extended)
    // deadline must be a no-op, and one at/past the deadline must
    // delete every attached key and fence later writes on that lease.
    #[test]
    fn guarded_revoke_respects_the_deadline(
        ttl_us in 1_000..50_000u64,
        grant_at in 0..10_000u64,
        do_extend in any::<bool>(),
        extend_at in 0..100_000u64,
        margin in 1..50_000u64,
    ) {
        let mut state = KvState::new();
        let out = state.apply(&KvCommand {
            req_id: 0,
            op: KvOp::LeaseGrant { ttl_us, now_us: grant_at },
        });
        let id = out.lease.expect("grant allocates an id");
        let mut deadline = grant_at + ttl_us;
        if do_extend {
            let ka = state.apply(&KvCommand {
                req_id: 0,
                op: KvOp::LeaseKeepAlive { id, now_us: extend_at },
            });
            prop_assert!(ka.succeeded);
            deadline = deadline.max(extend_at + ttl_us);
        }
        state.apply(&KvCommand {
            req_id: 0,
            op: KvOp::Put { key: "owner".into(), value: "me".into(), lease: Some(id) },
        });

        // Early sweep: strictly before the deadline, nothing happens
        // (the revoke reports idempotent success but emits no events
        // and the lease lives on — the holder won the race).
        let early = state.apply(&KvCommand {
            req_id: 0,
            op: KvOp::LeaseRevoke { id, if_expired_at_us: Some(deadline - 1) },
        });
        prop_assert!(early.events.is_empty());
        prop_assert!(state.lease(id).is_some(), "holder lost an unexpired lease");
        prop_assert!(state.get("owner").is_some());

        // Late sweep: at/past the deadline the lease dies, the key goes
        // with it, and the lease id is fenced forever.
        let late = state.apply(&KvCommand {
            req_id: 0,
            op: KvOp::LeaseRevoke { id, if_expired_at_us: Some(deadline + margin - 1) },
        });
        prop_assert!(late.succeeded);
        prop_assert!(state.lease(id).is_none());
        prop_assert!(state.get("owner").is_none(), "attached key survived revoke");
        let stale = state.apply(&KvCommand {
            req_id: 0,
            op: KvOp::Cas {
                key: "owner".into(),
                expect: None,
                value: Some("me-again".into()),
                lease: Some(id),
            },
        });
        prop_assert!(!stale.succeeded, "revoked lease re-won the owner key");
        prop_assert!(state.get("owner").is_none());
    }
}

/// One full lease lifecycle on a live 3-node cluster: grant, a claimed
/// owner key, keepalives, a leader crash mid-lease, then expiry after
/// the keepalives stop. Returns every surviving node's snapshot bytes.
fn failover_lifecycle(seed: u64) -> Vec<Vec<u8>> {
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
    // must expire the lease on the replicated deadline.
    let old_leader = etcd.leader_id().expect("leader");
    etcd.crash(&mut sim, old_leader);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(30));
    sim.run_for(SimDuration::from_secs(20));

    (0..etcd.len() as u32)
        .filter(|&n| n != old_leader)
        .map(|n| etcd.kv_snapshot(n).to_snapshot_bytes())
        .collect()
}

/// Same seed, same bytes — on every surviving node, across independent
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
    /// The holder refreshes one of its leases.
    KeepAlive(u8),
    /// The holder gives one of its leases back.
    Revoke(u8),
    /// The current leader crashes.
    CrashLeader,
    /// Every crashed node restarts.
    RestartAll,
    /// Time passes (µs: requests land between grid instants too).
    Advance(u64),
}

fn cluster_op() -> impl Strategy<Value = ClusterOp> {
    prop_oneof![
        3 => (600..4_000u64).prop_map(ClusterOp::Grant),
        4 => any::<u8>().prop_map(ClusterOp::KeepAlive),
        1 => any::<u8>().prop_map(ClusterOp::Revoke),
        1 => Just(ClusterOp::CrashLeader),
        1 => Just(ClusterOp::RestartAll),
        6 => (1..3_000_000u64).prop_map(ClusterOp::Advance),
    ]
}

/// One sweep action: `(µs, server, lease)` — a server, as Raft leader,
/// found the lease past its deadline and proposed its revoke.
type Expiry = (u64, u32, LeaseId);

/// Drives a cluster through `ops` and returns what its lease sweeps did
/// (the servers' `lease-expired` marks) next to what the sweep they
/// replaced would have done: every server, every `LEASE_SWEEP_PERIOD`
/// from boot, revoking each expired lease while it is leader. The
/// reference only reads, so the two agree from start to end exactly when
/// every revoke is proposed at the instant the polling sweep proposed it.
fn sweeps(ops: &[ClusterOp]) -> (Vec<Expiry>, Vec<Expiry>) {
    use dlaas_etcd::{EtcdCluster, LEASE_SWEEP_PERIOD};
    use dlaas_raft::Role;
    use dlaas_sim::{Sim, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut sim = Sim::new(7);
    sim.trace_mut().set_enabled(true);
    let etcd = Rc::new(EtcdCluster::new_3way(&mut sim));
    let polled: Rc<RefCell<Vec<Expiry>>> = Rc::default();
    let (cluster, seen) = (etcd.clone(), polled.clone());
    dlaas_sim::every(&mut sim, LEASE_SWEEP_PERIOD, move |sim, _| {
        let now_us = sim.now().as_micros();
        for id in 0..cluster.len() as u32 {
            if cluster.raft().node(id).role() == Role::Leader {
                let expired = cluster.with_kv(id, |kv| kv.expired_leases(now_us));
                seen.borrow_mut()
                    .extend(expired.into_iter().map(|lease| (now_us, id, lease)));
            }
        }
        true
    });
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));

    let holder = etcd.client("holder");
    let granted: Rc<RefCell<Vec<LeaseId>>> = Rc::default();
    let mut crashed = Vec::new();
    let pick = |ix: u8| {
        let granted = granted.borrow();
        (!granted.is_empty()).then(|| granted[ix as usize % granted.len()])
    };
    for op in ops {
        match op {
            ClusterOp::Grant(ms) => {
                let granted = granted.clone();
                let ttl = SimDuration::from_millis(*ms);
                holder.lease_grant(&mut sim, ttl, move |_sim, r| {
                    granted.borrow_mut().extend(r.ok());
                });
            }
            ClusterOp::KeepAlive(ix) => {
                if let Some(id) = pick(*ix) {
                    holder.lease_keepalive(&mut sim, id, |_sim, _r| {});
                }
            }
            ClusterOp::Revoke(ix) => {
                if let Some(id) = pick(*ix) {
                    holder.lease_revoke(&mut sim, id, |_sim, _r| {});
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
            ClusterOp::Advance(us) => {
                sim.run_for(SimDuration::from_micros(*us));
            }
        }
    }
    for id in crashed.drain(..) {
        etcd.restart(&mut sim, id);
    }
    sim.run_for(SimDuration::from_secs(10));

    let mut marked: Vec<Expiry> = (0..etcd.len() as u32)
        .flat_map(|id| {
            sim.trace()
                .of(id)
                .marks()
                .filter(|m| m.what == "lease-expired")
                .map(move |m| (m.time.as_micros(), id, m.arg))
                .collect::<Vec<_>>()
        })
        .collect();
    marked.sort_unstable();
    let mut polled = polled.borrow().clone();
    polled.sort_unstable();
    (marked, polled)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    // The parked sweep — one event at the grid instant of the earliest
    // deadline, re-armed by every lease command — revokes at exactly the
    // instants the every-500-ms sweep did, under any interleaving of
    // grants, keepalives, revokes, leader crashes and restarts.
    #[test]
    fn the_parked_sweep_revokes_when_the_polling_sweep_did(
        ops in proptest::collection::vec(cluster_op(), 1..60),
    ) {
        let (parked, polled) = sweeps(&ops);
        prop_assert_eq!(parked, polled);
    }
}
