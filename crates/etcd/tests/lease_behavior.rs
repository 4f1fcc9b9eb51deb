//! End-to-end behaviour of the etcd lease primitive: grants replicate
//! through Raft, keepalives hold expiry off, expiry deletes attached
//! keys as ordinary watch events, and all of it survives leader
//! failover — the contract the replicated LCM's shard ownership rests on.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_etcd::{EtcdCluster, KvEvent};
use dlaas_sim::{Sim, SimDuration};

fn boot(seed: u64) -> (Sim, EtcdCluster) {
    let mut sim = Sim::new(seed);
    let etcd = EtcdCluster::new_3way(&mut sim);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    sim.run_for(SimDuration::from_secs(1));
    (sim, etcd)
}

type Slot<T> = Rc<RefCell<Option<T>>>;

fn slot<T: 'static>() -> (Slot<T>, impl FnOnce(&mut Sim, T)) {
    let cell: Slot<T> = Rc::new(RefCell::new(None));
    let c = cell.clone();
    (cell, move |_: &mut Sim, v: T| *c.borrow_mut() = Some(v))
}

#[test]
fn lease_grant_replicates_to_all_nodes() {
    let (mut sim, etcd) = boot(41);
    let client = etcd.client("t");
    let (granted, cb) = slot();
    client.lease_grant(&mut sim, SimDuration::from_secs(60), cb);
    sim.run_for(SimDuration::from_secs(2));
    let id = granted.borrow().clone().expect("grant settled").unwrap();
    for node in 0..3 {
        assert!(
            etcd.kv_snapshot(node).lease(id).is_some(),
            "replica {node} missing lease {id}"
        );
    }
}

#[test]
fn unrefreshed_lease_expires_and_deletes_attached_keys_via_watch() {
    let (mut sim, etcd) = boot(42);
    let client = etcd.client("t");
    let (granted, cb) = slot();
    client.lease_grant(&mut sim, SimDuration::from_secs(5), cb);
    sim.run_for(SimDuration::from_secs(1));
    let id = granted.borrow().clone().unwrap().unwrap();

    let deletes: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let d = deletes.clone();
    client.watch_prefix(&mut sim, "lcm/shards/", move |_sim, ev| {
        if let KvEvent::Delete { key, .. } = ev {
            let mut v = d.borrow_mut();
            // At-least-once delivery across 3 servers: dedup.
            if !v.contains(key) {
                v.push(key.clone());
            }
        }
    });
    let (ok, cb) = slot();
    client.cas_with_lease(
        &mut sim,
        "lcm/shards/003",
        None,
        Some("lcm-0".into()),
        Some(id),
        cb,
    );
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(*ok.borrow(), Some(Ok(true)));

    // No keepalives: within TTL + one sweep period the key must be gone
    // and the deletion delivered to the watcher as a plain delete event.
    sim.run_for(SimDuration::from_secs(7));
    let leader = etcd.leader_id().expect("leader");
    assert!(
        etcd.kv_snapshot(leader).lease(id).is_none(),
        "lease lingers"
    );
    assert!(etcd.kv_snapshot(leader).get("lcm/shards/003").is_none());
    assert_eq!(*deletes.borrow(), vec!["lcm/shards/003".to_string()]);
}

#[test]
fn keepalives_hold_expiry_off_indefinitely() {
    let (mut sim, etcd) = boot(43);
    let client = etcd.client("t");
    let (granted, cb) = slot();
    client.lease_grant(&mut sim, SimDuration::from_secs(3), cb);
    sim.run_for(SimDuration::from_secs(1));
    let id = granted.borrow().clone().unwrap().unwrap();

    // Refresh at TTL/3 for several TTLs.
    for _ in 0..15 {
        let (alive, cb) = slot();
        client.lease_keepalive(&mut sim, id, cb);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            *alive.borrow(),
            Some(Ok(true)),
            "lease died under keepalive"
        );
    }
    let leader = etcd.leader_id().expect("leader");
    assert!(etcd.kv_snapshot(leader).lease(id).is_some());
}

#[test]
fn lease_survives_leader_failover_and_still_expires() {
    let (mut sim, etcd) = boot(44);
    let client = etcd.client("t");
    let (granted, cb) = slot();
    client.lease_grant(&mut sim, SimDuration::from_secs(20), cb);
    let (ok, cb2) = slot();
    client.put_with_lease(&mut sim, "ha/owner", "a", None, cb2);
    sim.run_for(SimDuration::from_secs(1));
    let id = granted.borrow().clone().unwrap().unwrap();
    assert!(matches!(*ok.borrow(), Some(Ok(_))));
    let (ok, cb) = slot();
    client.put_with_lease(&mut sim, "ha/owner", "a", Some(id), cb);
    sim.run_for(SimDuration::from_secs(1));
    assert!(matches!(*ok.borrow(), Some(Ok(_))));

    // Kill the leader: the lease record and its key attachment live in
    // the replicated state machine, so the new leader keeps honouring
    // the original deadline.
    let old_leader = etcd.leader_id().expect("leader");
    etcd.crash(&mut sim, old_leader);
    let new_leader = etcd.expect_leader(&mut sim, SimDuration::from_secs(30));
    assert_ne!(new_leader, old_leader);
    assert!(
        etcd.kv_snapshot(new_leader).lease(id).is_some(),
        "lease lost in failover"
    );

    // The new leader's sweep enforces the original TTL.
    sim.run_for(SimDuration::from_secs(25));
    assert!(etcd.kv_snapshot(new_leader).lease(id).is_none());
    assert!(etcd.kv_snapshot(new_leader).get("ha/owner").is_none());
}

#[test]
fn cas_with_revoked_lease_cannot_win_ownership() {
    let (mut sim, etcd) = boot(45);
    let loser = etcd.client("loser");
    let winner = etcd.client("winner");

    let (granted, cb) = slot();
    loser.lease_grant(&mut sim, SimDuration::from_secs(2), cb);
    sim.run_for(SimDuration::from_secs(1));
    let stale = granted.borrow().clone().unwrap().unwrap();

    // Let the loser's lease expire (no keepalives), then race both
    // clients for the same ownership key: the stale lease must lose
    // even though the key is absent (its expectation holds).
    sim.run_for(SimDuration::from_secs(4));
    let (stale_won, cb) = slot();
    loser.cas_with_lease(
        &mut sim,
        "lcm/shards/000",
        None,
        Some("loser".into()),
        Some(stale),
        cb,
    );
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(
        *stale_won.borrow(),
        Some(Ok(false)),
        "revoked lease won an ownership CAS"
    );

    let (granted, cb) = slot();
    winner.lease_grant(&mut sim, SimDuration::from_secs(30), cb);
    sim.run_for(SimDuration::from_secs(1));
    let live = granted.borrow().clone().unwrap().unwrap();
    let (won, cb) = slot();
    winner.cas_with_lease(
        &mut sim,
        "lcm/shards/000",
        None,
        Some("winner".into()),
        Some(live),
        cb,
    );
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(*won.borrow(), Some(Ok(true)));
    let leader = etcd.leader_id().expect("leader");
    assert_eq!(
        etcd.kv_snapshot(leader)
            .get("lcm/shards/000")
            .map(|v| v.value.clone()),
        Some("winner".to_string())
    );
}
