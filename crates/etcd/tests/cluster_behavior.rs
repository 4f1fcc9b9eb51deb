//! End-to-end behaviour of the replicated etcd cluster: the dependability
//! properties DLaaS relies on for status updates (§III-f of the paper).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dlaas_etcd::{
    etcd_addr, metrics, EtcdClient, EtcdCluster, EtcdError, EtcdResponse, EtcdRpc, KvEvent,
    WatchNet,
};
use dlaas_faults::latency_window;
use dlaas_net::LatencyModel;
use dlaas_sim::{count_buckets, Sim, SimDuration, SimTime};

fn boot(seed: u64) -> (Sim, EtcdCluster) {
    let mut sim = Sim::new(seed);
    let etcd = EtcdCluster::new_3way(&mut sim);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    sim.run_for(SimDuration::from_secs(1));
    (sim, etcd)
}

type Slot<T> = Rc<RefCell<Option<T>>>;

/// Collects results of an async op for assertion after `run_for`.
fn slot<T: 'static>() -> (Slot<T>, impl FnOnce(&mut Sim, T)) {
    let cell: Slot<T> = Rc::new(RefCell::new(None));
    let c = cell.clone();
    (cell, move |_: &mut Sim, v: T| *c.borrow_mut() = Some(v))
}

#[test]
fn put_then_get_roundtrips() {
    let (mut sim, etcd) = boot(1);
    let client = etcd.client("t");
    let (put_res, put_cb) = slot();
    client.put(&mut sim, "a", "1", put_cb);
    sim.run_for(SimDuration::from_secs(1));
    assert!(matches!(*put_res.borrow(), Some(Ok(_))));

    let (get_res, get_cb) = slot();
    client.get(&mut sim, "a", get_cb);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(*get_res.borrow(), Some(Ok(Some("1".into()))));

    let (miss_res, miss_cb) = slot();
    client.get(&mut sim, "missing", miss_cb);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(*miss_res.borrow(), Some(Ok(None)));
}

#[test]
fn data_replicates_to_all_nodes() {
    let (mut sim, etcd) = boot(2);
    let client = etcd.client("t");
    client.put(&mut sim, "jobs/1/status", "PROCESSING", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(2));
    for id in 0..3 {
        let kv = etcd.kv_snapshot(id);
        assert_eq!(
            kv.get("jobs/1/status").map(|v| v.value.clone()),
            Some("PROCESSING".to_string()),
            "replica {id}"
        );
    }
}

#[test]
fn survives_any_single_node_crash() {
    for victim in 0..3u32 {
        let (mut sim, etcd) = boot(100 + victim as u64);
        let client = etcd.client("t");
        client.put(&mut sim, "k", "before", |_, r| {
            r.unwrap();
        });
        sim.run_for(SimDuration::from_secs(1));

        etcd.crash(&mut sim, victim);
        sim.run_for(SimDuration::from_secs(2)); // allow re-election if leader died

        let (w, wcb) = slot();
        client.put(&mut sim, "k", "after", wcb);
        sim.run_for(SimDuration::from_secs(5));
        assert!(
            matches!(*w.borrow(), Some(Ok(_))),
            "write must succeed with one of three nodes down (victim {victim}): {:?}",
            w.borrow()
        );

        let (r, rcb) = slot();
        client.get(&mut sim, "k", rcb);
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(*r.borrow(), Some(Ok(Some("after".into()))));
    }
}

/// Elections started by every node so far.
fn elections(etcd: &EtcdCluster) -> u64 {
    etcd.raft()
        .nodes()
        .iter()
        .map(dlaas_raft::Raft::elections_started)
        .sum()
}

/// Gray failure (slow, not dead): peer latency degrading to 50–250 ms for
/// a minute must not depose a healthy leader. On the Raft paper's example
/// timing (150–300 ms election timeout) the same window held hundreds of
/// elections per seed, each one a write outage; on etcd's (1–2 s) it holds
/// none, and writes keep committing through it.
#[test]
fn slow_peers_do_not_depose_a_healthy_leader() {
    for seed in 61..64 {
        let (mut sim, etcd) = boot(seed);
        let before = elections(&etcd);
        latency_window(
            &mut sim,
            etcd.raft().net(),
            LatencyModel::Uniform(SimDuration::from_millis(50), SimDuration::from_millis(250)),
            SimDuration::from_secs(60),
        );
        let client = etcd.client("t");
        let acked = Rc::new(Cell::new(0u32));
        for i in 0..60 {
            let a = acked.clone();
            client.put(&mut sim, "k", i.to_string(), move |_, r| {
                if r.is_ok() {
                    a.set(a.get() + 1);
                }
            });
            sim.run_for(SimDuration::from_secs(1));
        }
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            elections(&etcd) - before,
            0,
            "seed {seed}: slow peers started elections against a live leader"
        );
        assert_eq!(acked.get(), 60, "seed {seed}: puts lost in the slow window");
    }
}

/// The price of etcd's timing: a dead leader is noticed one election
/// timeout (1–2 s) after its last heartbeat, so writes are down for about
/// that long. From the crash, a put issued every 100 ms must be
/// acknowledged within 2.5 s — well inside the client's ~12 s retry
/// budget and the LCM's 10 s lease.
#[test]
fn writes_resume_within_two_and_a_half_seconds_of_a_leader_crash() {
    for seed in 71..76 {
        let (mut sim, etcd) = boot(seed);
        let client = etcd.client("t");
        client.put(&mut sim, "k", "before", |_, r| {
            r.unwrap();
        });
        sim.run_for(SimDuration::from_secs(1));

        let leader = etcd.leader_id().expect("a leader");
        etcd.crash(&mut sim, leader);
        let crashed_at = sim.now();
        let first_ack: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
        let deadline = crashed_at + SimDuration::from_secs(10);
        while first_ack.get().is_none() && sim.now() < deadline {
            let f = first_ack.clone();
            client.put(&mut sim, "k", "after", move |sim, r| {
                if r.is_ok() && f.get().is_none() {
                    f.set(Some(sim.now()));
                }
            });
            sim.run_for(SimDuration::from_millis(100));
        }
        let down = first_ack.get().expect("writes resumed") - crashed_at;
        assert!(
            down <= SimDuration::from_millis(2_500),
            "seed {seed}: writes down for {down:?} after a leader crash"
        );
    }
}

#[test]
fn two_node_crash_blocks_writes_until_restart() {
    let (mut sim, etcd) = boot(7);
    let client = etcd.client("t");
    etcd.crash(&mut sim, 0);
    etcd.crash(&mut sim, 1);
    sim.run_for(SimDuration::from_secs(1));

    let (w, wcb) = slot();
    client.put(&mut sim, "k", "v", wcb);
    sim.run_for(SimDuration::from_secs(30));
    assert_eq!(
        *w.borrow(),
        Some(Err(EtcdError::Unavailable)),
        "writes must not commit without quorum"
    );

    // Restart one node: quorum restored, writes flow again.
    etcd.restart(&mut sim, 0);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    let (w2, w2cb) = slot();
    client.put(&mut sim, "k", "v2", w2cb);
    sim.run_for(SimDuration::from_secs(10));
    assert!(matches!(*w2.borrow(), Some(Ok(_))));
}

#[test]
fn restarted_node_rebuilds_store_from_log() {
    let (mut sim, etcd) = boot(9);
    let client = etcd.client("t");
    for i in 0..10 {
        client.put(&mut sim, format!("key-{i}"), format!("v{i}"), |_, r| {
            r.unwrap();
        });
    }
    sim.run_for(SimDuration::from_secs(2));

    let inc_before = etcd.incarnation(2);
    etcd.crash(&mut sim, 2);
    sim.run_for(SimDuration::from_secs(1));

    // Writes made while the node is down must be recovered by log replay.
    for i in 10..15 {
        client.put(&mut sim, format!("key-{i}"), format!("v{i}"), |_, r| {
            r.unwrap();
        });
    }
    sim.run_for(SimDuration::from_secs(2));

    etcd.restart(&mut sim, 2);
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(
        etcd.incarnation(2),
        inc_before + 1,
        "restart resets the core"
    );
    let kv = etcd.kv_snapshot(2);
    assert_eq!(kv.len(), 15, "log replay must rebuild all keys");
    assert_eq!(kv.get("key-7").unwrap().value, "v7");
    assert_eq!(
        kv.get("key-12").unwrap().value,
        "v12",
        "missed writes recovered"
    );
}

#[test]
fn cas_settles_exactly_one_winner() {
    let (mut sim, etcd) = boot(11);
    // Two "Guardians" race to take the same lock.
    let c1 = etcd.client("guardian-1");
    let c2 = etcd.client("guardian-2");
    let (r1, cb1) = slot();
    let (r2, cb2) = slot();
    c1.cas(&mut sim, "lock", None, Some("g1".into()), cb1);
    c2.cas(&mut sim, "lock", None, Some("g2".into()), cb2);
    sim.run_for(SimDuration::from_secs(2));
    let a = r1.borrow().clone().unwrap().unwrap();
    let b = r2.borrow().clone().unwrap().unwrap();
    assert!(a ^ b, "exactly one CAS must win (got {a} and {b})");

    let (v, vcb) = slot();
    c1.get(&mut sim, "lock", vcb);
    sim.run_for(SimDuration::from_secs(1));
    let winner = v.borrow().clone().unwrap().unwrap().unwrap();
    assert!(winner == "g1" || winner == "g2");
}

#[test]
fn watch_delivers_events_idempotently_with_revisions() {
    let (mut sim, etcd) = boot(13);
    let watcher = etcd.client("guardian");
    let writer = etcd.client("controller");

    // Track latest value per key using revisions (the idempotent-consumer
    // pattern the platform uses).
    let seen: Rc<RefCell<std::collections::BTreeMap<String, (u64, String)>>> =
        Rc::new(RefCell::new(Default::default()));
    let s = seen.clone();
    watcher.watch_prefix(&mut sim, "jobs/42/", move |_sim, ev| {
        if let KvEvent::Put {
            key,
            value,
            revision,
        } = ev
        {
            let mut m = s.borrow_mut();
            let entry = m.entry(key.clone()).or_insert((0, String::new()));
            if *revision > entry.0 {
                *entry = (*revision, value.clone());
            }
        }
    });
    sim.run_for(SimDuration::from_secs(1));

    writer.put(&mut sim, "jobs/42/learner-0", "DOWNLOADING", |_, _| {});
    sim.run_for(SimDuration::from_millis(500));
    writer.put(&mut sim, "jobs/42/learner-0", "PROCESSING", |_, _| {});
    writer.put(&mut sim, "jobs/42/learner-1", "PROCESSING", |_, _| {});
    writer.put(&mut sim, "jobs/99/learner-0", "OTHER-JOB", |_, _| {});
    sim.run_for(SimDuration::from_secs(2));

    let m = seen.borrow();
    assert_eq!(m.len(), 2, "only the watched prefix is delivered");
    assert_eq!(m["jobs/42/learner-0"].1, "PROCESSING");
    assert_eq!(m["jobs/42/learner-1"].1, "PROCESSING");
}

#[test]
fn watch_survives_single_server_crash() {
    let (mut sim, etcd) = boot(17);
    let watcher = etcd.client("guardian");
    let writer = etcd.client("controller");

    let count = Rc::new(RefCell::new(0u32));
    let c = count.clone();
    watcher.watch_prefix(&mut sim, "st/", move |_s, _e| *c.borrow_mut() += 1);
    sim.run_for(SimDuration::from_secs(1));

    // Crash a follower: remaining replicas still fan out events.
    let leader = etcd.leader_id().unwrap();
    let follower = (0..3).find(|i| *i != leader).unwrap();
    etcd.crash(&mut sim, follower);
    sim.run_for(SimDuration::from_secs(1));

    writer.put(&mut sim, "st/x", "1", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(2));
    assert!(
        *count.borrow() >= 1,
        "watch event lost after follower crash"
    );
}

#[test]
fn unwatch_stops_delivery() {
    let (mut sim, etcd) = boot(19);
    let watcher = etcd.client("w");
    let writer = etcd.client("c");
    let count = Rc::new(RefCell::new(0u32));
    let c = count.clone();
    let id = watcher.watch_prefix(&mut sim, "k/", move |_s, _e| *c.borrow_mut() += 1);
    sim.run_for(SimDuration::from_secs(1));
    writer.put(&mut sim, "k/a", "1", |_, _| {});
    sim.run_for(SimDuration::from_secs(1));
    let before = *count.borrow();
    assert!(before >= 1);

    watcher.unwatch(&mut sim, id);
    sim.run_for(SimDuration::from_secs(1));
    writer.put(&mut sim, "k/b", "2", |_, _| {});
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(*count.borrow(), before, "events after unwatch");
}

#[test]
fn rewatch_restores_notifications_after_full_restart_cycle() {
    let (mut sim, etcd) = boot(23);
    let watcher = etcd.client("w");
    let writer = etcd.client("c");
    let count = Rc::new(RefCell::new(0u32));
    let c = count.clone();
    watcher.watch_prefix(&mut sim, "k/", move |_s, _e| *c.borrow_mut() += 1);
    sim.run_for(SimDuration::from_secs(1));

    // Restart every node one at a time: all watch registries are lost.
    for id in 0..3 {
        etcd.crash(&mut sim, id);
        sim.run_for(SimDuration::from_secs(2));
        etcd.restart(&mut sim, id);
        sim.run_for(SimDuration::from_secs(2));
    }
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    *count.borrow_mut() = 0;

    writer.put(&mut sim, "k/lost", "1", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        *count.borrow(),
        0,
        "registrations were wiped with the cores"
    );

    watcher.rewatch(&mut sim);
    sim.run_for(SimDuration::from_secs(1));
    writer.put(&mut sim, "k/found", "2", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(2));
    assert!(*count.borrow() >= 1, "rewatch must restore delivery");
}

#[test]
fn status_update_pattern_controller_to_guardian() {
    // The exact §III-f pattern: controller records per-learner status in
    // etcd; Guardian reads it back and aggregates, resilient to a Guardian
    // "crash" (it is stateless here — a fresh read suffices).
    let (mut sim, etcd) = boot(29);
    let controller = etcd.client("controller/job-1");
    let guardian = etcd.client("guardian/job-1");

    for learner in 0..4 {
        controller.put(
            &mut sim,
            format!("jobs/job-1/learners/{learner}"),
            "PROCESSING",
            |_, r| {
                r.unwrap();
            },
        );
    }
    sim.run_for(SimDuration::from_secs(2));

    let (statuses, cb) = slot();
    guardian.get_prefix(&mut sim, "jobs/job-1/learners/", cb);
    sim.run_for(SimDuration::from_secs(1));
    let pairs = statuses.borrow().clone().unwrap().unwrap();
    assert_eq!(pairs.len(), 4);
    assert!(pairs.iter().all(|(_, v)| v == "PROCESSING"));
}

#[test]
fn five_node_cluster_tolerates_two_crashes() {
    let mut sim = Sim::new(41);
    let etcd = dlaas_etcd::EtcdCluster::new(
        &mut sim,
        5,
        dlaas_raft::RaftConfig::default(),
        dlaas_net::LatencyModel::datacenter(),
        dlaas_net::LatencyModel::datacenter(),
    );
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    sim.run_for(SimDuration::from_secs(1));
    let client = etcd.client("t");
    client.put(&mut sim, "k", "v1", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(1));

    // Two nodes down out of five: still quorate.
    etcd.crash(&mut sim, 0);
    etcd.crash(&mut sim, 1);
    sim.run_for(SimDuration::from_secs(3));
    let (w, wcb) = slot();
    client.put(&mut sim, "k", "v2", wcb);
    sim.run_for(SimDuration::from_secs(10));
    assert!(
        matches!(*w.borrow(), Some(Ok(_))),
        "5-node cluster must survive 2 crashes"
    );

    let (r, rcb) = slot();
    client.get(&mut sim, "k", rcb);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(*r.borrow(), Some(Ok(Some("v2".into()))));
}

#[test]
fn log_compaction_bounds_the_raft_log_and_preserves_state() {
    let (mut sim, etcd) = boot(37);
    let client = etcd.client("writer");
    // Well past the 500-entry compaction threshold.
    for i in 0..1500 {
        client.put(&mut sim, format!("k{i:04}"), format!("v{i}"), |_, _| {});
        if i % 100 == 0 {
            sim.run_for(SimDuration::from_secs(1));
        }
    }
    sim.run_for(SimDuration::from_secs(10));

    // Every replica compacted; live logs stay bounded.
    for id in 0..3 {
        let disk = etcd.raft().disk(id).borrow();
        assert!(
            disk.snapshot_last_index() > 0,
            "replica {id} never compacted"
        );
        assert!(
            disk.log.len() < 1200,
            "replica {id} log unbounded: {} entries",
            disk.log.len()
        );
    }
    // State is complete despite compaction.
    for id in 0..3 {
        assert_eq!(etcd.kv_snapshot(id).len(), 1500, "replica {id}");
    }

    // A node restarting now recovers from snapshot + tail, not full replay.
    etcd.crash(&mut sim, 2);
    sim.run_for(SimDuration::from_secs(2));
    etcd.restart(&mut sim, 2);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(etcd.kv_snapshot(2).len(), 1500);
    assert_eq!(
        etcd.kv_snapshot(2).get("k1499").map(|v| v.value.clone()),
        Some("v1499".into())
    );
}

/// Regression: a client RPC retry of `WatchCreate` after a timed-out ack
/// re-sends the identical `(watcher, watch_id)` registration. The server
/// used to push it unconditionally, so every subsequent event was
/// delivered once per duplicate. Registration must be idempotent.
#[test]
fn watch_create_retry_does_not_double_register_or_double_deliver() {
    let (mut sim, etcd) = boot(47);
    let watcher = etcd.client("w");
    let writer = etcd.client("c");
    let count = Rc::new(RefCell::new(0u32));
    let c = count.clone();
    let id = watcher.watch_prefix(&mut sim, "k/", move |_s, _e| *c.borrow_mut() += 1);
    sim.run_for(SimDuration::from_secs(1));

    // Simulate the retry: the identical WatchCreate sent again to every
    // server (the guardian's periodic `rewatch` does the same thing).
    for server in 0..3 {
        etcd.rpc().call(
            &mut sim,
            watcher.addr().clone(),
            dlaas_etcd::etcd_addr(server),
            dlaas_etcd::EtcdRequest::WatchCreate {
                prefix: "k/".into(),
                watcher: watcher.addr().clone(),
                watch_id: id,
            },
            SimDuration::from_millis(500),
            |_, _| {},
        );
    }
    watcher.rewatch(&mut sim);
    sim.run_for(SimDuration::from_secs(1));

    for server in 0..3 {
        assert_eq!(
            etcd.core(server).borrow().watch_registrations().len(),
            1,
            "server {server} must hold exactly one registration after retries"
        );
    }

    writer.put(&mut sim, "k/a", "1", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        *count.borrow(),
        3,
        "one delivery per live server (at-least-once), not per duplicate registration"
    );
}

/// Regression: a `WatchCancel` lost to a partitioned server left its
/// registration live forever — once the server rejoined, it kept fanning
/// out notifications for the cancelled watch. The client must re-deliver
/// un-acked cancels after failover/heal.
#[test]
fn lost_watch_cancel_is_redelivered_after_partition_heals() {
    let (mut sim, etcd) = boot(53);
    let watcher = etcd.client("w");
    let writer = etcd.client("c");
    let count = Rc::new(RefCell::new(0u32));
    let c = count.clone();
    let id = watcher.watch_prefix(&mut sim, "k/", move |_s, _e| *c.borrow_mut() += 1);
    sim.run_for(SimDuration::from_secs(1));

    // Cut the watcher's client traffic to one follower. Raft peer traffic
    // uses its own network, so the isolated server keeps applying commits
    // — its watch registry (including our registration) stays live.
    let leader = etcd.leader_id().unwrap();
    let isolated = (0..3).find(|i| *i != leader).unwrap();
    etcd.rpc().net().partition(
        &mut sim,
        vec![
            vec![watcher.addr().clone()],
            vec![dlaas_etcd::etcd_addr(isolated)],
        ],
    );

    // The cancel reaches every server except the isolated one.
    watcher.unwatch(&mut sim, id);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        etcd.core(isolated).borrow().watch_registrations().len(),
        1,
        "isolated server still holds the stale registration"
    );
    for server in (0..3).filter(|s| *s != isolated) {
        assert_eq!(
            etcd.core(server).borrow().watch_registrations().len(),
            0,
            "reachable server {server} must have dropped the registration"
        );
    }

    // While stale, the rejoined-server registration double-notifies on the
    // wire (the client drops unknown ids, but the fan-out cost is real).
    let sent_before = sim.metrics().counter_total("etcd_watch_events_total");
    writer.put(&mut sim, "k/x", "1", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(2));
    assert!(
        sim.metrics().counter_total("etcd_watch_events_total") > sent_before,
        "stale registration keeps emitting wire notifications"
    );

    // Heal; the next rewatch (the guardian runs one periodically) flushes
    // the un-acked cancel to the previously unreachable server.
    etcd.rpc().net().heal(&mut sim);
    watcher.rewatch(&mut sim);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        etcd.core(isolated).borrow().watch_registrations().len(),
        0,
        "healed server must drop the registration once the cancel lands"
    );

    let sent_after_heal = sim.metrics().counter_total("etcd_watch_events_total");
    writer.put(&mut sim, "k/y", "2", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        sim.metrics().counter_total("etcd_watch_events_total"),
        sent_after_heal,
        "no server may notify for a cancelled watch after heal"
    );
    assert_eq!(
        *count.borrow(),
        0,
        "the client must never surface events for a cancelled watch"
    );
}

/// Regression: the client used to `panic!` on a reply of the wrong shape
/// (the handler for `put`/`delete`/`lease_revoke` replies, passed by
/// name, had never been reviewed), so one mismatched reply took down the
/// control-plane process that issued the call.
#[test]
fn mismatched_reply_fails_the_operation_not_the_process() {
    let mut sim = Sim::new(41);
    let rpc = EtcdRpc::new(&mut sim, LatencyModel::local());
    let watch_net = WatchNet::new(&mut sim, LatencyModel::local());
    // A single "server" that answers everything as if it were a `Get`.
    rpc.serve(etcd_addr(0), |sim, _req, responder| {
        let value = None;
        responder.ok(sim, EtcdResponse::Value { value, revision: 7 });
    });
    let client = EtcdClient::new("t".into(), rpc, watch_net, 1);

    let (put_res, put_cb) = slot();
    client.put(&mut sim, "a", "1", put_cb);
    let (cas_res, cas_cb) = slot();
    client.cas(&mut sim, "a", None, Some("1".into()), cas_cb);
    sim.run_for(SimDuration::from_secs(1));
    let put_err = put_res.borrow().clone().expect("put answered").unwrap_err();
    let cas_err = cas_res.borrow().clone().expect("cas answered").unwrap_err();
    for err in [put_err, cas_err] {
        assert!(
            matches!(&err, EtcdError::Failed(why) if why.contains("unexpected response")),
            "{err:?}"
        );
    }
}

/// A standalone etcd (no platform boot around it) records its fan-out
/// work counts into count buckets, not the default latency buckets: the
/// layout is part of the declaration, not something a caller applies.
#[test]
fn standalone_server_records_fanout_in_count_buckets() {
    let (mut sim, etcd) = boot(42);
    etcd.client("t").put(&mut sim, "a", "1", |_, r| {
        r.unwrap();
    });
    sim.run_for(SimDuration::from_secs(1));
    let fanout = sim
        .metrics()
        .histogram(metrics::WATCH_FANOUT_EXAMINED, &[])
        .expect("a committed command records its fan-out");
    assert!(fanout.count() > 0);
    assert_eq!(fanout.bounds(), count_buckets());
}

#[test]
fn deterministic_across_reruns() {
    fn run() -> Vec<(String, String)> {
        let (mut sim, etcd) = boot(31);
        let client = etcd.client("t");
        for i in 0..5 {
            client.put(&mut sim, format!("k{i}"), format!("v{i}"), |_, _| {});
        }
        sim.run_for(SimDuration::from_secs(2));
        etcd.kv_snapshot(0).get_prefix("")
    }
    assert_eq!(run(), run());
}
