//! Property tests of the network layer's delivery contract: without
//! faults every message is delivered exactly once; with faults the
//! accounting always balances (sent = delivered + each drop reason); and
//! RPC calls always complete exactly once with some outcome.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_net::{Addr, LatencyModel, Net, RpcLayer};
use dlaas_sim::{Sim, SimDuration};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn fault_free_delivery_is_exactly_once(
        seed in 0..u64::MAX,
        sends in proptest::collection::vec((0..5u8, 0..5u8, 0..1000u32), 1..80),
    ) {
        let mut sim = Sim::new(seed);
        let net: Net<(u8, u32)> = Net::new(
            &mut sim,
            LatencyModel::Uniform(SimDuration::from_micros(50), SimDuration::from_millis(5)),
        );
        let received: Rc<RefCell<Vec<(u8, u8, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for ep in 0..5u8 {
            let r = received.clone();
            net.register(Addr::new(format!("ep{ep}")), move |_sim, env| {
                let (from, tag) = env.msg;
                r.borrow_mut().push((from, ep, tag));
            });
        }
        for (from, to, tag) in &sends {
            net.send(
                &mut sim,
                Addr::new(format!("ep{from}")),
                Addr::new(format!("ep{to}")),
                (*from, *tag),
            );
        }
        sim.run_until_idle();

        let got = received.borrow();
        prop_assert_eq!(got.len(), sends.len(), "exactly-once delivery");
        // Multiset equality: every send accounted for exactly once.
        let mut want: Vec<(u8, u8, u32)> =
            sends.iter().map(|(f, t, g)| (*f, *t, *g)).collect();
        let mut have = got.clone();
        want.sort_unstable();
        have.sort_unstable();
        prop_assert_eq!(have, want);
        let stats = net.stats();
        prop_assert_eq!(stats.sent, sends.len() as u64);
        prop_assert_eq!(stats.delivered, sends.len() as u64);
    }

    #[test]
    fn lossy_delivery_accounting_balances(
        seed in 0..u64::MAX,
        loss_pct in 0..100u8,
        n in 1..150usize,
    ) {
        let mut sim = Sim::new(seed);
        let net: Net<u32> = Net::new(&mut sim, LatencyModel::local());
        let count = Rc::new(RefCell::new(0u64));
        let c = count.clone();
        net.register(Addr::new("sink"), move |_s, _e| *c.borrow_mut() += 1);
        net.set_loss(&mut sim, loss_pct as f64 / 100.0);
        for i in 0..n {
            net.send(&mut sim, Addr::new("src"), Addr::new("sink"), i as u32);
        }
        sim.run_until_idle();
        let stats = net.stats();
        prop_assert_eq!(stats.sent, n as u64);
        prop_assert_eq!(
            stats.delivered + stats.dropped_loss + stats.dropped_partition + stats.dropped_down,
            stats.sent,
            "every message accounted for"
        );
        prop_assert_eq!(*count.borrow(), stats.delivered);
    }

    #[test]
    fn rpc_calls_complete_exactly_once_under_chaos(
        seed in 0..u64::MAX,
        loss_pct in 0..80u8,
        calls in 1..40usize,
        server_up in any::<bool>(),
    ) {
        let mut sim = Sim::new(seed);
        let rpc: RpcLayer<u32, u32> = RpcLayer::new(
            &mut sim,
            LatencyModel::Uniform(SimDuration::from_micros(100), SimDuration::from_millis(3)),
        );
        if server_up {
            rpc.serve(Addr::new("srv"), |sim, req, r| r.ok(sim, req + 1));
        }
        rpc.net().set_loss(&mut sim, loss_pct as f64 / 100.0);
        let outcomes = Rc::new(RefCell::new(vec![0u32; calls]));
        for i in 0..calls {
            let o = outcomes.clone();
            rpc.call(
                &mut sim,
                Addr::new("cli"),
                Addr::new("srv"),
                i as u32,
                SimDuration::from_millis(200),
                move |_sim, _result| {
                    o.borrow_mut()[i] += 1;
                },
            );
        }
        sim.run_until_idle();
        // The completion contract: every call's callback fired exactly
        // once, regardless of loss or server absence.
        for (i, n) in outcomes.borrow().iter().enumerate() {
            prop_assert_eq!(*n, 1, "call {} completed {} times", i, n);
        }
    }
}
