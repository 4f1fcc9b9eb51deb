//! The mark vocabulary: every crate's `marks::ALL`, walked as one
//! registry. A mark is matched by identity, so its strings only have to
//! read well; what keeps the timeline readable is that no two defs say
//! the same thing, and what keeps the fault matrix honest is that its
//! injection points are the Guardian's own defs.

use std::collections::BTreeSet;

use dlaas_bench::matrix::{point, POINTS};
use dlaas_core::marks::guardian;
use dlaas_sim::MarkDef;

/// Every def of every crate that marks.
fn registry() -> Vec<&'static MarkDef> {
    [
        dlaas_raft::marks::ALL,
        dlaas_etcd::marks::ALL,
        dlaas_kube::marks::ALL,
        dlaas_faults::marks::ALL,
        dlaas_core::marks::ALL,
        dlaas_bench::marks::ALL,
    ]
    .concat()
}

#[test]
fn each_mark_is_declared_once() {
    let defs = registry();
    let mut seen = BTreeSet::new();
    for def in &defs {
        assert!(
            seen.insert((def.who, def.what)),
            "{} {} is declared twice",
            def.who,
            def.what
        );
    }
    let by_address: BTreeSet<*const MarkDef> = defs.iter().map(|def| *def as *const _).collect();
    assert_eq!(by_address.len(), defs.len(), "a def is listed twice");
}

#[test]
fn the_injection_points_are_the_guardians_own_defs() {
    let core = dlaas_core::marks::ALL;
    for p in POINTS {
        assert!(core.contains(&p), "{} is not a core def", p.what);
        assert_eq!(p.who, "guardian");
    }
    assert_eq!(point("helper-created"), Ok(&guardian::HELPER_CREATED));
    let refused = point("nowhere").expect_err("no such point");
    for p in POINTS {
        assert!(refused.contains(p.what), "{refused}");
    }
}
