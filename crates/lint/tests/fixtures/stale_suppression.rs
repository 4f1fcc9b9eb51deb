// Stale-suppression fixture: one allow() whose rule fires, one whose
// rule no longer fires on the target line.

pub fn still_needed(sim: &mut Sim) {
    // dlaas-lint: allow(resource-leak): fixture — live suppression
    etcd.watch_prefix(sim, "jobs/", handler);
}

pub fn no_longer_needed(sim: &mut Sim) {
    // dlaas-lint: allow(resource-leak): fixture — the watch is cancelled now
    let w = etcd.watch_prefix(sim, "jobs/", handler);
    w.unwatch(sim);
}
