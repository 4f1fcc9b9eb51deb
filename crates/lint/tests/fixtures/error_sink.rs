// Error-sink fixture: silent Err arms (the swallowed-recovery-error shape
// PR 4 fixed by hand).

pub fn swallows(sim: &mut Sim) {
    match probe(sim) {
        Ok(v) => apply(v),
        Err(_) => {}
    }
    match probe(sim) {
        Ok(v) => apply(v),
        Err(e) => {
            stash_locally(e);
        }
    }
}

pub fn handled_arms(sim: &mut Sim) -> u32 {
    match probe(sim) {
        Ok(v) => apply(v),
        Err(_) => {
            sim.metrics().counter_series(PROBE_FAILURES, []).inc();
        }
    }
    match probe(sim) {
        Ok(v) => apply(v),
        Err(_) => failures.inc(),
    }
    match probe(sim) {
        Ok(v) => v,
        Err(_) => 0,
    }
}

pub fn suppressed_swallow(sim: &mut Sim) {
    match probe(sim) {
        Ok(v) => apply(v),
        // dlaas-lint: allow(swallowed-error): fixture — next tick re-probes
        Err(_) => {}
    }
}
