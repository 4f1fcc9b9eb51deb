// Fixture: suppression meta-rules. Both directives below are themselves
// findings, and neither suppresses anything. (`discarded-result` was a
// rule once; its contract is clippy's now, so the id is unknown.)

pub fn unknown_rule(sim: &mut Sim) {
    match probe(sim) {
        Ok(v) => apply(v),
        // dlaas-lint: allow(discarded-result): this rule id does not exist.
        Err(_) => {}
    }
}

pub fn missing_justification(sim: &mut Sim) {
    match probe(sim) {
        Ok(v) => apply(v),
        // dlaas-lint: allow(swallowed-error)
        Err(_) => {}
    }
}
