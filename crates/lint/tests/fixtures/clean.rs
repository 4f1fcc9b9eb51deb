// Fixture: a file that violates nothing — strings and comments that
// merely *mention* flagged constructs must not trip the rules.

use std::collections::BTreeMap;

/// Talks about `etcd.watch_prefix(sim, "jobs/", handler);` in docs only.
pub fn narrate() -> String {
    let mut m: BTreeMap<&str, &str> = BTreeMap::new();
    // A comment spelling `match r { Err(_) => {} }` swallows nothing.
    m.insert("note", "the string \"lease_grant(sim, ttl);\" is data, not code");
    m.insert("raw", r#"match probe() { Err(_) => {} } inside a raw string"#);
    m.values().cloned().collect::<Vec<_>>().join("; ")
}
