//! The replicated key-value state machine.
//!
//! [`KvState`] is deterministic: applying the same command sequence always
//! produces the same store, which is what lets a restarted etcd node
//! rebuild itself by replaying the Raft log.

use std::collections::{BTreeMap, BTreeSet};

/// A store revision; increments on every mutating command that changes
/// state (mirrors etcd's `mod_revision` semantics at key granularity).
pub type Revision = u64;

/// A lease identifier, allocated by the state machine at apply time so
/// every replica agrees on it (ids start at 1; 0 never names a lease).
pub type LeaseId = u64;

/// One granted lease. The deadline is stamped by the *proposing* server
/// from its sim clock and replicated verbatim, so all replicas store an
/// identical deadline regardless of when they apply the entry. Expiry is
/// revoke-driven: a lease stays live until a [`KvOp::LeaseRevoke`]
/// commits, and log order — not wall inspection — is what fences a
/// stale holder out (a CAS naming a revoked lease can never win).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRecord {
    /// Granted time-to-live, microseconds of sim time.
    pub ttl_us: u64,
    /// Sim-time deadline after which the leader's sweep may revoke.
    pub deadline_us: u64,
    /// Keys currently attached to this lease (deleted on revoke).
    pub keys: BTreeSet<String>,
}

/// One stored value with its revision metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The value bytes (string-typed; DLaaS stores JSON/status strings).
    pub value: String,
    /// Revision at which the key was created.
    pub create_revision: Revision,
    /// Revision of the most recent modification.
    pub mod_revision: Revision,
    /// Number of modifications since creation (1 = just created).
    pub version: u64,
    /// Lease this key is attached to, if any (key dies with the lease).
    pub lease: Option<LeaseId>,
}

/// Mutating operations, replicated through Raft.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Leader barrier entry; changes nothing.
    Noop,
    /// Sets `key` to `value`.
    Put {
        /// Key to set.
        key: String,
        /// New value.
        value: String,
        /// Lease to attach the key to (`None` detaches). The put fails
        /// if the named lease has been revoked.
        lease: Option<LeaseId>,
    },
    /// Removes `key` (no-op if absent).
    Delete {
        /// Key to remove.
        key: String,
    },
    /// Removes every key with the given prefix.
    DeletePrefix {
        /// Prefix to remove.
        prefix: String,
    },
    /// Compare-and-swap: if the current value of `key` equals `expect`
    /// (`None` = key absent), set it to `value` (`None` = delete).
    Cas {
        /// Key to conditionally modify.
        key: String,
        /// Expected current value (`None` expects absence).
        expect: Option<String>,
        /// Replacement (`None` deletes the key).
        value: Option<String>,
        /// Lease to attach the written key to. A CAS naming a revoked
        /// lease fails outright — this is the fence that keeps a shard
        /// owner whose lease expired from re-winning the owner key.
        lease: Option<LeaseId>,
    },
    /// Grants a new lease. `now_us` is the proposer's sim clock at
    /// proposal time; the deadline `now_us + ttl_us` is replicated so
    /// every node stores the same expiry.
    LeaseGrant {
        /// Time-to-live in sim microseconds.
        ttl_us: u64,
        /// Proposer's sim clock at grant time.
        now_us: u64,
    },
    /// Extends a lease's deadline to `now_us + ttl`. Fails (without
    /// burning a revision) if the lease has been revoked.
    LeaseKeepAlive {
        /// The lease to refresh.
        id: LeaseId,
        /// Proposer's sim clock at keepalive time.
        now_us: u64,
    },
    /// Revokes a lease and deletes every attached key (ordinary delete
    /// events, so watchers observe expiry as plain deletions).
    LeaseRevoke {
        /// The lease to revoke.
        id: LeaseId,
        /// When set, the revoke is an expiry sweep: it only applies if
        /// the stored deadline is `<=` this stamp. A keepalive that
        /// raced ahead in the log pushes the deadline out and the
        /// guarded revoke becomes a no-op — the holder wins.
        if_expired_at_us: Option<u64>,
    },
}

/// A replicated command: an operation tagged with the proposing client's
/// request id so the proposing server can correlate commitment with the
/// outstanding RPC (0 = no correlation, e.g. the leader no-op).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvCommand {
    /// Correlation id; unique per proposing server instance.
    pub req_id: u64,
    /// The operation.
    pub op: KvOp,
}

impl KvCommand {
    /// The no-op barrier command appended by new leaders.
    pub fn noop() -> Self {
        KvCommand {
            req_id: 0,
            op: KvOp::Noop,
        }
    }
}

/// A change event emitted by the state machine, fanned out to watchers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvEvent {
    /// `key` now has `value`.
    Put {
        /// The key that changed.
        key: String,
        /// Its new value.
        value: String,
        /// Revision of the change.
        revision: Revision,
    },
    /// `key` was removed.
    Delete {
        /// The key that was removed.
        key: String,
        /// Revision of the change.
        revision: Revision,
    },
}

impl KvEvent {
    /// The key this event concerns.
    pub fn key(&self) -> &str {
        match self {
            KvEvent::Put { key, .. } | KvEvent::Delete { key, .. } => key,
        }
    }

    /// The revision at which this event happened.
    pub fn revision(&self) -> Revision {
        match self {
            KvEvent::Put { revision, .. } | KvEvent::Delete { revision, .. } => *revision,
        }
    }
}

/// Result of applying a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// `false` for a failed CAS, a put/CAS naming a revoked lease, or a
    /// keepalive on a revoked lease.
    pub succeeded: bool,
    /// Store revision after the command.
    pub revision: Revision,
    /// Events to deliver to watchers.
    pub events: Vec<KvEvent>,
    /// The lease id allocated by a [`KvOp::LeaseGrant`].
    pub lease: Option<LeaseId>,
}

impl ApplyOutcome {
    fn new(succeeded: bool, revision: Revision, events: Vec<KvEvent>) -> Self {
        ApplyOutcome {
            succeeded,
            revision,
            events,
            lease: None,
        }
    }
}

/// The deterministic key-value store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvState {
    map: BTreeMap<String, VersionedValue>,
    revision: Revision,
    leases: BTreeMap<LeaseId, LeaseRecord>,
    next_lease_id: LeaseId,
}

impl KvState {
    /// An empty store at revision 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current store revision.
    pub fn revision(&self) -> Revision {
        self.revision
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no keys exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&VersionedValue> {
        self.map.get(key)
    }

    /// All `(key, value)` pairs with the given prefix, in key order.
    pub fn get_prefix(&self, prefix: &str) -> Vec<(String, String)> {
        self.map
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect()
    }

    /// The keys starting with `prefix`, in key order, borrowed — what a
    /// reader that only asks *which* keys exist iterates instead of
    /// copying keys and values out with [`KvState::get_prefix`].
    pub fn keys_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        self.map
            .range::<str, _>((
                std::ops::Bound::Included(prefix),
                std::ops::Bound::Unbounded,
            ))
            .map(|(k, _)| k.as_str())
            .take_while(move |k| k.starts_with(prefix))
    }

    /// The lease record for `id`, if still live.
    pub fn lease(&self, id: LeaseId) -> Option<&LeaseRecord> {
        self.leases.get(&id)
    }

    /// All live leases, in id order.
    pub fn leases(&self) -> &BTreeMap<LeaseId, LeaseRecord> {
        &self.leases
    }

    /// The earliest deadline (µs) of any live lease — when the expiry
    /// sweep next has something to do.
    pub fn earliest_lease_deadline(&self) -> Option<u64> {
        self.leases.values().map(|r| r.deadline_us).min()
    }

    /// Ids of leases whose deadline is at or before `now_us`, in id
    /// order — the candidates for the leader's guarded revoke sweep.
    pub fn expired_leases(&self, now_us: u64) -> Vec<LeaseId> {
        self.leases
            .iter()
            .filter(|(_, r)| r.deadline_us <= now_us)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Applies a replicated command, returning the outcome and events.
    pub fn apply(&mut self, cmd: &KvCommand) -> ApplyOutcome {
        match &cmd.op {
            KvOp::Noop => ApplyOutcome::new(true, self.revision, Vec::new()),
            KvOp::Put { key, value, lease } => {
                if let Some(l) = lease {
                    if !self.leases.contains_key(l) {
                        return ApplyOutcome::new(false, self.revision, Vec::new());
                    }
                }
                let ev = self.do_put(key.clone(), value.clone(), *lease);
                ApplyOutcome::new(true, self.revision, vec![ev])
            }
            KvOp::Delete { key } => {
                let events = self.do_delete(key).into_iter().collect();
                ApplyOutcome::new(true, self.revision, events)
            }
            KvOp::DeletePrefix { prefix } => {
                let keys: Vec<String> = self
                    .map
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(prefix.as_str()))
                    .map(|(k, _)| k.clone())
                    .collect();
                let mut events = Vec::new();
                for k in keys {
                    events.extend(self.do_delete(&k));
                }
                ApplyOutcome::new(true, self.revision, events)
            }
            KvOp::Cas {
                key,
                expect,
                value,
                lease,
            } => {
                if let Some(l) = lease {
                    if !self.leases.contains_key(l) {
                        return ApplyOutcome::new(false, self.revision, Vec::new());
                    }
                }
                let current = self.map.get(key).map(|v| &v.value);
                if current != expect.as_ref() {
                    return ApplyOutcome::new(false, self.revision, Vec::new());
                }
                let events = match value {
                    Some(v) => vec![self.do_put(key.clone(), v.clone(), *lease)],
                    None => self.do_delete(key).into_iter().collect(),
                };
                ApplyOutcome::new(true, self.revision, events)
            }
            KvOp::LeaseGrant { ttl_us, now_us } => {
                self.next_lease_id += 1;
                let id = self.next_lease_id;
                self.leases.insert(
                    id,
                    LeaseRecord {
                        ttl_us: *ttl_us,
                        deadline_us: now_us.saturating_add(*ttl_us),
                        keys: BTreeSet::new(),
                    },
                );
                let mut out = ApplyOutcome::new(true, self.revision, Vec::new());
                out.lease = Some(id);
                out
            }
            KvOp::LeaseKeepAlive { id, now_us } => match self.leases.get_mut(id) {
                Some(rec) => {
                    // Deadlines only move forward: a late-delivered
                    // keepalive never shortens a newer extension.
                    rec.deadline_us = rec.deadline_us.max(now_us.saturating_add(rec.ttl_us));
                    ApplyOutcome::new(true, self.revision, Vec::new())
                }
                None => ApplyOutcome::new(false, self.revision, Vec::new()),
            },
            KvOp::LeaseRevoke {
                id,
                if_expired_at_us,
            } => {
                // Already gone: idempotent success.
                let Some(rec) = self.leases.remove(id) else {
                    return ApplyOutcome::new(true, self.revision, Vec::new());
                };
                if let Some(stamp) = if_expired_at_us {
                    if rec.deadline_us > *stamp {
                        // A keepalive committed between the sweep's read
                        // and this revoke: the holder won the race, so
                        // reinstate the record untouched.
                        self.leases.insert(*id, rec);
                        return ApplyOutcome::new(true, self.revision, Vec::new());
                    }
                }
                let mut events = Vec::new();
                for k in &rec.keys {
                    events.extend(self.do_delete(k));
                }
                ApplyOutcome::new(true, self.revision, events)
            }
        }
    }

    fn do_put(&mut self, key: String, value: String, lease: Option<LeaseId>) -> KvEvent {
        self.revision += 1;
        let rev = self.revision;
        let prev_lease = self.map.get(&key).and_then(|v| v.lease);
        self.map
            .entry(key.clone())
            .and_modify(|v| {
                v.value = value.clone();
                v.mod_revision = rev;
                v.version += 1;
                v.lease = lease;
            })
            .or_insert_with(|| VersionedValue {
                value: value.clone(),
                create_revision: rev,
                mod_revision: rev,
                version: 1,
                lease,
            });
        if prev_lease != lease {
            if let Some(old) = prev_lease.and_then(|l| self.leases.get_mut(&l)) {
                old.keys.remove(&key);
            }
            if let Some(new) = lease.and_then(|l| self.leases.get_mut(&l)) {
                new.keys.insert(key.clone());
            }
        }
        KvEvent::Put {
            key,
            value,
            revision: rev,
        }
    }

    fn do_delete(&mut self, key: &str) -> Option<KvEvent> {
        if let Some(old) = self.map.remove(key) {
            if let Some(rec) = old.lease.and_then(|l| self.leases.get_mut(&l)) {
                rec.keys.remove(key);
            }
            self.revision += 1;
            Some(KvEvent::Delete {
                key: key.to_owned(),
                revision: self.revision,
            })
        } else {
            None
        }
    }

    /// Serializes the whole store for a Raft snapshot. The encoding is
    /// length-prefixed so keys and values may contain any bytes; entries
    /// are written in key order, so equal states encode identically.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(
            format!(
                "kv2 {} {} {} {}\n",
                self.revision,
                self.map.len(),
                self.leases.len(),
                self.next_lease_id
            )
            .as_bytes(),
        );
        for (k, v) in &self.map {
            out.extend_from_slice(
                format!(
                    "{} {} {} {} {} {}\n",
                    v.create_revision,
                    v.mod_revision,
                    v.version,
                    v.lease.unwrap_or(0),
                    k.len(),
                    v.value.len()
                )
                .as_bytes(),
            );
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(v.value.as_bytes());
            out.push(b'\n');
        }
        // Lease records; attached keys are rebuilt from the per-key
        // back-pointers above, so only the scalars are written.
        for (id, rec) in &self.leases {
            out.extend_from_slice(
                format!("{} {} {}\n", id, rec.ttl_us, rec.deadline_us).as_bytes(),
            );
        }
        out
    }

    /// Rebuilds a store from [`KvState::to_snapshot_bytes`] output.
    /// Returns `None` on any framing error.
    pub fn from_snapshot_bytes(data: &[u8]) -> Option<KvState> {
        fn take_line(data: &[u8], pos: &mut usize) -> Option<String> {
            let nl = data[*pos..].iter().position(|&b| b == b'\n')?;
            let line = std::str::from_utf8(&data[*pos..*pos + nl]).ok()?.to_owned();
            *pos += nl + 1;
            Some(line)
        }

        let mut pos = 0;
        let header = take_line(data, &mut pos)?;
        let mut parts = header.split(' ');
        if parts.next()? != "kv2" {
            return None;
        }
        let revision: Revision = parts.next()?.parse().ok()?;
        let count: usize = parts.next()?.parse().ok()?;
        let lease_count: usize = parts.next()?.parse().ok()?;
        let next_lease_id: LeaseId = parts.next()?.parse().ok()?;

        let mut map = BTreeMap::new();
        for _ in 0..count {
            let meta = take_line(data, &mut pos)?;
            let mut m = meta.split(' ');
            let create_revision: Revision = m.next()?.parse().ok()?;
            let mod_revision: Revision = m.next()?.parse().ok()?;
            let version: u64 = m.next()?.parse().ok()?;
            let lease_raw: LeaseId = m.next()?.parse().ok()?;
            let klen: usize = m.next()?.parse().ok()?;
            let vlen: usize = m.next()?.parse().ok()?;
            if pos + klen + vlen + 1 > data.len() {
                return None;
            }
            let key = String::from_utf8(data[pos..pos + klen].to_vec()).ok()?;
            let value = String::from_utf8(data[pos + klen..pos + klen + vlen].to_vec()).ok()?;
            pos += klen + vlen + 1;
            map.insert(
                key,
                VersionedValue {
                    value,
                    create_revision,
                    mod_revision,
                    version,
                    lease: (lease_raw != 0).then_some(lease_raw),
                },
            );
        }
        let mut leases: BTreeMap<LeaseId, LeaseRecord> = BTreeMap::new();
        for _ in 0..lease_count {
            let line = take_line(data, &mut pos)?;
            let mut m = line.split(' ');
            let id: LeaseId = m.next()?.parse().ok()?;
            let ttl_us: u64 = m.next()?.parse().ok()?;
            let deadline_us: u64 = m.next()?.parse().ok()?;
            leases.insert(
                id,
                LeaseRecord {
                    ttl_us,
                    deadline_us,
                    keys: BTreeSet::new(),
                },
            );
        }
        // Rebuild lease key attachments from the per-key back-pointers;
        // a key naming an unknown lease is a framing error.
        for (k, v) in &map {
            if let Some(l) = v.lease {
                leases.get_mut(&l)?.keys.insert(k.clone());
            }
        }
        Some(KvState {
            map,
            revision,
            leases,
            next_lease_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(k: &str, v: &str) -> KvCommand {
        KvCommand {
            req_id: 1,
            op: KvOp::Put {
                key: k.into(),
                value: v.into(),
                lease: None,
            },
        }
    }

    #[test]
    fn put_get_roundtrip_with_revisions() {
        let mut kv = KvState::new();
        assert!(kv.is_empty());
        let out = kv.apply(&put("a", "1"));
        assert!(out.succeeded);
        assert_eq!(out.revision, 1);
        assert_eq!(kv.get("a").unwrap().value, "1");
        assert_eq!(kv.get("a").unwrap().version, 1);

        kv.apply(&put("a", "2"));
        let v = kv.get("a").unwrap();
        assert_eq!(v.value, "2");
        assert_eq!(v.version, 2);
        assert_eq!(v.create_revision, 1);
        assert_eq!(v.mod_revision, 2);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn noop_changes_nothing() {
        let mut kv = KvState::new();
        kv.apply(&put("a", "1"));
        let before = kv.clone();
        let out = kv.apply(&KvCommand::noop());
        assert!(out.succeeded);
        assert!(out.events.is_empty());
        assert_eq!(kv, before);
    }

    #[test]
    fn delete_existing_and_missing() {
        let mut kv = KvState::new();
        kv.apply(&put("a", "1"));
        let out = kv.apply(&KvCommand {
            req_id: 2,
            op: KvOp::Delete { key: "a".into() },
        });
        assert_eq!(out.events.len(), 1);
        assert!(kv.get("a").is_none());

        let rev = kv.revision();
        let out = kv.apply(&KvCommand {
            req_id: 3,
            op: KvOp::Delete {
                key: "ghost".into(),
            },
        });
        assert!(out.events.is_empty());
        assert_eq!(
            kv.revision(),
            rev,
            "deleting a missing key burns no revision"
        );
    }

    #[test]
    fn prefix_queries_and_delete_prefix() {
        let mut kv = KvState::new();
        kv.apply(&put("jobs/1/status", "RUNNING"));
        kv.apply(&put("jobs/1/learner-0", "OK"));
        kv.apply(&put("jobs/2/status", "PENDING"));
        kv.apply(&put("nodes/a", "ready"));

        let jobs1 = kv.get_prefix("jobs/1/");
        assert_eq!(jobs1.len(), 2);
        assert_eq!(jobs1[0].0, "jobs/1/learner-0");

        let out = kv.apply(&KvCommand {
            req_id: 4,
            op: KvOp::DeletePrefix {
                prefix: "jobs/1/".into(),
            },
        });
        assert_eq!(out.events.len(), 2);
        assert!(kv.get_prefix("jobs/1/").is_empty());
        assert_eq!(kv.get_prefix("jobs/").len(), 1);
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut kv = KvState::new();
        kv.apply(&put("lock", "guardian-1"));

        // Wrong expectation fails and emits nothing.
        let out = kv.apply(&KvCommand {
            req_id: 5,
            op: KvOp::Cas {
                key: "lock".into(),
                expect: Some("guardian-2".into()),
                value: Some("guardian-3".into()),
                lease: None,
            },
        });
        assert!(!out.succeeded);
        assert!(out.events.is_empty());
        assert_eq!(kv.get("lock").unwrap().value, "guardian-1");

        // Correct expectation swaps.
        let out = kv.apply(&KvCommand {
            req_id: 6,
            op: KvOp::Cas {
                key: "lock".into(),
                expect: Some("guardian-1".into()),
                value: Some("guardian-2".into()),
                lease: None,
            },
        });
        assert!(out.succeeded);
        assert_eq!(kv.get("lock").unwrap().value, "guardian-2");

        // Expect-absent create.
        let out = kv.apply(&KvCommand {
            req_id: 7,
            op: KvOp::Cas {
                key: "fresh".into(),
                expect: None,
                value: Some("x".into()),
                lease: None,
            },
        });
        assert!(out.succeeded);

        // CAS-delete.
        let out = kv.apply(&KvCommand {
            req_id: 8,
            op: KvOp::Cas {
                key: "fresh".into(),
                expect: Some("x".into()),
                value: None,
                lease: None,
            },
        });
        assert!(out.succeeded);
        assert!(kv.get("fresh").is_none());
    }

    #[test]
    fn replay_determinism() {
        let cmds = vec![
            put("a", "1"),
            put("b", "2"),
            KvCommand {
                req_id: 9,
                op: KvOp::Cas {
                    key: "a".into(),
                    expect: Some("1".into()),
                    value: Some("3".into()),
                    lease: None,
                },
            },
            KvCommand {
                req_id: 10,
                op: KvOp::Delete { key: "b".into() },
            },
        ];
        let mut kv1 = KvState::new();
        let mut kv2 = KvState::new();
        for c in &cmds {
            kv1.apply(c);
        }
        for c in &cmds {
            kv2.apply(c);
        }
        assert_eq!(kv1, kv2);
        assert_eq!(kv1.revision(), 4);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut kv = KvState::new();
        kv.apply(&put("jobs/1/status", "RUNNING"));
        kv.apply(&put("jobs/1/status", "COMPLETED"));
        kv.apply(&put("weird", "line1\nline2 with spaces"));
        kv.apply(&KvCommand {
            req_id: 11,
            op: KvOp::Delete {
                key: "jobs/1/status".into(),
            },
        });
        kv.apply(&put("jobs/1/status", "PENDING"));

        let bytes = kv.to_snapshot_bytes();
        let back = KvState::from_snapshot_bytes(&bytes).expect("snapshot parses");
        assert_eq!(back, kv);

        // Empty store roundtrips too.
        let empty = KvState::new();
        assert_eq!(
            KvState::from_snapshot_bytes(&empty.to_snapshot_bytes()).unwrap(),
            empty
        );

        // Garbage is rejected, not mis-parsed.
        assert!(KvState::from_snapshot_bytes(b"not a snapshot").is_none());
        assert!(KvState::from_snapshot_bytes(&bytes[..bytes.len() - 2]).is_none());
    }

    fn grant(req_id: u64, ttl_us: u64, now_us: u64) -> KvCommand {
        KvCommand {
            req_id,
            op: KvOp::LeaseGrant { ttl_us, now_us },
        }
    }

    #[test]
    fn lease_grant_allocates_sequential_ids() {
        let mut kv = KvState::new();
        let a = kv.apply(&grant(1, 1_000, 0));
        let b = kv.apply(&grant(2, 1_000, 10));
        assert_eq!(a.lease, Some(1));
        assert_eq!(b.lease, Some(2));
        assert_eq!(kv.lease(1).unwrap().deadline_us, 1_000);
        assert_eq!(kv.lease(2).unwrap().deadline_us, 1_010);
        assert_eq!(kv.revision(), 0, "lease ops burn no revision");
    }

    #[test]
    fn keepalive_extends_and_never_shortens() {
        let mut kv = KvState::new();
        kv.apply(&grant(1, 1_000, 0));
        let out = kv.apply(&KvCommand {
            req_id: 2,
            op: KvOp::LeaseKeepAlive { id: 1, now_us: 500 },
        });
        assert!(out.succeeded);
        assert_eq!(kv.lease(1).unwrap().deadline_us, 1_500);

        // A late-delivered (older-stamped) keepalive must not rewind.
        kv.apply(&KvCommand {
            req_id: 3,
            op: KvOp::LeaseKeepAlive { id: 1, now_us: 100 },
        });
        assert_eq!(kv.lease(1).unwrap().deadline_us, 1_500);

        let out = kv.apply(&KvCommand {
            req_id: 4,
            op: KvOp::LeaseKeepAlive { id: 7, now_us: 100 },
        });
        assert!(!out.succeeded, "keepalive on unknown lease fails");
    }

    #[test]
    fn revoke_deletes_attached_keys_as_ordinary_events() {
        let mut kv = KvState::new();
        kv.apply(&grant(1, 1_000, 0));
        kv.apply(&KvCommand {
            req_id: 2,
            op: KvOp::Put {
                key: "lcm/shards/001".into(),
                value: "lcm-0".into(),
                lease: Some(1),
            },
        });
        kv.apply(&KvCommand {
            req_id: 3,
            op: KvOp::Cas {
                key: "lcm/shards/002".into(),
                expect: None,
                value: Some("lcm-0".into()),
                lease: Some(1),
            },
        });
        assert_eq!(kv.lease(1).unwrap().keys.len(), 2);

        let out = kv.apply(&KvCommand {
            req_id: 4,
            op: KvOp::LeaseRevoke {
                id: 1,
                if_expired_at_us: None,
            },
        });
        assert!(out.succeeded);
        let deleted: Vec<&str> = out.events.iter().map(KvEvent::key).collect();
        assert_eq!(deleted, vec!["lcm/shards/001", "lcm/shards/002"]);
        assert!(kv.get("lcm/shards/001").is_none());
        assert!(kv.lease(1).is_none());

        // Revoking again is idempotent.
        let out = kv.apply(&KvCommand {
            req_id: 5,
            op: KvOp::LeaseRevoke {
                id: 1,
                if_expired_at_us: None,
            },
        });
        assert!(out.succeeded);
        assert!(out.events.is_empty());
    }

    #[test]
    fn guarded_revoke_loses_to_a_keepalive_ahead_in_the_log() {
        let mut kv = KvState::new();
        kv.apply(&grant(1, 1_000, 0));
        // Keepalive commits first (deadline now 2_000)…
        kv.apply(&KvCommand {
            req_id: 2,
            op: KvOp::LeaseKeepAlive {
                id: 1,
                now_us: 1_000,
            },
        });
        // …so the sweep's revoke stamped at 1_500 is a no-op.
        let out = kv.apply(&KvCommand {
            req_id: 3,
            op: KvOp::LeaseRevoke {
                id: 1,
                if_expired_at_us: Some(1_500),
            },
        });
        assert!(out.succeeded);
        assert!(kv.lease(1).is_some(), "keepalive must win the race");

        // Once genuinely expired, the guarded revoke applies.
        let out = kv.apply(&KvCommand {
            req_id: 4,
            op: KvOp::LeaseRevoke {
                id: 1,
                if_expired_at_us: Some(2_000),
            },
        });
        assert!(out.succeeded);
        assert!(kv.lease(1).is_none());
    }

    #[test]
    fn writes_naming_a_revoked_lease_fail() {
        let mut kv = KvState::new();
        kv.apply(&grant(1, 1_000, 0));
        kv.apply(&KvCommand {
            req_id: 2,
            op: KvOp::LeaseRevoke {
                id: 1,
                if_expired_at_us: None,
            },
        });
        let out = kv.apply(&KvCommand {
            req_id: 3,
            op: KvOp::Put {
                key: "k".into(),
                value: "v".into(),
                lease: Some(1),
            },
        });
        assert!(!out.succeeded, "put with dead lease must fail");
        assert!(kv.get("k").is_none());

        let out = kv.apply(&KvCommand {
            req_id: 4,
            op: KvOp::Cas {
                key: "k".into(),
                expect: None,
                value: Some("v".into()),
                lease: Some(1),
            },
        });
        assert!(!out.succeeded, "cas with dead lease must fail");
        assert!(kv.get("k").is_none());
    }

    #[test]
    fn overwrite_moves_lease_attachment() {
        let mut kv = KvState::new();
        kv.apply(&grant(1, 1_000, 0));
        kv.apply(&grant(2, 1_000, 0));
        kv.apply(&KvCommand {
            req_id: 3,
            op: KvOp::Put {
                key: "k".into(),
                value: "a".into(),
                lease: Some(1),
            },
        });
        // Re-put under a different lease moves the attachment.
        kv.apply(&KvCommand {
            req_id: 4,
            op: KvOp::Put {
                key: "k".into(),
                value: "b".into(),
                lease: Some(2),
            },
        });
        assert!(kv.lease(1).unwrap().keys.is_empty());
        assert!(kv.lease(2).unwrap().keys.contains("k"));

        // Plain put detaches; the later revoke then spares the key.
        kv.apply(&put("k", "c"));
        assert!(kv.lease(2).unwrap().keys.is_empty());
        let out = kv.apply(&KvCommand {
            req_id: 5,
            op: KvOp::LeaseRevoke {
                id: 2,
                if_expired_at_us: None,
            },
        });
        assert!(out.events.is_empty());
        assert_eq!(kv.get("k").unwrap().value, "c");
    }

    #[test]
    fn expired_leases_reports_in_id_order() {
        let mut kv = KvState::new();
        kv.apply(&grant(1, 500, 0)); // deadline 500
        kv.apply(&grant(2, 2_000, 0)); // deadline 2000
        kv.apply(&grant(3, 100, 200)); // deadline 300
        assert_eq!(kv.expired_leases(600), vec![1, 3]);
        assert_eq!(kv.expired_leases(50), Vec::<LeaseId>::new());
    }

    #[test]
    fn snapshot_roundtrip_with_leases() {
        let mut kv = KvState::new();
        kv.apply(&grant(1, 1_000, 7));
        kv.apply(&grant(2, 9_999, 40));
        kv.apply(&KvCommand {
            req_id: 3,
            op: KvOp::Put {
                key: "lcm/shards/000".into(),
                value: "lcm-1".into(),
                lease: Some(2),
            },
        });
        kv.apply(&KvCommand {
            req_id: 4,
            op: KvOp::LeaseRevoke {
                id: 1,
                if_expired_at_us: None,
            },
        });
        let bytes = kv.to_snapshot_bytes();
        let back = KvState::from_snapshot_bytes(&bytes).expect("snapshot parses");
        assert_eq!(back, kv);
        // next_lease_id survives: a grant after restore continues at 3.
        let mut back = back;
        let out = kv.apply(&grant(5, 1, 0));
        let out2 = back.apply(&grant(5, 1, 0));
        assert_eq!(out.lease, out2.lease);
        assert_eq!(out.lease, Some(3));
    }

    #[test]
    fn event_accessors() {
        let ev = KvEvent::Put {
            key: "k".into(),
            value: "v".into(),
            revision: 3,
        };
        assert_eq!(ev.key(), "k");
        assert_eq!(ev.revision(), 3);
        let ev = KvEvent::Delete {
            key: "k".into(),
            revision: 4,
        };
        assert_eq!(ev.key(), "k");
        assert_eq!(ev.revision(), 4);
    }
}
