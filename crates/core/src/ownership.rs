//! Leadership ledger: the observability half of the replicated LCM.
//!
//! The LCM has one shard, whose owner key is the leader key (the names
//! `ShardTracker`, `shard-single-owner` and `shard-orphaned` are the one
//! shard's). The ledger reads the LCM replicas' own marks, through a tap
//! on [`LEDGER`] ([`Sim::tap`]) that [`crate::DlaasPlatform::new`]
//! installs: [`lcm::LEASE_GRANTED`] (pod, lease) names a lease's pod,
//! [`lcm::ACQUIRED_UNDER_LEASE`] and [`lcm::LOST_WITH_LEASE`] (0, lease)
//! are a claim and a release of the key, and the five sweep marks (job,
//! lease) drive a job. The invariant checker reads the ledger to enforce
//! the **at-most-one-owner** contract — the key never claimed by two live
//! replicas, no job swept by anyone but its sole claimant, and the key
//! never left unheld longer than the lease TTL plus the takeover bound
//! while a replica is alive to claim it.
//!
//! The replicas never consult the ledger (etcd's lease + CAS leader key
//! is the source of truth); it holds what each one said it believes,
//! which is what makes overlapping beliefs — the double-drive bug —
//! observable, and a traced timeline shows all that the rule judged.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use dlaas_etcd::LeaseId;
use dlaas_sim::{MarkDef, Sim, SimDuration, SimTime, Subject};

use crate::marks::lcm;

/// The LCM marks the ledger reads: a lease granted to a pod, the leader
/// key claimed and released under a lease, and the five sweeps that drive
/// a job under one.
pub const LEDGER: &[&MarkDef] = &[
    &lcm::LEASE_GRANTED,
    &lcm::ACQUIRED_UNDER_LEASE,
    &lcm::LOST_WITH_LEASE,
    &lcm::REDEPLOY_STRANDED,
    &lcm::GUARDIAN_GAVE_UP,
    &lcm::DEPLOY_TIMEOUT,
    &lcm::GC_LEFTOVERS,
    &lcm::GC_ETCD_KEYS,
];

/// One recorded violation of the at-most-one-owner contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnershipConflict {
    /// What went wrong, with the parties named.
    pub detail: String,
    /// When it was observed.
    pub at: SimTime,
}

#[derive(Debug)]
struct Inner {
    /// lease → the pod it was granted to.
    leases: BTreeMap<LeaseId, String>,
    /// Replicas currently claiming the leader key (post-fix: at most one).
    holders: BTreeSet<String>,
    /// When the holder set last became empty; `None` while it is not.
    unowned_since: Option<SimTime>,
    /// Every conflict ever observed (never cleared; checkers dedup).
    conflicts: Vec<OwnershipConflict>,
    /// Last time the invariant checker saw no live LCM replica; the
    /// orphan clock restarts from here so a full control-plane outage
    /// is not blamed on the takeover protocol.
    no_replica_seen: SimTime,
}

/// Shared handle to the ownership ledger (cloning shares state).
#[derive(Debug, Clone)]
pub struct ShardTracker {
    inner: Rc<RefCell<Inner>>,
}

impl ShardTracker {
    /// Installs a ledger on the LCM's marks, the leader key unheld from
    /// now.
    pub(crate) fn install(sim: &mut Sim) -> Self {
        let now = sim.now();
        let tracker = ShardTracker {
            inner: Rc::new(RefCell::new(Inner {
                leases: BTreeMap::new(),
                holders: BTreeSet::new(),
                unowned_since: Some(now),
                conflicts: Vec::new(),
                no_replica_seen: now,
            })),
        };
        let ledger = tracker.clone();
        sim.tap(LEDGER, move |sim, subject, def, lease| {
            let mut i = ledger.inner.borrow_mut();
            // Past the grant, a job's mark in the list is a sweep; past the
            // claim, the key's is a release.
            match subject {
                Subject::Name(pod) if def == &lcm::LEASE_GRANTED => {
                    i.leases.insert(lease, pod.to_owned());
                }
                Subject::Name(job) => i.note_sweep(sim.now(), job, lease),
                Subject::Num(_) if def == &lcm::ACQUIRED_UNDER_LEASE => {
                    i.claim(sim.now(), lease);
                }
                Subject::Num(_) => i.release(sim.now(), lease),
            }
            true
        });
        tracker
    }

    /// Current claimants of the leader key, in name order.
    #[cfg(test)]
    fn owners(&self) -> Vec<String> {
        self.inner.borrow().holders.iter().cloned().collect()
    }

    /// Every conflict observed so far.
    pub fn conflicts(&self) -> Vec<OwnershipConflict> {
        self.inner.borrow().conflicts.clone()
    }

    /// The invariant checker observed no live LCM replica: restart the
    /// orphan clock so downtime is not charged to takeover latency.
    pub fn note_no_live_replica(&self, sim: &Sim) {
        self.inner.borrow_mut().no_replica_seen = sim.now();
    }

    /// How long the leader key has been unheld, if longer than `bound`,
    /// counting only time since the last known all-replicas-down
    /// observation.
    pub fn orphaned(&self, now: SimTime, bound: SimDuration) -> Option<SimDuration> {
        let i = self.inner.borrow();
        let start = i.unowned_since?.max(i.no_replica_seen);
        let waited = now.saturating_duration_since(start);
        (waited > bound).then_some(waited)
    }
}

impl Inner {
    /// The pod `lease` was granted to.
    fn pod(&self, lease: LeaseId) -> String {
        self.leases.get(&lease).cloned().unwrap_or_default()
    }

    /// The holder of `lease` believes it now holds the leader key.
    fn claim(&mut self, now: SimTime, lease: LeaseId) {
        let who = self.pod(lease);
        self.unowned_since = None;
        if self.holders.is_empty() || self.holders.contains(&who) {
            self.holders.insert(who);
            return;
        }
        let holders: Vec<&str> = self.holders.iter().map(String::as_str).collect();
        let detail = format!(
            "leader key claimed by {who} while still held by {}",
            holders.join(", ")
        );
        self.holders.insert(who);
        self.conflict(now, detail);
    }

    /// The holder of `lease` no longer claims the leader key.
    fn release(&mut self, now: SimTime, lease: LeaseId) {
        let who = self.pod(lease);
        if self.holders.remove(&who) && self.holders.is_empty() {
            self.unowned_since = Some(now);
        }
    }

    /// The holder of `lease` is about to drive a sweep action against
    /// `job`. Records a conflict if it is not the sole live claimant of
    /// the leader key — the direct signature of a double-driven job.
    fn note_sweep(&mut self, now: SimTime, job: &str, lease: LeaseId) {
        let who = self.pod(lease);
        let others: Vec<&str> = self
            .holders
            .iter()
            .filter(|c| **c != who)
            .map(String::as_str)
            .collect();
        let detail = if !self.holders.contains(&who) {
            format!("{who} swept job {job} without holding the leader key")
        } else if !others.is_empty() {
            format!(
                "job {job} swept by {who} while {} also claims the leader key",
                others.join(", ")
            )
        } else {
            return;
        };
        self.conflict(now, detail);
    }

    fn conflict(&mut self, at: SimTime, detail: String) {
        self.conflicts.push(OwnershipConflict { detail, at });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world with the ledger on it, and `lcm-0`, `lcm-1` granted leases
    /// 10 and 11.
    fn world() -> (Sim, ShardTracker) {
        let mut sim = Sim::new(1);
        let t = ShardTracker::install(&mut sim);
        sim.mark(&lcm::LEASE_GRANTED, "lcm-0", 10);
        sim.mark(&lcm::LEASE_GRANTED, "lcm-1", 11);
        (sim, t)
    }

    fn orphaned(t: &ShardTracker, sim: &Sim) -> Option<SimDuration> {
        t.orphaned(sim.now(), SimDuration::from_secs(10))
    }

    #[test]
    fn single_claimant_is_clean() {
        let (mut s, t) = world();
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, 10);
        s.mark(&lcm::REDEPLOY_STRANDED, "job-0", 10);
        assert!(t.conflicts().is_empty());
        assert_eq!(t.owners(), vec!["lcm-0"]);
    }

    #[test]
    fn overlapping_claims_conflict() {
        let (mut s, t) = world();
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, 10);
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, 11);
        assert_eq!(t.conflicts().len(), 1);
        assert!(t.conflicts()[0].detail.contains("lcm-0"));
    }

    #[test]
    fn sweep_by_non_claimant_conflicts() {
        let (mut s, t) = world();
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, 10);
        s.mark(&lcm::GC_ETCD_KEYS, "job-1", 11);
        assert_eq!(t.conflicts().len(), 1);
        assert!(t.conflicts()[0].detail.contains("without holding"));
        assert!(t.conflicts()[0].detail.starts_with("lcm-1"));
    }

    #[test]
    fn release_all_starts_the_orphan_clock() {
        let (mut s, t) = world();
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, 10);
        s.run_for(SimDuration::from_secs(5));
        // lcm-0 stops, releasing the key.
        s.mark(&lcm::LOST_WITH_LEASE, 0, 10);
        s.run_for(SimDuration::from_secs(30));
        assert_eq!(orphaned(&t, &s), Some(SimDuration::from_secs(30)));

        // A fresh claim clears the orphan state.
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, 11);
        assert_eq!(orphaned(&t, &s), None);
    }

    #[test]
    fn no_replica_observation_resets_the_orphan_clock() {
        let (mut s, t) = world();
        s.run_for(SimDuration::from_secs(60));
        t.note_no_live_replica(&s);
        assert_eq!(orphaned(&t, &s), None, "downtime is not takeover latency");
        s.run_for(SimDuration::from_secs(20));
        assert_eq!(orphaned(&t, &s), Some(SimDuration::from_secs(20)));
    }
}
