//! Shard-ownership ledger: the observability half of LCM sharding.
//!
//! The ledger reads the LCM replicas' own marks, through a tap on
//! [`LEDGER`] ([`Sim::tap`]) that [`crate::DlaasPlatform::new`] installs:
//! [`lcm::LEASE_GRANTED`] (pod, lease) names a lease's pod,
//! [`lcm::ACQUIRED_UNDER_LEASE`] and [`lcm::LOST_WITH_LEASE`] (shard,
//! lease) are a claim and a release, and the five sweep marks (job,
//! lease) drive a job in its shard ([`crate::paths::job_shard`]). The
//! invariant checker reads the ledger to enforce the
//! **at-most-one-owner** contract — no shard claimed by two live
//! replicas, no job swept by anyone but the shard's sole claimant, and
//! no shard left unowned longer than the lease TTL plus the takeover
//! bound while a replica is alive to adopt it.
//!
//! The replicas never consult the ledger (etcd's lease + CAS owner key
//! is the source of truth); it holds what each one said it believes,
//! which is what makes overlapping beliefs — the double-drive bug —
//! observable, and a traced timeline shows all that the rule judged.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use dlaas_etcd::LeaseId;
use dlaas_sim::{MarkDef, Sim, SimDuration, SimTime, Subject};

use crate::config;
use crate::marks::lcm;
use crate::paths;

/// The LCM marks the ledger reads: a lease granted to a pod, a shard
/// claimed and released under a lease, and the five sweeps that drive a
/// job under one.
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
    /// The contested shard.
    pub shard: u32,
    /// What went wrong, with the parties named.
    pub detail: String,
    /// When it was observed.
    pub at: SimTime,
}

#[derive(Debug)]
struct Inner {
    /// lease → the pod it was granted to.
    leases: BTreeMap<LeaseId, String>,
    /// shard → replicas currently claiming it (post-fix: at most one).
    claimants: BTreeMap<u32, BTreeSet<String>>,
    /// shard → when its claimant set last became empty.
    unowned_since: BTreeMap<u32, SimTime>,
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
    /// Installs a ledger on the LCM's marks, every one of its
    /// [`config::LCM_SHARDS`] shards unowned from now.
    pub(crate) fn install(sim: &mut Sim) -> Self {
        let now = sim.now();
        let tracker = ShardTracker {
            inner: Rc::new(RefCell::new(Inner {
                leases: BTreeMap::new(),
                claimants: BTreeMap::new(),
                unowned_since: (0..config::LCM_SHARDS).map(|s| (s, now)).collect(),
                conflicts: Vec::new(),
                no_replica_seen: now,
            })),
        };
        let ledger = tracker.clone();
        sim.tap(LEDGER, move |sim, subject, def, lease| {
            let mut i = ledger.inner.borrow_mut();
            // Past the grant, a job's mark in the list is a sweep; past the
            // claim, a shard's is a release.
            match subject {
                Subject::Name(pod) if def == &lcm::LEASE_GRANTED => {
                    i.leases.insert(lease, pod.to_owned());
                }
                Subject::Name(job) => i.note_sweep(sim.now(), job, lease),
                Subject::Num(shard) if def == &lcm::ACQUIRED_UNDER_LEASE => {
                    i.claim(sim.now(), shard, lease);
                }
                Subject::Num(shard) => i.release(sim.now(), shard, lease),
            }
            true
        });
        tracker
    }

    /// Current claimants of `shard`, in name order.
    #[cfg(test)]
    fn owners(&self, shard: u32) -> Vec<String> {
        self.inner
            .borrow()
            .claimants
            .get(&shard)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
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

    /// Shards unowned for longer than `bound`, with how long, counting
    /// only time since the last known all-replicas-down observation.
    pub fn orphaned(&self, now: SimTime, bound: SimDuration) -> Vec<(u32, SimDuration)> {
        let i = self.inner.borrow();
        i.unowned_since
            .iter()
            .filter_map(|(s, since)| {
                let start = (*since).max(i.no_replica_seen);
                let waited = now.saturating_duration_since(start);
                (waited > bound).then_some((*s, waited))
            })
            .collect()
    }
}

impl Inner {
    /// The pod `lease` was granted to.
    fn pod(&self, lease: LeaseId) -> String {
        self.leases.get(&lease).cloned().unwrap_or_default()
    }

    /// The holder of `lease` believes it now owns `shard`.
    fn claim(&mut self, now: SimTime, shard: u32, lease: LeaseId) {
        let who = self.pod(lease);
        self.unowned_since.remove(&shard);
        let set = self.claimants.entry(shard).or_default();
        if set.is_empty() || set.contains(&who) {
            set.insert(who);
            return;
        }
        let holders: Vec<&str> = set.iter().map(String::as_str).collect();
        let detail = format!(
            "shard {shard} claimed by {who} while still held by {}",
            holders.join(", ")
        );
        set.insert(who);
        self.conflict(now, shard, detail);
    }

    /// The holder of `lease` no longer claims `shard`.
    fn release(&mut self, now: SimTime, shard: u32, lease: LeaseId) {
        let who = self.pod(lease);
        if let Some(set) = self.claimants.get_mut(&shard) {
            set.remove(&who);
            if set.is_empty() {
                self.claimants.remove(&shard);
                self.unowned_since.insert(shard, now);
            }
        }
    }

    /// The holder of `lease` is about to drive a sweep action against
    /// `job`. Records a conflict if it is not the sole live claimant of
    /// the job's shard — the direct signature of a double-driven job.
    fn note_sweep(&mut self, now: SimTime, job: &str, lease: LeaseId) {
        let shard = paths::job_shard(job, config::LCM_SHARDS);
        let who = self.pod(lease);
        let set = self.claimants.get(&shard).cloned().unwrap_or_default();
        let others: Vec<String> = set.iter().filter(|c| **c != who).cloned().collect();
        let detail = if !set.contains(&who) {
            format!("{who} swept job {job} in shard {shard} without claiming it")
        } else if !others.is_empty() {
            format!(
                "job {job} in shard {shard} swept by {who} while {} also claims it",
                others.join(", ")
            )
        } else {
            return;
        };
        self.conflict(now, shard, detail);
    }

    fn conflict(&mut self, at: SimTime, shard: u32, detail: String) {
        self.conflicts.push(OwnershipConflict { shard, detail, at });
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

    /// A job id that hashes into `shard`.
    fn job_in(shard: u32) -> String {
        (0..)
            .map(|i| format!("job-{i}"))
            .find(|j| paths::job_shard(j, config::LCM_SHARDS) == shard)
            .unwrap_or_default()
    }

    fn orphans(t: &ShardTracker, sim: &Sim) -> Vec<u32> {
        let bound = SimDuration::from_secs(10);
        t.orphaned(sim.now(), bound).iter().map(|o| o.0).collect()
    }

    #[test]
    fn single_claimant_is_clean() {
        let (mut s, t) = world();
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, 10);
        s.mark(&lcm::REDEPLOY_STRANDED, job_in(0).as_str(), 10);
        assert!(t.conflicts().is_empty());
        assert_eq!(t.owners(0), vec!["lcm-0"]);
    }

    #[test]
    fn overlapping_claims_conflict() {
        let (mut s, t) = world();
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 2, 10);
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 2, 11);
        assert_eq!(t.conflicts().len(), 1);
        assert!(t.conflicts()[0].detail.contains("lcm-0"));
    }

    #[test]
    fn sweep_by_non_claimant_conflicts() {
        let (mut s, t) = world();
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 1, 10);
        s.mark(&lcm::GC_ETCD_KEYS, job_in(1).as_str(), 11);
        assert_eq!(t.conflicts().len(), 1);
        assert!(t.conflicts()[0].detail.contains("without claiming"));
        assert!(t.conflicts()[0].detail.starts_with("lcm-1"));
    }

    #[test]
    fn release_all_starts_the_orphan_clock() {
        let (mut s, t) = world();
        let all: Vec<u32> = (0..config::LCM_SHARDS).collect();
        for &shard in &all {
            s.mark(&lcm::ACQUIRED_UNDER_LEASE, shard, 10);
        }
        s.run_for(SimDuration::from_secs(5));
        // lcm-0 stops, releasing every shard it held.
        for &shard in &all {
            s.mark(&lcm::LOST_WITH_LEASE, shard, 10);
        }
        s.run_for(SimDuration::from_secs(30));
        let orphaned = t.orphaned(s.now(), SimDuration::from_secs(10));
        assert_eq!(orphaned.iter().map(|o| o.0).collect::<Vec<_>>(), all);
        assert!(orphaned.iter().all(|o| o.1 == SimDuration::from_secs(30)));

        // A fresh claim clears the orphan state.
        s.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, 11);
        assert_eq!(orphans(&t, &s), all[1..]);
    }

    #[test]
    fn no_replica_observation_resets_the_orphan_clock() {
        let (mut s, t) = world();
        s.run_for(SimDuration::from_secs(60));
        t.note_no_live_replica(&s);
        assert!(
            orphans(&t, &s).is_empty(),
            "downtime is not takeover latency"
        );
        s.run_for(SimDuration::from_secs(20));
        assert_eq!(orphans(&t, &s).len(), config::LCM_SHARDS as usize);
    }
}
