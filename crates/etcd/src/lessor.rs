//! The leader's lessor: lease deadlines, kept only where they are acted on.
//!
//! As in etcd, a lease's deadline is not replicated. The member that leads
//! keeps every lease's deadline in its lessor; a renewal moves one there,
//! after a ReadIndex round confirms the leadership, and costs no log
//! entry. A new leader starts every lease afresh (now + TTL) once its
//! term's no-op has applied, as etcd's `lessor.Promote` does. Followers
//! keep no deadlines and sweep nothing.
//!
//! The holder's fence is the instant it sent its last acknowledged
//! renewal plus the TTL. It is never later than the instant any member
//! applies a revoke of the lease:
//!
//! - a renewal received at `r` moves the deadline to at least `r + TTL`,
//!   and it was sent before `r`;
//! - a leader proposes a revoke only once the deadline has passed, and
//!   refuses a renewal whose deadline has passed, so no acknowledged
//!   renewal follows a revoke it proposed;
//! - a new leader was elected after the older term's last acknowledged
//!   renewal was received (a quorum acknowledged that term's round, and
//!   one of them voted for the new leader afterwards), so its promotion
//!   deadlines lie later still; and it answers no renewal before its
//!   no-op applied, by which time every revoke an older term proposed has
//!   applied too (the lease is gone and the renewal is refused).

use std::collections::BTreeMap;

use dlaas_raft::Term;
use dlaas_sim::{SimDuration, SimTime};

use crate::kv::{KvState, LeaseId};

/// What a renewal found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Renewal {
    /// The deadline moved to the receipt instant plus the TTL.
    Renewed,
    /// The lease is unknown, revoked, or past its deadline (its revoke may
    /// be in the log): the holder must stop relying on it.
    Expired,
}

/// One leader's lease deadlines, from its promotion in `term`.
#[derive(Debug)]
pub(crate) struct Lessor {
    term: Term,
    /// Each live lease's deadline and TTL.
    leases: BTreeMap<LeaseId, (SimTime, SimDuration)>,
}

impl Lessor {
    /// The lessor of a member promoted at `now` in `term`: every lease in
    /// `kv` lives until `now` plus its TTL.
    pub(crate) fn promote(term: Term, kv: &KvState, now: SimTime) -> Self {
        let leases = kv
            .leases()
            .iter()
            .map(|(id, rec)| {
                let ttl = SimDuration::from_micros(rec.ttl_us);
                (*id, (now + ttl, ttl))
            })
            .collect();
        Lessor { term, leases }
    }

    /// The term the lessor was promoted in; it speaks only while its
    /// member leads that term.
    pub(crate) fn term(&self) -> Term {
        self.term
    }

    /// A grant applied at `now`.
    pub(crate) fn granted(&mut self, id: LeaseId, ttl: SimDuration, now: SimTime) {
        self.leases.insert(id, (now + ttl, ttl));
    }

    /// A revoke applied.
    pub(crate) fn revoked(&mut self, id: LeaseId) {
        self.leases.remove(&id);
    }

    /// A renewal of `id` received at `receipt`, answered at `now` once
    /// leadership was confirmed. Deadlines only move forward; one that has
    /// passed by `now` is not renewed (the sweep may have proposed the
    /// revoke).
    pub(crate) fn renew(&mut self, id: LeaseId, receipt: SimTime, now: SimTime) -> Renewal {
        match self.leases.get_mut(&id) {
            Some((deadline, ttl)) if *deadline > now => {
                *deadline = (*deadline).max(receipt + *ttl);
                Renewal::Renewed
            }
            _ => Renewal::Expired,
        }
    }

    /// The earliest deadline: when the sweep next has something to do.
    pub(crate) fn earliest(&self) -> Option<SimTime> {
        self.leases.values().map(|(deadline, _)| *deadline).min()
    }

    /// The leases whose deadline is at or before `now`, in id order.
    pub(crate) fn expired(&self, now: SimTime) -> Vec<LeaseId> {
        self.leases
            .iter()
            .filter(|(_, (deadline, _))| *deadline <= now)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Every lease's deadline, in id order.
    pub(crate) fn deadlines(&self) -> impl Iterator<Item = (LeaseId, SimTime)> + '_ {
        self.leases
            .iter()
            .map(|(id, (deadline, _))| (*id, *deadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{KvCommand, KvOp};

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn lessor_with(ttls: &[u64], now: u64) -> Lessor {
        let mut kv = KvState::new();
        for &ttl_us in ttls {
            kv.apply(&KvCommand {
                req_id: 0,
                op: KvOp::LeaseGrant { ttl_us },
            });
        }
        Lessor::promote(1, &kv, at(now))
    }

    #[test]
    fn promotion_starts_every_lease_afresh() {
        let lessor = lessor_with(&[1_000, 2_000], 500);
        assert_eq!(
            lessor.deadlines().collect::<Vec<_>>(),
            [(1, at(1_500)), (2, at(2_500))]
        );
        assert_eq!(lessor.earliest(), Some(at(1_500)));
    }

    #[test]
    fn renewals_extend_and_never_shorten() {
        let mut lessor = lessor_with(&[1_000], 0);
        assert_eq!(lessor.renew(1, at(500), at(600)), Renewal::Renewed);
        assert_eq!(lessor.earliest(), Some(at(1_500)));
        // A renewal received earlier but answered later never rewinds.
        assert_eq!(lessor.renew(1, at(100), at(700)), Renewal::Renewed);
        assert_eq!(lessor.earliest(), Some(at(1_500)));
        assert_eq!(lessor.renew(7, at(100), at(700)), Renewal::Expired);
    }

    #[test]
    fn a_lease_past_its_deadline_is_not_renewed() {
        let mut lessor = lessor_with(&[1_000], 0);
        // Received in time, but confirmed at the deadline: the sweep may
        // already have proposed the revoke.
        assert_eq!(lessor.renew(1, at(900), at(1_000)), Renewal::Expired);
        assert_eq!(lessor.earliest(), Some(at(1_000)));
        lessor.revoked(1);
        assert_eq!(lessor.renew(1, at(1_100), at(1_200)), Renewal::Expired);
        assert_eq!(lessor.earliest(), None);
    }

    #[test]
    fn expired_leases_reports_in_id_order() {
        let mut lessor = lessor_with(&[500, 2_000], 0);
        lessor.granted(3, SimDuration::from_micros(100), at(200));
        assert_eq!(lessor.expired(at(600)), vec![1, 3]);
        assert_eq!(lessor.expired(at(50)), Vec::<LeaseId>::new());
    }
}
