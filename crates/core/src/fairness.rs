//! Deterministic weighted fair admission for over-quota submissions.
//!
//! Over-quota jobs are recorded as QUEUED (never rejected, never lost —
//! the same durability argument §III-c makes for submissions). The LCM
//! leader (the replica holding the leader key) runs [`admission_plan`]
//! on every scan tick and whenever a job ends: a pure function from
//! (tenant registry, active GPU usage, queued jobs) to the ordered list
//! of jobs to admit this round.
//! Keeping the policy pure makes it trivially testable and guarantees
//! the queue state can always be recomputed from the store — there is no
//! arbiter-local state to lose on failover: a new leader rebuilds the
//! queue from the full change feed.
//!
//! Policy: per tenant, queued jobs drain in FIFO order (oldest
//! `submitted_us`, then job id — no intra-tenant reordering, so one
//! tenant's big job is never starved by its own small ones). Across
//! tenants, the next admission goes to the eligible tenant with the
//! lowest `usage / weight` ratio (classic weighted fair sharing),
//! comparing by cross-multiplication in integers so the order is exact
//! and platform-independent. A tenant is eligible when its oldest queued
//! job fits inside its quota headroom. Ties break on tenant id, so the
//! whole plan is a deterministic function of its inputs.

use std::collections::BTreeMap;

use crate::job::JobId;

/// A tenant's share parameters, as read from the tenants collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantShare {
    /// GPU quota (0 = unlimited; such tenants never queue, but a quota
    /// edit can leave queued jobs behind — they admit immediately).
    pub max_gpus: u32,
    /// Fair-share weight (≥ 1).
    pub weight: u32,
}

/// One QUEUED job, as seen by the arbiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    /// The job id.
    pub job: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// GPU demand.
    pub gpus: u32,
    /// Submission timestamp (µs) — the FIFO key within a tenant.
    pub since_us: u64,
}

/// Computes the ordered admission list for one arbiter round.
///
/// `held` lists `(tenant id, GPUs)` held by non-terminal, admitted jobs
/// (QUEUED jobs do not count) — one pair per job or per tenant, they are
/// summed. Tenants absent from `tenants` (deleted mid-flight) are never
/// admitted; their jobs stay queued until an operator re-creates the
/// tenant or kills them. Both lists are borrowed from the caller's view,
/// so a round copies nothing of it.
///
/// The function admits greedily until no tenant is eligible, charging
/// each admission against the tenant's headroom as it goes, so the
/// returned list is exactly what a sequential arbiter would admit.
pub fn admission_plan<'a>(
    tenants: &BTreeMap<String, TenantShare>,
    held: impl IntoIterator<Item = (&'a str, u32)>,
    queued: impl IntoIterator<Item = &'a QueuedJob>,
) -> Vec<JobId> {
    // Per-tenant FIFO queues, sorted (since_us, job id).
    let mut fifos: BTreeMap<&str, Vec<&QueuedJob>> = BTreeMap::new();
    for q in queued {
        fifos.entry(&q.tenant).or_default().push(q);
    }
    for (tenant, fifo) in &mut fifos {
        fifo.sort_by(|a, b| (a.since_us, &a.job).cmp(&(b.since_us, &b.job)));
        // The API rejects jobs larger than the tenant's whole quota, but
        // a quota *cut* can strand an already-queued job below the new
        // limit. Such a job can never fit — drop it from this round so
        // it cannot head-of-line block the rest of the tenant's queue
        // (it stays QUEUED until the quota is raised or it is killed).
        if let Some(share) = tenants.get(*tenant) {
            if share.max_gpus > 0 {
                fifo.retain(|q| q.gpus <= share.max_gpus);
            }
        }
    }

    let mut use_now: BTreeMap<&str, u32> = BTreeMap::new();
    for (tenant, gpus) in held {
        *use_now.entry(tenant).or_insert(0) += gpus;
    }
    let mut next: BTreeMap<&str, usize> = fifos.keys().map(|t| (*t, 0)).collect();
    let mut plan = Vec::new();

    loop {
        // The eligible tenant with the lowest usage/weight ratio.
        let mut best: Option<(&str, u64, u32)> = None; // (tenant, usage, weight)
        for (tenant, fifo) in &fifos {
            let i = next[tenant];
            let Some(head) = fifo.get(i) else { continue };
            let Some(share) = tenants.get(*tenant) else {
                continue; // deleted tenant: not admissible
            };
            let held = use_now.get(tenant).copied().unwrap_or(0);
            let fits = share.max_gpus == 0 || held + head.gpus <= share.max_gpus;
            if !fits {
                continue;
            }
            let weight = share.weight.max(1);
            let better = match best {
                None => true,
                // a/wa < b/wb  ⇔  a*wb < b*wa (exact in u64).
                Some((bt, bu, bw)) => {
                    match (u64::from(held) * u64::from(bw)).cmp(&(bu * u64::from(weight))) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Greater => false,
                        std::cmp::Ordering::Equal => *tenant < bt,
                    }
                }
            };
            if better {
                best = Some((tenant, u64::from(held), weight));
            }
        }
        let Some((tenant, _, _)) = best else { break };
        let head = fifos[tenant][next[&tenant]];
        plan.push(head.job.clone());
        *use_now.entry(tenant).or_insert(0) += head.gpus;
        *next.entry(tenant).or_insert(0) += 1;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(max_gpus: u32, weight: u32) -> TenantShare {
        TenantShare { max_gpus, weight }
    }

    fn qj(job: &str, tenant: &str, gpus: u32, since_us: u64) -> QueuedJob {
        QueuedJob {
            job: JobId::new(job),
            tenant: tenant.into(),
            gpus,
            since_us,
        }
    }

    fn ids(plan: &[JobId]) -> Vec<&str> {
        plan.iter().map(JobId::as_str).collect()
    }

    /// A tiny deterministic generator for the property-style tests (the
    /// sim's SimRng lives a crate up; splitmix64 is plenty here).
    struct Gen(u64);
    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn drains_fifo_within_a_tenant() {
        let tenants = BTreeMap::from([("a".to_owned(), share(4, 1))]);
        let usage = [];
        let queued = [
            qj("j3", "a", 1, 30),
            qj("j1", "a", 1, 10),
            qj("j2", "a", 1, 20),
        ];
        let plan = admission_plan(&tenants, usage, &queued);
        assert_eq!(ids(&plan), ["j1", "j2", "j3"]);
    }

    #[test]
    fn weighted_interleave_across_tenants() {
        // Whale (weight 3) vs small (weight 1), both starting at zero
        // usage, 1-GPU jobs, generous quotas: the whale should land ~3
        // admissions per small-tenant admission.
        let tenants = BTreeMap::from([
            ("small".to_owned(), share(100, 1)),
            ("whale".to_owned(), share(100, 3)),
        ]);
        let usage = [];
        let mut queued = Vec::new();
        for i in 0u64..6 {
            queued.push(qj(&format!("w{i}"), "whale", 1, i));
        }
        for i in 0u64..2 {
            queued.push(qj(&format!("s{i}"), "small", 1, i));
        }
        let plan = admission_plan(&tenants, usage, &queued);
        // Ratios replay: both 0 → tie → "small"; then whale until 3/3 ==
        // 1/1, tie → small again; etc.
        assert_eq!(ids(&plan), ["s0", "w0", "w1", "w2", "s1", "w3", "w4", "w5"]);
    }

    #[test]
    fn quota_headroom_gates_admission() {
        let tenants = BTreeMap::from([("a".to_owned(), share(4, 1))]);
        let usage = [("a", 3)];
        let queued = [qj("big", "a", 2, 10), qj("fits", "a", 1, 20)];
        // Head-of-line: the 2-GPU job doesn't fit (3+2 > 4) and the
        // tenant's later 1-GPU job must NOT jump it.
        let plan = admission_plan(&tenants, usage, &queued);
        assert!(plan.is_empty());
    }

    #[test]
    fn admissions_charge_headroom_as_they_go() {
        let tenants = BTreeMap::from([("a".to_owned(), share(3, 1))]);
        let usage = [];
        let queued = [
            qj("j1", "a", 2, 10),
            qj("j2", "a", 1, 20),
            qj("j3", "a", 1, 30),
        ];
        // 2 + 1 fills the quota; j3 waits for a future round.
        let plan = admission_plan(&tenants, usage, &queued);
        assert_eq!(ids(&plan), ["j1", "j2"]);
    }

    #[test]
    fn quota_cut_strands_do_not_block_the_queue() {
        let tenants = BTreeMap::from([("t".to_owned(), share(4, 1))]);
        let usage = [];
        // The head job demands 8 GPUs against a quota of 4 (stranded by
        // a quota cut): it must be skipped, not block the tenant.
        let queued = vec![qj("big", "t", 8, 0), qj("ok", "t", 2, 1)];
        let plan = admission_plan(&tenants, usage, &queued);
        assert_eq!(ids(&plan), ["ok"]);
    }

    #[test]
    fn deleted_tenant_jobs_stay_queued() {
        let tenants = BTreeMap::from([("alive".to_owned(), share(8, 1))]);
        let usage = [];
        let queued = [qj("ghost", "gone", 1, 1), qj("ok", "alive", 1, 2)];
        assert_eq!(ids(&admission_plan(&tenants, usage, &queued)), ["ok"]);
    }

    #[test]
    fn unlimited_tenant_admits_immediately() {
        // A quota edit to unlimited (0) releases anything still queued.
        let tenants = BTreeMap::from([("a".to_owned(), share(0, 1))]);
        let usage = [("a", 1000)];
        let queued = [qj("j1", "a", 64, 1)];
        assert_eq!(ids(&admission_plan(&tenants, usage, &queued)), ["j1"]);
    }

    #[test]
    fn no_starvation_under_whale_flood() {
        // One small tenant with a single queued job vs a whale flooding
        // 500 jobs with an earlier timestamp and a 4× weight. The small
        // tenant's job must appear in the plan — weighted fair sharing
        // by usage ratio, not global FIFO, is what prevents starvation.
        let tenants = BTreeMap::from([
            ("small".to_owned(), share(8, 1)),
            ("whale".to_owned(), share(64, 4)),
        ]);
        let usage = [];
        let mut queued = Vec::new();
        for i in 0..500u64 {
            queued.push(qj(&format!("w{i:03}"), "whale", 1, i));
        }
        queued.push(qj("s0", "small", 1, 1_000_000));
        let plan = admission_plan(&tenants, usage, &queued);
        let pos = plan.iter().position(|j| j.as_str() == "s0");
        // It is admitted, and within the first few slots (usage ratio 0
        // beats the whale as soon as the whale holds ≥ 1 GPU).
        assert!(pos.is_some_and(|p| p < 3), "small tenant starved: {pos:?}");
    }

    #[test]
    fn plan_is_independent_of_input_order() {
        // The arbiter rebuilds its queue view from watch deltas, so the
        // slice order it passes in is an implementation artifact; the
        // plan must be a function of the *set* of queued jobs.
        let tenants = BTreeMap::from([
            ("a".to_owned(), share(16, 2)),
            ("b".to_owned(), share(8, 1)),
            ("c".to_owned(), share(4, 1)),
        ]);
        let usage = [("a", 2), ("b", 7)];
        let mut queued = Vec::new();
        let mut g = Gen(2018);
        for i in 0..60u64 {
            let tenant = ["a", "b", "c"][(g.next() % 3) as usize];
            let gpus = 1 + (g.next() % 4) as u32;
            queued.push(qj(&format!("j{i:02}"), tenant, gpus, g.next() % 1000));
        }
        let baseline = admission_plan(&tenants, usage, &queued);
        for seed in 0..8u64 {
            let mut shuffled = queued.clone();
            let mut g = Gen(seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, (g.next() % (i as u64 + 1)) as usize);
            }
            assert_eq!(admission_plan(&tenants, usage, &shuffled), baseline);
        }
    }

    #[test]
    fn plan_matches_from_scratch_recomputation_under_races() {
        // Simulate the arbiter's incremental view racing tenant
        // add/remove: applying the plan one admission at a time (moving
        // usage forward) and re-running the pure function must yield the
        // same remaining plan — i.e. the queue is always recomputable
        // from the store with no hidden arbiter state.
        let tenants = BTreeMap::from([
            ("a".to_owned(), share(12, 3)),
            ("b".to_owned(), share(6, 1)),
        ]);
        let mut usage: Vec<(&str, u32)> = Vec::new();
        let mut g = Gen(7);
        let mut queued: Vec<QueuedJob> = (0..40u64)
            .map(|i| {
                let tenant = ["a", "b"][(g.next() % 2) as usize];
                qj(&format!("j{i:02}"), tenant, 1 + (g.next() % 3) as u32, i)
            })
            .collect();
        let full = admission_plan(&tenants, usage.clone(), &queued);
        let mut replay = Vec::new();
        while replay.len() < full.len() {
            let plan = admission_plan(&tenants, usage.clone(), &queued);
            let head = plan[0].clone();
            let i = queued.iter().position(|q| q.job == head).unwrap();
            let q = queued.remove(i);
            // One pair per admitted job: the plan sums them per tenant.
            let tenant = if q.tenant == "a" { "a" } else { "b" };
            usage.push((tenant, q.gpus));
            replay.push(head);
        }
        assert_eq!(replay, full);
    }

    #[test]
    fn tenant_add_remove_races_converge() {
        // A tenant removed between sweeps parks its jobs; re-adding it
        // (even with different share parameters) yields exactly the plan
        // a from-scratch arbiter would compute — queued state lives
        // entirely in the store, so the race cannot corrupt the queue.
        let mut g = Gen(11);
        let queued: Vec<QueuedJob> = (0..30u64)
            .map(|i| {
                let tenant = ["a", "b"][(g.next() % 2) as usize];
                qj(&format!("j{i:02}"), tenant, 1, i)
            })
            .collect();
        let usage = [];
        let both = BTreeMap::from([("a".to_owned(), share(8, 1)), ("b".to_owned(), share(8, 2))]);
        let mut only_a = both.clone();
        only_a.remove("b");

        let without_b = admission_plan(&only_a, usage, &queued);
        assert!(without_b
            .iter()
            .all(|j| { queued.iter().any(|q| q.job == *j && q.tenant == "a") }));
        // Re-add "b" with a different weight: identical to computing
        // fresh with that registry — no memory of the removal.
        let mut readded = only_a.clone();
        readded.insert("b".to_owned(), share(8, 4));
        assert_eq!(
            admission_plan(&readded, usage, &queued),
            admission_plan(
                &BTreeMap::from([("a".to_owned(), share(8, 1)), ("b".to_owned(), share(8, 4)),]),
                usage,
                &queued
            )
        );
    }
}
