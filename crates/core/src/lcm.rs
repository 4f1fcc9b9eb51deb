//! The Lifecycle Manager (LCM).
//!
//! "The LCM is responsible for the job from submission to
//! completion/failure, i.e., the deployment, monitoring, garbage
//! collection, and user-initiated termination of the job. […] To deploy a
//! DL job, the LCM simply instantiates a component called the Guardian
//! with all the metadata of the DL job [as] a K8S Job." (§III-c, §III-d)
//!
//! The LCM is stateless: the metadata store is the source of truth. Its
//! periodic scan is the dependability backstop that makes the platform
//! self-healing across its own crashes:
//!
//! * accepted jobs whose `DeployJob` message was lost (e.g. the LCM died
//!   right after the API acknowledged) are picked up and deployed,
//! * jobs whose Guardian exhausted its K8s backoff limit are failed,
//! * terminal jobs with leftover cluster resources are garbage-collected.
//!
//! The scan is watch-driven: each tick pulls the jobs collection's change
//! feed above a watermark (`FindChanged`) into an in-memory watchlist and
//! walks only that, once, so per-tick work is proportional to what changed
//! plus what is actually being watched — not to the total number of jobs
//! ever submitted. Each job's rule is the pure [`decide`] over its entry,
//! the time and its Guardian K8s Job; the sweep then acts. Admission runs
//! on the tick, plus on a job's end: its Guardian's hint (`JobEnded`), or
//! the LCM's own KILLED or FAILED write, makes the leader read the feed
//! and admit at once, without a sweep; a lost hint costs one tick. The
//! watchlist is a cache, not state: an LCM restart begins at watermark 0,
//! which replays the full feed and rebuilds it, preserving the
//! statelessness the paper's recovery story relies on. One [`Replica`]
//! holds all of an incarnation's state: clients, lease, leadership and
//! watchlist.
//!
//! # Replicated LCM: one lease-held leader
//!
//! With more than one replica, one of them leads: the one holding the
//! leader key ([`paths::lcm_shard_owner`]`(0)`, the one shard's owner
//! key) in etcd, created expect-absent by CAS with the replica's lease
//! ([`crate::config::LCM_LEASE_TTL`]) attached. The leader alone reads
//! the change feed, keeps the watchlist, sweeps and runs the admission
//! arbiter. A standby holds a lease, watches the key and runs the
//! reconcile backstop; it reads no feed and keeps no watchlist. Every
//! replica serves `DeployJob` / `StopJob`, since [`ensure_guardian`] is
//! idempotent. A claim starts the leader's watchlist empty at watermark
//! 0, which is what a restart does, and a loss drops it; its size is the
//! `dlaas_lcm_watchlist_entries` gauge. When the leader dies, its lease
//! expires, etcd deletes the key, and the standbys race the delete watch
//! event (plus the reconcile backstop) to claim it — CAS picks exactly
//! one winner.
//!
//! Two defects this design exists to prevent, each with a regression
//! test in `tests/tests/recovery_bugs.rs`:
//!
//! * **Double drive** — a replica that cannot refresh its lease keeps
//!   sweeping while a standby claims the key. Prevented by a local
//!   *fence*: the deadline is stamped from the **send** time of the
//!   grant/keepalive that established it, so it is always ≤ the deadline
//!   the server holds; sweeping stops at the fence, strictly before the
//!   server can delete the key and let anyone else in.
//! * **Orphaned key** — reading the key *before* watching it misses a
//!   deletion between the two, leaving the platform without a leader
//!   until some unrelated event. Prevented by registering the watch
//!   first and treating the initial read as the first reconcile.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use dlaas_docstore::Value;
use dlaas_etcd::{EtcdClient, KvEvent, LeaseId};
use dlaas_kube::{
    labels, pod_addr, Cleanup, ContainerSpec, ImageRef, JobStatus as KubeJobStatus, PodSpec,
    ProcessCtx, Resources,
};
use dlaas_net::Addr;
use dlaas_sim::{GaugeHandle, MarkDef, Sim, SimDuration, SimTime};

use crate::config;
use crate::fairness::{admission_plan, QueuedJob, TenantShare};
use crate::handles::Handles;
use crate::job::{JobId, JobStatus};
use crate::marks::lcm;
use crate::metrics;
use crate::mongo::{MetaClient, JOBS, TENANTS};
use crate::paths;
use crate::proto::{CoreRequest, CoreResponse};
use crate::tenant::Tenant;

/// Behavior factory for the LCM container.
pub fn lcm_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let addr = pod_addr(&ctx.pod);
    sim.mark(&lcm::UP, ctx.pod.as_str(), 0);
    let rep = Rc::new(Replica {
        meta: h.meta(&ctx, &ctx.pod),
        etcdc: h.etcd_client(&ctx, &ctx.pod),
        h,
        pod: ctx.pod.clone(),
        alive: ctx.alive_flag(),
        own: RefCell::default(),
        scan: RefCell::default(),
        watched: sim
            .metrics()
            .gauge_series(metrics::LCM_WATCHLIST, [ctx.pod.as_str()]),
    });

    let rep_rpc = rep.clone();
    rep.h.rpc.serve(addr.clone(), move |sim, req, responder| {
        if !rep_rpc.alive.get() {
            return;
        }
        match req {
            CoreRequest::DeployJob { job } => {
                ensure_guardian(sim, &rep_rpc.h, job);
                responder.ok(sim, CoreResponse::Ok);
            }
            CoreRequest::StopJob { job } => {
                let rep2 = rep_rpc.clone();
                let job2 = job.clone();
                rep_rpc
                    .meta
                    .advance_status(sim, job, JobStatus::Killed, move |sim, r| match r {
                        Ok(_) => {
                            teardown_job(sim, &rep2.h, &job2, true);
                            responder.ok(sim, CoreResponse::Ok);
                            job_ended(sim, &rep2, &job2, false);
                        }
                        Err(e) => responder.err(sim, e.to_string()),
                    });
            }
            CoreRequest::JobEnded { job, forwarded } => {
                responder.ok(sim, CoreResponse::Ok);
                job_ended(sim, &rep_rpc, job, *forwarded);
            }
            _ => responder.err(sim, "not an LCM endpoint"),
        }
    });

    // Leadership machinery. The watch is registered BEFORE the first
    // read of the key (inside the post-grant reconcile): read-then-watch
    // would miss a deletion between the two and leave the platform
    // leaderless until the next unrelated event.
    let rep_watch = rep.clone();
    rep.etcdc
        .watch_prefix(sim, paths::lcm_shard_owner(0), move |sim, ev| {
            if !rep_watch.alive.get() {
                return;
            }
            match ev {
                // A claim: the key names its holder's pod, where this
                // replica forwards a hint while it stands by.
                KvEvent::Put { value, .. } => {
                    rep_watch.own.borrow_mut().holder = Some(value.clone());
                }
                // The key vanished: its holder's lease expired. Every
                // standby races for it; the CAS picks one.
                KvEvent::Delete { .. } => {
                    rep_watch.own.borrow_mut().holder = None;
                    try_acquire(sim, &rep_watch, "watch");
                }
            }
        });
    ensure_lease(sim, &rep);
    let rep_ka = rep.clone();
    let ka_timer = dlaas_sim::every(sim, config::LCM_LEASE_KEEPALIVE, move |sim, _n| {
        if !rep_ka.alive.get() {
            return false;
        }
        keepalive_tick(sim, &rep_ka);
        true
    });

    // The background scan, the leader's alone. The watchlist dies with
    // this incarnation's leadership; a successor starts at watermark 0
    // and rebuilds it from the full change feed.
    let rep_scan = rep.clone();
    let timer = dlaas_sim::every(sim, config::LCM_SCAN, move |sim, _n| {
        if !rep_scan.alive.get() {
            return false;
        }
        reconcile(sim, &rep_scan);
        scan(sim, &rep_scan, true);
        true
    });

    Box::new(move |sim| {
        timer.cancel();
        ka_timer.cancel();
        // Stand down, marking the leadership released, so a successor's
        // sweeps are not charged as conflicts with this incarnation. The
        // lease itself is deliberately NOT revoked — a real crash could
        // not have, and expiry-driven takeover is the recovery path under
        // test.
        release(sim, &rep);
        rep.h.rpc.stop_serving(&addr);
        // The per-incarnation etcd client (and the key watch on it) is
        // closed by the kubelet right after this, so a restarted pod of
        // the same name can register its own watch endpoint.
    })
}

/// A replica's local view of its lease and leadership. Everything here is
/// conservative cache: etcd's replicated lease + leader key are the
/// source of truth, and the fence guarantees this view never claims more
/// than the server would grant.
#[derive(Default)]
struct Ownership {
    lease: Option<LeaseId>,
    /// Conservative local expiry: stamped from the **send** time of the
    /// grant/keepalive that established it, so it is always ≤ the
    /// deadline the server holds (the leader's lessor stamps a grant at
    /// apply time and a renewal at receipt, both later). Sweeping stops
    /// at the fence — strictly before the server could delete this
    /// replica's leader key.
    fence: SimTime,
    /// A grant RPC is in flight (avoid stacking retries).
    granting: bool,
    /// This incarnation holds the leader key under `lease`.
    leads: bool,
    /// The pod the leader key named when this replica last saw it (its
    /// watch or its reconcile read), where a standby forwards a hint.
    holder: Option<String>,
}

/// One LCM incarnation: its clients, its lease and leadership, and its
/// watchlist. The RPC handler, the key watch, both timers and every
/// callback share it and read its one `alive` flag.
struct Replica {
    h: Handles,
    meta: MetaClient,
    etcdc: EtcdClient,
    pod: String,
    alive: Rc<Cell<bool>>,
    own: RefCell<Ownership>,
    scan: RefCell<ScanState>,
    /// Its [`metrics::LCM_WATCHLIST`] series.
    watched: GaugeHandle,
}

/// The lease the replica holds while its local fence has not lapsed —
/// the precondition for claiming the leader key.
fn valid_lease(rep: &Replica, now: SimTime) -> Option<LeaseId> {
    let o = rep.own.borrow();
    o.lease.filter(|_| now < o.fence)
}

/// The lease under which this replica leads: it holds the key and the
/// lease fence is still ahead — the precondition for sweeping and
/// admitting.
fn leading(rep: &Replica, now: SimTime) -> Option<LeaseId> {
    valid_lease(rep, now).filter(|_| rep.own.borrow().leads)
}

/// Grants a fresh lease if none is held and no grant is in flight. On
/// success the fence starts at send-time + TTL and a reconcile pass
/// races for the key if it is unheld.
fn ensure_lease(sim: &mut Sim, rep: &Rc<Replica>) {
    {
        let mut o = rep.own.borrow_mut();
        if o.lease.is_some() || o.granting {
            return;
        }
        o.granting = true;
    }
    let sent = sim.now();
    let ttl = config::LCM_LEASE_TTL;
    let rep2 = rep.clone();
    // Never revoked: the lease IS the liveness signal. Releasing it
    // client-side on a fence lapse is impossible by construction (etcd was
    // unreachable), so server-side expiry is the designed release path.
    rep.etcdc.lease_grant(sim, ttl, move |sim, r| {
        rep2.own.borrow_mut().granting = false;
        if !rep2.alive.get() {
            return;
        }
        // On Err (etcd unreachable) there is nothing to do: without a
        // lease the replica leads nothing and sweeps nothing, and the
        // keepalive timer re-enters ensure_lease every tick — the retry
        // IS the handling.
        if let Ok(id) = r {
            {
                let mut o = rep2.own.borrow_mut();
                o.lease = Some(id);
                o.fence = sent + ttl;
            }
            sim.mark(&lcm::LEASE_GRANTED, rep2.pod.as_str(), id);
            arm_fence(sim, &rep2);
            reconcile(sim, &rep2);
        }
    });
}

/// One keepalive-timer tick: refresh the lease, or stand down and
/// re-grant when it cannot be confirmed alive.
fn keepalive_tick(sim: &mut Sim, rep: &Rc<Replica>) {
    let Some(id) = rep.own.borrow().lease else {
        ensure_lease(sim, rep);
        return;
    };
    if valid_lease(rep, sim.now()).is_none() {
        // The fence lapsed without a confirmed refresh: ownership is
        // forfeit NOW, before the server's (later) deadline can fire and
        // let another replica in — this ordering is what makes double
        // drive impossible.
        drop_ownership(sim, rep, "fence");
        ensure_lease(sim, rep);
        return;
    }
    let sent = sim.now();
    let ttl = config::LCM_LEASE_TTL;
    let rep2 = rep.clone();
    rep.etcdc.lease_keepalive(sim, id, move |sim, r| {
        if !rep2.alive.get() {
            return;
        }
        match r {
            Ok(true) => {
                let extended = {
                    let mut o = rep2.own.borrow_mut();
                    // Extend only if this is still the lease we live on.
                    if o.lease == Some(id) {
                        o.fence = o.fence.max(sent + ttl);
                        true
                    } else {
                        false
                    }
                };
                if extended {
                    arm_fence(sim, &rep2);
                }
            }
            Ok(false) => {
                // The server no longer knows the lease: it expired and
                // the leader key is gone (or going). Stand down and
                // start over with a fresh lease.
                sim.metrics()
                    .counter_series(metrics::LCM_LEASE_KEEPALIVE_FAILURES, ["expired"])
                    .inc();
                if rep2.own.borrow().lease == Some(id) {
                    drop_ownership(sim, &rep2, "expired");
                    ensure_lease(sim, &rep2);
                }
            }
            Err(_) => {
                // etcd unreachable: keep the current fence. If refreshes
                // keep failing, the fence lapses and the next tick
                // stands down.
                sim.metrics()
                    .counter_series(metrics::LCM_LEASE_KEEPALIVE_FAILURES, ["unreachable"])
                    .inc();
            }
        }
    });
}

/// Schedules a watchdog at the current fence: if the fence has not
/// moved by then, ownership is forfeit at that exact instant rather
/// than at the next keepalive tick up to a whole period later. The
/// ledger must show the release no later than the server's deadline
/// (which is ≥ the fence) so a survivor's claim never overlaps ours.
/// A watchdog made stale by a later extension wakes, finds the fence
/// ahead of it, and does nothing.
fn arm_fence(sim: &mut Sim, rep: &Rc<Replica>) {
    let fence = rep.own.borrow().fence;
    let rep2 = rep.clone();
    sim.schedule_at(fence, move |sim| {
        if !rep2.alive.get() {
            return;
        }
        let lapsed = {
            let o = rep2.own.borrow();
            o.lease.is_some() && sim.now() >= o.fence
        };
        if lapsed {
            drop_ownership(sim, &rep2, "fence");
            ensure_lease(sim, &rep2);
        }
    });
}

/// Gives up the leadership and forgets the lease, counting the loss.
/// Called from the fence/expiry paths only — the CAS'd leader key is
/// left to die with the lease.
fn drop_ownership(sim: &mut Sim, rep: &Rc<Replica>, reason: &'static str) {
    if release(sim, rep) {
        sim.metrics()
            .counter_series(metrics::LCM_SHARD_LOSSES, [reason])
            .inc();
    }
    rep.own.borrow_mut().lease = None;
}

/// Gives up the leadership if this incarnation holds it: marks the
/// release under the lease it was held with, and drops the watchlist, so
/// a standby holds nothing and a later claim starts from watermark 0.
/// Returns whether it led.
fn release(sim: &mut Sim, rep: &Replica) -> bool {
    let lease = {
        let mut o = rep.own.borrow_mut();
        if !std::mem::take(&mut o.leads) {
            return false;
        }
        o.lease.unwrap_or(0)
    };
    sim.mark(&lcm::LOST_WITH_LEASE, 0, lease);
    *rep.scan.borrow_mut() = ScanState::default();
    rep.watched.set(0.0);
    true
}

/// Races a CAS (expect-absent, value = pod, attached to our lease) for
/// the leader key. Losing is normal — someone else won, or etcd is down
/// — and the reconcile backstop retries.
fn try_acquire(sim: &mut Sim, rep: &Rc<Replica>, trigger: &'static str) {
    if rep.own.borrow().leads {
        return;
    }
    let Some(lease) = valid_lease(rep, sim.now()) else {
        return;
    };
    let rep2 = rep.clone();
    rep.etcdc.cas_with_lease(
        sim,
        paths::lcm_shard_owner(0),
        None,
        Some(rep.pod.clone()),
        Some(lease),
        move |sim, r| {
            if !rep2.alive.get() || !matches!(r, Ok(true)) {
                return;
            }
            let claimed = {
                let mut o = rep2.own.borrow_mut();
                // The CAS won under `lease`; lead only if that lease is
                // still the one we live on and the fence holds. A stale
                // win's key simply dies with the old lease.
                let claimed = o.lease == Some(lease) && sim.now() < o.fence && !o.leads;
                o.leads |= claimed;
                claimed
            };
            if claimed {
                sim.mark(&lcm::ACQUIRED_UNDER_LEASE, 0, lease);
                sim.metrics()
                    .counter_series(metrics::LCM_SHARD_ACQUISITIONS, [trigger])
                    .inc();
            }
        },
    );
}

/// Periodic backstop: reads the leader key and races for it if it is
/// unheld. Also the *initial* claim (the watch is registered before the
/// first call, so nothing can slip between read and watch).
fn reconcile(sim: &mut Sim, rep: &Rc<Replica>) {
    if valid_lease(rep, sim.now()).is_none() {
        return;
    }
    let rep2 = rep.clone();
    rep.etcdc
        .get(sim, paths::lcm_shard_owner(0), move |sim, r| {
            if !rep2.alive.get() {
                return;
            }
            // etcd unreachable: reconcile is itself the retry loop — it
            // re-runs every scan tick, so a missed pass only delays the
            // claim by one period.
            let Ok(holder) = r else {
                return;
            };
            let leads = {
                let mut o = rep2.own.borrow_mut();
                o.holder.clone_from(&holder);
                o.leads
            };
            match holder {
                None if !leads => try_acquire(sim, &rep2, "reconcile"),
                // Led but absent from the read: while our fence holds,
                // our lease cannot have been revoked (the guarded revoke
                // fires only past the server deadline, which is ≥ the
                // fence) and nothing else deletes the key — so the read
                // is just stale against a claim that landed after it.
                None => {}
                Some(v) if leads && v != rep2.pod => {
                    // Cannot happen while the fence holds (same argument
                    // as above); defensive backstop so an unforeseen
                    // displacement degrades to a released leadership,
                    // never a double drive.
                    release(sim, &rep2);
                    sim.metrics()
                        .counter_series(metrics::LCM_SHARD_LOSSES, ["displaced"])
                        .inc();
                }
                // Held by someone else — or by a previous incarnation of
                // this very pod (same value, but not `leads`): that key
                // is attached to the dead incarnation's lease and will
                // expire; never adopt it.
                Some(_) => {}
            }
        });
}

/// Creates the Guardian K8s Job for `job` if it does not already exist
/// (idempotent — safe under API retries and scan races).
pub(crate) fn ensure_guardian(sim: &mut Sim, h: &Handles, job: &JobId) {
    let name = paths::guardian_job(job);
    if h.kube.job_status(&name).is_some() {
        return;
    }
    sim.mark(&lcm::GUARDIAN_CREATED, job.as_str(), 0);
    sim.metrics()
        .counter_series(metrics::LCM_GUARDIANS_CREATED, [])
        .inc();
    let pod = PodSpec::new(
        "unused",
        ContainerSpec::new(
            "guardian",
            ImageRef::microservice("dlaas/guardian"),
            "guardian",
        )
        .with_arg(job.as_str())
        .with_cold_start(config::GUARDIAN_COLD_START),
    )
    .with_labels(labels! {
        "role" => "core",
        "app" => "guardian",
        "job" => job.as_str(),
    })
    .with_resources(Resources::new(250, 256, 0), None);
    h.kube
        .create_job(sim, &name, config::GUARDIAN_BACKOFF_LIMIT, pod);
}

/// Deletes every cluster resource belonging to `job`: the learner
/// StatefulSet, the helper Deployment, the network policy, the NFS volume
/// and the job's etcd keys; optionally the Guardian K8s Job itself.
/// Results and logs in the object store are deliberately kept.
pub(crate) fn teardown_job(sim: &mut Sim, h: &Handles, job: &JobId, delete_guardian: bool) {
    sim.mark(&lcm::TEARDOWN, job.as_str(), 0);
    sim.metrics()
        .counter_series(metrics::LCM_TEARDOWNS, [])
        .inc();
    h.kube.delete_statefulset(sim, &paths::learner_set(job));
    h.kube
        .delete_deployment(sim, &paths::helper_deployment(job));
    h.kube.remove_network_policy(&paths::network_policy(job));
    if delete_guardian {
        h.kube.delete_job(sim, &paths::guardian_job(job));
    }
    h.nfs.delete_volume(sim, &paths::volume(job));
    // Shared GC handle: a fresh client per call would register one
    // watch-net endpoint per job and never unregister it (see Handles).
    h.etcd_gc
        .delete_prefix(sim, paths::etcd_job_prefix(job), |_sim, _r| {});
}

/// When the job most recently entered DEPLOYING, per its status history.
/// A negative `t_us` is a malformed (platform-written) record: `None`,
/// never a silent wrap to a far-future time that would mask deploy-stuck
/// detection (or trip it spuriously).
fn deploying_since(doc: &Value) -> Option<SimTime> {
    let history = doc.path("history")?.as_arr()?;
    history
        .iter()
        .rev()
        .find(|e| e.path("status").and_then(Value::as_str) == Some("DEPLOYING"))
        .and_then(|e| e.path("t_us"))
        .and_then(Value::as_i64)
        .and_then(|us| u64::try_from(us).ok())
        .map(SimTime::from_micros)
}

/// The scan's watchlist, keyed off the metadata store's change feed.
///
/// Everything here is a cache of the jobs collection: a new leader
/// (watermark 0) rebuilds it from the full feed, so losing it in an LCM
/// crash or a lost leadership costs one wide scan, never correctness.
#[derive(Debug, Default)]
struct ScanState {
    /// Change-feed sequence number the next scan resumes from.
    watermark: u64,
    /// Every job a sweep rule watches, and what for. A changed document
    /// updates its job's entry where it is: a job costs an allocation
    /// when the feed first shows it, not on every change.
    jobs: BTreeMap<JobId, Watch>,
    /// Jobs the sweep is failing whose FAILED write is in flight.
    failing: BTreeSet<JobId>,
    /// Tenants-collection change-feed watermark.
    tenants_watermark: u64,
    /// The tenant registry (quotas + fair-share weights), fed by the
    /// tenants collection's change feed.
    tenants: BTreeMap<String, TenantShare>,
    /// The queue-depth gauge of every tenant this leader has seen queue,
    /// and whether its last round set it (so a drained tenant's gauge
    /// drops back to 0 instead of going stale).
    depth_gauges: BTreeMap<String, (GaugeHandle, bool)>,
    /// A round's feed read is in flight: one at a time, since a second
    /// read from the same watermark would be dropped as stale.
    reading: bool,
    /// The round in flight sweeps when its reads land (a tick asked).
    sweeping: bool,
    /// A job ended while the round's read was in flight: one more round
    /// runs after it, however many hints asked.
    again: bool,
}

/// What the sweep watches one job for, by the status its document holds.
#[derive(Debug)]
enum Watch {
    /// QUEUED: awaiting fair-queue admission.
    Queued(QueuedJob),
    /// Admitted and not terminal: the Guardian gave-up watch.
    Active(Active),
    /// Terminal, not yet confirmed free of cluster leftovers.
    TerminalGc,
}

/// An admitted, non-terminal job.
#[derive(Debug)]
struct Active {
    /// Its Guardian K8s Job, named once: the gave-up watch looks it up on
    /// every sweep.
    guardian: String,
    /// While PENDING: since when (admission), for the redeploy backstop.
    pending_since: Option<SimTime>,
    /// While DEPLOYING: since when, for the deploy timeout.
    deploying_since: Option<SimTime>,
    /// `(tenant, GPUs)` it holds — the arbiter's usage view (`None` when
    /// the document names no tenant: malformed, and quota math degrading
    /// to "uncounted" is the safe direction; the invariant checker still
    /// sees it).
    held: Option<(String, u32)>,
}

impl Watch {
    fn queued(&self) -> Option<&QueuedJob> {
        match self {
            Watch::Queued(q) => Some(q),
            _ => None,
        }
    }

    fn active(&self) -> Option<&Active> {
        match self {
            Watch::Active(a) => Some(a),
            _ => None,
        }
    }

    /// The GPUs an admitted job holds, by tenant.
    fn held(&self) -> Option<(&str, u32)> {
        let (tenant, gpus) = self.active()?.held.as_ref()?;
        Some((tenant, *gpus))
    }
}

/// Folds one changed job document into the watchlist: the job's entry is
/// found once and rewritten where it is.
fn ingest(sim: &mut Sim, st: &mut ScanState, doc: &Value) {
    let Some(id) = doc.path("_id").and_then(Value::as_str) else {
        return;
    };
    match st.jobs.get_mut(id) {
        Some(slot) => {
            let was = std::mem::replace(slot, Watch::TerminalGc);
            match watch_of(sim, doc, id, Some(was)) {
                Some(watch) => *slot = watch,
                None => {
                    st.jobs.remove(id);
                }
            }
        }
        None => {
            if let Some(watch) = watch_of(sim, doc, id, None) {
                st.jobs.insert(JobId::new(id), watch);
            }
        }
    }
}

/// What the sweep watches job `id` for now that its document reads `doc`
/// (`None`: nothing), reusing what `was` already holds.
fn watch_of(sim: &mut Sim, doc: &Value, id: &str, was: Option<Watch>) -> Option<Watch> {
    let tenant = doc.path("tenant").and_then(Value::as_str);
    match JobStatus::of(doc) {
        Some(JobStatus::Queued) => {
            let since = doc
                .path("submitted_us")
                .and_then(Value::as_i64)
                .and_then(|us| u64::try_from(us).ok());
            let gpus = crate::api::doc_gpus(doc);
            match (tenant, since, gpus) {
                (Some(tenant), Some(since_us), Some(gpus)) => Some(Watch::Queued(QueuedJob {
                    job: JobId::new(id),
                    tenant: tenant.to_owned(),
                    gpus,
                    since_us,
                })),
                // A missing tenant or GPU count, or a negative timestamp,
                // is store corruption: keep the job off the admission
                // queue like the other malformed-record paths (read as 0,
                // an unreadable count would fit any quota).
                _ => {
                    let field = if gpus.is_none() { "gpus" } else { "queued" };
                    sim.metrics()
                        .counter_series(metrics::LCM_MALFORMED_RECORDS, [field])
                        .inc();
                    None
                }
            }
        }
        Some(
            status @ (JobStatus::Pending
            | JobStatus::Deploying
            | JobStatus::Processing
            | JobStatus::Storing),
        ) => {
            let mut active = match was {
                Some(Watch::Active(active)) => active,
                _ => Active {
                    guardian: paths::guardian_job(&JobId::new(id)),
                    pending_since: None,
                    deploying_since: None,
                    held: None,
                },
            };
            let gpus = crate::api::doc_gpus(doc).unwrap_or(0);
            active.held = match (active.held.take(), tenant) {
                (Some((held, _)), Some(tenant)) if held == tenant => Some((held, gpus)),
                (_, tenant) => tenant.map(|tenant| (tenant.to_owned(), gpus)),
            };
            active.pending_since = None;
            if status == JobStatus::Pending {
                // Age from `admitted_us` (fair-queue admission stamps it;
                // for directly admitted jobs it equals `submitted_us`,
                // which remains the fallback for pre-fairness documents).
                // A stamp that is missing, not an integer or negative is
                // store corruption: leave the job off the redeploy watch
                // instead of inventing a clock for it (0 would make the
                // job pending since boot and redeploy it at once; a
                // wrapped negative would pin its age at zero and strand
                // it forever).
                let (field, stamp) = match doc.path("admitted_us") {
                    Some(stamp) => ("admitted_us", Some(stamp)),
                    None => ("submitted_us", doc.path("submitted_us")),
                };
                match stamp
                    .and_then(Value::as_i64)
                    .and_then(|us| u64::try_from(us).ok())
                {
                    Some(admitted) => active.pending_since = Some(SimTime::from_micros(admitted)),
                    None => {
                        sim.metrics()
                            .counter_series(metrics::LCM_MALFORMED_RECORDS, [field])
                            .inc();
                    }
                }
            }
            active.deploying_since = None;
            if status == JobStatus::Deploying {
                // A DEPLOYING document holds the stamp its write pushed;
                // without a readable one the job gets no deploy timeout,
                // and is counted.
                active.deploying_since = deploying_since(doc);
                if active.deploying_since.is_none() {
                    sim.metrics()
                        .counter_series(metrics::LCM_MALFORMED_RECORDS, ["history"])
                        .inc();
                }
            }
            Some(Watch::Active(active))
        }
        Some(JobStatus::Completed | JobStatus::Failed | JobStatus::Killed) => {
            Some(Watch::TerminalGc)
        }
        // Unparseable status: watch nothing; the document re-enters the
        // feed if it is ever repaired.
        None => None,
    }
}

/// The leader's scan, one round of it: pulls the jobs feed above the
/// watermark, then the tenants feed, then sweeps (when a tick asked) and
/// admits. One round's read is in flight at a time; a round asked for
/// meanwhile joins it (a tick makes it sweep, a hint makes one more round
/// follow it). A standby reads nothing.
fn scan(sim: &mut Sim, rep: &Rc<Replica>, sweeps: bool) {
    if !rep.own.borrow().leads {
        return;
    }
    let since = {
        let mut st = rep.scan.borrow_mut();
        st.sweeping |= sweeps;
        if std::mem::replace(&mut st.reading, true) {
            return;
        }
        st.watermark
    };
    let rep2 = rep.clone();
    rep.meta.find_changed(sim, JOBS, since, move |sim, r| {
        let tenants_since = {
            let mut st = rep2.scan.borrow_mut();
            // Read for a watchlist this replica no longer keeps: it lost
            // the leadership since (and may have claimed it again, from
            // watermark 0).
            if !rep2.own.borrow().leads || st.watermark != since {
                return;
            }
            // Store unreachable: keep the old watermark; the next tick or
            // hint reads again.
            let Ok((docs, gone, high_water)) = r else {
                drop(st);
                return scan_done(sim, &rep2);
            };
            st.watermark = high_water;
            for doc in &docs {
                ingest(sim, &mut st, doc);
            }
            for id in &gone {
                st.jobs.remove(id.as_str());
            }
            st.tenants_watermark
        };
        // Pull the tenants feed too (quota/weight edits are rare, so
        // this is almost always an empty delta), then sweep and run the
        // admission arbiter on the fresh view.
        let rep3 = rep2.clone();
        rep2.meta
            .find_changed(sim, TENANTS, tenants_since, move |sim, r| {
                let sweeping = {
                    let mut st = rep3.scan.borrow_mut();
                    // As for the jobs feed: a registry dropped since the
                    // read was sent is rebuilt from 0 by the next one.
                    if !rep3.own.borrow().leads || st.tenants_watermark != tenants_since {
                        return;
                    }
                    // Tenants feed unreachable: go on with the cached
                    // registry.
                    if let Ok((docs, gone, high_water)) = r {
                        st.tenants_watermark = high_water;
                        for doc in &docs {
                            if let Some(t) = Tenant::from_document(doc) {
                                st.tenants.insert(
                                    t.id,
                                    TenantShare {
                                        max_gpus: t.max_gpus,
                                        weight: t.weight,
                                    },
                                );
                            }
                        }
                        for id in &gone {
                            st.tenants.remove(id);
                        }
                    }
                    st.sweeping
                };
                if sweeping {
                    sweep(sim, &rep3);
                }
                admit(sim, &rep3);
                scan_done(sim, &rep3);
            });
    });
}

/// Ends the round in flight, and runs the one a hint asked for meanwhile
/// if a job is still queued.
fn scan_done(sim: &mut Sim, rep: &Rc<Replica>) {
    let again = {
        let mut st = rep.scan.borrow_mut();
        st.reading = false;
        st.sweeping = false;
        std::mem::take(&mut st.again) && queued(&st)
    };
    if again {
        scan(sim, rep, false);
    }
}

/// Whether the watchlist holds a job awaiting admission.
fn queued(st: &ScanState) -> bool {
    st.jobs.values().any(|w| w.queued().is_some())
}

/// What became of an admission hint: its [`metrics::LCM_ADMISSION_HINTS`]
/// label and, by its order, its [`lcm::ADMISSION_HINT`] mark's arg.
#[derive(Debug, Clone, Copy)]
enum Hint {
    Ran,
    Coalesced,
    Idle,
    Forwarded,
    Dropped,
}

impl Hint {
    fn label(self) -> &'static str {
        match self {
            Hint::Ran => "ran",
            Hint::Coalesced => "coalesced",
            Hint::Idle => "idle",
            Hint::Forwarded => "forwarded",
            Hint::Dropped => "dropped",
        }
    }
}

/// `job` ended (its Guardian's hint, or this replica's own KILLED or
/// FAILED write): the quota it held is free. The leader runs an admission
/// round at once, without a sweep, unless nothing is queued; a standby
/// passes the hint on, once, to the holder it last saw. A stopped
/// incarnation (whose write was answered after it died) does nothing.
fn job_ended(sim: &mut Sim, rep: &Rc<Replica>, job: &JobId, forwarded: bool) {
    if !rep.alive.get() {
        return;
    }
    let outcome = if rep.own.borrow().leads {
        let mut st = rep.scan.borrow_mut();
        if st.reading {
            st.again = true;
            Hint::Coalesced
        } else if queued(&st) {
            drop(st);
            scan(sim, rep, false);
            Hint::Ran
        } else {
            Hint::Idle
        }
    } else {
        // Never forwarded twice: two replicas that each believe the
        // other leads would bounce it for ever.
        let holder = rep.own.borrow().holder.clone();
        match holder.filter(|holder| !forwarded && *holder != rep.pod) {
            Some(holder) => {
                let from = pod_addr(&rep.pod);
                send_hint(sim, &rep.h, &from, Some(pod_addr(&holder)), job, true);
                Hint::Forwarded
            }
            None => Hint::Dropped,
        }
    };
    sim.mark(&lcm::ADMISSION_HINT, job.as_str(), outcome as u64);
    sim.metrics()
        .counter_series(metrics::LCM_ADMISSION_HINTS, [outcome.label()])
        .inc();
}

/// Sends the hint that `job` ended from `from` to the LCM replica at `to`
/// (`None`: none is ready), once; an unanswered one is only counted, as
/// the next tick admits what it would have. A sender that does not serve
/// leaves the network once answered.
pub(crate) fn send_hint(
    sim: &mut Sim,
    h: &Handles,
    from: &Addr,
    to: Option<Addr>,
    job: &JobId,
    forwarded: bool,
) {
    let unanswered = |sim: &mut Sim| {
        sim.metrics()
            .counter_series(metrics::LCM_ADMISSION_HINTS, ["unanswered"])
            .inc();
    };
    let Some(to) = to else {
        return unanswered(sim);
    };
    let (job, timeout) = (job.clone(), config::RPC_TIMEOUT);
    let hint = CoreRequest::JobEnded { job, forwarded };
    h.rpc
        .call(sim, from.clone(), to, hint, timeout, move |sim, r| {
            if r.is_err() {
                unanswered(sim);
            }
        });
    h.rpc.leave_when_idle(from);
}

/// The fair-queue admission arbiter: runs only on the leader, computes
/// the pure [`admission_plan`] over the watchlist, and applies it with
/// CAS-guarded QUEUED → PENDING updates. Fair-queue admission is a global
/// decision (usage ratios compare across tenants), so it runs on exactly
/// one replica, fenced like the sweep. Admissions are not reported as
/// sweep drives: the admission write itself is single-winner by the
/// status CAS, and [`ensure_guardian`] is idempotent.
fn admit(sim: &mut Sim, rep: &Rc<Replica>) {
    if leading(rep, sim.now()).is_none() {
        return;
    }

    // Queue-depth gauges (single writer: this arbiter), then the plan —
    // both over the watchlist as it stands, copying nothing of it but
    // the jobs the plan admits.
    let plan: Vec<(JobId, String, u64)> = {
        let mut st = rep.scan.borrow_mut();
        let st = &mut *st;
        let mut depths: BTreeMap<&str, f64> = BTreeMap::new();
        for q in st.jobs.values().filter_map(Watch::queued) {
            *depths.entry(&q.tenant).or_insert(0.0) += 1.0;
        }
        for (tenant, (gauge, set)) in &mut st.depth_gauges {
            if *set && !depths.contains_key(tenant.as_str()) {
                gauge.set(0.0);
                *set = false;
            }
        }
        for (tenant, depth) in &depths {
            match st.depth_gauges.get_mut(*tenant) {
                Some((gauge, set)) => {
                    gauge.set(*depth);
                    *set = true;
                }
                None => {
                    let gauge = sim
                        .metrics()
                        .gauge_series(metrics::TENANT_QUEUE_DEPTH, [tenant]);
                    gauge.set(*depth);
                    st.depth_gauges.insert((*tenant).to_owned(), (gauge, true));
                }
            }
        }
        if depths.is_empty() {
            return;
        }
        let held = st.jobs.values().filter_map(Watch::held);
        let queued = st.jobs.values().filter_map(Watch::queued);
        admission_plan(&st.tenants, held, queued)
            .into_iter()
            .filter_map(|job| {
                let q = st.jobs.get(&job)?.queued()?;
                let (tenant, since_us) = (q.tenant.clone(), q.since_us);
                Some((job, tenant, since_us))
            })
            .collect()
    };

    for (job, tenant, since_us) in plan {
        let rep2 = rep.clone();
        // The local queued entry is left in place: on success the status
        // change re-enters through the jobs feed before the next round
        // (moving the job to the active view), and on a lost CAS race or
        // store error the entry must survive for a retry anyway.
        rep.meta.admit_job(sim, &job.clone(), move |sim, r| {
            if !matches!(r, Ok(true)) {
                return;
            }
            let waited = sim.now().as_micros().saturating_sub(since_us);
            sim.metrics()
                .histogram_series(metrics::TENANT_ADMISSION_WAIT, [&tenant])
                .observe(waited as f64);
            sim.mark(&lcm::ADMITTED_AFTER_US, job.as_str(), waited);
            ensure_guardian(sim, &rep2.h, &job);
        });
    }
}

/// What the leader's sweep does about a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    /// PENDING past [`config::PENDING_REDEPLOY_AFTER`] and no Guardian K8s
    /// Job: create it again.
    Redeploy,
    /// Fail the job: its Guardian exhausted its K8s backoff limit
    /// ([`lcm::GUARDIAN_GAVE_UP`]), or it sat in DEPLOYING past
    /// [`config::DEPLOY_TIMEOUT`] ([`lcm::DEPLOY_TIMEOUT`]: undeployable,
    /// e.g. it requests hardware the cluster does not have).
    Fail(&'static MarkDef),
    /// Terminal: collect what it left behind.
    Collect,
}

impl Drive {
    /// When the sweep acts on it: every redeploy, then every fail, then
    /// every collection.
    fn rank(self) -> u8 {
        match self {
            Drive::Redeploy => 0,
            Drive::Fail(_) => 1,
            Drive::Collect => 2,
        }
    }
}

/// The sweep's rules for one job: a pure function of its watchlist
/// entry, the time, and the status of its Guardian K8s Job (`None`: there
/// is none).
fn decide(watch: &Watch, now: SimTime, guardian: Option<KubeJobStatus>) -> Option<Drive> {
    let aged = |since: Option<SimTime>, after: SimDuration| {
        since.is_some_and(|since| now.saturating_duration_since(since) >= after)
    };
    match watch {
        Watch::Queued(_) => None,
        Watch::Active(a)
            if guardian.is_none() && aged(a.pending_since, config::PENDING_REDEPLOY_AFTER) =>
        {
            Some(Drive::Redeploy)
        }
        Watch::Active(_) if guardian == Some(KubeJobStatus::Failed) => {
            Some(Drive::Fail(&lcm::GUARDIAN_GAVE_UP))
        }
        Watch::Active(a) if aged(a.deploying_since, config::DEPLOY_TIMEOUT) => {
            Some(Drive::Fail(&lcm::DEPLOY_TIMEOUT))
        }
        Watch::Active(_) => None,
        Watch::TerminalGc => Some(Drive::Collect),
    }
}

/// Walks the watchlist once (not the whole collection) and applies the
/// self-healing rules of [`decide`]. Only the leader sweeps, and it
/// checks its lease once: it owns every job. Each drive is marked first,
/// with the lease the leadership was decided under (what the ownership
/// ledger checks). Only the jobs a rule acts on are copied out, since
/// acting calls into other components.
fn sweep(sim: &mut Sim, rep: &Rc<Replica>) {
    let now = sim.now();
    let Some(lease) = leading(rep, now) else {
        return;
    };
    let mut drives: Vec<(JobId, Drive)> = Vec::new();
    let st = rep.scan.borrow();
    for (job, watch) in &st.jobs {
        let guardian = watch
            .active()
            .and_then(|a| rep.h.kube.job_status(&a.guardian));
        if let Some(drive) = decide(watch, now, guardian) {
            drives.push((job.clone(), drive));
        }
    }
    rep.watched.set(st.jobs.len() as f64);
    drop(st);
    drives.sort_by_key(|&(_, drive)| drive.rank());
    for (job, drive) in drives {
        match drive {
            Drive::Redeploy => {
                sim.mark(&lcm::REDEPLOY_STRANDED, job.as_str(), lease);
                sim.metrics()
                    .counter_series(metrics::LCM_SCAN_REDEPLOYS, [])
                    .inc();
                ensure_guardian(sim, &rep.h, &job);
            }
            Drive::Fail(reason) => fail(sim, rep, job, lease, reason),
            Drive::Collect => collect(sim, rep, job, lease),
        }
    }
}

/// Writes FAILED for `job`, then tears it down.
fn fail(sim: &mut Sim, rep: &Rc<Replica>, job: JobId, lease: LeaseId, reason: &'static MarkDef) {
    // One FAILED write per job in flight: a slow one must not be doubled
    // by the next tick.
    if !rep.scan.borrow_mut().failing.insert(job.clone()) {
        return;
    }
    sim.mark(reason, job.as_str(), lease);
    let rep2 = rep.clone();
    rep.meta
        .advance_status(sim, &job.clone(), JobStatus::Failed, move |sim, r| {
            let mut st = rep2.scan.borrow_mut();
            st.failing.remove(&job);
            // Refused: the document is not FAILED, so the job stays on the
            // watchlist with its resources and the next tick fails it
            // again.
            if r.is_err() {
                return;
            }
            // The job is over: a GC candidate now (the feed brings the
            // FAILED document next), and only now torn down.
            if let Some(watch) = st.jobs.get_mut(&job) {
                *watch = Watch::TerminalGc;
            }
            drop(st);
            sim.metrics()
                .counter_series(metrics::LCM_SCAN_FAILURES, [reason.what])
                .inc();
            teardown_job(sim, &rep2.h, &job, true);
            job_ended(sim, &rep2, &job, false);
        });
}

/// Garbage-collects a terminal job's leftovers. The job leaves the
/// watchlist only once its pods and volume are gone AND an etcd probe
/// confirms no leaked keys (a teardown that ran during an etcd outage may
/// have lost its delete_prefix; nothing else ever looks at those keys
/// again).
fn collect(sim: &mut Sim, rep: &Rc<Replica>, job: JobId, lease: LeaseId) {
    let has_pods = !rep
        .h
        .kube
        .pods_matching(&labels! {"job" => job.as_str()})
        .is_empty();
    if has_pods || rep.h.nfs.has_volume(&paths::volume(&job)) {
        sim.mark(&lcm::GC_LEFTOVERS, job.as_str(), lease);
        sim.metrics().counter_series(metrics::LCM_SCAN_GC, []).inc();
        teardown_job(sim, &rep.h, &job, true);
        return;
    }
    let rep2 = rep.clone();
    let prefix = paths::etcd_job_prefix(&job);
    let prefix2 = prefix.clone();
    // The shared client outlives this incarnation: an answer that lands
    // after it stopped (which gives up the leadership) or lost the
    // leadership drives nothing.
    rep.h.etcd_gc.get_prefix(sim, prefix, move |sim, r| {
        if leading(&rep2, sim.now()) != Some(lease) {
            return;
        }
        match r {
            Ok(pairs) if !pairs.is_empty() => {
                sim.mark(&lcm::GC_ETCD_KEYS, job.as_str(), lease);
                sim.metrics().counter_series(metrics::LCM_SCAN_GC, []).inc();
                rep2.h.etcd_gc.delete_prefix(sim, prefix2, |_sim, _r| {});
                // Keep watching: next tick re-probes until clean.
            }
            Ok(_) => {
                // Confirmed clean: stop watching this job.
                let mut st = rep2.scan.borrow_mut();
                if matches!(st.jobs.get(&job), Some(Watch::TerminalGc)) {
                    st.jobs.remove(&job);
                }
            }
            // etcd unreachable: the job stays on the watchlist, so the
            // next sweep tick re-probes this prefix — the retry IS the
            // handling (a metric here would double-count etcd's own
            // error counters).
            Err(_) => {}
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlaas_docstore::obj;

    #[test]
    fn deploying_since_finds_latest_entry() {
        let doc = obj! {
            "_id" => "j",
            "history" => vec![
                obj! {"status" => "PENDING", "t_us" => 10},
                obj! {"status" => "DEPLOYING", "t_us" => 20},
                obj! {"status" => "DEPLOYING", "t_us" => 50},
            ],
        };
        assert_eq!(deploying_since(&doc), Some(SimTime::from_micros(50)));
    }

    #[test]
    fn deploying_since_absent_when_never_deployed() {
        let doc = obj! {
            "_id" => "j",
            "history" => vec![obj! {"status" => "PENDING", "t_us" => 10}],
        };
        assert_eq!(deploying_since(&doc), None);
        assert_eq!(deploying_since(&obj! {"_id" => "j"}), None);
        assert_eq!(deploying_since(&Value::Null), None);
    }

    #[test]
    fn deploying_since_rejects_negative_timestamp() {
        // Regression: `t_us as i64 as u64` used to wrap -1 to u64::MAX,
        // a far-future time that made every DEPLOYING job look fresh.
        let doc = obj! {
            "_id" => "j",
            "history" => vec![obj! {"status" => "DEPLOYING", "t_us" => -1}],
        };
        assert_eq!(deploying_since(&doc), None);
        // A later well-formed entry still wins over an earlier corrupt one.
        let doc = obj! {
            "_id" => "j",
            "history" => vec![
                obj! {"status" => "DEPLOYING", "t_us" => -5},
                obj! {"status" => "DEPLOYING", "t_us" => 40},
            ],
        };
        assert_eq!(deploying_since(&doc), Some(SimTime::from_micros(40)));
    }

    /// An admitted job's entry: PENDING since `pending`, DEPLOYING since
    /// `deploying` (in seconds), or neither (PROCESSING, STORING).
    fn admitted(pending: Option<u64>, deploying: Option<u64>) -> Watch {
        Watch::Active(Active {
            guardian: paths::guardian_job(&JobId::new("j")),
            pending_since: pending.map(|s| SimTime::ZERO + SimDuration::from_secs(s)),
            deploying_since: deploying.map(|s| SimTime::ZERO + SimDuration::from_secs(s)),
            held: None,
        })
    }

    #[test]
    fn a_stranded_pending_job_is_redeployed_once_aged_and_guardianless() {
        let now = SimTime::ZERO + config::PENDING_REDEPLOY_AFTER + SimDuration::from_secs(10);
        let aged = admitted(Some(10), None);
        assert_eq!(decide(&aged, now, None), Some(Drive::Redeploy));
        // A Guardian exists: nothing is stranded.
        let running = Some(KubeJobStatus::Active);
        assert_eq!(decide(&aged, now, running), None);
        // Not yet aged.
        assert_eq!(decide(&admitted(Some(11), None), now, None), None);
        // A PENDING job with a corrupt stamp is never aged.
        assert_eq!(decide(&admitted(None, None), now, None), None);
    }

    #[test]
    fn a_job_whose_guardian_gave_up_is_failed() {
        let failed = Some(KubeJobStatus::Failed);
        let now = SimTime::ZERO + SimDuration::from_secs(60);
        for watch in [
            admitted(None, None),
            admitted(Some(0), None),
            admitted(None, Some(59)),
        ] {
            assert_eq!(
                decide(&watch, now, failed),
                Some(Drive::Fail(&lcm::GUARDIAN_GAVE_UP))
            );
        }
    }

    #[test]
    fn a_job_deploying_past_the_timeout_is_failed() {
        let now = SimTime::ZERO + config::DEPLOY_TIMEOUT + SimDuration::from_secs(5);
        let running = Some(KubeJobStatus::Active);
        let stuck = admitted(None, Some(5));
        assert_eq!(
            decide(&stuck, now, running),
            Some(Drive::Fail(&lcm::DEPLOY_TIMEOUT))
        );
        assert_eq!(decide(&admitted(None, Some(6)), now, running), None);
        // A running job is left alone, with or without its Guardian.
        assert_eq!(decide(&admitted(None, None), now, running), None);
        assert_eq!(decide(&admitted(None, None), now, None), None);
    }

    #[test]
    fn a_terminal_job_is_collected_and_a_queued_one_left_to_the_arbiter() {
        let now = SimTime::ZERO + SimDuration::from_hours(9);
        assert_eq!(decide(&Watch::TerminalGc, now, None), Some(Drive::Collect));
        let queued = Watch::Queued(QueuedJob {
            job: JobId::new("q"),
            tenant: "acme".into(),
            gpus: 1,
            since_us: 0,
        });
        for guardian in [None, Some(KubeJobStatus::Failed)] {
            assert_eq!(decide(&queued, now, guardian), None);
        }
    }

    #[test]
    fn the_sweep_acts_on_redeploys_then_fails_then_collections() {
        let mut drives = [
            Drive::Collect,
            Drive::Fail(&lcm::GUARDIAN_GAVE_UP),
            Drive::Redeploy,
            Drive::Fail(&lcm::DEPLOY_TIMEOUT),
        ];
        drives.sort_by_key(|d| d.rank());
        assert_eq!(
            drives,
            [
                Drive::Redeploy,
                Drive::Fail(&lcm::GUARDIAN_GAVE_UP),
                Drive::Fail(&lcm::DEPLOY_TIMEOUT),
                Drive::Collect
            ]
        );
    }

    /// Status names a job document may hold: the lifecycle's and junk.
    const STATUSES: &[&str] = &[
        "QUEUED",
        "PENDING",
        "DEPLOYING",
        "PROCESSING",
        "STORING",
        "COMPLETED",
        "FAILED",
        "KILLED",
        "",
        "pending",
        "DEPLOYING ",
        "?",
    ];

    /// A value of any type, for the fields a document may hold ill-typed.
    fn any_value() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        prop_oneof![
            any::<i64>().prop_map(Value::from),
            (0..STATUSES.len()).prop_map(|i| Value::from(STATUSES[i])),
            Just(Value::Null),
            any::<bool>().prop_map(Value::from),
            (-1e12..1e12).prop_map(Value::from),
            any::<i64>().prop_map(|n| Value::from(vec![n])),
        ]
    }

    /// A job document's stamp: absent, anywhere in `i64`, or ill-typed.
    fn any_stamp() -> impl proptest::strategy::Strategy<Value = Option<Value>> {
        use proptest::prelude::*;
        prop_oneof![
            1 => Just(None),
            4 => any::<i64>().prop_map(|us| Some(Value::from(us))),
            1 => any_value().prop_map(Some),
        ]
    }

    /// A history entry: any status, stamped anywhere in `i64` or with an
    /// ill-typed value.
    fn history_entry() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        let status = (0..STATUSES.len()).prop_map(|i| Value::from(STATUSES[i]));
        let stamp = prop_oneof![4 => any::<i64>().prop_map(Value::from), 1 => any_value()];
        (status, stamp).prop_map(|(status, t_us)| obj! {"status" => status, "t_us" => t_us})
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig { cases: 512, .. Default::default() })]

        // Any stored job document, ingested and then swept at any time
        // with its Guardian in any state, panics nothing, and no stamp
        // becomes a clock but the one stored, as stored: a negative, an
        // ill-typed or a missing one is no clock at all. Nor does a GPU
        // count become a queued demand but the one stored.
        #[test]
        fn any_job_document_is_ingested_and_decided_without_inventing_a_clock(
            status in 0..STATUSES.len(),
            stamps in (any_stamp(), any_stamp()),
            fields in (any_value(), any_value()),
            history in proptest::collection::vec(history_entry(), 0..6),
            sweep in (proptest::prelude::any::<u64>(), 0..4u8),
        ) {
            let (submitted, admitted) = stamps;
            let (tenant, gpus) = fields;
            let mut doc = obj! {
                "_id" => "j",
                "status" => STATUSES[status],
                "tenant" => tenant,
                "gpus" => gpus.clone(),
                "history" => history.clone(),
            };
            for (field, stamp) in [("submitted_us", &submitted), ("admitted_us", &admitted)] {
                if let Some(stamp) = stamp {
                    dlaas_docstore::Update::set(field, stamp.clone()).apply(&mut doc);
                }
            }
            let clock = |stamp: &Option<Value>| {
                u64::try_from(stamp.as_ref()?.as_i64()?).ok()
            };
            let stored = |since: Option<SimTime>| since.map(SimTime::as_micros);
            let mut sim = Sim::new(0);
            let mut st = ScanState::default();
            ingest(&mut sim, &mut st, &doc);
            match st.jobs.get("j") {
                Some(Watch::Queued(q)) => {
                    proptest::prop_assert_eq!(Some(q.since_us), clock(&submitted));
                    let stored_gpus = gpus.as_i64().and_then(|g| u32::try_from(g).ok());
                    proptest::prop_assert_eq!(Some(q.gpus), stored_gpus);
                }
                Some(Watch::Active(a)) => {
                    let pending = if admitted.is_some() { &admitted } else { &submitted };
                    proptest::prop_assert!(
                        a.pending_since.is_none() || stored(a.pending_since) == clock(pending)
                    );
                    let deploying = history
                        .iter()
                        .rev()
                        .find(|e| e.path("status").and_then(Value::as_str) == Some("DEPLOYING"))
                        .and_then(|e| e.path("t_us")?.as_i64());
                    proptest::prop_assert!(
                        a.deploying_since.is_none()
                            || stored(a.deploying_since)
                                == deploying.and_then(|us| u64::try_from(us).ok())
                    );
                }
                Some(Watch::TerminalGc) | None => {}
            }
            let (now_us, guardian) = sweep;
            let guardian = [None, Some(KubeJobStatus::Active), Some(KubeJobStatus::Complete), Some(KubeJobStatus::Failed)][usize::from(guardian)];
            if let Some(watch) = st.jobs.get("j") {
                decide(watch, SimTime::from_micros(now_us), guardian);
            }
        }
    }

    /// The active entry of job `id`, if it has one.
    fn active<'a>(st: &'a ScanState, id: &str) -> Option<&'a Active> {
        st.jobs.get(id)?.active()
    }

    #[test]
    fn ingest_routes_jobs_to_the_right_watchlists() {
        let mut sim = Sim::new(0);
        let mut st = ScanState::default();
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "p", "status" => "PENDING", "submitted_us" => 42},
        );
        ingest(
            &mut sim,
            &mut st,
            &obj! {
                "_id" => "d",
                "status" => "DEPLOYING",
                "history" => vec![obj! {"status" => "DEPLOYING", "t_us" => 7}],
            },
        );
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "r", "status" => "PROCESSING"},
        );
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "t", "status" => "COMPLETED"},
        );

        let pending = active(&st, "p").unwrap();
        assert_eq!(pending.pending_since, Some(SimTime::from_micros(42)));
        assert_eq!(pending.guardian, paths::guardian_job(&JobId::new("p")));
        assert_eq!(
            active(&st, "d").unwrap().deploying_since,
            Some(SimTime::from_micros(7))
        );
        assert_eq!(
            st.jobs.values().filter(|w| w.active().is_some()).count(),
            3,
            "pending+deploying+processing are active"
        );
        assert!(matches!(st.jobs.get("t"), Some(Watch::TerminalGc)));

        // A status transition moves the job between lists instead of
        // leaving a stale entry behind.
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "p", "status" => "FAILED"},
        );
        assert!(active(&st, "p").is_none());
        assert!(matches!(st.jobs.get("p"), Some(Watch::TerminalGc)));
        // So does one the sweep stops watching.
        ingest(&mut sim, &mut st, &obj! {"_id" => "r", "status" => "?"});
        assert!(!st.jobs.contains_key("r"));
    }

    #[test]
    fn ingest_prefers_admitted_us_for_pending_age() {
        // A fair-queue-admitted job's redeploy clock starts at admission,
        // not submission — otherwise a long queue wait alone would trip
        // the stranded-job redeploy (and the liveness invariant).
        let mut sim = Sim::new(0);
        let mut st = ScanState::default();
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "p", "status" => "PENDING",
            "submitted_us" => 42, "admitted_us" => 9000},
        );
        assert_eq!(
            active(&st, "p").unwrap().pending_since,
            Some(SimTime::from_micros(9000))
        );
        // Deploying, the job is no longer aged as PENDING.
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "p", "status" => "DEPLOYING", "admitted_us" => 9000},
        );
        let deploying = active(&st, "p").unwrap();
        assert_eq!(
            (deploying.pending_since, deploying.deploying_since),
            (None, None)
        );
    }

    #[test]
    fn ingest_routes_queued_jobs_to_the_admission_queue() {
        let mut sim = Sim::new(0);
        let mut st = ScanState::default();
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "q", "status" => "QUEUED", "tenant" => "acme",
            "gpus" => 4, "submitted_us" => 100},
        );
        let info = st.jobs.get("q").and_then(Watch::queued).unwrap();
        assert_eq!(
            (
                info.job.as_str(),
                info.tenant.as_str(),
                info.gpus,
                info.since_us
            ),
            ("q", "acme", 4, 100)
        );
        assert!(active(&st, "q").is_none(), "queued is not active");
        assert!(
            st.jobs.values().all(|w| w.held().is_none()),
            "queued jobs hold no quota"
        );

        // Admission moves it to the active view, holding its GPUs.
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "q", "status" => "PENDING", "tenant" => "acme",
            "gpus" => 4, "submitted_us" => 100, "admitted_us" => 500},
        );
        assert!(st.jobs.values().all(|w| w.queued().is_none()));
        assert_eq!(st.jobs.get("q").and_then(Watch::held), Some(("acme", 4)));

        // A queued document missing its tenant is malformed: skipped.
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "bad", "status" => "QUEUED", "submitted_us" => 1},
        );
        assert!(!st.jobs.contains_key("bad"));
    }

    #[test]
    fn ingest_keeps_corrupt_submitted_us_off_the_redeploy_list() {
        let mut sim = Sim::new(0);
        let mut st = ScanState::default();
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "bad", "status" => "PENDING", "submitted_us" => -5},
        );
        // Still watched for a failed Guardian, but never age-computed
        // from a wrapped timestamp.
        let bad = active(&st, "bad").unwrap();
        assert_eq!(bad.pending_since, None);
        assert_eq!(bad.held, None, "no tenant, no quota charged");
    }
}
