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
//! feed above a watermark (`FindChanged`) into in-memory watchlists and
//! sweeps only those, so per-tick work is proportional to what changed
//! plus what is actually being watched — not to the total number of jobs
//! ever submitted. The watchlists are a cache, not state: an LCM restart
//! begins at watermark 0, which replays the full feed and rebuilds them,
//! preserving the statelessness the paper's recovery story relies on.
//!
//! # Replicated LCM: lease-sharded job ownership
//!
//! With more than one replica, every replica ingests the full change feed
//! (the watchlists are cheap), but *sweeps* only the jobs whose id hashes
//! into a shard it owns ([`paths::job_shard`]). Ownership is arbitrated
//! through etcd: each replica holds a lease
//! ([`crate::config::LCM_LEASE_TTL`]) and CAS-acquires
//! absent [`paths::lcm_shard_owner`] keys with that lease attached. When
//! a replica dies, its lease expires, etcd deletes its owner keys, and
//! the survivors race ordinary delete watch events (plus a periodic
//! reconcile backstop) to adopt the orphaned shards — CAS picks exactly
//! one winner per shard.
//!
//! Two defects this design exists to prevent, each with a regression
//! test in `tests/tests/recovery_bugs.rs`:
//!
//! * **Double drive** — a replica that cannot refresh its lease keeps
//!   sweeping while a survivor adopts its shards. Prevented by a local
//!   *fence*: the deadline is stamped from the **send** time of the
//!   grant/keepalive that established it, so it is always ≤ the deadline
//!   the server holds; sweeping stops at the fence, strictly before the
//!   server can delete the owner keys and let anyone else in.
//! * **Orphaned shard** — listing the owner keys *before* watching the
//!   prefix misses a deletion between the two, leaving a shard unswept
//!   until some unrelated event. Prevented by registering the watch
//!   first and treating the initial listing as the first reconcile.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use dlaas_docstore::Value;
use dlaas_etcd::{EtcdClient, KvEvent, LeaseId};
use dlaas_kube::{
    labels, pod_addr, Cleanup, ContainerSpec, ImageRef, JobStatus as KubeJobStatus, PodSpec,
    ProcessCtx, Resources,
};
use dlaas_sim::{Sim, SimTime};

use crate::config;
use crate::fairness::{admission_plan, QueuedJob, TenantShare};
use crate::handles::Handles;
use crate::job::{JobId, JobStatus};
use crate::metrics;
use crate::mongo::{MetaClient, JOBS, TENANTS};
use crate::paths;
use crate::proto::{CoreRequest, CoreResponse};
use crate::tenant::Tenant;

/// The shard whose owner runs the admission arbiter. Fair-queue admission
/// is a global decision (usage ratios compare across tenants), so it runs
/// on exactly one replica — and shard ownership already provides an
/// at-most-one primitive with lease-fenced failover for free.
const ARBITER_SHARD: u32 = 0;

/// Behavior factory for the LCM container.
pub fn lcm_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let addr = pod_addr(&ctx.pod);
    let meta = h.meta(&ctx, &ctx.pod);
    sim.mark("lcm", ctx.pod.as_str(), "up", 0);

    let h2 = h.clone();
    let ctx2 = ctx.clone();
    let meta2 = meta.clone();
    h.rpc.serve(addr.clone(), move |sim, req, responder| {
        if !ctx2.is_alive() {
            return;
        }
        match req {
            CoreRequest::DeployJob { job } => {
                ensure_guardian(sim, &h2, job);
                responder.ok(sim, CoreResponse::Ok);
            }
            CoreRequest::StopJob { job } => {
                let h3 = h2.clone();
                let job2 = job.clone();
                meta2.advance_status(sim, job, JobStatus::Killed, move |sim, r| match r {
                    Ok(_) => {
                        teardown_job(sim, &h3, &job2, true);
                        responder.ok(sim, CoreResponse::Ok);
                    }
                    Err(e) => responder.err(sim, e.to_string()),
                });
            }
            _ => responder.err(sim, "not an LCM endpoint"),
        }
    });

    // Shard-ownership machinery. The watch is registered BEFORE the
    // first listing (inside the post-grant reconcile): list-then-watch
    // would miss an owner-key deletion between the two and orphan the
    // shard until the next unrelated event.
    let rep = Rc::new(Replica {
        h: h.clone(),
        etcdc: h.etcd_client(&ctx, &ctx.pod),
        pod: ctx.pod.clone(),
        alive: ctx.alive_flag(),
        own: RefCell::new(Ownership {
            lease: None,
            fence: SimTime::ZERO,
            granting: false,
            owned: BTreeSet::new(),
        }),
    });
    let rep_watch = rep.clone();
    rep.etcdc
        .watch_prefix(sim, paths::LCM_SHARDS_PREFIX, move |sim, ev| {
            if !rep_watch.alive.get() {
                return;
            }
            if let KvEvent::Delete { key, .. } = ev {
                if let Some(shard) = key
                    .strip_prefix(paths::LCM_SHARDS_PREFIX)
                    .and_then(|s| s.parse::<u32>().ok())
                {
                    // An owner key vanished: its holder's lease expired.
                    // Every survivor races for it; the CAS picks one.
                    try_acquire(sim, &rep_watch, shard, "watch");
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

    // The background scan. The watchlist cache dies with this
    // incarnation; a successor starts at watermark 0 and rebuilds it
    // from the full change feed.
    let scan_period = config::LCM_SCAN;
    let h3 = h.clone();
    let meta3 = meta.clone();
    let alive = ctx.alive_flag();
    let state = Rc::new(RefCell::new(ScanState::default()));
    let rep_scan = rep.clone();
    let timer = dlaas_sim::every(sim, scan_period, move |sim, _n| {
        if !alive.get() {
            return false;
        }
        reconcile(sim, &rep_scan);
        scan(sim, &h3, &meta3, &state, &rep_scan);
        true
    });

    let rpc = h.rpc.clone();
    Box::new(move |sim| {
        timer.cancel();
        ka_timer.cancel();
        // Stand down in the ledger so a successor's sweeps are not
        // charged as conflicts with this incarnation. The lease itself
        // is deliberately NOT revoked — a real crash could not have, and
        // expiry-driven takeover is the recovery path under test.
        rep.h.shard_tracker.release_all(sim, &rep.pod);
        rep.own.borrow_mut().owned.clear();
        rpc.stop_serving(&addr);
        // The per-incarnation etcd client (and the shard watch on it) is
        // closed by the kubelet right after this, so a restarted pod of
        // the same name can register its own watch endpoint.
    })
}

/// A replica's local view of its lease and shard ownership. Everything
/// here is conservative cache: etcd's replicated lease + owner keys are
/// the source of truth, and the fence guarantees this view never claims
/// more than the server would grant.
struct Ownership {
    lease: Option<LeaseId>,
    /// Conservative local expiry: stamped from the **send** time of the
    /// grant/keepalive that established it, so it is always ≤ the
    /// deadline the server holds (the server stamps at apply time, which
    /// is later). Sweeping stops at the fence — strictly before the
    /// server could delete this replica's owner keys.
    fence: SimTime,
    /// A grant RPC is in flight (avoid stacking retries).
    granting: bool,
    /// Shards this incarnation acquired under `lease`.
    owned: BTreeSet<u32>,
}

/// Per-incarnation shard-ownership context shared by the watch handler,
/// the keepalive timer and the scan timer.
struct Replica {
    h: Handles,
    etcdc: EtcdClient,
    pod: String,
    alive: Rc<Cell<bool>>,
    own: RefCell<Ownership>,
}

/// `true` while the replica holds a lease whose local fence has not
/// lapsed — the precondition for acquiring shards and for sweeping.
fn lease_valid(rep: &Replica, now: SimTime) -> bool {
    let o = rep.own.borrow();
    o.lease.is_some() && now < o.fence
}

/// `true` when this replica may sweep `job`: its shard is owned and the
/// lease fence is still ahead.
fn owns_job(rep: &Replica, now: SimTime, job: &JobId) -> bool {
    lease_valid(rep, now)
        && rep
            .own
            .borrow()
            .owned
            .contains(&paths::job_shard(job, config::LCM_SHARDS))
}

/// Grants a fresh lease if none is held and no grant is in flight. On
/// success the fence starts at send-time + TTL and a reconcile pass
/// races for unowned shards.
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
        // lease the replica owns nothing and sweeps nothing, and the
        // keepalive timer re-enters ensure_lease every tick — the retry
        // IS the handling.
        if let Ok(id) = r {
            {
                let mut o = rep2.own.borrow_mut();
                o.lease = Some(id);
                o.fence = sent + ttl;
            }
            sim.mark("lcm", rep2.pod.as_str(), "lease-granted", id);
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
    if !lease_valid(rep, sim.now()) {
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
                // the owner keys are gone (or going). Stand down and
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

/// Releases every shard and forgets the lease, updating the ledger and
/// metrics. Called from the fence/expiry paths only — the CAS'd owner
/// keys are left to die with the lease.
fn drop_ownership(sim: &mut Sim, rep: &Rc<Replica>, reason: &'static str) {
    let (lease, dropped) = {
        let mut o = rep.own.borrow_mut();
        (o.lease.take(), std::mem::take(&mut o.owned))
    };
    rep.h.shard_tracker.release_all(sim, &rep.pod);
    for &shard in &dropped {
        sim.mark("lcm", shard, "lost-with-lease", lease.unwrap_or(0));
        sim.metrics()
            .counter_series(metrics::LCM_SHARD_LOSSES, [reason])
            .inc();
    }
}

/// Races a CAS (expect-absent, value = pod, attached to our lease) for
/// one shard's owner key. Losing is normal — someone else won, or etcd
/// is down — and the reconcile backstop retries.
fn try_acquire(sim: &mut Sim, rep: &Rc<Replica>, shard: u32, trigger: &'static str) {
    if shard >= config::LCM_SHARDS || rep.own.borrow().owned.contains(&shard) {
        return;
    }
    if !lease_valid(rep, sim.now()) {
        return;
    }
    let Some(lease) = rep.own.borrow().lease else {
        return;
    };
    let rep2 = rep.clone();
    rep.etcdc.cas_with_lease(
        sim,
        paths::lcm_shard_owner(shard),
        None,
        Some(rep.pod.clone()),
        Some(lease),
        move |sim, r| {
            if !rep2.alive.get() || !matches!(r, Ok(true)) {
                return;
            }
            let claimed = {
                let mut o = rep2.own.borrow_mut();
                // The CAS won under `lease`; adopt the shard only if that
                // lease is still the one we live on and the fence holds.
                // A stale win's key simply dies with the old lease.
                o.lease == Some(lease) && sim.now() < o.fence && o.owned.insert(shard)
            };
            if claimed {
                rep2.h.shard_tracker.claim(sim, shard, &rep2.pod);
                sim.mark("lcm", shard, "acquired-under-lease", lease);
                sim.metrics()
                    .counter_series(metrics::LCM_SHARD_ACQUISITIONS, [trigger])
                    .inc();
            }
        },
    );
}

/// Periodic backstop: lists the owner keys and races for any unowned
/// shard. Also the *initial* acquisition pass (the watch is registered
/// before the first call, so nothing can slip between list and watch).
fn reconcile(sim: &mut Sim, rep: &Rc<Replica>) {
    if !lease_valid(rep, sim.now()) {
        return;
    }
    let rep2 = rep.clone();
    rep.etcdc
        .get_prefix(sim, paths::LCM_SHARDS_PREFIX, move |sim, r| {
            if !rep2.alive.get() {
                return;
            }
            // etcd unreachable: reconcile is itself the retry loop — it
            // re-runs every scan tick, so a missed pass only delays
            // shard acquisition by one period.
            let Ok(pairs) = r else {
                return;
            };
            let listed: BTreeMap<String, String> = pairs.into_iter().collect();
            for shard in 0..config::LCM_SHARDS {
                let key = paths::lcm_shard_owner(shard);
                let owned = rep2.own.borrow().owned.contains(&shard);
                match listed.get(&key) {
                    None if !owned => try_acquire(sim, &rep2, shard, "reconcile"),
                    // Owned but absent from the listing: while our fence
                    // holds, our lease cannot have been revoked (the
                    // guarded revoke fires only past the server deadline,
                    // which is ≥ the fence) and nothing else deletes
                    // owner keys — so the listing is just stale against
                    // an acquisition that landed after its snapshot.
                    None => {}
                    Some(v) if owned && *v != rep2.pod => {
                        // Cannot happen while the fence holds (same
                        // argument as above); defensive backstop so an
                        // unforeseen displacement degrades to a released
                        // shard, never a double drive.
                        rep2.own.borrow_mut().owned.remove(&shard);
                        rep2.h.shard_tracker.release(sim, shard, &rep2.pod);
                        sim.metrics()
                            .counter_series(metrics::LCM_SHARD_LOSSES, ["displaced"])
                            .inc();
                    }
                    // Held by someone else — or by a previous incarnation
                    // of this very pod (same value, but not in `owned`):
                    // that key is attached to the dead incarnation's
                    // lease and will expire; never adopt it.
                    Some(_) => {}
                }
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
    sim.mark("lcm", job.as_str(), "guardian-created", 0);
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
    sim.mark("lcm", job.as_str(), "teardown", 0);
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
    h.nfs.delete_volume_named(&paths::volume(job));
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

/// The scan's watchlists, keyed off the metadata store's change feed.
///
/// Everything here is a cache of the jobs collection: a fresh incarnation
/// (watermark 0) rebuilds it from the full feed, so losing it in an LCM
/// crash costs one wide scan, never correctness.
#[derive(Debug, Default)]
struct ScanState {
    /// Change-feed sequence number the next scan resumes from.
    watermark: u64,
    /// PENDING jobs and when they were admitted (redeploy backstop).
    pending: BTreeMap<JobId, SimTime>,
    /// DEPLOYING jobs and when they entered that state (deploy timeout).
    deploying: BTreeMap<JobId, SimTime>,
    /// All non-terminal admitted jobs (Guardian gave-up watch).
    active: BTreeSet<JobId>,
    /// Jobs the sweep is failing whose FAILED write is in flight.
    failing: BTreeSet<JobId>,
    /// Terminal jobs not yet confirmed free of cluster leftovers.
    terminal_gc: BTreeSet<JobId>,
    /// QUEUED jobs awaiting fair-queue admission.
    queued: BTreeMap<JobId, QueuedInfo>,
    /// GPU demand of admitted, non-terminal jobs (tenant, gpus) — the
    /// arbiter's usage view, folded to per-tenant sums each round.
    usage: BTreeMap<JobId, (String, u32)>,
    /// Tenants-collection change-feed watermark.
    tenants_watermark: u64,
    /// The tenant registry (quotas + fair-share weights), fed by the
    /// tenants collection's change feed.
    tenants: BTreeMap<String, TenantShare>,
    /// Tenants whose queue-depth gauge this replica last set (so a
    /// drained tenant's gauge drops back to 0 instead of going stale).
    gauged: BTreeSet<String>,
}

impl ScanState {
    /// Takes `job` off every watchlist.
    fn forget(&mut self, job: &JobId) {
        self.pending.remove(job);
        self.deploying.remove(job);
        self.active.remove(job);
        self.terminal_gc.remove(job);
        self.queued.remove(job);
        self.usage.remove(job);
    }
}

/// The arbiter's view of one QUEUED job.
#[derive(Debug)]
struct QueuedInfo {
    tenant: String,
    gpus: u32,
    since_us: u64,
}

/// Records an admitted non-terminal job's GPU demand in the arbiter's
/// usage view (skipped when the document has no tenant — such a document
/// is malformed, but quota math degrading to "uncounted" is the safe
/// direction: the invariant checker still sees it).
fn track_usage(st: &mut ScanState, job: &JobId, doc: &Value) {
    if let Some(tenant) = doc.path("tenant").and_then(Value::as_str) {
        st.usage
            .insert(job.clone(), (tenant.to_owned(), crate::api::doc_gpus(doc)));
    }
}

/// Folds one changed job document into the watchlists.
fn ingest(sim: &mut Sim, st: &mut ScanState, doc: &Value) {
    let Some(id) = doc.path("_id").and_then(Value::as_str) else {
        return;
    };
    let job = JobId::new(id);
    st.forget(&job);
    match JobStatus::of(doc) {
        Some(JobStatus::Queued) => {
            let tenant = doc.path("tenant").and_then(Value::as_str);
            let since = doc
                .path("submitted_us")
                .and_then(Value::as_i64)
                .and_then(|us| u64::try_from(us).ok());
            match (tenant, since) {
                (Some(tenant), Some(since_us)) => {
                    st.queued.insert(
                        job,
                        QueuedInfo {
                            tenant: tenant.to_owned(),
                            gpus: crate::api::doc_gpus(doc),
                            since_us,
                        },
                    );
                }
                // Missing tenant / negative timestamp is store
                // corruption: keep the job off the admission queue like
                // the other malformed-record paths.
                _ => {
                    sim.metrics()
                        .counter_series(metrics::LCM_MALFORMED_RECORDS, ["queued"])
                        .inc();
                }
            }
        }
        Some(JobStatus::Pending) => {
            st.active.insert(job.clone());
            track_usage(st, &job, doc);
            // Age from `admitted_us` (fair-queue admission stamps it; for
            // directly admitted jobs it equals `submitted_us`, which
            // remains the fallback for pre-fairness documents). A
            // negative stamp is store corruption: leave the job off the
            // redeploy watchlist instead of wrapping it to a huge
            // timestamp (which would pin the job's age at zero and
            // strand it forever).
            let field = if doc.path("admitted_us").is_some() {
                "admitted_us"
            } else {
                "submitted_us"
            };
            match u64::try_from(doc.path(field).and_then(Value::as_i64).unwrap_or(0)) {
                Ok(admitted) => {
                    st.pending.insert(job, SimTime::from_micros(admitted));
                }
                Err(_) => {
                    sim.metrics()
                        .counter_series(metrics::LCM_MALFORMED_RECORDS, [field])
                        .inc();
                }
            }
        }
        Some(JobStatus::Deploying) => {
            st.active.insert(job.clone());
            track_usage(st, &job, doc);
            if let Some(since) = deploying_since(doc) {
                st.deploying.insert(job, since);
            }
        }
        Some(JobStatus::Processing | JobStatus::Storing) => {
            st.active.insert(job.clone());
            track_usage(st, &job, doc);
        }
        Some(JobStatus::Completed | JobStatus::Failed | JobStatus::Killed) => {
            st.terminal_gc.insert(job);
        }
        // Unparseable status: watch nothing; the document re-enters the
        // feed if it is ever repaired.
        None => {}
    }
}

fn scan(
    sim: &mut Sim,
    h: &Handles,
    meta: &MetaClient,
    state: &Rc<RefCell<ScanState>>,
    rep: &Rc<Replica>,
) {
    let since = state.borrow().watermark;
    let h2 = h.clone();
    let meta2 = meta.clone();
    let state2 = state.clone();
    let rep2 = rep.clone();
    meta.find_changed(sim, JOBS, since, move |sim, r| {
        // Store unreachable: keep the old watermark and retry next tick.
        let Ok((docs, gone, high_water)) = r else {
            return;
        };
        {
            let mut st = state2.borrow_mut();
            st.watermark = high_water;
            for doc in &docs {
                ingest(sim, &mut st, doc);
            }
            for job in gone.iter().map(JobId::new) {
                st.forget(&job);
            }
        }
        // Pull the tenants feed too (quota/weight edits are rare, so
        // this is almost always an empty delta), then sweep and run the
        // admission arbiter on the fresh view.
        let tenants_since = state2.borrow().tenants_watermark;
        let h3 = h2.clone();
        let meta3 = meta2.clone();
        let state3 = state2.clone();
        let rep3 = rep2.clone();
        meta2.find_changed(sim, TENANTS, tenants_since, move |sim, r| {
            if let Ok((docs, gone, high_water)) = r {
                let mut st = state3.borrow_mut();
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
            // Tenants feed unreachable: sweep with the cached registry.
            sweep(sim, &h3, &meta3, &state3, &rep3);
            admit(sim, &h3, &meta3, &state3, &rep3);
        });
    });
}

/// The fair-queue admission arbiter: runs only on the replica currently
/// owning [`ARBITER_SHARD`], computes the pure [`admission_plan`] over
/// the watchlists, and applies it with CAS-guarded QUEUED → PENDING
/// updates. Admissions are deliberately NOT reported as sweep drives:
/// the admitted job's shard may belong to another replica, and the
/// ledger's at-most-one-owner check is about lifecycle sweeps — the
/// admission write itself is single-winner by the status CAS, and
/// [`ensure_guardian`] is idempotent under races with the owner's own
/// pending sweep.
fn admit(
    sim: &mut Sim,
    h: &Handles,
    meta: &MetaClient,
    state: &Rc<RefCell<ScanState>>,
    rep: &Rc<Replica>,
) {
    if !lease_valid(rep, sim.now()) || !rep.own.borrow().owned.contains(&ARBITER_SHARD) {
        return;
    }

    // Queue-depth gauges (single writer: this arbiter). Tenants whose
    // queue drained since the last round are reset to 0.
    let (tenants, usage, queued) = {
        let mut st = state.borrow_mut();
        let mut depths: BTreeMap<String, f64> = BTreeMap::new();
        for info in st.queued.values() {
            *depths.entry(info.tenant.clone()).or_insert(0.0) += 1.0;
        }
        for tenant in &st.gauged {
            if !depths.contains_key(tenant) {
                sim.metrics()
                    .gauge_series(metrics::TENANT_QUEUE_DEPTH, [tenant])
                    .set(0.0);
            }
        }
        for (tenant, depth) in &depths {
            sim.metrics()
                .gauge_series(metrics::TENANT_QUEUE_DEPTH, [tenant])
                .set(*depth);
        }
        st.gauged = depths.keys().cloned().collect();

        let mut usage: BTreeMap<String, u32> = BTreeMap::new();
        for (tenant, gpus) in st.usage.values() {
            *usage.entry(tenant.clone()).or_insert(0) += gpus;
        }
        let queued: Vec<QueuedJob> = st
            .queued
            .iter()
            .map(|(job, i)| QueuedJob {
                job: job.clone(),
                tenant: i.tenant.clone(),
                gpus: i.gpus,
                since_us: i.since_us,
            })
            .collect();
        (st.tenants.clone(), usage, queued)
    };
    if queued.is_empty() {
        return;
    }

    for job in admission_plan(&tenants, &usage, &queued) {
        let Some(q) = queued.iter().find(|q| q.job == job) else {
            continue;
        };
        let tenant = q.tenant.clone();
        let since_us = q.since_us;
        let h2 = h.clone();
        let job = job.clone();
        // The local queued entry is left in place: on success the status
        // change re-enters through the jobs feed before the next round
        // (moving the job to the pending/usage lists), and on a lost CAS
        // race or store error the entry must survive for a retry anyway.
        meta.admit_job(sim, &job.clone(), move |sim, r| {
            if !matches!(r, Ok(true)) {
                return;
            }
            let waited = sim.now().as_micros().saturating_sub(since_us);
            sim.metrics()
                .histogram_series(metrics::TENANT_ADMISSION_WAIT, [&tenant])
                .observe(waited as f64);
            sim.mark("lcm", job.as_str(), "admitted-after-us", waited);
            ensure_guardian(sim, &h2, &job);
        });
    }
}

/// Records a sweep drive against `job` in the ownership ledger right
/// before acting on it — the probe the at-most-one-owner invariant sees.
fn note_sweep(sim: &Sim, rep: &Replica, job: &JobId) {
    let shard = paths::job_shard(job, config::LCM_SHARDS);
    rep.h
        .shard_tracker
        .note_sweep(sim, shard, job.as_str(), &rep.pod);
}

/// Walks the watchlists (not the whole collection) and applies the three
/// self-healing rules — to owned shards only. Every replica ingests the
/// full feed, but a job is swept exclusively by the current owner of its
/// shard; each drive is reported to the ownership ledger first.
fn sweep(
    sim: &mut Sim,
    h: &Handles,
    meta: &MetaClient,
    state: &Rc<RefCell<ScanState>>,
    rep: &Rc<Replica>,
) {
    // 1. Re-deploy PENDING jobs that have sat too long without a Guardian.
    let redeploy_after = config::PENDING_REDEPLOY_AFTER;
    let pending: Vec<(JobId, SimTime)> = state
        .borrow()
        .pending
        .iter()
        .map(|(j, t)| (j.clone(), *t))
        .collect();
    for (job, submitted) in pending {
        if !owns_job(rep, sim.now(), &job) {
            continue;
        }
        let age = sim.now().saturating_duration_since(submitted);
        if age >= redeploy_after && h.kube.job_status(&paths::guardian_job(&job)).is_none() {
            note_sweep(sim, rep, &job);
            sim.mark("lcm", job.as_str(), "redeploy-stranded", 0);
            sim.metrics()
                .counter_series(metrics::LCM_SCAN_REDEPLOYS, [])
                .inc();
            ensure_guardian(sim, h, &job);
        }
    }

    // 2. Fail jobs whose Guardian exhausted its K8s backoff limit, and
    //    jobs stuck in DEPLOYING past the deploy timeout (undeployable:
    //    e.g. they request hardware the cluster does not have). Both
    //    checks read local Kubernetes/watchlist state only.
    let deploy_timeout = config::DEPLOY_TIMEOUT;
    let mut to_fail: Vec<(JobId, bool)> = Vec::new();
    {
        let st = state.borrow();
        for job in &st.active {
            if !owns_job(rep, sim.now(), job) {
                continue;
            }
            let guardian_gave_up =
                h.kube.job_status(&paths::guardian_job(job)) == Some(KubeJobStatus::Failed);
            let deploy_stuck = st
                .deploying
                .get(job)
                .is_some_and(|since| sim.now().saturating_duration_since(*since) >= deploy_timeout);
            if guardian_gave_up || deploy_stuck {
                to_fail.push((job.clone(), guardian_gave_up));
            }
        }
    }
    for (job, guardian_gave_up) in to_fail {
        // One FAILED write per job in flight: a slow one must not be
        // doubled by the next tick.
        if !state.borrow_mut().failing.insert(job.clone()) {
            continue;
        }
        // (A deploy timeout usually means unschedulable resources.)
        let reason = if guardian_gave_up {
            "guardian_gave_up"
        } else {
            "deploy_timeout"
        };
        note_sweep(sim, rep, &job);
        sim.mark("lcm", job.as_str(), reason, 0);
        let h4 = h.clone();
        let state2 = state.clone();
        meta.advance_status(sim, &job.clone(), JobStatus::Failed, move |sim, r| {
            let mut st = state2.borrow_mut();
            st.failing.remove(&job);
            // Refused: the document is not FAILED, so the job stays on
            // the watchlists with its resources and the next tick fails
            // it again.
            if r.is_err() {
                return;
            }
            // The job is over: off the watchlists now (the terminal status
            // change re-enters it through the feed as a GC candidate), and
            // only now torn down.
            st.forget(&job);
            drop(st);
            sim.metrics()
                .counter_series(metrics::LCM_SCAN_FAILURES, [reason])
                .inc();
            teardown_job(sim, &h4, &job, true);
        });
    }

    // 3. Garbage-collect leftovers of terminal jobs. A job leaves the
    //    watchlist only once its pods and volume are gone AND an etcd
    //    probe confirms no leaked keys (a teardown that ran during an
    //    etcd outage may have lost its delete_prefix; nothing else ever
    //    looks at those keys again).
    let terminal: Vec<JobId> = state.borrow().terminal_gc.iter().cloned().collect();
    for job in terminal {
        if !owns_job(rep, sim.now(), &job) {
            continue;
        }
        let has_pods = !h
            .kube
            .pods_matching(&labels! {"job" => job.as_str()})
            .is_empty();
        let has_volume = h.nfs.find_volume(&paths::volume(&job)).is_some();
        if has_pods || has_volume {
            note_sweep(sim, rep, &job);
            sim.mark("lcm", job.as_str(), "gc-leftovers", 0);
            sim.metrics().counter_series(metrics::LCM_SCAN_GC, []).inc();
            teardown_job(sim, h, &job, true);
        } else {
            let h6 = h.clone();
            let state3 = state.clone();
            let rep3 = rep.clone();
            let prefix = paths::etcd_job_prefix(&job);
            let prefix2 = prefix.clone();
            h.etcd_gc.get_prefix(sim, prefix, move |sim, r| {
                match r {
                    Ok(pairs) if !pairs.is_empty() => {
                        note_sweep(sim, &rep3, &job);
                        sim.mark("lcm", job.as_str(), "gc-etcd-keys", 0);
                        sim.metrics().counter_series(metrics::LCM_SCAN_GC, []).inc();
                        h6.etcd_gc.delete_prefix(sim, prefix2, |_sim, _r| {});
                        // Keep watching: next tick re-probes until clean.
                    }
                    Ok(_) => {
                        // Confirmed clean: stop watching this job.
                        state3.borrow_mut().terminal_gc.remove(&job);
                    }
                    // etcd unreachable: the job stays in terminal_gc, so the
                    // next sweep tick re-probes this prefix — the retry IS
                    // the handling (a metric here would double-count etcd's
                    // own error counters).
                    Err(_) => {}
                }
            });
        }
    }
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

        assert_eq!(
            st.pending.get(&JobId::new("p")),
            Some(&SimTime::from_micros(42))
        );
        assert_eq!(
            st.deploying.get(&JobId::new("d")),
            Some(&SimTime::from_micros(7))
        );
        assert_eq!(
            st.active.len(),
            3,
            "pending+deploying+processing are active"
        );
        assert!(st.terminal_gc.contains(&JobId::new("t")));
        assert!(!st.active.contains(&JobId::new("t")));

        // A status transition moves the job between lists instead of
        // leaving a stale entry behind.
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "p", "status" => "FAILED"},
        );
        assert!(st.pending.is_empty());
        assert!(!st.active.contains(&JobId::new("p")));
        assert!(st.terminal_gc.contains(&JobId::new("p")));
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
            st.pending.get(&JobId::new("p")),
            Some(&SimTime::from_micros(9000))
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
        let info = st.queued.get(&JobId::new("q")).unwrap();
        assert_eq!(
            (info.tenant.as_str(), info.gpus, info.since_us),
            ("acme", 4, 100)
        );
        assert!(
            !st.active.contains(&JobId::new("q")),
            "queued is not active"
        );
        assert!(st.usage.is_empty(), "queued jobs hold no quota");

        // Admission moves it to the pending + usage views.
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "q", "status" => "PENDING", "tenant" => "acme",
            "gpus" => 4, "submitted_us" => 100, "admitted_us" => 500},
        );
        assert!(st.queued.is_empty());
        assert_eq!(
            st.usage.get(&JobId::new("q")),
            Some(&("acme".to_owned(), 4))
        );

        // A queued document missing its tenant is malformed: skipped.
        ingest(
            &mut sim,
            &mut st,
            &obj! {"_id" => "bad", "status" => "QUEUED", "submitted_us" => 1},
        );
        assert!(st.queued.is_empty());
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
        assert!(st.pending.is_empty());
        assert!(st.active.contains(&JobId::new("bad")));
    }
}
