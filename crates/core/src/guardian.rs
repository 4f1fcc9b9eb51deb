//! The Guardian: per-job atomic deployment and monitoring.
//!
//! "The LCM simply instantiates a component called the Guardian with all
//! the metadata of the DL job [as a K8s Job]. The Guardian then executes
//! the multi-step process of actually deploying the DL job […]. If the
//! Guardian crashes in the middle of a job deployment, K8S is guaranteed
//! to restart it. The restarted Guardian will roll back the previous
//! partially deployed DL job and starts a fresh deployment process. In
//! the presence of persistent failures, this process will be repeated for
//! a (configurable) number of times before the Guardian gives up and
//! marks the DL job in MongoDB as FAILED. Once a DL job is successfully
//! deployed, the Guardian is then responsible for monitoring its
//! progress." (§III-d)
//!
//! Instance state is deliberately all volatile: a restarted Guardian must
//! reconstruct everything from MongoDB (job record, attempt counter),
//! Kubernetes (existing resources) and etcd (learner statuses) — that is
//! exactly what makes the deployment atomic under crashes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

use dlaas_docstore::{Filter, Update, Value};
use dlaas_etcd::EtcdClient;
use dlaas_gpu::Framework;
use dlaas_kube::{
    labels, pod_addr, Cleanup, ContainerSpec, ImageRef, NetworkPolicy, PodSpec, ProcessCtx,
    Resources, RestartPolicy,
};
use dlaas_sim::{MarkDef, Sim, SimDuration};

use crate::config;
use crate::handles::{Handles, LCM_SERVICE};
use crate::job::{JobId, JobStatus, LearnerPhase};
use crate::lcm::{send_hint, teardown_job};
use crate::manifest::TrainingManifest;
use crate::marks::{self, guardian};
use crate::metrics;
use crate::mongo::{MetaClient, JOBS};
use crate::paths::{self, JobKey};
use crate::publisher::{at_once, Ack, Publisher, Sink};

/// Image for a framework's learner container.
fn framework_image(f: Framework) -> ImageRef {
    ImageRef::new(format!("dlaas/{f}").to_lowercase(), f.image_bytes())
}

/// The job-document fields mirroring training progress, so users can see
/// them through the API while the job runs.
#[derive(Clone, Default, PartialEq)]
struct Mirror {
    learners: BTreeMap<u32, LearnerPhase>,
    restarts: u64,
}

/// What the monitor has absorbed of the job's etcd prefix.
#[derive(Default)]
struct MonitorState {
    progress: Mirror,
    store: Option<String>,
    throughput: Option<f64>,
}

/// The job status the learners' statuses call for — COMPLETED with the
/// measured throughput, if the learners reported one.
type Target = (JobStatus, Option<f64>);

/// The aggregation rules of §III-f: per-learner statuses in etcd are
/// folded into the single job status in MongoDB. A pure rule, read again
/// whenever the state may have moved: what makes a transition happen once
/// is the status publisher (and the store's rank filter), not a flag here.
fn target(mon: &MonitorState, expected_learners: usize) -> Option<Target> {
    let phases = || mon.progress.learners.values();
    if phases().any(LearnerPhase::is_failed) {
        Some((JobStatus::Failed, None))
    } else if mon.store.as_deref() == Some("done") {
        Some((JobStatus::Completed, mon.throughput))
    } else if mon.progress.learners.len() == expected_learners
        && phases().all(LearnerPhase::is_completed)
    {
        Some((JobStatus::Storing, None))
    } else if phases().any(|p| matches!(p, LearnerPhase::Processing { .. })) {
        Some((JobStatus::Processing, None))
    } else {
        None
    }
}

/// The Guardian's monitor as the sink of its two publishers: the job
/// status (a conditional transition) and the progress mirror
/// (unconditional fields) are different requests, each serialised with
/// its own kind only.
struct JobDocument(Weak<Guardian>);

struct Guardian {
    h: Handles,
    ctx: ProcessCtx,
    job: JobId,
    meta: MetaClient,
    etcd: EtcdClient,
    manifest: RefCell<Option<TrainingManifest>>,
    mon: RefCell<MonitorState>,
    status: Rc<Publisher<Target, JobDocument>>,
    mirror: Rc<Publisher<Mirror, JobDocument>>,
    /// Sim-time (µs) the current deployment attempt started, for the
    /// deploy-to-PROCESSING histogram. `None` while only monitoring.
    deploy_started_us: Cell<Option<u64>>,
    /// Owning tenant and submission stamp, loaded at boot — the
    /// per-tenant turnaround histogram is observed on the terminal
    /// transition this guardian applies.
    tenant: RefCell<Option<String>>,
    submitted_us: Cell<u64>,
}

/// Behavior factory for the Guardian container (arg = job id).
pub fn guardian_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    let meta = h.meta(&ctx, &ctx.pod);
    // A fresh client per incarnation, closed with it (`Handles::etcd_client`).
    let etcd = h.etcd_client(&ctx, &format!("{}#{}", ctx.pod, ctx.incarnation));
    let alive = ctx.alive_flag();
    let g = Rc::new_cyclic(|me| Guardian {
        h,
        ctx,
        job,
        meta,
        etcd,
        manifest: RefCell::new(None),
        mon: RefCell::new(MonitorState::default()),
        status: Publisher::new(JobDocument(me.clone()), at_once, SimDuration::ZERO, &alive),
        mirror: Publisher::new(JobDocument(me.clone()), at_once, SimDuration::ZERO, &alive),
        deploy_started_us: Cell::new(None),
        tenant: RefCell::new(None),
        submitted_us: Cell::new(0),
    });
    // A job document is born holding the empty mirror.
    g.mirror.seed(Mirror::default(), sim.now());
    g.mark(sim, &guardian::UP, 0);
    g.boot(sim);
    Box::new(|_sim| {})
}

impl Guardian {
    /// One mark on the job's timeline.
    fn mark(&self, sim: &mut Sim, def: &'static MarkDef, arg: u64) {
        sim.mark(def, self.job.as_str(), arg);
    }

    /// The manifest loaded at boot. A `None` here means the in-memory
    /// state was lost in a way the deploy steps cannot recover from
    /// (deploy steps only run after a successful boot load); instead of
    /// panicking the platform process — an unmodelled crash the invariant
    /// checker cannot attribute — the incarnation aborts and K8s restarts
    /// it, bounded by `deploy_max_attempts`.
    fn manifest_or_abort(self: &Rc<Self>, sim: &mut Sim) -> Option<TrainingManifest> {
        let m = self.manifest.borrow().clone();
        if m.is_none() {
            self.mark(sim, &guardian::MANIFEST_MISSING, 0);
            self.ctx.exit(sim, 1);
        }
        m
    }

    /// Runs deployment step `next` one step latency from now, unless the
    /// process has died meanwhile.
    fn then(self: &Rc<Self>, sim: &mut Sim, next: fn(Rc<Self>, &mut Sim)) {
        let me = self.clone();
        sim.schedule_in(config::GUARDIAN_STEP_LATENCY, move |sim| {
            if me.alive() {
                next(me, sim);
            }
        });
    }

    fn alive(&self) -> bool {
        self.ctx.is_alive()
    }

    /// Phase 0: load the job record and decide what to do.
    fn boot(self: Rc<Self>, sim: &mut Sim) {
        let me = self.clone();
        let filter = Filter::eq("_id", self.job.as_str());
        self.meta.find_one(sim, JOBS, filter, move |sim, r| {
            if !me.alive() {
                return;
            }
            let doc = match r {
                Ok(Some(d)) => d,
                Ok(None) => {
                    // No such job: nothing to guard. Exit non-zero so the
                    // K8s Job eventually gives up.
                    me.mark(sim, &guardian::JOB_RECORD_MISSING, 0);
                    me.ctx.exit(sim, 1);
                    return;
                }
                Err(_) => {
                    me.mark(sim, &guardian::METADATA_UNAVAILABLE, 0);
                    me.ctx.exit(sim, 1);
                    return;
                }
            };
            let status = JobStatus::of(&doc).unwrap_or(JobStatus::Failed);
            *me.tenant.borrow_mut() = doc
                .path("tenant")
                .and_then(Value::as_str)
                .map(str::to_owned);
            me.submitted_us.set(
                doc.path("submitted_us")
                    .and_then(Value::as_i64)
                    .and_then(|us| u64::try_from(us).ok())
                    .unwrap_or(0),
            );
            let manifest = doc
                .path("manifest")
                .and_then(Value::as_str)
                .and_then(|s| TrainingManifest::from_json(s).ok());
            let Some(manifest) = manifest else {
                me.mark(sim, &guardian::CORRUPT_MANIFEST, 0);
                me.fail_job(sim);
                return;
            };
            *me.manifest.borrow_mut() = Some(manifest);

            if status.is_terminal() {
                // We restarted after the job ended: just make sure nothing
                // is left behind.
                me.mark(sim, &guardian::ALREADY_TERMINAL, 0);
                teardown_job(sim, &me.h, &me.job, false);
                me.ctx.exit(sim, 0);
                return;
            }

            let deployed = me.resources_present();
            if matches!(status, JobStatus::Processing | JobStatus::Storing) && deployed {
                // Crash during monitoring: resume monitoring only. The
                // store holds PROCESSING at least, so publishing starts
                // from there: a STORING it already holds is offered
                // again (to no effect) for the `store=go` that follows
                // its acknowledgement — the predecessor may have died
                // between the two.
                me.status.seed((JobStatus::Processing, None), sim.now());
                me.mark(sim, &guardian::RESUME_MONITORING, 0);
                me.start_monitoring(sim);
                return;
            }

            // Fresh deployment (or retry after a mid-deploy crash).
            // A stored count outside the budget gives up, a corrupt one
            // too (negative, or past `u32`): never a wrap into a fresh
            // budget.
            let stored = doc.path("attempts").and_then(Value::as_i64).unwrap_or(0);
            let max = me.h.config.deploy_max_attempts;
            let Some(attempts) = u32::try_from(stored).ok().filter(|&n| n < max) else {
                let tried = u64::try_from(stored.saturating_add(1)).unwrap_or(0);
                me.mark(sim, &guardian::ATTEMPTS_EXHAUSTED, tried);
                sim.metrics()
                    .counter_series(metrics::GUARDIAN_GAVE_UP, [])
                    .inc();
                me.fail_job(sim);
                return;
            };
            let attempts = attempts + 1;
            let me2 = me.clone();
            let filter = Filter::eq("_id", me.job.as_str());
            me.meta.update_one(
                sim,
                JOBS,
                filter,
                Update::inc("attempts", 1),
                move |sim, r| {
                    if !me2.alive() {
                        return;
                    }
                    if !matches!(r, Ok(true)) {
                        // The attempt was not durably recorded. Deploying
                        // anyway would let a crash-loop retry without ever
                        // advancing the counter — the paper's bounded
                        // retry guarantee ("for a configurable number of
                        // times", §III-d) rests on this write. Abort and
                        // let K8s restart us against a healthy store.
                        me2.mark(sim, &guardian::ATTEMPT_NOT_RECORDED, attempts.into());
                        me2.ctx.exit(sim, 1);
                        return;
                    }
                    me2.mark(sim, &guardian::DEPLOY_ATTEMPT, attempts.into());
                    sim.metrics()
                        .counter_series(metrics::GUARDIAN_DEPLOY_ATTEMPTS, [])
                        .inc();
                    // The first attempt has nothing to roll back; only
                    // retries after a mid-deploy crash count.
                    if attempts > 1 {
                        sim.metrics()
                            .counter_series(metrics::GUARDIAN_ROLLBACKS, [])
                            .inc();
                    }
                    me2.rollback_then_deploy(sim);
                },
            );
        });
    }

    /// `true` when the job's learner pods exist in the cluster.
    fn resources_present(&self) -> bool {
        !self
            .h
            .kube
            .pods_matching(&labels! {"job" => self.job.as_str(), "role" => "learner"})
            .is_empty()
    }

    /// The store acknowledged the job's terminal status: count it, tear
    /// everything down, hint the LCM that the job's quota is free (so the
    /// next queued job is admitted now, not at its next scan tick) and
    /// exit cleanly (so the K8s Job stops retrying us). The per-tenant
    /// turnaround histogram — submission → terminal status, queue wait
    /// included — is observed only when this write *applied* the
    /// transition, so racing guardian incarnations observe each job
    /// exactly once.
    fn ended(&self, sim: &mut Sim, status: JobStatus, applied: bool) {
        let counter = if status == JobStatus::Completed {
            metrics::GUARDIAN_JOBS_COMPLETED
        } else {
            metrics::GUARDIAN_JOBS_FAILED
        };
        sim.metrics().counter_series(counter, []).inc();
        if let Some(tenant) = self.tenant.borrow().as_ref().filter(|_| applied) {
            let elapsed_us = sim
                .now()
                .as_micros()
                .saturating_sub(self.submitted_us.get());
            sim.metrics()
                .histogram_series(metrics::TENANT_JOB_TURNAROUND, [tenant])
                .observe(elapsed_us as f64 / 1e6);
        }
        teardown_job(sim, &self.h, &self.job, false);
        let lcm = self.h.kube.resolve_service(sim, LCM_SERVICE);
        let me = pod_addr(&self.ctx.pod);
        send_hint(sim, &self.h, &me, lcm, &self.job, false);
        self.ctx.exit(sim, 0);
    }

    /// Fails a job that cannot be deployed (no monitor runs yet, so
    /// nothing would offer the write again): one shot, and if the store
    /// refuses it the incarnation aborts — K8s restarts it to try again,
    /// and past the backoff limit the LCM scan fails the job.
    fn fail_job(self: &Rc<Self>, sim: &mut Sim) {
        let me = self.clone();
        self.meta
            .advance_status(sim, &self.job, JobStatus::Failed, move |sim, r| {
                if !me.alive() {
                    return;
                }
                match r {
                    Ok(applied) => {
                        me.mark(sim, &guardian::FAILED, 0);
                        me.ended(sim, JobStatus::Failed, applied);
                    }
                    Err(_) => {
                        me.mark(sim, &guardian::FAILED_NOT_RECORDED, 0);
                        me.ctx.exit(sim, 1);
                    }
                }
            });
    }

    /// Step 1: delete any partially deployed resources of a previous
    /// attempt, then run the deployment steps.
    fn rollback_then_deploy(self: Rc<Self>, sim: &mut Sim) {
        self.deploy_started_us.set(Some(sim.now().as_micros()));
        teardown_job(sim, &self.h, &self.job, false);
        self.then(sim, Self::step_mark_deploying);
    }

    /// Step 2: record DEPLOYING (with timestamp) in the metadata store.
    fn step_mark_deploying(self: Rc<Self>, sim: &mut Sim) {
        let me = self.clone();
        self.meta
            .advance_status(sim, &self.job, JobStatus::Deploying, move |sim, r| {
                if !me.alive() {
                    return;
                }
                if r.is_ok() {
                    me.mark(sim, &guardian::DEPLOYING, 0);
                }
                me.then(sim, Self::step_provision_volume);
            });
    }

    /// Step 3: provision the shared NFS volume (the persistent volume
    /// claim) and drop the job spec on it for learners and helpers.
    fn step_provision_volume(self: Rc<Self>, sim: &mut Sim) {
        let vol = paths::volume(&self.job);
        self.h.nfs.create_volume(&vol);
        let Some(manifest) = self.manifest_or_abort(sim) else {
            return;
        };
        let staged = self
            .h
            .nfs
            .mount(&vol)
            .and_then(|mount| mount.write_file(sim, paths::NFS_JOBSPEC, manifest.to_json()));
        if staged.is_err() {
            // NFS outage window: abort this incarnation instead of
            // panicking. K8s restarts us and the retry is bounded by
            // deploy_max_attempts like every other mid-deploy failure.
            self.mark(sim, &guardian::VOLUME_PROVISION_FAILED, 0);
            self.ctx.exit(sim, 1);
            return;
        }
        self.mark(sim, &guardian::VOLUME_PROVISIONED, 0);
        self.then(sim, Self::step_create_helper);
    }

    /// Step 4: create the helper Deployment (controller, load-data,
    /// log-collector, store-results sharing one pod).
    fn step_create_helper(self: Rc<Self>, sim: &mut Sim) {
        let job = self.job.as_str();
        let cold = config::HELPER_COLD_START;
        let image = ImageRef::microservice("dlaas/helper");
        let container = |name: &str, behavior: &str| {
            ContainerSpec::new(name, image.clone(), behavior)
                .with_arg(job)
                .with_cold_start(cold)
        };
        let pod = PodSpec::new("unused", container("controller", "controller"))
            .with_container(container("load-data", "load-data"))
            .with_container(container("log-collector", "log-collector"))
            .with_container(container("store-results", "store-results"))
            .with_labels(labels! {"role" => "helper", "job" => job})
            .with_resources(Resources::new(1000, 2048, 0), None)
            .with_volume(paths::volume(&self.job));
        self.h
            .kube
            .create_deployment(sim, &paths::helper_deployment(&self.job), 1, pod);
        self.mark(sim, &guardian::HELPER_CREATED, 0);
        self.then(sim, Self::step_create_learners);
    }

    /// Step 5: create the learner StatefulSet.
    fn step_create_learners(self: Rc<Self>, sim: &mut Sim) {
        let Some(manifest) = self.manifest_or_abort(sim) else {
            return;
        };
        let job = self.job.as_str();
        let pod = PodSpec::new(
            "unused",
            ContainerSpec::new("learner", framework_image(manifest.framework), "learner")
                .with_arg(job)
                .with_cold_start(SimDuration::from_secs_f64(
                    manifest.framework.cold_start_secs(),
                )),
        )
        .with_labels(labels! {"role" => "learner", "job" => job})
        .with_resources(
            Resources::new(4000, 16384, manifest.gpus_per_learner),
            Some(manifest.gpu_kind),
        )
        .with_volume(paths::volume(&self.job))
        .with_object_store_binding()
        .with_restart_policy(RestartPolicy::Always);
        self.h
            .kube
            .create_statefulset(sim, &paths::learner_set(&self.job), manifest.learners, pod);
        self.mark(sim, &guardian::LEARNERS_CREATED, 0);
        self.then(sim, Self::step_apply_policies);
    }

    /// Step 6: isolate the learners (multi-tenancy, §II): no traffic to
    /// core services and no traffic to other jobs' learners.
    fn step_apply_policies(self: Rc<Self>, sim: &mut Sim) {
        let job = self.job.as_str();
        let name = paths::network_policy(&self.job);
        self.h.kube.add_network_policy(NetworkPolicy {
            name: name.clone(),
            from: labels! {"role" => "learner", "job" => job},
            to: labels! {"role" => "core"},
            to_services: vec![
                crate::handles::API_SERVICE.into(),
                LCM_SERVICE.into(),
                "mongodb".into(),
                "etcd".into(),
            ],
            exempt_same: None,
        });
        self.h.kube.add_network_policy(NetworkPolicy {
            name,
            from: labels! {"role" => "learner", "job" => job},
            to: labels! {"role" => "learner"},
            to_services: vec![],
            exempt_same: Some("job".into()),
        });
        self.mark(sim, &guardian::DEPLOYED, 0);
        self.then(sim, Self::start_monitoring);
    }

    /// Monitoring is driven by an etcd watch on the job's whole prefix;
    /// a slow backstop poll (`GUARDIAN_POLL`) covers what a watch can
    /// miss — notifications lost with a partitioned or restarted etcd
    /// node — offers again whatever write the store has refused, and
    /// carries kill detection via the metadata store.
    fn start_monitoring(self: Rc<Self>, sim: &mut Sim) {
        let me = self.clone();
        self.etcd
            .watch_prefix(sim, paths::etcd_job_prefix(&self.job), move |sim, ev| {
                if !me.alive() {
                    return;
                }
                let dlaas_etcd::KvEvent::Put { key, value, .. } = ev else {
                    return;
                };
                // The etcd leader notifies; a new leader may repeat an
                // older-term change (absorbed to no effect, offered to no
                // write). The controller publishes a phase change at once
                // and an iteration alone once per `GUARDIAN_POLL`: both
                // are offered as they arrive, only the former can move an
                // aggregation rule.
                let moved = me.absorb(key, value);
                me.push_progress(sim);
                if moved {
                    let me2 = me.clone();
                    sim.defer(move |sim| me2.aggregate(sim));
                }
            });
        // List right after registering, never before: whatever was
        // written before the watch took hold is in the listing.
        self.refresh(sim);

        let me = self.clone();
        dlaas_sim::every(sim, config::GUARDIAN_POLL, move |sim, _n| {
            if !me.alive() {
                return false;
            }
            // etcd watch registries are volatile on the servers:
            // re-register where a member restarted, so notifications
            // resume if it leads.
            me.etcd.rewatch(sim);
            me.refresh(sim);
            me.check_killed(sim);
            true
        });
        self.mark(sim, &guardian::MONITORING, 0);
    }

    /// Folds one key of the job's etcd prefix into the monitor state —
    /// the one path watch events and the backstop listing share. Returns
    /// `true` when something the aggregation rules react to changed: a
    /// learner's phase (not merely its iteration), the store handshake,
    /// or the restart count.
    fn absorb(&self, key: &str, value: &str) -> bool {
        let mut mon = self.mon.borrow_mut();
        match paths::parse_etcd_job_key(&self.job, key) {
            Some(JobKey::Learner(ord)) => {
                let Ok(phase) = value.parse::<LearnerPhase>() else {
                    return false;
                };
                let old = mon.progress.learners.insert(ord, phase);
                !old.is_some_and(|o| o.same_kind(&phase))
            }
            Some(JobKey::Store) => {
                let changed = mon.store.as_deref() != Some(value);
                mon.store = Some(value.to_owned());
                changed
            }
            Some(JobKey::Restarts) => {
                let restarts = value.parse().unwrap_or(mon.progress.restarts);
                std::mem::replace(&mut mon.progress.restarts, restarts) != restarts
            }
            Some(JobKey::Throughput) => {
                mon.throughput = value.parse().ok();
                false
            }
            Some(JobKey::Data) | None => false,
        }
    }

    /// One listing of the job's etcd prefix: absorb every key, mirror
    /// progress, re-run the aggregation rules.
    fn refresh(self: &Rc<Self>, sim: &mut Sim) {
        let me = self.clone();
        let prefix = paths::etcd_job_prefix(&self.job);
        self.etcd.get_prefix(sim, prefix, move |sim, r| {
            if !me.alive() {
                return;
            }
            let Ok(pairs) = r else { return };
            for (key, value) in &pairs {
                me.absorb(key, value);
            }
            me.push_progress(sim);
            me.aggregate(sim);
        });
    }

    /// Kill detection: the LCM marks the job KILLED, tears down and
    /// deletes this Guardian's K8s Job; should that delete be lost, a
    /// monitoring Guardian still notices here and exits.
    fn check_killed(self: &Rc<Self>, sim: &mut Sim) {
        let me = self.clone();
        let filter = Filter::eq("_id", self.job.as_str());
        self.meta.find_one(sim, JOBS, filter, move |sim, r| {
            if !me.alive() {
                return;
            }
            if let Ok(Some(doc)) = r {
                if JobStatus::of(&doc).is_some_and(JobStatus::is_terminal) {
                    me.mark(sim, &guardian::TERMINAL_EXTERNALLY, 0);
                    me.ctx.exit(sim, 0);
                }
            }
        });
    }

    /// Offers the progress mirror what the monitor holds: whenever the
    /// controller publishes (a phase change at once, an iteration every
    /// `GUARDIAN_POLL`) and on the backstop.
    fn push_progress(self: &Rc<Self>, sim: &mut Sim) {
        let progress = self.mon.borrow().progress.clone();
        self.mirror.offer(sim, progress);
    }

    /// Offers the job status what the aggregation rules call for.
    fn aggregate(self: &Rc<Self>, sim: &mut Sim) {
        let learners = self.manifest.borrow().as_ref().map_or(0, |m| m.learners);
        let target = target(&self.mon.borrow(), learners as usize);
        if let Some(target) = target.filter(|_| self.alive()) {
            self.status.offer(sim, target);
        }
    }

    /// Sends `ack`'s status transition. Everything that follows from the
    /// job *being* in that status hangs off the acknowledgement; a refused
    /// write stays owed and the backstop offers it again.
    fn advance(self: &Rc<Self>, sim: &mut Sim, ack: Ack<Target, JobDocument>) {
        let me = self.clone();
        let to = ack.value.0;
        self.meta.advance_status(sim, &self.job, to, move |sim, r| {
            if !me.alive() {
                return;
            }
            let Ok(applied) = r else {
                me.mark(sim, &guardian::STATUS_OWED, to.rank().into());
                return ack.settle(sim, false);
            };
            me.mark(sim, marks::guardian_status(to), 0);
            match to {
                JobStatus::Processing => {
                    if let Some(started_us) = me.deploy_started_us.take() {
                        let elapsed = ack.sent.as_micros().saturating_sub(started_us);
                        sim.metrics()
                            .histogram_series(metrics::GUARDIAN_DEPLOY_SECONDS, [])
                            .observe_duration_us(elapsed);
                    }
                }
                // Expect-absent CAS: never clobber an existing
                // "go"/"done" written by a predecessor incarnation.
                JobStatus::Storing => me.etcd.cas(
                    sim,
                    paths::etcd_store(&me.job),
                    None,
                    Some("go".into()),
                    |_sim, _r| {},
                ),
                _ => me.ended(sim, to, applied),
            }
            ack.settle(sim, true);
        });
    }
}

impl Sink<Mirror> for JobDocument {
    /// Progress is the furthest any learner got (the controller reports
    /// it inside each learner's status); per-learner phases too, so users
    /// can inspect each learner through the API while the job runs.
    fn send(&self, sim: &mut Sim, ack: Ack<Mirror, Self>) {
        let Some(g) = self.0.upgrade() else { return };
        let Mirror { learners, restarts } = &ack.value;
        let iterations = g.manifest.borrow().as_ref().map_or(0, |m| m.iterations);
        let progress = learners
            .values()
            .filter_map(|p| match p {
                LearnerPhase::Completed => Some(iterations),
                p => p.iteration(),
            })
            .max()
            .unwrap_or(0);
        let learners_doc = learners
            .iter()
            .map(|(ord, phase)| (ord.to_string(), Value::from(phase.to_string())))
            .collect();
        let update = Update::Many(vec![
            Update::set("iteration", progress as i64),
            Update::set("learner_restarts", *restarts as i64),
            Update::set("learners", Value::Obj(learners_doc)),
        ]);
        let filter = Filter::eq("_id", g.job.as_str());
        let meta = g.meta.clone();
        meta.update_one(sim, JOBS, filter, update, move |sim, r| {
            let stored = r.is_ok();
            ack.settle(sim, stored);
            // COMPLETED waits for the mirror it must be read over.
            if stored && g.alive() {
                g.status.flush(sim);
            }
        });
    }
}

impl Sink<Target> for JobDocument {
    fn send(&self, sim: &mut Sim, ack: Ack<Target, Self>) {
        let Some(g) = self.0.upgrade() else { return };
        let (JobStatus::Completed, throughput) = ack.value else {
            return g.advance(sim, ack);
        };
        // A reader that sees COMPLETED sees the final progress and the
        // throughput: the transition goes out only over an acknowledged
        // mirror (whose acknowledgement flushes this again), and after
        // its own patch.
        if !g.mirror.settled() {
            g.mirror.flush(sim);
            return ack.settle(sim, false);
        }
        let filter = Filter::eq("_id", g.job.as_str());
        let update = Update::set(
            "images_per_sec",
            throughput.map(Value::from).unwrap_or(Value::Null),
        );
        let meta = g.meta.clone();
        meta.update_one(sim, JOBS, filter, update, move |sim, r| {
            if !g.alive() {
                return;
            }
            match r {
                Ok(_) => g.advance(sim, ack),
                Err(_) => ack.settle(sim, false),
            }
        });
    }
}
