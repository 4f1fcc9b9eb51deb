//! The learner: the training process inside a framework container.
//!
//! "In its simplest form, a DL training job consists of a single learning
//! process ('learner') in a Docker container using a GPU" (§III-a).
//! Learners are deployed as StatefulSet replicas; a crashed learner is
//! restarted by Kubernetes and "can continue training from the latest
//! checkpoint" (§III-h). The amount of work lost is bounded by the
//! checkpointing interval (§III-g).
//!
//! This behavior reproduces the learner's *observable* contract: it
//! writes status, log and exit files to the shared volume (where the
//! controller picks them up), checkpoints to the object store, and
//! advances training at the rate the [`dlaas_gpu`] performance model
//! predicts for its hardware and environment.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_gpu::{checkpoint_bytes, images_per_sec, ExecEnv, Interconnect, TrainingConfig};
use dlaas_kube::{Cleanup, ProcessCtx};
use dlaas_net::speeds;
use dlaas_objstore::{ObjStoreError, ObjectBody};
use dlaas_sharedfs::Mount;
use dlaas_sim::{Grid, Sim, SimDuration, SimTime};

use crate::config;
use crate::handles::Handles;
use crate::helper::{poll_on_write, wait_for_jobspec, LEARNER_JOBSPEC_WAITS};
use crate::job::JobId;
use crate::manifest::TrainingManifest;
use crate::metrics;
use crate::paths;

/// How often a learner polls the volume for the load-data marker.
const LEARNER_DATA_POLL: SimDuration = SimDuration::from_millis(1_000);

struct LearnerState {
    /// Fractional global-step progress (integer part is the reported
    /// iteration; the fraction must accumulate or short report intervals
    /// would round slow steps down to zero forever).
    iter_f: f64,
    next_checkpoint: u64,
    train_started: SimTime,
    images_done: f64,
    checkpoint_stall: SimDuration,
}

struct Learner {
    h: Handles,
    ctx: ProcessCtx,
    job: JobId,
    ordinal: u32,
    /// This learner's files on the volume, formatted once per incarnation.
    files: paths::LearnerFiles,
    mount: Mount,
    manifest: TrainingManifest,
    /// Global-step time at this job's measured rate.
    step_secs: f64,
    /// Job-wide throughput (all learners), images/sec.
    rate_total: f64,
    /// What every report line ends with (` lr=… images/sec=…`), formatted
    /// once per incarnation.
    report_suffix: String,
    state: RefCell<LearnerState>,
}

/// Behavior factory for the learner container (arg = job id; the ordinal
/// comes from the StatefulSet pod name).
pub fn learner_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    let ordinal: u32 = ctx
        .pod
        .rsplit('-')
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let (h2, ctx2, job2) = (h.clone(), ctx.clone(), job.clone());
    let (who, waits) = ("learner", LEARNER_JOBSPEC_WAITS);
    wait_for_jobspec(h, sim, ctx, job, who, waits, move |sim, mount, manifest| {
        start(h2, sim, ctx2, job2, ordinal, mount, manifest);
    });
    Box::new(|_sim| {})
}

fn start(
    h: Handles,
    sim: &mut Sim,
    ctx: ProcessCtx,
    job: JobId,
    ordinal: u32,
    mount: Mount,
    manifest: TrainingManifest,
) {
    let files = paths::LearnerFiles::new(ordinal);
    // Bump the on-volume start counter (survives crashes; the controller
    // derives the restart count users are notified about from it).
    let starts: u64 = mount
        .read(&files.restarts, |s| s.parse().ok())
        .ok()
        .flatten()
        .flatten()
        .unwrap_or(0)
        + 1;
    let written = mount.write_file(sim, &files.restarts, starts.to_string());
    best_effort(sim, written);
    // Clear any stale exit marker from a previous incarnation.
    mount.remove(sim, &files.exit);
    let written = mount.write_file(sim, &files.status, "DOWNLOADING");
    best_effort(sim, written);
    if starts > 1 {
        sim.metrics()
            .counter_series(metrics::LEARNER_RESTARTS, [])
            .inc();
        let line = format!(
            "[restart #{:?}] learner restarted by kubernetes",
            starts - 1
        );
        let written = mount.append_line(sim, &files.log, line);
        best_effort(sim, written);
    }
    sim.mark("learner", job.as_str(), "start", starts);

    // The measured training rate for this job: the performance model plus
    // a per-job run-to-run jitter (identical across restarts — it is a
    // property of the placement, not of the incarnation).
    let cfg = TrainingConfig {
        model: manifest.model,
        framework: manifest.framework,
        gpu: manifest.gpu_kind,
        gpus_per_learner: manifest.gpus_per_learner,
        learners: manifest.learners,
        intra_interconnect: manifest.gpu_kind.native_interconnect(),
        inter_interconnect: Interconnect::Ethernet1G,
        batch_per_gpu: manifest.effective_batch(),
    };
    let env = ExecEnv::dlaas(speeds::NFS, h.config.helper_steal);
    let jitter = {
        let mut rng = sim.rng().fork(&format!("throughput/{job}"));
        let j = h.config.throughput_jitter;
        if j > 0.0 {
            rng.range_f64(1.0 - j, 1.0 + j)
        } else {
            1.0
        }
    };
    let rate_total = images_per_sec(&cfg, &env) * jitter;
    let step_secs = cfg.global_batch() as f64 / rate_total;
    let report_suffix = format!(" lr={} images/sec={rate_total:.1}", manifest.learning_rate);

    let learner = Rc::new(Learner {
        h,
        ctx,
        job,
        ordinal,
        files,
        mount,
        manifest,
        step_secs,
        rate_total,
        report_suffix,
        state: RefCell::new(LearnerState {
            iter_f: 0.0,
            next_checkpoint: 0,
            train_started: SimTime::ZERO,
            images_done: 0.0,
            checkpoint_stall: SimDuration::ZERO,
        }),
    });
    let grid = Grid::new(sim.now(), LEARNER_DATA_POLL);
    learner.wait_for_data(sim, grid);
}

/// Notes the outcome of a best-effort NFS bookkeeping write. The learner
/// keeps running either way — losing a status line is survivable — but a
/// silent volume failure is not: the fault matrix attributes stuck jobs
/// through this counter.
fn best_effort<T, E>(sim: &mut Sim, r: Result<T, E>) {
    if r.is_err() {
        sim.metrics()
            .counter_series(metrics::LEARNER_NFS_WRITE_FAILURES, [])
            .inc();
    }
}

impl Learner {
    fn log(&self, sim: &mut Sim, line: impl Into<String>) {
        let written = self.mount.append_line(sim, &self.files.log, line);
        best_effort(sim, written);
    }

    fn set_status(&self, sim: &mut Sim, s: impl Into<String>) {
        let written = self.mount.write_file(sim, &self.files.status, s);
        best_effort(sim, written);
    }

    /// Polls for the load-data marker on `grid` (the input pipeline cannot
    /// start before the data is staged), parked on the marker while it is
    /// absent.
    fn wait_for_data(self: Rc<Self>, sim: &mut Sim, grid: Grid) {
        if !self.ctx.is_alive() {
            return;
        }
        if self.mount.exists(paths::NFS_DATA_LOADED) {
            self.restore_checkpoint(sim, 0);
            return;
        }
        let me = self.clone();
        poll_on_write(
            sim,
            &self.mount,
            Some(paths::NFS_DATA_LOADED),
            grid,
            move |sim| {
                me.wait_for_data(sim, grid);
            },
        );
    }

    /// Latest iteration any *peer* learner has reported on the shared
    /// volume — the §III-h "rejoin and get the latest parameters from a
    /// parameter server" recovery path, available when the framework
    /// supports it and the job is distributed.
    fn peer_iteration(&self) -> Option<u64> {
        if self.manifest.learners <= 1 || !self.manifest.framework.supports_parameter_server() {
            return None;
        }
        (0..self.manifest.learners)
            .filter(|ord| *ord != self.ordinal)
            .filter_map(|ord| {
                self.mount
                    .read(&paths::nfs_learner_status(ord), |s| {
                        s.parse::<crate::job::LearnerPhase>().ok()
                    })
                    .ok()?
                    .flatten()?
                    .iteration()
            })
            .max()
    }

    /// Fetch the latest checkpoint, if the job checkpoints at all and one
    /// exists; resume from its iteration. Distributed frameworks with a
    /// parameter server can instead rejoin at the peers' current
    /// iteration, which is always at least as fresh as any checkpoint.
    ///
    /// Only *not found* means there is no checkpoint. An object store that
    /// cannot be reached is not an empty one: the restore is tried again
    /// ([`config::LEARNER_RESTORE_ATTEMPTS`] times,
    /// [`config::LEARNER_RESTORE_RETRY`] apart) and then the
    /// learner exits non-zero for Kubernetes to restart it — it never
    /// trains from iteration 0 over checkpoints it could not read.
    fn restore_checkpoint(self: Rc<Self>, sim: &mut Sim, attempt: u32) {
        if let Some(peer_iter) = self.peer_iteration() {
            if peer_iter > 0 {
                sim.metrics()
                    .counter_series(metrics::LEARNER_PS_REJOINS, [])
                    .inc();
                self.log(
                    sim,
                    format!("rejoined via parameter server at iter {peer_iter}"),
                );
                self.begin_training(sim, peer_iter);
                return;
            }
        }
        if self.manifest.checkpoint_every == 0 {
            self.begin_training(sim, 0);
            return;
        }
        let me = self.clone();
        let bucket = self.manifest.results_bucket.clone();
        self.h.objstore.clone().get(
            sim,
            bucket.clone(),
            paths::obj_ckpt_meta(&self.job),
            None,
            move |sim, r| {
                if !me.ctx.is_alive() {
                    return;
                }
                let iter: u64 = match r {
                    Ok(obj) => obj.body.as_text().and_then(|s| s.parse().ok()).unwrap_or(0),
                    // No checkpoint yet.
                    Err(ObjStoreError::NoSuchKey(_) | ObjStoreError::NoSuchBucket(_)) => 0,
                    Err(e) => return me.retry_restore(sim, attempt, &e),
                };
                if iter == 0 {
                    me.begin_training(sim, 0);
                    return;
                }
                // Download the weights (pays the transfer time — part of
                // why learner recovery is the slowest row of Fig. 4).
                let me2 = me.clone();
                let nic = me.ctx.nic.clone();
                me.h.objstore.clone().get(
                    sim,
                    bucket,
                    paths::obj_ckpt_data(&me.job),
                    Some(&nic),
                    move |sim, r| {
                        if !me2.ctx.is_alive() {
                            return;
                        }
                        if let Err(e) = r {
                            return me2.retry_restore(sim, attempt, &e);
                        }
                        sim.metrics()
                            .counter_series(metrics::CHECKPOINT_RESTORES, [])
                            .inc();
                        me2.log(sim, format!("resumed from checkpoint at iter {iter}"));
                        me2.begin_training(sim, iter);
                    },
                );
            },
        );
    }

    /// The checkpoint could not be read: try the restore again shortly,
    /// or give up this incarnation once the retries are spent.
    fn retry_restore(self: Rc<Self>, sim: &mut Sim, attempt: u32, why: &ObjStoreError) {
        if attempt + 1 >= config::LEARNER_RESTORE_ATTEMPTS {
            self.log(sim, format!("checkpoint restore failed ({why}); exiting"));
            self.ctx.exit(sim, 1);
            return;
        }
        sim.schedule_in(config::LEARNER_RESTORE_RETRY, move |sim| {
            if self.ctx.is_alive() {
                self.restore_checkpoint(sim, attempt + 1);
            }
        });
    }

    fn begin_training(self: Rc<Self>, sim: &mut Sim, start_iter: u64) {
        {
            let mut st = self.state.borrow_mut();
            st.iter_f = start_iter as f64;
            st.train_started = sim.now();
            st.images_done = 0.0;
            let every = self.manifest.checkpoint_every;
            st.next_checkpoint = start_iter
                .checked_div(every)
                .map_or(u64::MAX, |n| (n + 1) * every);
        }
        self.set_status(sim, format!("PROCESSING iter={start_iter}"));
        self.log(
            sim,
            format!(
                "training started at iter {start_iter}: {} on {} x{} ({:.1} img/s job-wide)",
                self.manifest.model,
                self.manifest.gpu_kind,
                self.manifest.gpus_per_learner,
                self.rate_total,
            ),
        );
        self.tick(sim);
    }

    /// One reporting interval of training.
    fn tick(self: Rc<Self>, sim: &mut Sim) {
        if !self.ctx.is_alive() {
            return;
        }
        let report = config::LEARNER_REPORT;
        let me = self.clone();
        sim.schedule_in(report, move |sim| {
            if !me.ctx.is_alive() {
                return;
            }
            let (iter, finished, checkpoint_due) = {
                let mut st = me.state.borrow_mut();
                let steps = report.as_secs_f64() / me.step_secs;
                st.iter_f += steps;
                st.images_done += steps
                    * me.manifest.effective_batch() as f64
                    * me.manifest.gpus_per_learner as f64;
                let finished = st.iter_f >= me.manifest.iterations as f64;
                if finished {
                    st.iter_f = me.manifest.iterations as f64;
                }
                let iter = st.iter_f as u64;
                let ckpt = !finished && iter >= st.next_checkpoint;
                if ckpt {
                    let every = me.manifest.checkpoint_every;
                    st.next_checkpoint = (iter / every + 1) * every;
                }
                (iter, finished, ckpt)
            };

            // Synthetic training log: loss decays with iteration count.
            let loss = 7.0 / (1.0 + iter as f64 / 150.0).sqrt();
            me.log(
                sim,
                format!("iter={iter} loss={loss:.4}{}", me.report_suffix),
            );
            me.set_status(sim, format!("PROCESSING iter={iter}"));

            if finished {
                me.finish(sim);
            } else if checkpoint_due && me.ordinal == 0 {
                me.checkpoint(sim, iter);
            } else {
                me.tick(sim);
            }
        });
    }

    /// Upload a checkpoint (weights, then the meta that names them);
    /// training resumes when the upload completes — the stall is the price
    /// of the §III-g trade-off. The meta is written, and the checkpoint
    /// counted, only once the weights put was acknowledged: a put that
    /// fails skips this checkpoint (the previous one stays the restore
    /// point) and training goes on to the next boundary.
    fn checkpoint(self: Rc<Self>, sim: &mut Sim, iter: u64) {
        let bucket = self.manifest.results_bucket.clone();
        let bytes = checkpoint_bytes(self.manifest.model);
        self.log(sim, format!("checkpoint at iter {iter} ({bytes} bytes)"));
        let stall_from = sim.now();
        let me = self.clone();
        let nic = self.ctx.nic.clone();
        let bucket2 = bucket.clone();
        self.h.objstore.clone().put(
            sim,
            bucket,
            paths::obj_ckpt_data(&self.job),
            ObjectBody::Synthetic(bytes),
            Some(&nic),
            move |sim, r| {
                if !me.ctx.is_alive() {
                    return;
                }
                if let Err(e) = r {
                    return me.checkpoint_done(sim, iter, stall_from, Err(e));
                }
                let me2 = me.clone();
                me.h.objstore.clone().put(
                    sim,
                    bucket2,
                    paths::obj_ckpt_meta(&me.job),
                    iter.to_string().into(),
                    None,
                    move |sim, r| {
                        if me2.ctx.is_alive() {
                            me2.checkpoint_done(sim, iter, stall_from, r);
                        }
                    },
                );
            },
        );
    }

    /// Both puts of a checkpoint were acknowledged, or one failed: account
    /// for the stall either way, count the checkpoint only if it is in the
    /// store, and train on.
    fn checkpoint_done(
        self: Rc<Self>,
        sim: &mut Sim,
        iter: u64,
        stall_from: SimTime,
        stored: Result<(), ObjStoreError>,
    ) {
        let stall = sim.now().saturating_duration_since(stall_from);
        self.state.borrow_mut().checkpoint_stall += stall;
        match stored {
            Ok(()) => {
                sim.metrics()
                    .counter_series(metrics::CHECKPOINT_WRITES, [])
                    .inc();
                sim.metrics()
                    .histogram_series(metrics::CHECKPOINT_STALL_SECONDS, [])
                    .observe_duration_us(stall.as_micros());
            }
            Err(e) => self.log(sim, format!("checkpoint at iter {iter} not stored ({e})")),
        }
        self.tick(sim);
    }

    fn finish(self: &Rc<Self>, sim: &mut Sim) {
        let (elapsed, images) = {
            let st = self.state.borrow();
            (
                sim.now().saturating_duration_since(st.train_started),
                st.images_done,
            )
        };
        let secs = elapsed.as_secs_f64().max(1e-9);
        let throughput = images / secs;
        self.log(
            sim,
            format!(
                "training complete: {} iters, {:.1} images/sec (this learner)",
                self.manifest.iterations, throughput
            ),
        );
        self.finish_markers(sim, throughput);
    }

    /// Writes the completion markers (throughput, COMPLETED status and
    /// the §III-e exit file) and only then exits. These writes are
    /// load-bearing: the controller relays them into etcd and the
    /// Guardian aggregates the job status from there. Exiting 0 with the
    /// markers lost to an NFS outage would strand the job in PROCESSING
    /// forever (the pod never restarts after a clean exit), so keep
    /// retrying until all three are durable on the shared volume.
    fn finish_markers(self: &Rc<Self>, sim: &mut Sim, throughput: f64) {
        if !self.ctx.is_alive() {
            return;
        }
        let written = self
            .mount
            .write_file(sim, &self.files.throughput, format!("{throughput}"))
            .and_then(|_| self.mount.write_file(sim, &self.files.status, "COMPLETED"))
            .and_then(|_| self.mount.write_file(sim, &self.files.exit, "0"));
        match written {
            Ok(_) => {
                sim.mark("learner", self.job.as_str(), "done", self.ordinal.into());
                self.ctx.exit(sim, 0);
            }
            Err(_) => {
                sim.mark("learner", self.job.as_str(), "markers-not-durable", 0);
                let me = self.clone();
                sim.schedule_in(SimDuration::from_secs(2), move |sim| {
                    me.finish_markers(sim, throughput);
                });
            }
        }
    }
}
