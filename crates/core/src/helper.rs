//! The helper pod's containers.
//!
//! "For each DL job, the Guardian also creates a separate helper K8S pod
//! […] which contains a number of 'helper' containers – load-data, log
//! collector, store-results, and controller. The helper pod remains
//! isolated from the learner pods, but both share a common NFS
//! filesystem […]. The shared NFS volume enables the controller container
//! […] to monitor the execution and exit status of the learner processes"
//! (§III-e). The controller then records per-learner status in etcd
//! (§III-f), from where the Guardian aggregates it.
//!
//! Every helper is stateless across restarts: all coordination state
//! lives on the NFS volume (markers, counters, exit files) or in etcd, so
//! a restarted helper picks up exactly where its predecessor died.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dlaas_kube::{Cleanup, ProcessCtx};
use dlaas_objstore::ObjectBody;
use dlaas_sharedfs::Mount;
use dlaas_sim::{Sim, SimDuration, SimTime};

use crate::config;
use crate::handles::Handles;
use crate::job::{JobId, LearnerPhase};
use crate::manifest::TrainingManifest;
use crate::metrics;
use crate::paths;

/// Shared bootstrap: mount the job volume and read the jobspec, retrying
/// until the Guardian has provisioned both. Calls `ready` once available;
/// gives up silently when the process dies or the volume disappears for
/// good (job torn down).
fn with_jobspec(
    h: &Handles,
    sim: &mut Sim,
    ctx: &ProcessCtx,
    ready: impl FnOnce(&mut Sim, Mount, TrainingManifest) + 'static,
) {
    let h = h.clone();
    let ctx = ctx.clone();
    let job = JobId::new(ctx.arg.clone());
    try_bootstrap(h, sim, ctx, job, ready, 0);
}

fn try_bootstrap(
    h: Handles,
    sim: &mut Sim,
    ctx: ProcessCtx,
    job: JobId,
    ready: impl FnOnce(&mut Sim, Mount, TrainingManifest) + 'static,
    attempt: u32,
) {
    if !ctx.is_alive() {
        return;
    }
    let volume = h.nfs.find_volume(&paths::volume(&job));
    if let Some(vol) = volume {
        if let Ok(mount) = h.nfs.mount(&vol) {
            if let Ok(spec) = mount.read_file(paths::NFS_JOBSPEC) {
                if let Ok(manifest) = TrainingManifest::from_json(&spec) {
                    ready(sim, mount, manifest);
                    return;
                }
            }
        }
    }
    if attempt > 600 {
        ctx.record(sim, "giving up waiting for job volume");
        return;
    }
    sim.schedule_in(SimDuration::from_millis(500), move |sim| {
        try_bootstrap(h, sim, ctx, job, ready, attempt + 1);
    });
}

// ----------------------------------------------------------------------
// controller
// ----------------------------------------------------------------------

/// Publishes one etcd key the controller owns (§III-f, "reliable
/// status"): a learner's status, the job's restart total, and the
/// write-once `data`, `throughput` and `store` markers.
///
/// *What* is published is what a consumer acts on. For a learner's
/// status a change of phase kind goes out at once — the Guardian's
/// aggregation rules and the job status turn on it. A change of
/// iteration alone has one reader, the Guardian's progress mirror, whose
/// cadence is `GUARDIAN_POLL`; it is put once that long has passed since
/// the last acknowledged put, not on every learner report — a consensus
/// round, three applies and three watch deliveries for a value nobody
/// reads in between. Every change of any other value goes out at once.
///
/// *How*: one put in flight per key, and when it is acknowledged the
/// latest offer is weighed again. Unserialised puts could be reordered
/// by the client's retries across an etcd leader loss — an older
/// `PROCESSING iter=N` committing after `COMPLETED`, an older restart
/// total after a newer one — which nothing would ever rewrite. A put
/// that fails (the client's retry budget is spent) leaves the value
/// owed, and the next tick's offer sends it again.
struct Publisher<V> {
    etcd: dlaas_etcd::EtcdClient,
    key: String,
    /// Whether going from the published value to the offered one must
    /// not wait out `coalesce`.
    urgent: fn(&V, &V) -> bool,
    coalesce: SimDuration,
    alive: Rc<Cell<bool>>,
    state: RefCell<PublishState<V>>,
}

struct PublishState<V> {
    /// The value the controller last read off NFS.
    latest: Option<V>,
    /// The last put etcd acknowledged, and when it was sent.
    published: Option<(V, SimTime)>,
    busy: bool,
}

impl<V: Clone + PartialEq + ToString + 'static> Publisher<V> {
    fn new(
        etcd: &dlaas_etcd::EtcdClient,
        key: String,
        urgent: fn(&V, &V) -> bool,
        coalesce: SimDuration,
        alive: &Rc<Cell<bool>>,
    ) -> Rc<Self> {
        Rc::new(Publisher {
            etcd: etcd.clone(),
            key,
            urgent,
            coalesce,
            alive: alive.clone(),
            state: RefCell::new(PublishState {
                latest: None,
                published: None,
                busy: false,
            }),
        })
    }

    /// Whether nothing was acknowledged yet and nothing is in flight.
    fn owed(&self) -> bool {
        let st = self.state.borrow();
        !st.busy && st.published.is_none()
    }

    /// Records the current value and publishes it if due.
    fn offer(self: &Rc<Self>, sim: &mut Sim, value: V) {
        self.state.borrow_mut().latest = Some(value);
        self.flush(sim);
    }

    fn flush(self: &Rc<Self>, sim: &mut Sim) {
        let value = {
            let mut st = self.state.borrow_mut();
            let Some(latest) = st.latest.clone() else {
                return;
            };
            let due = st.published.as_ref().is_none_or(|(was, at)| {
                *was != latest
                    && ((self.urgent)(was, &latest)
                        || sim.now().saturating_duration_since(*at) >= self.coalesce)
            });
            if st.busy || !due {
                return;
            }
            st.busy = true;
            latest
        };
        let me = self.clone();
        let sent = sim.now();
        self.etcd
            .put(sim, self.key.clone(), value.to_string(), move |sim, r| {
                {
                    let mut st = me.state.borrow_mut();
                    st.busy = false;
                    if r.is_ok() {
                        st.published = Some((value, sent));
                    }
                }
                // Whatever was offered meanwhile goes out now; after a
                // failure the next tick's offer retries instead.
                if r.is_ok() && me.alive.get() {
                    me.flush(sim);
                }
            });
    }
}

/// What one controller incarnation remembers: a publisher per etcd key
/// it owns, and whether it relayed the Guardian's store-results "go".
struct ControllerState {
    data: Rc<Publisher<&'static str>>,
    learners: Vec<Rc<Publisher<LearnerPhase>>>,
    restarts: Rc<Publisher<u64>>,
    throughput: Rc<Publisher<f64>>,
    store: Rc<Publisher<&'static str>>,
    store_go_relayed: Rc<Cell<bool>>,
}

/// Behavior factory for the controller container (arg = job id).
pub fn controller_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    let etcd = h.etcd_client(&format!(
        "{}/{}#{}",
        ctx.pod, ctx.container, ctx.incarnation
    ));
    let poll = config::CONTROLLER_POLL;
    let max_failures = config::LEARNER_MAX_FAILURES;
    let ctx2 = ctx.clone();
    let etcd_for_cleanup = etcd.clone();
    let coalesce = config::GUARDIAN_POLL;
    with_jobspec(&h, sim, &ctx, move |sim, mount, manifest| {
        ctx2.record(sim, "controller online; polling learner files");
        let alive = ctx2.alive_flag();
        fn at_once<V>(_was: &V, _now: &V) -> bool {
            true
        }
        let state = ControllerState {
            data: Publisher::new(&etcd, paths::etcd_data(&job), at_once, coalesce, &alive),
            learners: (0..manifest.learners)
                .map(|ord| {
                    Publisher::new(
                        &etcd,
                        paths::etcd_learner(&job, ord),
                        |was: &LearnerPhase, now| !was.same_kind(now),
                        coalesce,
                        &alive,
                    )
                })
                .collect(),
            restarts: Publisher::new(&etcd, paths::etcd_restarts(&job), at_once, coalesce, &alive),
            throughput: Publisher::new(
                &etcd,
                paths::etcd_throughput(&job),
                at_once,
                coalesce,
                &alive,
            ),
            store: Publisher::new(&etcd, paths::etcd_store(&job), at_once, coalesce, &alive),
            store_go_relayed: Rc::default(),
        };
        dlaas_sim::every(sim, poll, move |sim, _n| {
            if !alive.get() {
                return false;
            }
            controller_tick(sim, &etcd, &mount, &manifest, &job, &state, max_failures);
            true
        });
    });
    // Per-incarnation etcd client: close on exit or its watch-net
    // endpoint leaks per controller restart.
    Box::new(move |sim| etcd_for_cleanup.close(sim))
}

fn controller_tick(
    sim: &mut Sim,
    etcd: &dlaas_etcd::EtcdClient,
    mount: &Mount,
    manifest: &TrainingManifest,
    job: &JobId,
    state: &ControllerState,
    max_failures: u32,
) {
    // Data-loaded marker → etcd.
    if mount.exists(paths::NFS_DATA_LOADED) {
        state.data.offer(sim, "loaded");
    }

    let mut restarts_total: u64 = 0;
    let mut all_completed = true;

    for (ord, publisher) in (0..).zip(&state.learners) {
        // Restart counter (maintained by the learner on NFS, so it
        // survives both learner and controller crashes).
        let starts: u64 = mount
            .read_file(&paths::nfs_learner_restarts(ord))
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        restarts_total += starts.saturating_sub(1);

        // Determine the learner's phase from its files.
        let mut phase: Option<LearnerPhase> = mount
            .read_file(&paths::nfs_learner_status(ord))
            .ok()
            .and_then(|s| s.parse().ok());
        if let Ok(exit) = mount.read_file(&paths::nfs_learner_exit(ord)) {
            if exit == "0" {
                phase = Some(LearnerPhase::Completed);
            }
        }
        // The restart budget: every start beyond the first is a recovery
        // from some failure (orderly or crash). Exhausting the budget is a
        // permanent failure the Guardian turns into a FAILED job.
        if starts > max_failures as u64 && !matches!(phase, Some(LearnerPhase::Completed)) {
            phase = Some(LearnerPhase::Failed);
        }
        let phase = phase.unwrap_or(LearnerPhase::Downloading);
        all_completed &= phase.is_completed();

        publisher.offer(sim, phase);
    }

    // Aggregate restart counter (training progress needs no key of its
    // own: it is the maximum over the learner statuses written above).
    // An absent key reads as zero.
    if restarts_total > 0 {
        state.restarts.offer(sim, restarts_total);
    }

    // Once every learner reports its measured throughput, publish the sum.
    if all_completed && state.throughput.owed() {
        let mut sum = 0.0;
        let mut have_all = true;
        for ord in 0..manifest.learners {
            match mount
                .read_file(&paths::nfs_learner_throughput(ord))
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
            {
                Some(v) => sum += v,
                None => have_all = false,
            }
        }
        if have_all {
            state.throughput.offer(sim, sum);
        }
    }

    // Store-results coordination: Guardian writes "go" in etcd; we relay
    // it to NFS for the store-results container, and relay its completion
    // marker back to etcd.
    if mount.exists(paths::NFS_STORE_DONE) {
        // Without the "done" relay the Guardian never completes the job.
        state.store.offer(sim, "done");
        return;
    }
    // The Guardian writes "go" only after it saw every learner COMPLETED
    // — statuses this controller reported — so before that the key can
    // only be absent and is not worth a linearizable read per tick.
    if all_completed && !state.store_go_relayed.get() {
        let mount2 = mount.clone();
        let relayed = state.store_go_relayed.clone();
        etcd.get(sim, paths::etcd_store(job), move |_sim, r| {
            if let Ok(Some(v)) = r {
                // Only latch the flag once the NFS write landed; during an
                // NFS outage window the next tick retries the relay.
                if v == "go"
                    && !relayed.get()
                    && mount2.write_file(paths::NFS_STORE_GO, "go").is_ok()
                {
                    relayed.set(true);
                }
            }
        });
    }
}

// ----------------------------------------------------------------------
// load-data
// ----------------------------------------------------------------------

/// Behavior factory for the load-data container: stages the training data
/// from the object store onto the shared volume, exactly once per job.
pub fn load_data_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let ctx2 = ctx.clone();
    let h2 = h.clone();
    with_jobspec(&h, sim, &ctx, move |sim, mount, manifest| {
        if mount.exists(paths::NFS_DATA_LOADED) {
            ctx2.record(sim, "data already staged (previous incarnation)");
            ctx2.exit(sim, 0);
            return;
        }
        ctx2.record(
            sim,
            format!("staging {} bytes of training data", manifest.data_bytes),
        );
        download_data(h2, sim, ctx2, mount, manifest);
    });
    Box::new(|_sim| {})
}

fn download_data(
    h: Handles,
    sim: &mut Sim,
    ctx: ProcessCtx,
    mount: Mount,
    manifest: TrainingManifest,
) {
    if !ctx.is_alive() {
        return;
    }
    let nic = ctx.nic.clone();
    let ctx2 = ctx.clone();
    h.objstore.clone().get(
        sim,
        manifest.data_bucket.clone(),
        paths::obj_dataset(&manifest.data_prefix),
        Some(&nic),
        move |sim, r| {
            if !ctx2.is_alive() {
                return;
            }
            // Exiting 0 without the marker on NFS would strand the job:
            // the controller would never announce data-loaded. Treat a
            // failed marker write (NFS outage) like a failed fetch.
            match r {
                Ok(_) if mount.write_file(paths::NFS_DATA_LOADED, "loaded").is_ok() => {
                    sim.metrics().counter_series(metrics::DATA_STAGED, []).inc();
                    ctx2.record(sim, "training data staged");
                    ctx2.exit(sim, 0);
                }
                r => {
                    let why = match r {
                        Ok(_) => "loaded marker write failed".to_owned(),
                        Err(e) => format!("data fetch failed ({e})"),
                    };
                    ctx2.record(sim, format!("{why}; retrying"));
                    sim.schedule_in(SimDuration::from_secs(5), move |sim| {
                        download_data(h, sim, ctx2, mount, manifest);
                    });
                }
            }
        },
    );
}

// ----------------------------------------------------------------------
// log-collector
// ----------------------------------------------------------------------

/// One learner's log as the collector has it: the text read off NFS so
/// far and how much of it the object store has acknowledged.
#[derive(Default)]
struct LogTail {
    /// Lines `0..read` of the NFS log, newline-joined — the object body.
    text: String,
    read: usize,
    /// Lines covered by the last successful put.
    stored: usize,
    /// A put is in flight; the next flush ships whatever it missed.
    busy: bool,
}

impl LogTail {
    /// Appends the lines learner `ord` logged since the last flush and,
    /// when the store lacks some and no put is in flight, claims the put:
    /// returns the line count it will cover and the object body.
    fn refill(&mut self, mount: &Mount, ord: u32) -> Option<(usize, String)> {
        let path = paths::nfs_learner_log(ord);
        if mount.line_count(&path) > self.read {
            // An NFS outage leaves the tail for the next flush.
            for line in mount.read_lines_from(&path, self.read).unwrap_or_default() {
                if self.read > 0 {
                    self.text.push('\n');
                }
                self.text.push_str(&line);
                self.read += 1;
            }
        }
        if self.read == self.stored || self.busy {
            return None;
        }
        self.busy = true;
        Some((self.read, self.text.clone()))
    }
}

/// Behavior factory for the log-collector container: tails learner logs
/// on NFS and mirrors them to the object store, "irrespective of the
/// stage [the job] is in, even if it crashes/fails" (§II).
///
/// Each flush reads only the lines past its cursor and re-puts the whole
/// object from its own buffer (object stores have no append). The cursor
/// is volatile: a restarted collector reads the log from line 0 once and
/// reproduces the complete object.
pub fn log_collector_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    let flush = config::LOG_FLUSH;
    let objstore = h.objstore.clone();
    let ctx2 = ctx.clone();
    with_jobspec(&h, sim, &ctx, move |sim, mount, manifest| {
        ctx2.record(sim, "log collector online");
        let tails: Vec<Rc<RefCell<LogTail>>> = (0..manifest.learners)
            .map(|_| Rc::new(RefCell::new(LogTail::default())))
            .collect();
        let alive = ctx2.alive_flag();
        let nic = ctx2.nic.clone();
        dlaas_sim::every(sim, flush, move |sim, _n| {
            if !alive.get() {
                return false;
            }
            for (ord, tail) in (0..).zip(&tails) {
                let Some((shipped, body)) = tail.borrow_mut().refill(&mount, ord) else {
                    continue;
                };
                // The cursor only advances once the store has the bytes:
                // a put lost to an outage is retried by the next flush.
                let tail2 = tail.clone();
                objstore.put(
                    sim,
                    manifest.results_bucket.clone(),
                    paths::obj_log(&job, ord),
                    ObjectBody::Text(body),
                    Some(&nic),
                    move |_sim, r| {
                        let mut t = tail2.borrow_mut();
                        t.busy = false;
                        if r.is_ok() {
                            t.stored = shipped;
                        }
                    },
                );
            }
            true
        });
    });
    Box::new(|_sim| {})
}

// ----------------------------------------------------------------------
// store-results
// ----------------------------------------------------------------------

/// Behavior factory for the store-results container: when the controller
/// signals (on behalf of the Guardian), uploads the trained model to the
/// object store and marks completion on NFS.
pub fn store_results_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    let objstore = h.objstore.clone();
    let ctx2 = ctx.clone();
    with_jobspec(&h, sim, &ctx, move |sim, mount, manifest| {
        if mount.exists(paths::NFS_STORE_DONE) {
            ctx2.record(sim, "results already stored");
            ctx2.exit(sim, 0);
            return;
        }
        let alive = ctx2.alive_flag();
        let busy = Rc::new(Cell::new(false));
        let nic = ctx2.nic.clone();
        dlaas_sim::every(sim, SimDuration::from_millis(1000), move |sim, _n| {
            if !alive.get() {
                return false;
            }
            if busy.get() || !mount.exists(paths::NFS_STORE_GO) {
                return true;
            }
            busy.set(true);
            let bytes = dlaas_gpu::checkpoint_bytes(manifest.model);
            let mount2 = mount.clone();
            let ctx3 = ctx2.clone();
            let busy2 = busy.clone();
            objstore.put(
                sim,
                manifest.results_bucket.clone(),
                paths::obj_result_model(&job),
                ObjectBody::Synthetic(bytes),
                Some(&nic),
                move |sim, r| {
                    if !ctx3.is_alive() {
                        return;
                    }
                    // Exiting 0 without the done marker would wedge the job
                    // in STORING forever; during an NFS outage keep the
                    // timer alive and retry (the upload is idempotent).
                    match r {
                        Ok(()) if mount2.write_file(paths::NFS_STORE_DONE, "done").is_ok() => {
                            sim.metrics()
                                .counter_series(metrics::RESULTS_STORED, [])
                                .inc();
                            ctx3.record(sim, "results uploaded");
                            ctx3.exit(sim, 0);
                        }
                        r => {
                            let why = match r {
                                Ok(()) => "done marker write failed".to_owned(),
                                Err(e) => format!("result upload failed: {e}"),
                            };
                            ctx3.record(sim, format!("{why}; will retry"));
                            busy2.set(false); // timer retries on a later tick
                        }
                    }
                },
            );
            true // keep ticking; exit (alive = false) is what stops us
        });
    });
    Box::new(|_sim| {})
}
