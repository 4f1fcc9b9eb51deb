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
use dlaas_sharedfs::{Mount, NfsError};
use dlaas_sim::{DeadlineTimer, Grid, Sim, SimDuration, SimTime};

use crate::config;
use crate::handles::Handles;
use crate::job::{JobId, LearnerPhase};
use crate::manifest::TrainingManifest;
use crate::metrics;
use crate::paths;
use crate::publisher::{at_once, Ack, Publisher, Sink};

/// How many 500 ms waits for the jobspec a helper container and a
/// learner make before they exit 1 and Kubernetes restarts them. (Both
/// figures are as old as the components; either one moves a campaign
/// artifact.)
const HELPER_JOBSPEC_WAITS: u32 = 601;
pub(crate) const LEARNER_JOBSPEC_WAITS: u32 = 241;

/// How often store-results polls the volume for the controller's "go".
const STORE_RESULTS_POLL: SimDuration = SimDuration::from_millis(1_000);

/// A helper container's bootstrap (its `arg` is the job id).
fn with_jobspec(
    h: &Handles,
    sim: &mut Sim,
    ctx: &ProcessCtx,
    who: &'static str,
    ready: impl FnOnce(&mut Sim, Mount, TrainingManifest) + 'static,
) {
    let (h, ctx, job) = (h.clone(), ctx.clone(), JobId::new(ctx.arg.clone()));
    wait_for_jobspec(h, sim, ctx, job, who, HELPER_JOBSPEC_WAITS, ready);
}

/// The bootstrap every container of a job shares: mount the job volume
/// and read the jobspec, retrying until the Guardian has provisioned
/// both — a restarted container may race a Guardian rollback. Calls
/// `ready` once available; exits 1 after `waits` waits, so the kubelet
/// starts a fresh incarnation; stops silently when the process dies.
pub(crate) fn wait_for_jobspec(
    h: Handles,
    sim: &mut Sim,
    ctx: ProcessCtx,
    job: JobId,
    who: &'static str,
    waits: u32,
    ready: impl FnOnce(&mut Sim, Mount, TrainingManifest) + 'static,
) {
    if !ctx.is_alive() {
        return;
    }
    let spec = (|| {
        let mount = h.nfs.mount(&paths::volume(&job)).ok()?;
        let spec = mount.read_file(paths::NFS_JOBSPEC).ok()?;
        let manifest = TrainingManifest::from_json(&spec).ok()?;
        Some((mount, manifest))
    })();
    match spec {
        Some((mount, manifest)) => ready(sim, mount, manifest),
        None if waits == 0 => {
            sim.mark(who, job.as_str(), "jobspec-never-appeared", 0);
            ctx.exit(sim, 1);
        }
        None => {
            sim.schedule_in(SimDuration::from_millis(500), move |sim| {
                wait_for_jobspec(h, sim, ctx, job, who, waits - 1, ready);
            });
        }
    }
}

/// Waits for the next write to `mount` that `wakes(path, contents, at)`
/// accepts, then runs `poll` at the first instant of `grid` after it: the
/// instant a poller on that grid would first have seen the write. A volume
/// that cannot take the wait (outage window, torn down) is polled instead:
/// `poll` runs at the grid's next instant.
pub(crate) fn poll_on_write(
    sim: &mut Sim,
    mount: &Mount,
    wakes: impl Fn(&str, &str, SimTime) -> bool + 'static,
    grid: Grid,
    poll: impl FnOnce(&mut Sim) + Clone + 'static,
) {
    if mount.park(wakes, grid, poll.clone()).is_err() {
        sim.schedule_at(grid.after(sim.now()), poll);
    }
}

// ----------------------------------------------------------------------
// controller
// ----------------------------------------------------------------------

/// One etcd key the controller owns (§III-f, "reliable status") — a
/// learner's status, the job's restart total, the write-once `data`,
/// `throughput` and `store` markers — as the sink of a [`Publisher`]
/// (DESIGN.md §5 has the contract and the reordering it prevents).
///
/// *What* is published is what a consumer acts on. A learner's change of
/// phase kind goes out at once — the Guardian's aggregation rules turn on
/// it. A change of iteration alone has one reader, the Guardian's
/// progress mirror, whose cadence is `GUARDIAN_POLL`: it is put once that
/// long has passed since the last acknowledged put, not on every learner
/// report. Every change of any other value goes out at once.
struct EtcdKey {
    etcd: dlaas_etcd::EtcdClient,
    key: String,
}

impl<V: Clone + PartialEq + ToString + 'static> Sink<V> for EtcdKey {
    fn send(&self, sim: &mut Sim, ack: Ack<V, Self>) {
        let value = ack.value.to_string();
        self.etcd.put(sim, self.key.clone(), value, move |sim, r| {
            ack.settle(sim, r.is_ok());
        });
    }
}

type KeyPublisher<V> = Rc<Publisher<V, EtcdKey>>;

/// What one complete read of the job volume showed the controller.
#[derive(Default)]
struct Observed {
    data_loaded: bool,
    /// Every learner's phase, by ordinal.
    phases: Vec<LearnerPhase>,
    restarts_total: u64,
    /// The learners' measured throughputs summed, once every learner
    /// completed and reported its own.
    throughput: Option<f64>,
    store_done: bool,
}

impl Observed {
    fn all_completed(&self) -> bool {
        self.phases.iter().all(LearnerPhase::is_completed)
    }
}

/// The controller's view of the volume: what its last complete read
/// showed, and the write generation that read saw — forgotten whenever
/// the volume could not be reached since.
#[derive(Default)]
struct Seen {
    generation: Option<u64>,
    observed: Option<Observed>,
}

/// A learner's status writes the controller let pass since its last
/// complete read ([`Controller::wakes_for`]): what the latest said, the
/// grid instant a poll would have read it at, and what a poll before
/// that instant would have read.
#[derive(Clone, Copy)]
struct News {
    phase: LearnerPhase,
    polled: SimTime,
    before: LearnerPhase,
}

/// One controller incarnation: its etcd client and mount, its view of
/// the volume, a publisher per etcd key it owns, whether it relayed the
/// Guardian's store-results "go", and how it waits between ticks.
struct Controller {
    etcd: dlaas_etcd::EtcdClient,
    mount: Mount,
    files: Vec<paths::LearnerFiles>,
    seen: RefCell<Seen>,
    /// Per learner, the status writes let pass since the last read.
    news: RefCell<Vec<Option<News>>>,
    data: KeyPublisher<&'static str>,
    learners: Vec<KeyPublisher<LearnerPhase>>,
    restarts: KeyPublisher<u64>,
    throughput: KeyPublisher<f64>,
    store: KeyPublisher<&'static str>,
    store_go_relayed: Rc<Cell<bool>>,
    alive: Rc<Cell<bool>>,
    /// The instants it ticks at: every `CONTROLLER_POLL` from its start.
    grid: Grid,
    /// The instant of its latest tick: it ticks once per grid instant.
    last_tick: Cell<Option<SimTime>>,
    /// Parked: no tick is scheduled, a write or a due publish wakes it.
    parked: Cell<bool>,
    /// Its wait on the volume is registered and has not run yet.
    on_volume: Cell<bool>,
    /// Wakes a parked controller when a coalesced publish falls due.
    due_wake: DeadlineTimer,
}

impl Controller {
    /// A new incarnation ticking on `grid`: nothing published, nothing
    /// read. It remembers no generation, so its first tick reads the
    /// volume whatever its predecessor saw.
    fn new(
        etcd: dlaas_etcd::EtcdClient,
        mount: Mount,
        job: &JobId,
        learners: u32,
        alive: &Rc<Cell<bool>>,
        grid: Grid,
    ) -> Rc<Self> {
        fn key<V: Clone + PartialEq + ToString + 'static>(
            etcd: &dlaas_etcd::EtcdClient,
            key: String,
            urgent: fn(&V, &V) -> bool,
            alive: &Rc<Cell<bool>>,
        ) -> KeyPublisher<V> {
            let etcd = etcd.clone();
            Publisher::new(EtcdKey { etcd, key }, urgent, config::GUARDIAN_POLL, alive)
        }
        Rc::new(Controller {
            files: (0..learners).map(paths::LearnerFiles::new).collect(),
            seen: RefCell::default(),
            news: RefCell::new(vec![None; learners as usize]),
            data: key(&etcd, paths::etcd_data(job), at_once, alive),
            learners: (0..learners)
                .map(|ord| {
                    let urgent = |was: &LearnerPhase, now: &LearnerPhase| !was.same_kind(now);
                    key(&etcd, paths::etcd_learner(job, ord), urgent, alive)
                })
                .collect(),
            restarts: key(&etcd, paths::etcd_restarts(job), at_once, alive),
            throughput: key(&etcd, paths::etcd_throughput(job), at_once, alive),
            store: key(&etcd, paths::etcd_store(job), at_once, alive),
            store_go_relayed: Rc::default(),
            alive: alive.clone(),
            grid,
            last_tick: Cell::new(None),
            parked: Cell::new(false),
            on_volume: Cell::new(false),
            due_wake: DeadlineTimer::default(),
            etcd,
            mount,
        })
    }

    /// One tick of the incarnation's life — at most one per grid
    /// instant — then the wait for the next.
    fn run(self: Rc<Self>, sim: &mut Sim) {
        let now = Some(sim.now());
        if self.alive.get() && self.last_tick.get() != now {
            self.last_tick.set(now);
            self.tick(sim);
            self.wait(sim);
        }
    }

    /// After a tick: the next one on the grid, unless nothing but a write
    /// to the volume (or a coalesced publish falling due) can give one
    /// anything to do — then the controller parks until either happens,
    /// and wakes on the grid instant its tick would have acted at.
    ///
    /// A tick that found the volume unchanged read nothing and offered
    /// every publisher what it already had; it did something only when
    /// the volume was unreachable (and the next tick must read it), a put
    /// was in flight or owed (and is offered again), a coalesced publish
    /// was due, or the `store=go` relay polled etcd. All other such ticks
    /// are the ones parking skips.
    fn wait(self: &Rc<Self>, sim: &mut Sim) {
        let now = sim.now();
        let (readable, relaying) = {
            let seen = self.seen.borrow();
            let relaying = seen.observed.as_ref().is_some_and(|o| {
                !o.store_done && o.all_completed() && !self.store_go_relayed.get()
            });
            (seen.generation.is_some(), relaying)
        };
        let needed = [
            needs(&self.data),
            needs(&self.restarts),
            needs(&self.throughput),
            needs(&self.store),
        ]
        .into_iter()
        .chain(self.learners.iter().map(|p| needs(p)))
        .flatten()
        .min();
        if !readable || relaying || needed.is_some_and(|t| t <= now) {
            self.parked.set(false);
            let me = self.clone();
            sim.schedule_at(self.grid.after(now), move |sim| me.run(sim));
            return;
        }
        self.parked.set(true);
        if !self.on_volume.replace(true) {
            let (me, asks) = (self.clone(), self.clone());
            let wakes = move |path: &str, contents: &str, at| asks.wakes_for(path, contents, at);
            poll_on_write(sim, &self.mount, wakes, self.grid, move |sim| {
                me.woken(sim);
            });
        }
        // One armed wake-up per due instant: a park that keeps the instant
        // keeps the event (a cancelled one would sit in the kernel's queue
        // until its instant).
        match needed {
            Some(due) => {
                let me = self.clone();
                let at = self.grid.at_or_after(due);
                self.due_wake.set(sim, at, move |sim| me.unpark(sim));
            }
            None => self.due_wake.cancel(sim),
        }
    }

    /// Whether a write of `contents` to `path` at `at` can change what a
    /// parked controller publishes, or when. Two kinds cannot, and wake
    /// nothing: a log line (the controller never reads one), and a status
    /// write that keeps its learner's phase kind while that learner's
    /// publisher already holds a coalesced value due. The put that falls
    /// due reads the volume at its armed instant and sends whatever the
    /// status says then, so the write changes neither its value nor its
    /// instant. (A parked controller's publishers are all idle: nothing but
    /// its own tick moves what they hold.) Should the volume be unreadable
    /// at that instant, the put sends what a controller woken by every
    /// write would hold: the write is kept as [`News`] for that case.
    fn wakes_for(&self, path: &str, contents: &str, at: SimTime) -> bool {
        let Some(ord) = self.files.iter().position(|f| f.status == path) else {
            return !self.files.iter().any(|f| f.log == path);
        };
        let publisher = &self.learners[ord];
        let (Some(held), Some(_)) = (publisher.latest(), publisher.due()) else {
            return true;
        };
        let Some(phase) = contents.parse().ok().filter(|now| held.same_kind(now)) else {
            return true;
        };
        let polled = self.grid.after(at);
        let mut news = self.news.borrow_mut();
        let before = match news[ord] {
            Some(n) if n.polled == polled => n.before,
            Some(n) => n.phase,
            None => held,
        };
        news[ord] = Some(News {
            phase,
            polled,
            before,
        });
        false
    }

    /// Its wait on the volume ran: a write landed, or the volume could not
    /// take the wait. If its tick at this instant already ran and parked
    /// it again counting on this spent wait, it waits again.
    fn woken(self: Rc<Self>, sim: &mut Sim) {
        self.on_volume.set(false);
        if self.parked.get() && self.last_tick.get() == Some(sim.now()) {
            self.wait(sim);
        } else {
            self.unpark(sim);
        }
    }

    /// A wake-up: a parked controller ticks. One that is not parked has a
    /// tick scheduled, which reads what changed.
    fn unpark(self: Rc<Self>, sim: &mut Sim) {
        if self.parked.get() && self.last_tick.get() != Some(sim.now()) {
            self.parked.set(false);
            self.run(sim);
        }
    }

    /// One poll of the job volume (§III-e: the controller *polls* NFS).
    ///
    /// The poll happens every tick; the reading behind it only when the
    /// volume's write generation moved since the last complete read —
    /// with it unchanged, every file would read as it did; with it
    /// unreadable, nothing can be learnt. Either way the tick then
    /// [`Controller::publish`]es the observation it holds, if it ever
    /// made one, so everything a tick does that is not an NFS read
    /// (weighing each publisher again: an owed put, an iteration publish
    /// falling due; the `store=go` relay's etcd read) happens on every
    /// tick, at the same instant and in the same order, whether or not
    /// the volume was read.
    fn tick(&self, sim: &mut Sim) {
        let mut seen = self.seen.borrow_mut();
        let Seen {
            generation,
            observed,
        } = &mut *seen;
        let read = self.mount.generation().and_then(|now| {
            if *generation != Some(now) {
                read_volume(&self.mount, &self.files, observed.get_or_insert_default())?;
            }
            Ok(now)
        });
        // A volume that cannot be reached (outage window, torn down) is
        // not an empty one: the tick learns nothing and keeps what it
        // knew — and, remembering no generation, reads everything once it
        // can again. What it knew includes the status writes it let pass
        // that a poll would have read before the volume became unreadable.
        *generation = read.ok();
        let mut news = self.news.borrow_mut();
        if let (None, Some(observed), Some(since)) = (
            *generation,
            observed.as_mut(),
            self.mount.unreadable_since(),
        ) {
            for (phase, news) in observed.phases.iter_mut().zip(news.iter()) {
                if let Some(n) = news {
                    *phase = if n.polled <= since { n.phase } else { n.before };
                }
            }
        }
        news.fill(None);
        drop(news);
        if let Some(observed) = observed {
            self.publish(sim, observed);
        }
    }

    /// Offers every etcd key the controller owns the value `seen`
    /// implies, and relays the Guardian's store-results "go" the other
    /// way.
    fn publish(&self, sim: &mut Sim, seen: &Observed) {
        // Data-loaded marker → etcd.
        if seen.data_loaded {
            self.data.offer(sim, "loaded");
        }
        for (publisher, phase) in self.learners.iter().zip(&seen.phases) {
            publisher.offer(sim, *phase);
        }
        // Aggregate restart counter (training progress needs no key of
        // its own: it is the maximum over the learner statuses written
        // above). An absent key reads as zero.
        if seen.restarts_total > 0 {
            self.restarts.offer(sim, seen.restarts_total);
        }
        if let Some(sum) = seen.throughput {
            self.throughput.offer(sim, sum);
        }

        // Store-results coordination: Guardian writes "go" in etcd; we
        // relay it to NFS for the store-results container, and relay its
        // completion marker back to etcd.
        if seen.store_done {
            // Without the "done" relay the Guardian never completes the job.
            self.store.offer(sim, "done");
            return;
        }
        // The Guardian writes "go" only after it saw every learner
        // COMPLETED — statuses this controller reported — so before that
        // the key can only be absent and is not worth a linearizable read
        // per tick.
        if seen.all_completed() && !self.store_go_relayed.get() {
            let mount = self.mount.clone();
            let relayed = self.store_go_relayed.clone();
            let key = self.store.sink.key.clone();
            self.etcd.get(sim, key, move |sim, r| {
                if let Ok(Some(v)) = r {
                    // Only latch the flag once the NFS write landed;
                    // during an NFS outage window the next tick
                    // retries the relay.
                    if v == "go"
                        && !relayed.get()
                        && mount.write_file(sim, paths::NFS_STORE_GO, "go").is_ok()
                    {
                        relayed.set(true);
                    }
                }
            });
        }
    }
}

/// When a publisher next needs an offer from the controller's tick: at
/// once while a write is in flight (if refused, its value stays owed), else
/// when its latest value falls due; `None` once the store has it.
fn needs<V: Clone + PartialEq + ToString + 'static>(p: &Publisher<V, EtcdKey>) -> Option<SimTime> {
    if p.idle() {
        p.due()
    } else {
        Some(SimTime::ZERO)
    }
}

/// Behavior factory for the controller container (arg = job id).
pub fn controller_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    // A fresh client per incarnation, closed with it (`Handles::etcd_client`).
    let etcd = h.etcd_client(
        &ctx,
        &format!("{}/{}#{}", ctx.pod, ctx.container, ctx.incarnation),
    );
    let ctx2 = ctx.clone();
    let who = "controller";
    with_jobspec(&h, sim, &ctx, who, move |sim, mount, manifest| {
        sim.mark(who, job.as_str(), "online", 0);
        let alive = ctx2.alive_flag();
        let grid = Grid::new(sim.now(), config::CONTROLLER_POLL);
        let controller = Controller::new(etcd, mount, &job, manifest.learners, &alive, grid);
        sim.schedule_at(grid.after(sim.now()), move |sim| controller.run(sim));
    });
    Box::new(|_sim| {})
}

/// Reads everything the controller relays off the volume into `out`.
fn read_volume(
    mount: &Mount,
    files: &[paths::LearnerFiles],
    out: &mut Observed,
) -> Result<(), NfsError> {
    let max_failures = u64::from(config::LEARNER_MAX_FAILURES);
    out.data_loaded = mount.exists(paths::NFS_DATA_LOADED);
    out.restarts_total = 0;
    out.phases.clear();
    for f in files {
        // Restart counter (maintained by the learner on NFS, so it
        // survives both learner and controller crashes).
        let starts: u64 = mount
            .read(&f.restarts, |s| s.parse().ok())?
            .flatten()
            .unwrap_or(0);
        out.restarts_total += starts.saturating_sub(1);

        // Determine the learner's phase from its files.
        let mut phase: Option<LearnerPhase> = mount.read(&f.status, |s| s.parse().ok())?.flatten();
        if mount.read(&f.exit, |exit| exit == "0")? == Some(true) {
            phase = Some(LearnerPhase::Completed);
        }
        // The restart budget: every start beyond the first is a recovery
        // from some failure (orderly or crash). Exhausting the budget is a
        // permanent failure the Guardian turns into a FAILED job.
        if starts > max_failures && !matches!(phase, Some(LearnerPhase::Completed)) {
            phase = Some(LearnerPhase::Failed);
        }
        out.phases.push(phase.unwrap_or(LearnerPhase::Downloading));
    }

    // Once every learner reports its measured throughput: the sum. A
    // learner runs customer code, so a NaN or an infinity is no reading.
    out.throughput = None;
    if out.all_completed() {
        let mut sum = Some(0.0);
        for f in files {
            let reported = mount.read(&f.throughput, |s| {
                s.parse::<f64>().ok().filter(|v| v.is_finite())
            })?;
            sum = sum.zip(reported.flatten()).map(|(sum, v)| sum + v);
        }
        out.throughput = sum;
    }
    out.store_done = mount.exists(paths::NFS_STORE_DONE);
    Ok(())
}

// ----------------------------------------------------------------------
// load-data
// ----------------------------------------------------------------------

/// Behavior factory for the load-data container: stages the training data
/// from the object store onto the shared volume, exactly once per job.
pub fn load_data_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let ctx2 = ctx.clone();
    let h2 = h.clone();
    let who = "load-data";
    with_jobspec(&h, sim, &ctx, who, move |sim, mount, manifest| {
        if mount.exists(paths::NFS_DATA_LOADED) {
            sim.mark(who, ctx2.arg.as_str(), "already-staged", 0);
            ctx2.exit(sim, 0);
            return;
        }
        sim.mark(who, ctx2.arg.as_str(), "staging", manifest.data_bytes);
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
                Ok(_)
                    if mount
                        .write_file(sim, paths::NFS_DATA_LOADED, "loaded")
                        .is_ok() =>
                {
                    sim.metrics().counter_series(metrics::DATA_STAGED, []).inc();
                    sim.mark("load-data", ctx2.arg.as_str(), "staged", 0);
                    ctx2.exit(sim, 0);
                }
                r => {
                    let why = match r {
                        Ok(_) => "marker-write-failed",
                        Err(_) => "fetch-failed",
                    };
                    sim.mark("load-data", ctx2.arg.as_str(), why, 0);
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

/// One learner's log as the collector has it, and the sink of the
/// publisher that ships it: the value published is the byte cursor — the
/// offset where the first line not yet read starts — the write a put of
/// everything before it, so the cursor only advances once the store has
/// the bytes, and a put lost to an outage is owed again on the next flush.
struct LogTail {
    objstore: dlaas_objstore::ObjectStore,
    nic: dlaas_net::SharedLink,
    bucket: String,
    /// The object the log is shipped to.
    key: String,
    /// The learner's log on NFS.
    path: String,
    /// The log as last read: the cursor, and the object body — a view of
    /// the volume's own buffer up to it, so a flush copies nothing. `None`
    /// until the log was first read.
    read: RefCell<Option<(usize, ObjectBody)>>,
}

impl Sink<usize> for LogTail {
    fn send(&self, sim: &mut Sim, ack: Ack<usize, Self>) {
        // Offered only once a read found lines (`log_collector_behavior`).
        let Some((_, body)) = self.read.borrow().clone() else {
            return ack.settle(sim, false);
        };
        self.objstore.put(
            sim,
            &self.bucket,
            &self.key,
            body,
            Some(&self.nic),
            |sim, r| {
                ack.settle(sim, r.is_ok());
            },
        );
    }
}

impl LogTail {
    /// Reads the log past the last flush's cursor; returns the new cursor.
    fn refill(&self, mount: &Mount) -> usize {
        let mut read = self.read.borrow_mut();
        let from = read.as_ref().map_or(0, |(next, _)| *next);
        // An NFS outage (or a log not written yet) leaves the tail for
        // the next flush.
        if let Ok((next, view)) = mount.tail(&self.path, from) {
            *read = Some((next, ObjectBody::Text(view)));
        }
        read.as_ref().map_or(0, |(next, _)| *next)
    }
}

/// Behavior factory for the log-collector container: tails learner logs
/// on NFS and mirrors them to the object store, "irrespective of the
/// stage [the job] is in, even if it crashes/fails" (§II).
///
/// Each flush reads only the lines past its cursor and re-puts the whole
/// object as a view of the NFS file's own buffer (object stores have no
/// append: the put is charged the whole body, though nothing was copied).
/// The cursor is volatile: a restarted collector reads the log from byte 0
/// once and reproduces the complete object, again without a copy.
pub fn log_collector_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    let objstore = h.objstore.clone();
    let ctx2 = ctx.clone();
    let who = "log-collector";
    with_jobspec(&h, sim, &ctx, who, move |sim, mount, manifest| {
        sim.mark(who, ctx2.arg.as_str(), "online", 0);
        let alive = ctx2.alive_flag();
        let tails: Vec<_> = (0..manifest.learners)
            .map(|ord| {
                let tail = LogTail {
                    objstore: objstore.clone(),
                    nic: ctx2.nic.clone(),
                    bucket: manifest.results_bucket.clone(),
                    key: paths::obj_log(&job, ord),
                    path: paths::nfs_learner_log(ord),
                    read: RefCell::new(None),
                };
                Publisher::new(tail, at_once, SimDuration::ZERO, &alive)
            })
            .collect();
        dlaas_sim::every(sim, config::LOG_FLUSH, move |sim, _n| {
            if !alive.get() {
                return false;
            }
            for tail in &tails {
                let read = tail.sink.refill(&mount);
                // An empty log has no object; and a put re-sends the whole
                // body, so lines read while one is in flight wait for the
                // next flush rather than follow it back to back.
                if read > 0 && tail.idle() {
                    tail.offer(sim, read);
                }
            }
            true
        });
    });
    Box::new(|_sim| {})
}

// ----------------------------------------------------------------------
// store-results
// ----------------------------------------------------------------------

/// One store-results incarnation: it polls the volume for the
/// controller's "go" on its grid, parked on the marker while it is absent.
struct StoreResults {
    objstore: dlaas_objstore::ObjectStore,
    ctx: ProcessCtx,
    job: JobId,
    mount: Mount,
    manifest: TrainingManifest,
    grid: Grid,
}

impl StoreResults {
    /// One poll: upload the model once "go" is on the volume, or wait for
    /// it to be written.
    fn poll(self: Rc<Self>, sim: &mut Sim) {
        if !self.ctx.is_alive() {
            return;
        }
        if !self.mount.exists(paths::NFS_STORE_GO) {
            let me = self.clone();
            poll_on_write(
                sim,
                &self.mount,
                |path, _, _| path == paths::NFS_STORE_GO,
                self.grid,
                move |sim| {
                    me.poll(sim);
                },
            );
            return;
        }
        let bytes = dlaas_gpu::checkpoint_bytes(self.manifest.model);
        let me = self.clone();
        self.objstore.put(
            sim,
            &self.manifest.results_bucket,
            &paths::obj_result_model(&self.job),
            ObjectBody::Synthetic(bytes),
            Some(&self.ctx.nic),
            move |sim, r| {
                if !me.ctx.is_alive() {
                    return;
                }
                // Exiting 0 without the done marker would wedge the job
                // in STORING forever; during an NFS outage poll again and
                // retry (the upload is idempotent).
                let who = "store-results";
                match r {
                    Ok(())
                        if me
                            .mount
                            .write_file(sim, paths::NFS_STORE_DONE, "done")
                            .is_ok() =>
                    {
                        sim.metrics()
                            .counter_series(metrics::RESULTS_STORED, [])
                            .inc();
                        sim.mark(who, me.job.as_str(), "uploaded", 0);
                        me.ctx.exit(sim, 0);
                    }
                    r => {
                        let why = match r {
                            Ok(()) => "marker-write-failed",
                            Err(_) => "upload-failed",
                        };
                        sim.mark(who, me.job.as_str(), why, 0);
                        let at = me.grid.after(sim.now());
                        sim.schedule_at(at, move |sim| me.poll(sim));
                    }
                }
            },
        );
    }
}

/// Behavior factory for the store-results container: when the controller
/// signals (on behalf of the Guardian), uploads the trained model to the
/// object store and marks completion on NFS.
pub fn store_results_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let objstore = h.objstore.clone();
    let ctx2 = ctx.clone();
    let who = "store-results";
    with_jobspec(&h, sim, &ctx, who, move |sim, mount, manifest| {
        let job = JobId::new(ctx2.arg.clone());
        if mount.exists(paths::NFS_STORE_DONE) {
            sim.mark(who, job.as_str(), "already-stored", 0);
            ctx2.exit(sim, 0);
            return;
        }
        let grid = Grid::new(sim.now(), STORE_RESULTS_POLL);
        let store = Rc::new(StoreResults {
            objstore,
            ctx: ctx2,
            job,
            mount,
            manifest,
            grid,
        });
        sim.schedule_at(grid.after(sim.now()), move |sim| store.poll(sim));
    });
    Box::new(|_sim| {})
}

#[cfg(test)]
mod tests {
    //! The controller's generation gate, one tick at a time: a rig of a
    //! real etcd cluster and NFS server around a hand-driven controller.

    use super::*;
    use dlaas_etcd::EtcdCluster;
    use dlaas_sharedfs::NfsServer;

    struct Rig {
        sim: Sim,
        etcd: Rc<EtcdCluster>,
        nfs: NfsServer,
        /// The learner's side of the volume.
        learner: Mount,
        job: JobId,
        controller: Rc<Controller>,
    }

    fn rig(seed: u64) -> Rig {
        let mut sim = Sim::new(seed);
        let etcd = Rc::new(EtcdCluster::new_3way(&mut sim));
        etcd.expect_leader(&mut sim, SimDuration::from_secs(5));
        let nfs = NfsServer::new();
        let job = JobId::new("auto-1");
        let vol = paths::volume(&job);
        nfs.create_volume(&vol);
        let learner = nfs.mount(&vol).expect("volume exists");
        let controller = incarnation(&etcd, &learner, &job, 0);
        Rig {
            sim,
            etcd,
            nfs,
            learner,
            job,
            controller,
        }
    }

    /// Controller incarnation `n` of `job`, over a mount of its own.
    fn incarnation(etcd: &EtcdCluster, volume: &Mount, job: &JobId, n: u32) -> Rc<Controller> {
        let client = etcd.client(format!("controller#{n}"));
        let alive = Rc::new(Cell::new(true));
        let grid = Grid::new(SimTime::ZERO, config::CONTROLLER_POLL);
        Controller::new(client, volume.clone(), job, 1, &alive, grid)
    }

    impl Rig {
        /// One controller tick, then a controller period of simulated time.
        fn tick(&mut self) {
            self.controller.tick(&mut self.sim);
            self.sim.run_for(config::CONTROLLER_POLL);
        }

        /// A new controller incarnation over the same volume and etcd.
        fn restart_controller(&mut self) {
            self.controller = incarnation(&self.etcd, &self.learner, &self.job, 1);
        }

        fn learner_reports(&mut self, status: &str) {
            self.learner_writes(&self.controller.files[0].status.clone(), status);
        }

        fn learner_writes(&mut self, path: &str, contents: &str) {
            self.learner
                .write_file(&mut self.sim, path, contents)
                .expect("volume up");
        }

        fn in_etcd(&self, key: &str) -> Option<String> {
            let leader = self.etcd.leader_id()?;
            self.etcd
                .with_kv(leader, |kv| kv.get(key).map(|v| v.value.clone()))
        }

        fn published(&self) -> Option<String> {
            self.in_etcd(&paths::etcd_learner(&self.job, 0))
        }

        fn reads(&self) -> u64 {
            self.nfs.stats().reads
        }

        fn proposals(&self) -> u64 {
            self.sim.metrics().counter_total("etcd_proposals_total")
        }
    }

    #[test]
    fn an_unchanged_volume_is_polled_not_read() {
        let mut r = rig(1);
        let restarts = r.controller.files[0].restarts.clone();
        r.learner_writes(&restarts, "1");
        r.learner_reports("PROCESSING iter=3");
        r.tick();
        assert_eq!(r.reads(), 2, "restart counter and status (no exit file)");
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=3"));

        let proposals = r.proposals();
        for _ in 0..5 {
            r.tick();
        }
        assert_eq!(r.reads(), 2, "nothing was written: nothing to read again");
        assert_eq!(r.proposals(), proposals, "and nothing to publish again");

        // Any write moves the generation — a log line the controller
        // never reads included — and the next tick reads.
        r.learner
            .append_line(&mut r.sim, &r.controller.files[0].log, "iter=4 loss=2.1")
            .unwrap();
        r.tick();
        assert_eq!(r.reads(), 4);
        r.tick();
        assert_eq!(r.reads(), 4);
    }

    #[test]
    fn an_owed_put_goes_out_on_a_tick_that_reads_nothing() {
        let mut r = rig(2);
        r.learner_reports("PROCESSING iter=1");
        r.tick();
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=1"));

        // The phase changes while etcd has no quorum, for longer than one
        // put's whole retry budget: the COMPLETED put fails, and the
        // volume never changes again.
        let leader = r.etcd.leader_id().expect("leader");
        let down = [leader, (leader + 1) % 3];
        for id in down {
            r.etcd.crash(&mut r.sim, id);
        }
        r.learner_reports("COMPLETED");
        for _ in 0..40 {
            r.tick();
        }
        // No tick for longer than the last put's retry budget: the value
        // is owed, and no put of it is in flight.
        r.sim.run_for(SimDuration::from_secs(20));
        let reads = r.reads();
        for id in down {
            r.etcd.restart(&mut r.sim, id);
        }
        r.etcd.expect_leader(&mut r.sim, SimDuration::from_secs(5));
        r.sim.run_for(SimDuration::from_secs(5));
        assert_eq!(
            r.published().as_deref(),
            Some("PROCESSING iter=1"),
            "nothing but a tick sends what is owed"
        );
        r.tick();
        r.tick();
        assert_eq!(r.published().as_deref(), Some("COMPLETED"));
        assert_eq!(r.reads(), reads, "the retry needed no re-read");
    }

    #[test]
    fn a_coalesced_iteration_falls_due_on_a_tick_that_reads_nothing() {
        let mut r = rig(3);
        r.learner_reports("PROCESSING iter=1");
        let sent = r.sim.now();
        r.tick();
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=1"));
        // One more report, inside the coalescing window; then silence
        // (a learner stalled in a checkpoint upload, say).
        r.learner_reports("PROCESSING iter=2");
        r.tick();
        let reads = r.reads();
        while r.sim.now() < sent + config::GUARDIAN_POLL {
            assert_eq!(r.published().as_deref(), Some("PROCESSING iter=1"));
            r.tick();
        }
        // The tick at `sent + GUARDIAN_POLL` itself.
        r.tick();
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=2"));
        assert_eq!(r.reads(), reads, "the volume was never read again");
    }

    /// The controller on its own loop: parked between the learner's
    /// writes, it ticks on the first poll instant after each one, and —
    /// with the volume silent — on the first one at or after a coalesced
    /// publish falls due.
    #[test]
    fn a_parked_controller_wakes_for_a_write_and_for_a_due_publish() {
        let mut r = rig(8);
        let grid = r.controller.grid;
        let controller = r.controller.clone();
        let first = grid.after(r.sim.now());
        r.sim.schedule_at(first, move |sim| controller.run(sim));
        r.sim.run_for(SimDuration::from_secs(3));
        assert_eq!(r.published().as_deref(), Some("DOWNLOADING"));

        let soon = SimDuration::from_millis(100);
        r.learner_reports("PROCESSING iter=1");
        let sent = grid.after(r.sim.now());
        r.sim.run_until(sent - SimDuration::from_micros(1));
        assert_eq!(r.published().as_deref(), Some("DOWNLOADING"));
        r.sim.run_for(soon);
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=1"));

        // A report inside the coalescing window is read and held back.
        r.sim.run_for(SimDuration::from_secs(5));
        r.learner_reports("PROCESSING iter=2");
        r.sim.run_for(SimDuration::from_secs(2));
        let reads = r.reads();
        let due = grid.at_or_after(sent + config::GUARDIAN_POLL);
        r.sim.run_until(due - SimDuration::from_micros(1));
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=1"));
        r.sim.run_for(soon);
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=2"));
        assert_eq!(r.reads(), reads, "the due wake-up read nothing");
    }

    #[test]
    fn the_store_go_relay_waits_on_etcd_not_on_nfs() {
        let mut r = rig(4);
        let files = r.controller.files[0].clone();
        r.learner_writes(&files.throughput, "41.5");
        r.learner_reports("COMPLETED");
        r.learner_writes(&files.exit, "0");
        r.tick();
        assert_eq!(r.published().as_deref(), Some("COMPLETED"));
        assert_eq!(
            r.in_etcd(&paths::etcd_throughput(&r.job)).as_deref(),
            Some("41.5")
        );
        for _ in 0..3 {
            r.tick();
        }
        assert!(!r.learner.exists(paths::NFS_STORE_GO));

        // The Guardian's "go" arrives in etcd; nothing on NFS changes.
        let reads = r.reads();
        let guardian = r.etcd.client("guardian");
        guardian.put(&mut r.sim, paths::etcd_store(&r.job), "go", |_, r| {
            r.expect("quorum is up");
        });
        r.tick();
        r.tick();
        assert!(r.learner.exists(paths::NFS_STORE_GO), "go relayed to NFS");
        assert_eq!(r.reads(), reads, "by ticks that read nothing");

        // store-results answers on NFS; that is a write, so it is seen.
        r.learner_writes(paths::NFS_STORE_DONE, "done");
        r.tick();
        assert_eq!(
            r.in_etcd(&paths::etcd_store(&r.job)).as_deref(),
            Some("done")
        );
    }

    /// A learner runs customer code: a throughput it cannot have measured
    /// is no reading, so no sum reaches etcd or the job's document.
    #[test]
    fn a_throughput_that_is_not_a_finite_number_is_not_published() {
        for (seed, reported) in [(10, "NaN"), (11, "inf"), (12, "-inf"), (13, "fast")] {
            let mut r = rig(seed);
            let files = r.controller.files[0].clone();
            r.learner_writes(&files.throughput, reported);
            r.learner_reports("COMPLETED");
            r.learner_writes(&files.exit, "0");
            r.tick();
            assert_eq!(r.published().as_deref(), Some("COMPLETED"));
            assert_eq!(
                r.in_etcd(&paths::etcd_throughput(&r.job)),
                None,
                "{reported:?} was published"
            );
        }
    }

    #[test]
    fn a_restarted_controller_remembers_no_generation() {
        let mut r = rig(5);
        r.learner_reports("PROCESSING iter=7");
        r.tick();
        r.tick();
        let reads = r.reads();
        r.restart_controller();
        r.tick();
        assert!(r.reads() > reads, "a new incarnation reads the volume");
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=7"));
    }

    #[test]
    fn a_controller_born_into_an_outage_says_nothing_until_it_has_read() {
        let mut r = rig(7);
        r.learner_reports("PROCESSING iter=7");
        r.tick();
        r.nfs.set_available(&r.sim, false);
        r.restart_controller();
        let proposals = r.proposals();
        for _ in 0..3 {
            r.tick();
        }
        assert_eq!(r.proposals(), proposals, "it has seen nothing to publish");
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=7"));
        r.nfs.set_available(&r.sim, true);
        r.learner_reports("PROCESSING iter=9");
        r.tick();
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=9"));
    }

    #[test]
    fn an_unreadable_generation_gates_nothing_and_reads_nothing() {
        let mut r = rig(6);
        r.learner_reports("PROCESSING iter=7");
        r.tick();
        let reads = r.reads();

        r.nfs.set_available(&r.sim, false);
        for _ in 0..3 {
            r.tick();
            assert_eq!(r.published().as_deref(), Some("PROCESSING iter=7"));
        }
        assert_eq!(r.reads(), reads, "an unreachable volume is not read");
        r.nfs.set_available(&r.sim, true);
        // Nothing was written meanwhile, yet what the controller knew
        // before the outage proves nothing about the volume now.
        r.tick();
        assert!(r.reads() > reads, "the first tick after the outage reads");
        let reads = r.reads();
        r.tick();
        assert_eq!(r.reads(), reads, "and the gate is back");

        // A volume torn down under a live controller is unreadable too.
        r.nfs.delete_volume(&r.sim, &paths::volume(&r.job));
        r.tick();
        assert_eq!(r.reads(), reads);
        assert_eq!(r.published().as_deref(), Some("PROCESSING iter=7"));
    }

    /// The learner side of the controller model test, one step.
    #[derive(Debug, Clone)]
    enum Step {
        /// Learner `n % 2` reports one more iteration: its status, then a
        /// log line.
        Report(u8),
        /// Learner `n % 2` changes phase kind: to DOWNLOADING, to COMPLETED
        /// (with its throughput and exit marker), or to a status that
        /// does not parse.
        Kind(u8, u8),
        /// Kubernetes restarts learner `n % 2`.
        LearnerRestart(u8),
        /// A new controller incarnation takes over.
        ControllerRestart,
        /// The volume is unreachable for this many milliseconds.
        Outage(u16),
    }

    fn steps() -> impl proptest::strategy::Strategy<Value = Vec<(u16, Step)>> {
        use proptest::prelude::*;
        let step = prop_oneof![
            12 => any::<u8>().prop_map(Step::Report),
            2 => (any::<u8>(), 0..3u8).prop_map(|(n, k)| Step::Kind(n, k)),
            1 => any::<u8>().prop_map(Step::LearnerRestart),
            1 => Just(Step::ControllerRestart),
            1 => (500..20_000u16).prop_map(Step::Outage),
        ];
        proptest::collection::vec((0..4_000u16, step), 1..60)
    }

    /// One world of the model test: the rig, the controller incarnation
    /// in charge, each learner's iteration and start count, and whether
    /// every write to the volume also wakes the controller.
    struct Model {
        r: Rig,
        incarnations: u32,
        alive: Rc<Cell<bool>>,
        iters: [u64; 2],
        starts: [u64; 2],
        every_write: bool,
    }

    impl Model {
        fn new(seed: u64, every_write: bool) -> Self {
            let mut m = Model {
                r: rig(seed),
                incarnations: 0,
                alive: Rc::new(Cell::new(false)),
                iters: [0; 2],
                starts: [0; 2],
                every_write,
            };
            m.restart_controller();
            m
        }

        /// A fresh incarnation on its own grid from now; the old one dies.
        fn restart_controller(&mut self) {
            self.alive.set(false);
            self.alive = Rc::new(Cell::new(true));
            self.incarnations += 1;
            let client = self
                .r
                .etcd
                .client(format!("controller#{}", self.incarnations));
            let grid = Grid::new(self.r.sim.now(), config::CONTROLLER_POLL);
            let learner = self.r.learner.clone();
            let c = Controller::new(client, learner, &self.r.job, 2, &self.alive, grid);
            if self.every_write {
                wake_on_every_write(&mut self.r.sim, c.clone());
            }
            let first = grid.after(self.r.sim.now());
            self.r.controller = c.clone();
            self.r.sim.schedule_at(first, move |sim| c.run(sim));
        }

        fn write(&mut self, path: &str, contents: &str) {
            let _refused = self.r.learner.write_file(&mut self.r.sim, path, contents);
        }

        fn apply(&mut self, step: &Step) {
            let files = |n: &u8| paths::LearnerFiles::new(u32::from(*n % 2));
            match step {
                Step::Report(n) => {
                    let (f, i) = (files(n), usize::from(*n % 2));
                    self.iters[i] += 1;
                    self.write(&f.status, &format!("PROCESSING iter={}", self.iters[i]));
                    let line = format!("iter={} loss=1.0", self.iters[i]);
                    let _refused = self.r.learner.append_line(&mut self.r.sim, &f.log, line);
                }
                Step::Kind(n, kind) => {
                    let f = files(n);
                    match kind {
                        0 => self.write(&f.status, "DOWNLOADING"),
                        1 => {
                            self.write(&f.throughput, "41.5");
                            self.write(&f.status, "COMPLETED");
                            self.write(&f.exit, "0");
                        }
                        _ => self.write(&f.status, "garbled"),
                    }
                }
                Step::LearnerRestart(n) => {
                    let (f, i) = (files(n), usize::from(*n % 2));
                    self.starts[i] += 1;
                    self.write(&f.restarts, &self.starts[i].to_string());
                    self.r.learner.remove(&mut self.r.sim, &f.exit);
                    self.write(&f.status, "DOWNLOADING");
                }
                Step::ControllerRestart => self.restart_controller(),
                Step::Outage(_) => self.r.nfs.set_available(&self.r.sim, false),
            }
            // Woken by every write, the reference knows only what it read:
            // what its own wait let pass is forgotten.
            if self.every_write {
                self.r.controller.news.borrow_mut().fill(None);
            }
        }

        /// What etcd holds of every key a controller publishes, and how
        /// many proposals it took.
        fn published(&self) -> (Vec<Option<String>>, u64) {
            let job = &self.r.job;
            let keys = [
                paths::etcd_learner(job, 0),
                paths::etcd_learner(job, 1),
                paths::etcd_restarts(job),
                paths::etcd_throughput(job),
                paths::etcd_data(job),
                paths::etcd_store(job),
            ];
            (
                keys.iter().map(|k| self.r.in_etcd(k)).collect(),
                self.r.proposals(),
            )
        }
    }

    /// The reference's extra waiter: every write to the volume wakes the
    /// controller on its next grid instant, as before it chose its writes.
    fn wake_on_every_write(sim: &mut Sim, c: Rc<Controller>) {
        let (mount, grid, me) = (c.mount.clone(), c.grid, c.clone());
        let again = move |sim: &mut Sim| {
            if me.alive.get() {
                me.clone().unpark(sim);
                wake_on_every_write(sim, me);
            }
        };
        poll_on_write(sim, &mount, |_, _, _| true, grid, again);
    }

    /// Runs `steps` against a controller that sleeps through the writes
    /// it can ignore and one woken by every write, in lockstep; returns
    /// the first instant at which etcd differs between the two.
    fn diverges(steps: &[(u16, Step)]) -> Option<SimTime> {
        let mut parked = Model::new(11, false);
        let mut woken = Model::new(11, true);
        let mut timeline = Vec::new();
        let mut at = parked.r.sim.now();
        for (gap_ms, step) in steps {
            at += SimDuration::from_millis(u64::from(*gap_ms));
            timeline.push((at, Some(step.clone())));
            if let Step::Outage(ms) = step {
                timeline.push((at + SimDuration::from_millis(u64::from(*ms)), None));
            }
        }
        timeline.sort_by_key(|(t, _)| *t);
        timeline.push((at + config::GUARDIAN_POLL * 2, None));
        for (t, step) in timeline {
            loop {
                let next = [parked.r.sim.peek_time(), woken.r.sim.peek_time()]
                    .into_iter()
                    .flatten()
                    .min()
                    .map_or(t, |next| next.min(t));
                parked.r.sim.run_until(next);
                woken.r.sim.run_until(next);
                if parked.published() != woken.published() {
                    return Some(next);
                }
                if next == t {
                    break;
                }
            }
            for m in [&mut parked, &mut woken] {
                match &step {
                    Some(step) => m.apply(step),
                    None => m.r.nfs.set_available(&m.r.sim, true),
                }
            }
        }
        None
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig { cases: 48, .. Default::default() })]

        // Under random reports, kind changes, learner and controller
        // restarts and NFS outages, a controller that sleeps through the
        // writes it can ignore makes the same etcd puts at the same
        // instants as one woken by every write: etcd holds the same
        // values, after the same number of proposals, at every instant
        // either world has an event.
        #[test]
        fn a_controller_that_ignores_news_publishes_what_one_woken_by_every_write_does(
            steps in steps(),
        ) {
            proptest::prop_assert_eq!(diverges(&steps), None, "{:?}", steps);
        }
    }

    /// The outage cases the random walk seldom reaches: a publish falling
    /// due inside an outage sends the iteration a poll read before the
    /// outage began — the report let pass in the last poll period before
    /// it excluded (its poll fell inside the outage), one let pass in an
    /// earlier period included.
    #[test]
    fn a_publish_due_in_an_outage_sends_what_a_poll_read_before_it() {
        // Published at once (+3 s), then coalesced until +33 s.
        let early = [(2_000, Step::Report(0)), (3_000, Step::Report(0))];
        for outage_after in [200, 900, 1_200, 2_300] {
            let mut steps = early.to_vec();
            steps.push((26_500, Step::Report(0)));
            steps.push((outage_after, Step::Outage(5_000)));
            assert_eq!(
                diverges(&steps),
                None,
                "an outage {outage_after} ms after the report"
            );
        }
    }
}
