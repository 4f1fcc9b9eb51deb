//! What the control plane allocates per unit of work.
//!
//! A counting global allocator (per-thread counters: the simulation is
//! single-threaded, the test harness is not) measures three figures that
//! the event and message counts of `running_job_cost.rs` cannot see —
//! how much each event *copies*:
//!
//! * allocations and bytes per second of an idle platform (Raft
//!   heartbeats, lease keepalives, probes: addresses, envelopes, log
//!   entries),
//! * bytes per running job-second (the status path, the mirror, the log
//!   collector),
//! * bytes one invariant pass allocates over a few hundred terminal jobs,
//!   which must not depend on how large the job documents are — nor, for
//!   a checker that saw them before, on how many there are,
//! * what single periodic events allocate: a log flush (nothing that
//!   grows with the log) — and which helper events fire at all between
//!   two learner reports (none that finds nothing to do),
//! * what a *finished* job leaves allocated for good — its document, its
//!   journal records, its logs, its share of every log and ring — which
//!   is what a soak's memory grows by, and must not itself grow,
//! * what a dropped world leaves allocated: nothing of its platform,
//! * what the event queue keeps once a burst has drained: the capacity
//!   of the largest burst, not of every burst it ever held,
//! * what a timeline mark allocates: nothing on a disabled trace, and
//!   nothing on an enabled one whose ring is full and whose subject it
//!   has seen,
//! * what the metadata path pays for what did not change: an update of a
//!   document no reader holds copies none of it, a checker pass over
//!   unchanged jobs reads no document, an LCM scan over an empty change
//!   feed allocates nothing.
//!
//! Every figure is deterministic. Budgets are 1.25 × the measured value;
//! a breach names what started copying again.

#![expect(
    unsafe_code,
    reason = "the workspace's one unsafe item: a counting `GlobalAlloc` that forwards every call to `System` unchanged (SAFETY comments at the impl) — there is no safe way to observe allocations"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dlaas_core::invariants::InvariantChecker;
use dlaas_core::{
    check_invariants, config, DlaasPlatform, InvariantBounds, InvariantMonitor, JobStatus,
    MetaClient, JOBS,
};
use dlaas_docstore::obj;
use dlaas_integration::{boot, manifest, start_training, submit_blocking, KEY};
use dlaas_sim::{Sim, SimDuration, SimTime};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed (by this thread: the simulation
    /// allocates and frees on the thread that runs it).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised
// thread-locals with no destructor, so touching them allocates nothing
// and `try_with` tolerates a thread that is tearing down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        let _ = LIVE.try_with(|n| n.set(n.get() + layout.size() as i64));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let grown = new_size.saturating_sub(layout.size()) as u64;
        let _ = BYTES.try_with(|n| n.set(n.get() + grown));
        let _ = LIVE.try_with(|n| n.set(n.get() + new_size as i64 - layout.size() as i64));
        // SAFETY: same block, same layout, as handed to us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` this thread requested while `f` ran.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let before = (ALLOCS.get(), BYTES.get());
    let r = f();
    (ALLOCS.get() - before.0, BYTES.get() - before.1, r)
}

/// What one kernel event did: allocations, bytes allocated, NFS reads.
struct StepCost {
    allocs: u64,
    bytes: u64,
    nfs_reads: u64,
}

/// Runs the next event alone under the counters.
fn step(sim: &mut Sim, platform: &DlaasPlatform) -> StepCost {
    let reads = platform.nfs().stats().reads;
    let (allocs, bytes, ran) = counted(|| sim.step());
    assert!(ran, "the simulation ran dry");
    StepCost {
        allocs,
        bytes,
        nfs_reads: platform.nfs().stats().reads - reads,
    }
}

#[test]
fn a_mark_allocates_nothing_once_its_subject_is_known() {
    const MARKS: u64 = 10_000;
    let mut sim = Sim::new(1508);
    let mark_all = |sim: &mut Sim| {
        for n in 0..MARKS {
            sim.mark("guardian", "job-7", "deploy-attempt", n);
            sim.mark("raft", (n % 3) as u32, "leader", n);
        }
    };
    // Disabled (as every `Sim` starts): one branch, no buffer.
    let (allocs, bytes, ()) = counted(|| mark_all(&mut sim));
    assert_eq!((allocs, bytes), (0, 0), "marks on a disabled trace");
    assert_eq!(sim.trace().of("job-7").marks().count(), 0);

    // Enabled: the ring grows to its constant size and the subject's
    // name is interned once; from there a mark overwrites the oldest.
    sim.trace_mut().set_enabled(true);
    const { assert!(2 * MARKS as usize > dlaas_sim::TRACE_RING) };
    mark_all(&mut sim);
    let (allocs, bytes, ()) = counted(|| mark_all(&mut sim));
    assert_eq!((allocs, bytes), (0, 0), "marks on a full ring");
    let held = sim.trace().of("job-7").marks().count() + sim.trace().of(0).marks().count();
    assert!(held < dlaas_sim::TRACE_RING, "{held} marks of two subjects");
}

#[test]
fn drained_bursts_leave_the_event_queue_the_size_of_one() {
    const BURSTS: u64 = 4_096;
    const BURST: u64 = 64;
    let mut sim = Sim::new(1511);
    let before = LIVE.get();
    for ms in 1..=BURSTS {
        for _ in 0..BURST {
            sim.schedule_at(SimTime::from_millis(ms), |_| {});
        }
        assert_eq!(sim.run_until_idle(), BURST);
    }
    let retained = LIVE.get() - before;
    // Measured 2 080 bytes: one burst of 32-byte queue entries and the
    // live-id window. A calendar ring of one-millisecond slots that each
    // kept the capacity of the burst it last held retained 14 339 616.
    assert!(
        retained <= 2_600,
        "{retained} bytes retained by {BURSTS} drained bursts of {BURST} events"
    );
}

#[test]
fn an_idle_platform_allocates_little_per_second() {
    let (mut sim, platform) = boot(1501);
    sim.run_for(SimDuration::from_secs(60));
    let window = SimDuration::from_mins(10);
    let (allocs, bytes, ()) = counted(|| {
        sim.run_for(window);
    });
    drop(platform);
    let secs = window.as_secs_f64();
    let (allocs, bytes) = (allocs as f64 / secs, bytes as f64 / secs);
    // Per idle second, not per event: settling keep-alives removes the
    // cheapest events, so what is left costs more each. Measured 15.2
    // allocations and 986 bytes a second. A settled heartbeat round that
    // collected its due peers and its replies into two vectors, ten
    // rounds a second, cost 34.5 and 1 419; with every keep-alive
    // delivered as messages 80.7 and 7 664 (1.45 allocations and 138
    // bytes per event); with `String` addresses and deep-copied log
    // entries and requests 5.89 allocations and 155 bytes per event.
    assert!(
        allocs <= 19.1,
        "{allocs:.1} allocations per second on an idle platform"
    );
    assert!(
        bytes <= 1_220.0,
        "{bytes:.0} bytes allocated per second on an idle platform"
    );
}

#[test]
fn a_training_job_allocates_in_proportion_to_what_it_reports() {
    let (mut sim, platform) = boot(1502);
    let job = start_training(&mut sim, &platform, "alloc-cost", 2_000);
    sim.run_for(SimDuration::from_secs(30));

    let window = SimDuration::from_mins(10);
    let (_, bytes, ()) = counted(|| {
        sim.run_for(window);
    });
    assert_eq!(platform.job_status(&job), Some(JobStatus::Processing));
    let per_second = bytes as f64 / window.as_secs_f64();
    // Idle floor included. Measured 1 311 bytes per job-second; 1 443
    // with the log held twice (the volume's line strings and the
    // collector's copy), a string built per report and a timer boxed
    // anew per tick; with the log collector copying the whole log object
    // each flush 18 957, with a status put per learner report and
    // per-message copies 27 468.
    assert!(
        per_second <= 1_639.0,
        "{per_second:.0} bytes allocated per running job-second"
    );
}

#[test]
fn a_log_flush_allocates_for_its_new_lines_not_for_the_log() {
    let (mut sim, platform) = boot(1504);
    // ~0.7 iterations and half a log line a second: training outlasts
    // the 1 000 lines this test waits for.
    let job = start_training(&mut sim, &platform, "flush-cost", 5_000);

    // While a single learner trains, the one event that performs exactly
    // one NFS read is a collector flush that found new lines (the
    // controller's reading tick performs two). The median of five
    // flushes: a flush that copied its lines would pay the text buffer's
    // occasional doubling, which is not the point.
    let flush_bytes = |sim: &mut Sim| {
        let mut costs: Vec<u64> = Vec::new();
        while costs.len() < 5 {
            let cost = step(sim, &platform);
            if cost.nfs_reads == 1 {
                costs.push(cost.bytes);
            }
        }
        costs.sort_unstable();
        costs[2]
    };
    sim.run_for(SimDuration::from_secs(20));
    let early = flush_bytes(&mut sim);
    sim.run_for(SimDuration::from_secs(2_000));
    let late = flush_bytes(&mut sim);
    assert_eq!(platform.job_status(&job), Some(JobStatus::Processing));
    let lines = platform
        .objstore()
        .read_text("itest-results", &dlaas_core::paths::obj_log(&job, 0))
        .expect("log object")
        .lines()
        .count();
    assert!(lines >= 1_000, "only {lines} lines shipped");
    // Measured 88 bytes either way (the put's closure and its transfer
    // event); 160 while the flush timer was boxed anew for every tick;
    // with the bucket and key cloned for every put and the object record
    // inserted anew 230; a flush that copies the body allocated 1 147
    // bytes with ten lines shipped and 46.6 kB with a thousand.
    assert!(
        late <= early + early / 4,
        "a flush allocated {early} bytes early on and {late} bytes {lines} lines in: \
         it copies the log"
    );
    assert!(late <= 110, "{late} bytes per log flush");
}

/// A step that ran no event but a round in place (a Raft leader's
/// settled heartbeat tick): no site is charged.
const IN_PLACE: &str = "(a round run in place)";

/// The site that scheduled the event [`step`] is about to run, read off
/// the kernel's site profile (which must be on), and what it cost.
fn step_at_site(sim: &mut Sim, platform: &DlaasPlatform) -> (&'static str, StepCost) {
    let (before, rounds) = (sim.site_costs(), sim.rounds_in_place());
    let cost = step(sim, platform);
    let site = sim
        .site_costs()
        .into_iter()
        .find(|(site, now)| {
            let was = before.iter().find(|(s, _)| s == site);
            was.is_none_or(|(_, was)| was.events < now.events)
        })
        .map(|(site, _)| site);
    match site {
        Some(site) => (site, cost),
        None => {
            assert_eq!(
                sim.rounds_in_place(),
                rounds + 1,
                "the event counted against its site"
            );
            (IN_PLACE, cost)
        }
    }
}

/// Whether `site` is a closure of the helper pod's own (its containers
/// schedule their ticks, waits and flushes in `helper.rs`; a timer or
/// repeating loop names the closure it runs).
fn helper_container(site: &str) -> bool {
    let site = ["dlaas_sim::kernel::tick<", "dlaas_sim::timer::arm<"]
        .iter()
        .find_map(|wrapper| site.strip_prefix(wrapper))
        .unwrap_or(site);
    site.starts_with("dlaas_core::helper::")
}

#[test]
fn between_two_learner_reports_the_helper_pod_only_reads_them() {
    let (mut sim, platform) = boot(1505);
    // On before the warm-up: the first event of a site inserts into the
    // kernel's site map, which must not land in a measured step.
    sim.profile_sites();
    let job = start_training(&mut sim, &platform, "tick-cost", 2_000);
    sim.run_for(SimDuration::from_secs(30));

    // The helper events between consecutive learner reports (each a
    // status write and a log line), over two of the controller's
    // coalescing windows.
    let window = (config::GUARDIAN_POLL.as_micros() / config::LEARNER_REPORT.as_micros()) as usize;
    let mut intervals: Vec<Vec<(&'static str, u64)>> = Vec::new();
    let mut current = None;
    while intervals.len() < 2 * window {
        let (site, cost) = step_at_site(&mut sim, &platform);
        if site.starts_with("dlaas_core::learner::Learner::tick") {
            intervals.extend(current.replace(Vec::new()));
        } else if let Some(events) = current.as_mut().filter(|_| helper_container(site)) {
            events.push((site, cost.nfs_reads));
        }
    }
    // Inside a publish window only the collector's flush runs, shipping
    // the new line: a report that moves nothing but the iteration, while
    // its publish is held back, wakes no controller, and the log line
    // never does. Nor does a store-results poll run for a "go" nobody
    // wrote. The controller ticks only for the publish that falls due,
    // once per window: at its due instant and once more while its put is
    // in flight, reading the two files it relays (restart counter and
    // status). (Woken by every write, the controller read them between
    // every two reports; polling, the helper ran five events per report,
    // three of them reading nothing.)
    let mut publishing = 0;
    for events in &intervals {
        let (flushes, others): (Vec<_>, Vec<_>) = events
            .iter()
            .partition(|(site, _)| site.contains("log_collector_behavior"));
        assert!(
            flushes.len() <= 1 && flushes.iter().all(|(_, reads)| *reads <= 1),
            "log flushes between two reports: {flushes:?}"
        );
        assert!(
            others
                .iter()
                .all(|(site, reads)| site.contains("Controller") && *reads <= 2),
            "helper events between two learner reports other than the log flush: {others:?}"
        );
        publishing += usize::from(!others.is_empty());
    }
    assert!(
        publishing <= 2 * 2,
        "the controller ran between {publishing} of {} pairs of reports",
        intervals.len()
    );
    assert_eq!(platform.job_status(&job), Some(JobStatus::Processing));
}

/// Inserts `n` long-terminal job documents, each padded with `padding`
/// bytes, through the metadata client.
fn seed_terminal_jobs(sim: &mut Sim, platform: &DlaasPlatform, n: usize, padding: usize) {
    let meta = MetaClient::new(platform.handles().mongo.clone(), "alloc-budget");
    for i in 0..n {
        let doc = obj! {
            "_id" => format!("done-{i:04}"),
            "tenant" => "itest",
            "status" => "COMPLETED",
            "history" => vec![
                obj! {"status" => "PENDING", "t_us" => 1},
                obj! {"status" => "DEPLOYING", "t_us" => 2},
                obj! {"status" => "PROCESSING", "t_us" => 3},
                obj! {"status" => "STORING", "t_us" => 4},
                obj! {"status" => "COMPLETED", "t_us" => 5},
            ],
            "manifest" => "x".repeat(padding),
            "gpus" => 1,
            "attempts" => 1,
            "submitted_us" => 1,
            "admitted_us" => 1,
        };
        meta.insert(sim, JOBS, doc, |_sim, r| {
            r.expect("insert accepted");
        });
    }
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(platform.job_documents().len(), n);
}

#[test]
fn an_invariant_pass_does_not_copy_the_documents_it_checks() {
    const JOBS_CHECKED: usize = 240;
    let pass_bytes = |padding: usize| {
        let (mut sim, platform) = boot(1503);
        seed_terminal_jobs(&mut sim, &platform, JOBS_CHECKED, padding);
        // Past the GC grace period, so every job takes the leak checks.
        sim.run_for(config::LCM_SCAN * 4);
        let (_, bytes, report) = counted(|| check_invariants(&sim, &platform));
        assert_eq!(report.jobs_checked, JOBS_CHECKED);
        report.assert_clean();
        bytes
    };
    let small = pass_bytes(64);
    let large = pass_bytes(16 * 1024);
    assert!(
        large <= small + small / 20,
        "a pass over {JOBS_CHECKED} jobs allocated {small} bytes with 64-byte manifests \
         and {large} with 16 KiB ones: it copies the documents"
    );
    // Measured 436 bytes per job: the summary a checker that has seen
    // nothing yet builds of each document, and the list it gathers the
    // newcomers in. Four resource scans per finished job (ids, label
    // selectors, key prefixes) made it 690; a pass that clones each
    // document and the etcd store 4.9 KiB.
    let per_job = small as f64 / JOBS_CHECKED as f64;
    assert!(per_job <= 545.0, "{per_job:.0} bytes per job checked");
}

#[test]
fn a_warm_invariant_pass_costs_the_same_for_50_and_500_finished_jobs() {
    let period = SimDuration::from_secs(60);
    let pass_cost = |jobs: usize| {
        let (mut sim, platform) = boot(1506);
        seed_terminal_jobs(&mut sim, &platform, jobs, 64);
        // Past the GC grace period, so every job takes the leak checks.
        sim.run_for(config::LCM_SCAN * 4);
        let bounds = InvariantBounds::from_config(&platform.handles().config);
        let installed = sim.now();
        let monitor = InvariantMonitor::install_with(&mut sim, &platform, period, bounds);
        // The first pass meets every document; the third is measured.
        let third = installed + period * 3;
        sim.run_until(third - SimDuration::from_micros(1));
        let (mut allocs, mut bytes) = (0, 0);
        while sim.peek_time() == Some(third) {
            let cost = step(&mut sim, &platform);
            allocs += cost.allocs;
            bytes += cost.bytes;
        }
        assert_eq!(monitor.violations_seen(), 0);
        (allocs, bytes)
    };
    let (allocs_50, bytes_50) = pass_cost(50);
    let (allocs_500, bytes_500) = pass_cost(500);
    // Measured 11 allocations and 1 332 bytes at both sizes; a pass that
    // re-derives everything made 620 / 36.9 kB and 6 020 / 343 kB.
    assert!(
        allocs_500 <= allocs_50 + 4 && bytes_500 <= bytes_50 + 512,
        "a pass over 50 finished jobs made {allocs_50} allocations ({bytes_50} bytes), \
         over 500 {allocs_500} ({bytes_500} bytes): it re-derives what did not change"
    );
}

#[test]
fn a_checker_pass_over_an_unchanged_store_reads_no_document_at_any_size() {
    let bounds =
        |platform: &DlaasPlatform| InvariantBounds::from_config(&platform.handles().config);
    let warm_pass = |jobs: usize| {
        let (mut sim, platform) = boot(1509);
        seed_terminal_jobs(&mut sim, &platform, jobs, 64);
        sim.run_for(config::LCM_SCAN * 4);
        let mut checker = InvariantChecker::default();
        let first = checker.check(&sim, &platform, &bounds(&platform));
        assert_eq!((first.jobs_checked, first.docs_read), (jobs, jobs));
        // A minute on, the platform has written no job document.
        sim.run_for(SimDuration::from_secs(60));
        let (allocs, bytes, report) =
            counted(|| checker.check(&sim, &platform, &bounds(&platform)));
        report.assert_clean();
        assert_eq!(report.jobs_checked, jobs);
        assert_eq!(
            report.docs_read, 0,
            "a pass over {jobs} unchanged jobs read documents"
        );
        (allocs, bytes)
    };
    let (allocs_50, bytes_50) = warm_pass(50);
    let (allocs_500, bytes_500) = warm_pass(500);
    // Measured 6 allocations and 668 bytes at both sizes: the resource
    // walks' scratch, nothing per job. A checker that walks every
    // document compares 500 pointers to find that nothing changed.
    assert_eq!(
        (allocs_500, bytes_500),
        (allocs_50, bytes_50),
        "a pass over 500 unchanged jobs cost other than one over 50"
    );
    assert!(
        allocs_50 <= 7 && bytes_50 <= 835,
        "{allocs_50} allocations ({bytes_50} bytes) in a pass over nothing new"
    );
}

#[test]
fn an_update_by_id_of_a_document_no_reader_holds_copies_nothing() {
    use dlaas_docstore::{DocStore, Filter, Update};
    // The first status write a job document takes, as the Guardian sends
    // it, into a store holding the document as the API inserted it (the
    // journal keeps an image of its own).
    let update_cost = |padding: usize| {
        let mut db = DocStore::new();
        db.create_index(JOBS, "status");
        let doc = obj! {
            "_id" => "job-1",
            "tenant" => "itest",
            "status" => "PENDING",
            "history" => vec![obj! {"status" => "PENDING", "t_us" => 1}],
            "manifest" => "x".repeat(padding),
            "attempts" => 0,
        };
        db.insert(JOBS, doc).expect("fresh id");
        let by_id = Filter::eq("_id", "job-1");
        let deploying = Update::Many(vec![
            Update::set("status", "DEPLOYING"),
            Update::push("history", obj! {"status" => "DEPLOYING", "t_us" => 2}),
        ]);
        let (allocs, bytes, applied) = counted(|| db.update_one(JOBS, &by_id, &deploying));
        assert!(applied);
        (allocs, bytes)
    };
    let small = update_cost(64);
    let large = update_cost(16 * 1024);
    // Measured 22 allocations and 1 027 bytes at both sizes: the candidate
    // list, the pushed entry, the new status's index key and posting
    // list, the journal's copy of the update (index keys written as JSON
    // per edit cost 25 allocations and 1 059 bytes). Sharing the document
    // with the journal's insert record made the first update copy all of
    // it: 16 KiB more with a 16 KiB manifest.
    assert_eq!(
        large, small,
        "an update of a 16 KiB document cost other than one of a small one: it copies the document"
    );
    assert!(
        small.0 <= 24 && small.1 <= 1_214,
        "{} allocations ({} bytes) for one update",
        small.0,
        small.1
    );
}

#[test]
fn an_lcm_scan_over_an_empty_change_feed_allocates_nothing() {
    let (mut sim, platform) = boot(1510);
    // On before the warm-up: the first event of a site inserts into the
    // kernel's site map (and may split a node of it), which must not land
    // in a measured scan.
    sim.profile_sites();
    seed_terminal_jobs(&mut sim, &platform, 20, 64);
    // Long enough for the sweep to confirm every finished job collected,
    // so nothing is left on the watchlist and no document changes.
    sim.run_for(config::LCM_SCAN * 6);
    // The scan's second reply — the tenants feed — runs the sweep and the
    // admission arbiter over what the (empty) jobs feed left. The reply
    // event is charged to the continuation it runs.
    let mut scans = Vec::new();
    let deadline = sim.now() + config::LCM_SCAN * 4;
    while scans.len() < 3 {
        assert!(sim.now() < deadline, "no LCM scan ran");
        let (site, cost) = step_at_site(&mut sim, &platform);
        if site.contains("lcm::scan::{{closure}}::{{closure}}") {
            scans.push((cost.allocs, cost.bytes));
        }
    }
    // A sweep that copies its pending and terminal lists, or an arbiter
    // that copies the tenant registry, allocates here every scan.
    assert_eq!(
        scans,
        [(0, 0); 3],
        "an LCM scan over an empty change feed allocated"
    );
}

#[test]
fn a_finished_job_leaves_a_bounded_residue_that_does_not_grow() {
    const WAVE: usize = 100;
    let (mut sim, platform) = boot(1507);
    let client = platform.client("itest", KEY);
    // Live bytes once `WAVE` more short jobs have run to completion and
    // been garbage-collected: nothing of them is left but what is kept
    // for good. Eight at a time, which is what the cluster's K80s run at
    // once: a hundred pods pending together would measure the kernel's
    // event queue growing once to hold their scheduler kicks.
    let mut finished = 0;
    let mut live_after_wave = |sim: &mut Sim| {
        let deadline = sim.now() + SimDuration::from_hours(6);
        for round in (0..WAVE).step_by(8) {
            let jobs: Vec<_> = (round..WAVE.min(round + 8))
                .map(|i| format!("r{}", finished + i))
                .map(|name| submit_blocking(sim, &client, manifest(&name, 12)))
                .collect();
            while jobs
                .iter()
                .any(|j| platform.job_status(j) != Some(JobStatus::Completed))
            {
                assert!(sim.now() < deadline, "{} did not finish", jobs[0]);
                sim.run_for(SimDuration::from_secs(10));
            }
        }
        finished += WAVE;
        sim.run_for(config::LCM_SCAN * 6);
        LIVE.get()
    };
    let after_100 = live_after_wave(&mut sim);
    let after_200 = live_after_wave(&mut sim);
    let after_300 = live_after_wave(&mut sim);
    check_invariants(&sim, &platform).assert_clean();

    let second = (after_200 - after_100) as f64 / WAVE as f64;
    let third = (after_300 - after_200) as f64 / WAVE as f64;
    let per_job = (second + third) / 2.0;
    // Measured 3 981 bytes per finished job: its document, its place in
    // the metadata journal's checkpoint and change feed, its logs at
    // their length, its share of the Raft logs and the like (vectors
    // that double, so a hundred jobs' share of them wanders). With a
    // journal that kept every record since boot and logs that kept their
    // room for growth it was 8 277; with one that kept an after-image of
    // every update, `BTreeMap` objects and an unbounded kube event list,
    // 60 008.
    assert!(
        per_job <= 4_976.0,
        "{per_job:.0} bytes retained per finished job"
    );
    assert!(
        third <= 1.10 * second,
        "a finished job retained {second:.0} bytes among jobs 100..200 and {third:.0} among \
         200..300: the residue grows"
    );
}

#[test]
fn a_dropped_world_frees_its_platform() {
    // One world first: what a thread keeps for good the first time a
    // platform runs on it (interned names, lazily built tables) is not
    // what a world leaks.
    let world = |seed: u64| {
        let (mut sim, platform) = boot(seed);
        let client = platform.client("itest", KEY);
        let done = submit_blocking(&mut sim, &client, manifest("done", 12));
        let deadline = sim.now() + SimDuration::from_hours(1);
        while platform.job_status(&done) != Some(JobStatus::Completed) {
            assert!(sim.now() < deadline, "{done} did not finish");
            sim.run_for(SimDuration::from_secs(10));
        }
        start_training(&mut sim, &platform, "training", 2_000);
        sim.run_for(SimDuration::from_secs(30));
        (sim, platform)
    };
    drop(world(1512));

    let before = LIVE.get();
    let (sim, platform) = world(1513);
    assert!(LIVE.get() > before);
    drop((sim, platform));
    let retained = LIVE.get() - before;
    // Nothing: the world's end stops every pod's processes and drops the
    // handlers the substrates hold, which is where the platform's `Rc`
    // cycles close. Before that hook, 103 742 bytes stayed behind.
    assert_eq!(retained, 0, "{retained} bytes retained by a dropped world");
}

#[test]
fn a_dropped_world_frees_a_bare_etcd_cluster() {
    // A rig with no platform over it: the cluster's three networks
    // (client RPC, watch, Raft peers) are all that close its cycles.
    let world = |seed: u64| {
        let mut sim = Sim::new(seed);
        let etcd = dlaas_etcd::EtcdCluster::new_3way(&mut sim);
        etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
        let client = etcd.client("rig");
        for i in 0..8 {
            client.put(&mut sim, format!("k{i}"), "v", |_sim, r| {
                r.expect("put accepted");
            });
        }
        sim.run_for(SimDuration::from_secs(2));
        (sim, etcd)
    };
    drop(world(1514));

    let before = LIVE.get();
    let (sim, etcd) = world(1515);
    assert!(LIVE.get() > before);
    drop((sim, etcd));
    let retained = LIVE.get() - before;
    assert_eq!(
        retained, 0,
        "{retained} bytes retained by a dropped etcd rig"
    );
}
