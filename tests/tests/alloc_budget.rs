//! What the control plane allocates per unit of work.
//!
//! A counting global allocator (per-thread counters: the simulation is
//! single-threaded, the test harness is not) measures three figures that
//! the event and message counts of `running_job_cost.rs` cannot see —
//! how much each event *copies*:
//!
//! * allocations and bytes per kernel event on an idle platform (Raft
//!   heartbeats, lease keepalives, probes: addresses, envelopes, log
//!   entries),
//! * bytes per running job-second (the status path, the mirror, the log
//!   collector),
//! * bytes one invariant pass allocates over a few hundred terminal jobs,
//!   which must not depend on how large the job documents are.
//!
//! Every figure is deterministic. Budgets are 1.25 × the measured value;
//! a breach names what started copying again.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dlaas_core::{check_invariants, config, DlaasPlatform, JobStatus, JOBS};
use dlaas_docstore::obj;
use dlaas_integration::{boot, manifest, submit_blocking, KEY};
use dlaas_sim::{Sim, SimDuration};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
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
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let grown = new_size.saturating_sub(layout.size()) as u64;
        let _ = BYTES.try_with(|n| n.set(n.get() + grown));
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

#[test]
fn an_idle_platform_allocates_little_per_event() {
    let (mut sim, platform) = boot(1501);
    sim.run_for(SimDuration::from_secs(60));
    let events_before = sim.events_executed();
    let (allocs, bytes, ()) = counted(|| {
        sim.run_for(SimDuration::from_mins(10));
    });
    let events = (sim.events_executed() - events_before) as f64;
    drop(platform);
    let (allocs, bytes) = (allocs as f64 / events, bytes as f64 / events);
    // Measured 1.29 allocations and 113 bytes per event; with `String`
    // addresses and deep-copied log entries and requests 5.89 and 155.
    assert!(
        allocs <= 1.61,
        "{allocs:.2} allocations per kernel event on an idle platform"
    );
    assert!(
        bytes <= 141.0,
        "{bytes:.0} bytes allocated per kernel event on an idle platform"
    );
}

#[test]
fn a_training_job_allocates_in_proportion_to_what_it_reports() {
    let (mut sim, platform) = boot(1502);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("alloc-cost", 2_000));
    let started = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    assert_eq!(started, Some(JobStatus::Processing), "{job} never started");
    sim.run_for(SimDuration::from_secs(30));

    let window = SimDuration::from_mins(10);
    let (_, bytes, ()) = counted(|| {
        sim.run_for(window);
    });
    assert_eq!(platform.job_status(&job), Some(JobStatus::Processing));
    let per_second = bytes as f64 / window.as_secs_f64();
    // Idle floor included. Measured 18 957 bytes per job-second, most of
    // it the log collector re-sending the whole log object each flush;
    // with a status put per learner report and per-message copies 27 468.
    assert!(
        per_second <= 23_700.0,
        "{per_second:.0} bytes allocated per running job-second"
    );
}

/// Inserts `n` long-terminal job documents, each padded with `padding`
/// bytes, through the metadata client.
fn seed_terminal_jobs(sim: &mut Sim, platform: &DlaasPlatform, n: usize, padding: usize) {
    let meta = platform.handles().meta("alloc-budget");
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
    // Measured 690 bytes per job (ids, label selectors and key prefixes
    // of the leak checks); a pass that clones each document and the etcd
    // store allocated 4.9 KiB per job on the small ones.
    let per_job = small as f64 / JOBS_CHECKED as f64;
    assert!(per_job <= 863.0, "{per_job:.0} bytes per job checked");
}
