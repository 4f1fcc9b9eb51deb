//! Ablation (ROADMAP item 7(a)): Raft's failure-detection timing.
//!
//! A 3-way etcd proves a live leader by heartbeat and notices a dead one
//! by election timeout, and it pays for the first all the time: the
//! keep-alive is about half of an idle platform's kernel events. This
//! sweep runs bare `EtcdCluster` rigs (no platform around them) over
//! heartbeat × election timeout and reports per cell, over five seeds:
//!
//! * idle kernel events per simulated second — the keep-alive's cost;
//! * time without service after a leader crash: from the crash to the
//!   first acknowledgement of a put issued after it (one every 100 ms),
//!   p50 and max over the seeds;
//! * needless elections while peer latency is degraded to 50–250 ms for
//!   60 s (`latency_window`: slow, not dead — every election is a write
//!   outage the live leader did not need), summed over the seeds, and
//!   again at 50–500 ms: the margin a timing has left;
//! * healthy put latency, p50.
//!
//! The row marked `*` is `RaftConfig::default()`, the platform's timing.
//! The rigs override the timing here only; the platform has no knob.
//!
//! Usage: `cargo run -p dlaas-bench --bin ablation_detection [--smoke] [seed]`
//! (`--smoke`: one seed, two cells — the default and the Raft paper's
//! 50 ms / 150–300 ms example).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dlaas_bench::cli;
use dlaas_bench::harness::print_table;
use dlaas_etcd::EtcdCluster;
use dlaas_faults::latency_window;
use dlaas_net::LatencyModel;
use dlaas_raft::RaftConfig;
use dlaas_sim::{Sim, SimDuration, SimTime};

/// Heartbeat periods swept, in ms.
const HEARTBEATS_MS: [u64; 4] = [25, 50, 100, 200];
/// Election-timeout minimum as a multiple of the heartbeat (the maximum
/// is twice the minimum).
const MULTIPLES: [u64; 2] = [3, 10];
const SEEDS: u64 = 5;
/// Healthy puts per trial, one every `PUT_GAP`.
const PUTS: u64 = 20;
const PUT_GAP: SimDuration = SimDuration::from_millis(500);
const IDLE: SimDuration = SimDuration::from_secs(60);
const SLOW: SimDuration = SimDuration::from_secs(60);
/// Upper bounds of the two degraded peer latencies, `Uniform(50 ms, hi)`:
/// the gray failure the platform must ride out, and twice as bad — the
/// margin a timing has left.
const SLOW_MS: [u64; 2] = [250, 500];
/// Put cadence after a leader crash.
const PROBE: SimDuration = SimDuration::from_millis(100);
/// As `EtcdCluster::new_3way`.
const COMPACT_THRESHOLD: usize = 500;

fn timing(heartbeat_ms: u64, multiple: u64) -> RaftConfig {
    let min = SimDuration::from_millis(heartbeat_ms * multiple);
    RaftConfig {
        heartbeat_interval: SimDuration::from_millis(heartbeat_ms),
        election_timeout_min: min,
        election_timeout_max: min * 2,
        compact_threshold: COMPACT_THRESHOLD,
    }
}

fn elections(etcd: &EtcdCluster) -> u64 {
    etcd.raft()
        .nodes()
        .iter()
        .map(dlaas_raft::Raft::elections_started)
        .sum()
}

/// What one seed of one cell measured.
struct Trial {
    idle_events_per_s: f64,
    crash_down: SimDuration,
    /// Per `SLOW_MS` window.
    needless_elections: [u64; 2],
    put_latencies: Vec<SimDuration>,
}

fn run_trial(seed: u64, cfg: RaftConfig) -> Trial {
    let mut sim = Sim::new(seed);
    let dc = LatencyModel::datacenter();
    let etcd = EtcdCluster::new(&mut sim, 3, cfg, dc.clone(), dc);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(30));
    sim.run_for(SimDuration::from_secs(1));
    let client = etcd.client("probe");

    // Healthy writes.
    let put_latencies = Rc::new(RefCell::new(Vec::new()));
    for i in 0..PUTS {
        let (sent, lat) = (sim.now(), put_latencies.clone());
        client.put(&mut sim, "k", i.to_string(), move |sim, r| {
            if r.is_ok() {
                lat.borrow_mut().push(sim.now() - sent);
            }
        });
        sim.run_for(PUT_GAP);
    }

    // The keep-alive alone.
    let before = sim.events_executed();
    sim.run_for(IDLE);
    let idle_events_per_s = (sim.events_executed() - before) as f64 / IDLE.as_secs_f64();

    // Slow peers, live leader.
    let needless_elections = SLOW_MS.map(|hi_ms| {
        let before = elections(&etcd);
        latency_window(
            &mut sim,
            etcd.raft().net(),
            LatencyModel::Uniform(
                SimDuration::from_millis(50),
                SimDuration::from_millis(hi_ms),
            ),
            SLOW,
        );
        sim.run_for(SLOW);
        let needless = elections(&etcd) - before;
        etcd.expect_leader(&mut sim, SimDuration::from_secs(30));
        sim.run_for(SimDuration::from_secs(5));
        needless
    });

    // A dead leader.
    let leader = etcd.leader_id().expect("a settled leader");
    etcd.crash(&mut sim, leader);
    let crashed_at = sim.now();
    let first_ack: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
    while first_ack.get().is_none() {
        assert!(
            sim.now() < crashed_at + SimDuration::from_secs(60),
            "seed {seed}: writes never resumed after the leader crash"
        );
        let f = first_ack.clone();
        client.put(&mut sim, "k", "after", move |sim, r| {
            if r.is_ok() && f.get().is_none() {
                f.set(Some(sim.now()));
            }
        });
        sim.run_for(PROBE);
    }
    let crash_down = first_ack.get().expect("loop exit") - crashed_at;
    let put_latencies = put_latencies.take();
    Trial {
        idle_events_per_s,
        crash_down,
        needless_elections,
        put_latencies,
    }
}

/// The median of `v` (upper median for an even count).
fn p50(mut v: Vec<SimDuration>) -> SimDuration {
    v.sort();
    v[v.len() / 2]
}

const USAGE: &str = "usage: ablation_detection [--smoke] [seed]";

fn main() {
    let (smoke, seed): (bool, u64) = cli::parse_or_exit(USAGE, |a| {
        Ok((a.switch("--smoke"), a.positional("seed")?.unwrap_or(2018)))
    });
    let (seeds, cells): (u64, Vec<(u64, u64)>) = if smoke {
        (1, vec![(50, 3), (100, 10)])
    } else {
        (
            SEEDS,
            HEARTBEATS_MS
                .iter()
                .flat_map(|hb| MULTIPLES.iter().map(move |m| (*hb, *m)))
                .collect(),
        )
    };
    eprintln!(
        "sweeping raft heartbeat × election timeout on bare 3-way etcd rigs ({seeds} seeds from {seed})…"
    );
    let platform = RaftConfig {
        compact_threshold: COMPACT_THRESHOLD,
        ..RaftConfig::default()
    };
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|&(hb, multiple)| {
            let cfg = timing(hb, multiple);
            let marker = if cfg == platform { " *" } else { "" };
            let trials: Vec<Trial> = (seed..seed + seeds)
                .map(|s| run_trial(s, cfg.clone()))
                .collect();
            let idle = trials.iter().map(|t| t.idle_events_per_s).sum::<f64>() / seeds as f64;
            let downs: Vec<SimDuration> = trials.iter().map(|t| t.crash_down).collect();
            let down_max = downs.iter().max().copied().expect("one seed at least");
            let needless: [u64; 2] =
                std::array::from_fn(|w| trials.iter().map(|t| t.needless_elections[w]).sum());
            let puts: Vec<SimDuration> = trials
                .iter()
                .flat_map(|t| t.put_latencies.iter().copied())
                .collect();
            vec![
                format!("{hb} ms{marker}"),
                format!(
                    "{}–{} ms",
                    cfg.election_timeout_min.as_millis(),
                    cfg.election_timeout_max.as_millis()
                ),
                format!("{idle:.1}"),
                format!("{:.2} s", p50(downs).as_secs_f64()),
                format!("{:.2} s", down_max.as_secs_f64()),
                needless[0].to_string(),
                needless[1].to_string(),
                format!("{:.2} ms", p50(puts).as_secs_f64() * 1e3),
            ]
        })
        .collect();
    print_table(
        "Ablation — Raft failure-detection timing (bare 3-way etcd)",
        &[
            "heartbeat",
            "election timeout",
            "idle events/sim-s",
            "crash outage p50",
            "max",
            "needless elections, peers 50-250 ms",
            "50-500 ms",
            "put p50",
        ],
        &rows,
    );
    println!(
        "\n* RaftConfig::default(), the platform's timing (etcd's own: 100 ms heartbeat,\n\
         1 s election timeout randomized up to 2 s). crash outage: leader crash to the\n\
         first acknowledged put issued after it. needless elections: summed over {seeds}\n\
         seed(s) of 60 s with every peer link slow but alive."
    );
}
