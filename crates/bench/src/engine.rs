//! Engine throughput bench: raw discrete-event kernel speed in events
//! per wall-second, the quantity every ROADMAP scale item is gated on.
//!
//! One workload, `kernel_churn` — the kernel alone: a population of
//! self-rescheduling actors whose delays span sub-millisecond and
//! multi-second ranges, plus a defer and a schedule-then-cancel per
//! firing so skipping cancelled entries is on the measured path. (The
//! full control plane is measured by the `uniform` preset of
//! [`crate::soak`], gated on its wall seconds.)
//!
//! It reports host wall time via the feature-gated
//! [`dlaas_obs::wallclock::WallTimer`], so `BENCH_engine.json` is a
//! *wall-derived* artifact: it is NOT byte-stable across runs and must
//! never enter a byte-comparison gate. CI instead compares it against a
//! committed baseline with a relative tolerance
//! ([`check_against_baseline`], [`TOLERANCE`]).

use std::fmt::Write as _;

use dlaas_docstore::Value;
use dlaas_obs::wallclock::WallTimer;
use dlaas_sim::{Sim, SimDuration, SimTime};

/// One measured workload: how many kernel events ran and how long the
/// host took to run them.
#[derive(Debug)]
pub struct EngineRun {
    /// Workload name, stable across runs — baseline matching keys on it.
    pub name: String,
    /// Kernel events executed during the measured region.
    pub events: u64,
    /// Simulated seconds covered by the measured region.
    pub sim_secs: f64,
    /// Host wall seconds for the measured region.
    pub wall_secs: f64,
}

impl EngineRun {
    /// The headline rate: kernel events executed per host wall-second.
    pub fn events_per_wall_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Pure-kernel churn: `actors` self-rescheduling closures run until
/// `target_events` kernel events have executed. Every firing defers one
/// no-op (same-instant path), schedules-then-cancels one event (a dead
/// entry the queue skips at its instant), and reschedules itself with a
/// bimodal delay — 90% sub-millisecond and 10% multi-second — so about
/// ten thousand entries stay pending, far more than the platform holds.
pub fn kernel_churn(seed: u64, actors: u64, target_events: u64) -> EngineRun {
    fn fire(sim: &mut Sim) {
        sim.defer(|_| {});
        let id = sim.schedule_in(SimDuration::from_millis(5), |_| {});
        sim.cancel(id);
        let delay_us = if sim.rng().chance(0.9) {
            sim.rng().range_u64(1, 1_000)
        } else {
            sim.rng().range_u64(1_000_000, 30_000_000)
        };
        sim.schedule_in(SimDuration::from_micros(delay_us), fire);
    }

    let mut sim = Sim::new(seed);
    for i in 0..actors {
        sim.schedule_in(SimDuration::from_micros(i), fire);
    }
    let wall = WallTimer::start();
    sim.run_until_pred(|s| s.events_executed() >= target_events);
    let wall_secs = wall.elapsed_secs();
    EngineRun {
        name: "kernel_churn".into(),
        events: sim.events_executed(),
        sim_secs: sim
            .now()
            .saturating_duration_since(SimTime::ZERO)
            .as_secs_f64(),
        wall_secs,
    }
}

/// Hand-rolled JSON with fixed key order. Unlike the other BENCH
/// artifacts this one embeds wall-clock readings, so it is byte-stable
/// only in structure — compare it with [`check_against_baseline`], never
/// with `cmp`.
pub fn render_json(seed: u64, runs: &[EngineRun]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    write!(
        out,
        "  \"bench\": \"engine\",\n  \"seed\": {seed},\n  \"workloads\": [\n"
    )
    .unwrap();
    for (i, r) in runs.iter().enumerate() {
        let mut line = String::new();
        write!(
            line,
            "    {{\"name\": \"{}\", \"events\": {}, \"sim_secs\": {:.6}, \"wall_secs\": {:.6}, \"events_per_wall_sec\": {:.1}}}",
            r.name,
            r.events,
            r.sim_secs,
            r.wall_secs,
            r.events_per_wall_sec()
        )
        .unwrap();
        out.push_str(&line);
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// How far below the baseline's rate a workload may run (fractional).
pub const TOLERANCE: f64 = 0.10;

/// Compares a fresh `BENCH_engine.json` against a committed baseline.
///
/// For every workload in the baseline, the current run must contain the
/// same workload name and its `events_per_wall_sec` must be no more than
/// [`TOLERANCE`] below the baseline's — a
/// workload here runs a fixed number of events, so its rate is its
/// speed. Returns per-workload report lines on success, or the list of
/// violations on failure. Malformed JSON on either side is a violation —
/// the gate must not pass by failing to parse.
pub fn check_against_baseline(
    current_json: &str,
    baseline_json: &str,
) -> Result<Vec<String>, Vec<String>> {
    /// `(name, events per wall-second)` per workload.
    fn rates(json: &str, which: &str) -> Result<Vec<(String, f64)>, String> {
        let v = Value::parse_json(json).map_err(|e| format!("{which}: unparseable JSON: {e:?}"))?;
        let workloads = v
            .path("workloads")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{which}: missing \"workloads\" array"))?;
        let mut out = Vec::new();
        for w in workloads {
            let name = w
                .path("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{which}: workload missing \"name\""))?;
            let rate = w
                .path("events_per_wall_sec")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{which}: {name} missing \"events_per_wall_sec\""))?;
            out.push((name.to_string(), rate));
        }
        Ok(out)
    }

    let base = match rates(baseline_json, "baseline") {
        Ok(b) => b,
        Err(e) => return Err(vec![e]),
    };
    let cur = match rates(current_json, "current") {
        Ok(c) => c,
        Err(e) => return Err(vec![e]),
    };
    if base.is_empty() {
        return Err(vec!["baseline: no workloads to compare".into()]);
    }

    let mut report = Vec::new();
    let mut violations = Vec::new();
    for (name, base_rate) in &base {
        let Some((_, cur_rate)) = cur.iter().find(|(n, _)| n == name) else {
            violations.push(format!(
                "{name}: present in baseline, missing from current run"
            ));
            continue;
        };
        let floor = base_rate * (1.0 - TOLERANCE);
        let line = format!(
            "{name}: {cur_rate:.1} ev/wall-s vs baseline {base_rate:.1} (floor {floor:.1})"
        );
        if *cur_rate < floor {
            violations.push(format!("REGRESSION {line}"));
        } else {
            report.push(format!("ok {line}"));
        }
    }
    if violations.is_empty() {
        Ok(report)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_churn_is_deterministic_in_events() {
        let a = kernel_churn(7, 50, 5_000);
        let b = kernel_churn(7, 50, 5_000);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_secs, b.sim_secs);
        assert!(a.events >= 5_000);
    }

    fn fake_json(pairs: &[(&str, f64)]) -> String {
        let runs: Vec<EngineRun> = pairs
            .iter()
            .map(|(n, rate)| EngineRun {
                name: (*n).to_string(),
                events: (*rate * 10.0) as u64,
                sim_secs: 1.0,
                wall_secs: 10.0,
            })
            .collect();
        render_json(1, &runs)
    }

    #[test]
    fn baseline_check_passes_within_tolerance() {
        let base = fake_json(&[("kernel_churn", 1000.0)]);
        let cur = fake_json(&[("kernel_churn", 950.0)]);
        let report = check_against_baseline(&cur, &base).expect("within tolerance");
        assert_eq!(report.len(), 1);
        assert!(report[0].starts_with("ok kernel_churn"));
    }

    #[test]
    fn baseline_check_fails_on_regression() {
        let base = fake_json(&[("kernel_churn", 1000.0)]);
        let cur = fake_json(&[("kernel_churn", 800.0)]);
        let violations = check_against_baseline(&cur, &base).expect_err("regressed");
        assert!(violations[0].starts_with("REGRESSION kernel_churn"));
    }

    #[test]
    fn baseline_check_fails_on_missing_workload_or_bad_json() {
        let base = fake_json(&[("kernel_churn", 1000.0), ("kernel_churn_far", 50.0)]);
        let cur = fake_json(&[("kernel_churn", 1000.0)]);
        assert!(check_against_baseline(&cur, &base).is_err());
        assert!(check_against_baseline("not json", &base).is_err());
        assert!(check_against_baseline(&cur, "{}").is_err());
    }
}
