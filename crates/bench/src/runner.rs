//! The seed-parallel campaign runner.
//!
//! Every campaign in this repository — the fault matrix, the scale soak,
//! the multi-trial figure regenerations — is a list of *independent*
//! deterministic trials: each one builds its own [`Sim`](dlaas_sim::Sim)
//! from its own seed and never shares state with its neighbours. That is
//! the textbook embarrassingly-parallel shape (the same one FoundationDB
//! exploits for its deterministic-simulation campaigns), so the
//! [`CampaignRunner`] shards trials across a pool of OS threads while
//! preserving the property the rest of the workspace is built on: the
//! campaign's output is **byte-identical for any `--threads` value,
//! including 1**.
//!
//! Three design rules make that true:
//!
//! 1. **Parallelism stays outside the simulation.** A worker thread runs
//!    one whole trial at a time; no `Sim` is ever touched by two threads.
//!    `clippy.toml`'s `disallowed-methods` bans `std::thread::{spawn,
//!    scope}` everywhere else in the workspace (the one `#[expect]` is in
//!    this file), so parallelism cannot leak into the deterministic core.
//! 2. **Deterministic sorted merge.** Workers complete in host-scheduler
//!    order, but records are merged by sorting on the trial id (the
//!    trial's position in the campaign's canonical enumeration). Every
//!    aggregate — tables, JSON artifacts, replayed metrics histograms —
//!    is derived from that sorted sequence only.
//! 3. **Wall-clock is reporting-only.** Per-trial host time is recorded
//!    into a [`Registry`] histogram (via the feature-gated
//!    `dlaas-obs` wall-clock stopwatch) so speedups are *measured*, but
//!    wall readings never enter byte-compared output.
//!
//! The runner also gives campaigns robustness teeth: a per-trial
//! **sim-time budget** (a trial whose simulation ran past the budget is
//! recorded as `TIMEOUT` instead of silently dominating the campaign),
//! and **panic capture** per worker — a crashed trial becomes a
//! structured failure record carrying the exact single-threaded repro
//! command, and the remaining trials still run.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use dlaas_obs::wallclock::WallTimer;
use dlaas_sim::{Registry, SimDuration};

use crate::metrics::TRIAL_WALL_SECONDS;

/// One trial of a campaign: a stable label, the exact single-threaded
/// repro command, and the campaign-specific spec the trial function
/// consumes. Specs must be `Send` (they move to a worker thread) and are
/// typically `Clone` plain data — seed, fault plan, N.
#[derive(Debug, Clone)]
pub struct Trial<S> {
    /// Human-readable stable label (also the key in reports).
    pub label: String,
    /// Exact command reproducing this trial alone, single-threaded.
    pub repro: String,
    /// Campaign-specific inputs.
    pub spec: S,
}

/// What a trial function returns: the campaign result plus the final
/// simulated clock, which the runner checks against the sim-time budget.
#[derive(Debug, Clone)]
pub struct TrialRun<R> {
    /// The campaign-specific result.
    pub result: R,
    /// Total simulated time the trial consumed.
    pub sim_elapsed: SimDuration,
}

/// Terminal state of one trial.
#[derive(Debug, Clone)]
pub enum TrialOutcome<R> {
    /// The trial finished within its sim-time budget.
    Done(R),
    /// The trial finished but its simulation overran the budget; its
    /// result is withheld from aggregation so a runaway trial cannot
    /// skew campaign statistics unnoticed.
    Timeout {
        /// Simulated time the trial actually consumed.
        sim_elapsed: SimDuration,
        /// The budget it overran.
        budget: SimDuration,
    },
    /// The trial panicked; the panic was captured on the worker and
    /// converted into this structured record.
    Panicked {
        /// Rendered panic payload.
        message: String,
    },
}

/// One merged record of the campaign report.
#[derive(Debug, Clone)]
pub struct TrialRecord<R> {
    /// Trial id: the trial's position in the campaign's canonical
    /// enumeration. The merge sorts on this key.
    pub trial: usize,
    /// The trial's stable label.
    pub label: String,
    /// Exact single-threaded repro command.
    pub repro: String,
    /// How the trial ended.
    pub outcome: TrialOutcome<R>,
    /// Host seconds this trial took (reporting only; excluded from
    /// deterministic artifacts).
    pub wall_secs: f64,
}

impl<R> TrialRecord<R> {
    /// `true` when the trial did not produce a usable result.
    pub fn abnormal(&self) -> bool {
        !matches!(self.outcome, TrialOutcome::Done(_))
    }

    /// The result, when the trial completed within budget.
    pub fn result(&self) -> Option<&R> {
        match &self.outcome {
            TrialOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// One deterministic summary line (no wall-clock).
    pub fn describe(&self) -> String {
        match &self.outcome {
            TrialOutcome::Done(_) => format!("trial {} [{}]: done", self.trial, self.label),
            TrialOutcome::Timeout {
                sim_elapsed,
                budget,
            } => format!(
                "trial {} [{}]: TIMEOUT sim_elapsed={sim_elapsed} budget={budget}\n  repro: {}",
                self.trial, self.label, self.repro
            ),
            TrialOutcome::Panicked { message } => format!(
                "trial {} [{}]: PANIC {message}\n  repro: {}",
                self.trial, self.label, self.repro
            ),
        }
    }
}

/// The merged outcome of a campaign: records sorted by trial id plus the
/// runner's reporting registry (wall-clock histogram).
#[derive(Debug)]
pub struct CampaignReport<R> {
    /// One record per trial, sorted by trial id — byte-identical
    /// aggregation inputs at any thread count.
    pub records: Vec<TrialRecord<R>>,
    /// Worker threads the campaign ran on.
    pub threads: usize,
    /// Host seconds for the whole campaign (reporting only).
    pub wall_total_secs: f64,
    /// Reporting registry holding [`TRIAL_WALL_SECONDS`].
    pub wall_metrics: Registry,
}

impl<R> CampaignReport<R> {
    /// Records that timed out or panicked. A campaign with any of these
    /// must exit nonzero — CI is not allowed to go green over a dropped
    /// trial.
    pub fn abnormal(&self) -> Vec<&TrialRecord<R>> {
        self.records.iter().filter(|r| r.abnormal()).collect()
    }

    /// Completed results in trial-id order.
    pub fn results(&self) -> impl Iterator<Item = &R> {
        self.records.iter().filter_map(TrialRecord::result)
    }

    /// Deterministic repro lines for every abnormal record (for failure
    /// artifacts).
    pub fn failure_records(&self) -> Vec<String> {
        self.abnormal()
            .iter()
            .map(|r| r.describe())
            .collect::<Vec<_>>()
    }

    /// One-line wall-clock summary for stderr (never for artifacts):
    /// total, mean/p50/p95 per trial, and effective parallel speedup
    /// (sum of per-trial wall over campaign wall).
    pub fn wall_summary(&self, campaign: &str) -> String {
        let labels = [("campaign", campaign)];
        let h = self.wall_metrics.histogram(TRIAL_WALL_SECONDS, &labels);
        let (count, sum, p50, p95) = h
            .map(|h| {
                (
                    h.count(),
                    h.sum(),
                    h.quantile(0.5).unwrap_or(0.0),
                    h.quantile(0.95).unwrap_or(0.0),
                )
            })
            .unwrap_or((0, 0.0, 0.0, 0.0));
        let speedup = if self.wall_total_secs > 0.0 {
            sum / self.wall_total_secs
        } else {
            1.0
        };
        format!(
            "{campaign}: {count} trials on {} thread(s) in {:.2}s wall \
             (per-trial p50 {p50:.2}s p95 {p95:.2}s, busy {sum:.2}s, speedup x{speedup:.2})",
            self.threads, self.wall_total_secs
        )
    }
}

/// Shared context every trial function receives.
#[derive(Debug, Clone, Copy)]
pub struct TrialCtx {
    /// The per-trial sim-time budget, when one is set. Trial functions
    /// should cap their horizons with it so an overrunning simulation
    /// stops instead of running unbounded; the runner independently
    /// converts any overrun into a `TIMEOUT` record.
    pub sim_budget: Option<SimDuration>,
}

/// Runs a campaign of independent deterministic trials on a thread pool.
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    campaign: String,
    threads: usize,
    sim_budget: Option<SimDuration>,
}

impl CampaignRunner {
    /// A runner for `campaign` (metric label) on `threads` workers
    /// (clamped to ≥ 1).
    pub fn new(campaign: impl Into<String>, threads: usize) -> Self {
        CampaignRunner {
            campaign: campaign.into(),
            threads: threads.max(1),
            sim_budget: None,
        }
    }

    /// Sets the per-trial sim-time budget.
    #[must_use]
    pub fn with_sim_budget(mut self, budget: SimDuration) -> Self {
        self.sim_budget = Some(budget);
        self
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every trial, each in its own `Sim` on a worker thread,
    /// and merges the records by trial id.
    ///
    /// `run_trial` is called once per trial on some worker; it must build
    /// all its state (including the `Sim`) from the spec alone. Panics
    /// inside it are captured into [`TrialOutcome::Panicked`] records.
    pub fn run<S, R, F>(&self, trials: Vec<Trial<S>>, run_trial: F) -> CampaignReport<R>
    where
        S: Send,
        R: Send,
        F: Fn(&S, TrialCtx) -> TrialRun<R> + Sync,
    {
        let campaign_wall = WallTimer::start();
        let ctx = TrialCtx {
            sim_budget: self.sim_budget,
        };
        let queue: Mutex<VecDeque<(usize, Trial<S>)>> =
            Mutex::new(trials.into_iter().enumerate().collect());
        let n_queued = queue.lock().map(|q| q.len()).unwrap_or(0);
        let records: Mutex<Vec<TrialRecord<R>>> = Mutex::new(Vec::with_capacity(n_queued));
        let workers = self.threads.min(n_queued.max(1));
        let budget = self.sim_budget;
        let run_trial = &run_trial;

        #[expect(
            clippy::disallowed_methods,
            reason = "the one sanctioned use of OS threads in the workspace: each worker runs whole single-threaded Sims, every thread lives strictly inside this scope, and the sorted merge below discards completion order"
        )]
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let job = match queue.lock() {
                        Ok(mut q) => q.pop_front(),
                        Err(_) => None, // queue poisoned by a panicking lock holder
                    };
                    let Some((trial, t)) = job else { break };
                    let wall = WallTimer::start();
                    let ran = catch_unwind(AssertUnwindSafe(|| run_trial(&t.spec, ctx)));
                    let outcome = match ran {
                        Ok(run) => match budget {
                            Some(b) if run.sim_elapsed > b => TrialOutcome::Timeout {
                                sim_elapsed: run.sim_elapsed,
                                budget: b,
                            },
                            _ => TrialOutcome::Done(run.result),
                        },
                        Err(payload) => TrialOutcome::Panicked {
                            message: panic_message(payload.as_ref()),
                        },
                    };
                    let record = TrialRecord {
                        trial,
                        label: t.label,
                        repro: t.repro,
                        outcome,
                        wall_secs: wall.elapsed_secs(),
                    };
                    if let Ok(mut out) = records.lock() {
                        out.push(record);
                    }
                });
            }
        });

        // Deterministic sorted merge keyed on trial id: completion order
        // (host-scheduler dependent) is discarded here, so everything
        // derived from `records` is thread-count independent.
        let mut records = records.into_inner().unwrap_or_default();
        records.sort_by_key(|r| r.trial);

        let wall_metrics = Registry::new();
        let wall = wall_metrics.histogram_series(TRIAL_WALL_SECONDS, [self.campaign.as_str()]);
        for r in &records {
            wall.observe(r.wall_secs);
        }

        CampaignReport {
            records,
            threads: self.threads,
            wall_total_secs: campaign_wall.elapsed_secs(),
            wall_metrics,
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl<R> fmt::Display for TrialOutcome<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialOutcome::Done(_) => f.write_str("done"),
            TrialOutcome::Timeout { .. } => f.write_str("timeout"),
            TrialOutcome::Panicked { .. } => f.write_str("panic"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trials(n: usize) -> Vec<Trial<u64>> {
        (0..n)
            .map(|i| Trial {
                label: format!("t{i}"),
                repro: format!("cargo run -p dlaas-bench --bin demo -- --trial {i}"),
                spec: i as u64,
            })
            .collect()
    }

    fn ok_run(v: u64) -> TrialRun<u64> {
        TrialRun {
            result: v * 10,
            sim_elapsed: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn records_merge_in_trial_id_order_at_any_thread_count() {
        let run = |threads: usize| {
            let report = CampaignRunner::new("demo", threads).run(trials(16), |&v, _ctx| {
                // Skew completion order: later trials finish first.
                std::thread::sleep(std::time::Duration::from_millis(2 * (16 - v)));
                ok_run(v)
            });
            (
                report
                    .records
                    .iter()
                    .map(|r| (r.trial, r.label.clone()))
                    .collect::<Vec<_>>(),
                report.results().copied().collect::<Vec<u64>>(),
            )
        };
        let seq = run(1);
        let par = run(8);
        assert_eq!(seq, par, "merge must be thread-count independent");
        assert_eq!(par.1, (0..16).map(|v| v * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn sim_budget_overrun_becomes_timeout_record() {
        let report = CampaignRunner::new("demo", 2)
            .with_sim_budget(SimDuration::from_secs(10))
            .run(trials(3), |&v, ctx| {
                assert_eq!(ctx.sim_budget, Some(SimDuration::from_secs(10)));
                TrialRun {
                    result: v,
                    sim_elapsed: if v == 1 {
                        SimDuration::from_secs(3600) // overruns the budget
                    } else {
                        SimDuration::from_secs(2)
                    },
                }
            });
        assert_eq!(report.records.len(), 3);
        let abnormal = report.abnormal();
        assert_eq!(abnormal.len(), 1);
        assert_eq!(abnormal[0].trial, 1);
        assert!(matches!(
            abnormal[0].outcome,
            TrialOutcome::Timeout { budget, .. } if budget == SimDuration::from_secs(10)
        ));
        assert!(abnormal[0].describe().contains("TIMEOUT"));
        assert!(abnormal[0].describe().contains("--trial 1"));
        // The two healthy trials still aggregate.
        assert_eq!(report.results().copied().collect::<Vec<u64>>(), vec![0, 2]);
    }

    #[test]
    fn exact_budget_is_not_a_timeout() {
        let report = CampaignRunner::new("demo", 1)
            .with_sim_budget(SimDuration::from_secs(10))
            .run(trials(1), |&v, _| TrialRun {
                result: v,
                sim_elapsed: SimDuration::from_secs(10),
            });
        assert!(report.abnormal().is_empty());
    }

    #[test]
    fn panic_becomes_failure_record_with_repro_and_others_survive() {
        let report = CampaignRunner::new("demo", 4).run(trials(6), |&v, _| {
            assert!(v != 3, "injected crash on trial 3");
            ok_run(v)
        });
        assert_eq!(report.records.len(), 6, "panicked trial is still recorded");
        let abnormal = report.abnormal();
        assert_eq!(abnormal.len(), 1);
        assert_eq!(abnormal[0].trial, 3);
        match &abnormal[0].outcome {
            TrialOutcome::Panicked { message } => {
                assert!(message.contains("injected crash"), "{message}");
            }
            other => panic!("expected panic record, got {other}"),
        }
        let failures = report.failure_records();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("--trial 3"), "{}", failures[0]);
        assert_eq!(
            report.results().copied().collect::<Vec<u64>>(),
            vec![0, 10, 20, 40, 50]
        );
    }

    #[test]
    fn wall_histogram_counts_every_trial() {
        let report = CampaignRunner::new("demo", 2).run(trials(5), |&v, _| ok_run(v));
        let h = report
            .wall_metrics
            .histogram(TRIAL_WALL_SECONDS, &[("campaign", "demo")])
            .expect("wall histogram recorded");
        assert_eq!(h.count(), 5);
        assert!(report.wall_total_secs >= 0.0);
        let summary = report.wall_summary("demo");
        assert!(summary.contains("5 trials"), "{summary}");
    }

    #[test]
    fn empty_campaign_reports_empty() {
        let report =
            CampaignRunner::new("demo", 4).run(Vec::<Trial<u64>>::new(), |&v, _| ok_run(v));
        assert!(report.records.is_empty());
        assert!(report.abnormal().is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let runner = CampaignRunner::new("demo", 0);
        assert_eq!(runner.threads(), 1);
        let report = runner.run(trials(2), |&v, _| ok_run(v));
        assert_eq!(report.records.len(), 2);
    }
}
