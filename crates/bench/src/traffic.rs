//! NSML-style multi-tenant traffic: the workload shape reported for
//! production DL clusters (NSML, Philly, the paper's own DLaaS):
//!
//! * **Diurnal arrivals** — a non-homogeneous Poisson process whose
//!   intensity follows a sinusoid over the submission window, sampled by
//!   inverse-CDF so a run is deterministic for a given seed;
//! * **Pareto bursts** — an arrival occasionally opens a burst of
//!   same-tenant submissions with a heavy-tailed size, the flash crowds
//!   that drive tenants over quota and into the fair queue;
//! * **Heavy-tailed durations** — log-normal job lengths (most jobs are
//!   minutes, a few run for hours), mapped to training iterations
//!   through the GPU performance model;
//! * **Whale / small tenant mix** — a couple of heavyweight tenants
//!   carry half the traffic at a higher fair-share weight, the rest is
//!   spread over many small tenants.
//!
//! [`generate`] precomputes the full arrival schedule up front (pure
//! math over a forked [`SimRng`], no event-loop interleaving), so the
//! schedule is byte-identical regardless of how the driving campaign is
//! threaded. [`check_against_baseline`] is the CI gate over the
//! artifacts the `traffic_soak` bin emits: wall-clock throughput within
//! a relative tolerance, and the (deterministic) per-tenant p99
//! turnaround within the same tolerance.

use std::fmt::Write as _;

use dlaas_docstore::Value;
use dlaas_gpu::{step_time_secs, DlModel, ExecEnv, Framework, GpuKind, TrainingConfig};
use dlaas_sim::{SimDuration, SimRng};

/// Shape of the generated traffic. Defaults follow the NSML/Philly
/// findings scaled into a two-hour window: ~50% of jobs from 2 whale
/// tenants, sinusoidal intensity with a 60% swing, ~3% of arrivals
/// opening a Pareto burst, log-normal durations with a 90s median and a
/// fat tail.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Heavyweight tenants (higher fair-share weight, half the traffic).
    pub whales: u32,
    /// Small tenants sharing the other half of the traffic.
    pub smalls: u32,
    /// Fair-share weight of each whale (smalls weigh 1).
    pub whale_weight: u32,
    /// Fraction of arrivals drawn by whale tenants.
    pub whale_share: f64,
    /// Submission window; arrivals all land inside it.
    pub window: SimDuration,
    /// Amplitude of the diurnal sinusoid in [0, 1).
    pub diurnal_amp: f64,
    /// Probability an arrival opens a burst.
    pub burst_p: f64,
    /// Pareto shape of the burst size (smaller = heavier tail).
    pub burst_alpha: f64,
    /// Burst size cap.
    pub burst_max: u64,
    /// Mean spacing of submissions inside one burst.
    pub burst_spread: SimDuration,
    /// Median job duration (log-normal location).
    pub median_duration: SimDuration,
    /// Log-normal shape; 1.0 gives the observed minutes-to-hours spread.
    pub duration_sigma: f64,
    /// Duration cap, so the tail cannot outlive the drain horizon.
    pub max_duration: SimDuration,
    /// Probability a *whale* job is distributed over 2–4 learners
    /// (small tenants run single-GPU jobs, matching the production
    /// observation that distributed training concentrates in the
    /// heavyweight tenants — and keeping every job admissible within
    /// its tenant's quota slice).
    pub multi_learner_p: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            whales: 2,
            smalls: 10,
            whale_weight: 4,
            whale_share: 0.5,
            window: SimDuration::from_hours(2),
            diurnal_amp: 0.6,
            burst_p: 0.03,
            burst_alpha: 1.5,
            burst_max: 64,
            burst_spread: SimDuration::from_secs(5),
            median_duration: SimDuration::from_secs(90),
            duration_sigma: 1.0,
            max_duration: SimDuration::from_mins(30),
            multi_learner_p: 0.15,
        }
    }
}

impl TrafficConfig {
    /// Tenant ids, whales first — index into this is the tenant handle
    /// the generated [`Arrival`]s carry.
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut out = Vec::with_capacity((self.whales + self.smalls) as usize);
        for i in 0..self.whales {
            out.push(format!("whale-{i}"));
        }
        for i in 0..self.smalls {
            out.push(format!("small-{i}"));
        }
        out
    }

    /// Fair-share weight of tenant `idx` (whales first).
    pub fn weight_of(&self, idx: usize) -> u32 {
        if (idx as u32) < self.whales {
            self.whale_weight
        } else {
            1
        }
    }

    /// GPU capacity to provision for `n` jobs: expected peak concurrency
    /// (offered load × diurnal peak) plus headroom so admitted jobs
    /// deploy promptly — the fair queue, not the scheduler, is where
    /// over-quota work waits.
    pub fn capacity_gpus(&self, n: u64) -> u32 {
        let mean_secs =
            self.median_duration.as_secs_f64() * (self.duration_sigma.powi(2) / 2.0).exp();
        // E[gpus] ≈ 1 + P(whale)·P(distributed)·E[extra learners].
        let mean_gpus = 1.0 + self.whale_share * self.multi_learner_p * 2.0;
        let offered = n as f64 * mean_secs * mean_gpus / self.window.as_secs_f64();
        ((offered * (1.0 + self.diurnal_amp) * 1.3).ceil() as u32).max(8)
    }

    /// Per-tenant GPU quota: capacity split so whales get
    /// `whale_weight` shares and smalls one share each, the whole
    /// cluster allocated. Bursts then push tenants over their slice and
    /// into the fair queue while total admitted work still fits.
    pub fn quota_of(&self, idx: usize, capacity: u32) -> u32 {
        let shares = u64::from(self.whales) * u64::from(self.whale_weight) + u64::from(self.smalls);
        let q = u64::from(capacity) * u64::from(self.weight_of(idx)) / shares.max(1);
        // Floors keep every generated job admissible: whales can draw
        // 4-GPU distributed jobs, smalls stay single-GPU.
        let floor = if (idx as u32) < self.whales { 4 } else { 2 };
        (q as u32).max(floor)
    }
}

/// One precomputed submission.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Offset from the start of the submission window.
    pub at: SimDuration,
    /// Index into [`TrafficConfig::tenant_ids`].
    pub tenant: usize,
    /// Training iterations (duration mapped through the GPU model).
    pub iterations: u64,
    /// Learner processes (1 = single-GPU job).
    pub learners: u32,
}

/// Normalized cumulative intensity of the diurnal process at `x` in
/// [0, 1]: Λ(x) for λ(x) ∝ 1 + amp·sin(2πx), scaled so Λ(1) = 1.
fn diurnal_cum(amp: f64, x: f64) -> f64 {
    use std::f64::consts::PI;
    x + amp / (2.0 * PI) * (1.0 - (2.0 * PI * x).cos())
}

/// Inverse of [`diurnal_cum`] by bisection (the CDF is strictly
/// increasing for amp < 1).
fn diurnal_inv(amp: f64, u: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..48 {
        let mid = (lo + hi) / 2.0;
        if diurnal_cum(amp, mid) < u {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Standard normal via Box–Muller; consumes two uniforms.
fn standard_normal(rng: &mut SimRng) -> f64 {
    use std::f64::consts::PI;
    let u1 = (1.0 - rng.unit()).max(f64::MIN_POSITIVE);
    let u2 = rng.unit();
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// Pareto-distributed burst size ≥ 2 with shape `alpha`.
fn pareto_size(rng: &mut SimRng, alpha: f64, cap: u64) -> u64 {
    let u = (1.0 - rng.unit()).max(f64::MIN_POSITIVE);
    let size = (2.0 * u.powf(-1.0 / alpha)) as u64;
    size.clamp(2, cap.max(2))
}

/// Generates exactly `n` arrivals, sorted by submission time. Pure math
/// over the passed rng — no simulation state is touched, so the
/// schedule is identical however the caller threads its trials.
pub fn generate(rng: &mut SimRng, cfg: &TrafficConfig, n: u64) -> Vec<Arrival> {
    // Seconds of training per iteration for the job mix's fixed model;
    // the platform adds its own overheads on top, which is fine — the
    // log-normal is a statistical target, not a promise per job.
    let step = step_time_secs(
        &TrainingConfig::new(DlModel::Resnet50, Framework::TensorFlow, GpuKind::K80, 1),
        &ExecEnv::bare_metal(),
    );
    let window = cfg.window.as_secs_f64();
    let mut out: Vec<Arrival> = Vec::with_capacity(n as usize);
    while (out.len() as u64) < n {
        let t = diurnal_inv(cfg.diurnal_amp, rng.unit()) * window;
        let tenant = if rng.chance(cfg.whale_share) && cfg.whales > 0 {
            rng.range_u64(0, u64::from(cfg.whales)) as usize
        } else {
            (u64::from(cfg.whales) + rng.range_u64(0, u64::from(cfg.smalls.max(1)))) as usize
        };
        let burst = if rng.chance(cfg.burst_p) {
            pareto_size(rng, cfg.burst_alpha, cfg.burst_max)
        } else {
            1
        };
        let mut at = t;
        for b in 0..burst {
            if out.len() as u64 >= n {
                break;
            }
            if b > 0 {
                at += rng.exponential(cfg.burst_spread).as_secs_f64();
            }
            let z = standard_normal(rng);
            let dur = (cfg.median_duration.as_secs_f64() * (cfg.duration_sigma * z).exp())
                .clamp(10.0, cfg.max_duration.as_secs_f64());
            let learners = if (tenant as u32) < cfg.whales && rng.chance(cfg.multi_learner_p) {
                rng.range_u64(2, 5) as u32
            } else {
                1
            };
            out.push(Arrival {
                at: SimDuration::from_micros((at.min(window) * 1e6) as u64),
                tenant,
                iterations: ((dur / step) as u64).max(5),
                learners,
            });
        }
    }
    out.sort_by_key(|a| a.at); // stable: bursts keep their relative order
    out
}

/// Per-tenant turnaround summary for the byte-stable artifact.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Tenant id.
    pub tenant: String,
    /// Jobs with an observed turnaround (reached a terminal status).
    pub jobs: u64,
    /// Turnaround quantiles in simulated seconds.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Compares the fresh traffic artifacts against a committed baseline.
///
/// The baseline carries two kinds of entries:
///
/// * `workloads` — `wall_secs` per run, from the wall sidecar
///   (`BENCH_traffic.wall.json`); the current run must not take more
///   than `tolerance` longer than the baseline (machine-speed gate, on
///   wall seconds like the engine's platform soak: removing events must
///   not read as a slowdown);
/// * `tenant_p99` — per-tenant p99 turnaround per run, from the
///   byte-stable `BENCH_traffic.json`; deterministic for a given seed,
///   so a drift past `tolerance` means platform behavior changed
///   (fairness gate).
///
/// Returns report lines on success or the violations on failure; either
/// side failing to parse is a violation, not a pass.
pub fn check_against_baseline(
    wall_json: &str,
    traffic_json: &str,
    baseline_json: &str,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut report = Vec::new();
    let mut violations = Vec::new();

    let base = match Value::parse_json(baseline_json) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("baseline: unparseable JSON: {e:?}")]),
    };

    // Machine-speed gate, same contract as the engine bench.
    if base.path("workloads").is_some() {
        match crate::engine::check_against_baseline(wall_json, baseline_json, tolerance) {
            Ok(lines) => report.extend(lines),
            Err(v) => violations.extend(v),
        }
    }

    // Fairness gate: per-tenant p99 per run, keyed "run/tenant".
    if let Some(entries) = base.path("tenant_p99").and_then(Value::as_arr) {
        let cur = match Value::parse_json(traffic_json) {
            Ok(v) => v,
            Err(e) => return Err(vec![format!("current: unparseable JSON: {e:?}")]),
        };
        for e in entries {
            let (Some(run), Some(tenant), Some(base_p99)) = (
                e.path("run").and_then(Value::as_str),
                e.path("tenant").and_then(Value::as_str),
                e.path("p99").and_then(Value::as_f64),
            ) else {
                violations.push(format!("baseline: malformed tenant_p99 entry: {e:?}"));
                continue;
            };
            let cur_p99 = cur
                .path("runs")
                .and_then(Value::as_arr)
                .and_then(|runs| {
                    runs.iter()
                        .find(|r| r.path("run").and_then(Value::as_str) == Some(run))
                })
                .and_then(|r| r.path("tenants"))
                .and_then(Value::as_arr)
                .and_then(|ts| {
                    ts.iter()
                        .find(|t| t.path("tenant").and_then(Value::as_str) == Some(tenant))
                })
                .and_then(|t| t.path("p99"))
                .and_then(Value::as_f64);
            let Some(cur_p99) = cur_p99 else {
                violations.push(format!("{run}/{tenant}: missing from current run"));
                continue;
            };
            let ceiling = base_p99 * (1.0 + tolerance);
            let line = format!(
                "{run}/{tenant}: p99 {cur_p99:.1}s vs baseline {base_p99:.1}s (ceiling {ceiling:.1}s)"
            );
            if cur_p99 > ceiling {
                violations.push(format!("REGRESSION {line}"));
            } else {
                report.push(format!("ok {line}"));
            }
        }
    }

    if report.is_empty() && violations.is_empty() {
        return Err(vec!["baseline: nothing to compare".into()]);
    }
    if violations.is_empty() {
        Ok(report)
    } else {
        Err(violations)
    }
}

/// Renders the committed baseline from a fresh pair of artifacts:
/// `(run name, wall_secs)` plus per-run tenant summaries.
pub fn render_baseline(
    wall_secs: &[(String, f64)],
    tenant_p99s: &[(String, String, f64)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"traffic_soak-baseline\",\n  \"workloads\": [\n");
    for (i, (name, secs)) in wall_secs.iter().enumerate() {
        write!(
            out,
            "    {{\"name\": \"{name}\", \"wall_secs\": {secs:.6}}}"
        )
        .unwrap();
        out.push_str(if i + 1 < wall_secs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"tenant_p99\": [\n");
    for (i, (run, tenant, p99)) in tenant_p99s.iter().enumerate() {
        write!(
            out,
            "    {{\"run\": \"{run}\", \"tenant\": \"{tenant}\", \"p99\": {p99:.6}}}"
        )
        .unwrap();
        out.push_str(if i + 1 < tenant_p99s.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SimRng {
        SimRng::new(seed)
    }

    #[test]
    fn generates_exactly_n_sorted_arrivals() {
        let cfg = TrafficConfig::default();
        let arrivals = generate(&mut rng(7), &cfg, 5_000);
        assert_eq!(arrivals.len(), 5_000);
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for a in &arrivals {
            assert!(a.at <= cfg.window);
            assert!(a.iterations >= 5);
            assert!((1..=4).contains(&a.learners));
            assert!(a.tenant < (cfg.whales + cfg.smalls) as usize);
            // Distributed jobs are whale-only so every job fits its
            // tenant's quota slice.
            if a.learners > 1 {
                assert!((a.tenant as u32) < cfg.whales);
            }
        }
        assert!(
            arrivals.iter().any(|a| a.learners > 1),
            "whales must draw some distributed jobs"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TrafficConfig::default();
        let a = generate(&mut rng(11), &cfg, 2_000);
        let b = generate(&mut rng(11), &cfg, 2_000);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.learners, y.learners);
        }
    }

    #[test]
    fn whales_carry_about_half_the_traffic() {
        let cfg = TrafficConfig::default();
        let arrivals = generate(&mut rng(13), &cfg, 20_000);
        let whale_jobs = arrivals
            .iter()
            .filter(|a| (a.tenant as u32) < cfg.whales)
            .count() as f64;
        let share = whale_jobs / arrivals.len() as f64;
        assert!(
            (0.40..=0.60).contains(&share),
            "whale share {share:.2} far from configured 0.5"
        );
    }

    #[test]
    fn arrivals_follow_the_diurnal_swing() {
        let cfg = TrafficConfig::default();
        let arrivals = generate(&mut rng(17), &cfg, 50_000);
        // λ ∝ 1 + 0.6·sin(2πx): the first half-window (sin > 0) must
        // hold visibly more arrivals than the second.
        let half = cfg.window.as_micros() / 2;
        let first = arrivals.iter().filter(|a| a.at.as_micros() < half).count() as f64;
        let ratio = first / arrivals.len() as f64;
        assert!(
            ratio > 0.55,
            "expected diurnal skew toward the first half, got {ratio:.2}"
        );
    }

    #[test]
    fn bursts_cluster_same_tenant_submissions() {
        let cfg = TrafficConfig {
            burst_p: 1.0, // every arrival opens a burst
            ..TrafficConfig::default()
        };
        let arrivals = generate(&mut rng(19), &cfg, 1_000);
        // With bursts of ≥2 everywhere, adjacent same-tenant pairs must
        // be common even after the global sort.
        let same_tenant_adjacent = arrivals
            .windows(2)
            .filter(|w| w[0].tenant == w[1].tenant)
            .count() as f64;
        assert!(same_tenant_adjacent / arrivals.len() as f64 > 0.3);
    }

    #[test]
    fn durations_are_heavy_tailed() {
        let cfg = TrafficConfig::default();
        let arrivals = generate(&mut rng(23), &cfg, 20_000);
        let mut iters: Vec<u64> = arrivals.iter().map(|a| a.iterations).collect();
        iters.sort_unstable();
        let med = iters[iters.len() / 2] as f64;
        let p99 = iters[iters.len() * 99 / 100] as f64;
        assert!(
            p99 / med > 5.0,
            "log-normal tail too thin: median {med}, p99 {p99}"
        );
    }

    #[test]
    fn capacity_and_quota_sizing() {
        let cfg = TrafficConfig::default();
        let cap = cfg.capacity_gpus(10_000);
        assert!(cap >= 8);
        let total: u64 = (0..(cfg.whales + cfg.smalls) as usize)
            .map(|i| u64::from(cfg.quota_of(i, cap)))
            .sum();
        // Quotas allocate the cluster without oversubscribing it badly
        // (the .max(2) floor can push tiny clusters slightly over).
        assert!(total <= u64::from(cap) + u64::from(cfg.whales + cfg.smalls) * 2);
        // Whales get the bigger slice.
        assert!(cfg.quota_of(0, cap) > cfg.quota_of((cfg.whales + cfg.smalls - 1) as usize, cap));
    }

    #[test]
    fn baseline_check_gates_wall_seconds_and_p99() {
        let baseline = render_baseline(
            &[("n1000".into(), 10.0)],
            &[("n1000".into(), "whale-0".into(), 120.0)],
        );
        // Fewer events per wall-second than any baseline rate would have
        // allowed, and faster: an event diet, not a regression.
        let wall = "{\"workloads\": [{\"name\": \"n1000\", \"wall_secs\": 9.0, \"events_per_wall_sec\": 1.0}]}";
        let traffic = "{\"runs\": [{\"run\": \"n1000\", \"tenants\": [{\"tenant\": \"whale-0\", \"p99\": 125.0}]}]}";
        check_against_baseline(wall, traffic, &baseline, 0.10).expect("within tolerance");

        let slow = "{\"workloads\": [{\"name\": \"n1000\", \"wall_secs\": 12.0}]}";
        let v = check_against_baseline(slow, traffic, &baseline, 0.10).expect_err("regressed");
        assert!(v.iter().any(|l| l.contains("REGRESSION")));

        let starved = "{\"runs\": [{\"run\": \"n1000\", \"tenants\": [{\"tenant\": \"whale-0\", \"p99\": 200.0}]}]}";
        let v = check_against_baseline(wall, starved, &baseline, 0.10).expect_err("p99 regressed");
        assert!(v.iter().any(|l| l.contains("REGRESSION")));

        let missing = "{\"runs\": []}";
        assert!(check_against_baseline(wall, missing, &baseline, 0.10).is_err());
    }
}
