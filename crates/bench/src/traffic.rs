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
//! threaded. It is the arrival shape of the `traffic` preset of
//! [`crate::soak`], which also takes its capacity rule and tenant table
//! from here.
//!
//! The shape is fixed: the constants below follow the NSML/Philly
//! findings scaled into a two-hour window — ~50% of jobs from 2 whale
//! tenants, sinusoidal intensity with a 60% swing, ~3% of arrivals
//! opening a Pareto burst, log-normal durations with a 90 s median and a
//! fat tail.

use dlaas_core::Tenant;
use dlaas_gpu::{step_time_secs, DlModel, ExecEnv, Framework, GpuKind, TrainingConfig};
use dlaas_sim::{SimDuration, SimRng};

use crate::soak::Arrival;

/// Heavyweight tenants (higher fair-share weight, half the traffic).
const WHALES: u32 = 2;
/// Small tenants sharing the other half of the traffic.
const SMALLS: u32 = 10;
/// Fair-share weight of each whale (smalls weigh 1).
const WHALE_WEIGHT: u32 = 4;
/// Fraction of arrivals drawn by whale tenants.
const WHALE_SHARE: f64 = 0.5;
/// Submission window; arrivals all land inside it.
pub const WINDOW: SimDuration = SimDuration::from_hours(2);
/// Amplitude of the diurnal sinusoid in [0, 1).
const DIURNAL_AMP: f64 = 0.6;
/// Probability an arrival opens a burst.
const BURST_P: f64 = 0.03;
/// Pareto shape of the burst size (smaller = heavier tail).
const BURST_ALPHA: f64 = 1.5;
/// Burst size cap.
const BURST_MAX: u64 = 64;
/// Mean spacing of submissions inside one burst.
const BURST_SPREAD: SimDuration = SimDuration::from_secs(5);
/// Median job duration (log-normal location).
const MEDIAN_DURATION: SimDuration = SimDuration::from_secs(90);
/// Log-normal shape; 1.0 gives the observed minutes-to-hours spread.
const DURATION_SIGMA: f64 = 1.0;
/// Duration cap, so the tail cannot outlive the drain horizon.
const MAX_DURATION: SimDuration = SimDuration::from_mins(30);
/// Probability a *whale* job is distributed over 2–4 learners (small
/// tenants run single-GPU jobs, matching the production observation
/// that distributed training concentrates in the heavyweight tenants —
/// and keeping every job admissible within its tenant's quota slice).
const MULTI_LEARNER_P: f64 = 0.15;

/// The tenant table for a cluster of `capacity` GPUs, whales first — the
/// index into it is the tenant handle the generated [`Arrival`]s carry.
/// The capacity is split so whales get `WHALE_WEIGHT` shares and
/// smalls one share each, the whole cluster allocated: bursts then push
/// tenants over their slice and into the fair queue while total admitted
/// work still fits. Floors keep every generated job admissible: whales
/// can draw 4-GPU distributed jobs, smalls stay single-GPU.
pub fn tenants(capacity: u32) -> Vec<Tenant> {
    let shares = u64::from(WHALES * WHALE_WEIGHT + SMALLS);
    let tenant = |id: String, weight: u32, floor: u32| {
        let quota = (u64::from(capacity) * u64::from(weight) / shares) as u32;
        let key = format!("key-{id}");
        Tenant::new(id, key, quota.max(floor)).with_weight(weight)
    };
    let whales = (0..WHALES).map(|i| tenant(format!("whale-{i}"), WHALE_WEIGHT, 4));
    let smalls = (0..SMALLS).map(|i| tenant(format!("small-{i}"), 1, 2));
    whales.chain(smalls).collect()
}

/// GPU capacity to provision for `n` jobs: expected peak concurrency
/// (offered load × diurnal peak) plus headroom so admitted jobs deploy
/// promptly — the fair queue, not the scheduler, is where over-quota
/// work waits.
pub fn capacity_gpus(n: u64) -> u32 {
    let mean_secs = MEDIAN_DURATION.as_secs_f64() * (DURATION_SIGMA.powi(2) / 2.0).exp();
    // E[gpus] ≈ 1 + P(whale)·P(distributed)·E[extra learners].
    let mean_gpus = 1.0 + WHALE_SHARE * MULTI_LEARNER_P * 2.0;
    let offered = n as f64 * mean_secs * mean_gpus / WINDOW.as_secs_f64();
    ((offered * (1.0 + DIURNAL_AMP) * 1.3).ceil() as u32).max(8)
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
pub fn generate(rng: &mut SimRng, n: u64) -> Vec<Arrival> {
    // Seconds of training per iteration for the job mix's fixed model;
    // the platform adds its own overheads on top, which is fine — the
    // log-normal is a statistical target, not a promise per job.
    let step = step_time_secs(
        &TrainingConfig::new(DlModel::Resnet50, Framework::TensorFlow, GpuKind::K80, 1),
        &ExecEnv::bare_metal(),
    );
    let window = WINDOW.as_secs_f64();
    let mut out: Vec<Arrival> = Vec::with_capacity(n as usize);
    while (out.len() as u64) < n {
        let t = diurnal_inv(DIURNAL_AMP, rng.unit()) * window;
        let tenant = if rng.chance(WHALE_SHARE) {
            rng.range_u64(0, u64::from(WHALES)) as usize
        } else {
            (u64::from(WHALES) + rng.range_u64(0, u64::from(SMALLS))) as usize
        };
        let burst = if rng.chance(BURST_P) {
            pareto_size(rng, BURST_ALPHA, BURST_MAX)
        } else {
            1
        };
        let mut at = t;
        for b in 0..burst {
            if out.len() as u64 >= n {
                break;
            }
            if b > 0 {
                at += rng.exponential(BURST_SPREAD).as_secs_f64();
            }
            let z = standard_normal(rng);
            let dur = (MEDIAN_DURATION.as_secs_f64() * (DURATION_SIGMA * z).exp())
                .clamp(10.0, MAX_DURATION.as_secs_f64());
            let learners = if (tenant as u32) < WHALES && rng.chance(MULTI_LEARNER_P) {
                rng.range_u64(2, 5) as u32
            } else {
                1
            };
            out.push(Arrival {
                at: SimDuration::from_micros((at.min(window) * 1e6) as u64),
                tenant,
                framework: Framework::TensorFlow,
                model: DlModel::Resnet50,
                learners,
                iterations: ((dur / step) as u64).max(5),
                checkpoint_every: 0,
            });
        }
    }
    out.sort_by_key(|a| a.at); // stable: bursts keep their relative order
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[expect(
        clippy::disallowed_methods,
        reason = "unit tests draw arrivals from a directly seeded stream, with no Sim around"
    )]
    fn rng(seed: u64) -> SimRng {
        SimRng::new(seed)
    }

    fn is_whale(a: &Arrival) -> bool {
        (a.tenant as u32) < WHALES
    }

    #[test]
    fn generates_exactly_n_sorted_arrivals() {
        let arrivals = generate(&mut rng(7), 5_000);
        assert_eq!(arrivals.len(), 5_000);
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for a in &arrivals {
            assert!(a.at <= WINDOW);
            assert!(a.iterations >= 5);
            assert!((1..=4).contains(&a.learners));
            assert!(a.tenant < (WHALES + SMALLS) as usize);
            // Distributed jobs are whale-only so every job fits its
            // tenant's quota slice.
            if a.learners > 1 {
                assert!(is_whale(a));
            }
        }
        assert!(
            arrivals.iter().any(|a| a.learners > 1),
            "whales must draw some distributed jobs"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&mut rng(11), 2_000);
        let b = generate(&mut rng(11), 2_000);
        assert_eq!(a, b);
    }

    #[test]
    fn whales_carry_about_half_the_traffic() {
        let arrivals = generate(&mut rng(13), 20_000);
        let whale_jobs = arrivals.iter().filter(|a| is_whale(a)).count() as f64;
        let share = whale_jobs / arrivals.len() as f64;
        assert!(
            (0.40..=0.60).contains(&share),
            "whale share {share:.2} far from {WHALE_SHARE}"
        );
    }

    #[test]
    fn arrivals_follow_the_diurnal_swing() {
        let arrivals = generate(&mut rng(17), 50_000);
        // λ ∝ 1 + 0.6·sin(2πx): the first half-window (sin > 0) must
        // hold visibly more arrivals than the second.
        let half = WINDOW.as_micros() / 2;
        let first = arrivals.iter().filter(|a| a.at.as_micros() < half).count() as f64;
        let ratio = first / arrivals.len() as f64;
        assert!(
            ratio > 0.55,
            "expected diurnal skew toward the first half, got {ratio:.2}"
        );
    }

    #[test]
    fn bursts_cluster_same_tenant_submissions() {
        let arrivals = generate(&mut rng(19), 1_000);
        // A small tenant submits ~40 jobs over the two hours, one every
        // three minutes: without bursts, five of its submissions in a
        // row spaced under 15 s apart would never happen.
        let mut longest_run = 0;
        for tenant in WHALES as usize..(WHALES + SMALLS) as usize {
            let times: Vec<u64> = arrivals
                .iter()
                .filter(|a| a.tenant == tenant)
                .map(|a| a.at.as_micros())
                .collect();
            let mut run = 1;
            for w in times.windows(2) {
                run = if w[1] - w[0] < 15_000_000 { run + 1 } else { 1 };
                longest_run = longest_run.max(run);
            }
        }
        assert!(
            longest_run >= 5,
            "no Pareto burst visible: longest same-tenant run {longest_run}"
        );
    }

    #[test]
    fn durations_are_heavy_tailed() {
        let arrivals = generate(&mut rng(23), 20_000);
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
        let cap = capacity_gpus(10_000);
        assert!(cap >= 8);
        let table = tenants(cap);
        assert_eq!(table.len(), (WHALES + SMALLS) as usize);
        let total: u64 = table.iter().map(|t| u64::from(t.max_gpus)).sum();
        // Quotas allocate the cluster without oversubscribing it badly
        // (the floors can push tiny clusters slightly over).
        assert!(total <= u64::from(cap) + u64::from(WHALES + SMALLS) * 2);
        // Whales get the bigger slice and the bigger weight.
        let (whale, small) = (&table[0], &table[table.len() - 1]);
        assert!(whale.max_gpus > small.max_gpus);
        assert!(whale.weight > small.weight);
    }
}
