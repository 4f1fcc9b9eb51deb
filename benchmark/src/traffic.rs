//! The arrival generator: NSML-style multi-tenant traffic, vendored from
//! `crates/bench/src/traffic.rs` so that folding or changing the bench
//! drivers cannot move the benchmark's ruler.
//!
//! The shape is the original's — diurnal arrivals, Pareto bursts of
//! same-tenant submissions, log-normal durations, a whale/small tenant
//! mix with distributed jobs only among the whales — but every marginal
//! is drawn by *stratified* sampling: the populations of root-arrival
//! instants, burst sizes and durations hold one point per quantile
//! stratum for every seed, every tenant gets its share of the jobs to
//! within one burst and an even spread of the durations, and exactly the
//! configured share of whale jobs is distributed. The seed decides the
//! jitter inside each stratum and how the populations are paired with
//! each other. Different seeds therefore give different schedules with
//! the same offered load, so a percentile of a few hundred jobs moves by
//! a few per cent from seed to seed rather than by the tens of per cent
//! independent draws give — which matters because the benchmark is judged
//! on its spread across seeds.

use dlaas_gpu::{step_time_secs, DlModel, ExecEnv, Framework, GpuKind, TrainingConfig};
use dlaas_sim::{SimDuration, SimRng};

/// Shape of the generated traffic (fields as in the original).
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Heavyweight tenants (higher fair-share weight).
    pub whales: u32,
    /// Small tenants sharing the rest of the traffic.
    pub smalls: u32,
    /// Fair-share weight of each whale (smalls weigh 1).
    pub whale_weight: u32,
    /// Fraction of the jobs submitted by whale tenants.
    pub whale_share: f64,
    /// Submission window; root arrivals all land inside it.
    pub window: SimDuration,
    /// Amplitude of the diurnal sinusoid in [0, 1).
    pub diurnal_amp: f64,
    /// Share of root arrivals that open a burst.
    pub burst_p: f64,
    /// Pareto shape of the burst size (smaller = heavier tail).
    pub burst_alpha: f64,
    /// Burst size cap.
    pub burst_max: u64,
    /// Mean spacing of submissions inside one burst.
    pub burst_spread: SimDuration,
    /// Median job duration (log-normal location).
    pub median_duration: SimDuration,
    /// Log-normal shape.
    pub duration_sigma: f64,
    /// Shortest duration generated.
    pub min_duration: SimDuration,
    /// Duration cap, so the tail cannot outlive the drain horizon.
    pub max_duration: SimDuration,
    /// Share of *whale* jobs distributed over 2–4 learners.
    pub multi_learner_p: f64,
}

impl Default for TrafficConfig {
    /// The NSML mix of `crates/bench/src/traffic.rs`.
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
            min_duration: SimDuration::from_secs(10),
            max_duration: SimDuration::from_mins(30),
            multi_learner_p: 0.15,
        }
    }
}

impl TrafficConfig {
    /// Tenant ids, whales first.
    pub fn tenant_ids(&self) -> Vec<String> {
        (0..self.whales)
            .map(|i| format!("whale-{i}"))
            .chain((0..self.smalls).map(|i| format!("small-{i}")))
            .collect()
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
    /// (offered load × diurnal peak) plus 30 % headroom.
    pub fn capacity_gpus(&self, n: u64) -> u32 {
        let mean_secs =
            self.median_duration.as_secs_f64() * (self.duration_sigma.powi(2) / 2.0).exp();
        let mean_gpus = 1.0 + self.whale_share * self.multi_learner_p * 2.0;
        let offered = n as f64 * mean_secs * mean_gpus / self.window.as_secs_f64();
        ((offered * (1.0 + self.diurnal_amp) * 1.3).ceil() as u32).max(8)
    }

    /// Per-tenant GPU quota: capacity split by fair-share weight, with a
    /// floor that keeps every generated job admissible.
    pub fn quota_of(&self, idx: usize, capacity: u32) -> u32 {
        let shares = u64::from(self.whales) * u64::from(self.whale_weight) + u64::from(self.smalls);
        let q = u64::from(capacity) * u64::from(self.weight_of(idx)) / shares.max(1);
        let floor = if (idx as u32) < self.whales { 4 } else { 2 };
        (q as u32).max(floor)
    }
}

/// One precomputed submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the measured phase.
    pub at: SimDuration,
    /// Index into [`TrafficConfig::tenant_ids`].
    pub tenant: usize,
    /// Training iterations (duration mapped through the GPU model).
    pub iterations: u64,
    /// Learner processes (1 = single-GPU job).
    pub learners: u32,
}

/// Ideal bare-metal seconds per training iteration of the job mix's
/// fixed model on `learners` single-K80 learners.
pub fn ideal_step_secs(learners: u32) -> f64 {
    step_time_secs(
        &TrainingConfig::new(DlModel::Resnet50, Framework::TensorFlow, GpuKind::K80, 1)
            .distributed(learners),
        &ExecEnv::bare_metal(),
    )
}

/// Normalized cumulative intensity of the diurnal process at `x` in
/// [0, 1]: Λ(x) for λ(x) ∝ 1 + amp·sin(2πx), scaled so Λ(1) = 1.
fn diurnal_cum(amp: f64, x: f64) -> f64 {
    use std::f64::consts::PI;
    x + amp / (2.0 * PI) * (1.0 - (2.0 * PI * x).cos())
}

/// Inverse of [`diurnal_cum`] by bisection (strictly increasing for
/// amp < 1).
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

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// relative error below 1.2e-9 on (0, 1)).
fn normal_inv(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < 0.024_25 {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - 0.024_25 {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// Burst size at quantile `u` of the original's mixture: 1 with
/// probability `1 - burst_p`, else Pareto(α) ≥ 2 capped at `burst_max`.
fn burst_size_at(cfg: &TrafficConfig, u: f64) -> u64 {
    if cfg.burst_p <= 0.0 || u < 1.0 - cfg.burst_p {
        return 1;
    }
    // Position inside the bursting share, kept away from the pole at 1.
    let v = ((u - (1.0 - cfg.burst_p)) / cfg.burst_p).min(1.0 - 1e-9);
    let size = (2.0 * (1.0 - v).powf(-1.0 / cfg.burst_alpha)) as u64;
    size.clamp(2, cfg.burst_max.max(2))
}

/// Fisher–Yates over `items` with the benchmark's rng.
fn shuffle<T>(rng: &mut SimRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.range_u64(0, i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The burst sizes of the `r` root arrivals, one per quantile stratum.
fn burst_sizes(cfg: &TrafficConfig, r: u64) -> Vec<u64> {
    (0..r)
        .map(|j| burst_size_at(cfg, (j as f64 + 0.5) / r as f64))
        .collect()
}

/// Generates exactly `n` arrivals sorted by submission time. Pure math
/// over `rng`; touches no simulation state.
pub fn generate(rng: &mut SimRng, cfg: &TrafficConfig, n: u64) -> Vec<Arrival> {
    assert!(n > 0, "empty schedule");
    let window = cfg.window.as_secs_f64();

    // How many root arrivals carry exactly n jobs: the smallest count
    // whose stratified burst sizes sum to at least n, the surplus trimmed
    // off the largest bursts — so the population of burst sizes is fixed
    // by (cfg, n) alone.
    let mut roots = 1u64;
    while burst_sizes(cfg, roots).iter().sum::<u64>() < n {
        roots += 1;
    }
    let mut sizes = burst_sizes(cfg, roots);
    let mut surplus = sizes.iter().sum::<u64>() - n;
    for s in sizes.iter_mut().rev() {
        let cut = surplus.min(*s - 1); // sizes ascend: largest first
        *s -= cut;
        surplus -= cut;
    }
    assert_eq!(sizes.iter().sum::<u64>(), n, "burst sizes must sum to n");
    shuffle(rng, &mut sizes);

    // Tenant per root, largest bursts first, each to the class and then
    // the tenant furthest below its share of the *jobs* — so every seed
    // gives every tenant the same load to within one burst, and only
    // which bursts it gets (and when) varies.
    let tenant_count = (cfg.whales + cfg.smalls) as usize;
    let whale_jobs_target = if cfg.smalls == 0 {
        n as f64
    } else if cfg.whales == 0 {
        0.0
    } else {
        n as f64 * cfg.whale_share
    };
    let mut by_size: Vec<usize> = (0..roots as usize).collect();
    shuffle(rng, &mut by_size);
    by_size.sort_by_key(|&i| std::cmp::Reverse(sizes[i])); // stable: ties stay shuffled
    let mut tie_break: Vec<usize> = (0..tenant_count).collect();
    shuffle(rng, &mut tie_break);
    let mut jobs_of = vec![0u64; tenant_count];
    let mut whale_jobs = 0u64;
    let mut tenants = vec![0usize; roots as usize];
    for &i in &by_size {
        let small_jobs = jobs_of.iter().sum::<u64>() - whale_jobs;
        let whale_deficit = whale_jobs_target - whale_jobs as f64;
        let small_deficit = (n as f64 - whale_jobs_target) - small_jobs as f64;
        let class = if whale_deficit >= small_deficit {
            0..cfg.whales as usize
        } else {
            cfg.whales as usize..tenant_count
        };
        let t = class
            .min_by_key(|&t| (jobs_of[t], tie_break[t]))
            .expect("the class in deficit has a tenant");
        tenants[i] = t;
        jobs_of[t] += sizes[i];
        if (t as u32) < cfg.whales {
            whale_jobs += sizes[i];
        }
    }

    // Root instants: one per stratum of the diurnal intensity.
    let mut out: Vec<Arrival> = Vec::with_capacity(n as usize);
    for i in 0..roots {
        let u = (i as f64 + rng.unit()) / roots as f64;
        let mut at = diurnal_inv(cfg.diurnal_amp, u) * window;
        for b in 0..sizes[i as usize] {
            if b > 0 {
                at += rng.exponential(cfg.burst_spread).as_secs_f64();
            }
            out.push(Arrival {
                at: SimDuration::from_micros((at.min(window) * 1e6) as u64),
                tenant: tenants[i as usize],
                iterations: 0,
                learners: 1,
            });
        }
    }

    // Learner counts: exactly the configured share of whale jobs is
    // distributed, cycling 2, 3, 4 learners, on a seeded choice of jobs.
    let mut whale_idx: Vec<usize> = (0..out.len())
        .filter(|&k| (out[k].tenant as u32) < cfg.whales)
        .collect();
    shuffle(rng, &mut whale_idx);
    let distributed = (whale_idx.len() as f64 * cfg.multi_learner_p).round() as usize;
    for (c, &k) in whale_idx.iter().take(distributed).enumerate() {
        out[k].learners = 2 + (c % 3) as u32;
    }

    // Durations: one per stratum of the log-normal over all n jobs,
    // jittered inside the stratum, and dealt in ascending order to the
    // (tenant, learner count) groups in proportion to their sizes — so
    // the population of durations is the same for every seed *and* every
    // tenant's GPU-seconds are an even spread of it. Which job of a
    // group gets which duration is seeded. A job's iteration count makes
    // its *ideal* training time the drawn duration, whatever its learner
    // count.
    let mut queues: Vec<Vec<usize>> = (0..tenant_count)
        .flat_map(|t| (1..=4u32).map(move |l| (t, l)))
        .map(|(t, l)| {
            (0..out.len())
                .filter(|&k| out[k].tenant == t && out[k].learners == l)
                .collect::<Vec<usize>>()
        })
        .filter(|group| !group.is_empty())
        .collect();
    for group in &mut queues {
        shuffle(rng, group);
    }
    let mut dealt = vec![0usize; queues.len()];
    for stratum in 0..n {
        let z = normal_inv((stratum as f64 + rng.unit()) / n as f64);
        let dur = (cfg.median_duration.as_secs_f64() * (cfg.duration_sigma * z).exp()).clamp(
            cfg.min_duration.as_secs_f64(),
            cfg.max_duration.as_secs_f64(),
        );
        // The group furthest behind its proportional share of the deal
        // (ties go to the earlier group: the order is fixed, not seeded).
        let g = (0..queues.len())
            .filter(|&g| !queues[g].is_empty())
            .min_by(|&a, &b| {
                let pos = |g: usize| (dealt[g] as f64 + 0.5) / (dealt[g] + queues[g].len()) as f64;
                pos(a).total_cmp(&pos(b))
            })
            .expect("a job is left for every stratum");
        let k = queues[g].pop().expect("group has a job left");
        dealt[g] += 1;
        out[k].iterations = ((dur / ideal_step_secs(out[k].learners)) as u64).max(5);
    }

    out.sort_by_key(|a| a.at); // stable: bursts keep their relative order
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_per_tenant(arrivals: &[Arrival], tenants: usize) -> Vec<usize> {
        (0..tenants)
            .map(|t| arrivals.iter().filter(|a| a.tenant == t).count())
            .collect()
    }

    #[test]
    fn generates_exactly_n_sorted_valid_arrivals() {
        let cfg = TrafficConfig::default();
        let arrivals = generate(&mut SimRng::new(7), &cfg, 1_000);
        assert_eq!(arrivals.len(), 1_000);
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        for a in &arrivals {
            assert!(a.at <= cfg.window);
            assert!(a.iterations >= 5);
            assert!((1..=4).contains(&a.learners));
            // Distributed jobs are whale-only, so every job fits its
            // tenant's quota slice.
            assert!(a.learners == 1 || (a.tenant as u32) < cfg.whales);
        }
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let cfg = TrafficConfig::default();
        let a = generate(&mut SimRng::new(11), &cfg, 500);
        assert_eq!(a, generate(&mut SimRng::new(11), &cfg, 500));
        assert_ne!(a, generate(&mut SimRng::new(12), &cfg, 500));
    }

    #[test]
    fn every_seed_offers_the_same_load() {
        let cfg = TrafficConfig::default();
        let ideal = |arrivals: &[Arrival]| -> f64 {
            arrivals
                .iter()
                .map(|a| a.iterations as f64 * ideal_step_secs(a.learners))
                .sum()
        };
        let a = generate(&mut SimRng::new(1), &cfg, 600);
        let b = generate(&mut SimRng::new(2), &cfg, 600);
        // Same jobs per tenant to within one burst, same number of
        // distributed jobs, total ideal training time within 2 %.
        for (x, y) in jobs_per_tenant(&a, 12).iter().zip(jobs_per_tenant(&b, 12)) {
            assert!(x.abs_diff(y) <= cfg.burst_max as usize, "{x} vs {y}");
        }
        let distributed = |v: &[Arrival]| v.iter().filter(|a| a.learners > 1).count();
        assert!(distributed(&a).abs_diff(distributed(&b)) <= 1);
        assert!((ideal(&a) / ideal(&b) - 1.0).abs() < 0.02);
    }

    #[test]
    fn whales_submit_their_share_of_the_jobs() {
        let cfg = TrafficConfig::default();
        let arrivals = generate(&mut SimRng::new(13), &cfg, 2_000);
        let whale = arrivals
            .iter()
            .filter(|a| (a.tenant as u32) < cfg.whales)
            .count() as f64;
        assert!((whale / 2_000.0 - cfg.whale_share).abs() < 0.02);
    }

    #[test]
    fn normal_inv_matches_known_quantiles() {
        assert!(normal_inv(0.5).abs() < 1e-9);
        assert!((normal_inv(0.975) - 1.959_964).abs() < 1e-5);
        assert!((normal_inv(0.001) + 3.090_232).abs() < 1e-5);
    }
}
