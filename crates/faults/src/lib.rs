//! # dlaas-faults — fault injection & recovery measurement
//!
//! The paper produced its Fig. 4 by "manually crashing various components
//! (using the kubectl tool of K8S) and measuring time taken for the
//! component to restart". This crate is that experiment, scripted:
//!
//! * [`when`] — a one-shot trigger that fires an action at the first
//!   poll that finds a predicate over the live state true (a recovery
//!   watch, a test's staged outage; a fault at a step the platform marks
//!   is armed on the mark instead, with a tap, `Sim::tap`),
//! * [`partition_window`] / [`latency_window`] / [`nfs_outage_window`] —
//!   timed substrate degradations that repair themselves,
//! * [`measure_recovery`] — a stopwatch from fault to a recovery
//!   predicate becoming true,
//! * [`ChaosMonkey`] — probabilistic recurring faults against pods
//!   matching a label selector (for soak/property tests),
//! * [`RecoveryStats`] — min/mean/max aggregation across trials.
//!
//! The platform-level faults built from these — the one vocabulary the
//! fault matrix and the chaos soak share — are `dlaas_bench::matrix::FaultKind`.
//!
//! # Examples
//!
//! ```
//! use dlaas_faults::measure_recovery;
//! use dlaas_kube::{BehaviorRegistry, ContainerSpec, ImageRef, Kube, KubeConfig, NodeSpec,
//!                  PodPhase, PodSpec};
//! use dlaas_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(1);
//! let registry = BehaviorRegistry::new();
//! registry.register_noop("pause");
//! let kube = Kube::new(&mut sim, KubeConfig, registry);
//! kube.add_node(NodeSpec::cpu("n1", 8000, 32768));
//! kube.create_deployment(&mut sim, "api", 1,
//!     PodSpec::new("api", ContainerSpec::new("m", ImageRef::microservice("api"), "pause")));
//! sim.run_for(SimDuration::from_secs(10));
//!
//! let k = kube.clone();
//! let k2 = kube.clone();
//! let recovery = measure_recovery(
//!     &mut sim,
//!     move |sim| { k.delete_pod(sim, "api-0"); },
//!     move |sim| k2.pod_ready(sim, "api-0"),
//!     SimDuration::from_secs(60),
//! ).expect("pod must recover");
//! assert!(recovery < SimDuration::from_secs(10));
//! ```

// Library code stays quiet and inside the simulation (DESIGN.md §7).
#![warn(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::exit
)]
#![warn(missing_docs)]

use dlaas_kube::{Kube, Labels, PodPhase};
use dlaas_net::{Addr, LatencyModel, Net};
use dlaas_sharedfs::NfsServer;
use dlaas_sim::{Sim, SimDuration, SimRng, TimerHandle};

pub mod marks;

use marks::{chaos_monkey, faults};

/// Arms a one-shot trigger: polls `pred` every `period` and, the first
/// time it returns `true`, fires `action` exactly once and stops polling.
///
/// The action runs up to a `period` after the state arose, so it suits
/// a state no component marks — a pod back up, a job's iteration. A
/// fault at a step a component marks (the fault matrix's Guardian steps)
/// is armed with a mark tap (`Sim::tap`), which queues it at the mark's
/// instant.
/// Returns the timer handle so a caller can disarm an un-fired trigger.
pub fn when(
    sim: &mut Sim,
    period: SimDuration,
    label: &'static str,
    mut pred: impl FnMut(&Sim) -> bool + 'static,
    action: impl FnOnce(&mut Sim) + 'static,
) -> TimerHandle {
    let mut action = Some(action);
    dlaas_sim::every(sim, period, move |sim, _n| {
        if !pred(sim) {
            return true;
        }
        if let Some(act) = action.take() {
            sim.mark(&faults::TRIGGER_FIRED, label, 0);
            act(sim);
        }
        false
    })
}

/// Splits `net` into isolated `groups` for `duration`, then heals it.
/// Addresses absent from every group keep full connectivity to each
/// other but not to any group (see [`Net::partition`]).
pub fn partition_window<M: 'static>(
    sim: &mut Sim,
    net: &Net<M>,
    groups: Vec<Vec<Addr>>,
    duration: SimDuration,
) {
    sim.mark(&faults::PARTITION, "net", duration.as_micros());
    net.partition(sim, groups);
    let net = net.clone();
    sim.schedule_in(duration, move |sim| {
        sim.mark(&faults::PARTITION_HEALED, "net", 0);
        net.heal(sim);
    });
}

/// Replaces `net`'s latency model with `model` for `duration`, then
/// restores the model that was in effect when the window opened.
pub fn latency_window<M: 'static>(
    sim: &mut Sim,
    net: &Net<M>,
    model: LatencyModel,
    duration: SimDuration,
) {
    let restore = net.latency();
    sim.mark(&faults::LATENCY_DEGRADED, "net", duration.as_micros());
    net.set_latency(sim, model);
    let net = net.clone();
    sim.schedule_in(duration, move |sim| {
        sim.mark(&faults::LATENCY_RESTORED, "net", 0);
        net.set_latency(sim, restore);
    });
}

/// Makes the NFS data plane unavailable for `duration`, then restores it.
/// Mounted handles survive the outage; only operations during the window
/// fail (see `dlaas_sharedfs::NfsError::Unavailable`).
pub fn nfs_outage_window(sim: &mut Sim, nfs: &NfsServer, duration: SimDuration) {
    sim.mark(&faults::OUTAGE, "nfs", duration.as_micros());
    nfs.set_available(sim, false);
    let nfs = nfs.clone();
    sim.schedule_in(duration, move |sim| {
        sim.mark(&faults::RESTORED, "nfs", 0);
        nfs.set_available(sim, true);
    });
}

/// Injects `fault`, then runs the simulation until `recovered` returns
/// `true`, and reports the elapsed simulated time. Returns `None` when the
/// deadline passes first.
pub fn measure_recovery(
    sim: &mut Sim,
    fault: impl FnOnce(&mut Sim),
    mut recovered: impl FnMut(&Sim) -> bool,
    timeout: SimDuration,
) -> Option<SimDuration> {
    let start = sim.now();
    let deadline = start + timeout;
    fault(sim);
    loop {
        if recovered(sim) {
            return Some(sim.now() - start);
        }
        match sim.peek_time() {
            Some(t) if t <= deadline => {
                sim.step();
            }
            _ => {
                // Quiet period: some recovery conditions (e.g. readiness)
                // are time thresholds rather than events — tick the clock
                // forward until the deadline.
                if sim.now() >= deadline {
                    return None;
                }
                let next = (sim.now() + SimDuration::from_millis(50)).min(deadline);
                sim.run_until(next);
            }
        }
    }
}

/// Aggregates recovery times across trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    samples: Vec<SimDuration>,
}

impl RecoveryStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, d: SimDuration) {
        self.samples.push(d);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples, in insertion order — what a campaign replays
    /// into an aggregate histogram after its sorted merge.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<SimDuration> {
        self.samples.iter().min().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples.iter().max().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            None
        } else {
            let total: u64 = self.samples.iter().map(|d| d.as_micros()).sum();
            Some(SimDuration::from_micros(total / self.samples.len() as u64))
        }
    }

    /// Formats as `"min-max s"` the way the paper's Fig. 4 reports ranges.
    pub fn range_secs(&self) -> String {
        match (self.min(), self.max()) {
            (Some(lo), Some(hi)) => format!("{:.1}-{:.1}s", lo.as_secs_f64(), hi.as_secs_f64()),
            _ => "n/a".to_owned(),
        }
    }
}

/// Recurring probabilistic pod crashes against a label selector.
#[derive(Debug)]
pub struct ChaosMonkey {
    handle: TimerHandle,
}

impl ChaosMonkey {
    /// Every `period`, with probability `p`, crashes one random Running
    /// pod matching `selector`.
    pub fn unleash(
        sim: &mut Sim,
        kube: &Kube,
        selector: Labels,
        period: SimDuration,
        p: f64,
    ) -> Self {
        let kube = kube.clone();
        let mut rng: SimRng = sim.rng().fork("chaos-monkey");
        let handle = dlaas_sim::every(sim, period, move |sim, _n| {
            if !rng.chance(p) {
                return true;
            }
            let candidates: Vec<String> = kube
                .pods_matching(&selector)
                .into_iter()
                .filter(|p| kube.pod_phase(p) == Some(PodPhase::Running))
                .collect();
            if let Some(victim) = rng.choose(&candidates).cloned() {
                sim.mark(&chaos_monkey::CRASH, victim.as_str(), 0);
                kube.crash_pod(sim, &victim);
            }
            true
        });
        ChaosMonkey { handle }
    }

    /// Stops the chaos.
    pub fn stop(&self) {
        self.handle.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlaas_kube::{
        labels, BehaviorRegistry, ContainerSpec, ImageRef, KubeConfig, NodeSpec, PodSpec,
    };
    use dlaas_sim::SimTime;

    fn boot(seed: u64) -> (Sim, Kube) {
        let mut sim = Sim::new(seed);
        let registry = BehaviorRegistry::new();
        registry.register_noop("pause");
        let kube = Kube::new(&mut sim, KubeConfig, registry);
        kube.add_node(NodeSpec::cpu("n1", 16000, 65536));
        kube.add_node(NodeSpec::cpu("n2", 16000, 65536));
        (sim, kube)
    }

    fn pod(name: &str) -> PodSpec {
        PodSpec::new(
            name,
            ContainerSpec::new("m", ImageRef::microservice("svc"), "pause"),
        )
        .with_labels(labels! {"app" => "svc"})
    }

    #[test]
    fn recovery_exactly_at_deadline_is_reported() {
        use std::cell::Cell;
        use std::rc::Rc;
        let (mut sim, _kube) = boot(12);
        sim.run_for(SimDuration::from_secs(5));
        let timeout = SimDuration::from_secs(10);
        let deadline = sim.now() + timeout;
        let flag = Rc::new(Cell::new(false));
        let flag2 = flag.clone();
        let r = measure_recovery(
            &mut sim,
            move |sim| {
                sim.schedule_at(deadline, move |_sim| flag2.set(true));
            },
            move |_sim| flag.get(),
            timeout,
        );
        assert_eq!(r, Some(timeout), "predicate true at the deadline counts");
    }

    #[test]
    fn when_trigger_fires_exactly_once() {
        use std::cell::Cell;
        use std::rc::Rc;
        let (mut sim, kube) = boot(13);
        kube.create_deployment(&mut sim, "svc", 1, pod("svc"));
        let fired = Rc::new(Cell::new(0u32));
        let fired2 = fired.clone();
        let k = kube.clone();
        when(
            &mut sim,
            SimDuration::from_millis(100),
            "svc-0 ready",
            move |sim| k.pod_ready(sim, "svc-0"),
            move |_sim| fired2.set(fired2.get() + 1),
        );
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(fired.get(), 1, "one-shot trigger must fire exactly once");
    }

    #[test]
    fn when_trigger_can_be_disarmed() {
        use std::cell::Cell;
        use std::rc::Rc;
        let (mut sim, _kube) = boot(14);
        let fired = Rc::new(Cell::new(false));
        let fired2 = fired.clone();
        let handle = when(
            &mut sim,
            SimDuration::from_secs(1),
            "after 5s",
            |sim| sim.now() >= SimTime::from_secs(5),
            move |_sim| fired2.set(true),
        );
        sim.run_for(SimDuration::from_secs(2));
        handle.cancel();
        sim.run_for(SimDuration::from_secs(60));
        assert!(!fired.get(), "disarmed trigger must not fire");
    }

    #[test]
    fn partition_window_heals_itself() {
        use std::cell::Cell;
        use std::rc::Rc;
        let mut sim = Sim::new(15);
        let net: Net<&'static str> = Net::new(
            &mut sim,
            dlaas_net::LatencyModel::Fixed(SimDuration::from_millis(1)),
        );
        let got = Rc::new(Cell::new(0u32));
        let got2 = got.clone();
        net.register(Addr::new("b"), move |_sim, _env| got2.set(got2.get() + 1));
        net.register(Addr::new("a"), |_sim, _env| {});

        partition_window(
            &mut sim,
            &net,
            vec![vec![Addr::new("a")], vec![Addr::new("b")]],
            SimDuration::from_secs(10),
        );
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), "during");
        sim.run_for(SimDuration::from_secs(11));
        assert_eq!(got.get(), 0, "partitioned message must be dropped");
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), "after");
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(got.get(), 1, "healed network must deliver again");
    }

    #[test]
    fn latency_window_restores_previous_model() {
        let mut sim = Sim::new(16);
        let base = dlaas_net::LatencyModel::Fixed(SimDuration::from_millis(1));
        let net: Net<&'static str> = Net::new(&mut sim, base.clone());
        latency_window(
            &mut sim,
            &net,
            dlaas_net::LatencyModel::Fixed(SimDuration::from_millis(250)),
            SimDuration::from_secs(5),
        );
        assert_eq!(
            net.latency(),
            dlaas_net::LatencyModel::Fixed(SimDuration::from_millis(250))
        );
        sim.run_for(SimDuration::from_secs(6));
        assert_eq!(net.latency(), base, "original model must be restored");
    }

    #[test]
    fn nfs_outage_window_restores_availability() {
        let mut sim = Sim::new(17);
        let nfs = NfsServer::new();
        nfs.create_volume("v");
        let mount = nfs.mount("v").unwrap();
        nfs_outage_window(&mut sim, &nfs, SimDuration::from_secs(10));
        assert!(!nfs.is_available());
        assert!(mount.write_file(&mut sim, "f", "x").is_err());
        sim.run_for(SimDuration::from_secs(11));
        assert!(nfs.is_available());
        assert!(mount.write_file(&mut sim, "f", "x").is_ok());
    }

    #[test]
    fn measure_recovery_returns_elapsed() {
        let (mut sim, kube) = boot(4);
        kube.create_deployment(&mut sim, "svc", 1, pod("svc"));
        sim.run_for(SimDuration::from_secs(10));
        let k = kube.clone();
        let k2 = kube.clone();
        let r = measure_recovery(
            &mut sim,
            move |sim| {
                k.delete_pod(sim, "svc-0");
            },
            move |sim| k2.pod_ready(sim, "svc-0"),
            SimDuration::from_secs(60),
        )
        .unwrap();
        assert!(r > SimDuration::from_millis(500));
        assert!(r < SimDuration::from_secs(10));
    }

    #[test]
    fn measure_recovery_times_out() {
        let (mut sim, kube) = boot(5);
        kube.create_pod(
            &mut sim,
            pod("solo").with_restart_policy(dlaas_kube::RestartPolicy::Never),
        );
        sim.run_for(SimDuration::from_secs(10));
        let k = kube.clone();
        let k2 = kube.clone();
        let r = measure_recovery(
            &mut sim,
            move |sim| {
                k.crash_pod(sim, "solo");
            },
            move |sim| k2.pod_ready(sim, "solo"),
            SimDuration::from_secs(30),
        );
        assert_eq!(r, None, "Never-restart pod cannot recover");
    }

    #[test]
    fn stats_samples_expose_insertion_order() {
        let mut st = RecoveryStats::new();
        st.push(SimDuration::from_secs(5));
        st.push(SimDuration::from_secs(3));
        assert_eq!(
            st.samples(),
            &[SimDuration::from_secs(5), SimDuration::from_secs(3)]
        );
    }

    #[test]
    fn stats_aggregate() {
        let mut st = RecoveryStats::new();
        assert!(st.is_empty());
        assert_eq!(st.mean(), None);
        st.push(SimDuration::from_secs(3));
        st.push(SimDuration::from_secs(5));
        st.push(SimDuration::from_secs(4));
        assert_eq!(st.len(), 3);
        assert_eq!(st.min(), Some(SimDuration::from_secs(3)));
        assert_eq!(st.max(), Some(SimDuration::from_secs(5)));
        assert_eq!(st.mean(), Some(SimDuration::from_secs(4)));
        assert_eq!(st.range_secs(), "3.0-5.0s");
        assert_eq!(RecoveryStats::new().range_secs(), "n/a");
    }

    #[test]
    fn chaos_monkey_crashes_and_cluster_recovers() {
        let (mut sim, kube) = boot(6);
        kube.create_deployment(&mut sim, "svc", 3, pod("svc"));
        sim.run_for(SimDuration::from_secs(10));

        let monkey = ChaosMonkey::unleash(
            &mut sim,
            &kube,
            labels! {"app" => "svc"},
            SimDuration::from_secs(10),
            0.7,
        );
        sim.run_for(SimDuration::from_secs(120));
        monkey.stop();
        let total_restarts: u32 = (0..3)
            .map(|i| kube.pod_restarts(&format!("svc-{i}")).unwrap_or(0))
            .sum();
        assert!(total_restarts > 0, "monkey must have struck at least once");

        // After the monkey stops everything converges back to Running.
        sim.run_for(SimDuration::from_secs(600));
        for i in 0..3 {
            assert!(
                kube.pod_ready(&sim, &format!("svc-{i}")),
                "svc-{i} not recovered"
            );
        }
    }

    #[test]
    fn chaos_monkey_determinism() {
        fn run(seed: u64) -> u32 {
            let (mut sim, kube) = boot(seed);
            kube.create_deployment(&mut sim, "svc", 3, pod("svc"));
            sim.run_for(SimDuration::from_secs(10));
            let _m = ChaosMonkey::unleash(
                &mut sim,
                &kube,
                labels! {"app" => "svc"},
                SimDuration::from_secs(5),
                0.5,
            );
            sim.run_for(SimDuration::from_secs(200));
            (0..3)
                .map(|i| kube.pod_restarts(&format!("svc-{i}")).unwrap_or(0))
                .sum()
        }
        assert_eq!(run(9), run(9));
    }
}
