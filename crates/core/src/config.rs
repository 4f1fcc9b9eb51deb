//! Platform-wide configuration: the four knobs an experiment varies, and
//! the fixed timings and sizes of the deployment the paper evaluates.

use dlaas_sim::SimDuration;

/// API service replicas behind the K8s service.
pub const API_REPLICAS: u32 = 2;
/// Number of job-space shards the LCM replicas partition between
/// themselves (job id hash modulo this).
pub const LCM_SHARDS: u32 = 8;
/// TTL of each LCM replica's etcd lease. A replica that cannot refresh
/// within this window loses its shards to the survivors.
pub const LCM_LEASE_TTL: SimDuration = SimDuration::from_secs(10);
/// How often each replica refreshes its lease (leaves several attempts
/// per TTL).
pub const LCM_LEASE_KEEPALIVE: SimDuration = SimDuration::from_secs(3);
/// K8s Job backoff limit for the Guardian pod itself.
pub const GUARDIAN_BACKOFF_LIMIT: u32 = 8;
/// Learner crash budget before the controller declares the job failed.
pub const LEARNER_MAX_FAILURES: u32 = 5;
/// Latency of each Guardian deployment step (K8s API round trip +
/// admission).
pub const GUARDIAN_STEP_LATENCY: SimDuration = SimDuration::from_millis(180);
/// Guardian's backstop period: the etcd watch drives monitoring; this
/// often it re-registers the watch, re-lists the job's keys, mirrors
/// progress and checks for an external kill.
pub const GUARDIAN_POLL: SimDuration = SimDuration::from_secs(30);
/// Controller's NFS poll period.
pub const CONTROLLER_POLL: SimDuration = SimDuration::from_millis(1_000);
/// Log-collector flush period.
pub const LOG_FLUSH: SimDuration = SimDuration::from_millis(2_000);
/// LCM background scan period (redeploy lost jobs, GC, watchdog).
pub const LCM_SCAN: SimDuration = SimDuration::from_secs(20);
/// Age after which a still-PENDING job is re-deployed by the scan.
pub const PENDING_REDEPLOY_AFTER: SimDuration = SimDuration::from_secs(45);
/// How long a job may sit in DEPLOYING before the scan declares it
/// undeployable (e.g. it requests GPUs the cluster does not have) and
/// fails it with full cleanup.
pub const DEPLOY_TIMEOUT: SimDuration = SimDuration::from_mins(30);
/// Fairness bound: a QUEUED job that waits longer than this while its
/// tenant has quota headroom for it is a starvation invariant violation
/// (the admission arbiter runs every [`LCM_SCAN`], so this covers several
/// sweeps plus arbiter-failover time).
pub const ADMISSION_STARVATION_BOUND: SimDuration = SimDuration::from_mins(5);
/// Learner progress-report period.
pub const LEARNER_REPORT: SimDuration = SimDuration::from_millis(2_000);
/// How often, and how far apart, a starting learner tries to read its
/// checkpoint from an object store that does not answer before it exits
/// non-zero (and Kubernetes restarts it).
pub const LEARNER_RESTORE_ATTEMPTS: u32 = 30;
/// See [`LEARNER_RESTORE_ATTEMPTS`].
pub const LEARNER_RESTORE_RETRY: SimDuration = SimDuration::from_millis(1_000);
/// RPC deadline for service-to-service calls.
pub const RPC_TIMEOUT: SimDuration = SimDuration::from_millis(800);
/// Cold start of the API process (Go binary + config + registrations).
pub const API_COLD_START: SimDuration = SimDuration::from_millis(1_600);
/// Cold start of the LCM process.
pub const LCM_COLD_START: SimDuration = SimDuration::from_millis(2_400);
/// Cold start of the Guardian process (tiny Go binary).
pub const GUARDIAN_COLD_START: SimDuration = SimDuration::from_millis(250);
/// Cold start of each helper container.
pub const HELPER_COLD_START: SimDuration = SimDuration::from_millis(900);

// What the constants above must satisfy among themselves.
const _: () = {
    assert!(API_REPLICAS > 0 && LCM_SHARDS > 0);
    assert!(
        LCM_LEASE_KEEPALIVE.as_micros() * 2 < LCM_LEASE_TTL.as_micros(),
        "several keepalive attempts must fit in one lease TTL"
    );
    assert!(
        LCM_SCAN.as_micros() < PENDING_REDEPLOY_AFTER.as_micros()
            && PENDING_REDEPLOY_AFTER.as_micros() < DEPLOY_TIMEOUT.as_micros(),
        "a scan must pass before a redeploy, and a redeploy before the deploy timeout"
    );
    assert!(
        ADMISSION_STARVATION_BOUND.as_micros() >= LCM_SCAN.as_micros() * 3,
        "the starvation bound must cover at least 3 LCM sweeps"
    );
};

/// The tunables of the DLaaS control plane that some experiment varies;
/// everything else about the deployment the paper evaluates (2 API
/// replicas, lease-sharded LCM, 3-way etcd, journaled Mongo, the
/// periods and cold starts) is a constant of this module.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// LCM replicas. With more than one, the job space is partitioned
    /// into [`LCM_SHARDS`] shards and each replica sweeps only the shards
    /// it owns via an etcd lease + CAS owner key.
    pub lcm_replicas: u32,
    /// Guardian deployment attempts before the job is marked FAILED
    /// ("a (configurable) number of times before the Guardian gives up",
    /// §III-d).
    pub deploy_max_attempts: u32,
    /// Fraction of learner-node compute stolen by co-located helpers.
    pub helper_steal: f64,
    /// Run-to-run throughput jitter of a training job (fraction; models
    /// clocks/thermal/placement noise between otherwise identical runs).
    pub throughput_jitter: f64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            lcm_replicas: 2,
            deploy_max_attempts: 3,
            helper_steal: 0.008,
            throughput_jitter: 0.02,
        }
    }
}

impl CoreConfig {
    /// Validates the fields.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.lcm_replicas == 0 {
            return Err("lcm_replicas must be positive".into());
        }
        if self.deploy_max_attempts == 0 {
            return Err("deploy_max_attempts must be positive".into());
        }
        if !(0.0..0.5).contains(&self.helper_steal) {
            return Err("helper_steal must be in [0, 0.5)".into());
        }
        if !(0.0..0.5).contains(&self.throughput_jitter) {
            return Err("throughput_jitter must be in [0, 0.5)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CoreConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_values() {
        let c = CoreConfig {
            lcm_replicas: 0,
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CoreConfig {
            deploy_max_attempts: 0,
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CoreConfig {
            helper_steal: 0.9,
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CoreConfig {
            throughput_jitter: -0.1,
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
