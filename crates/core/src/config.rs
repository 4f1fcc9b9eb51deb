//! Platform-wide configuration.

use dlaas_sim::SimDuration;

/// Tunables of the DLaaS control plane (defaults match the deployment the
/// paper evaluates: 2 API replicas, replicated LCM with lease-sharded
/// job ownership, 3-way etcd, journaled Mongo).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// API service replicas behind the K8s service.
    pub api_replicas: u32,
    /// LCM replicas. With more than one, the job space is partitioned
    /// into [`CoreConfig::lcm_shards`] shards and each replica sweeps
    /// only the shards it owns via an etcd lease + CAS owner key.
    pub lcm_replicas: u32,
    /// Number of job-space shards the LCM replicas partition between
    /// themselves (job id hash modulo this).
    pub lcm_shards: u32,
    /// TTL of each LCM replica's etcd lease. A replica that cannot
    /// refresh within this window loses its shards to the survivors.
    pub lcm_lease_ttl: SimDuration,
    /// How often each replica refreshes its lease (must leave several
    /// attempts per TTL, so `< lcm_lease_ttl / 2`).
    pub lcm_lease_keepalive: SimDuration,
    /// Guardian deployment attempts before the job is marked FAILED
    /// ("a (configurable) number of times before the Guardian gives up",
    /// §III-d).
    pub deploy_max_attempts: u32,
    /// K8s Job backoff limit for the Guardian pod itself.
    pub guardian_backoff_limit: u32,
    /// Learner crash budget before the controller declares the job failed.
    pub learner_max_failures: u32,
    /// Latency of each Guardian deployment step (K8s API round trip +
    /// admission).
    pub guardian_step_latency: SimDuration,
    /// Guardian's backstop period: the etcd watch drives monitoring; this
    /// often it re-registers the watch, re-lists the job's keys, mirrors
    /// progress and checks for an external kill.
    pub guardian_poll: SimDuration,
    /// Controller's NFS poll period.
    pub controller_poll: SimDuration,
    /// Log-collector flush period.
    pub log_flush: SimDuration,
    /// LCM background scan period (redeploy lost jobs, GC, watchdog).
    pub lcm_scan: SimDuration,
    /// Age after which a still-PENDING job is re-deployed by the scan.
    pub pending_redeploy_after: SimDuration,
    /// How long a job may sit in DEPLOYING before the scan declares it
    /// undeployable (e.g. it requests GPUs the cluster does not have) and
    /// fails it with full cleanup.
    pub deploy_timeout: SimDuration,
    /// Fairness bound: a QUEUED job that waits longer than this while its
    /// tenant has quota headroom for it is a starvation invariant
    /// violation (the admission arbiter runs every `lcm_scan`, so this
    /// must cover several sweeps plus arbiter-failover time).
    pub admission_starvation_bound: SimDuration,
    /// Learner progress-report period.
    pub learner_report: SimDuration,
    /// RPC deadline for service-to-service calls.
    pub rpc_timeout: SimDuration,
    /// Cold start of the API process (Go binary + config + registrations).
    pub api_cold_start: SimDuration,
    /// Cold start of the LCM process.
    pub lcm_cold_start: SimDuration,
    /// Cold start of the Guardian process (tiny Go binary).
    pub guardian_cold_start: SimDuration,
    /// Cold start of each helper container.
    pub helper_cold_start: SimDuration,
    /// Fraction of learner-node compute stolen by co-located helpers.
    pub helper_steal: f64,
    /// Run-to-run throughput jitter of a training job (fraction; models
    /// clocks/thermal/placement noise between otherwise identical runs).
    pub throughput_jitter: f64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            api_replicas: 2,
            lcm_replicas: 2,
            lcm_shards: 8,
            lcm_lease_ttl: SimDuration::from_secs(10),
            lcm_lease_keepalive: SimDuration::from_secs(3),
            deploy_max_attempts: 3,
            guardian_backoff_limit: 8,
            learner_max_failures: 5,
            guardian_step_latency: SimDuration::from_millis(180),
            guardian_poll: SimDuration::from_secs(30),
            controller_poll: SimDuration::from_millis(1_000),
            log_flush: SimDuration::from_millis(2_000),
            lcm_scan: SimDuration::from_secs(20),
            pending_redeploy_after: SimDuration::from_secs(45),
            deploy_timeout: SimDuration::from_mins(30),
            admission_starvation_bound: SimDuration::from_mins(5),
            learner_report: SimDuration::from_millis(2_000),
            rpc_timeout: SimDuration::from_millis(800),
            api_cold_start: SimDuration::from_millis(1_600),
            lcm_cold_start: SimDuration::from_millis(2_400),
            guardian_cold_start: SimDuration::from_millis(250),
            helper_cold_start: SimDuration::from_millis(900),
            helper_steal: 0.008,
            throughput_jitter: 0.02,
        }
    }
}

impl CoreConfig {
    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.api_replicas == 0 || self.lcm_replicas == 0 {
            return Err("api/lcm replicas must be positive".into());
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
        if self.lcm_shards == 0 {
            return Err("lcm_shards must be positive".into());
        }
        if self.lcm_lease_keepalive * 2 >= self.lcm_lease_ttl {
            return Err("lcm_lease_keepalive must be under half of lcm_lease_ttl".into());
        }
        if self.pending_redeploy_after <= self.lcm_scan {
            return Err("pending_redeploy_after must exceed lcm_scan".into());
        }
        if self.deploy_timeout <= self.pending_redeploy_after {
            return Err("deploy_timeout must exceed pending_redeploy_after".into());
        }
        if self.admission_starvation_bound < self.lcm_scan * 3 {
            return Err("admission_starvation_bound must cover at least 3 LCM sweeps".into());
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
            api_replicas: 0,
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

        let c = CoreConfig {
            pending_redeploy_after: SimDuration::from_secs(1),
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CoreConfig {
            lcm_shards: 0,
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CoreConfig {
            lcm_lease_keepalive: SimDuration::from_secs(6),
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err(), "keepalive must be < ttl/2");

        let c = CoreConfig {
            admission_starvation_bound: SimDuration::from_secs(30),
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err(), "starvation bound must cover sweeps");
    }
}
