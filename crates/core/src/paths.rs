//! Naming conventions shared by the platform's components: Kubernetes
//! resource names, etcd key layout, NFS file layout and object-store keys.
//!
//! Centralized here because the Guardian's rollback (§III-d) works by
//! deleting "everything named after job X" — the names must line up
//! across components and across Guardian incarnations.

use crate::job::JobId;

/// NFS volume for a job.
pub fn volume(job: &JobId) -> String {
    format!("vol-{job}")
}

/// Helper Deployment name (`-0` suffix for its single pod).
pub fn helper_deployment(job: &JobId) -> String {
    format!("helper-{job}")
}

/// The helper pod's name.
pub fn helper_pod(job: &JobId) -> String {
    format!("helper-{job}-0")
}

/// Learner StatefulSet name.
pub fn learner_set(job: &JobId) -> String {
    format!("learner-{job}")
}

/// Learner pod name for an ordinal.
pub fn learner_pod(job: &JobId, ordinal: u32) -> String {
    format!("learner-{job}-{ordinal}")
}

/// Guardian Kubernetes Job (and its pod) name.
pub fn guardian_job(job: &JobId) -> String {
    format!("guardian-{job}")
}

/// Per-job network policy name.
pub fn network_policy(job: &JobId) -> String {
    format!("netpol-{job}")
}

/// etcd prefix for everything about a job.
pub fn etcd_job_prefix(job: &JobId) -> String {
    format!("{ETCD_JOBS_PREFIX}{job}/")
}

/// etcd key for one learner's status.
pub fn etcd_learner(job: &JobId, ordinal: u32) -> String {
    format!("jobs/{job}/learners/{ordinal}")
}

/// etcd key for cumulative learner restarts.
pub fn etcd_restarts(job: &JobId) -> String {
    format!("jobs/{job}/restarts")
}

/// etcd key coordinating the store-results phase (`"go"` / `"done"`).
pub fn etcd_store(job: &JobId) -> String {
    format!("jobs/{job}/store")
}

/// etcd key marking training data availability.
pub fn etcd_data(job: &JobId) -> String {
    format!("jobs/{job}/data")
}

/// etcd key for the measured throughput (written by the controller from
/// the learners' final reports).
pub fn etcd_throughput(job: &JobId) -> String {
    format!("jobs/{job}/throughput")
}

/// The job whose [`volume`] is named `name`, if it is one.
pub fn volume_job(name: &str) -> Option<&str> {
    name.strip_prefix("vol-")
}

/// The job whose [`network_policy`] is named `name`, if it is one.
pub fn network_policy_job(name: &str) -> Option<&str> {
    name.strip_prefix("netpol-")
}

/// etcd prefix under which every job's [`etcd_job_prefix`] lives.
pub const ETCD_JOBS_PREFIX: &str = "jobs/";

/// The job under whose [`etcd_job_prefix`] `key` lives, if any (job ids
/// hold no `/`).
pub fn etcd_key_job(key: &str) -> Option<&str> {
    let (job, _) = key.strip_prefix(ETCD_JOBS_PREFIX)?.split_once('/')?;
    Some(job)
}

/// What a key under [`etcd_job_prefix`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKey {
    /// [`etcd_learner`] of this ordinal.
    Learner(u32),
    /// [`etcd_restarts`].
    Restarts,
    /// [`etcd_store`].
    Store,
    /// [`etcd_data`].
    Data,
    /// [`etcd_throughput`].
    Throughput,
}

/// Classifies an etcd key of `job` (the inverse of the `etcd_*`
/// constructors above); `None` for anything else.
pub fn parse_etcd_job_key(job: &JobId, key: &str) -> Option<JobKey> {
    let rest = key
        .strip_prefix("jobs/")?
        .strip_prefix(job.as_str())?
        .strip_prefix('/')?;
    if let Some(ordinal) = rest.strip_prefix("learners/") {
        return ordinal.parse().ok().map(JobKey::Learner);
    }
    match rest {
        "restarts" => Some(JobKey::Restarts),
        "store" => Some(JobKey::Store),
        "data" => Some(JobKey::Data),
        "throughput" => Some(JobKey::Throughput),
        _ => None,
    }
}

/// etcd key naming the owner of LCM shard `shard` (value = replica pod
/// name, attached to that replica's lease so it vanishes on expiry). The
/// LCM has one shard: `lcm_shard_owner(0)` is the leader key. The name
/// and the argument stay because the benchmark package reads the key
/// through them to find the leader.
pub fn lcm_shard_owner(shard: u32) -> String {
    format!("lcm/shards/{shard:03}")
}

/// NFS: the job spec the Guardian drops for learners & helpers.
pub const NFS_JOBSPEC: &str = "control/jobspec.json";
/// NFS: marker that the training data is staged.
pub const NFS_DATA_LOADED: &str = "data/loaded";
/// NFS: controller tells store-results to begin.
pub const NFS_STORE_GO: &str = "control/store-go";
/// NFS: store-results reports completion.
pub const NFS_STORE_DONE: &str = "control/store-done";

/// NFS: a learner's status file.
pub fn nfs_learner_status(ordinal: u32) -> String {
    format!("learner-{ordinal}/status")
}

/// NFS: a learner's exit-status file ("exit status redirected to a file",
/// §III-e).
pub fn nfs_learner_exit(ordinal: u32) -> String {
    format!("learner-{ordinal}/exit-status")
}

/// NFS: a learner's restart counter.
pub fn nfs_learner_restarts(ordinal: u32) -> String {
    format!("learner-{ordinal}/restarts")
}

/// NFS: a learner's training log.
pub fn nfs_learner_log(ordinal: u32) -> String {
    format!("learner-{ordinal}/train.log")
}

/// NFS: a learner's measured-throughput report.
pub fn nfs_learner_throughput(ordinal: u32) -> String {
    format!("learner-{ordinal}/images-per-sec")
}

/// One learner's files on the job volume, formatted once: what a process
/// that touches them every tick (the learner itself, the controller, the
/// log collector) keeps for its lifetime instead of calling the
/// `nfs_learner_*` functions per access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnerFiles {
    /// [`nfs_learner_status`].
    pub status: String,
    /// [`nfs_learner_exit`].
    pub exit: String,
    /// [`nfs_learner_restarts`].
    pub restarts: String,
    /// [`nfs_learner_log`].
    pub log: String,
    /// [`nfs_learner_throughput`].
    pub throughput: String,
}

impl LearnerFiles {
    /// The files of learner `ordinal`.
    pub fn new(ordinal: u32) -> Self {
        LearnerFiles {
            status: nfs_learner_status(ordinal),
            exit: nfs_learner_exit(ordinal),
            restarts: nfs_learner_restarts(ordinal),
            log: nfs_learner_log(ordinal),
            throughput: nfs_learner_throughput(ordinal),
        }
    }
}

/// Object store: uploaded log for a learner (in the results bucket).
pub fn obj_log(job: &JobId, ordinal: u32) -> String {
    format!("logs/{job}/learner-{ordinal}.log")
}

/// Object store: checkpoint metadata (iteration number, text).
pub fn obj_ckpt_meta(job: &JobId) -> String {
    format!("ckpt/{job}/meta")
}

/// Object store: checkpoint weights (synthetic bytes).
pub fn obj_ckpt_data(job: &JobId) -> String {
    format!("ckpt/{job}/data")
}

/// Object store: final trained model.
pub fn obj_result_model(job: &JobId) -> String {
    format!("results/{job}/model")
}

/// The key of the staged training-data object within the data bucket.
pub fn obj_dataset(prefix: &str) -> String {
    format!("{prefix}data")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_embed_the_job_id() {
        let j = JobId::new("job-7");
        for name in [
            volume(&j),
            helper_deployment(&j),
            helper_pod(&j),
            learner_set(&j),
            learner_pod(&j, 2),
            guardian_job(&j),
            network_policy(&j),
            etcd_job_prefix(&j),
            etcd_learner(&j, 0),
            etcd_restarts(&j),
            etcd_store(&j),
            obj_log(&j, 1),
            obj_ckpt_meta(&j),
            obj_result_model(&j),
        ] {
            assert!(name.contains("job-7"), "{name}");
        }
    }

    #[test]
    fn job_keys_parse_back() {
        let j = JobId::new("x");
        let key = |k: &str| parse_etcd_job_key(&j, k);
        assert_eq!(key(&etcd_learner(&j, 3)), Some(JobKey::Learner(3)));
        assert_eq!(key(&etcd_restarts(&j)), Some(JobKey::Restarts));
        assert_eq!(key(&etcd_store(&j)), Some(JobKey::Store));
        assert_eq!(key(&etcd_data(&j)), Some(JobKey::Data));
        assert_eq!(key(&etcd_throughput(&j)), Some(JobKey::Throughput));
        assert!(etcd_learner(&j, 3).starts_with(&etcd_job_prefix(&j)));
        assert_eq!(key(&etcd_job_prefix(&j)), None);
        assert_eq!(key(&etcd_store(&JobId::new("xy"))), None);
        assert_eq!(key("jobs/x/learners/abc"), None);
    }

    #[test]
    fn resource_names_lead_back_to_their_job() {
        let j = JobId::new("auto-17");
        assert_eq!(volume_job(&volume(&j)), Some("auto-17"));
        assert_eq!(network_policy_job(&network_policy(&j)), Some("auto-17"));
        assert_eq!(etcd_key_job(&etcd_learner(&j, 2)), Some("auto-17"));
        assert_eq!(etcd_key_job(&etcd_store(&j)), Some("auto-17"));
        assert!(etcd_job_prefix(&j).starts_with(ETCD_JOBS_PREFIX));
        assert_eq!(volume_job("scratch"), None);
        assert_eq!(network_policy_job(&volume(&j)), None);
        assert_eq!(etcd_key_job(&lcm_shard_owner(1)), None);
        assert_eq!(
            etcd_key_job("jobs/auto-17"),
            None,
            "not under the job's prefix"
        );
        let files = LearnerFiles::new(3);
        assert_eq!(files.status, nfs_learner_status(3));
        assert_eq!(files.exit, nfs_learner_exit(3));
        assert_eq!(files.restarts, nfs_learner_restarts(3));
        assert_eq!(files.log, nfs_learner_log(3));
        assert_eq!(files.throughput, nfs_learner_throughput(3));
    }

    #[test]
    fn helper_pod_is_first_replica_of_its_deployment() {
        let j = JobId::new("y");
        assert_eq!(helper_pod(&j), format!("{}-0", helper_deployment(&j)));
        assert_eq!(learner_pod(&j, 4), format!("{}-4", learner_set(&j)));
    }

    #[test]
    fn dataset_key() {
        assert_eq!(obj_dataset("imagenet/"), "imagenet/data");
        assert_eq!(obj_dataset(""), "data");
    }

    #[test]
    fn shard_owner_keys_sort_with_the_prefix() {
        assert_eq!(lcm_shard_owner(3), "lcm/shards/003");
        assert_eq!(lcm_shard_owner(0), "lcm/shards/000", "the leader key");
        // Zero-padded so key order equals shard order up to 999 shards.
        assert!(lcm_shard_owner(2) < lcm_shard_owner(10));
    }
}
