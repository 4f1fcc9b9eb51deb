//! The training-job manifest.
//!
//! "Job parameters, including the source of training data, credentials to
//! access training data, framework, number of learners, location where
//! results and logs should be stored, learning rate, etc., are specified
//! using a manifest file." (paper §III-a)

use dlaas_docstore::{obj, Value};
use dlaas_gpu::{DlModel, Framework, GpuKind};

/// Errors found while validating a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError(pub String);

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid manifest: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

/// A validated training-job manifest.
///
/// # Examples
///
/// ```
/// use dlaas_core::TrainingManifest;
/// use dlaas_gpu::{DlModel, Framework, GpuKind};
///
/// let m = TrainingManifest::builder("mnist-vgg")
///     .framework(Framework::Caffe)
///     .model(DlModel::Vgg16)
///     .gpus(GpuKind::K80, 2)
///     .learners(1)
///     .data("training-data", "imagenet/", 50_000_000_000)
///     .results("results")
///     .iterations(10_000)
///     .checkpoint_every(1_000)
///     .build()?;
/// assert_eq!(m.learners, 1);
/// # Ok::<(), dlaas_core::ManifestError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingManifest {
    /// Human-readable job name.
    pub name: String,
    /// DL framework to run.
    pub framework: Framework,
    /// Network architecture (stands in for the user's model definition).
    pub model: DlModel,
    /// GPU type requested.
    pub gpu_kind: GpuKind,
    /// GPUs per learner.
    pub gpus_per_learner: u32,
    /// Number of learner processes.
    pub learners: u32,
    /// Bucket holding training data.
    pub data_bucket: String,
    /// Key prefix of the training data.
    pub data_prefix: String,
    /// Total size of the training data in bytes.
    pub data_bytes: u64,
    /// Bucket for results, checkpoints and logs.
    pub results_bucket: String,
    /// Total training iterations (global steps).
    pub iterations: u64,
    /// Checkpoint every this many iterations (0 = no checkpoints).
    pub checkpoint_every: u64,
    /// Per-GPU minibatch (0 = the model's default).
    pub batch_per_gpu: u32,
    /// Learning rate (carried, not interpreted — the simulation does not
    /// model convergence).
    pub learning_rate: f64,
}

impl TrainingManifest {
    /// Starts building a manifest.
    pub fn builder(name: impl Into<String>) -> TrainingManifestBuilder {
        TrainingManifestBuilder {
            name: name.into(),
            framework: Framework::TensorFlow,
            model: DlModel::Resnet50,
            gpu_kind: GpuKind::K80,
            gpus_per_learner: 1,
            learners: 1,
            data_bucket: String::new(),
            data_prefix: String::new(),
            data_bytes: 0,
            results_bucket: String::new(),
            iterations: 1000,
            checkpoint_every: 0,
            batch_per_gpu: 0,
            learning_rate: 0.01,
        }
    }

    /// Effective per-GPU batch size.
    pub fn effective_batch(&self) -> u32 {
        if self.batch_per_gpu == 0 {
            self.model.batch_per_gpu()
        } else {
            self.batch_per_gpu
        }
    }

    /// Total GPUs requested by the job. The builder and the reader refuse
    /// a manifest whose product does not fit; one whose public fields were
    /// edited past that saturates (and fails [`TrainingManifest::validate`]).
    pub fn total_gpus(&self) -> u32 {
        self.gpus_per_learner.saturating_mul(self.learners)
    }

    /// Re-validates the manifest (public fields may have been edited after
    /// the builder ran; the API service re-checks at submission).
    ///
    /// # Errors
    ///
    /// [`ManifestError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ManifestError> {
        TrainingManifest::builder(self.name.clone())
            .framework(self.framework)
            .model(self.model)
            .gpus(self.gpu_kind, self.gpus_per_learner)
            .learners(self.learners)
            .data(
                self.data_bucket.clone(),
                self.data_prefix.clone(),
                self.data_bytes,
            )
            .results(self.results_bucket.clone())
            .iterations(self.iterations)
            .checkpoint_every(self.checkpoint_every)
            .batch_per_gpu(self.batch_per_gpu)
            .learning_rate(self.learning_rate)
            .build()
            .map(|_| ())
    }

    /// Serializes to the JSON the platform stores on the job's volume.
    pub fn to_json(&self) -> String {
        obj! {
            "name" => self.name.clone(),
            "framework" => self.framework.to_string(),
            "model" => self.model.to_string(),
            "gpu_kind" => self.gpu_kind.to_string(),
            "gpus_per_learner" => self.gpus_per_learner,
            "learners" => self.learners,
            "data_bucket" => self.data_bucket.clone(),
            "data_prefix" => self.data_prefix.clone(),
            "data_bytes" => self.data_bytes,
            "results_bucket" => self.results_bucket.clone(),
            "iterations" => self.iterations,
            "checkpoint_every" => self.checkpoint_every,
            "batch_per_gpu" => self.batch_per_gpu,
            "learning_rate" => self.learning_rate,
        }
        .to_json()
    }

    /// Parses a stored manifest, in one pass over the text that keeps the
    /// values it takes: every container of a job parses the job spec when
    /// it starts.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] when the JSON is malformed, a field is missing or
    /// ill-typed, an integer does not fit its field (a negative count is
    /// refused, not wrapped), or `gpus_per_learner × learners` overflows.
    pub fn from_json(s: &str) -> Result<Self, ManifestError> {
        const FIELDS: usize = 14;
        let mut v: [Value; FIELDS] = Default::default();
        Value::parse_json_fields(s, |key, value| {
            let slot = match key {
                "name" => 0,
                "framework" => 1,
                "model" => 2,
                "gpu_kind" => 3,
                "gpus_per_learner" => 4,
                "learners" => 5,
                "data_bucket" => 6,
                "data_prefix" => 7,
                "data_bytes" => 8,
                "results_bucket" => 9,
                "iterations" => 10,
                "checkpoint_every" => 11,
                "batch_per_gpu" => 12,
                "learning_rate" => 13,
                _ => return,
            };
            v[slot] = value;
        })
        .map_err(|e| ManifestError(e.to_string()))?;
        fn missing(field: &str) -> ManifestError {
            ManifestError(format!("missing or ill-typed field: {field}"))
        }
        fn parsed<T: std::str::FromStr>(v: &Value, field: &str) -> Result<T, ManifestError> {
            v.as_str()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| missing(field))
        }
        let [name, framework, model, gpu_kind, gpus_per_learner, learners, data_bucket, data_prefix, data_bytes, results_bucket, iterations, checkpoint_every, batch_per_gpu, learning_rate] =
            v;
        let string = |v: Value, field: &str| match v {
            Value::Str(s) => Ok(s),
            _ => Err(missing(field)),
        };
        fn int<T: TryFrom<i64>>(v: &Value, field: &str) -> Result<T, ManifestError> {
            let n = v.as_i64().ok_or_else(|| missing(field))?;
            T::try_from(n).map_err(|_| ManifestError(format!("{field} out of range: {n}")))
        }
        let manifest = TrainingManifest {
            name: string(name, "name")?,
            framework: parsed(&framework, "framework")?,
            model: parsed(&model, "model")?,
            gpu_kind: parsed(&gpu_kind, "gpu_kind")?,
            gpus_per_learner: int(&gpus_per_learner, "gpus_per_learner")?,
            learners: int(&learners, "learners")?,
            data_bucket: string(data_bucket, "data_bucket")?,
            data_prefix: string(data_prefix, "data_prefix")?,
            data_bytes: int(&data_bytes, "data_bytes")?,
            results_bucket: string(results_bucket, "results_bucket")?,
            iterations: int(&iterations, "iterations")?,
            checkpoint_every: int(&checkpoint_every, "checkpoint_every")?,
            batch_per_gpu: int(&batch_per_gpu, "batch_per_gpu")?,
            learning_rate: learning_rate
                .as_f64()
                .ok_or_else(|| missing("learning_rate"))?,
        };
        total_gpus(manifest.gpus_per_learner, manifest.learners)?;
        Ok(manifest)
    }
}

/// `gpus_per_learner × learners`, or the error of a manifest whose
/// product does not fit a `u32`.
fn total_gpus(gpus_per_learner: u32, learners: u32) -> Result<u32, ManifestError> {
    gpus_per_learner.checked_mul(learners).ok_or_else(|| {
        ManifestError(format!(
            "gpus_per_learner × learners overflows: {gpus_per_learner} × {learners}"
        ))
    })
}

/// Builder for [`TrainingManifest`].
#[derive(Debug, Clone)]
pub struct TrainingManifestBuilder {
    name: String,
    framework: Framework,
    model: DlModel,
    gpu_kind: GpuKind,
    gpus_per_learner: u32,
    learners: u32,
    data_bucket: String,
    data_prefix: String,
    data_bytes: u64,
    results_bucket: String,
    iterations: u64,
    checkpoint_every: u64,
    batch_per_gpu: u32,
    learning_rate: f64,
}

impl TrainingManifestBuilder {
    /// Sets the framework.
    pub fn framework(mut self, f: Framework) -> Self {
        self.framework = f;
        self
    }

    /// Sets the model.
    pub fn model(mut self, m: DlModel) -> Self {
        self.model = m;
        self
    }

    /// Sets GPU kind and count per learner.
    pub fn gpus(mut self, kind: GpuKind, per_learner: u32) -> Self {
        self.gpu_kind = kind;
        self.gpus_per_learner = per_learner;
        self
    }

    /// Sets the learner count.
    pub fn learners(mut self, n: u32) -> Self {
        self.learners = n;
        self
    }

    /// Sets the training-data source.
    pub fn data(
        mut self,
        bucket: impl Into<String>,
        prefix: impl Into<String>,
        bytes: u64,
    ) -> Self {
        self.data_bucket = bucket.into();
        self.data_prefix = prefix.into();
        self.data_bytes = bytes;
        self
    }

    /// Sets the results bucket.
    pub fn results(mut self, bucket: impl Into<String>) -> Self {
        self.results_bucket = bucket.into();
        self
    }

    /// Sets total iterations.
    pub fn iterations(mut self, n: u64) -> Self {
        self.iterations = n;
        self
    }

    /// Sets the checkpoint interval (iterations; 0 disables).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Overrides the per-GPU batch.
    pub fn batch_per_gpu(mut self, b: u32) -> Self {
        self.batch_per_gpu = b;
        self
    }

    /// Sets the learning rate.
    pub fn learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Validates and builds the manifest.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] describing the first invalid field.
    pub fn build(self) -> Result<TrainingManifest, ManifestError> {
        if self.name.is_empty() {
            return Err(ManifestError("name must not be empty".into()));
        }
        if self.learners == 0 {
            return Err(ManifestError("learners must be at least 1".into()));
        }
        if self.gpus_per_learner == 0 {
            return Err(ManifestError("gpus_per_learner must be at least 1".into()));
        }
        total_gpus(self.gpus_per_learner, self.learners)?;
        // The store keeps integers as `i64`: what is written must read back.
        for (field, n) in [
            ("data_bytes", self.data_bytes),
            ("iterations", self.iterations),
            ("checkpoint_every", self.checkpoint_every),
        ] {
            if i64::try_from(n).is_err() {
                return Err(ManifestError(format!("{field} out of range: {n}")));
            }
        }
        if self.iterations == 0 {
            return Err(ManifestError("iterations must be positive".into()));
        }
        if self.data_bucket.is_empty() {
            return Err(ManifestError("data bucket is required".into()));
        }
        if self.results_bucket.is_empty() {
            return Err(ManifestError("results bucket is required".into()));
        }
        if self.data_bytes == 0 {
            return Err(ManifestError("data_bytes must be positive".into()));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(ManifestError("learning_rate must be positive".into()));
        }
        Ok(TrainingManifest {
            name: self.name,
            framework: self.framework,
            model: self.model,
            gpu_kind: self.gpu_kind,
            gpus_per_learner: self.gpus_per_learner,
            learners: self.learners,
            data_bucket: self.data_bucket,
            data_prefix: self.data_prefix,
            data_bytes: self.data_bytes,
            results_bucket: self.results_bucket,
            iterations: self.iterations,
            checkpoint_every: self.checkpoint_every,
            batch_per_gpu: self.batch_per_gpu,
            learning_rate: self.learning_rate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> TrainingManifestBuilder {
        TrainingManifest::builder("job")
            .data("data", "imagenet/", 1_000_000)
            .results("results")
    }

    #[test]
    fn builder_produces_valid_manifest() {
        let m = valid()
            .framework(Framework::Caffe)
            .model(DlModel::Vgg16)
            .gpus(GpuKind::P100Pcie, 2)
            .learners(4)
            .iterations(5000)
            .checkpoint_every(500)
            .batch_per_gpu(16)
            .learning_rate(0.1)
            .build()
            .unwrap();
        assert_eq!(m.total_gpus(), 8);
        assert_eq!(m.effective_batch(), 16);
        assert_eq!(m.framework, Framework::Caffe);
    }

    #[test]
    fn default_batch_comes_from_model() {
        let m = valid().model(DlModel::Vgg16).build().unwrap();
        assert_eq!(m.effective_batch(), DlModel::Vgg16.batch_per_gpu());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        assert!(TrainingManifest::builder("").build().is_err());
        assert!(valid().learners(0).build().is_err());
        assert!(valid().gpus(GpuKind::K80, 0).build().is_err());
        assert!(valid().iterations(0).build().is_err());
        assert!(valid().learning_rate(-1.0).build().is_err());
        assert!(valid().learning_rate(f64::NAN).build().is_err());
        assert!(
            TrainingManifest::builder("x").results("r").build().is_err(),
            "missing data bucket"
        );
        assert!(
            TrainingManifest::builder("x")
                .data("d", "", 10)
                .build()
                .is_err(),
            "missing results bucket"
        );
        assert!(valid().data("d", "", 0).build().is_err(), "zero data bytes");
    }

    #[test]
    fn json_roundtrip() {
        let m = valid().learners(2).build().unwrap();
        let json = m.to_json();
        let back = TrainingManifest::from_json(&json).unwrap();
        assert_eq!(m, back);
        assert!(TrainingManifest::from_json("{not json").is_err());
    }
}
