//! Neural-network model and framework specifications.

use std::fmt;
use std::str::FromStr;

/// The image-classification benchmarks used in the paper's evaluation
/// (VGG-16, ResNet-50, InceptionV3 — §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DlModel {
    /// VGG-16: huge (138 M parameters), compute- and comm-heavy.
    Vgg16,
    /// ResNet-50: 25.6 M parameters.
    Resnet50,
    /// InceptionV3: 23.9 M parameters, branchy.
    InceptionV3,
}

impl DlModel {
    /// Trainable parameters.
    pub fn params(self) -> u64 {
        match self {
            DlModel::Vgg16 => 138_357_544,
            DlModel::Resnet50 => 25_557_032,
            DlModel::InceptionV3 => 23_851_784,
        }
    }

    /// Gradient bytes exchanged per synchronization (fp32).
    pub fn gradient_bytes(self) -> u64 {
        self.params() * 4
    }

    /// Average stored (JPEG) bytes per training image, as streamed from
    /// the object store.
    pub fn bytes_per_image(self) -> u64 {
        // ImageNet JPEGs average ~110 KB regardless of crop size.
        110 * 1024
    }

    /// Typical per-GPU minibatch used by the benchmark suites.
    pub fn batch_per_gpu(self) -> u32 {
        match self {
            DlModel::Vgg16 => 32,
            DlModel::Resnet50 => 64,
            DlModel::InceptionV3 => 64,
        }
    }

    /// All models (for sweeps).
    pub fn all() -> [DlModel; 3] {
        [DlModel::Vgg16, DlModel::Resnet50, DlModel::InceptionV3]
    }
}

impl fmt::Display for DlModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DlModel::Vgg16 => "VGG-16",
            DlModel::Resnet50 => "ResNet-50",
            DlModel::InceptionV3 => "InceptionV3",
        };
        f.write_str(s)
    }
}

/// Error parsing a [`DlModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError(pub String);

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown model: {}", self.0)
    }
}

impl std::error::Error for ParseModelError {}

impl FromStr for DlModel {
    type Err = ParseModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "vgg16" => Ok(DlModel::Vgg16),
            "resnet50" => Ok(DlModel::Resnet50),
            "inceptionv3" | "inception3" => Ok(DlModel::InceptionV3),
            other => Err(ParseModelError(other.to_owned())),
        }
    }
}

/// The deep-learning frameworks exercised in the evaluation
/// (Caffe v1.0 and TensorFlow v1.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Framework {
    /// Caffe v1.0.
    Caffe,
    /// TensorFlow v1.5.
    TensorFlow,
    /// Torch 7 (supported by DLaaS; not in the paper's tables).
    Torch,
    /// Horovod-style MPI TensorFlow (supported by DLaaS).
    Horovod,
}

impl Framework {
    /// Kernel/runtime efficiency factor relative to the calibration
    /// baseline (TensorFlow). Caffe's single-machine data layer is
    /// slightly leaner on small models but its multi-GPU path overlaps
    /// communication less (see [`Framework::comm_overlap`]).
    pub fn efficiency(self) -> f64 {
        match self {
            Framework::Caffe => 0.97,
            Framework::TensorFlow => 1.0,
            Framework::Torch => 0.98,
            Framework::Horovod => 1.0,
        }
    }

    /// Fraction of gradient communication overlapped with backprop.
    pub fn comm_overlap(self) -> f64 {
        match self {
            Framework::Caffe => 0.30,
            Framework::TensorFlow => 0.50,
            Framework::Torch => 0.35,
            Framework::Horovod => 0.65,
        }
    }

    /// Container image size in bytes (drives image-pull time; the paper
    /// notes Caffe/TensorFlow pods restart slower than GoLang
    /// microservice pods partly for this reason).
    pub fn image_bytes(self) -> u64 {
        match self {
            Framework::Caffe => 3_200_000_000,
            Framework::TensorFlow => 3_800_000_000,
            Framework::Torch => 2_900_000_000,
            Framework::Horovod => 4_200_000_000,
        }
    }

    /// Process start time once the image is local (framework + CUDA init).
    pub fn cold_start_secs(self) -> f64 {
        match self {
            Framework::Caffe => 4.0,
            Framework::TensorFlow => 5.5,
            Framework::Torch => 3.5,
            Framework::Horovod => 6.0,
        }
    }

    /// Whether a restarted worker can rejoin a distributed job and fetch
    /// current parameters from a parameter server / its peers, instead of
    /// falling back to the last checkpoint (paper §III-h, recovery
    /// option 2: "if the DL framework supports this").
    pub fn supports_parameter_server(self) -> bool {
        match self {
            Framework::TensorFlow | Framework::Horovod => true,
            Framework::Caffe | Framework::Torch => false,
        }
    }

    /// All frameworks (for sweeps).
    pub fn all() -> [Framework; 4] {
        [
            Framework::Caffe,
            Framework::TensorFlow,
            Framework::Torch,
            Framework::Horovod,
        ]
    }
}

impl fmt::Display for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Framework::Caffe => "Caffe",
            Framework::TensorFlow => "TensorFlow",
            Framework::Torch => "Torch",
            Framework::Horovod => "Horovod",
        };
        f.write_str(s)
    }
}

/// Error parsing a [`Framework`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFrameworkError(pub String);

impl fmt::Display for ParseFrameworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown framework: {}", self.0)
    }
}

impl std::error::Error for ParseFrameworkError {}

impl FromStr for Framework {
    type Err = ParseFrameworkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "caffe" => Ok(Framework::Caffe),
            "tensorflow" | "tf" => Ok(Framework::TensorFlow),
            "torch" => Ok(Framework::Torch),
            "horovod" => Ok(Framework::Horovod),
            other => Err(ParseFrameworkError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_specs() {
        assert!(DlModel::Vgg16.params() > 5 * DlModel::Resnet50.params());
        assert_eq!(DlModel::Vgg16.gradient_bytes(), DlModel::Vgg16.params() * 4);
        assert!(DlModel::all().iter().all(|m| m.bytes_per_image() > 0));
        assert!(DlModel::all().iter().all(|m| m.batch_per_gpu() >= 16));
    }

    #[test]
    fn model_parse() {
        assert_eq!("vgg16".parse::<DlModel>().unwrap(), DlModel::Vgg16);
        assert_eq!("VGG-16".parse::<DlModel>().unwrap(), DlModel::Vgg16);
        assert_eq!("resnet-50".parse::<DlModel>().unwrap(), DlModel::Resnet50);
        assert_eq!(
            "inception_v3".parse::<DlModel>().unwrap(),
            DlModel::InceptionV3
        );
        assert!("alexnet".parse::<DlModel>().is_err());
    }

    #[test]
    fn framework_factors_in_range() {
        for f in Framework::all() {
            assert!((0.9..=1.0).contains(&f.efficiency()), "{f}");
            assert!((0.0..1.0).contains(&f.comm_overlap()), "{f}");
            assert!(f.image_bytes() > 1_000_000_000, "{f}");
            assert!(f.cold_start_secs() > 1.0, "{f}");
        }
        assert!(Framework::Horovod.comm_overlap() > Framework::Caffe.comm_overlap());
    }

    #[test]
    fn framework_parse() {
        assert_eq!("tf".parse::<Framework>().unwrap(), Framework::TensorFlow);
        assert_eq!("Caffe".parse::<Framework>().unwrap(), Framework::Caffe);
        assert!("mxnet".parse::<Framework>().is_err());
    }
}
