//! GPU device and interconnect specifications.

use std::fmt;
use std::str::FromStr;

/// A GPU model, as schedulable hardware.
///
/// `*Sxm2` variants are the NVLink mezzanine parts found in the DGX-1;
/// they run higher clocks than their PCIe siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GpuKind {
    /// NVIDIA Tesla K80 (one logical GPU of the dual-GK210 board), PCIe.
    K80,
    /// NVIDIA Tesla P100, PCIe.
    P100Pcie,
    /// NVIDIA Tesla P100, SXM2 (DGX-1).
    P100Sxm2,
    /// NVIDIA Tesla V100, PCIe.
    V100Pcie,
    /// NVIDIA Tesla V100, SXM2 (DGX-1V).
    V100Sxm2,
}

impl GpuKind {
    /// `true` for the SXM2 (NVLink-attached, DGX) variants.
    pub fn is_nvlink(self) -> bool {
        matches!(self, GpuKind::P100Sxm2 | GpuKind::V100Sxm2)
    }

    /// The intra-node interconnect this part ships with.
    pub fn native_interconnect(self) -> Interconnect {
        if self.is_nvlink() {
            Interconnect::NvLink
        } else {
            Interconnect::Pcie3x16
        }
    }

    /// All kinds (for sweeps).
    pub fn all() -> [GpuKind; 5] {
        [
            GpuKind::K80,
            GpuKind::P100Pcie,
            GpuKind::P100Sxm2,
            GpuKind::V100Pcie,
            GpuKind::V100Sxm2,
        ]
    }
}

impl fmt::Display for GpuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GpuKind::K80 => "K80",
            GpuKind::P100Pcie => "P100",
            GpuKind::P100Sxm2 => "P100-SXM2",
            GpuKind::V100Pcie => "V100",
            GpuKind::V100Sxm2 => "V100-SXM2",
        };
        f.write_str(s)
    }
}

/// Error parsing a [`GpuKind`] from a manifest string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGpuKindError(pub String);

impl fmt::Display for ParseGpuKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gpu kind: {}", self.0)
    }
}

impl std::error::Error for ParseGpuKindError {}

impl FromStr for GpuKind {
    type Err = ParseGpuKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "k80" => Ok(GpuKind::K80),
            "p100" | "p100-pcie" => Ok(GpuKind::P100Pcie),
            "p100-sxm2" | "dgx-p100" => Ok(GpuKind::P100Sxm2),
            "v100" | "v100-pcie" => Ok(GpuKind::V100Pcie),
            "v100-sxm2" | "dgx-v100" => Ok(GpuKind::V100Sxm2),
            other => Err(ParseGpuKindError(other.to_owned())),
        }
    }
}

/// A link over which gradient synchronization happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interconnect {
    /// PCIe gen3 x16 — effective ~12 GB/s.
    Pcie3x16,
    /// NVLink (first generation, aggregated) — effective ~40 GB/s.
    NvLink,
    /// 1 Gb Ethernet — effective ~0.117 GB/s.
    Ethernet1G,
    /// 10 Gb Ethernet — effective ~1.15 GB/s.
    Ethernet10G,
    /// EDR InfiniBand — effective ~11 GB/s.
    InfinibandEdr,
}

impl Interconnect {
    /// Effective bandwidth in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        match self {
            Interconnect::Pcie3x16 => 12.0e9,
            Interconnect::NvLink => 40.0e9,
            Interconnect::Ethernet1G => 0.117e9,
            Interconnect::Ethernet10G => 1.15e9,
            Interconnect::InfinibandEdr => 11.0e9,
        }
    }

    /// Per-message latency (ring-allreduce startup cost).
    pub fn latency_secs(self) -> f64 {
        match self {
            Interconnect::Pcie3x16 => 5e-6,
            Interconnect::NvLink => 3e-6,
            Interconnect::Ethernet1G => 100e-6,
            Interconnect::Ethernet10G => 30e-6,
            Interconnect::InfinibandEdr => 2e-6,
        }
    }
}

impl fmt::Display for Interconnect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Interconnect::Pcie3x16 => "PCIe3x16",
            Interconnect::NvLink => "NVLink",
            Interconnect::Ethernet1G => "1GbE",
            Interconnect::Ethernet10G => "10GbE",
            Interconnect::InfinibandEdr => "IB-EDR",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvlink_detection() {
        assert!(!GpuKind::K80.is_nvlink());
        assert!(!GpuKind::P100Pcie.is_nvlink());
        assert!(GpuKind::P100Sxm2.is_nvlink());
        assert_eq!(
            GpuKind::P100Sxm2.native_interconnect(),
            Interconnect::NvLink
        );
        assert_eq!(GpuKind::K80.native_interconnect(), Interconnect::Pcie3x16);
    }

    #[test]
    fn parse_roundtrip() {
        assert_eq!("k80".parse::<GpuKind>().unwrap(), GpuKind::K80);
        assert_eq!("P100".parse::<GpuKind>().unwrap(), GpuKind::P100Pcie);
        assert_eq!("p100-sxm2".parse::<GpuKind>().unwrap(), GpuKind::P100Sxm2);
        assert_eq!("V100-SXM2".parse::<GpuKind>().unwrap(), GpuKind::V100Sxm2);
        assert!("tpu".parse::<GpuKind>().is_err());
        assert_eq!(GpuKind::K80.to_string(), "K80");
    }

    #[test]
    fn interconnect_bandwidth_ordering() {
        assert!(
            Interconnect::Ethernet1G.bytes_per_sec() < Interconnect::Ethernet10G.bytes_per_sec()
        );
        assert!(Interconnect::Ethernet10G.bytes_per_sec() < Interconnect::Pcie3x16.bytes_per_sec());
        assert!(Interconnect::Pcie3x16.bytes_per_sec() < Interconnect::NvLink.bytes_per_sec());
        assert!(Interconnect::Ethernet1G.latency_secs() > Interconnect::NvLink.latency_secs());
    }

    #[test]
    fn all_enumerates_every_kind() {
        assert_eq!(GpuKind::all().len(), 5);
    }
}
