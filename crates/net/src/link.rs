//! Shared-bandwidth links for bulk transfers.
//!
//! Control-plane messages are latency-dominated and use [`crate::Net`];
//! bulk transfers (training data streaming, checkpoints, result uploads)
//! are bandwidth-dominated and use [`SharedLink`]: a serialized pipe with a
//! fixed byte rate. Concurrent transfers queue behind each other, which is
//! how a 1 GbE NIC behaves under the paper's data-streaming workload.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_sim::{SimDuration, SimTime};

/// Common link speeds, in bytes per second.
pub mod speeds {
    /// 1 Gb Ethernet ≈ 117 MiB/s of goodput.
    pub const GBE_1: f64 = 117.0 * 1024.0 * 1024.0;
    /// 10 Gb Ethernet ≈ 1.1 GiB/s of goodput.
    pub const GBE_10: f64 = 1.15 * 1024.0 * 1024.0 * 1024.0;
    /// NFS over the cluster network, accounting for protocol overhead.
    pub const NFS: f64 = 90.0 * 1024.0 * 1024.0;
}

#[derive(Debug)]
struct LinkState {
    bytes_per_sec: f64,
    busy_until: SimTime,
    transfers: u64,
}

/// A serialized, fixed-rate pipe. Cloning shares the underlying link.
///
/// # Examples
///
/// ```
/// use dlaas_net::SharedLink;
/// use dlaas_sim::SimTime;
///
/// // 100 bytes/sec link, two back-to-back 50-byte transfers.
/// let link = SharedLink::new(100.0);
/// let t1 = link.reserve(SimTime::ZERO, 50);
/// let t2 = link.reserve(SimTime::ZERO, 50);
/// assert_eq!(t1.end, SimTime::from_millis(500));
/// assert_eq!(t2.start, t1.end); // queued behind the first
/// assert_eq!(t2.end, SimTime::from_secs(1));
/// ```
#[derive(Debug, Clone)]
pub struct SharedLink {
    state: Rc<RefCell<LinkState>>,
}

/// The window a transfer occupies on a [`SharedLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the transfer begins moving bytes.
    pub start: SimTime,
    /// When the last byte arrives.
    pub end: SimTime,
}

impl SharedLink {
    /// Creates a link with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "invalid link rate: {bytes_per_sec}"
        );
        SharedLink {
            state: Rc::new(RefCell::new(LinkState {
                bytes_per_sec,
                busy_until: SimTime::ZERO,
                transfers: 0,
            })),
        }
    }

    /// The link rate in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.state.borrow().bytes_per_sec
    }

    /// Reserves the link for a `bytes`-long transfer requested at `now`,
    /// returning the window it occupies. Zero-byte transfers complete
    /// instantly (after any queueing).
    pub fn reserve(&self, now: SimTime, bytes: u64) -> Transfer {
        let mut s = self.state.borrow_mut();
        let start = s.busy_until.max(now);
        let secs = bytes as f64 / s.bytes_per_sec;
        let end = start + SimDuration::from_secs_f64(secs);
        s.busy_until = end;
        s.transfers += 1;
        Transfer { start, end }
    }

    /// Number of transfers ever reserved.
    pub fn transfers(&self) -> u64 {
        self.state.borrow().transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_duration() {
        let link = SharedLink::new(1000.0);
        let t = link.reserve(SimTime::ZERO, 500);
        assert_eq!(t.start, SimTime::ZERO);
        assert_eq!(t.end, SimTime::from_millis(500));
    }

    #[test]
    fn transfers_serialize() {
        let link = SharedLink::new(1000.0);
        let a = link.reserve(SimTime::ZERO, 1000);
        let b = link.reserve(SimTime::ZERO, 1000);
        assert_eq!(a.end, SimTime::from_secs(1));
        assert_eq!(b.start, SimTime::from_secs(1));
        assert_eq!(b.end, SimTime::from_secs(2));
        assert_eq!(link.transfers(), 2);
    }

    #[test]
    fn idle_link_starts_at_request_time() {
        let link = SharedLink::new(1000.0);
        let t = link.reserve(SimTime::from_secs(10), 100);
        assert_eq!(t.start, SimTime::from_secs(10));
        assert_eq!(
            t.end,
            SimTime::from_secs(10) + SimDuration::from_millis(100)
        );
    }

    #[test]
    fn zero_bytes_instant() {
        let link = SharedLink::new(1000.0);
        let t = link.reserve(SimTime::from_secs(1), 0);
        assert_eq!(t.start, t.end);
    }

    #[test]
    fn clones_share_capacity() {
        let link = SharedLink::new(1000.0);
        let clone = link.clone();
        link.reserve(SimTime::ZERO, 1000);
        let t = clone.reserve(SimTime::ZERO, 1000);
        assert_eq!(t.start, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "invalid link rate")]
    fn zero_rate_panics() {
        let _ = SharedLink::new(0.0);
    }

    #[test]
    #[expect(
        clippy::assertions_on_constants,
        reason = "pins the relative order of the speed constants the transfer model relies on"
    )]
    fn speed_constants_ordered() {
        assert!(speeds::GBE_1 < speeds::GBE_10);
        assert!(speeds::NFS < speeds::GBE_1);
    }
}
