//! Host-side clocks: thread CPU time and peak resident memory.
//!
//! Host time is read as *CPU* time of this (single) thread, so time the
//! guest scheduler gives to other processes is not charged to the
//! benchmark. That alone does not make it repeatable — the host itself
//! speeds up and slows down — which is what [`crate::refkernel`] is for.

use std::time::Instant;

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        pub fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
    }
}

/// A monotonically increasing host clock in nanoseconds: the calling
/// thread's CPU time where the OS offers it, wall time elsewhere.
pub struct HostClock {
    wall_origin: Instant,
}

impl HostClock {
    pub fn new() -> Self {
        HostClock {
            // The repo-wide lint bans wall-clock reads from the *program*
            // (they would break its determinism); timing the program from
            // outside is what this package is for.
            #[allow(clippy::disallowed_methods)]
            wall_origin: Instant::now(),
        }
    }

    /// Nanoseconds of CPU this thread has consumed (wall nanoseconds
    /// since construction when the CPU clock is unavailable).
    pub fn now_ns(&self) -> u64 {
        #[cfg(target_os = "linux")]
        {
            let mut ts = sys::Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            };
            // SAFETY: `ts` is a valid, writable `timespec` for the duration
            // of the call and `clock_gettime` writes nothing else; the
            // layout matches the 64-bit Linux ABI (two signed 64-bit
            // fields). A non-zero return leaves `ts` untouched and falls
            // through to the wall clock below.
            let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
            if rc == 0 {
                return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
            }
        }
        self.wall_origin.elapsed().as_nanos() as u64
    }

    /// Wall nanoseconds since construction (the `--seconds` budget and
    /// trace span timestamps are wall time).
    pub fn wall_ns(&self) -> u64 {
        self.wall_origin.elapsed().as_nanos() as u64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
