//! # dlaas-sharedfs — shared NFS volumes
//!
//! DLaaS mounts a shared NFS volume into both the learner pods and the
//! helper pod of each training job (paper §III-e): the learner redirects
//! its output and exit status to files; the controller in the helper pod
//! reads them to detect completion and failures; the log-collector tails
//! log files from it. Because the volume outlives any single pod, it also
//! makes status monitoring resilient to controller crashes (§III-f).
//!
//! The simulation models an NFS server holding named volumes of
//! line-oriented files. Operations are synchronous (NFS round-trips are
//! microseconds against the multi-second timescales of Fig. 4) but byte
//! and operation counters are kept so the platform-overhead experiment
//! (Fig. 2) can account for helper/logging I/O.
//!
//! A [`Mount`] holds its volume, not the volume's name: once the volume
//! is deleted the mount is stale for good ([`NfsError::NoSuchVolume`],
//! NFS's ESTALE), even if a volume of the same name is provisioned again.
//!
//! The helpers *poll* the volume (§III-e). A poll that finds nothing can
//! [`Mount::park`] instead of ticking: the next write to the volume (or to
//! the one path it waits for) wakes it at the instant of its [`Grid`] its
//! old poll would have acted at. Every mutator takes the `Sim` for that
//! reason, so no write can skip waking the volume's waiters.
//!
//! # Examples
//!
//! ```
//! use dlaas_sharedfs::NfsServer;
//! use dlaas_sim::{Grid, Sim, SimDuration};
//!
//! let mut sim = Sim::new(1);
//! let nfs = NfsServer::new();
//! let vol = nfs.create_volume("job-1");
//!
//! // Learner side: write progress and an exit file.
//! let learner = nfs.mount(&vol)?;
//! learner.append_line(&mut sim, "learner-0/train.log", "iter 100 loss 2.3")?;
//! learner.write_file(&mut sim, "learner-0/exit-status", "0")?;
//!
//! // Helper/controller side: observe them.
//! let helper = nfs.mount(&vol)?;
//! assert_eq!(helper.read_file("learner-0/exit-status")?, "0");
//! assert_eq!(helper.read_lines_from("learner-0/train.log", 0)?.len(), 1);
//!
//! // A poller need not re-read what cannot have changed: every write
//! // through any mount moves the volume's generation, nothing else does.
//! let seen = helper.generation()?;
//! assert_eq!(helper.read("learner-0/exit-status", |s| s == "0")?, Some(true));
//! assert_eq!(helper.generation()?, seen);
//!
//! // Nor poll for it: parked on the log, a once-a-second poller wakes on
//! // the first grid instant after the next line is written.
//! let grid = Grid::new(sim.now(), SimDuration::from_secs(1));
//! helper.park(Some("learner-0/train.log"), grid, |sim| {
//!     assert_eq!(sim.now().as_millis(), 3_000);
//! })?;
//! sim.run_for(SimDuration::from_millis(2_500));
//! learner.append_line(&mut sim, "learner-0/train.log", "iter 200 loss 2.1")?;
//! assert_ne!(helper.generation()?, seen);
//! assert_eq!(sim.run_until_idle(), 1);
//! # Ok::<(), dlaas_sharedfs::NfsError>(())
//! ```

// Library code stays quiet and inside the simulation (DESIGN.md §7).
#![warn(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::exit
)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use dlaas_sim::{Grid, Sim, SimTime};

/// Identifier of a provisioned volume.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VolumeId(String);

impl VolumeId {
    /// The volume name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for VolumeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Errors from NFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsError {
    /// The volume does not exist (was never created, or was deleted: a
    /// mount of a deleted volume stays stale for good).
    NoSuchVolume(String),
    /// The file does not exist within the volume.
    NoSuchFile(String),
    /// The server is temporarily unavailable (outage window); the data
    /// survives and operations succeed again once it comes back.
    Unavailable,
}

impl fmt::Display for NfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NfsError::NoSuchVolume(v) => write!(f, "no such volume: {v}"),
            NfsError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            NfsError::Unavailable => write!(f, "NFS server unavailable"),
        }
    }
}

impl std::error::Error for NfsError {}

/// Per-server I/O counters (feeds the platform-overhead accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NfsStats {
    /// Read operations served.
    pub reads: u64,
    /// Write/append operations served.
    pub writes: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

/// A parked poller's wake-up, scheduled as the poller's own closure so
/// that the kernel's site profile names the poller, not this crate.
trait Wake {
    fn schedule(self: Box<Self>, sim: &mut Sim, at: SimTime);
}

impl<F: FnOnce(&mut Sim) + 'static> Wake for F {
    fn schedule(self: Box<Self>, sim: &mut Sim, at: SimTime) {
        sim.schedule_at(at, *self);
    }
}

/// A poller parked on a volume (see [`Mount::park`]).
struct Waiter {
    /// The one path whose writes wake it; any path when `None`.
    path: Option<String>,
    grid: Grid,
    wake: Box<dyn Wake>,
}

struct Volume {
    name: String,
    files: BTreeMap<String, Vec<String>>,
    /// Ticks once per change (see [`Mount::generation`]).
    generation: u64,
    /// Deleted: emptied, and every mount of it stale for good.
    deleted: bool,
    waiters: Vec<Waiter>,
}

#[derive(Default)]
struct ServerState {
    volumes: BTreeMap<String, Rc<RefCell<Volume>>>,
    stats: NfsStats,
    /// An outage window: data-plane operations (mount, file I/O) fail with
    /// [`NfsError::Unavailable`] while set. Control-plane operations
    /// (create/delete/find volumes) still work — they go through the K8s
    /// storage API, not the NFS data path.
    unavailable: bool,
}

/// The NFS server. Cloning shares the server.
#[derive(Clone, Default)]
pub struct NfsServer {
    state: Rc<RefCell<ServerState>>,
}

impl fmt::Debug for NfsServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("NfsServer")
            .field("volumes", &s.volumes.len())
            .field("stats", &s.stats)
            .field("unavailable", &s.unavailable)
            .finish()
    }
}

impl NfsServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Provisions a volume (idempotent), as the Guardian does with a K8s
    /// persistent volume claim.
    pub fn create_volume(&self, name: impl Into<String>) -> VolumeId {
        let name = name.into();
        self.state
            .borrow_mut()
            .volumes
            .entry(name.clone())
            .or_insert_with(|| {
                Rc::new(RefCell::new(Volume {
                    name: name.clone(),
                    files: BTreeMap::new(),
                    generation: 0,
                    deleted: false,
                    waiters: Vec::new(),
                }))
            });
        VolumeId(name)
    }

    /// Deletes a volume and everything in it (garbage collection after a
    /// job completes or is rolled back): its files and parked pollers are
    /// dropped and its mounts go stale. Returns `true` if it existed.
    pub fn delete_volume(&self, id: &VolumeId) -> bool {
        self.delete_volume_named(&id.0)
    }

    /// Deletes a volume by name (for garbage collectors that only know the
    /// naming convention). Returns `true` if it existed.
    pub fn delete_volume_named(&self, name: &str) -> bool {
        let Some(vol) = self.state.borrow_mut().volumes.remove(name) else {
            return false;
        };
        let dropped = {
            let mut vol = vol.borrow_mut();
            vol.deleted = true;
            vol.files = BTreeMap::new();
            std::mem::take(&mut vol.waiters)
        };
        // Outside the borrow: a waiter may own the last handle on a mount.
        drop(dropped);
        true
    }

    /// Looks up a volume id by name, if the volume exists.
    pub fn find_volume(&self, name: &str) -> Option<VolumeId> {
        if self.state.borrow().volumes.contains_key(name) {
            Some(VolumeId(name.to_owned()))
        } else {
            None
        }
    }

    /// `true` if the volume exists.
    pub fn volume_exists(&self, id: &VolumeId) -> bool {
        self.state.borrow().volumes.contains_key(&id.0)
    }

    /// Visits the name of every volume, in order, without copying any
    /// (a periodic checker's view of what is provisioned).
    pub fn for_each_volume(&self, mut visit: impl FnMut(&str)) {
        for name in self.state.borrow().volumes.keys() {
            visit(name);
        }
    }

    /// Mounts a volume, returning a handle for file operations.
    ///
    /// # Errors
    ///
    /// [`NfsError::Unavailable`] during an outage window;
    /// [`NfsError::NoSuchVolume`] if it does not exist.
    pub fn mount(&self, id: &VolumeId) -> Result<Mount, NfsError> {
        let s = self.state.borrow();
        if s.unavailable {
            return Err(NfsError::Unavailable);
        }
        let volume = s
            .volumes
            .get(&id.0)
            .ok_or_else(|| NfsError::NoSuchVolume(id.0.clone()))?;
        Ok(Mount {
            server: self.clone(),
            volume: volume.clone(),
        })
    }

    /// Starts or ends an outage window. While unavailable, mounting and
    /// every file operation (including through existing mounts) fail with
    /// [`NfsError::Unavailable`]; volumes, files and parked pollers
    /// survive untouched.
    pub fn set_available(&self, available: bool) {
        self.state.borrow_mut().unavailable = !available;
    }

    /// `true` when the data plane is serving (no outage window active).
    pub fn is_available(&self) -> bool {
        !self.state.borrow().unavailable
    }

    /// I/O counters.
    pub fn stats(&self) -> NfsStats {
        self.state.borrow().stats
    }
}

/// A mounted volume. All operations fail with [`NfsError::NoSuchVolume`]
/// once the volume has been deleted (stale mount).
#[derive(Clone)]
pub struct Mount {
    server: NfsServer,
    volume: Rc<RefCell<Volume>>,
}

impl fmt::Debug for Mount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vol = self.volume.borrow();
        f.debug_struct("Mount")
            .field("volume", &vol.name)
            .field("stale", &vol.deleted)
            .finish()
    }
}

impl Mount {
    /// Runs `f` on the mounted volume with the server's I/O counters.
    fn with_volume<T>(
        &self,
        f: impl FnOnce(&mut Volume, &mut NfsStats) -> Result<T, NfsError>,
    ) -> Result<T, NfsError> {
        let mut s = self.server.state.borrow_mut();
        if s.unavailable {
            return Err(NfsError::Unavailable);
        }
        let mut vol = self.volume.borrow_mut();
        if vol.deleted {
            return Err(NfsError::NoSuchVolume(vol.name.clone()));
        }
        f(&mut vol, &mut s.stats)
    }

    /// Runs the mutation `f` of `path`; if it changed the volume (`f`
    /// returns `true`), moves the generation and wakes every waiter on
    /// the volume or on `path` at its grid's first instant after now.
    fn change(
        &self,
        sim: &mut Sim,
        path: &str,
        f: impl FnOnce(&mut Volume, &mut NfsStats) -> bool,
    ) -> Result<bool, NfsError> {
        self.with_volume(|vol, stats| {
            let changed = f(vol, stats);
            if changed {
                vol.generation += 1;
                let now = sim.now();
                let woken = vol
                    .waiters
                    .extract_if(.., |w| w.path.as_deref().is_none_or(|p| p == path));
                for w in woken {
                    w.wake.schedule(sim, w.grid.after(now));
                }
            }
            Ok(changed)
        })
    }

    /// The volume's write generation: a number that changes with every
    /// successful [`append_line`](Mount::append_line),
    /// [`write_file`](Mount::write_file) or effective
    /// [`remove`](Mount::remove) through *any* mount of the volume, and
    /// with nothing else. A poller that remembers the generation of its
    /// last complete read knows, when it is unchanged, that re-reading
    /// would show the same bytes.
    ///
    /// # Errors
    ///
    /// [`NfsError::Unavailable`] during an outage window and
    /// [`NfsError::NoSuchVolume`] on a stale mount: an unreadable
    /// generation says nothing about the volume either way.
    pub fn generation(&self) -> Result<u64, NfsError> {
        self.with_volume(|vol, _| Ok(vol.generation))
    }

    /// Parks a poller that found nothing: `wake` runs once, at the first
    /// instant of `grid` after the next change to `path` of this volume
    /// (to any path when `None`) — the instant the poller's next poll
    /// would have seen that change. A volume deleted meanwhile drops it.
    ///
    /// # Errors
    ///
    /// [`NfsError::Unavailable`] during an outage window and
    /// [`NfsError::NoSuchVolume`] on a stale mount. A wait on a volume
    /// the poller cannot reach parks nothing and `wake` is dropped: the
    /// poller must poll its grid until the volume answers, or it never
    /// runs again.
    #[must_use = "a refused wait parks nothing: the poller must poll its grid instead"]
    pub fn park(
        &self,
        path: Option<&str>,
        grid: Grid,
        wake: impl FnOnce(&mut Sim) + 'static,
    ) -> Result<(), NfsError> {
        self.with_volume(|vol, _| {
            vol.waiters.push(Waiter {
                path: path.map(str::to_owned),
                grid,
                wake: Box::new(wake),
            });
            Ok(())
        })
    }

    /// Appends one line to a file, creating it if needed.
    ///
    /// # Errors
    ///
    /// [`NfsError::Unavailable`] during an outage window;
    /// [`NfsError::NoSuchVolume`] on a stale mount.
    pub fn append_line(
        &self,
        sim: &mut Sim,
        path: &str,
        line: impl Into<String>,
    ) -> Result<(), NfsError> {
        let line = line.into();
        self.change(sim, path, |vol, stats| {
            stats.writes += 1;
            stats.bytes_written += line.len() as u64 + 1;
            match vol.files.get_mut(path) {
                Some(lines) => lines.push(line),
                None => {
                    vol.files.insert(path.to_owned(), vec![line]);
                }
            }
            true
        })?;
        Ok(())
    }

    /// Replaces a file's contents with a single string (used for exit
    /// status and marker files).
    ///
    /// # Errors
    ///
    /// [`NfsError::Unavailable`] during an outage window;
    /// [`NfsError::NoSuchVolume`] on a stale mount.
    pub fn write_file(
        &self,
        sim: &mut Sim,
        path: &str,
        contents: impl Into<String>,
    ) -> Result<(), NfsError> {
        let contents = contents.into();
        self.change(sim, path, |vol, stats| {
            stats.writes += 1;
            stats.bytes_written += contents.len() as u64;
            match vol.files.get_mut(path) {
                Some(lines) => {
                    lines.clear();
                    lines.push(contents);
                }
                None => {
                    vol.files.insert(path.to_owned(), vec![contents]);
                }
            }
            true
        })?;
        Ok(())
    }

    /// Removes a file. Returns `true` if it existed.
    pub fn remove(&self, sim: &mut Sim, path: &str) -> bool {
        self.change(sim, path, |vol, _| vol.files.remove(path).is_some())
            .unwrap_or(false)
    }

    /// Lends a single-string file's contents (its first line) to `read`,
    /// or returns `Ok(None)` when the file is absent — an absent file is
    /// an answer, an unreachable volume is not.
    ///
    /// # Errors
    ///
    /// [`NfsError::Unavailable`] during an outage window;
    /// [`NfsError::NoSuchVolume`] on a stale mount.
    pub fn read<T>(&self, path: &str, read: impl FnOnce(&str) -> T) -> Result<Option<T>, NfsError> {
        self.with_volume(|vol, stats| {
            let Some(f) = vol.files.get(path) else {
                return Ok(None);
            };
            stats.reads += 1;
            let contents = f.first().map_or("", String::as_str);
            stats.bytes_read += contents.len() as u64;
            Ok(Some(read(contents)))
        })
    }

    /// Reads a whole single-string file (first line).
    ///
    /// # Errors
    ///
    /// [`NfsError::NoSuchFile`] if absent; [`NfsError::NoSuchVolume`] on a
    /// stale mount.
    pub fn read_file(&self, path: &str) -> Result<String, NfsError> {
        self.read(path, str::to_owned)?
            .ok_or_else(|| NfsError::NoSuchFile(path.to_owned()))
    }

    /// Lends each line from `offset` on to `visit`, in order (log
    /// tailing without a copy of the tail). Returns how many lines there
    /// were — zero when the file exists but has nothing new.
    ///
    /// # Errors
    ///
    /// [`NfsError::NoSuchFile`] if absent; [`NfsError::NoSuchVolume`] on a
    /// stale mount.
    pub fn for_each_line_from(
        &self,
        path: &str,
        offset: usize,
        mut visit: impl FnMut(&str),
    ) -> Result<usize, NfsError> {
        self.with_volume(|vol, stats| {
            let f = vol
                .files
                .get(path)
                .ok_or_else(|| NfsError::NoSuchFile(path.to_owned()))?;
            stats.reads += 1;
            let tail = f.get(offset..).unwrap_or_default();
            for line in tail {
                stats.bytes_read += line.len() as u64 + 1;
                visit(line);
            }
            Ok(tail.len())
        })
    }

    /// Reads lines starting at `offset` (for log tailing). Returns an empty
    /// vector when the file exists but has no new lines.
    ///
    /// # Errors
    ///
    /// [`NfsError::NoSuchFile`] if absent; [`NfsError::NoSuchVolume`] on a
    /// stale mount.
    pub fn read_lines_from(&self, path: &str, offset: usize) -> Result<Vec<String>, NfsError> {
        let mut lines = Vec::new();
        self.for_each_line_from(path, offset, |line| lines.push(line.to_owned()))?;
        Ok(lines)
    }

    /// Number of lines currently in a file (0 if absent).
    pub fn line_count(&self, path: &str) -> usize {
        self.with_volume(|vol, _| Ok(vol.files.get(path).map_or(0, std::vec::Vec::len)))
            .unwrap_or(0)
    }

    /// `true` if the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.with_volume(|vol, _| Ok(vol.files.contains_key(path)))
            .unwrap_or(false)
    }

    /// Paths under `prefix`, in order (directory listing).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.with_volume(|vol, _| {
            Ok(vol
                .files
                .range(prefix.to_owned()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, _)| k.clone())
                .collect())
        })
        .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlaas_sim::SimDuration;
    use std::cell::Cell;

    #[test]
    fn volume_lifecycle() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job-1");
        assert!(nfs.volume_exists(&vol));
        assert_eq!(vol.as_str(), "job-1");
        // Idempotent create keeps contents.
        let m = nfs.mount(&vol).unwrap();
        m.write_file(&mut sim, "x", "1").unwrap();
        let vol2 = nfs.create_volume("job-1");
        assert!(nfs.mount(&vol2).unwrap().exists("x"));

        assert!(nfs.delete_volume(&vol));
        assert!(!nfs.delete_volume(&vol));
        assert!(!nfs.volume_exists(&vol));
        assert!(nfs.mount(&vol).is_err());
    }

    #[test]
    fn stale_mount_fails_cleanly() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        nfs.delete_volume(&vol);
        assert_eq!(
            m.append_line(&mut sim, "f", "x"),
            Err(NfsError::NoSuchVolume("v".into()))
        );
        assert!(!m.exists("f"));
        assert!(m.list("").is_empty());
        assert_eq!(m.line_count("f"), 0);
        assert!(!m.remove(&mut sim, "f"));
    }

    #[test]
    fn append_and_tail() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        for i in 0..5 {
            m.append_line(&mut sim, "log", format!("line {i}")).unwrap();
        }
        assert_eq!(m.line_count("log"), 5);
        let tail = m.read_lines_from("log", 3).unwrap();
        assert_eq!(tail, vec!["line 3", "line 4"]);
        assert!(m.read_lines_from("log", 5).unwrap().is_empty());
        assert_eq!(
            m.read_lines_from("ghost", 0),
            Err(NfsError::NoSuchFile("ghost".into()))
        );
    }

    #[test]
    fn write_file_replaces() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.write_file(&mut sim, "exit", "1").unwrap();
        m.write_file(&mut sim, "exit", "0").unwrap();
        assert_eq!(m.read_file("exit").unwrap(), "0");
        assert_eq!(
            m.read_file("nope"),
            Err(NfsError::NoSuchFile("nope".into()))
        );
    }

    #[test]
    fn two_mounts_share_state() {
        // The learner/controller pattern: one writes, the other reads.
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job");
        let learner = nfs.mount(&vol).unwrap();
        let controller = nfs.mount(&vol).unwrap();
        learner
            .write_file(&mut sim, "learner-0/exit-status", "137")
            .unwrap();
        assert_eq!(
            controller.read_file("learner-0/exit-status").unwrap(),
            "137"
        );
    }

    #[test]
    fn listing_by_prefix() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.write_file(&mut sim, "learner-0/exit", "0").unwrap();
        m.write_file(&mut sim, "learner-1/exit", "0").unwrap();
        m.write_file(&mut sim, "logs/a", "x").unwrap();
        assert_eq!(m.list("learner-").len(), 2);
        assert_eq!(
            m.list(""),
            vec!["learner-0/exit", "learner-1/exit", "logs/a"]
        );
    }

    #[test]
    fn remove_file() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.write_file(&mut sim, "f", "x").unwrap();
        assert!(m.remove(&mut sim, "f"));
        assert!(!m.remove(&mut sim, "f"));
        assert!(!m.exists("f"));
    }

    #[test]
    fn outage_window_fails_data_plane_only() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.write_file(&mut sim, "f", "before").unwrap();

        nfs.set_available(false);
        assert!(!nfs.is_available());
        // Data plane: mounts and file ops through existing mounts fail.
        assert!(matches!(nfs.mount(&vol), Err(NfsError::Unavailable)));
        assert_eq!(m.read_file("f"), Err(NfsError::Unavailable));
        assert_eq!(m.write_file(&mut sim, "f", "x"), Err(NfsError::Unavailable));
        assert_eq!(
            m.append_line(&mut sim, "g", "x"),
            Err(NfsError::Unavailable)
        );
        assert!(!m.exists("f"));
        // Control plane: provisioning still works during the outage.
        assert!(nfs.find_volume("v").is_some());
        let v2 = nfs.create_volume("v2");
        assert!(nfs.volume_exists(&v2));
        assert!(nfs.delete_volume(&v2));

        // Data survives the window.
        nfs.set_available(true);
        assert!(nfs.is_available());
        assert_eq!(m.read_file("f").unwrap(), "before");
    }

    #[test]
    fn generation_moves_with_every_change_through_any_mount() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job");
        let learner = nfs.mount(&vol).unwrap();
        let controller = nfs.mount(&vol).unwrap();
        let mut seen = controller.generation().unwrap();
        let mut moved = |what: &str| {
            let now = controller.generation().unwrap();
            assert!(now > seen, "{what} must move the generation");
            seen = now;
        };
        learner.append_line(&mut sim, "log", "a").unwrap();
        moved("append_line");
        learner
            .write_file(&mut sim, "status", "PROCESSING")
            .unwrap();
        moved("write_file creating a file");
        learner
            .write_file(&mut sim, "status", "PROCESSING")
            .unwrap();
        moved("write_file of the same bytes");
        controller.write_file(&mut sim, "go", "go").unwrap();
        moved("a write through the reader's own mount");
        assert!(learner.remove(&mut sim, "status"));
        moved("remove");
        assert_eq!(learner.generation(), Ok(seen), "one volume, one counter");
    }

    #[test]
    fn generation_ignores_reads_misses_and_other_volumes() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job");
        let m = nfs.mount(&vol).unwrap();
        m.append_line(&mut sim, "log", "a").unwrap();
        m.write_file(&mut sim, "status", "x").unwrap();
        let before = m.generation().unwrap();
        assert_eq!(m.read("status", str::len), Ok(Some(1)));
        assert_eq!(m.read("ghost", str::len), Ok(None));
        assert_eq!(m.read_file("status").unwrap(), "x");
        assert_eq!(m.for_each_line_from("log", 0, |_| {}), Ok(1));
        assert_eq!(m.read_lines_from("log", 1).unwrap(), Vec::<String>::new());
        assert_eq!(m.line_count("log"), 1);
        assert!(m.exists("log"));
        assert_eq!(m.list("").len(), 2);
        assert!(
            !m.remove(&mut sim, "ghost"),
            "removing nothing changes nothing"
        );
        let other = nfs.create_volume("other");
        nfs.mount(&other)
            .unwrap()
            .write_file(&mut sim, "f", "x")
            .unwrap();
        nfs.create_volume("job"); // idempotent: not a change
        assert_eq!(m.generation(), Ok(before));
    }

    #[test]
    fn generation_is_unreadable_when_the_volume_is() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job");
        let m = nfs.mount(&vol).unwrap();
        m.write_file(&mut sim, "f", "x").unwrap();
        let before = m.generation().unwrap();

        nfs.set_available(false);
        assert_eq!(m.generation(), Err(NfsError::Unavailable));
        assert_eq!(m.read("f", str::len), Err(NfsError::Unavailable));
        assert_eq!(m.write_file(&mut sim, "f", "y"), Err(NfsError::Unavailable));
        nfs.set_available(true);
        assert_eq!(m.generation(), Ok(before), "a refused write is no change");

        // A volume provisioned again under its old name is another
        // volume: a mount of the first stays stale (ESTALE) for good.
        nfs.delete_volume(&vol);
        let stale = Err(NfsError::NoSuchVolume("job".into()));
        assert_eq!(m.generation(), stale);
        let again = nfs.create_volume("job");
        let fresh = nfs.mount(&again).unwrap();
        fresh.write_file(&mut sim, "f", "z").unwrap();
        assert_eq!(m.generation(), stale, "a stale mount sees no new volume");
        assert_eq!(
            m.read("f", str::len),
            Err(NfsError::NoSuchVolume("job".into()))
        );
        assert_eq!(
            m.write_file(&mut sim, "f", "w"),
            Err(NfsError::NoSuchVolume("job".into()))
        );
        assert_eq!(fresh.read_file("f").unwrap(), "z");
    }

    /// Parks a poller on `path` of `m` (the whole volume when `None`) on a
    /// one-second grid from `origin`; its wake-up instants (ms) go to `log`.
    fn park_logged(
        m: &Mount,
        path: Option<&str>,
        origin: SimTime,
        log: &Rc<RefCell<Vec<u64>>>,
    ) -> Result<(), NfsError> {
        let log = log.clone();
        let grid = Grid::new(origin, SimDuration::from_secs(1));
        m.park(path, grid, move |sim| {
            log.borrow_mut().push(sim.now().as_millis());
        })
    }

    #[test]
    fn a_write_wakes_its_waiters_on_their_next_grid_instant() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let m = nfs.mount(&nfs.create_volume("job")).unwrap();
        let (go, any) = (Rc::default(), Rc::default());
        park_logged(&m, Some("store-go"), SimTime::from_millis(300), &go).unwrap();
        park_logged(&m, None, SimTime::ZERO, &any).unwrap();

        sim.run_for(SimDuration::from_millis(2_000));
        m.append_line(&mut sim, "log", "x").unwrap();
        m.append_line(&mut sim, "log", "y").unwrap();
        sim.run_for(SimDuration::from_millis(1_500));
        assert_eq!(
            *any.borrow(),
            [3_000],
            "one wake, on the grid after the write"
        );
        assert!(
            go.borrow().is_empty(),
            "a write elsewhere wakes no path waiter"
        );

        m.write_file(&mut sim, "store-go", "go").unwrap();
        sim.run_until_idle();
        assert_eq!(*go.borrow(), [4_300]);
        assert_eq!(*any.borrow(), [3_000], "a woken waiter is not parked again");
    }

    #[test]
    fn a_wait_is_refused_while_the_volume_is_unreachable() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job");
        let m = nfs.mount(&vol).unwrap();
        let woke = Rc::default();
        nfs.set_available(false);
        assert_eq!(
            park_logged(&m, Some("data-loaded"), SimTime::ZERO, &woke),
            Err(NfsError::Unavailable)
        );
        nfs.set_available(true);
        m.write_file(&mut sim, "data-loaded", "loaded").unwrap();
        sim.run_until_idle();
        assert!(woke.borrow().is_empty(), "a refused wait parks nothing");

        // Parked before the outage, a waiter sits it out and wakes on the
        // first write after it.
        park_logged(&m, Some("data-loaded"), SimTime::ZERO, &woke).unwrap();
        nfs.set_available(false);
        assert!(m.write_file(&mut sim, "data-loaded", "x").is_err());
        sim.run_for(SimDuration::from_secs(5));
        nfs.set_available(true);
        assert!(woke.borrow().is_empty(), "a refused write wakes nobody");
        m.remove(&mut sim, "data-loaded");
        sim.run_until_idle();
        assert_eq!(*woke.borrow(), [6_000]);
    }

    #[test]
    fn a_deleted_volume_drops_its_waiters_and_its_contents() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job");
        let m = nfs.mount(&vol).unwrap();
        m.append_line(&mut sim, "log", "a line").unwrap();
        let woke = Rc::default();
        park_logged(&m, None, SimTime::ZERO, &woke).unwrap();
        // The waiter's closure owns the only other handle on `woke`.
        assert_eq!(Rc::strong_count(&woke), 2);

        assert!(nfs.delete_volume(&vol));
        assert_eq!(Rc::strong_count(&woke), 1, "the waiter was dropped");
        assert!(m.volume.borrow().files.is_empty(), "the contents too");
        assert_eq!(
            park_logged(&m, None, SimTime::ZERO, &woke),
            Err(NfsError::NoSuchVolume("job".into()))
        );
        let again = nfs.mount(&nfs.create_volume("job")).unwrap();
        again.write_file(&mut sim, "f", "x").unwrap();
        assert_eq!(sim.run_until_idle(), 0, "nobody parked on the new volume");
        assert_eq!(again.line_count("log"), 0);
    }

    #[test]
    fn remove_of_nothing_wakes_nobody() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let m = nfs.mount(&nfs.create_volume("job")).unwrap();
        let fired = Rc::new(Cell::new(0));
        let f = fired.clone();
        let grid = Grid::new(SimTime::ZERO, SimDuration::from_secs(1));
        m.park(None, grid, move |_| f.set(f.get() + 1)).unwrap();
        assert!(!m.remove(&mut sim, "ghost"));
        sim.run_until_idle();
        assert_eq!(fired.get(), 0);
    }

    #[test]
    fn lending_reads_count_like_copying_ones() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.append_line(&mut sim, "log", "12345").unwrap();
        m.append_line(&mut sim, "log", "678").unwrap();
        m.write_file(&mut sim, "exit", "0").unwrap();
        let mut seen = Vec::new();
        let n = m
            .for_each_line_from("log", 1, |l| seen.push(l.to_owned()))
            .unwrap();
        assert_eq!((n, seen), (1, vec!["678".to_owned()]));
        assert_eq!(m.for_each_line_from("log", 9, |_| {}), Ok(0));
        assert_eq!(m.read("exit", |s| s == "0"), Ok(Some(true)));
        assert_eq!(m.read("nope", |s| s == "0"), Ok(None));
        assert_eq!(
            m.for_each_line_from("nope", 0, |_| {}),
            Err(NfsError::NoSuchFile("nope".into()))
        );
        let st = nfs.stats();
        // Two tail reads (4 bytes, then none) and one file read (1 byte);
        // a miss is not a read.
        assert_eq!((st.reads, st.bytes_read), (3, 5));
        let mut names = Vec::new();
        nfs.for_each_volume(|v| names.push(v.to_owned()));
        assert_eq!(names, ["v"]);
    }

    #[test]
    fn stats_account_bytes() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.append_line(&mut sim, "log", "12345").unwrap(); // 6 bytes with newline
        m.write_file(&mut sim, "exit", "0").unwrap(); // 1 byte
        let _ = m.read_file("exit").unwrap();
        let _ = m.read_lines_from("log", 0).unwrap();
        let st = nfs.stats();
        assert_eq!(st.writes, 2);
        assert_eq!(st.reads, 2);
        assert_eq!(st.bytes_written, 7);
        assert_eq!(st.bytes_read, 7);
    }
}
