//! # dlaas-sharedfs — shared NFS volumes
//!
//! DLaaS mounts a shared NFS volume into both the learner pods and the
//! helper pod of each training job (paper §III-e): the learner redirects
//! its output and exit status to files; the controller in the helper pod
//! reads them to detect completion and failures; the log-collector tails
//! log files from it. Because the volume outlives any single pod, it also
//! makes status monitoring resilient to controller crashes (§III-f).
//!
//! The simulation models an NFS server holding named volumes of text
//! files. Operations are synchronous (NFS round-trips are microseconds
//! against the multi-second timescales of Fig. 4) but byte and operation
//! counters are kept so the platform-overhead experiment (Fig. 2) can
//! account for helper/logging I/O.
//!
//! A file is its text: one append-only [`TextBuf`], a log's lines joined
//! by `\n`. The file owns that buffer and is its only writer;
//! [`Mount::tail`] hands out a [`TextView`] of it, which the log
//! collector puts as the log's object body: a learner's log is held once,
//! here, not copied by the collector. A view outlives its file: once the
//! file is rewritten, removed or its volume deleted, the buffer a view
//! still reads shrinks to its length.
//!
//! A volume is addressed by its name. A [`Mount`] holds the volume, not
//! the name: once the volume is deleted the mount is stale for good
//! ([`NfsError::NoSuchVolume`], NFS's ESTALE), even if a volume of the
//! same name is provisioned again.
//!
//! The helpers *poll* the volume (§III-e). A poll that finds nothing can
//! [`Mount::park`] instead of ticking: the next write to the volume that
//! it waits for — its predicate over the written path and text says
//! which — wakes it at the instant of its [`Grid`] its old poll would have
//! acted at. Every mutator takes the `Sim` for that reason, so no write
//! can skip waking the volume's waiters.
//!
//! # Examples
//!
//! ```
//! use dlaas_sharedfs::NfsServer;
//! use dlaas_sim::{Grid, Sim, SimDuration};
//!
//! let mut sim = Sim::new(1);
//! let nfs = NfsServer::new();
//! nfs.create_volume("job-1");
//!
//! // Learner side: write progress and an exit file.
//! let learner = nfs.mount("job-1")?;
//! learner.append_line(&mut sim, "learner-0/train.log", "iter 100 loss 2.3")?;
//! learner.write_file(&mut sim, "learner-0/exit-status", "0")?;
//!
//! // Helper/controller side: observe them. A tail returns where the next
//! // unread line will start, and a view of the whole log.
//! let helper = nfs.mount("job-1")?;
//! assert_eq!(helper.read_file("learner-0/exit-status")?, "0");
//! let (next, log) = helper.tail("learner-0/train.log", 0)?;
//! assert_eq!((next, &*log.text()), (18, "iter 100 loss 2.3"));
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
//! helper.park(|path, _line, _at| path == "learner-0/train.log", grid, |sim| {
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

use dlaas_sim::{Grid, Sim, SimTime, TextBuf, TextView};

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

/// A parked poller: which writes wake it, and its wake-up — scheduled as
/// the poller's own closure, so that the kernel's site profile names the
/// poller, not this crate.
trait Wait {
    fn wakes(&self, path: &str, contents: &str, at: SimTime) -> bool;
    fn schedule(self: Box<Self>, sim: &mut Sim, at: SimTime);
}

struct Parked<P, F> {
    wakes: P,
    wake: F,
}

impl<P: Fn(&str, &str, SimTime) -> bool, F: FnOnce(&mut Sim) + 'static> Wait for Parked<P, F> {
    fn wakes(&self, path: &str, contents: &str, at: SimTime) -> bool {
        (self.wakes)(path, contents, at)
    }

    fn schedule(self: Box<Self>, sim: &mut Sim, at: SimTime) {
        sim.schedule_at(at, self.wake);
    }
}

/// A poller parked on a volume (see [`Mount::park`]).
struct Waiter {
    grid: Grid,
    wait: Box<dyn Wait>,
}

/// A new file holding `contents`.
fn new_file(contents: &str) -> TextBuf {
    let text = TextBuf::new();
    text.push_str(contents);
    text
}

struct Volume {
    name: String,
    files: BTreeMap<String, TextBuf>,
    /// Ticks once per change (see [`Mount::generation`]).
    generation: u64,
    /// Deleted (when): emptied, and every mount of it stale for good.
    deleted: Option<SimTime>,
    waiters: Vec<Waiter>,
}

#[derive(Default)]
struct ServerState {
    volumes: BTreeMap<String, Rc<RefCell<Volume>>>,
    stats: NfsStats,
    /// An outage window: data-plane operations (mount, file I/O) fail with
    /// [`NfsError::Unavailable`] while set. Control-plane operations
    /// (create/delete/look up volumes) still work — they go through the K8s
    /// storage API, not the NFS data path. Holds when the window began.
    unavailable: Option<SimTime>,
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

    /// Provisions the volume `name` (idempotent), as the Guardian does
    /// with a K8s persistent volume claim.
    pub fn create_volume(&self, name: &str) {
        let mut s = self.state.borrow_mut();
        if !s.volumes.contains_key(name) {
            let volume = Volume {
                name: name.to_owned(),
                files: BTreeMap::new(),
                generation: 0,
                deleted: None,
                waiters: Vec::new(),
            };
            s.volumes
                .insert(name.to_owned(), Rc::new(RefCell::new(volume)));
        }
    }

    /// Deletes the volume `name` and everything in it (garbage collection
    /// after a job completes or is rolled back): its files and parked
    /// pollers are dropped and its mounts go stale. Returns `true` if it
    /// existed.
    pub fn delete_volume(&self, sim: &Sim, name: &str) -> bool {
        let Some(vol) = self.state.borrow_mut().volumes.remove(name) else {
            return false;
        };
        let dropped = {
            let mut vol = vol.borrow_mut();
            vol.deleted = Some(sim.now());
            vol.files = BTreeMap::new();
            std::mem::take(&mut vol.waiters)
        };
        // Outside the borrow: a waiter may own the last handle on a mount.
        drop(dropped);
        true
    }

    /// Drops every volume's parked pollers, none of which wakes: what a
    /// world's end runs (`Sim::at_end`), since a parked poller holds a
    /// mount of the volume that holds it. Volumes and files stay readable.
    pub fn drop_waiters(&self) {
        let volumes: Vec<_> = self.state.borrow().volumes.values().cloned().collect();
        for vol in volumes {
            let dropped = std::mem::take(&mut vol.borrow_mut().waiters);
            // Outside the borrow, as in `delete_volume`.
            drop(dropped);
        }
    }

    /// `true` if the volume `name` exists: a control-plane check, which
    /// answers during an outage window too.
    pub fn has_volume(&self, name: &str) -> bool {
        self.state.borrow().volumes.contains_key(name)
    }

    /// Visits the name of every volume, in order, without copying any
    /// (a periodic checker's view of what is provisioned).
    pub fn for_each_volume(&self, mut visit: impl FnMut(&str)) {
        for name in self.state.borrow().volumes.keys() {
            visit(name);
        }
    }

    /// Mounts the volume `name`, returning a handle for file operations.
    ///
    /// # Errors
    ///
    /// [`NfsError::Unavailable`] during an outage window;
    /// [`NfsError::NoSuchVolume`] if it does not exist.
    pub fn mount(&self, name: &str) -> Result<Mount, NfsError> {
        let s = self.state.borrow();
        if s.unavailable.is_some() {
            return Err(NfsError::Unavailable);
        }
        let volume = s
            .volumes
            .get(name)
            .ok_or_else(|| NfsError::NoSuchVolume(name.to_owned()))?;
        Ok(Mount {
            server: self.clone(),
            volume: volume.clone(),
        })
    }
    /// Starts or ends an outage window. While unavailable, mounting and
    /// every file operation (including through existing mounts) fail with
    /// [`NfsError::Unavailable`]; volumes, files and parked pollers
    /// survive untouched.
    pub fn set_available(&self, sim: &Sim, available: bool) {
        let mut s = self.state.borrow_mut();
        s.unavailable = match (available, s.unavailable) {
            (true, _) => None,
            (false, since) => since.or(Some(sim.now())),
        };
    }

    /// `true` when the data plane is serving (no outage window active).
    pub fn is_available(&self) -> bool {
        self.state.borrow().unavailable.is_none()
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
            .field("stale", &vol.deleted.is_some())
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
        if s.unavailable.is_some() {
            return Err(NfsError::Unavailable);
        }
        let mut vol = self.volume.borrow_mut();
        if vol.deleted.is_some() {
            return Err(NfsError::NoSuchVolume(vol.name.clone()));
        }
        f(&mut vol, &mut s.stats)
    }

    /// Since when nothing can be read through this mount — the outage
    /// window's start, or the volume's deletion, whichever came first —
    /// or `None` while it can. Nothing is written meanwhile either, so a
    /// poller that could not read knows what it missed: the writes after
    /// its last read up to that instant.
    pub fn unreadable_since(&self) -> Option<SimTime> {
        let outage = self.server.state.borrow().unavailable;
        let deleted = self.volume.borrow().deleted;
        match (outage, deleted) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Runs the mutation `f` of `path`; if it changed the volume (`f`
    /// returns `true`), moves the generation and wakes every waiter that
    /// waits for this write of `written` — the line appended, the new
    /// contents, or `""` for a removal — at its grid's first instant
    /// after now.
    fn change(
        &self,
        sim: &mut Sim,
        path: &str,
        written: &str,
        f: impl FnOnce(&mut Volume, &mut NfsStats) -> bool,
    ) -> Result<bool, NfsError> {
        self.with_volume(|vol, stats| {
            let changed = f(vol, stats);
            if changed {
                vol.generation += 1;
            }
            if changed && !vol.waiters.is_empty() {
                let now = sim.now();
                let woken = vol
                    .waiters
                    .extract_if(.., |w| w.wait.wakes(path, written, now));
                for w in woken {
                    w.wait.schedule(sim, w.grid.after(now));
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
    /// instant of `grid` after the next change of this volume for which
    /// `wakes(path, contents, at)` holds — the instant the poller's next
    /// poll would have seen that change. `contents` is the text written —
    /// the line appended, a rewritten file's new contents, `""` for a
    /// removal — and `at` the instant of the write. A volume deleted meanwhile drops the poller. `wakes`
    /// runs inside the write: it must not touch the volume.
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
        wakes: impl Fn(&str, &str, SimTime) -> bool + 'static,
        grid: Grid,
        wake: impl FnOnce(&mut Sim) + 'static,
    ) -> Result<(), NfsError> {
        self.with_volume(|vol, _| {
            vol.waiters.push(Waiter {
                grid,
                wait: Box::new(Parked { wakes, wake }),
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
        line: impl AsRef<str>,
    ) -> Result<(), NfsError> {
        let line = line.as_ref();
        self.change(sim, path, line, |vol, stats| {
            stats.writes += 1;
            stats.bytes_written += line.len() as u64 + 1;
            match vol.files.get(path) {
                Some(text) => {
                    text.push_str("\n");
                    text.push_str(line);
                }
                None => {
                    vol.files.insert(path.to_owned(), new_file(line));
                }
            }
            true
        })?;
        Ok(())
    }

    /// Replaces a file's contents with a single string (used for exit
    /// status and marker files), in the file's own buffer unless a
    /// [`tail`](Mount::tail) still views it.
    ///
    /// # Errors
    ///
    /// [`NfsError::Unavailable`] during an outage window;
    /// [`NfsError::NoSuchVolume`] on a stale mount.
    pub fn write_file(
        &self,
        sim: &mut Sim,
        path: &str,
        contents: impl AsRef<str>,
    ) -> Result<(), NfsError> {
        let contents = contents.as_ref();
        self.change(sim, path, contents, |vol, stats| {
            stats.writes += 1;
            stats.bytes_written += contents.len() as u64;
            match vol.files.get_mut(path) {
                Some(text) => text.replace(contents),
                None => {
                    vol.files.insert(path.to_owned(), new_file(contents));
                }
            }
            true
        })?;
        Ok(())
    }

    /// Removes a file. Returns `true` if it existed.
    pub fn remove(&self, sim: &mut Sim, path: &str) -> bool {
        self.change(sim, path, "", |vol, _| vol.files.remove(path).is_some())
            .unwrap_or(false)
    }

    /// Lends a file's whole text to `read`, or returns `Ok(None)` when
    /// the file is absent — an absent file is an answer, an unreachable
    /// volume is not.
    ///
    /// # Errors
    ///
    /// [`NfsError::Unavailable`] during an outage window;
    /// [`NfsError::NoSuchVolume`] on a stale mount.
    pub fn read<T>(&self, path: &str, read: impl FnOnce(&str) -> T) -> Result<Option<T>, NfsError> {
        self.with_volume(|vol, stats| {
            let Some(text) = vol.files.get(path) else {
                return Ok(None);
            };
            let contents = text.text();
            stats.reads += 1;
            stats.bytes_read += contents.len() as u64;
            Ok(Some(read(&contents)))
        })
    }

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// [`NfsError::NoSuchFile`] if absent; [`NfsError::NoSuchVolume`] on a
    /// stale mount.
    pub fn read_file(&self, path: &str) -> Result<String, NfsError> {
        self.read(path, str::to_owned)?
            .ok_or_else(|| NfsError::NoSuchFile(path.to_owned()))
    }

    /// Tails a log without a copy. `from` is the byte offset where the
    /// next unread line starts — what the previous tail returned, or 0
    /// before any read. Returns where the line after the file's last one
    /// would start (its length plus one), and a view of its own buffer —
    /// the lines joined by `\n` — that reads the same text whatever
    /// happens to the file later. Counted as a read of the lines from
    /// `from` on, each with its newline; a tail with nothing new is no
    /// read.
    ///
    /// # Errors
    ///
    /// [`NfsError::NoSuchFile`] if absent; [`NfsError::NoSuchVolume`] on a
    /// stale mount.
    pub fn tail(&self, path: &str, from: usize) -> Result<(usize, TextView), NfsError> {
        self.with_volume(|vol, stats| {
            let text = vol
                .files
                .get(path)
                .ok_or_else(|| NfsError::NoSuchFile(path.to_owned()))?;
            let next = text.len() + 1;
            if from < next {
                stats.reads += 1;
                stats.bytes_read += (next - from) as u64;
            }
            Ok((next, text.view()))
        })
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
        nfs.create_volume("job-1");
        assert!(nfs.has_volume("job-1"));
        // Idempotent create keeps contents.
        let m = nfs.mount("job-1").unwrap();
        m.write_file(&mut sim, "x", "1").unwrap();
        nfs.create_volume("job-1");
        assert!(nfs.mount("job-1").unwrap().exists("x"));

        assert!(nfs.delete_volume(&sim, "job-1"));
        assert!(!nfs.delete_volume(&sim, "job-1"));
        assert!(!nfs.has_volume("job-1"));
        assert_eq!(
            nfs.mount("job-1").map(|_| ()),
            Err(NfsError::NoSuchVolume("job-1".into()))
        );
    }

    #[test]
    fn stale_mount_fails_cleanly() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("v");
        let m = nfs.mount("v").unwrap();
        nfs.delete_volume(&sim, "v");
        assert_eq!(
            m.append_line(&mut sim, "f", "x"),
            Err(NfsError::NoSuchVolume("v".into()))
        );
        assert!(!m.exists("f"));
        assert!(m.list("").is_empty());
        assert_eq!(m.tail("f", 0), Err(NfsError::NoSuchVolume("v".into())));
        assert!(!m.remove(&mut sim, "f"));
    }

    #[test]
    fn append_and_tail() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("v");
        let m = nfs.mount("v").unwrap();
        for i in 0..5 {
            m.append_line(&mut sim, "log", format!("line {i}")).unwrap();
        }
        // Line 3 starts at byte 21; the tail views the whole log and
        // reads its last two lines, each with its newline.
        let (next, view) = m.tail("log", 21).unwrap();
        assert_eq!(next, 35);
        assert_eq!(&view.text()[21..], "line 3\nline 4");
        assert_eq!(nfs.stats().bytes_read, 14);
        assert_eq!(m.tail("log", next).unwrap(), (next, view));
        assert_eq!(nfs.stats().reads, 1, "nothing new is no read");
        assert_eq!(
            m.tail("ghost", 0),
            Err(NfsError::NoSuchFile("ghost".into()))
        );
    }

    #[test]
    fn write_file_replaces() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("v");
        let m = nfs.mount("v").unwrap();
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
        nfs.create_volume("job");
        let learner = nfs.mount("job").unwrap();
        let controller = nfs.mount("job").unwrap();
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
        nfs.create_volume("v");
        let m = nfs.mount("v").unwrap();
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
        nfs.create_volume("v");
        let m = nfs.mount("v").unwrap();
        m.write_file(&mut sim, "f", "x").unwrap();
        assert!(m.remove(&mut sim, "f"));
        assert!(!m.remove(&mut sim, "f"));
        assert!(!m.exists("f"));
    }

    #[test]
    fn outage_window_fails_data_plane_only() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("v");
        let m = nfs.mount("v").unwrap();
        m.write_file(&mut sim, "f", "before").unwrap();

        nfs.set_available(&sim, false);
        assert!(!nfs.is_available());
        // Data plane: mounts and file ops through existing mounts fail.
        assert!(matches!(nfs.mount("v"), Err(NfsError::Unavailable)));
        assert_eq!(m.read_file("f"), Err(NfsError::Unavailable));
        assert_eq!(m.write_file(&mut sim, "f", "x"), Err(NfsError::Unavailable));
        assert_eq!(
            m.append_line(&mut sim, "g", "x"),
            Err(NfsError::Unavailable)
        );
        assert!(!m.exists("f"));
        // Control plane: provisioning still works during the outage.
        assert!(nfs.has_volume("v"));
        nfs.create_volume("v2");
        assert!(nfs.has_volume("v2"));
        assert!(nfs.delete_volume(&sim, "v2"));

        // Data survives the window.
        nfs.set_available(&sim, true);
        assert!(nfs.is_available());
        assert_eq!(m.read_file("f").unwrap(), "before");
    }

    #[test]
    fn generation_moves_with_every_change_through_any_mount() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("job");
        let learner = nfs.mount("job").unwrap();
        let controller = nfs.mount("job").unwrap();
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
        nfs.create_volume("job");
        let m = nfs.mount("job").unwrap();
        m.append_line(&mut sim, "log", "a").unwrap();
        m.write_file(&mut sim, "status", "x").unwrap();
        let before = m.generation().unwrap();
        assert_eq!(m.read("status", str::len), Ok(Some(1)));
        assert_eq!(m.read("ghost", str::len), Ok(None));
        assert_eq!(m.read_file("status").unwrap(), "x");
        assert_eq!(m.tail("log", 0).map(|(next, _)| next), Ok(2));
        assert_eq!(m.tail("log", 2).map(|(next, _)| next), Ok(2));
        assert!(m.exists("log"));
        assert_eq!(m.list("").len(), 2);
        assert!(
            !m.remove(&mut sim, "ghost"),
            "removing nothing changes nothing"
        );
        nfs.create_volume("other");
        nfs.mount("other")
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
        nfs.create_volume("job");
        let m = nfs.mount("job").unwrap();
        m.write_file(&mut sim, "f", "x").unwrap();
        let before = m.generation().unwrap();

        nfs.set_available(&sim, false);
        assert_eq!(m.generation(), Err(NfsError::Unavailable));
        assert_eq!(m.read("f", str::len), Err(NfsError::Unavailable));
        assert_eq!(m.write_file(&mut sim, "f", "y"), Err(NfsError::Unavailable));
        nfs.set_available(&sim, true);
        assert_eq!(m.generation(), Ok(before), "a refused write is no change");

        // A volume provisioned again under its old name is another
        // volume: a mount of the first stays stale (ESTALE) for good.
        nfs.delete_volume(&sim, "job");
        let stale = Err(NfsError::NoSuchVolume("job".into()));
        assert_eq!(m.generation(), stale);
        nfs.create_volume("job");
        let fresh = nfs.mount("job").unwrap();
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
        path: Option<&'static str>,
        origin: SimTime,
        log: &Rc<RefCell<Vec<u64>>>,
    ) -> Result<(), NfsError> {
        let log = log.clone();
        let grid = Grid::new(origin, SimDuration::from_secs(1));
        let wakes = move |written: &str, _: &str, _| path.is_none_or(|p| p == written);
        m.park(wakes, grid, move |sim| {
            log.borrow_mut().push(sim.now().as_millis());
        })
    }

    #[test]
    fn a_write_wakes_its_waiters_on_their_next_grid_instant() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("job");
        let m = nfs.mount("job").unwrap();
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
        nfs.create_volume("job");
        let m = nfs.mount("job").unwrap();
        let woke = Rc::default();
        nfs.set_available(&sim, false);
        assert_eq!(
            park_logged(&m, Some("data-loaded"), SimTime::ZERO, &woke),
            Err(NfsError::Unavailable)
        );
        nfs.set_available(&sim, true);
        m.write_file(&mut sim, "data-loaded", "loaded").unwrap();
        sim.run_until_idle();
        assert!(woke.borrow().is_empty(), "a refused wait parks nothing");

        // Parked before the outage, a waiter sits it out and wakes on the
        // first write after it.
        park_logged(&m, Some("data-loaded"), SimTime::ZERO, &woke).unwrap();
        nfs.set_available(&sim, false);
        assert!(m.write_file(&mut sim, "data-loaded", "x").is_err());
        sim.run_for(SimDuration::from_secs(5));
        nfs.set_available(&sim, true);
        assert!(woke.borrow().is_empty(), "a refused write wakes nobody");
        m.remove(&mut sim, "data-loaded");
        sim.run_until_idle();
        assert_eq!(*woke.borrow(), [6_000]);
    }

    #[test]
    fn a_deleted_volume_drops_its_waiters_and_its_contents() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("job");
        let m = nfs.mount("job").unwrap();
        m.append_line(&mut sim, "log", "a line").unwrap();
        let woke = Rc::default();
        park_logged(&m, None, SimTime::ZERO, &woke).unwrap();
        // The waiter's closure owns the only other handle on `woke`.
        assert_eq!(Rc::strong_count(&woke), 2);

        assert!(nfs.delete_volume(&sim, "job"));
        assert_eq!(Rc::strong_count(&woke), 1, "the waiter was dropped");
        assert!(m.volume.borrow().files.is_empty(), "the contents too");
        assert_eq!(
            park_logged(&m, None, SimTime::ZERO, &woke),
            Err(NfsError::NoSuchVolume("job".into()))
        );
        nfs.create_volume("job");
        let again = nfs.mount("job").unwrap();
        again.write_file(&mut sim, "f", "x").unwrap();
        assert_eq!(sim.run_until_idle(), 0, "nobody parked on the new volume");
        assert!(!again.exists("log"));
    }

    #[test]
    fn a_waiter_chooses_its_writes_by_path_and_contents() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("job");
        let m = nfs.mount("job").unwrap();
        let asked = Rc::new(RefCell::new(Vec::new()));
        let a = asked.clone();
        let wakes = move |path: &str, contents: &str, at: SimTime| {
            assert_eq!(at, SimTime::ZERO);
            a.borrow_mut().push(format!("{path}={contents}"));
            path != "log" && contents != "same"
        };
        let grid = Grid::new(SimTime::ZERO, SimDuration::from_secs(1));
        m.park(wakes, grid, |sim| assert_eq!(sim.now().as_millis(), 1_000))
            .unwrap();
        m.append_line(&mut sim, "log", "a line").unwrap();
        m.write_file(&mut sim, "status", "same").unwrap();
        assert!(m.remove(&mut sim, "status"), "a removal writes \"\"");
        m.write_file(&mut sim, "status", "after").unwrap();
        assert_eq!(sim.run_until_idle(), 1);
        assert_eq!(*asked.borrow(), ["log=a line", "status=same", "status="]);
    }

    #[test]
    fn remove_of_nothing_wakes_nobody() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("job");
        let m = nfs.mount("job").unwrap();
        let fired = Rc::new(Cell::new(0));
        let f = fired.clone();
        let grid = Grid::new(SimTime::ZERO, SimDuration::from_secs(1));
        m.park(|_, _, _| true, grid, move |_| f.set(f.get() + 1))
            .unwrap();
        assert!(!m.remove(&mut sim, "ghost"));
        sim.run_until_idle();
        assert_eq!(fired.get(), 0);
    }

    #[test]
    fn lending_reads_count_like_copying_ones() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("v");
        let m = nfs.mount("v").unwrap();
        m.append_line(&mut sim, "log", "12345").unwrap();
        m.append_line(&mut sim, "log", "678").unwrap();
        m.write_file(&mut sim, "exit", "0").unwrap();
        let (next, view) = m.tail("log", 6).unwrap();
        assert_eq!((next, &view.text()[6..]), (10, "678"));
        assert_eq!(m.tail("log", 10).map(|(next, _)| next), Ok(10));
        assert_eq!(m.read("exit", |s| s == "0"), Ok(Some(true)));
        assert_eq!(m.read("nope", |s| s == "0"), Ok(None));
        assert_eq!(m.tail("nope", 0), Err(NfsError::NoSuchFile("nope".into())));
        let st = nfs.stats();
        // One tail read (4 bytes) and one file read (1 byte); a miss is
        // not a read, nor a tail with nothing new.
        assert_eq!((st.reads, st.bytes_read), (2, 5));
        let mut names = Vec::new();
        nfs.for_each_volume(|v| names.push(v.to_owned()));
        assert_eq!(names, ["v"]);
    }

    #[test]
    fn stats_account_bytes() {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        nfs.create_volume("v");
        let m = nfs.mount("v").unwrap();
        m.append_line(&mut sim, "log", "12345").unwrap(); // 6 bytes with newline
        m.write_file(&mut sim, "exit", "0").unwrap(); // 1 byte
        let _ = m.read_file("exit").unwrap();
        let _ = m.tail("log", 0).unwrap();
        let st = nfs.stats();
        assert_eq!(st.writes, 2);
        assert_eq!(st.reads, 2);
        assert_eq!(st.bytes_written, 7);
        assert_eq!(st.bytes_read, 7);
    }
}
