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
//! # Examples
//!
//! ```
//! use dlaas_sharedfs::NfsServer;
//!
//! let nfs = NfsServer::new();
//! let vol = nfs.create_volume("job-1");
//!
//! // Learner side: write progress and an exit file.
//! let learner = nfs.mount(&vol)?;
//! learner.append_line("learner-0/train.log", "iter 100 loss 2.3")?;
//! learner.write_file("learner-0/exit-status", "0")?;
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
//! learner.append_line("learner-0/train.log", "iter 200 loss 2.1")?;
//! assert_ne!(helper.generation()?, seen);
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
    /// The volume does not exist (was never created or was deleted).
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

#[derive(Debug, Default)]
struct Volume {
    files: BTreeMap<String, Vec<String>>,
    /// Reading of the server's write clock at this volume's latest
    /// change (see [`Mount::generation`]).
    generation: u64,
}

impl Volume {
    /// Notes a change: ticks the server's write clock and takes the new
    /// reading as this volume's generation.
    fn touch(&mut self, write_clock: &mut u64) {
        *write_clock += 1;
        self.generation = *write_clock;
    }
}

#[derive(Debug, Default)]
struct ServerState {
    volumes: BTreeMap<String, Volume>,
    stats: NfsStats,
    /// Ticks once per change to any volume. One clock for the whole
    /// server, so a volume deleted and provisioned again under its old
    /// name can never repeat a generation a reader remembers.
    write_clock: u64,
    /// An outage window: data-plane operations (mount, file I/O) fail with
    /// [`NfsError::Unavailable`] while set. Control-plane operations
    /// (create/delete/find volumes) still work — they go through the K8s
    /// storage API, not the NFS data path.
    unavailable: bool,
}

/// The NFS server. Cloning shares the server.
#[derive(Debug, Clone, Default)]
pub struct NfsServer {
    state: Rc<RefCell<ServerState>>,
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
        let mut s = self.state.borrow_mut();
        let ServerState {
            volumes,
            write_clock,
            ..
        } = &mut *s;
        volumes.entry(name.clone()).or_insert_with(|| {
            let mut vol = Volume::default();
            vol.touch(write_clock);
            vol
        });
        VolumeId(name)
    }

    /// Deletes a volume and everything in it (garbage collection after a
    /// job completes or is rolled back). Returns `true` if it existed.
    pub fn delete_volume(&self, id: &VolumeId) -> bool {
        self.state.borrow_mut().volumes.remove(&id.0).is_some()
    }

    /// Deletes a volume by name (for garbage collectors that only know the
    /// naming convention). Returns `true` if it existed.
    pub fn delete_volume_named(&self, name: &str) -> bool {
        self.state.borrow_mut().volumes.remove(name).is_some()
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
    /// [`NfsError::NoSuchVolume`] if it does not exist.
    pub fn mount(&self, id: &VolumeId) -> Result<Mount, NfsError> {
        if !self.is_available() {
            return Err(NfsError::Unavailable);
        }
        if !self.volume_exists(id) {
            return Err(NfsError::NoSuchVolume(id.0.clone()));
        }
        Ok(Mount {
            server: self.clone(),
            volume: id.clone(),
        })
    }

    /// Starts or ends an outage window. While unavailable, mounting and
    /// every file operation (including through existing mounts) fail with
    /// [`NfsError::Unavailable`]; volumes and files survive untouched.
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
/// if the volume has been deleted since mounting (stale mount).
#[derive(Debug, Clone)]
pub struct Mount {
    server: NfsServer,
    volume: VolumeId,
}

impl Mount {
    /// The mounted volume's id.
    pub fn volume(&self) -> &VolumeId {
        &self.volume
    }

    /// Runs `f` on the mounted volume with the server's I/O counters and
    /// its write clock (for [`Volume::touch`]).
    fn with_volume<T>(
        &self,
        f: impl FnOnce(&mut Volume, &mut NfsStats, &mut u64) -> Result<T, NfsError>,
    ) -> Result<T, NfsError> {
        let mut s = self.server.state.borrow_mut();
        if s.unavailable {
            return Err(NfsError::Unavailable);
        }
        let ServerState {
            volumes,
            stats,
            write_clock,
            ..
        } = &mut *s;
        let vol = volumes
            .get_mut(&self.volume.0)
            .ok_or_else(|| NfsError::NoSuchVolume(self.volume.0.clone()))?;
        f(vol, stats, write_clock)
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
        self.with_volume(|vol, _, _| Ok(vol.generation))
    }

    /// Appends one line to a file, creating it if needed.
    ///
    /// # Errors
    ///
    /// [`NfsError::NoSuchVolume`] on a stale mount.
    pub fn append_line(&self, path: &str, line: impl Into<String>) -> Result<(), NfsError> {
        let line = line.into();
        self.with_volume(|vol, stats, clock| {
            stats.writes += 1;
            stats.bytes_written += line.len() as u64 + 1;
            vol.touch(clock);
            match vol.files.get_mut(path) {
                Some(lines) => lines.push(line),
                None => {
                    vol.files.insert(path.to_owned(), vec![line]);
                }
            }
            Ok(())
        })
    }

    /// Replaces a file's contents with a single string (used for exit
    /// status and marker files).
    ///
    /// # Errors
    ///
    /// [`NfsError::NoSuchVolume`] on a stale mount.
    pub fn write_file(&self, path: &str, contents: impl Into<String>) -> Result<(), NfsError> {
        let contents = contents.into();
        self.with_volume(|vol, stats, clock| {
            stats.writes += 1;
            stats.bytes_written += contents.len() as u64;
            vol.touch(clock);
            match vol.files.get_mut(path) {
                Some(lines) => {
                    lines.clear();
                    lines.push(contents);
                }
                None => {
                    vol.files.insert(path.to_owned(), vec![contents]);
                }
            }
            Ok(())
        })
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
        self.with_volume(|vol, stats, _| {
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
        self.with_volume(|vol, stats, _| {
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
        self.with_volume(|vol, _, _| Ok(vol.files.get(path).map_or(0, std::vec::Vec::len)))
            .unwrap_or(0)
    }

    /// `true` if the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.with_volume(|vol, _, _| Ok(vol.files.contains_key(path)))
            .unwrap_or(false)
    }

    /// Removes a file. Returns `true` if it existed.
    pub fn remove(&self, path: &str) -> bool {
        self.with_volume(|vol, _, clock| {
            let existed = vol.files.remove(path).is_some();
            if existed {
                vol.touch(clock);
            }
            Ok(existed)
        })
        .unwrap_or(false)
    }

    /// Paths under `prefix`, in order (directory listing).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.with_volume(|vol, _, _| {
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

    #[test]
    fn volume_lifecycle() {
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job-1");
        assert!(nfs.volume_exists(&vol));
        assert_eq!(vol.as_str(), "job-1");
        // Idempotent create keeps contents.
        let m = nfs.mount(&vol).unwrap();
        m.write_file("x", "1").unwrap();
        let vol2 = nfs.create_volume("job-1");
        assert!(nfs.mount(&vol2).unwrap().exists("x"));

        assert!(nfs.delete_volume(&vol));
        assert!(!nfs.delete_volume(&vol));
        assert!(!nfs.volume_exists(&vol));
        assert!(nfs.mount(&vol).is_err());
    }

    #[test]
    fn stale_mount_fails_cleanly() {
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        nfs.delete_volume(&vol);
        assert_eq!(
            m.append_line("f", "x"),
            Err(NfsError::NoSuchVolume("v".into()))
        );
        assert!(!m.exists("f"));
        assert!(m.list("").is_empty());
        assert_eq!(m.line_count("f"), 0);
        assert!(!m.remove("f"));
    }

    #[test]
    fn append_and_tail() {
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        for i in 0..5 {
            m.append_line("log", format!("line {i}")).unwrap();
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
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.write_file("exit", "1").unwrap();
        m.write_file("exit", "0").unwrap();
        assert_eq!(m.read_file("exit").unwrap(), "0");
        assert_eq!(
            m.read_file("nope"),
            Err(NfsError::NoSuchFile("nope".into()))
        );
    }

    #[test]
    fn two_mounts_share_state() {
        // The learner/controller pattern: one writes, the other reads.
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job");
        let learner = nfs.mount(&vol).unwrap();
        let controller = nfs.mount(&vol).unwrap();
        learner.write_file("learner-0/exit-status", "137").unwrap();
        assert_eq!(
            controller.read_file("learner-0/exit-status").unwrap(),
            "137"
        );
    }

    #[test]
    fn listing_by_prefix() {
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.write_file("learner-0/exit", "0").unwrap();
        m.write_file("learner-1/exit", "0").unwrap();
        m.write_file("logs/a", "x").unwrap();
        assert_eq!(m.list("learner-").len(), 2);
        assert_eq!(
            m.list(""),
            vec!["learner-0/exit", "learner-1/exit", "logs/a"]
        );
    }

    #[test]
    fn remove_file() {
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.write_file("f", "x").unwrap();
        assert!(m.remove("f"));
        assert!(!m.remove("f"));
        assert!(!m.exists("f"));
    }

    #[test]
    fn outage_window_fails_data_plane_only() {
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.write_file("f", "before").unwrap();

        nfs.set_available(false);
        assert!(!nfs.is_available());
        // Data plane: mounts and file ops through existing mounts fail.
        assert!(matches!(nfs.mount(&vol), Err(NfsError::Unavailable)));
        assert_eq!(m.read_file("f"), Err(NfsError::Unavailable));
        assert_eq!(m.write_file("f", "x"), Err(NfsError::Unavailable));
        assert_eq!(m.append_line("g", "x"), Err(NfsError::Unavailable));
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
        learner.append_line("log", "a").unwrap();
        moved("append_line");
        learner.write_file("status", "PROCESSING").unwrap();
        moved("write_file creating a file");
        learner.write_file("status", "PROCESSING").unwrap();
        moved("write_file of the same bytes");
        controller.write_file("go", "go").unwrap();
        moved("a write through the reader's own mount");
        assert!(learner.remove("status"));
        moved("remove");
        assert_eq!(learner.generation(), Ok(seen), "one volume, one counter");
    }

    #[test]
    fn generation_ignores_reads_misses_and_other_volumes() {
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job");
        let m = nfs.mount(&vol).unwrap();
        m.append_line("log", "a").unwrap();
        m.write_file("status", "x").unwrap();
        let before = m.generation().unwrap();
        assert_eq!(m.read("status", str::len), Ok(Some(1)));
        assert_eq!(m.read("ghost", str::len), Ok(None));
        assert_eq!(m.read_file("status").unwrap(), "x");
        assert_eq!(m.for_each_line_from("log", 0, |_| {}), Ok(1));
        assert_eq!(m.read_lines_from("log", 1).unwrap(), Vec::<String>::new());
        assert_eq!(m.line_count("log"), 1);
        assert!(m.exists("log"));
        assert_eq!(m.list("").len(), 2);
        assert!(!m.remove("ghost"), "removing nothing changes nothing");
        let other = nfs.create_volume("other");
        nfs.mount(&other).unwrap().write_file("f", "x").unwrap();
        nfs.create_volume("job"); // idempotent: not a change
        assert_eq!(m.generation(), Ok(before));
    }

    #[test]
    fn generation_is_unreadable_when_the_volume_is() {
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job");
        let m = nfs.mount(&vol).unwrap();
        m.write_file("f", "x").unwrap();
        let before = m.generation().unwrap();

        nfs.set_available(false);
        assert_eq!(m.generation(), Err(NfsError::Unavailable));
        assert_eq!(m.read("f", str::len), Err(NfsError::Unavailable));
        assert_eq!(m.write_file("f", "y"), Err(NfsError::Unavailable));
        nfs.set_available(true);
        assert_eq!(m.generation(), Ok(before), "a refused write is no change");

        // A volume provisioned again under its old name is another
        // volume: a reader of the first must not take it for unchanged.
        nfs.delete_volume(&vol);
        assert_eq!(m.generation(), Err(NfsError::NoSuchVolume("job".into())));
        nfs.create_volume("job");
        assert!(m.generation().unwrap() > before);
    }

    #[test]
    fn lending_reads_count_like_copying_ones() {
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.append_line("log", "12345").unwrap();
        m.append_line("log", "678").unwrap();
        m.write_file("exit", "0").unwrap();
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
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let m = nfs.mount(&vol).unwrap();
        m.append_line("log", "12345").unwrap(); // 6 bytes with newline
        m.write_file("exit", "0").unwrap(); // 1 byte
        let _ = m.read_file("exit").unwrap();
        let _ = m.read_lines_from("log", 0).unwrap();
        let st = nfs.stats();
        assert_eq!(st.writes, 2);
        assert_eq!(st.reads, 2);
        assert_eq!(st.bytes_written, 7);
        assert_eq!(st.bytes_read, 7);
    }
}
