//! # dlaas-objstore — cloud object store (IBM Cloud Object Store stand-in)
//!
//! DLaaS streams training data from a cloud object store, and writes
//! checkpoints, logs and results back to it (paper Fig. 1, §III-g). The
//! store itself is effectively infinite and durable; what matters to the
//! platform is **transfer time** (bandwidth-limited, shared NICs) and
//! **bind time** (credential/endpoint setup, part of the learner's slow
//! restart in Fig. 4).
//!
//! * [`ObjectStore`] — buckets of objects with synthetic or textual bodies
//!   (a textual body is a view of an append-only [`TextBuf`], so a growing
//!   object is re-put without being re-copied),
//! * asynchronous [`ObjectStore::put`] / [`ObjectStore::get`] whose
//!   completion time is modelled on shared [`SharedLink`]s,
//! * synchronous metadata ops (list, head, delete).
//!
//! # Examples
//!
//! ```
//! use dlaas_objstore::{ObjectBody, ObjectStore};
//! use dlaas_net::SharedLink;
//! use dlaas_sim::{Sim, SimDuration};
//! use std::{cell::Cell, rc::Rc};
//!
//! let mut sim = Sim::new(1);
//! let store = ObjectStore::new(1e9); // 1 GB/s service capacity
//! store.create_bucket("training-data");
//!
//! let nic = SharedLink::new(117e6); // the learner's 1GbE NIC
//! let done = Rc::new(Cell::new(false));
//! let d = done.clone();
//! store.put(
//!     &mut sim,
//!     "training-data",
//!     "imagenet/shard-000",
//!     ObjectBody::Synthetic(117_000_000), // ~1s at 1GbE
//!     Some(&nic),
//!     move |_sim, r| { r.unwrap(); d.set(true); },
//! );
//! sim.run_until_idle();
//! assert!(done.get());
//! assert!(sim.now() >= dlaas_sim::SimTime::from_millis(900));
//! ```

// Library code stays quiet and inside the simulation (DESIGN.md §7).
#![warn(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::exit
)]
#![warn(missing_docs)]

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use dlaas_net::SharedLink;
use dlaas_sim::{Sim, SimDuration, SimTime};

/// An append-only text buffer whose contents can be stored without being
/// copied: [`TextBuf::body`] hands out an [`ObjectBody`] that *views* the
/// text appended so far. Later appends extend the buffer in place; every
/// view taken earlier still reads exactly its own prefix, because nothing
/// can shrink or rewrite the buffer. This is how a writer that re-puts a
/// growing object (the log collector — object stores have no append)
/// pays for the new lines only, while the store charges the whole body.
///
/// # Examples
///
/// ```
/// use dlaas_objstore::TextBuf;
///
/// let log = TextBuf::new();
/// log.push_str("line 1");
/// let first = log.body();
/// log.push_str("\nline 2");
/// assert_eq!(first.as_text().as_deref(), Some("line 1"));
/// assert_eq!(log.body().size(), 13);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextBuf(Rc<RefCell<String>>);

impl TextBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes appended so far.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// `true` while nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `s`.
    ///
    /// # Panics
    ///
    /// Panics if called while a [`ObjectBody::as_text`] borrow of a view
    /// of this buffer is alive.
    pub fn push_str(&self, s: &str) {
        self.0.borrow_mut().push_str(s);
    }

    /// A body viewing everything appended so far (no copy).
    pub fn body(&self) -> ObjectBody {
        ObjectBody::Text(TextView {
            buf: self.0.clone(),
            len: self.len(),
        })
    }
}

/// A prefix of a [`TextBuf`]: the buffer and how much of it this view
/// covers. Equality and `Debug` go by the text viewed.
#[derive(Clone)]
pub struct TextView {
    buf: Rc<RefCell<String>>,
    len: usize,
}

impl TextView {
    fn text(&self) -> Ref<'_, str> {
        Ref::map(self.buf.borrow(), |s| &s[..self.len])
    }
}

impl PartialEq for TextView {
    fn eq(&self, other: &Self) -> bool {
        *self.text() == *other.text()
    }
}

impl Eq for TextView {}

impl fmt::Debug for TextView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text(), f)
    }
}

/// Body of a stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectBody {
    /// A body we only track by size (training data, checkpoints).
    Synthetic(u64),
    /// A body with real contents (logs, status files, small manifests):
    /// a view of a [`TextBuf`], or of a buffer of its own when built
    /// [`From`] a string.
    Text(TextView),
}

impl ObjectBody {
    /// Size in bytes — what a transfer of this body is charged, however
    /// little of it had to be copied to build it.
    pub fn size(&self) -> u64 {
        match self {
            ObjectBody::Synthetic(n) => *n,
            ObjectBody::Text(v) => v.len as u64,
        }
    }

    /// The text content, if this is a textual body. The borrow must end
    /// before the [`TextBuf`] behind the body is appended to again.
    pub fn as_text(&self) -> Option<Ref<'_, str>> {
        match self {
            ObjectBody::Text(v) => Some(v.text()),
            ObjectBody::Synthetic(_) => None,
        }
    }
}

impl From<String> for ObjectBody {
    fn from(text: String) -> Self {
        TextBuf(Rc::new(RefCell::new(text))).body()
    }
}

impl From<&str> for ObjectBody {
    fn from(text: &str) -> Self {
        text.to_owned().into()
    }
}

/// Metadata + body of one object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    /// Object key within its bucket.
    pub key: String,
    /// The body.
    pub body: ObjectBody,
    /// Simulated time of the last successful put.
    pub modified: SimTime,
}

/// Errors from object-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjStoreError {
    /// The bucket does not exist.
    NoSuchBucket(String),
    /// The object does not exist.
    NoSuchKey(String),
    /// The service is temporarily refusing requests (outage injection).
    Unavailable,
}

impl fmt::Display for ObjStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjStoreError::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            ObjStoreError::NoSuchKey(k) => write!(f, "no such key: {k}"),
            ObjStoreError::Unavailable => write!(f, "object store unavailable"),
        }
    }
}

impl std::error::Error for ObjStoreError {}

/// Counters describing store activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjStoreStats {
    /// Completed puts.
    pub puts: u64,
    /// Completed gets.
    pub gets: u64,
    /// Bytes written.
    pub bytes_in: u64,
    /// Bytes read.
    pub bytes_out: u64,
}

#[derive(Debug, Default)]
struct StoreState {
    buckets: BTreeMap<String, BTreeMap<String, Object>>,
    stats: ObjStoreStats,
    /// Outage injection: while set, transfers fail with `Unavailable`.
    unavailable: bool,
}

/// The object store service. Cloning shares the store.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    state: Rc<RefCell<StoreState>>,
    service_link: SharedLink,
    base_latency: SimDuration,
}

impl ObjectStore {
    /// Creates a store whose aggregate service capacity is
    /// `service_bytes_per_sec` (all tenants share it), with a default
    /// 2 ms per-request base latency.
    pub fn new(service_bytes_per_sec: f64) -> Self {
        ObjectStore {
            state: Rc::new(RefCell::new(StoreState::default())),
            service_link: SharedLink::new(service_bytes_per_sec),
            base_latency: SimDuration::from_millis(2),
        }
    }

    /// Creates a bucket (idempotent).
    pub fn create_bucket(&self, name: impl Into<String>) {
        self.state
            .borrow_mut()
            .buckets
            .entry(name.into())
            .or_default();
    }

    /// `true` if the bucket exists.
    pub fn bucket_exists(&self, name: &str) -> bool {
        self.state.borrow().buckets.contains_key(name)
    }

    /// Activity counters.
    pub fn stats(&self) -> ObjStoreStats {
        self.state.borrow().stats
    }

    /// Injects (or lifts) a service outage: while unavailable, `put`/`get`
    /// fail fast with [`ObjStoreError::Unavailable`]. Metadata operations
    /// keep working (they model the control plane, which clients cache).
    pub fn set_unavailable(&self, unavailable: bool) {
        self.state.borrow_mut().unavailable = unavailable;
    }

    fn is_unavailable(&self) -> bool {
        self.state.borrow().unavailable
    }

    /// Computes when a `bytes`-sized transfer starting now would complete,
    /// reserving capacity on the store link and (optionally) the caller's
    /// NIC. The result is the later of the two reservations plus base
    /// latency.
    fn transfer_end(&self, now: SimTime, bytes: u64, nic: Option<&SharedLink>) -> SimTime {
        let store_end = self.service_link.reserve(now, bytes).end;
        let end = match nic {
            Some(link) => link.reserve(now, bytes).end.max(store_end),
            None => store_end,
        };
        end + self.base_latency
    }

    /// Uploads an object. The callback fires when the last byte is stored;
    /// the object becomes visible at that instant (no partial writes, as
    /// with real object stores).
    pub fn put(
        &self,
        sim: &mut Sim,
        bucket: impl Into<String>,
        key: impl Into<String>,
        body: ObjectBody,
        nic: Option<&SharedLink>,
        done: impl FnOnce(&mut Sim, Result<(), ObjStoreError>) + 'static,
    ) {
        let bucket = bucket.into();
        let key = key.into();
        if self.is_unavailable() {
            done(sim, Err(ObjStoreError::Unavailable));
            return;
        }
        if !self.bucket_exists(&bucket) {
            done(sim, Err(ObjStoreError::NoSuchBucket(bucket)));
            return;
        }
        let bytes = body.size();
        let end = self.transfer_end(sim.now(), bytes, nic);
        let me = self.clone();
        sim.schedule_at(end, move |sim| {
            {
                let mut s = me.state.borrow_mut();
                let Some(b) = s.buckets.get_mut(&bucket) else {
                    done(sim, Err(ObjStoreError::NoSuchBucket(bucket)));
                    return;
                };
                b.insert(
                    key.clone(),
                    Object {
                        key,
                        body,
                        modified: sim.now(),
                    },
                );
                s.stats.puts += 1;
                s.stats.bytes_in += bytes;
            }
            done(sim, Ok(()));
        });
    }

    /// Downloads an object; the callback receives a clone of it when the
    /// last byte has arrived.
    pub fn get(
        &self,
        sim: &mut Sim,
        bucket: impl Into<String>,
        key: impl Into<String>,
        nic: Option<&SharedLink>,
        done: impl FnOnce(&mut Sim, Result<Object, ObjStoreError>) + 'static,
    ) {
        let bucket = bucket.into();
        let key = key.into();
        if self.is_unavailable() {
            done(sim, Err(ObjStoreError::Unavailable));
            return;
        }
        let obj = {
            let s = self.state.borrow();
            match s.buckets.get(&bucket) {
                None => {
                    drop(s);
                    done(sim, Err(ObjStoreError::NoSuchBucket(bucket)));
                    return;
                }
                Some(b) => match b.get(&key) {
                    None => {
                        drop(s);
                        done(sim, Err(ObjStoreError::NoSuchKey(key)));
                        return;
                    }
                    Some(o) => o.clone(),
                },
            }
        };
        let bytes = obj.body.size();
        let end = self.transfer_end(sim.now(), bytes, nic);
        let me = self.clone();
        sim.schedule_at(end, move |sim| {
            {
                let mut s = me.state.borrow_mut();
                s.stats.gets += 1;
                s.stats.bytes_out += bytes;
            }
            done(sim, Ok(obj));
        });
    }

    /// Inserts an object instantly, bypassing the transfer model. For
    /// bootstrap/seeding only (e.g. staging the training dataset that
    /// "already exists" in the cloud before an experiment starts).
    pub fn seed(&self, bucket: &str, key: impl Into<String>, body: ObjectBody) {
        self.create_bucket(bucket);
        let key = key.into();
        let mut s = self.state.borrow_mut();
        s.buckets.get_mut(bucket).expect("just created").insert(
            key.clone(),
            Object {
                key,
                body,
                modified: SimTime::ZERO,
            },
        );
    }

    /// Synchronous read of a textual object's contents, bypassing the
    /// transfer model (harness/introspection aid; production paths use
    /// [`ObjectStore::get`]).
    pub fn read_text(&self, bucket: &str, key: &str) -> Option<String> {
        let s = self.state.borrow();
        s.buckets
            .get(bucket)?
            .get(key)?
            .body
            .as_text()
            .map(|text| text.to_owned())
    }

    /// Metadata-only lookup (no transfer): size and mtime.
    pub fn head(&self, bucket: &str, key: &str) -> Result<(u64, SimTime), ObjStoreError> {
        let s = self.state.borrow();
        let b = s
            .buckets
            .get(bucket)
            .ok_or_else(|| ObjStoreError::NoSuchBucket(bucket.to_owned()))?;
        let o = b
            .get(key)
            .ok_or_else(|| ObjStoreError::NoSuchKey(key.to_owned()))?;
        Ok((o.body.size(), o.modified))
    }

    /// Keys in `bucket` starting with `prefix`, in order.
    pub fn list(&self, bucket: &str, prefix: &str) -> Vec<String> {
        let s = self.state.borrow();
        s.buckets
            .get(bucket)
            .map(|b| {
                b.range(prefix.to_owned()..)
                    .take_while(|(k, _)| k.starts_with(prefix))
                    .map(|(k, _)| k.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Removes an object. Returns `true` if it existed.
    pub fn delete(&self, bucket: &str, key: &str) -> bool {
        self.state
            .borrow_mut()
            .buckets
            .get_mut(bucket)
            .is_some_and(|b| b.remove(key).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Slot<T> = Rc<RefCell<Option<T>>>;

    fn slot<T: 'static>() -> (Slot<T>, impl FnOnce(&mut Sim, T)) {
        let cell: Slot<T> = Rc::new(RefCell::new(None));
        let c = cell.clone();
        (cell, move |_: &mut Sim, v: T| *c.borrow_mut() = Some(v))
    }

    #[test]
    fn put_get_roundtrip_with_text_body() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1e9);
        store.create_bucket("logs");
        store.put(
            &mut sim,
            "logs",
            "job-1/learner-0.log",
            "line1\nline2\n".into(),
            None,
            |_, r| r.unwrap(),
        );
        sim.run_until_idle();
        let (got, cb) = slot();
        store.get(&mut sim, "logs", "job-1/learner-0.log", None, cb);
        sim.run_until_idle();
        let obj = got.borrow().clone().unwrap().unwrap();
        assert_eq!(obj.body.as_text().as_deref(), Some("line1\nline2\n"));
        assert_eq!(store.stats().puts, 1);
        assert_eq!(store.stats().gets, 1);
    }

    #[test]
    fn a_view_keeps_its_prefix_while_the_buffer_grows() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1e9);
        store.create_bucket("logs");
        let log = TextBuf::new();
        log.push_str("iter=1");
        let first = log.body();
        store.put(&mut sim, "logs", "l", first.clone(), None, |_, r| {
            r.unwrap();
        });
        // The writer appends while the put is in flight and after it.
        log.push_str("\niter=2");
        sim.run_until_idle();
        log.push_str("\niter=3");
        assert_eq!(first.as_text().as_deref(), Some("iter=1"));
        assert_eq!(store.read_text("logs", "l").as_deref(), Some("iter=1"));
        assert_eq!(first, ObjectBody::from("iter=1"));
        assert_ne!(first, log.body());
        assert_eq!(format!("{first:?}"), "Text(\"iter=1\")");
        assert_eq!(log.len(), 20);
    }

    #[test]
    fn a_view_is_charged_the_whole_body() {
        // Object stores have no append: re-putting a grown log transfers
        // all of it, however little the writer had to copy.
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1_000.0); // 1 KB/s
        store.create_bucket("logs");
        let log = TextBuf::new();
        log.push_str(&"x".repeat(1_000));
        store.put(&mut sim, "logs", "l", log.body(), None, |_, r| r.unwrap());
        sim.run_until_idle();
        let first_done = sim.now().as_secs_f64();
        assert!((0.9..1.2).contains(&first_done), "{first_done}s");
        log.push_str(&"y".repeat(1_000));
        let body = log.body();
        assert_eq!(body.size(), 2_000);
        store.put(&mut sim, "logs", "l", body, None, |_, r| r.unwrap());
        sim.run_until_idle();
        let second = sim.now().as_secs_f64() - first_done;
        assert!(
            (1.9..2.2).contains(&second),
            "2 KB at 1 KB/s took {second}s"
        );
        assert_eq!(store.stats().puts, 2);
        assert_eq!(store.stats().bytes_in, 3_000);
        assert_eq!(store.head("logs", "l").unwrap().0, 2_000);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1_000_000.0); // 1 MB/s
        store.create_bucket("data");
        store.put(
            &mut sim,
            "data",
            "big",
            ObjectBody::Synthetic(2_000_000),
            None,
            |_, r| r.unwrap(),
        );
        sim.run_until_idle();
        let t = sim.now().as_secs_f64();
        assert!((1.9..2.2).contains(&t), "2MB at 1MB/s took {t}s");
    }

    #[test]
    fn nic_bottleneck_dominates_when_slower() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1e9);
        store.create_bucket("data");
        let slow_nic = SharedLink::new(100_000.0); // 100 KB/s
        store.put(
            &mut sim,
            "data",
            "x",
            ObjectBody::Synthetic(200_000),
            Some(&slow_nic),
            |_, r| r.unwrap(),
        );
        sim.run_until_idle();
        let t = sim.now().as_secs_f64();
        assert!((1.9..2.2).contains(&t), "NIC-bound transfer took {t}s");
    }

    #[test]
    fn concurrent_puts_share_service_capacity() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1_000_000.0);
        store.create_bucket("data");
        for i in 0..4 {
            store.put(
                &mut sim,
                "data",
                format!("k{i}"),
                ObjectBody::Synthetic(1_000_000),
                None,
                |_, r| r.unwrap(),
            );
        }
        sim.run_until_idle();
        let t = sim.now().as_secs_f64();
        assert!(t >= 3.9, "4x1MB serialized on a 1MB/s link: {t}s");
    }

    #[test]
    fn missing_bucket_and_key_errors() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1e9);
        let (r1, cb1) = slot();
        store.put(&mut sim, "ghost", "k", ObjectBody::Synthetic(1), None, cb1);
        sim.run_until_idle();
        assert_eq!(
            r1.borrow().clone().unwrap(),
            Err(ObjStoreError::NoSuchBucket("ghost".into()))
        );

        store.create_bucket("b");
        let (r2, cb2) = slot();
        store.get(&mut sim, "b", "nope", None, cb2);
        sim.run_until_idle();
        assert_eq!(
            r2.borrow().clone().unwrap(),
            Err(ObjStoreError::NoSuchKey("nope".into()))
        );
        assert!(store.head("b", "nope").is_err());
        assert!(store.head("ghost", "x").is_err());
    }

    #[test]
    fn list_and_delete() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1e9);
        store.create_bucket("ckpt");
        for i in 0..3 {
            store.put(
                &mut sim,
                "ckpt",
                format!("job-1/ckpt-{i}"),
                ObjectBody::Synthetic(10),
                None,
                |_, r| r.unwrap(),
            );
        }
        store.put(
            &mut sim,
            "ckpt",
            "job-2/ckpt-0",
            ObjectBody::Synthetic(10),
            None,
            |_, r| r.unwrap(),
        );
        sim.run_until_idle();
        assert_eq!(store.list("ckpt", "job-1/").len(), 3);
        assert_eq!(store.list("ckpt", "").len(), 4);
        assert!(store.list("ghost", "").is_empty());
        assert!(store.delete("ckpt", "job-1/ckpt-0"));
        assert!(!store.delete("ckpt", "job-1/ckpt-0"));
        assert_eq!(store.list("ckpt", "job-1/").len(), 2);
    }

    #[test]
    fn object_invisible_until_put_completes() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1_000_000.0);
        store.create_bucket("b");
        store.put(
            &mut sim,
            "b",
            "k",
            ObjectBody::Synthetic(1_000_000),
            None,
            |_, _| {},
        );
        // Half-way through the 1-second transfer: not yet visible.
        sim.run_for(SimDuration::from_millis(500));
        assert!(store.head("b", "k").is_err());
        sim.run_until_idle();
        assert!(store.head("b", "k").is_ok());
    }

    #[test]
    fn head_reports_size_and_mtime() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1e9);
        store.create_bucket("b");
        store.put(
            &mut sim,
            "b",
            "k",
            ObjectBody::Synthetic(1234),
            None,
            |_, r| r.unwrap(),
        );
        sim.run_until_idle();
        let (size, mtime) = store.head("b", "k").unwrap();
        assert_eq!(size, 1234);
        assert_eq!(mtime, sim.now());
    }

    #[test]
    fn outage_fails_fast_and_recovers() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1e9);
        store.create_bucket("b");
        store.put(
            &mut sim,
            "b",
            "k",
            ObjectBody::Synthetic(10),
            None,
            |_, r| r.unwrap(),
        );
        sim.run_until_idle();

        store.set_unavailable(true);
        let (p, pcb) = slot();
        store.put(&mut sim, "b", "k2", ObjectBody::Synthetic(10), None, pcb);
        let (g, gcb) = slot();
        store.get(&mut sim, "b", "k", None, gcb);
        sim.run_until_idle();
        assert_eq!(p.borrow().clone().unwrap(), Err(ObjStoreError::Unavailable));
        assert_eq!(g.borrow().clone().unwrap(), Err(ObjStoreError::Unavailable));
        // Metadata still served; data untouched.
        assert!(store.head("b", "k").is_ok());

        store.set_unavailable(false);
        let (g2, g2cb) = slot();
        store.get(&mut sim, "b", "k", None, g2cb);
        sim.run_until_idle();
        assert!(g2.borrow().clone().unwrap().is_ok());
    }

    #[test]
    fn bucket_create_idempotent() {
        let store = ObjectStore::new(1e9);
        store.create_bucket("b");
        store.create_bucket("b");
        assert!(store.bucket_exists("b"));
        assert!(!store.bucket_exists("c"));
    }
}
