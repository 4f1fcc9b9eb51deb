//! The journaled document store.
//!
//! DLaaS stores all job metadata in MongoDB and writes it **before**
//! acknowledging a submission, which is what makes accepted jobs durable
//! (paper §III-c). [`DocStore`] reproduces the property that matters: every
//! acknowledged mutation is on the journal ("disk"), and a crash loses only
//! volatile state — [`DocStore::recover`] rebuilds the collections from the
//! journal's last checkpoint and the records written since it.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use crate::query::{Filter, Update};
use crate::value::Value;

/// Errors reported by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Insert with an `_id` that already exists in the collection.
    DuplicateId(String),
    /// Document root must be an object.
    NotAnObject,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::DuplicateId(id) => write!(f, "duplicate _id: {id}"),
            StoreError::NotAnObject => write!(f, "document root must be an object"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A stored document as readers see it: an immutable snapshot shared by
/// reference count.
///
/// The store never edits a document *someone else can see*: an update
/// edits the collection's copy in place only while the collection holds
/// the one reference to it, and otherwise builds the successor beside it
/// and swaps the handle (`Rc::make_mut`). So a `Doc` obtained from any
/// query keeps showing the document as it was when the query ran, however
/// the collection changes afterwards (snapshot isolation), handing one
/// out copies nothing, and an update costs a copy of the document only
/// while a reader still holds the version it replaces. The journal's
/// checkpoint is such a reader — a document's first update after a
/// checkpoint copies it once — but its insert records are not: an insert
/// record keeps an image of its own, and the collection stores a copy of
/// its own from the start.
pub type Doc = Rc<Value>;

/// One durable journal record (the "disk" write-ahead log): a redo log
/// entry. Redoing the records written since the last checkpoint, in order,
/// through the code path that wrote them, on top of that checkpoint
/// rebuilds the store; none of them is an after-image, so what the
/// journal keeps of an update is the update, not another version of the
/// document. Collection names and document ids are shared with the
/// collection's own maps.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// Document inserted into a collection.
    Insert {
        /// Collection name.
        coll: Rc<str>,
        /// Document id.
        id: Rc<str>,
        /// Full document, as inserted: an image of its own, which the
        /// collection's copy of the document never shares.
        doc: Doc,
    },
    /// Document changed by an update (a no-op update journals nothing).
    Update {
        /// Collection name.
        coll: Rc<str>,
        /// Document id.
        id: Rc<str>,
        /// The mutation, one copy per `update_*` call however many
        /// documents it changed.
        update: Rc<Update>,
    },
    /// Document removed.
    Remove {
        /// Collection name.
        coll: Rc<str>,
        /// Document id.
        id: Rc<str>,
    },
    /// Secondary index created.
    Index {
        /// Collection name.
        coll: Rc<str>,
        /// Indexed dotted path.
        path: String,
    },
}

/// One collection as a checkpoint holds it.
#[derive(Debug)]
struct CollectionImage {
    name: Rc<str>,
    change_seq: u64,
    /// The change feed in sequence order: every id ever changed, with its
    /// document if it exists (shared with the live collection until one
    /// of them moves on), `None` for a removal tombstone.
    feed: Vec<(u64, Rc<str>, Option<Doc>)>,
    index_paths: Vec<String>,
}

/// The store as it stood when the checkpoint was taken.
#[derive(Debug, Default)]
struct Checkpoint {
    collections: Vec<CollectionImage>,
    next_auto_id: u64,
}

#[derive(Debug, Default)]
struct Disk {
    checkpoint: Checkpoint,
    /// The records written since `checkpoint`, oldest first.
    records: Vec<JournalOp>,
}

/// The durable journal, shared between store incarnations (it *is* the
/// disk): the last checkpoint and the records written since it. Cloning
/// shares the underlying disk.
///
/// The store takes a checkpoint once the records since the last one
/// outnumber the entries a checkpoint holds (documents plus removal
/// tombstones), so the journal stays proportional to the store's size
/// and a checkpoint's cost, linear in the entries, is paid for by as
/// many writes.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    disk: Rc<RefCell<Disk>>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record (a synchronous, durable write).
    pub fn append(&self, op: JournalOp) {
        self.disk.borrow_mut().records.push(op);
    }

    /// Number of records written since the last checkpoint.
    pub fn len(&self) -> usize {
        self.disk.borrow().records.len()
    }

    /// `true` when nothing has been journaled since the last checkpoint.
    pub fn is_empty(&self) -> bool {
        self.disk.borrow().records.is_empty()
    }
}

/// Moves the auto-id high-water mark past `id` when `id` has the form
/// `auto-N` — what every journaled insert does, in the live store as in
/// recovery, so the two count alike and neither hands out an id that is
/// already stored.
fn note_id(next_auto_id: &mut u64, id: &str) {
    if let Some(n) = id.strip_prefix("auto-").and_then(|s| s.parse::<u64>().ok()) {
        *next_auto_id = (*next_auto_id).max(n.saturating_add(1));
    }
}

/// string → ids of the documents holding it at the indexed path; a
/// document holding anything else there is in no posting list.
type Index = BTreeMap<Rc<str>, BTreeSet<Rc<str>>>;

/// The string `doc` holds at `path`, which an index on `path` keys it by.
fn indexed<'a>(doc: &'a Value, path: &str) -> Option<&'a str> {
    doc.path(path)?.as_str()
}

fn index(idx: &mut Index, key: &str, id: &Rc<str>) {
    if let Some(ids) = idx.get_mut(key) {
        ids.insert(id.clone());
    } else {
        idx.insert(key.into(), BTreeSet::from([id.clone()]));
    }
}

fn unindex(idx: &mut Index, key: &str, id: &str) {
    if let Some(set) = idx.get_mut(key) {
        set.remove(id);
        if set.is_empty() {
            idx.remove(key);
        }
    }
}

#[derive(Debug)]
struct Collection {
    /// The collection's name, as every journal record of it carries it.
    name: Rc<str>,
    /// id → document. The key is the one allocation of the id: index
    /// postings, the change feed and journal records share it.
    docs: BTreeMap<Rc<str>, Doc>,
    /// path → index; consulted for filters that pin strings on the path.
    indexes: BTreeMap<String, Index>,
    /// Monotonic per-collection change counter, bumped once per journaled
    /// mutation (insert, effective update, delete). A checkpoint keeps it
    /// and redo bumps through the same path, so sequence numbers — and
    /// therefore any watcher's watermark — survive crash recovery
    /// unchanged.
    change_seq: u64,
    /// id → sequence number of its latest change.
    changed_at: BTreeMap<Rc<str>, u64>,
    /// sequence number → id; at most one entry per id (re-touching a
    /// document moves it to the tail), so a watcher reading the range
    /// above its watermark sees each changed document exactly once.
    by_seq: BTreeMap<u64, Rc<str>>,
}

/// The collection called `coll`, created empty if there is none yet.
fn collection<'a>(
    collections: &'a mut BTreeMap<Rc<str>, Collection>,
    coll: &str,
) -> &'a mut Collection {
    let name = collections
        .get_key_value(coll)
        .map_or_else(|| Rc::from(coll), |(name, _)| name.clone());
    collections
        .entry(name)
        .or_insert_with_key(|name| Collection::new(name.clone()))
}

// `put`, `edit`, `remove` and `build_index` are the mutations, as the live
// store and journal redo both perform them: documents, indexes and the
// change feed move together, so a recovered store is state-equal by
// construction.
impl Collection {
    fn new(name: Rc<str>) -> Self {
        Collection {
            name,
            docs: BTreeMap::new(),
            indexes: BTreeMap::new(),
            change_seq: 0,
            changed_at: BTreeMap::new(),
            by_seq: BTreeMap::new(),
        }
    }

    /// Documents plus removal tombstones: what a checkpoint holds of the
    /// collection (every document has a place in the change feed).
    fn entries(&self) -> usize {
        self.by_seq.len()
    }

    /// The collection as a checkpoint holds it; its documents are shared,
    /// not copied.
    fn image(&self) -> CollectionImage {
        CollectionImage {
            name: self.name.clone(),
            change_seq: self.change_seq,
            feed: self
                .by_seq
                .iter()
                .map(|(seq, id)| (*seq, id.clone(), self.docs.get(id).cloned()))
                .collect(),
            index_paths: self.indexes.keys().cloned().collect(),
        }
    }

    /// The collection a checkpoint holds, indexes rebuilt.
    fn restore(image: &CollectionImage) -> Self {
        let mut c = Collection::new(image.name.clone());
        for (seq, id, doc) in &image.feed {
            if let Some(doc) = doc {
                c.docs.insert(id.clone(), doc.clone());
            }
            c.changed_at.insert(id.clone(), *seq);
            c.by_seq.insert(*seq, id.clone());
        }
        c.change_seq = image.change_seq;
        for path in &image.index_paths {
            c.build_index(path);
        }
        c
    }

    /// Records that `id` changed (was inserted, updated, or removed),
    /// moving it to the tail of the change feed.
    fn note_change(&mut self, id: Rc<str>) {
        self.change_seq += 1;
        if let Some(old) = self.changed_at.insert(id.clone(), self.change_seq) {
            self.by_seq.remove(&old);
        }
        self.by_seq.insert(self.change_seq, id);
    }

    /// Adds a document under a fresh id.
    fn put(&mut self, id: Rc<str>, doc: Doc) {
        for (path, idx) in &mut self.indexes {
            if let Some(key) = indexed(&doc, path) {
                index(idx, key, &id);
            }
        }
        self.docs.insert(id.clone(), doc);
        self.note_change(id);
    }

    /// Applies `update` to document `id`; `true` if that changed it.
    ///
    /// Copy-on-write: the document is edited where it is unless a reader
    /// (a query result, an RPC response in flight) still holds this
    /// version, in which case the edit goes to a copy and the reader keeps
    /// the original. Index upkeep runs only for an index whose path the
    /// update can reach, and only if the value there moved; the old key
    /// is the index's own, shared.
    fn edit(&mut self, id: &Rc<str>, update: &Update) -> bool {
        let Some(slot) = self.docs.get_mut(id) else {
            return false;
        };
        let reached: Vec<_> = self
            .indexes
            .iter_mut()
            .filter(|(path, _)| update.reaches(path))
            .map(|(path, idx)| {
                let old = indexed(slot, path)
                    .and_then(|key| idx.get_key_value(key))
                    .map(|(key, _)| key.clone());
                (path, idx, old)
            })
            .collect();
        let doc = Rc::make_mut(slot);
        if !update.apply(doc) {
            return false;
        }
        for (path, idx, old) in reached {
            let new = indexed(doc, path);
            if new != old.as_deref() {
                if let Some(old) = old {
                    unindex(idx, &old, id);
                }
                if let Some(new) = new {
                    index(idx, new, id);
                }
            }
        }
        self.note_change(id.clone());
        true
    }

    /// Indexes `path` over the documents held now.
    fn build_index(&mut self, path: &str) {
        let mut idx = Index::new();
        for (id, doc) in &self.docs {
            if let Some(key) = indexed(doc, path) {
                index(&mut idx, key, id);
            }
        }
        self.indexes.insert(path.to_owned(), idx);
    }

    /// Removes document `id`; `false` if there is none.
    fn remove(&mut self, id: &str) -> bool {
        let Some((id, old)) = self.docs.remove_entry(id) else {
            return false;
        };
        for (path, idx) in &mut self.indexes {
            if let Some(key) = indexed(&old, path) {
                unindex(idx, key, &id);
            }
        }
        self.note_change(id);
        true
    }

    /// The candidate documents for `filter` with their ids, in id order,
    /// when the primary key or an index narrows it; `None` when every
    /// document is a candidate (the caller then walks `docs` itself — no
    /// list of every document). An `_id` pin costs one lookup. An index
    /// serves only a pin of strings: under `==` a string equals nothing
    /// else, so any other pin goes to the next index or a scan.
    fn candidates(&self, filter: &Filter) -> Option<Vec<(&Rc<str>, &Doc)>> {
        let stored = |id: &str| self.docs.get_key_value(id);
        // `_id` is the primary key: an exact pin needs no scan.
        if let Some([Value::Str(id)]) = filter.pinned("_id") {
            return Some(stored(id).into_iter().collect());
        }
        let strings = |vs: &&[Value]| vs.iter().all(|v| v.as_str().is_some());
        for (path, idx) in &self.indexes {
            let Some(vs) = filter.pinned(path).filter(strings) else {
                continue;
            };
            let mut listed: Vec<_> = vs
                .iter()
                .filter_map(|v| idx.get(v.as_str()?))
                .flatten()
                .filter_map(|id| stored(id))
                .collect();
            // Each posting list is in id order; sorting merges several
            // into the order a scan has.
            listed.sort_unstable_by_key(|&(id, _)| id);
            listed.dedup_by_key(|&mut (id, _)| id);
            return Some(listed);
        }
        None
    }

    /// The candidate documents for `filter`, in id order, and how many
    /// there are (the query's work count).
    fn candidate_docs(&self, filter: &Filter) -> (u64, impl Iterator<Item = &Doc>) {
        let listed = self.candidates(filter);
        let examined = listed.as_ref().map_or(self.docs.len(), Vec::len) as u64;
        let all = listed.is_none().then(|| self.docs.values());
        let listed = listed.into_iter().flatten().map(|(_, doc)| doc);
        (examined, all.into_iter().flatten().chain(listed))
    }

    /// Ids of the documents matching `filter`, in id order, and the
    /// candidate count (for the mutations, which edit `docs` by id).
    fn matching_ids(&self, filter: &Filter) -> (u64, Vec<Rc<str>>) {
        match self.candidates(filter) {
            Some(listed) => (
                listed.len() as u64,
                listed
                    .into_iter()
                    .filter(|(_, doc)| filter.matches(doc))
                    .map(|(id, _)| id.clone())
                    .collect(),
            ),
            None => (
                self.docs.len() as u64,
                self.docs
                    .iter()
                    .filter(|(_, d)| filter.matches(d))
                    .map(|(id, _)| id.clone())
                    .collect(),
            ),
        }
    }
}

/// A journaled, single-primary document store (the MongoDB stand-in).
///
/// # Examples
///
/// ```
/// use dlaas_docstore::{obj, DocStore, Filter, Update};
///
/// let mut db = DocStore::new();
/// db.insert("jobs", obj! { "_id" => "job-1", "status" => "PENDING" })?;
/// db.update_one(
///     "jobs",
///     &Filter::eq("_id", "job-1"),
///     &Update::set("status", "PROCESSING"),
/// );
/// let doc = db.find_one("jobs", &Filter::eq("status", "PROCESSING")).unwrap();
/// assert_eq!(doc.path("_id").unwrap().as_str(), Some("job-1"));
/// # Ok::<(), dlaas_docstore::StoreError>(())
/// ```
#[derive(Debug)]
pub struct DocStore {
    collections: BTreeMap<Rc<str>, Collection>,
    journal: Journal,
    next_auto_id: u64,
    /// Candidate documents examined by the most recent query-bearing
    /// operation — the per-query work count an RPC server can export.
    last_examined: std::cell::Cell<u64>,
}

impl Default for DocStore {
    fn default() -> Self {
        Self::new()
    }
}

impl DocStore {
    /// An empty store with a fresh journal.
    pub fn new() -> Self {
        DocStore {
            collections: BTreeMap::new(),
            journal: Journal::new(),
            next_auto_id: 0,
            last_examined: std::cell::Cell::new(0),
        }
    }

    /// Rebuilds a store from an existing journal (crash recovery): loads
    /// its last checkpoint, then redoes every record written since through
    /// the code that wrote it — work proportional to the checkpoint's
    /// entries plus those records. The result is state-equal to the store
    /// that wrote the journal: documents, index results, change sequence
    /// numbers and the auto-id high-water mark.
    pub fn recover(journal: Journal) -> Self {
        let mut store = DocStore::new();
        let disk = journal.disk.borrow();
        store.next_auto_id = disk.checkpoint.next_auto_id;
        for image in &disk.checkpoint.collections {
            store
                .collections
                .insert(image.name.clone(), Collection::restore(image));
        }
        for op in &disk.records {
            match op {
                JournalOp::Insert { coll, id, doc } => {
                    let stored = Rc::new(Value::clone(doc));
                    collection(&mut store.collections, coll).put(id.clone(), stored);
                    note_id(&mut store.next_auto_id, id);
                }
                JournalOp::Update { coll, id, update } => {
                    if let Some(c) = store.collections.get_mut(coll) {
                        c.edit(id, update);
                    }
                }
                JournalOp::Remove { coll, id } => {
                    if let Some(c) = store.collections.get_mut(coll) {
                        c.remove(id);
                    }
                }
                JournalOp::Index { coll, path } => {
                    collection(&mut store.collections, coll).build_index(path);
                }
            }
        }
        drop(disk);
        store.journal = journal;
        store
    }

    /// Takes a checkpoint if the records since the last one outnumber the
    /// entries it would hold; every mutation ends here, so the records on
    /// the journal never outnumber the store's entries between calls.
    fn checkpoint_if_due(&self) {
        let entries: usize = self.collections.values().map(Collection::entries).sum();
        let mut disk = self.journal.disk.borrow_mut();
        if disk.records.len() <= entries {
            return;
        }
        // The old checkpoint and the records go first: the versions only
        // they held are freed before the new checkpoint is built.
        disk.records.clear();
        disk.checkpoint.collections.clear();
        disk.checkpoint
            .collections
            .extend(self.collections.values().map(Collection::image));
        disk.checkpoint.next_auto_id = self.next_auto_id;
    }

    /// The journal (share it with a future incarnation to recover).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Creates a secondary index on `path` (idempotent, journaled).
    pub fn create_index(&mut self, coll: &str, path: &str) {
        if self
            .collections
            .get(coll)
            .is_some_and(|c| c.indexes.contains_key(path))
        {
            return;
        }
        let c = collection(&mut self.collections, coll);
        c.build_index(path);
        self.journal.append(JournalOp::Index {
            coll: c.name.clone(),
            path: path.to_owned(),
        });
        self.checkpoint_if_due();
    }

    /// Inserts a document, journaling before returning (write concern:
    /// journaled). Uses the document's `"_id"` string field or assigns
    /// `auto-N`, N past every `auto-N` id ever inserted. Returns the id.
    ///
    /// The journal keeps `doc` as its insert image and the collection
    /// stores a copy of it made here, which is therefore the collection's
    /// alone: no later update of it copies the document unless a reader
    /// holds it.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotAnObject`] if `doc` is not an object,
    /// [`StoreError::DuplicateId`] if the id already exists.
    pub fn insert(&mut self, coll: &str, mut doc: Value) -> Result<String, StoreError> {
        let Value::Obj(obj) = &mut doc else {
            return Err(StoreError::NotAnObject);
        };
        let id = match obj.get("_id").and_then(Value::as_str) {
            Some(s) => s.to_owned(),
            None => {
                let id = format!("auto-{}", self.next_auto_id);
                obj.insert("_id".into(), Value::from(id.clone()));
                id
            }
        };
        let c = collection(&mut self.collections, coll);
        if c.docs.contains_key(id.as_str()) {
            return Err(StoreError::DuplicateId(id));
        }
        let shared: Rc<str> = id.as_str().into();
        let stored = Rc::new(doc.clone());
        // Journal first: the write is durable before it is acknowledged.
        self.journal.append(JournalOp::Insert {
            coll: c.name.clone(),
            id: shared.clone(),
            doc: Rc::new(doc),
        });
        c.put(shared, stored);
        note_id(&mut self.next_auto_id, &id);
        self.checkpoint_if_due();
        Ok(id)
    }

    /// All documents matching `filter`, in id order.
    pub fn find(&self, coll: &str, filter: &Filter) -> Vec<Doc> {
        let Some(c) = self.collections.get(coll) else {
            self.last_examined.set(0);
            return Vec::new();
        };
        let (examined, cands) = c.candidate_docs(filter);
        self.last_examined.set(examined);
        cands.filter(|d| filter.matches(d)).cloned().collect()
    }

    /// First matching document in id order, if any.
    pub fn find_one(&self, coll: &str, filter: &Filter) -> Option<Doc> {
        let Some(c) = self.collections.get(coll) else {
            self.last_examined.set(0);
            return None;
        };
        let (examined, mut cands) = c.candidate_docs(filter);
        self.last_examined.set(examined);
        cands.find(|d| filter.matches(d)).cloned()
    }

    /// Candidate documents examined by the most recent `find*`, `count`,
    /// `update_*` or `delete_*` call. With a usable index this is the
    /// posting-list size; without one it is the collection size — the
    /// number the scale soak tracks to prove queries stay sub-linear.
    pub fn last_examined(&self) -> u64 {
        self.last_examined.get()
    }

    /// Number of matching documents.
    pub fn count(&self, coll: &str, filter: &Filter) -> usize {
        self.find(coll, filter).len()
    }

    /// Applies `update` to the first matching document. Returns `true` if a
    /// document was updated. An update with any part on `_id` or under it
    /// is refused, as MongoDB refuses it: it changes nothing, journals
    /// nothing and updates no document.
    pub fn update_one(&mut self, coll: &str, filter: &Filter, update: &Update) -> bool {
        self.update_impl(coll, filter, update, true) == 1
    }

    /// Applies `update` to every matching document. Returns the count (0
    /// for an update on `_id`, as for [`DocStore::update_one`]).
    pub fn update_many(&mut self, coll: &str, filter: &Filter, update: &Update) -> usize {
        self.update_impl(coll, filter, update, false)
    }

    fn update_impl(&mut self, coll: &str, filter: &Filter, update: &Update, one: bool) -> usize {
        let c = self.collections.get_mut(coll);
        let Some(c) = c.filter(|_| !update.reaches("_id")) else {
            self.last_examined.set(0);
            return 0;
        };
        let (examined, ids) = c.matching_ids(filter);
        self.last_examined.set(examined);
        // The journal's copy of the update, made once if it changes
        // anything and shared by every document it changes.
        let mut record: Option<Rc<Update>> = None;
        let mut n = 0;
        for id in ids {
            if c.edit(&id, update) {
                let update = record.get_or_insert_with(|| Rc::new(update.clone()));
                self.journal.append(JournalOp::Update {
                    coll: c.name.clone(),
                    id,
                    update: update.clone(),
                });
            }
            n += 1;
            if one {
                break;
            }
        }
        self.checkpoint_if_due();
        n
    }

    /// Removes the first matching document. Returns `true` if one was
    /// removed.
    pub fn delete_one(&mut self, coll: &str, filter: &Filter) -> bool {
        self.delete_impl(coll, filter, true) == 1
    }

    /// Removes every matching document. Returns the count.
    pub fn delete_many(&mut self, coll: &str, filter: &Filter) -> usize {
        self.delete_impl(coll, filter, false)
    }

    fn delete_impl(&mut self, coll: &str, filter: &Filter, one: bool) -> usize {
        let Some(c) = self.collections.get_mut(coll) else {
            self.last_examined.set(0);
            return 0;
        };
        let (examined, ids) = c.matching_ids(filter);
        self.last_examined.set(examined);
        let mut n = 0;
        for id in ids {
            c.remove(&id);
            self.journal.append(JournalOp::Remove {
                coll: c.name.clone(),
                id,
            });
            n += 1;
            if one {
                break;
            }
        }
        self.checkpoint_if_due();
        n
    }

    /// The collection's change feed above `since`: full documents that
    /// exist now (`docs`, in change order), ids whose latest change was a
    /// removal (`gone`), and the current high-water sequence number to
    /// use as the next `since`.
    ///
    /// A document touched several times appears once, at its latest
    /// position, so the work (and [`DocStore::last_examined`]) is
    /// proportional to the number of documents changed since the
    /// watermark — not the collection size. `since == 0` returns every
    /// live document plus every removal tombstone: a watcher that lost
    /// its watermark (e.g. an LCM restart) falls back to a full rescan.
    pub fn changed_since(&self, coll: &str, since: u64) -> (Vec<Doc>, Vec<String>, u64) {
        let (mut docs, mut gone) = (Vec::new(), Vec::new());
        let high_water = self.for_each_change(coll, since, |id, doc| match doc {
            Some(d) => docs.push(d.clone()),
            None => gone.push(id.to_owned()),
        });
        (docs, gone, high_water)
    }

    /// [`DocStore::changed_since`] lent to `visit` in change order rather
    /// than collected: `(id, Some(document))` for a document that exists
    /// now, `(id, None)` for one whose latest change removed it. Returns
    /// the high-water sequence number (the next `since`). A reader that
    /// keeps its own summary of the collection — the invariant checker —
    /// reads each changed document once and copies none.
    pub fn for_each_change(
        &self,
        coll: &str,
        since: u64,
        mut visit: impl FnMut(&str, Option<&Doc>),
    ) -> u64 {
        let Some(c) = self.collections.get(coll) else {
            self.last_examined.set(0);
            return 0;
        };
        let mut examined = 0u64;
        for (_, id) in c
            .by_seq
            .range((std::ops::Bound::Excluded(since), std::ops::Bound::Unbounded))
        {
            examined += 1;
            visit(id, c.docs.get(id));
        }
        self.last_examined.set(examined);
        c.change_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;

    fn job(id: &str, status: &str, learners: i64) -> Value {
        obj! { "_id" => id, "status" => status, "learners" => learners }
    }

    fn learners_in(range: std::ops::Range<i64>) -> Filter {
        Filter::In("learners".into(), range.map(Value::from).collect())
    }

    #[test]
    fn insert_find_roundtrip() {
        let mut db = DocStore::new();
        db.insert("jobs", job("a", "PENDING", 1)).unwrap();
        db.insert("jobs", job("b", "PROCESSING", 4)).unwrap();
        assert_eq!(db.count("jobs", &Filter::True), 2);
        let found = db
            .find_one("jobs", &Filter::eq("status", "PROCESSING"))
            .unwrap();
        assert_eq!(found.path("_id").unwrap().as_str(), Some("b"));
        assert!(db.find("nosuch", &Filter::True).is_empty());
        assert!(db
            .find_one("jobs", &Filter::eq("status", "FAILED"))
            .is_none());
    }

    #[test]
    fn duplicate_id_rejected_and_autoid_assigned() {
        let mut db = DocStore::new();
        db.insert("jobs", job("a", "PENDING", 1)).unwrap();
        assert_eq!(
            db.insert("jobs", job("a", "PENDING", 1)),
            Err(StoreError::DuplicateId("a".into()))
        );
        assert_eq!(
            db.insert("jobs", Value::from(3i64)),
            Err(StoreError::NotAnObject)
        );
        let id1 = db.insert("jobs", obj! {"x" => 1}).unwrap();
        let id2 = db.insert("jobs", obj! {"x" => 2}).unwrap();
        assert_eq!(id1, "auto-0");
        assert_eq!(id2, "auto-1");
    }

    #[test]
    fn an_update_that_writes_the_id_changes_nothing() {
        let mut db = DocStore::new();
        db.insert("jobs", job("d1", "PENDING", 1)).unwrap();
        let journaled = db.journal().len();
        for update in [
            Update::set("_id", "d2"),
            Update::set("_id.x", 1),
            Update::Unset("_id".into()),
            Update::inc("_id", 1),
            Update::push("_id", "d2"),
            Update::Many(vec![
                Update::set("status", "DEPLOYING"),
                Update::set("_id", "d2"),
            ]),
        ] {
            let by_id = Filter::eq("_id", "d1");
            assert!(!db.update_one("jobs", &by_id, &update), "{update:?}");
            assert_eq!(db.update_many("jobs", &Filter::True, &update), 0);
        }
        assert_eq!(db.journal().len(), journaled);
        let d1 = db.find_one("jobs", &Filter::eq("_id", "d1"));
        assert_eq!(d1.as_deref(), Some(&job("d1", "PENDING", 1)));
        // The primary key and a scan agree, so `d2` is free exactly once.
        let scan = Filter::In("_id".into(), vec!["d2".into(), "x".into()]);
        assert_eq!(db.count("jobs", &scan), 0);
        db.insert("jobs", job("d2", "PENDING", 1)).unwrap();
        assert_eq!(db.count("jobs", &scan), 1);
        assert_eq!(db.count("jobs", &Filter::eq("_id", "d2")), 1);
    }

    #[test]
    fn update_one_and_many() {
        let mut db = DocStore::new();
        for i in 0..5 {
            db.insert("jobs", job(&format!("j{i}"), "PENDING", i))
                .unwrap();
        }
        assert!(db.update_one(
            "jobs",
            &Filter::eq("_id", "j2"),
            &Update::set("status", "PROCESSING"),
        ));
        assert_eq!(db.count("jobs", &Filter::eq("status", "PROCESSING")), 1);

        let n = db.update_many(
            "jobs",
            &Filter::eq("status", "PENDING"),
            &Update::set("status", "QUEUED"),
        );
        assert_eq!(n, 4);
        assert_eq!(db.count("jobs", &Filter::eq("status", "QUEUED")), 4);
        assert!(!db.update_one("jobs", &Filter::eq("_id", "ghost"), &Update::inc("x", 1)));
    }

    #[test]
    fn delete_one_and_many() {
        let mut db = DocStore::new();
        for i in 0..5 {
            db.insert("jobs", job(&format!("j{i}"), "DONE", i)).unwrap();
        }
        assert!(db.delete_one("jobs", &Filter::eq("_id", "j0")));
        assert_eq!(db.delete_many("jobs", &learners_in(3..5)), 2);
        assert_eq!(db.count("jobs", &Filter::True), 2);
        assert_eq!(db.delete_many("ghost", &Filter::True), 0);
    }

    #[test]
    fn journal_then_ack_ordering() {
        let mut db = DocStore::new();
        db.insert("jobs", job("a", "PENDING", 1)).unwrap();
        // The journal already holds the insert by the time insert()
        // returned: a crash right after the acknowledgement keeps it.
        assert_eq!(db.journal().len(), 1);
        let recovered_status = |db: &DocStore| {
            let recovered = DocStore::recover(db.journal().clone());
            let doc = recovered.find_one("jobs", &Filter::eq("_id", "a")).unwrap();
            doc.path("status").unwrap().as_str().map(str::to_owned)
        };
        assert_eq!(recovered_status(&db).as_deref(), Some("PENDING"));
        // So does the update (which, outnumbering the one document, was
        // folded into a checkpoint on its way).
        db.update_one("jobs", &Filter::True, &Update::set("status", "X"));
        assert_eq!(recovered_status(&db).as_deref(), Some("X"));
        // No-op update journals nothing.
        let journaled = db.journal().len();
        db.update_one("jobs", &Filter::True, &Update::set("status", "X"));
        assert_eq!(db.journal().len(), journaled);
    }

    #[test]
    fn an_auto_id_continues_past_every_stored_one_before_and_after_recovery() {
        // A stored `auto-5` moves the mark in the live store as it does in
        // recovery, so the two hand out the same next id. Counting only
        // the ids it assigned, the live store went on with `auto-1` where
        // the recovered one went on with `auto-6`.
        let mut db = DocStore::new();
        db.insert("jobs", obj! {"_id" => "auto-5"}).unwrap();
        assert_eq!(db.insert("jobs", obj! {}).as_deref(), Ok("auto-6"));
        let mut recovered = DocStore::recover(db.journal().clone());
        assert_eq!(db.insert("jobs", obj! {}).as_deref(), Ok("auto-7"));
        assert_eq!(recovered.insert("jobs", obj! {}).as_deref(), Ok("auto-7"));
    }

    #[test]
    fn an_auto_id_never_collides_with_a_stored_one() {
        let mut db = DocStore::new();
        db.insert("jobs", obj! {"_id" => "auto-0"}).unwrap();
        assert_eq!(db.insert("jobs", obj! {"x" => 1}).as_deref(), Ok("auto-1"));
        // A refused insert moves nothing: it is not on the journal.
        assert!(db.insert("jobs", obj! {"_id" => "auto-0"}).is_err());
        assert_eq!(db.insert("jobs", obj! {"x" => 2}).as_deref(), Ok("auto-2"));
    }

    #[test]
    fn the_journal_stays_as_large_as_the_store_and_recovers_through_checkpoints() {
        let mut db = DocStore::new();
        db.create_index("jobs", "status");
        let by_id = |i: usize| Filter::eq("_id", format!("j{i}"));
        let mut checkpoints = 0;
        for i in 0..40 {
            db.insert("jobs", job(&format!("j{i}"), "PENDING", 0))
                .unwrap();
            for status in ["DEPLOYING", "PROCESSING", "COMPLETED"] {
                let before = db.journal().len();
                db.update_one("jobs", &by_id(i), &Update::set("status", status));
                checkpoints += usize::from(db.journal().len() <= before);
                let entries = db.changed_since("jobs", 0);
                assert!(db.journal().len() <= entries.0.len() + entries.1.len());
            }
            if i % 4 == 3 {
                db.delete_one("jobs", &by_id(i - 2));
            }
        }
        // Each job adds four records and one entry, so a checkpoint comes
        // once the store has grown by about a third since the last: a
        // dozen over 170 writes, not one a write.
        assert!((8..=16).contains(&checkpoints), "{checkpoints} checkpoints");
        let high_water = db.changed_since("jobs", 0).2;
        let recovered = DocStore::recover(db.journal().clone());
        for since in 0..=high_water {
            assert_eq!(
                recovered.changed_since("jobs", since),
                db.changed_since("jobs", since)
            );
        }
        assert_eq!(
            recovered.find("jobs", &Filter::eq("status", "COMPLETED")),
            db.find("jobs", &Filter::eq("status", "COMPLETED"))
        );
        assert_eq!(recovered.last_examined(), 30, "the index was rebuilt");
    }

    #[test]
    fn crash_recovery_replays_journal_exactly() {
        let mut db = DocStore::new();
        db.create_index("jobs", "status");
        for i in 0..10 {
            db.insert("jobs", job(&format!("j{i}"), "PENDING", i))
                .unwrap();
        }
        db.update_many(
            "jobs",
            &learners_in(0..3),
            &Update::set("status", "PROCESSING"),
        );
        db.delete_one("jobs", &Filter::eq("_id", "j9"));
        let auto = db.insert("jobs", obj! {"k" => 1}).unwrap();

        // "Crash": drop the store, keep the journal (the disk).
        let journal = db.journal().clone();
        drop(db);
        let recovered = DocStore::recover(journal);

        assert_eq!(recovered.count("jobs", &Filter::True), 10);
        assert_eq!(
            recovered.count("jobs", &Filter::eq("status", "PROCESSING")),
            3
        );
        assert!(recovered
            .find_one("jobs", &Filter::eq("_id", "j9"))
            .is_none());
        assert!(recovered
            .find_one("jobs", &Filter::eq("_id", auto))
            .is_some());

        // Auto-id continues past the high-water mark after recovery.
        let mut recovered = recovered;
        let next = recovered.insert("jobs", obj! {"k" => 2}).unwrap();
        assert_eq!(next, "auto-1");
    }

    #[test]
    fn indexed_queries_match_scan_results() {
        let mut db = DocStore::new();
        db.create_index("jobs", "status");
        for i in 0..20 {
            let status = if i % 3 == 0 { "A" } else { "B" };
            db.insert("jobs", job(&format!("j{i:02}"), status, i))
                .unwrap();
        }
        let by_index = db.find("jobs", &Filter::eq("status", "A"));
        assert_eq!(by_index.len(), 7);
        // Compound filter still narrows through the index.
        let compound = db.find(
            "jobs",
            &Filter::and(vec![Filter::eq("status", "A"), learners_in(11..20)]),
        );
        assert_eq!(compound.len(), 3);
        // Index stays correct across updates and deletes.
        db.update_many(
            "jobs",
            &Filter::eq("status", "A"),
            &Update::set("status", "C"),
        );
        assert!(db.find("jobs", &Filter::eq("status", "A")).is_empty());
        assert_eq!(db.find("jobs", &Filter::eq("status", "C")).len(), 7);
        db.delete_many("jobs", &Filter::eq("status", "C"));
        assert!(db.find("jobs", &Filter::eq("status", "C")).is_empty());
    }

    #[test]
    fn in_filters_route_through_index_and_match_scan() {
        let mut indexed = DocStore::new();
        indexed.create_index("jobs", "status");
        let mut plain = DocStore::new();
        for i in 0..30 {
            let status = ["PENDING", "DEPLOYING", "PROCESSING", "COMPLETED"][i % 4];
            indexed
                .insert("jobs", job(&format!("j{i:02}"), status, i as i64))
                .unwrap();
            plain
                .insert("jobs", job(&format!("j{i:02}"), status, i as i64))
                .unwrap();
        }
        let active = Filter::In(
            "status".into(),
            vec!["PENDING".into(), "DEPLOYING".into(), "PROCESSING".into()],
        );
        let via_index = indexed.find("jobs", &active);
        let via_scan = plain.find("jobs", &active);
        assert_eq!(
            via_index, via_scan,
            "index must not change results or order"
        );
        // The indexed store examined only the union of the posting lists.
        assert_eq!(indexed.last_examined(), via_index.len() as u64);
        assert_eq!(plain.last_examined(), 30);

        // `In` nested under `And` also routes through the index.
        let compound = Filter::and(vec![active.clone(), learners_in(11..30)]);
        let got = indexed.find("jobs", &compound);
        assert_eq!(got, plain.find("jobs", &compound));
        assert!(indexed.last_examined() < 30);

        // Updates through an In-pinned filter keep the index consistent.
        let n = indexed.update_many("jobs", &active, &Update::set("status", "KILLED"));
        assert_eq!(n, via_index.len());
        assert!(indexed.find("jobs", &active).is_empty());
        assert_eq!(
            indexed.find("jobs", &Filter::eq("status", "KILLED")).len(),
            n
        );
    }

    #[test]
    fn last_examined_tracks_candidate_set_size() {
        let mut db = DocStore::new();
        db.create_index("jobs", "status");
        for i in 0..8 {
            let status = if i < 2 { "A" } else { "B" };
            db.insert("jobs", job(&format!("j{i}"), status, i)).unwrap();
        }
        db.find("jobs", &Filter::True);
        assert_eq!(db.last_examined(), 8);
        db.find("jobs", &Filter::eq("status", "A"));
        assert_eq!(db.last_examined(), 2);
        // The index holds strings only: any other pin is scanned.
        db.find(
            "jobs",
            &Filter::In("status".into(), vec!["A".into(), 1.into()]),
        );
        assert_eq!(db.last_examined(), 8);
        db.find_one("jobs", &Filter::eq("_id", "j5"));
        assert_eq!(db.last_examined(), 1);
        db.find("ghost", &Filter::True);
        assert_eq!(db.last_examined(), 0);
        db.delete_many("jobs", &Filter::eq("status", "A"));
        assert_eq!(db.last_examined(), 2);
    }

    #[test]
    fn create_index_is_idempotent_and_survives_recovery() {
        let mut db = DocStore::new();
        db.insert("jobs", job("a", "X", 1)).unwrap();
        db.create_index("jobs", "status");
        db.create_index("jobs", "status");
        let journal_len = db.journal().len();
        let recovered = DocStore::recover(db.journal().clone());
        assert_eq!(recovered.journal().len(), journal_len);
        assert_eq!(recovered.find("jobs", &Filter::eq("status", "X")).len(), 1);
    }

    #[test]
    fn changed_since_reports_each_touched_doc_once() {
        let mut db = DocStore::new();
        for i in 0..4 {
            db.insert("jobs", job(&format!("j{i}"), "PENDING", i))
                .unwrap();
        }
        let (docs, gone, hw) = db.changed_since("jobs", 0);
        assert_eq!(docs.len(), 4);
        assert!(gone.is_empty());
        assert_eq!(hw, 4);
        assert_eq!(db.last_examined(), 4);

        // Nothing changed: the feed above the watermark is empty and
        // examined zero documents — the sub-linear property the LCM
        // sweep depends on.
        let (docs, gone, hw2) = db.changed_since("jobs", hw);
        assert!(docs.is_empty() && gone.is_empty());
        assert_eq!(hw2, hw);
        assert_eq!(db.last_examined(), 0);

        // A doc updated twice surfaces once, at its latest position;
        // a no-op update does not re-surface it.
        db.update_one(
            "jobs",
            &Filter::eq("_id", "j1"),
            &Update::set("status", "A"),
        );
        db.update_one(
            "jobs",
            &Filter::eq("_id", "j1"),
            &Update::set("status", "B"),
        );
        db.update_one(
            "jobs",
            &Filter::eq("_id", "j0"),
            &Update::set("status", "PENDING"),
        );
        let (docs, gone, hw3) = db.changed_since("jobs", hw);
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].path("status").unwrap().as_str(), Some("B"));
        assert!(gone.is_empty());
        assert_eq!(hw3, hw + 2);

        // Deletions surface as tombstoned ids.
        db.delete_one("jobs", &Filter::eq("_id", "j2"));
        let (docs, gone, _) = db.changed_since("jobs", hw3);
        assert!(docs.is_empty());
        assert_eq!(gone, vec!["j2".to_owned()]);

        // Unknown collections have an empty feed.
        assert_eq!(db.changed_since("ghost", 0), (Vec::new(), Vec::new(), 0));
    }

    #[test]
    fn change_feed_watermarks_survive_crash_recovery() {
        let mut db = DocStore::new();
        for i in 0..5 {
            db.insert("jobs", job(&format!("j{i}"), "PENDING", i))
                .unwrap();
        }
        db.update_one(
            "jobs",
            &Filter::eq("_id", "j3"),
            &Update::set("status", "X"),
        );
        db.delete_one("jobs", &Filter::eq("_id", "j0"));
        let (pre_docs, pre_gone, pre_hw) = db.changed_since("jobs", 2);

        // Every journaled mutation bumps the feed exactly once, so replay
        // reconstructs identical sequence numbers and a watcher's
        // watermark stays valid across the crash.
        let recovered = DocStore::recover(db.journal().clone());
        let (docs, gone, hw) = recovered.changed_since("jobs", 2);
        assert_eq!(docs, pre_docs);
        assert_eq!(gone, pre_gone);
        assert_eq!(hw, pre_hw);
    }

    #[test]
    fn query_results_are_snapshots() {
        // A handle a reader holds shows the document as of the query,
        // whatever happens to the collection afterwards.
        let mut db = DocStore::new();
        db.create_index("jobs", "status");
        db.insert("jobs", job("a", "PENDING", 1)).unwrap();
        db.insert("jobs", job("b", "PENDING", 2)).unwrap();

        let one = db.find_one("jobs", &Filter::eq("_id", "a")).unwrap();
        let all = db.find("jobs", &Filter::True);
        let (changed, _, hw) = db.changed_since("jobs", 0);
        let before = (
            format!("{one:?}"),
            format!("{all:?}"),
            format!("{changed:?}"),
        );

        db.update_one(
            "jobs",
            &Filter::eq("_id", "a"),
            &Update::Many(vec![
                Update::set("status", "PROCESSING"),
                Update::inc("learners", 5),
            ]),
        );
        db.update_many("jobs", &Filter::True, &Update::set("tenant", "t"));
        db.delete_one("jobs", &Filter::eq("_id", "b"));
        db.delete_many("jobs", &Filter::True);

        assert_eq!(one.path("status").unwrap().as_str(), Some("PENDING"));
        assert_eq!(one.path("learners").unwrap().as_i64(), Some(1));
        assert!(one.path("tenant").is_none());
        assert_eq!(all.len(), 2);
        let after = (
            format!("{one:?}"),
            format!("{all:?}"),
            format!("{changed:?}"),
        );
        assert_eq!(before, after, "a held result changed under its reader");

        // The store itself moved on.
        assert!(db.find("jobs", &Filter::True).is_empty());
        let (docs, gone, _) = db.changed_since("jobs", hw);
        assert!(docs.is_empty());
        assert_eq!(gone, vec!["b".to_owned(), "a".to_owned()]);
    }

    #[test]
    fn a_held_handle_never_changes_whatever_the_store_does_next() {
        // Fails on a store that edits a document a reader can see.
        let mut db = DocStore::new();
        db.create_index("jobs", "status");
        db.insert("jobs", job("a", "PENDING", 1)).unwrap();
        let by_id = Filter::eq("_id", "a");
        let mut held: Vec<(Doc, String)> = Vec::new();
        let mut hold = |db: &DocStore| {
            let doc = db.find_one("jobs", &by_id).unwrap();
            held.push((doc.clone(), doc.to_json()));
            for (doc, was) in &held {
                assert_eq!(&doc.to_json(), was, "a held version changed");
            }
        };

        // The first update finds the handle shared (with the reader and
        // the journal's insert record), the second finds it the store's
        // alone, the third shared with a reader again.
        hold(&db);
        db.update_one("jobs", &by_id, &Update::set("status", "DEPLOYING"));
        db.update_one(
            "jobs",
            &by_id,
            &Update::push("history", obj! {"status" => "DEPLOYING", "t_us" => 7}),
        );
        hold(&db);
        db.update_one("jobs", &by_id, &Update::inc("learners", 1));
        hold(&db);

        // Crash and recovery: the readers' versions outlive the store,
        // and redoing the journal edits none of them either.
        let journal = db.journal().clone();
        drop(db);
        let mut db = DocStore::recover(journal);
        hold(&db);
        db.update_one("jobs", &by_id, &Update::set("status", "PROCESSING"));
        db.update_many("jobs", &Filter::True, &Update::Unset("history".into()));
        hold(&db);
        db.delete_one("jobs", &by_id);
        let versions: Vec<&str> = held
            .iter()
            .map(|(doc, _)| doc.path("status").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            versions,
            [
                "PENDING",
                "DEPLOYING",
                "DEPLOYING",
                "DEPLOYING",
                "PROCESSING"
            ]
        );
        assert_eq!(held[4].0.path("learners").unwrap().as_i64(), Some(2));
        assert!(held[4].0.path("history").is_none());
    }

    #[test]
    fn an_update_copies_the_document_only_while_someone_else_holds_it() {
        let mut db = DocStore::new();
        for other in ["b", "c", "d", "e"] {
            db.insert("jobs", job(other, "PENDING", 1)).unwrap();
        }
        db.insert("jobs", job("a", "PENDING", 1)).unwrap();
        let by_id = Filter::eq("_id", "a");
        let address = |db: &DocStore| Rc::as_ptr(&db.find_one("jobs", &by_id).unwrap());

        // The journal's insert record keeps an image of its own, so nobody
        // but the collection holds the stored document: the first update
        // edits it where it is. (Checked after each update: a copy is made
        // while its original is still allocated, so it cannot land on the
        // same address, but the copy after that could.)
        let unique = address(&db);
        db.update_one("jobs", &by_id, &Update::set("status", "DEPLOYING"));
        assert_eq!(address(&db), unique, "an unshared document was copied");
        // Five inserts and that update outnumbered the five documents: the
        // update ended in a checkpoint, which holds the version it left.
        // The next update copies it once, and the ones after edit the copy
        // where it is.
        assert!(db.journal().is_empty());
        db.update_one("jobs", &by_id, &Update::set("status", "PROCESSING"));
        let copy = address(&db);
        assert_ne!(copy, unique, "the checkpoint's version was edited");
        for update in [Update::inc("learners", 1), Update::inc("learners", 1)] {
            db.update_one("jobs", &by_id, &update);
            assert_eq!(address(&db), copy, "an unshared document was copied");
        }

        // A reader holds it: the edit goes to a new allocation and the
        // reader keeps the old one.
        let reader = db.find_one("jobs", &by_id).unwrap();
        db.update_one("jobs", &by_id, &Update::set("status", "COMPLETED"));
        let now = db.find_one("jobs", &by_id).unwrap();
        assert!(!Rc::ptr_eq(&reader, &now), "a shared document was edited");
        assert_eq!(reader.path("status").unwrap().as_str(), Some("PROCESSING"));
        assert_eq!(now.path("status").unwrap().as_str(), Some("COMPLETED"));

        // A no-op leaves no trace: no journal record, no sequence number.
        let (journaled, (_, _, seq)) = (db.journal().len(), db.changed_since("jobs", 0));
        db.update_one("jobs", &by_id, &Update::set("status", "COMPLETED"));
        db.update_one("jobs", &by_id, &Update::inc("learners", 0));
        assert_eq!(db.journal().len(), journaled);
        assert_eq!(db.changed_since("jobs", 0).2, seq);
    }

    #[test]
    fn the_journal_keeps_updates_not_versions() {
        let mut db = DocStore::new();
        db.insert("jobs", job("a", "PENDING", 1)).unwrap();
        db.insert("jobs", job("b", "PENDING", 2)).unwrap();
        // Two inserts and this update outnumber the two documents: the
        // journal is a checkpoint from here on.
        db.update_one("jobs", &Filter::True, &Update::set("status", "X"));
        assert!(db.journal().is_empty());
        let update = Update::push("history", obj! {"status" => "DEPLOYING", "t_us" => 7});
        db.update_many("jobs", &Filter::True, &update);
        let disk = db.journal().disk.borrow();
        let redo: Vec<_> = disk
            .records
            .iter()
            .filter_map(|op| match op {
                JournalOp::Update { id, update, .. } => Some((&**id, update)),
                _ => None,
            })
            .collect();
        assert_eq!(redo.len(), 2);
        assert_eq!((redo[0].0, redo[1].0), ("a", "b"));
        assert_eq!(**redo[0].1, update);
        assert!(Rc::ptr_eq(redo[0].1, redo[1].1), "one copy per update call");
    }

    #[test]
    fn recovery_reproduces_every_document_version_exactly() {
        let mut db = DocStore::new();
        db.create_index("jobs", "status");
        for i in 0..6 {
            db.insert("jobs", job(&format!("j{i}"), "PENDING", i))
                .unwrap();
        }
        let held = db.find_one("jobs", &Filter::eq("_id", "j1")).unwrap();
        db.update_many(
            "jobs",
            &learners_in(0..4),
            &Update::push("history", obj! {"status" => "DEPLOYING", "t_us" => 7}),
        );
        db.update_one(
            "jobs",
            &Filter::eq("_id", "j1"),
            &Update::set("status", "PROCESSING"),
        );
        db.delete_one("jobs", &Filter::eq("_id", "j5"));

        // Crash: the store is gone, the journal (and a reader's handle)
        // survive.
        let journal = db.journal().clone();
        let live = db.find("jobs", &Filter::True);
        let feed = db.changed_since("jobs", 0);
        drop(db);
        let recovered = DocStore::recover(journal);
        assert_eq!(recovered.find("jobs", &Filter::True), live);
        assert_eq!(recovered.changed_since("jobs", 0), feed);
        assert_eq!(
            recovered
                .find("jobs", &Filter::eq("status", "PROCESSING"))
                .len(),
            1,
            "indexes are rebuilt from the recovered documents"
        );
        assert_eq!(held.path("status").unwrap().as_str(), Some("PENDING"));
        assert!(held.path("history").is_none());

        // An update after recovery must leave the journal's insert images
        // alone, or a second recovery would replay from edited images.
        let mut recovered = recovered;
        recovered.update_one(
            "jobs",
            &Filter::eq("_id", "j1"),
            &Update::set("status", "COMPLETED"),
        );
        let again = DocStore::recover(recovered.journal().clone());
        assert_eq!(
            again.find("jobs", &Filter::True),
            recovered.find("jobs", &Filter::True)
        );
    }
}
