//! Property-based model checking: the document store against a naive
//! in-memory model, under random operation sequences — including crash
//! points, where the store is rebuilt from its journal and must equal
//! the model exactly: documents, index results, the change feed from
//! every watermark and the next auto-id.
//!
//! The model is the store as it used to work, in a dozen lines: every
//! update copies the document, applies the mutation to the copy and
//! compares the two. The store edits in place, asks [`Update::apply`]
//! whether anything changed, keeps its indexes by difference and recovers
//! from a checkpoint by redoing the updates written since; none of that
//! may be observable. The model matches a filter by `==` on the value at
//! its path, and an index must find what that finds, for values a looser
//! equality confuses too (`4` and `4.0`, `-0.0`, NaN). A write that
//! carries a NaN is refused, and the model says so by the one property
//! of NaN that needs no helper: a value holding one is unequal to itself.
//! The model also
//! counts the journal: the records since the last checkpoint, which the
//! store folds into a new one as soon as they outnumber its entries — so
//! sequences cross checkpoints, and crash right before and right after them.

use std::collections::{BTreeMap, BTreeSet};

use dlaas_docstore::{obj, Doc, DocStore, Filter, StoreError, Update, Value};
use proptest::prelude::*;

/// Paths the random updates write: plain fields, nested ones whose
/// parents may have to be created, the two indexed paths, and paths a
/// scalar blocks (`n` and `status` hold scalars unless an update replaced
/// them).
const PATHS: [&str; 9] = [
    "status",
    "n",
    "tags",
    "meta",
    "meta.k",
    "meta.deep.x",
    "n.blocked",
    "status.sub.sub",
    "ghost",
];

/// The paths `Op::CreateIndex` indexes.
const INDEXED: [&str; 2] = ["status", "meta.k"];

fn status_name(s: u8) -> String {
    format!("S{s}")
}

fn path_strategy() -> impl Strategy<Value = &'static str> {
    (0..PATHS.len()).prop_map(|i| PATHS[i])
}

/// Values the updates write, the integers with both ends of `i64` that an
/// `Inc` must not step past. A NaN is asked for ([`probes`]) and written
/// only by [`nan_update_strategy`], whose writes the store refuses.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0..4i64).prop_map(Value::from),
        3 => prop_oneof![Just(i64::MAX), Just(i64::MIN)].prop_map(Value::from),
        2 => (0..4i64).prop_map(|i| Value::F64(i as f64)),
        3 => (0..4u8).prop_map(|s| Value::from(status_name(s))),
        1 => Just(Value::Null),
        1 => Just(Value::F64(1.5)),
        1 => Just(Value::F64(-0.0)),
        1 => Just(obj! {}),
        1 => Just(obj! {"k" => 1}),
    ]
}

/// One field mutation; `Inc` by zero and `Set` to what is there already
/// are the no-ops that must leave no trace.
fn field_update_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        4 => (path_strategy(), value_strategy()).prop_map(|(p, v)| Update::set(p, v)),
        2 => (path_strategy(), -1..2i64).prop_map(|(p, by)| Update::inc(p, by)),
        2 => (path_strategy(), value_strategy()).prop_map(|(p, v)| Update::push(p, v)),
        2 => path_strategy().prop_map(|p| Update::Unset(p.to_owned())),
    ]
}

fn update_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        3 => field_update_strategy(),
        1 => proptest::collection::vec(field_update_strategy(), 0..4).prop_map(Update::Many),
    ]
}

/// An update that writes a NaN somewhere: refused whole, `Many` too.
fn nan_update_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        path_strategy().prop_map(|p| Update::set(p, f64::NAN)),
        path_strategy().prop_map(|p| Update::push(p, obj! {"k" => vec![f64::NAN]})),
        (field_update_strategy(), path_strategy())
            .prop_map(|(u, p)| Update::Many(vec![u, Update::set(p, f64::NAN)])),
    ]
}

/// What an `Op` writes: now and then a NaN.
fn write_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![9 => update_strategy(), 1 => nan_update_strategy()]
}

/// Whether `update` writes a NaN, by the model: a value holding one is
/// unequal to itself.
#[expect(clippy::eq_op, reason = "NaN is the one value unequal to itself")]
fn writes_nan(update: &Update) -> bool {
    match update {
        Update::Set(_, v) | Update::Push(_, v) => v != v,
        Update::Many(parts) => parts.iter().any(writes_nan),
        Update::Unset(_) | Update::Inc(..) => false,
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `id: None` leaves the id to the store (`auto-N`); a given id may
    /// take that form too. `nan` adds a field holding one.
    Insert {
        id: Option<String>,
        n: i64,
        status: u8,
        nan: bool,
    },
    UpdateById {
        id: u8,
        update: Update,
    },
    UpdateMany {
        n_lt: i64,
        update: Update,
    },
    DeleteById {
        id: u8,
    },
    DeleteByStatus {
        status: u8,
    },
    CreateIndex {
        path: &'static str,
    },
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..50u8, -50..50i64, 0..4u8, 0..10u8).prop_map(|(id, n, status, nan)| Op::Insert {
            id: match id {
                0..40 => Some(format!("d{id}")),
                40..44 => Some(format!("auto-{}", id - 40)),
                _ => None,
            },
            n,
            status,
            nan: nan == 0,
        }),
        5 => (0..40u8, write_strategy()).prop_map(|(id, update)| Op::UpdateById { id, update }),
        3 => (-50..50i64, write_strategy()).prop_map(|(n_lt, update)| Op::UpdateMany { n_lt, update }),
        2 => (0..40u8).prop_map(|id| Op::DeleteById { id }),
        1 => (0..4u8).prop_map(|status| Op::DeleteByStatus { status }),
        1 => (0..INDEXED.len()).prop_map(|i| Op::CreateIndex { path: INDEXED[i] }),
        1 => Just(Op::Crash),
    ]
}

/// The naive model: documents by id, the change feed as the latest
/// sequence number of every id ever touched, and how many records the
/// journal holds since its last checkpoint.
#[derive(Default)]
struct Model {
    docs: BTreeMap<String, Value>,
    change_seq: u64,
    changed_at: BTreeMap<String, u64>,
    next_auto_id: u64,
    indexes: BTreeSet<&'static str>,
    records: usize,
}

impl Model {
    fn note_change(&mut self, id: &str) {
        self.change_seq += 1;
        self.changed_at.insert(id.to_owned(), self.change_seq);
        self.records += 1;
    }

    /// What a checkpoint holds: documents plus removal tombstones.
    fn entries(&self) -> usize {
        self.changed_at.len()
    }

    /// The end of a mutation: a checkpoint once the records outnumber the
    /// entries. `true` if one was taken.
    fn checkpoint_if_due(&mut self) -> bool {
        let due = self.records > self.entries();
        if due {
            self.records = 0;
        }
        due
    }

    fn find(&self, filter: &Filter) -> Vec<Value> {
        let found = self.docs.values().filter(|d| holds(filter, d));
        found.cloned().collect()
    }

    fn matching(&self, filter: &Filter) -> Vec<String> {
        let matches = self.docs.iter().filter(|(_, d)| holds(filter, d));
        matches.map(|(id, _)| id.clone()).collect()
    }

    /// Copy, apply, compare: what "an effective update" means.
    fn update(&mut self, ids: &[String], update: &Update) {
        for id in ids {
            let before = self.docs[id].clone();
            let mut after = before.clone();
            model_apply(update, &mut after);
            if after != before {
                self.docs.insert(id.clone(), after);
                self.note_change(id);
            }
        }
    }

    fn delete(&mut self, ids: &[String]) {
        for id in ids {
            self.docs.remove(id);
            self.note_change(id);
        }
    }

    /// `DocStore::changed_since`, from the model.
    fn changed_since(&self, since: u64) -> (Vec<Value>, Vec<String>, u64) {
        let mut feed: Vec<(u64, &String)> = self
            .changed_at
            .iter()
            .filter(|(_, seq)| **seq > since)
            .map(|(id, seq)| (*seq, id))
            .collect();
        feed.sort();
        let (mut docs, mut gone) = (Vec::new(), Vec::new());
        for (_, id) in feed {
            match self.docs.get(id) {
                Some(d) => docs.push(d.clone()),
                None => gone.push(id.clone()),
            }
        }
        (docs, gone, self.change_seq)
    }
}

/// [`Update::apply`], but with the model's own `Inc`: the held integer
/// (0 if none) plus the step by `checked_add`, set as a `Set` would set
/// it; an increment that would leave `i64` leaves the document as it is.
fn model_apply(update: &Update, doc: &mut Value) {
    match update {
        Update::Many(parts) => parts.iter().for_each(|u| model_apply(u, doc)),
        Update::Inc(p, by) => {
            let held = doc.path(p).and_then(Value::as_i64).unwrap_or(0);
            if let Some(sum) = held.checked_add(*by) {
                Update::set(p.as_str(), sum).apply(doc);
            }
        }
        _ => {
            update.apply(doc);
        }
    }
}

/// The model's match: `==` on the value at the path.
fn holds(filter: &Filter, doc: &Value) -> bool {
    match filter {
        Filter::True => true,
        Filter::Eq(p, v) => doc.path(p) == Some(v),
        Filter::In(p, vs) => doc.path(p).is_some_and(|x| vs.contains(x)),
        Filter::And(fs) => fs.iter().all(|f| holds(f, doc)),
    }
}

/// NaN, and every value the documents hold at `path` with its numeric
/// twin (an integer's float, an integral float's integer).
fn probes(model: &Model, path: &str) -> Vec<Value> {
    let mut probes = vec![Value::F64(f64::NAN)];
    for v in model.docs.values().filter_map(|d| d.path(path)) {
        let twin = match *v {
            Value::I64(i) => Some(Value::F64(i as f64)),
            Value::F64(x) if x.fract() == 0.0 => Some(Value::I64(x as i64)),
            _ => None,
        };
        for p in std::iter::once(v.clone()).chain(twin) {
            if !probes.contains(&p) {
                probes.push(p);
            }
        }
    }
    probes
}

fn values(docs: Vec<Doc>) -> Vec<Value> {
    docs.iter().map(|d| Value::clone(d)).collect()
}

fn check_equal(store: &DocStore, model: &Model) {
    assert_eq!(
        values(store.find("c", &Filter::True)),
        model.find(&Filter::True)
    );
    // The probes of an indexed path through `Eq`, `In` among a string and
    // an `And` that pins the other indexed path to strings, found through
    // an index (or a scan, before `CreateIndex`) as the model finds them.
    let statuses: Vec<Value> = (0..4).map(|s| Value::from(status_name(s))).collect();
    for (i, path) in INDEXED.into_iter().enumerate() {
        for v in probes(model, path) {
            let filters = [
                Filter::Eq(path.to_owned(), v.clone()),
                Filter::In(path.to_owned(), vec![statuses[1].clone(), v.clone()]),
                Filter::and(vec![
                    Filter::In(INDEXED[1 - i].to_owned(), statuses.clone()),
                    Filter::Eq(path.to_owned(), v),
                ]),
            ];
            for filter in filters {
                assert_eq!(
                    values(store.find("c", &filter)),
                    model.find(&filter),
                    "{filter:?}"
                );
            }
        }
    }
    for since in 0..=model.change_seq {
        let (docs, gone, high_water) = store.changed_since("c", since);
        assert_eq!(
            (values(docs), gone, high_water),
            model.changed_since(since),
            "change feed above {since}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    #[test]
    fn store_matches_naive_model_across_crashes(
        ops in proptest::collection::vec((op_strategy(), any::<bool>()), 1..60)
    ) {
        let mut store = DocStore::new();
        let mut model = Model::default();

        // `at_edge`: crash after this op if it took a checkpoint, or left
        // the journal one effective update or removal short of one.
        for (op, at_edge) in ops {
            let crash = matches!(op, Op::Crash);
            match op {
                Op::Insert { id, n, status, nan } => {
                    let mut doc = obj! { "n" => n, "status" => status_name(status) };
                    if nan {
                        Update::set("meta.deep.x", f64::NAN).apply(&mut doc);
                    }
                    let expected_id = match &id {
                        Some(id) => {
                            Update::set("_id", id.as_str()).apply(&mut doc);
                            id.clone()
                        }
                        None => format!("auto-{}", model.next_auto_id),
                    };
                    let r = store.insert("c", doc.clone());
                    if nan {
                        prop_assert_eq!(r, Err(StoreError::NotANumber));
                    } else if model.docs.contains_key(&expected_id) {
                        prop_assert!(r.is_err(), "duplicate insert must fail");
                    } else {
                        prop_assert_eq!(r.as_deref(), Ok(expected_id.as_str()));
                        // Any stored `auto-N`, assigned or given, moves
                        // the next one past it.
                        if let Some(k) = expected_id.strip_prefix("auto-") {
                            let k: u64 = k.parse().expect("auto ids are numbered");
                            model.next_auto_id = model.next_auto_id.max(k + 1);
                        }
                        Update::set("_id", expected_id.as_str()).apply(&mut doc);
                        model.docs.insert(expected_id.clone(), doc);
                        model.note_change(&expected_id);
                    }
                }
                Op::UpdateById { id, update } => {
                    let filter = Filter::eq("_id", format!("d{id}"));
                    let ids = if writes_nan(&update) { Vec::new() } else { model.matching(&filter) };
                    prop_assert_eq!(store.update_one("c", &filter, &update), !ids.is_empty());
                    model.update(&ids, &update);
                }
                Op::UpdateMany { n_lt, update } => {
                    // `n` is never indexed: this drives the scan path.
                    let filter = Filter::In("n".into(), (-50..n_lt).map(Value::from).collect());
                    let ids = if writes_nan(&update) { Vec::new() } else { model.matching(&filter) };
                    prop_assert_eq!(store.update_many("c", &filter, &update), ids.len());
                    model.update(&ids, &update);
                }
                Op::DeleteById { id } => {
                    let filter = Filter::eq("_id", format!("d{id}"));
                    let ids = model.matching(&filter);
                    prop_assert_eq!(store.delete_one("c", &filter), !ids.is_empty());
                    model.delete(&ids);
                }
                Op::DeleteByStatus { status } => {
                    let filter = Filter::eq("status", status_name(status));
                    let ids = model.matching(&filter);
                    prop_assert_eq!(store.delete_many("c", &filter), ids.len());
                    model.delete(&ids);
                }
                Op::CreateIndex { path } => {
                    store.create_index("c", path);
                    model.records += usize::from(model.indexes.insert(path));
                }
                Op::Crash => {}
            }
            let took_checkpoint = model.checkpoint_if_due();
            prop_assert_eq!(store.journal().len(), model.records, "records since the checkpoint");
            prop_assert!(model.records <= model.entries());
            let next_is_due = model.records == model.entries();
            if crash || (at_edge && (took_checkpoint || next_is_due)) {
                let journal = store.journal().clone();
                store = DocStore::recover(journal);
            }
            check_equal(&store, &model);
        }

        // Final crash: recovery must still match, and hand out the next
        // auto-id where the crashed store would have.
        let mut recovered = DocStore::recover(store.journal().clone());
        check_equal(&recovered, &model);
        let next = recovered.insert("c", obj! {"n" => 0});
        prop_assert_eq!(next, Ok(format!("auto-{}", model.next_auto_id)));
    }

    #[test]
    fn apply_reports_a_change_exactly_when_the_document_differs(
        updates in proptest::collection::vec(update_strategy(), 1..16)
    ) {
        // One document through a run of updates, so later ones meet the
        // nulls, objects, arrays and scalars earlier ones left behind.
        let mut doc = obj! { "n" => 1, "status" => "S0" };
        for update in updates {
            let before = doc.clone();
            let changed = update.apply(&mut doc);
            prop_assert_eq!(changed, doc != before, "{:?} on {}", update, before);
        }
    }
}
