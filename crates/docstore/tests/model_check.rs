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
//! by redoing updates; none of that may be observable.

use std::collections::BTreeMap;

use dlaas_docstore::{obj, Doc, DocStore, Filter, Update, Value};
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

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0..4i64).prop_map(Value::from),
        3 => (0..4u8).prop_map(|s| Value::from(status_name(s))),
        1 => Just(Value::Null),
        1 => Just(Value::F64(1.5)),
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

#[derive(Debug, Clone)]
enum Op {
    /// `id: None` leaves the id to the store (`auto-N`).
    Insert {
        id: Option<u8>,
        n: i64,
        status: u8,
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
        5 => (0..50u8, -50..50i64, 0..4u8).prop_map(|(id, n, status)| Op::Insert {
            id: (id < 40).then_some(id),
            n,
            status,
        }),
        5 => (0..40u8, update_strategy()).prop_map(|(id, update)| Op::UpdateById { id, update }),
        3 => (-50..50i64, update_strategy()).prop_map(|(n_lt, update)| Op::UpdateMany { n_lt, update }),
        2 => (0..40u8).prop_map(|id| Op::DeleteById { id }),
        1 => (0..4u8).prop_map(|status| Op::DeleteByStatus { status }),
        1 => (0..INDEXED.len()).prop_map(|i| Op::CreateIndex { path: INDEXED[i] }),
        1 => Just(Op::Crash),
    ]
}

/// The naive model: documents by id, and the change feed as the latest
/// sequence number of every id ever touched.
#[derive(Default)]
struct Model {
    docs: BTreeMap<String, Value>,
    change_seq: u64,
    changed_at: BTreeMap<String, u64>,
    next_auto_id: u64,
}

impl Model {
    fn note_change(&mut self, id: &str) {
        self.change_seq += 1;
        self.changed_at.insert(id.to_owned(), self.change_seq);
    }

    fn matching(&self, filter: &Filter) -> Vec<String> {
        let matches = self.docs.iter().filter(|(_, d)| filter.matches(d));
        matches.map(|(id, _)| id.clone()).collect()
    }

    /// Copy, apply, compare: what "an effective update" means.
    fn update(&mut self, ids: &[String], update: &Update) {
        for id in ids {
            let before = self.docs[id].clone();
            let mut after = before.clone();
            update.apply(&mut after);
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

fn values(docs: Vec<Doc>) -> Vec<Value> {
    docs.iter().map(|d| Value::clone(d)).collect()
}

fn check_equal(store: &DocStore, model: &Model) {
    let expected: Vec<Value> = model.docs.values().cloned().collect();
    assert_eq!(values(store.find("c", &Filter::True)), expected);
    // Every value an indexed path holds, found through the index (or a
    // scan, before `CreateIndex`) as the model's scan finds it.
    for path in INDEXED {
        let held: Vec<&Value> = model.docs.values().filter_map(|d| d.path(path)).collect();
        for v in held {
            let filter = Filter::Eq(path.to_owned(), v.clone());
            let by_model: Vec<Value> = model
                .docs
                .values()
                .filter(|d| filter.matches(d))
                .cloned()
                .collect();
            assert_eq!(
                values(store.find("c", &filter)),
                by_model,
                "{path} = {v} through the index"
            );
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
    fn store_matches_naive_model_across_crashes(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut store = DocStore::new();
        let mut model = Model::default();

        for op in ops {
            match op {
                Op::Insert { id, n, status } => {
                    let mut doc = obj! { "n" => n, "status" => status_name(status) };
                    let expected_id = match id {
                        Some(id) => {
                            let id = format!("d{id}");
                            Update::set("_id", id.as_str()).apply(&mut doc);
                            id
                        }
                        None => format!("auto-{}", model.next_auto_id),
                    };
                    let r = store.insert("c", doc.clone());
                    if model.docs.contains_key(&expected_id) {
                        prop_assert!(r.is_err(), "duplicate insert must fail");
                    } else {
                        prop_assert_eq!(r.as_deref(), Ok(expected_id.as_str()));
                        model.next_auto_id += u64::from(id.is_none());
                        Update::set("_id", expected_id.as_str()).apply(&mut doc);
                        model.docs.insert(expected_id.clone(), doc);
                        model.note_change(&expected_id);
                    }
                }
                Op::UpdateById { id, update } => {
                    let filter = Filter::eq("_id", format!("d{id}"));
                    let ids = model.matching(&filter);
                    prop_assert_eq!(store.update_one("c", &filter, &update), !ids.is_empty());
                    model.update(&ids, &update);
                }
                Op::UpdateMany { n_lt, update } => {
                    let filter = Filter::lt("n", n_lt);
                    let ids = model.matching(&filter);
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
                }
                Op::Crash => {
                    let journal = store.journal().clone();
                    store = DocStore::recover(journal);
                }
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

    #[test]
    fn value_ordering_is_total_and_consistent(a in any::<i64>(), b in any::<i64>()) {
        use std::cmp::Ordering;
        let va = Value::from(a);
        let vb = Value::from(b);
        prop_assert_eq!(va.cmp_order(&vb), a.cmp(&b));
        // Antisymmetry with floats in the mix.
        let fa = Value::from(a as f64);
        let cmp1 = va.cmp_order(&fa);
        let cmp2 = fa.cmp_order(&va);
        prop_assert_eq!(cmp1, cmp2.reverse());
        prop_assert_ne!(va.cmp_order(&Value::Null), Ordering::Less);
    }
}
