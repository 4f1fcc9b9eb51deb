//! Filters (query predicates) and updates (mutations) over documents.

use crate::value::Value;

/// A query predicate over documents, matched against dotted paths.
///
/// # Examples
///
/// ```
/// use dlaas_docstore::{obj, Filter};
///
/// let doc = obj! { "status" => "PROCESSING", "learners" => 4 };
/// let f = Filter::and(vec![
///     Filter::eq("status", "PROCESSING"),
///     Filter::gt("learners", 2),
/// ]);
/// assert!(f.matches(&doc));
/// assert!(!Filter::eq("status", "FAILED").matches(&doc));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every document.
    True,
    /// Path value equals.
    Eq(String, Value),
    /// Path value differs (also true when the path is absent).
    Ne(String, Value),
    /// Path value strictly greater.
    Gt(String, Value),
    /// Path value greater or equal.
    Gte(String, Value),
    /// Path value strictly less.
    Lt(String, Value),
    /// Path value less or equal.
    Lte(String, Value),
    /// Path value is one of the listed values.
    In(String, Vec<Value>),
    /// Path exists (`true`) or is absent (`false`).
    Exists(String, bool),
    /// Path is a string starting with the prefix.
    Prefix(String, String),
    /// All sub-filters match.
    And(Vec<Filter>),
    /// At least one sub-filter matches.
    Or(Vec<Filter>),
    /// The sub-filter does not match.
    Not(Box<Filter>),
}

impl Filter {
    /// Equality on a dotted path.
    pub fn eq(path: impl Into<String>, v: impl Into<Value>) -> Self {
        Filter::Eq(path.into(), v.into())
    }

    /// Strict greater-than on a dotted path.
    pub fn gt(path: impl Into<String>, v: impl Into<Value>) -> Self {
        Filter::Gt(path.into(), v.into())
    }

    /// Strict less-than on a dotted path.
    pub fn lt(path: impl Into<String>, v: impl Into<Value>) -> Self {
        Filter::Lt(path.into(), v.into())
    }

    /// Conjunction.
    pub fn and(fs: Vec<Filter>) -> Self {
        Filter::And(fs)
    }

    /// Disjunction.
    pub fn or(fs: Vec<Filter>) -> Self {
        Filter::Or(fs)
    }

    /// Evaluates the predicate against a document.
    pub fn matches(&self, doc: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Filter::True => true,
            Filter::Eq(p, v) => doc.path(p).is_some_and(|x| x.cmp_order(v) == Equal),
            Filter::Ne(p, v) => doc.path(p).is_none_or(|x| x.cmp_order(v) != Equal),
            Filter::Gt(p, v) => doc.path(p).is_some_and(|x| x.cmp_order(v) == Greater),
            Filter::Gte(p, v) => doc.path(p).is_some_and(|x| x.cmp_order(v) != Less),
            Filter::Lt(p, v) => doc.path(p).is_some_and(|x| x.cmp_order(v) == Less),
            Filter::Lte(p, v) => doc.path(p).is_some_and(|x| x.cmp_order(v) != Greater),
            Filter::In(p, vs) => doc
                .path(p)
                .is_some_and(|x| vs.iter().any(|v| x.cmp_order(v) == Equal)),
            Filter::Exists(p, want) => doc.path(p).is_some() == *want,
            Filter::Prefix(p, pre) => doc
                .path(p)
                .and_then(Value::as_str)
                .is_some_and(|s| s.starts_with(pre)),
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
        }
    }

    /// If this filter pins an exact value on `path` (directly or inside an
    /// `And`), returns that value — used for index lookups.
    pub fn pinned_eq(&self, path: &str) -> Option<&Value> {
        match self {
            Filter::Eq(p, v) if p == path => Some(v),
            Filter::And(fs) => fs.iter().find_map(|f| f.pinned_eq(path)),
            _ => None,
        }
    }

    /// If this filter restricts `path` to a fixed set of values via `In`
    /// (directly or inside an `And`), returns that set — used for index
    /// lookups that union the per-value posting lists.
    pub fn pinned_in(&self, path: &str) -> Option<&[Value]> {
        match self {
            Filter::In(p, vs) if p == path => Some(vs),
            Filter::And(fs) => fs.iter().find_map(|f| f.pinned_in(path)),
            _ => None,
        }
    }
}

/// A document mutation, applied field-by-field.
///
/// # Examples
///
/// ```
/// use dlaas_docstore::{obj, Update, Value};
///
/// let mut doc = obj! { "status" => "PENDING", "retries" => 0 };
/// Update::set("status", "DEPLOYING").apply(&mut doc);
/// Update::inc("retries", 1).apply(&mut doc);
/// assert_eq!(doc.path("status").unwrap().as_str(), Some("DEPLOYING"));
/// assert_eq!(doc.path("retries").unwrap().as_i64(), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Sets the path to a value (creating intermediate objects).
    Set(String, Value),
    /// Removes the path's final field.
    Unset(String),
    /// Adds to an integer field (missing/non-numeric treated as 0).
    Inc(String, i64),
    /// Appends to an array field (missing treated as empty array).
    Push(String, Value),
    /// Applies several updates in order.
    Many(Vec<Update>),
}

impl Update {
    /// Field assignment.
    pub fn set(path: impl Into<String>, v: impl Into<Value>) -> Self {
        Update::Set(path.into(), v.into())
    }

    /// Integer increment.
    pub fn inc(path: impl Into<String>, by: i64) -> Self {
        Update::Inc(path.into(), by)
    }

    /// Array append.
    pub fn push(path: impl Into<String>, v: impl Into<Value>) -> Self {
        Update::Push(path.into(), v.into())
    }

    /// Applies the mutation to `doc` and reports whether the document now
    /// differs from what it was (`before != after`, without the copy and
    /// the comparison). Silently skips paths blocked by scalar
    /// intermediates (matching MongoDB's lenient update semantics).
    pub fn apply(&self, doc: &mut Value) -> bool {
        let mut changed = false;
        match self {
            Update::Set(p, v) => {
                if let Some(slot) = doc.leaf_slot(p, &mut changed) {
                    if changed || slot != v {
                        *slot = v.clone();
                        changed = true;
                    }
                }
            }
            Update::Unset(p) => {
                let (parent, leaf) = match p.rsplit_once('.') {
                    Some((parent, leaf)) => (doc.descend(parent, &mut changed), leaf),
                    None => (Some(doc), p.as_str()),
                };
                if let Some(Value::Obj(m)) = parent {
                    changed |= m.remove(leaf).is_some();
                }
            }
            Update::Inc(p, by) => {
                if let Some(slot) = doc.leaf_slot(p, &mut changed) {
                    let new = Value::I64(slot.as_i64().unwrap_or(0) + by);
                    if changed || *slot != new {
                        *slot = new;
                        changed = true;
                    }
                }
            }
            Update::Push(p, v) => {
                if let Some(slot) = doc.leaf_slot(p, &mut changed) {
                    match slot {
                        Value::Arr(a) => a.push(v.clone()),
                        _ => *slot = Value::Arr(vec![v.clone()]),
                    }
                    changed = true;
                }
            }
            // Parts that write apart from one another cannot undo each
            // other's changes; of parts that may, only the outcome tells.
            Update::Many(us) => {
                let apart = (1..us.len()).all(|i| us[..i].iter().all(|u| !us[i].overlaps(u)));
                if apart {
                    for u in us {
                        changed |= u.apply(doc);
                    }
                } else {
                    let before = doc.clone();
                    for u in us {
                        u.apply(doc);
                    }
                    changed = *doc != before;
                }
            }
        }
        changed
    }

    /// `true` if the two updates may write to the same place.
    fn overlaps(&self, other: &Update) -> bool {
        match self {
            Update::Set(p, _) | Update::Unset(p) | Update::Inc(p, _) | Update::Push(p, _) => {
                other.reaches(p)
            }
            Update::Many(us) => us.iter().any(|u| u.overlaps(other)),
        }
    }

    /// `true` if applying the update can change what a document holds at
    /// `path`: one of its paths is `path`, lies under it or leads to it.
    pub(crate) fn reaches(&self, path: &str) -> bool {
        fn leads_to(a: &str, b: &str) -> bool {
            b.strip_prefix(a)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        }
        match self {
            Update::Set(p, _) | Update::Unset(p) | Update::Inc(p, _) | Update::Push(p, _) => {
                leads_to(p, path) || leads_to(path, p)
            }
            Update::Many(us) => us.iter().any(|u| u.reaches(path)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;

    fn sample() -> Value {
        obj! {
            "name" => "job-1",
            "status" => "PROCESSING",
            "learners" => 4,
            "gpu" => obj! { "kind" => "K80" },
            "tags" => vec!["a", "b"],
            "progress" => 0.5,
        }
    }

    #[test]
    fn comparison_filters() {
        let d = sample();
        assert!(Filter::True.matches(&d));
        assert!(Filter::eq("status", "PROCESSING").matches(&d));
        assert!(Filter::eq("gpu.kind", "K80").matches(&d));
        assert!(Filter::gt("learners", 3).matches(&d));
        assert!(!Filter::gt("learners", 4).matches(&d));
        assert!(Filter::Gte("learners".into(), 4.into()).matches(&d));
        assert!(Filter::lt("progress", 0.6).matches(&d));
        assert!(Filter::Lte("progress".into(), 0.5.into()).matches(&d));
        assert!(
            Filter::gt("learners", 3.5).matches(&d),
            "cross-type numeric"
        );
    }

    #[test]
    fn ne_and_exists_semantics_on_missing_paths() {
        let d = sample();
        assert!(Filter::Ne("missing".into(), 1.into()).matches(&d));
        assert!(!Filter::eq("missing", 1).matches(&d));
        assert!(Filter::Exists("gpu.kind".into(), true).matches(&d));
        assert!(Filter::Exists("gpu.count".into(), false).matches(&d));
        assert!(!Filter::gt("missing", 0).matches(&d));
    }

    #[test]
    fn in_prefix_and_boolean_combinators() {
        let d = sample();
        assert!(
            Filter::In("status".into(), vec!["PENDING".into(), "PROCESSING".into()]).matches(&d)
        );
        assert!(Filter::Prefix("name".into(), "job-".into()).matches(&d));
        assert!(!Filter::Prefix("learners".into(), "4".into()).matches(&d));
        assert!(Filter::and(vec![
            Filter::eq("status", "PROCESSING"),
            Filter::Not(Box::new(Filter::eq("name", "job-2"))),
        ])
        .matches(&d));
        assert!(Filter::or(vec![
            Filter::eq("status", "FAILED"),
            Filter::eq("status", "PROCESSING"),
        ])
        .matches(&d));
        assert!(!Filter::And(vec![Filter::True, Filter::eq("learners", 5)]).matches(&d));
    }

    #[test]
    fn pinned_eq_extraction() {
        let f = Filter::and(vec![
            Filter::gt("learners", 1),
            Filter::eq("status", "PROCESSING"),
        ]);
        assert_eq!(f.pinned_eq("status"), Some(&Value::from("PROCESSING")));
        assert_eq!(f.pinned_eq("learners"), None);
        assert_eq!(Filter::True.pinned_eq("status"), None);
    }

    #[test]
    fn pinned_in_extraction() {
        let vs: Vec<Value> = vec!["PENDING".into(), "DEPLOYING".into()];
        let f = Filter::and(vec![
            Filter::gt("learners", 1),
            Filter::In("status".into(), vs.clone()),
        ]);
        assert_eq!(f.pinned_in("status"), Some(vs.as_slice()));
        assert_eq!(f.pinned_in("learners"), None);
        assert_eq!(
            Filter::In("status".into(), vs.clone()).pinned_in("status"),
            Some(vs.as_slice())
        );
        assert_eq!(Filter::True.pinned_in("status"), None);
        // `In` under an `Or` must not be treated as pinning: the other arm
        // can match documents outside the listed set.
        let or = Filter::or(vec![Filter::In("status".into(), vs), Filter::True]);
        assert_eq!(or.pinned_in("status"), None);
    }

    #[test]
    fn updates() {
        let mut d = sample();
        Update::set("status", "COMPLETED").apply(&mut d);
        Update::set("metrics.loss", 0.01).apply(&mut d);
        Update::inc("learners", 2).apply(&mut d);
        Update::push("tags", "c").apply(&mut d);
        Update::Unset("gpu".into()).apply(&mut d);
        assert_eq!(d.path("status").unwrap().as_str(), Some("COMPLETED"));
        assert_eq!(d.path("metrics.loss").unwrap().as_f64(), Some(0.01));
        assert_eq!(d.path("learners").unwrap().as_i64(), Some(6));
        assert_eq!(d.path("tags").unwrap().as_arr().unwrap().len(), 3);
        assert!(d.path("gpu").is_none());
    }

    #[test]
    fn update_edge_cases() {
        let mut d = obj! {};
        Update::inc("fresh", 5).apply(&mut d);
        assert_eq!(d.path("fresh").unwrap().as_i64(), Some(5));
        Update::push("list", 1).apply(&mut d);
        Update::push("list", 2).apply(&mut d);
        assert_eq!(d.path("list").unwrap().as_arr().unwrap().len(), 2);
        // Push onto a scalar replaces it with a singleton array.
        Update::push("fresh", 9).apply(&mut d);
        assert_eq!(d.path("fresh").unwrap().as_arr().unwrap().len(), 1);
        // Unset at top level and nested-missing are no-ops.
        Update::Unset("ghost".into()).apply(&mut d);
        Update::Many(vec![Update::set("a", 1), Update::set("b", 2)]).apply(&mut d);
        assert_eq!(d.path("a").unwrap().as_i64(), Some(1));
        assert_eq!(d.path("b").unwrap().as_i64(), Some(2));
    }
}
