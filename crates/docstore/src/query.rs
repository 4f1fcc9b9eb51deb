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
///     Filter::In("learners".into(), vec![2.into(), 4.into()]),
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
    /// Path value is one of the listed values.
    In(String, Vec<Value>),
    /// All sub-filters match.
    And(Vec<Filter>),
}

impl Filter {
    /// Equality on a dotted path.
    pub fn eq(path: impl Into<String>, v: impl Into<Value>) -> Self {
        Filter::Eq(path.into(), v.into())
    }

    /// Conjunction.
    pub fn and(fs: Vec<Filter>) -> Self {
        Filter::And(fs)
    }

    /// Evaluates the predicate against a document. Values compare by
    /// [`Value`]'s `==`, as [`Update::apply`] does: `4` is not `4.0`, and
    /// NaN equals nothing.
    pub fn matches(&self, doc: &Value) -> bool {
        match self {
            Filter::True => true,
            Filter::Eq(p, v) => doc.path(p) == Some(v),
            Filter::In(p, vs) => doc.path(p).is_some_and(|x| vs.contains(x)),
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
        }
    }

    /// The values this filter restricts `path` to, by an `Eq` or an `In`
    /// (directly or inside an `And`): what an index lookup asks for.
    pub(crate) fn pinned(&self, path: &str) -> Option<&[Value]> {
        match self {
            Filter::Eq(p, v) if p == path => Some(std::slice::from_ref(v)),
            Filter::In(p, vs) if p == path => Some(vs),
            Filter::And(fs) => fs.iter().find_map(|f| f.pinned(path)),
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
    /// Adds to an integer field (missing/non-numeric treated as 0). An
    /// increment that would leave `i64` leaves the field as it is, and
    /// the rest of the update applies. (MongoDB refuses the whole update
    /// instead; no platform caller needs that, and a counter that a
    /// corrupt record holds at the edge must not wrap or panic.)
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
                // Past `i64` the slot stays: it held an integer, so nothing
                // was created on the way to it either.
                if let Some(slot) = doc.leaf_slot(p, &mut changed) {
                    if let Some(sum) = slot.as_i64().unwrap_or(0).checked_add(*by) {
                        let new = Value::I64(sum);
                        if changed || *slot != new {
                            *slot = new;
                            changed = true;
                        }
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

    /// `true` if the update writes a NaN (see [`Value::holds_nan`]).
    pub(crate) fn holds_nan(&self) -> bool {
        match self {
            Update::Set(_, v) | Update::Push(_, v) => v.holds_nan(),
            Update::Unset(_) | Update::Inc(..) => false,
            Update::Many(us) => us.iter().any(Update::holds_nan),
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
            "status" => "PROCESSING",
            "learners" => 4,
            "gpu" => obj! { "kind" => "K80" },
            "tags" => vec!["a", "b"],
        }
    }

    #[test]
    fn comparison_filters() {
        let d = sample();
        assert!(Filter::True.matches(&d));
        assert!(Filter::eq("status", "PROCESSING").matches(&d));
        assert!(Filter::eq("gpu.kind", "K80").matches(&d));
        assert!(!Filter::eq("status", "FAILED").matches(&d));
        // The JSON writer keeps a float apart from an integer (`4.0`, `4`),
        // and so does a filter.
        assert!(!Filter::eq("learners", 4.0).matches(&d), "4 is not 4.0");
        let zero = obj! { "x" => -0.0, "y" => f64::NAN };
        assert!(Filter::eq("x", 0.0).matches(&zero), "-0.0 == 0.0");
        assert!(
            !Filter::eq("y", f64::NAN).matches(&zero),
            "NaN equals nothing"
        );
    }

    #[test]
    fn ne_and_exists_semantics_on_missing_paths() {
        let d = sample();
        assert!(!Filter::eq("missing", 1).matches(&d));
        assert!(!Filter::eq("gpu.count", 1).matches(&d));
        assert!(!Filter::In("missing".into(), vec![1.into()]).matches(&d));
    }

    #[test]
    fn in_prefix_and_boolean_combinators() {
        let d = sample();
        assert!(
            Filter::In("status".into(), vec!["PENDING".into(), "PROCESSING".into()]).matches(&d)
        );
        assert!(!Filter::In("status".into(), vec!["FAILED".into()]).matches(&d));
        assert!(Filter::and(vec![
            Filter::eq("status", "PROCESSING"),
            Filter::In("learners".into(), vec![3.into(), 4.into()]),
        ])
        .matches(&d));
        assert!(!Filter::and(vec![Filter::True, Filter::eq("learners", 5)]).matches(&d));
    }

    #[test]
    fn pinned_eq_extraction() {
        let f = Filter::and(vec![
            Filter::In("learners".into(), vec![1.into(), 2.into()]),
            Filter::eq("status", "PROCESSING"),
        ]);
        assert_eq!(f.pinned("status"), Some(&[Value::from("PROCESSING")][..]));
        assert_eq!(
            Filter::eq("learners", 1).pinned("learners"),
            Some(&[Value::from(1)][..])
        );
        assert_eq!(f.pinned("gpu"), None);
        assert_eq!(Filter::True.pinned("status"), None);
    }

    #[test]
    fn pinned_in_extraction() {
        let vs: Vec<Value> = vec!["PENDING".into(), "DEPLOYING".into()];
        let f = Filter::and(vec![
            Filter::eq("learners", 1),
            Filter::In("status".into(), vs.clone()),
        ]);
        assert_eq!(f.pinned("status"), Some(vs.as_slice()));
        assert_eq!(
            Filter::In("status".into(), vs.clone()).pinned("status"),
            Some(vs.as_slice())
        );
        assert_eq!(f.pinned("gpu"), None);
        assert_eq!(Filter::True.pinned("status"), None);
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
