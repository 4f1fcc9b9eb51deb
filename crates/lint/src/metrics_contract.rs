//! Metric-contract extraction: the observability surface, harvested
//! statically and held to account.
//!
//! Every counter/gauge/histogram call site in the workspace is
//! collected — metric name (string literal or `const` resolved through
//! the workspace vocabulary), kind (implied by the API used or declared
//! by `describe`), and label arity/keys (from `&[("k", v), …]` slice
//! literals). From that one harvest come three things:
//!
//! - `metric-kind-collision`: one name used as two kinds — the series
//!   would be garbage at scrape time;
//! - `metric-arity-mismatch`: one name written with different label
//!   arities or different label keys — Prometheus semantics require a
//!   stable label set per name;
//! - `metric-uninterned`: name-based mutation in a hot crate (`sim`,
//!   `etcd`, `kube`), which re-canonicalizes the label set every call;
//!   PR 6 interned handles exist precisely so the hot path doesn't —
//!   create a `counter_handle`/`gauge_handle`/`histogram_handle` at
//!   init and bump through it;
//!
//! plus the generated **manifest** (`render_manifest`): a byte-stable
//! JSON inventory of every metric — name, kind, label keys, arity,
//! site count — committed at the repo root and diffed in CI so the
//! observability surface can only change deliberately.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::{FileClass, FileMeta};
use crate::parser::{visit, ArgValue, Node, ParsedFile};
use crate::rules::Finding;

/// Crates whose lib code must mutate metrics through interned handles.
pub const HOT_CRATES: &[&str] = &["sim", "etcd", "kube"];

/// What an obs API name implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// obs registry APIs whose first argument is a metric name, with the
/// kind each implies and whether it is a hot-path mutation.
const APIS: &[(&str, Kind, bool)] = &[
    ("inc", Kind::Counter, true),
    ("inc_by", Kind::Counter, true),
    ("counter_handle", Kind::Counter, false),
    ("counter_value", Kind::Counter, false),
    ("counter_total", Kind::Counter, false),
    ("set_gauge", Kind::Gauge, true),
    ("add_gauge", Kind::Gauge, true),
    ("gauge_handle", Kind::Gauge, false),
    ("gauge_value", Kind::Gauge, false),
    ("observe", Kind::Histogram, true),
    ("observe_duration_us", Kind::Histogram, true),
    ("histogram_handle", Kind::Histogram, false),
    ("set_buckets", Kind::Histogram, false),
    ("quantile", Kind::Histogram, false),
];

/// One resolved metric call site.
struct Site {
    name: String,
    kind: Kind,
    /// Label keys when the second argument was a slice literal
    /// (`None` entries for computed keys).
    keys: Option<Vec<Option<String>>>,
    /// From `describe(…)` — the authoritative kind declaration.
    is_describe: bool,
    /// Name-based mutation API (candidate for `metric-uninterned`).
    hot_mutation: bool,
    file: String,
    line: u32,
    in_hot_lib: bool,
}

/// Builds the workspace `const NAME: &str = "…"` vocabulary. Names with
/// conflicting values across files resolve to nothing (ambiguous).
fn const_table(files: &[(FileMeta, ParsedFile)]) -> BTreeMap<String, Option<String>> {
    let mut table: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (_, parsed) in files {
        for (name, value) in &parsed.consts {
            table.entry(name.clone()).or_default().insert(value.clone());
        }
    }
    table
        .into_iter()
        .map(|(name, values)| {
            let v = (values.len() == 1).then(|| values.into_iter().next().unwrap_or_default());
            (name, v)
        })
        .collect()
}

fn harvest(files: &[(FileMeta, ParsedFile)]) -> Vec<Site> {
    let consts = const_table(files);
    let resolve = |arg: &ArgValue| -> Option<String> {
        match arg {
            ArgValue::Str(s) => Some(s.clone()),
            ArgValue::Path(p) => consts.get(p).cloned().flatten(),
        }
    };
    let mut sites = Vec::new();
    for (meta, parsed) in files {
        if matches!(meta.class, FileClass::Test | FileClass::Vendored) {
            continue;
        }
        let in_hot_lib = meta.class == FileClass::Lib && HOT_CRATES.contains(&meta.krate.as_str());
        for f in &parsed.fns {
            if f.in_test {
                continue;
            }
            visit(&f.body, &mut |n| {
                let Node::Call(c) = n else { return };
                let Some(first) = &c.first_arg else { return };
                let Some(name) = resolve(first) else { return };
                if c.name == "describe" {
                    let kind = match c.second_arg.as_ref() {
                        Some(ArgValue::Path(p)) if p == "Counter" => Kind::Counter,
                        Some(ArgValue::Path(p)) if p == "Gauge" => Kind::Gauge,
                        Some(ArgValue::Path(p)) if p == "Histogram" => Kind::Histogram,
                        _ => return,
                    };
                    sites.push(Site {
                        name,
                        kind,
                        keys: None,
                        is_describe: true,
                        hot_mutation: false,
                        file: meta.path.clone(),
                        line: c.line,
                        in_hot_lib,
                    });
                    return;
                }
                // Registry APIs are always invoked as methods on a
                // registry handle; a path call like `Update::inc(…)` is
                // a different vocabulary that happens to share a name.
                if !c.is_method {
                    return;
                }
                let Some(&(_, kind, hot)) = APIS.iter().find(|(api, ..)| *api == c.name) else {
                    return;
                };
                // `set_buckets`/`counter_total`/`*_id` carry no label
                // slice; keys stay unknown for them.
                let keys = if matches!(c.name.as_str(), "set_buckets" | "counter_total")
                    || c.name.ends_with("_id")
                {
                    None
                } else {
                    c.label_keys.clone()
                };
                sites.push(Site {
                    name,
                    kind,
                    keys,
                    is_describe: false,
                    hot_mutation: hot,
                    file: meta.path.clone(),
                    line: c.line,
                    in_hot_lib,
                });
            });
        }
    }
    sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    sites
}

/// Runs the contract checks over the whole workspace harvest.
pub fn check_metrics(files: &[(FileMeta, ParsedFile)]) -> Vec<Finding> {
    let sites = harvest(files);
    let mut by_name: BTreeMap<&str, Vec<&Site>> = BTreeMap::new();
    for s in &sites {
        by_name.entry(&s.name).or_default().push(s);
    }
    let mut out = Vec::new();
    for (name, sites) in &by_name {
        // Canonical kind: the describe() declaration when present,
        // otherwise the first site in (file, line) order.
        let canonical = sites.iter().find(|s| s.is_describe).unwrap_or(&sites[0]);
        for s in sites {
            if s.kind != canonical.kind {
                out.push(Finding {
                    file: s.file.clone(),
                    line: s.line,
                    rule: "metric-kind-collision",
                    message: format!(
                        "`{name}` is used as a {} here but declared as a {} at {}:{}; one \
                         metric name must have one kind",
                        s.kind.name(),
                        canonical.kind.name(),
                        canonical.file,
                        canonical.line
                    ),
                });
            }
        }
        // Canonical label set: the first site with a fully-literal key
        // slice; later fully-known sites must match arity and keys.
        let known = |s: &&&Site| {
            s.keys
                .as_ref()
                .is_some_and(|k| k.iter().all(Option::is_some))
        };
        if let Some(first) = sites.iter().find(|s| known(s)) {
            let canon_keys: Vec<&String> = first
                .keys
                .as_ref()
                .map(|k| k.iter().flatten().collect())
                .unwrap_or_default();
            for s in sites.iter().filter(|s| known(s)) {
                let keys: Vec<&String> = s
                    .keys
                    .as_ref()
                    .map(|k| k.iter().flatten().collect())
                    .unwrap_or_default();
                if keys != canon_keys {
                    out.push(Finding {
                        file: s.file.clone(),
                        line: s.line,
                        rule: "metric-arity-mismatch",
                        message: format!(
                            "`{name}` is written with label keys [{}] here but [{}] at \
                             {}:{}; a metric's label set must be identical at every site",
                            keys.iter()
                                .map(|k| k.as_str())
                                .collect::<Vec<_>>()
                                .join(", "),
                            canon_keys
                                .iter()
                                .map(|k| k.as_str())
                                .collect::<Vec<_>>()
                                .join(", "),
                            first.file,
                            first.line
                        ),
                    });
                }
            }
        }
        // Hot-path interning.
        for s in sites.iter().filter(|s| s.hot_mutation && s.in_hot_lib) {
            out.push(Finding {
                file: s.file.clone(),
                line: s.line,
                rule: "metric-uninterned",
                message: format!(
                    "name-based mutation of `{name}` re-canonicalizes the label set on a hot \
                     path; create a `{}_handle` at init and mutate through it",
                    s.kind.name()
                ),
            });
        }
    }
    out
}

/// Renders the metric manifest: a byte-stable JSON inventory of every
/// metric the workspace touches.
pub fn render_manifest(files: &[(FileMeta, ParsedFile)]) -> String {
    let sites = harvest(files);
    let mut by_name: BTreeMap<&str, Vec<&Site>> = BTreeMap::new();
    for s in &sites {
        by_name.entry(&s.name).or_default().push(s);
    }
    let mut out = String::from("{\n  \"metrics\": [\n");
    let total = by_name.len();
    for (i, (name, sites)) in by_name.iter().enumerate() {
        let canonical = sites.iter().find(|s| s.is_describe).unwrap_or(&sites[0]);
        let mut keys: BTreeSet<&str> = BTreeSet::new();
        let mut arity: Option<usize> = None;
        for s in sites {
            if let Some(k) = &s.keys {
                arity = Some(arity.map_or(k.len(), |a: usize| a.max(k.len())));
                for key in k.iter().flatten() {
                    keys.insert(key);
                }
            }
        }
        let labels = keys
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let arity_str = arity.map_or_else(|| "null".to_string(), |a| a.to_string());
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"kind\": \"{}\", \"labels\": [{labels}], \
             \"arity\": {arity_str}, \"sites\": {}}}{}\n",
            canonical.kind.name(),
            sites.len(),
            if i + 1 < total { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
