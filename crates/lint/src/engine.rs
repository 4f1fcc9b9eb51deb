//! The analysis driver: workspace walking, file classification,
//! suppression handling, and deterministic aggregation.
//!
//! Everything here is deliberately order-stable: directory entries are
//! sorted before recursion and findings are sorted before reporting, so
//! two runs over the same tree produce byte-identical output (the linter
//! holds itself to the determinism contract it enforces).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};
use crate::pairs::check_pairs;
use crate::parser::parse_file;
use crate::rules::{check_crate_root, rule, Finding};
use crate::scopes::mark_test_regions;
use crate::sinks::check_sinks;

/// The crates whose library code the flow rules police: the control plane
/// and the substrates it runs in-process.
const CONTROL_PLANE: &[&str] = &["core", "etcd", "docstore", "kube"];

/// Classification of one scanned file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Library code of a control-plane crate — where the paired-resource
    /// and error-sink rules apply. (Binaries, examples, tests and
    /// `third_party/` only get the crate-root check.)
    pub control_plane_lib: bool,
}

/// A finding that was suppressed by an `allow` directive.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// The finding that would have been reported.
    pub finding: Finding,
    /// The written justification from the directive.
    pub justification: String,
}

/// The result of linting a workspace (or a single source).
#[derive(Debug, Default)]
pub struct Report {
    /// Live findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Suppressed findings with their justifications, same order.
    pub suppressed: Vec<Suppressed>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when the tree is clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        // Two acquires on one line report once.
        self.findings
            .dedup_by(|a, b| (&a.file, a.line, a.rule) == (&b.file, b.line, b.rule));
        self.suppressed.sort_by(|a, b| {
            (&a.finding.file, a.finding.line, a.finding.rule).cmp(&(
                &b.finding.file,
                b.finding.line,
                b.finding.rule,
            ))
        });
        self.suppressed.dedup_by(|a, b| {
            (&a.finding.file, a.finding.line, a.finding.rule)
                == (&b.finding.file, b.finding.line, b.finding.rule)
        });
    }
}

/// One parsed `// dlaas-lint: allow(rule): justification` directive.
#[derive(Debug, Clone)]
struct Directive {
    rule: String,
    justification: String,
    /// Line the directive comment sits on.
    at_line: u32,
    /// Line whose findings it suppresses.
    target_line: u32,
}

const DIRECTIVE_TAG: &str = "dlaas-lint:";

/// Parses suppression directives out of the token stream. A trailing
/// comment suppresses its own line; a comment on its own line suppresses
/// the next code line (directives stack across consecutive lines).
fn parse_directives(tokens: &[Token]) -> (Vec<Directive>, Vec<Finding>) {
    let mut directives = Vec::new();
    let mut malformed: Vec<(u32, String)> = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        // Doc comments (`///`, `//!`) are documentation that may *mention*
        // the directive syntax; only plain `//` comments carry directives.
        if tok.text.starts_with("///") || tok.text.starts_with("//!") {
            continue;
        }
        let Some(pos) = tok.text.find(DIRECTIVE_TAG) else {
            continue;
        };
        let rest = tok.text[pos + DIRECTIVE_TAG.len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            malformed.push((tok.line, "directive is not `allow(<rule>)`".into()));
            continue;
        };
        let Some(close) = args.find(')') else {
            malformed.push((tok.line, "unclosed `allow(`".into()));
            continue;
        };
        let rule_id = args[..close].trim().to_string();
        let after = args[close + 1..].trim_start();
        let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
        // Trailing directive ⇒ same line; standalone ⇒ next code line.
        let trailing = tokens[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| !t.is_comment());
        let target_line = if trailing {
            tok.line
        } else {
            tokens[i + 1..]
                .iter()
                .find(|t| !t.is_comment())
                .map(|t| t.line)
                .unwrap_or(tok.line)
        };
        directives.push(Directive {
            rule: rule_id,
            justification: justification.to_string(),
            at_line: tok.line,
            target_line,
        });
    }
    let mut meta_findings = Vec::new();
    for d in &directives {
        if rule(&d.rule).is_none() {
            meta_findings.push((
                d.at_line,
                "suppression-unknown-rule",
                format!("allow names unknown rule `{}`", d.rule),
            ));
        }
        if d.justification.is_empty() {
            meta_findings.push((
                d.at_line,
                "suppression-missing-justification",
                format!(
                    "allow({}) has no justification — write `allow({}): <why this exception \
                     is sound>`",
                    d.rule, d.rule
                ),
            ));
        }
    }
    for (line, msg) in malformed {
        meta_findings.push((line, "suppression-unknown-rule", msg));
    }
    let findings = meta_findings
        .into_iter()
        .map(|(line, rule, message)| Finding {
            file: String::new(), // filled by the caller
            line,
            rule,
            message,
        })
        .collect();
    (directives, findings)
}

/// Lints one file into `report`: the crate-root check and the flow-aware
/// families (paired-resource, error-sink), filtered through the file's
/// suppression directives. With `check_stale`, a well-formed directive
/// that suppressed nothing becomes a `suppression-stale` finding.
fn lint_file(meta: &FileMeta, source: &str, check_stale: bool, report: &mut Report) {
    let tokens = lex(source);
    let in_test = mark_test_regions(&tokens);

    let mut raw = Vec::new();
    if is_crate_root(&meta.path) {
        raw.extend(check_crate_root(meta, &tokens));
    }
    let parsed = parse_file(&tokens, &in_test);
    raw.extend(check_pairs(meta, &parsed));
    raw.extend(check_sinks(meta, &parsed));

    let (directives, mut meta_findings) = parse_directives(&tokens);
    for f in &mut meta_findings {
        f.file = meta.path.clone();
    }
    // Suppression table: (rule, target line) -> justification.
    let mut allow: BTreeMap<(&str, u32), &str> = BTreeMap::new();
    for d in &directives {
        if rule(&d.rule).is_some() && !d.justification.is_empty() {
            allow.insert((d.rule.as_str(), d.target_line), d.justification.as_str());
        }
    }
    let mut used: BTreeSet<(String, u32)> = BTreeSet::new();
    for f in raw {
        match allow.get(&(f.rule, f.line)) {
            Some(justification) => {
                used.insert((f.rule.to_string(), f.line));
                report.suppressed.push(Suppressed {
                    finding: f,
                    justification: (*justification).to_string(),
                });
            }
            None => report.findings.push(f),
        }
    }
    // Meta findings (bad directives) are never suppressible.
    report.findings.extend(meta_findings);
    if check_stale {
        for d in &directives {
            let well_formed = rule(&d.rule).is_some() && !d.justification.is_empty();
            if well_formed && !used.contains(&(d.rule.clone(), d.target_line)) {
                report.findings.push(Finding {
                    file: meta.path.clone(),
                    line: d.at_line,
                    rule: "suppression-stale",
                    message: format!(
                        "allow({}) suppresses nothing: the rule no longer fires on line {} — \
                         remove the stale directive",
                        d.rule, d.target_line
                    ),
                });
            }
        }
    }
}

/// Lints one source text under an explicit classification. Public so the
/// fixture tests can exercise rules without a real workspace layout.
/// Skips the stale-suppression audit, which presumes the whole file is
/// present — see [`lint_files`] / [`lint_workspace`].
pub fn lint_source(meta: &FileMeta, source: &str) -> Report {
    let mut report = Report {
        files_scanned: 1,
        ..Report::default()
    };
    lint_file(meta, source, false, &mut report);
    report.sort();
    report
}

fn is_crate_root(rel: &str) -> bool {
    rel == "examples/lib.rs"
        || rel == "tests/lib.rs"
        || ((rel.starts_with("crates/") || rel.starts_with("third_party/"))
            && rel.ends_with("/src/lib.rs"))
}

/// Classifies a workspace-relative path; `None` for files outside the
/// scanned layout.
pub fn classify(rel: &str) -> Option<FileMeta> {
    let segments: Vec<&str> = rel.split('/').collect();
    let control_plane_lib = match segments.as_slice() {
        ["crates", _, "src", "bin", ..] | ["crates", _, "src", .., "main.rs"] => false,
        ["crates", krate, "src", ..] => CONTROL_PLANE.contains(krate),
        ["crates", _, "tests", ..] | ["examples" | "tests" | "third_party", ..] => false,
        _ => return None,
    };
    Some(FileMeta {
        path: rel.to_string(),
        control_plane_lib,
    })
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // `fixtures` trees hold intentionally-dirty rule exercises.
            if matches!(name, "target" | ".git" | "fixtures" | "node_modules") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints a set of already-classified sources as one workspace: every
/// rule plus stale-suppression detection. Public so tests can exercise
/// it on in-memory trees.
pub fn lint_files(files: &[(FileMeta, String)]) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for (meta, source) in files {
        lint_file(meta, source, true, &mut report);
    }
    report.sort();
    report
}

/// Reads and classifies every `.rs` file of the workspace at `root`.
fn read_workspace(root: &Path) -> io::Result<Vec<(FileMeta, String)>> {
    let mut paths = Vec::new();
    for top in ["crates", "examples", "tests", "third_party"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(meta) = classify(&rel) else { continue };
        files.push((meta, fs::read_to_string(&path)?));
    }
    Ok(files)
}

/// Lints every `.rs` file of the workspace rooted at `root`.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint_files(&read_workspace(root)?))
}
