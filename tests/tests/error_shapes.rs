//! No error is dropped on the floor unreviewed (DESIGN.md §7).
//!
//! The control plane is continuation-passing: a substrate call hands its
//! `Result` to a closure, and the two ways to lose one without a trace
//! are both literal shapes —
//!
//! * an explicitly empty `Err` arm, `Err(_) => {}` / `=> ()`, and
//! * an empty continuation that ignores what it is handed, `|_sim, _r| {}`.
//!
//! (`let _ = …` and `.ok();` are clippy's, at the crate roots.) This test
//! scans the library sources of the four control-plane crates for the two
//! shapes. A site is either fixed or listed in [`ALLOWED`] with the
//! reason dropping the error is right *there*; an entry whose site is
//! gone fails too, so the list cannot rot. It is a scan of rustfmt-ed
//! text, not a parser: an arm that does some work and still loses its
//! error is out of its sight (DESIGN.md §7 writes that loss down).

use std::fs;
use std::path::Path;

/// The crates whose processes die with the fault vocabulary, not outside it.
const CRATES: [&str; 4] = ["core", "docstore", "etcd", "kube"];

/// Reviewed sites, one entry per site: `(file, enclosing fn, class: why)`.
/// The classes, and the argument for each site, are DESIGN.md §5's table
/// "Errors dropped on purpose".
#[rustfmt::skip]
const ALLOWED: &[(&str, &str, &str)] = &[
    ("crates/core/src/api.rs", "record_and_deploy", "retried by the next tick: the LCM sweep re-deploys a PENDING job"),
    ("crates/core/src/guardian.rs", "advance", "CAS-guarded: expect-absent store=go, issued again after every acknowledged STORING"),
    ("crates/core/src/lcm.rs", "teardown_job", "retried by the next tick: the sweep probes until no key is left"),
    ("crates/core/src/lcm.rs", "sweep", "retried by the next tick: the job stays in `terminal_gc`"),
    ("crates/core/src/lcm.rs", "sweep", "retried by the next tick: etcd unreachable, the job stays in `terminal_gc`"),
    ("crates/etcd/src/client.rs", "register_watch_everywhere", "retried by the next tick: any server notifies, `rewatch` re-sends"),
];

/// One occurrence of a scanned shape.
#[derive(Debug, PartialEq, Eq)]
struct Site {
    file: String,
    function: String,
    line: usize,
    shape: &'static str,
}

/// The name a `fn` item on this line declares, if any.
fn declared_fn(code: &str) -> Option<&str> {
    let rest = match code.strip_prefix("fn ") {
        Some(rest) => rest,
        None => code.split_once(" fn ")?.1,
    };
    let end = rest.find(|c: char| !c.is_alphanumeric() && c != '_')?;
    Some(&rest[..end])
}

/// Scans one library source. Everything from `#[cfg(test)]` on is the
/// file's test module (the workspace's convention) and is not scanned.
fn scan(file: &str, source: &str) -> Vec<Site> {
    let lines: Vec<(usize, &str)> = source
        .lines()
        .take_while(|raw| raw.trim() != "#[cfg(test)]")
        .enumerate()
        .map(|(i, raw)| (i + 1, raw.split("//").next().unwrap_or("").trim()))
        .filter(|(_, code)| !code.is_empty())
        .collect();
    // `{}` / `()` on the spot, or a block holding nothing but comments.
    let empty_body = |k: usize, body: &str| {
        let body = body.trim_start();
        body.starts_with("{}")
            || body.starts_with("()")
            || (body == "{"
                && lines
                    .get(k + 1)
                    .is_some_and(|(_, next)| next.starts_with('}')))
    };
    let mut function = "";
    let mut sites = Vec::new();
    for (k, &(line, code)) in lines.iter().enumerate() {
        if let Some(name) = declared_fn(code) {
            function = name;
        }
        let mut found = |shape| {
            sites.push(Site {
                file: file.to_owned(),
                function: function.to_owned(),
                line,
                shape,
            });
        };
        if let Some((pattern, body)) = code.split_once("=>") {
            if pattern.contains("Err(") && empty_body(k, body) {
                found("empty `Err` arm");
            }
        }
        let bars: Vec<usize> = code.match_indices('|').map(|(at, _)| at).collect();
        for pair in bars.windows(2) {
            let params: Vec<&str> = code[pair[0] + 1..pair[1]].split(',').collect();
            let ignores_all = params.len() >= 2 && params.iter().all(|p| p.trim().starts_with('_'));
            if ignores_all && empty_body(k, &code[pair[1] + 1..]) {
                found("empty continuation");
            }
        }
    }
    sites
}

/// What is wrong, if anything: a site nobody reviewed, or a review of a
/// site that no longer exists.
fn verdict(sites: &[Site], allowed: &[(&str, &str, &str)]) -> Vec<String> {
    let mut unused: Vec<&(&str, &str, &str)> = allowed.iter().collect();
    let mut wrong = Vec::new();
    for site in sites {
        let reviewed = unused
            .iter()
            .position(|(file, function, _)| *file == site.file && *function == site.function);
        match reviewed {
            Some(k) => drop(unused.remove(k)),
            None => wrong.push(format!(
                "{}:{}: {} in `{}` — handle the error, or say in ALLOWED why dropping it is right",
                site.file, site.line, site.shape, site.function
            )),
        }
    }
    for (file, function, _) in unused {
        wrong.push(format!(
            "stale ALLOWED entry ({file}, `{function}`): the site is gone, delete the entry"
        ));
    }
    wrong
}

#[test]
fn control_plane_drops_no_error_unreviewed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the workspace root");
    let mut sites = Vec::new();
    for krate in CRATES {
        let src = format!("crates/{krate}/src");
        let mut files: Vec<_> = fs::read_dir(root.join(&src))
            .unwrap_or_else(|e| panic!("{src}: {e}"))
            .map(|entry| entry.expect("directory entry").file_name())
            .collect();
        files.sort();
        for name in files {
            let rel = format!("{src}/{}", name.to_string_lossy());
            // The four crates keep their library sources flat; a module
            // directory would need the scan to descend into it.
            assert!(rel.ends_with(".rs"), "{rel} is not scanned");
            let source = fs::read_to_string(root.join(&rel)).expect("readable source");
            sites.extend(scan(&rel, &source));
        }
    }
    let wrong = verdict(&sites, ALLOWED);
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

#[test]
fn the_scan_sees_the_two_shapes_and_nothing_else() {
    let fixture = r#"
fn relay(sim: &mut Sim, r: Result<u32, E>) -> u32 {
    match r {
        Ok(_) => {}
        Err(_) => {}
    }
    match r {
        Ok(n) => n,
        Err(_) => 0, // value-mapping: the mapped value is the handling
    }
}

fn teardown(sim: &mut Sim) {
    client.delete(sim, key, |_sim, _r| {});
    client.put(sim, key, move |sim, r| match r {
        Ok(_) => done(sim),
        Err(EtcdError::Unavailable) | Err(EtcdError::Timeout) => {
            // retried by the next tick
        }
        Err(e) => fail(sim, e),
    });
    registry.register(name, |_sim, _ctx| Box::new(|_sim| {}));
    if a || b {}
}

#[cfg(test)]
mod tests {
    fn ignored() {
        match r {
            Err(_) => {}
        }
    }
}
"#;
    let sites = scan("f.rs", fixture);
    let seen: Vec<(&str, usize, &str)> = sites
        .iter()
        .map(|s| (s.function.as_str(), s.line, s.shape))
        .collect();
    assert_eq!(
        seen,
        [
            ("relay", 5, "empty `Err` arm"),
            ("teardown", 14, "empty continuation"),
            ("teardown", 17, "empty `Err` arm"),
        ]
    );

    // Every site reviewed, every review used: clean.
    let reviewed = [
        ("f.rs", "relay", "why"),
        ("f.rs", "teardown", "why"),
        ("f.rs", "teardown", "why"),
    ];
    assert!(verdict(&sites, &reviewed).is_empty());
    // One review short: the third site is reported where it is.
    let wrong = verdict(&sites, &reviewed[..2]);
    assert_eq!(wrong.len(), 1, "{wrong:?}");
    assert!(wrong[0].starts_with("f.rs:17: empty `Err` arm in `teardown`"));
    // A review of a site that is gone is reported as stale.
    let wrong = verdict(&sites[..2], &reviewed);
    assert_eq!(wrong.len(), 1, "{wrong:?}");
    assert!(wrong[0].starts_with("stale ALLOWED entry (f.rs, `teardown`)"));
}
