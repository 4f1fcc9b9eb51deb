//! CLI for `dlaas-lint`.
//!
//! ```text
//! cargo run -p dlaas-lint -- --workspace            # lint the workspace, exit 1 on findings
//! cargo run -p dlaas-lint -- --workspace --json     # machine-readable, stable JSON
//! cargo run -p dlaas-lint -- --root <path>          # lint an explicit tree
//! cargo run -p dlaas-lint -- --list-rules           # print the rule registry
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;

use dlaas_lint::{lint_workspace, render_json, render_rules, render_text};

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: dlaas-lint (--workspace | --root <path>) [--json]\n       dlaas-lint --list-rules"
    );
    std::process::exit(2);
}

fn main() {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut list_rules = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => match find_workspace_root() {
                Some(r) => root = Some(r),
                None => {
                    eprintln!("dlaas-lint: no workspace Cargo.toml above the current directory");
                    std::process::exit(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            _ => usage(),
        }
    }
    if list_rules {
        print!("{}", render_rules());
        return;
    }
    let Some(root) = root else { usage() };
    match lint_workspace(&root) {
        Ok(report) => {
            if json {
                print!("{}", render_json(&report));
            } else {
                print!("{}", render_text(&report));
            }
            std::process::exit(i32::from(!report.clean()));
        }
        Err(e) => {
            eprintln!("dlaas-lint: {e}");
            std::process::exit(2);
        }
    }
}
