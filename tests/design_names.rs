//! DESIGN.md's tables name modules and files; this test keeps those names
//! true to the tree. Every backticked `<crate>::<module>` (the crate one of
//! the workspace's library crates, with or without its `ufc_` prefix) must
//! be a file `crates/<crate>/src/<module>.rs`, and every backticked `*.rs`
//! path must end a path of the tree's sources, tests or examples
//! (DESIGN.md writes `tests/wire_chaos.rs` for
//! `crates/experiments/tests/wire_chaos.rs`).

use std::path::{Path, PathBuf};

const CRATES: [&str; 8] = [
    "core",
    "distsim",
    "experiments",
    "model",
    "opt",
    "linalg",
    "traces",
    "geo",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The inline code spans of `markdown`, fenced blocks left out.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// Every `.rs` file under `dir`, as a path relative to `root` with `/`
/// separators.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

#[test]
fn design_names_resolve() {
    let root = repo_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root, &root.join(dir), &mut files);
    }
    assert!(
        files.iter().any(|f| f.ends_with("tests/design_names.rs")),
        "the file walk must find this test"
    );

    let mut stale = Vec::new();
    for span in code_spans(&design) {
        let tokens = span.split(|c: char| !(c.is_alphanumeric() || "_:./".contains(c)));
        for token in tokens.filter(|t| !t.is_empty()) {
            if let Some(stem) = token.strip_suffix(".rs") {
                let named = files
                    .iter()
                    .any(|f| f == token || f.ends_with(&format!("/{token}")));
                if !stem.is_empty() && !stem.ends_with('/') && !named {
                    stale.push(format!("file `{token}`"));
                }
                continue;
            }
            let mut segments = token.split("::");
            let (Some(krate), Some(module)) = (segments.next(), segments.next()) else {
                continue;
            };
            let krate = krate.strip_prefix("ufc_").unwrap_or(krate);
            let is_module = module.starts_with(|c: char| c.is_ascii_lowercase())
                && module
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if CRATES.contains(&krate) && is_module {
                let file = root.join(format!("crates/{krate}/src/{module}.rs"));
                if !file.is_file() {
                    stale.push(format!("module `{token}`"));
                }
            }
        }
    }
    stale.sort();
    stale.dedup();
    assert!(
        stale.is_empty(),
        "DESIGN.md names what the tree does not have: {stale:?}"
    );
}
