//! Tier-1 gate: every public module of a library crate has a caller.
//!
//! For each `pub mod m;` in a `crates/*/src/lib.rs`, at least one `pub` item
//! defined at the top level of `m` must be named by a file other than `m`'s
//! own.  The crate root's `pub use` and `pub mod` statements do not count:
//! re-exporting a module is how it got here, not a use of it.  A module that
//! only its own unit tests exercise fails this — delete it, or find it a
//! caller.  There is no allow-list; a module that declares no `pub` item
//! (`mvc_runtime::ingest` is public for its rendered docs) has no surface to
//! hold.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, build output aside.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `name` occurs in `text` as a whole identifier.
fn names(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + name.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// The names of the `pub` items declared at the top level of `source`.
fn top_level_pub_items(source: &str) -> Vec<&str> {
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "const", "static", "type", "mod",
    ];
    source
        .lines()
        .filter_map(|line| line.strip_prefix("pub "))
        .filter_map(|rest| {
            let mut words = rest
                .split(|c: char| !is_ident(c))
                .filter(|w| !w.is_empty() && *w != "unsafe");
            let kind = words.next()?;
            // `pub const fn f` declares `f`; `pub const C` declares `C`.
            match (kind, words.next()?) {
                ("const", "fn") => words.next(),
                (kind, name) if KINDS.contains(&kind) => Some(name),
                _ => None,
            }
        })
        .collect()
}

/// `lib_rs` without its `pub use …;` and `pub mod …;` statements.
fn without_reexports(lib_rs: &str) -> String {
    let mut out = String::new();
    let mut rest = lib_rs;
    while let Some(at) = ["pub use ", "pub mod "]
        .iter()
        .filter_map(|keyword| rest.find(keyword))
        .min()
    {
        out.push_str(&rest[..at]);
        let statement = &rest[at..];
        // A `pub mod m {` with a body is not a re-export; keep what follows.
        let end = statement
            .find([';', '{'])
            .map_or(statement.len(), |e| e + 1);
        rest = &statement[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn every_public_module_is_named_outside_its_own_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark"] {
        rust_files(&root.join(dir), &mut files);
    }
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("source file readable");
            (path, text)
        })
        .collect();

    let mut modules = 0;
    let mut unreached = Vec::new();
    for (lib_rs, lib_text) in sources
        .iter()
        .filter(|(path, _)| path.ends_with("src/lib.rs") && path.starts_with(root.join("crates")))
    {
        let src = lib_rs.parent().expect("lib.rs sits in src/");
        let lib_uses = without_reexports(lib_text);
        let declared = lib_text
            .lines()
            .filter_map(|line| line.strip_prefix("pub mod ")?.strip_suffix(';'));
        for module in declared {
            let own = [format!("{module}.rs"), format!("{module}/mod.rs")]
                .map(|file| src.join(file))
                .into_iter()
                .find(|file| file.is_file())
                .unwrap_or_else(|| panic!("{}: no file for `{module}`", lib_rs.display()));
            let own_text = &sources
                .iter()
                .find(|(path, _)| *path == own)
                .expect("module file was walked")
                .1;
            let items = top_level_pub_items(own_text);
            let reached = items.is_empty()
                || items.iter().any(|item| {
                    sources.iter().any(|(path, text)| {
                        let text = if path == lib_rs { &lib_uses } else { text };
                        *path != own && names(text, item)
                    })
                });
            modules += 1;
            if !reached {
                let own = own.strip_prefix(root).expect("under the root");
                unreached.push(format!("{} (declares {items:?})", own.display()));
            }
        }
    }
    assert!(
        modules > 30,
        "the walk looks broken: {modules} public modules"
    );
    assert!(
        unreached.is_empty(),
        "no file but their own names a public item of these modules:\n{}",
        unreached.join("\n")
    );
}
