//! Golden-diagnostic tests over the fixture corpus.
//!
//! Each directory under `tests/fixtures/` is one scenario: a `config.toml`,
//! one or more `.rs` inputs whose filenames encode virtual workspace paths
//! (`__` stands for `/`, so `crates__demo__src__locks.rs` is linted as
//! `crates/demo/src/locks.rs`), and an `expected.txt` holding the exact
//! diagnostics, sorted, one per line (empty file = lints clean).
//!
//! Regenerate expectations after an intentional rule change with
//! `UPDATE_EXPECT=1 cargo test -p mvc-lint`.

use std::path::Path;

use mvc_lint::{lint_sources, Config, SourceFile};

fn run_fixture(dir: &Path) -> (String, String) {
    let cfg_text = std::fs::read_to_string(dir.join("config.toml"))
        .unwrap_or_else(|e| panic!("{}: reading config.toml: {e}", dir.display()));
    let cfg = Config::parse(&cfg_text)
        .unwrap_or_else(|e| panic!("{}: parsing config.toml: {e}", dir.display()));

    let mut inputs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    inputs.sort();
    assert!(
        !inputs.is_empty(),
        "{}: fixture has no .rs inputs",
        dir.display()
    );

    let files: Vec<SourceFile> = inputs
        .iter()
        .map(|p| {
            let virtual_path = p.file_name().unwrap().to_string_lossy().replace("__", "/");
            let text = std::fs::read_to_string(p).unwrap();
            SourceFile::parse(&virtual_path, &text)
        })
        .collect();

    let actual = lint_sources(&files, &cfg)
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n");

    let expected_path = dir.join("expected.txt");
    if std::env::var_os("UPDATE_EXPECT").is_some() {
        let mut content = actual.clone();
        if !content.is_empty() {
            content.push('\n');
        }
        std::fs::write(&expected_path, content).unwrap();
    }
    let expected = std::fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("{}: reading expected.txt: {e}", dir.display()));
    (actual, expected.trim_end().to_string())
}

fn check(name: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let (actual, expected) = run_fixture(&dir);
    assert_eq!(
        actual, expected,
        "\nfixture `{name}` diverged.\n--- actual ---\n{actual}\n--- expected ---\n{expected}\n\
         (UPDATE_EXPECT=1 cargo test -p mvc-lint to regenerate)"
    );
}

#[test]
fn lock_order_fixture() {
    check("lock_order");
}

#[test]
fn atomics_fixture() {
    check("atomics");
}

#[test]
fn forbidden_fixture() {
    check("forbidden");
}

#[test]
fn config_path_fixture() {
    check("config_path");
}

/// Every fixture directory on disk must be claimed by a named test above —
/// a new rule's fixture can't silently go unasserted.
#[test]
fn all_fixture_dirs_are_covered() {
    let known = ["lock_order", "atomics", "forbidden", "config_path"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for entry in std::fs::read_dir(&root).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            known.contains(&name.as_str()),
            "fixture dir `{name}` has no corresponding #[test]"
        );
    }
}
