//! Tier-1 gate: the workspace lints clean under mvc-lint.
//!
//! This is the in-process twin of the CI step `cargo run -p mvc-lint --
//! --deny`: every invariant in `lint.toml` (the declared lock order, no
//! `SeqCst`, and the forbidden-pattern rules) holds over the current source
//! tree. A failure message lists the exact findings. Hot-path panics and
//! debug output are clippy's (`cargo clippy --workspace --all-targets -- -D
//! warnings`), and `unsafe` is rustc's; see docs/LINTS.md.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = mvc_lint::Config::load(&root.join("lint.toml")).expect("lint.toml parses");
    let files = mvc_lint::workspace_files(root).expect("workspace walk succeeds");
    assert!(
        files.len() > 50,
        "workspace walk looks broken: only {} files found",
        files.len()
    );
    let diags = mvc_lint::lint_paths(root, &files, &cfg).expect("all sources readable");
    assert!(
        diags.is_empty(),
        "mvc-lint found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
