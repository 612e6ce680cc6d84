//! Tier-1 gate: the root manifest's two member lists cannot drift, and no
//! package drops out of the workspace lints.
//!
//! `cargo test -q` covers the whole workspace only because `[workspace]
//! default-members` repeats every entry of `members` after the root package;
//! a crate missing from either list would silently drop out of tier-1.
//! Likewise `[workspace.lints]` (no `unsafe`, no debug output) binds only the
//! packages whose manifest opts in with `[lints] workspace = true`, and a
//! crate's own `clippy.toml` replaces the root one rather than extending it.

use std::fs;
use std::path::Path;

/// The quoted entries of the `key = [ ... ]` array in `manifest`.
fn string_array(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\n{key} = ["))
        .unwrap_or_else(|| panic!("root Cargo.toml has no `{key}` array"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('"')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

#[test]
fn default_members_is_the_root_plus_every_member_and_every_crate_is_a_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = string_array(&manifest, "members");
    let default_members = string_array(&manifest, "default-members");

    let mut expected = vec![".".to_owned()];
    expected.extend(members.iter().cloned());
    assert_eq!(
        default_members, expected,
        "`default-members` must be \".\" followed by `members`, in the same order"
    );

    let mut on_disk = Vec::new();
    for parent in ["crates", "shims"] {
        for entry in fs::read_dir(root.join(parent)).expect("member parent directory") {
            let dir = entry.expect("directory entry").path();
            if dir.join("Cargo.toml").is_file() {
                let relative = dir.strip_prefix(root).expect("under the root");
                on_disk.push(relative.to_string_lossy().into_owned());
            }
        }
    }
    on_disk.sort();
    let mut listed = members;
    listed.sort();
    assert_eq!(
        listed, on_disk,
        "`members` must list exactly the crates under crates/ and shims/"
    );
}

#[test]
fn the_root_package_and_every_member_opt_into_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let mut packages = vec![".".to_owned()];
    packages.extend(string_array(&manifest, "members"));
    let missing: Vec<_> = packages
        .into_iter()
        .filter(|package| {
            let path = root.join(package).join("Cargo.toml");
            let text = fs::read_to_string(&path).expect("member manifest");
            !text.contains("\n[lints]\nworkspace = true\n")
        })
        .collect();
    assert!(
        missing.is_empty(),
        "these manifests lack `[lints] workspace = true`: {missing:?}"
    );
}

/// The top-level `key = value` lines of a clippy.toml, trimmed; the entries
/// of a multi-line array are indented and so never read as keys.
fn clippy_settings(path: &Path) -> Vec<(String, String)> {
    fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .lines()
        .filter(|line| line.starts_with(|c: char| c.is_ascii_alphabetic()))
        .filter_map(|line| line.split_once('='))
        .map(|(key, value)| (key.trim().to_owned(), value.trim().to_owned()))
        .collect()
}

#[test]
fn every_member_clippy_toml_repeats_the_root_settings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let expected = clippy_settings(&root.join("clippy.toml"));
    assert!(!expected.is_empty(), "root clippy.toml sets nothing");
    let nested: Vec<_> = string_array(&manifest, "members")
        .into_iter()
        .map(|member| root.join(member).join("clippy.toml"))
        .filter(|path| path.is_file())
        .collect();
    assert!(
        !nested.is_empty(),
        "no member has its own clippy.toml, yet mvc-net's `as_slice` ban lives in one"
    );
    let drifted: Vec<_> = nested
        .iter()
        .filter_map(|path| {
            let have = clippy_settings(path);
            let missing: Vec<_> = expected.iter().filter(|s| !have.contains(s)).collect();
            (!missing.is_empty()).then(|| format!("{}: {missing:?}", path.display()))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "clippy reads only the nearest clippy.toml, so these drop root settings:\n{}",
        drifted.join("\n")
    );
}
