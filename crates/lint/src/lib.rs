//! mvc-lint: the workspace's static-analysis gate.
//!
//! The correctness story of this codebase — the paper's
//! stamps-equal-batch-replay contract and the ROADMAP's oracles — rests on
//! invariants neither the type system nor clippy checks: nested locks must
//! follow one global order, no atomic may fall back on `SeqCst`, the offline
//! planner must stay out of the streaming path. This crate enforces them as
//! a deny-by-default lint pass over the workspace source, run in CI as
//! `cargo run -p mvc-lint -- --deny`. What rustc and clippy can hold (no
//! panics on the hot path, no `unsafe`, no debug output) they hold, through
//! the root manifest's `[workspace.lints]`.
//!
//! Design constraints shape the implementation: the workspace builds offline
//! with shim crates, so the linter is dependency-free — a hand-rolled lexer
//! ([`lexer`]), a TOML-subset config parser ([`config`]), and purely
//! syntactic rules ([`rules`]). Findings print as
//! `path:line:col [rule-id] message` and are silenced per-line with
//! `// mvc-lint: allow(rule-id) — reason`; an allow without a reason is
//! itself a finding. See `docs/LINTS.md` for the rule catalogue.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod walk;

use std::path::Path;

pub use config::Config;
pub use diag::Diagnostic;
pub use source::SourceFile;
pub use walk::workspace_files;

/// Lint a set of workspace-relative files under `root` against `cfg`.
/// Returned diagnostics are sorted and already filtered through inline
/// suppressions.
pub fn lint_paths(
    root: &Path,
    paths: &[std::path::PathBuf],
    cfg: &Config,
) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let text = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        files.push(SourceFile::parse(&rel_str, &text));
    }
    Ok(lint_sources(&files, cfg))
}

/// Lint already-parsed sources. Split out from [`lint_paths`] so tests can
/// lint in-memory fixtures.
pub fn lint_sources(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    let mut edges = Vec::new();
    for file in files {
        raw.extend(rules::atomics::check(file));
        raw.extend(rules::forbidden::check(file, cfg));
        let (file_edges, lock_diags) = rules::lock_order::check_file(file);
        edges.extend(file_edges);
        raw.extend(lock_diags);
        // Malformed suppressions are reported unconditionally.
        raw.extend(file.suppression_diagnostics());
    }
    raw.extend(rules::lock_order::finish(&edges, cfg));
    raw.extend(rules::config_path::check(files, cfg));

    // Apply inline suppressions (a suppression needs a reason to count).
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| {
            if d.rule == "suppression" {
                return true; // malformed allows are never self-silenced
            }
            let suppressed = files
                .iter()
                .find(|f| f.path == d.path)
                .is_some_and(|f| f.is_suppressed(&d.rule, d.line));
            !suppressed
        })
        .collect();
    diag::sort_diagnostics(&mut out);
    out
}
