//! `config-path`: every file `lint.toml` keys an entry on must be a file
//! the run linted.
//!
//! `[hot_path] modules`, `[[forbidden]] file` and `[[atomic.allow_seqcst]]
//! file` select by path equality, so an entry whose file was renamed or
//! deleted selects nothing and its rule passes without having looked at any
//! code. Reported against `lint.toml` itself, so no inline allow reaches it.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

pub const RULE: &str = "config-path";

pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    cfg.named_files
        .iter()
        .filter(|named| !files.iter().any(|f| f.path == named.path))
        .map(|named| Diagnostic {
            path: "lint.toml".to_string(),
            line: named.line,
            col: 1,
            rule: RULE.to_string(),
            message: format!(
                "{} names `{}`, which is not a linted file; the entry checks nothing",
                named.key, named.path
            ),
        })
        .collect()
}
