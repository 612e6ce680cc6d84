//! `config-path`: every file a `lint.toml` `[[forbidden]]` entry names must
//! be a file the run linted.
//!
//! `[[forbidden]] file` selects by path equality, so an entry whose file was
//! renamed or deleted selects nothing and its rule passes without having
//! looked at any code. Reported against `lint.toml` itself, so no inline
//! allow reaches it.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

pub const RULE: &str = "config-path";

pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    cfg.forbidden
        .iter()
        .filter(|rule| !files.iter().any(|f| f.path == rule.file))
        .map(|rule| Diagnostic {
            path: "lint.toml".to_string(),
            line: rule.line,
            col: 1,
            rule: RULE.to_string(),
            message: format!(
                "[[forbidden]] file names `{}`, which is not a linted file; the entry checks nothing",
                rule.file
            ),
        })
        .collect()
}
