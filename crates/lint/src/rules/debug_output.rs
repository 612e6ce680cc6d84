//! `no-debug-output`: no `println!`, `dbg!`, or `todo!` in library code.
//!
//! The pipeline reports through `EventSink`s and returned errors, never
//! stdout; a stray `println!` in a drain loop is both a perf hazard (stdout
//! takes a process-global lock) and an observability lie. `todo!` is a panic
//! wearing a disguise. Binaries (`main.rs`, `src/bin/`) and the path
//! prefixes `lint.toml` allowlists (none today) are exempt.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

pub const RULE: &str = "no-debug-output";

const BANNED: &[&str] = &["println", "dbg", "todo"];

pub fn check(file: &SourceFile, cfg: &Config) -> Vec<Diagnostic> {
    if is_binary(&file.path)
        || cfg
            .debug_output_allow
            .iter()
            .any(|p| file.path.starts_with(p))
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test || tok.kind != TokenKind::Ident || !BANNED.contains(&tok.text.as_str()) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct("!")) {
            continue;
        }
        // `macro_rules! println` or a path like `std::println` used in a
        // re-export would be odd but legal; the `name!` form is the usage.
        out.push(Diagnostic {
            path: file.path.clone(),
            line: tok.line,
            col: tok.col,
            rule: RULE.to_string(),
            message: format!(
                "`{}!` in library code; report through sinks or errors",
                tok.text
            ),
        });
    }
    out
}

/// Binaries may print: that's their interface.
fn is_binary(path: &str) -> bool {
    path.ends_with("/main.rs") || path.contains("/bin/")
}
