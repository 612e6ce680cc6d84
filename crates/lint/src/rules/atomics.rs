//! `atomic-ordering`: `SeqCst` is banned.
//!
//! The pipeline's cross-thread handshakes (serialization tickets, shard
//! replies, server shutdown flags) are all expressed through acquire/release
//! pairs; a stray `SeqCst` hides the *absence* of a reasoned contract behind
//! the strongest (and slowest) fence. That every atomic call names *some*
//! ordering needs no rule: std's atomic methods take it as a required
//! argument.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

pub const RULE: &str = "atomic-ordering";

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    // Any SeqCst mention is a finding, wherever it appears — argument
    // position, constant, or re-export.
    file.tokens
        .iter()
        .filter(|tok| !tok.in_test && tok.kind == TokenKind::Ident && tok.text == "SeqCst")
        .map(|tok| Diagnostic {
            path: file.path.clone(),
            line: tok.line,
            col: tok.col,
            rule: RULE.to_string(),
            message: "Ordering::SeqCst is banned; use an acquire/release pair or \
                      justify it with an inline allow"
                .to_string(),
        })
        .collect()
}
