//! The rule set. Each module implements one rule over a lexed
//! [`crate::source::SourceFile`]; the engine in `lib.rs` runs them and
//! filters suppressed findings.

pub mod atomics;
pub mod config_path;
pub mod forbidden;
pub mod lock_order;
