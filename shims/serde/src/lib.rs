//! Offline shim for the `serde` crate.
//!
//! The build environment cannot reach crates.io, so this crate provides the
//! `Serialize` / `Deserialize` traits as markers plus the no-op derive macros
//! from the sibling `serde_derive` shim.  No code in the workspace derives or
//! calls them (the trace codec is hand-rolled in `mvc_trace::codec`); the
//! crate stays only because the frozen `benchmark/Cargo.lock` records four
//! crates' `serde` edges, and goes with those edges.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::ser::Serialize`.
pub trait Serialize {}

/// Marker stand-in for `serde::de::Deserialize`.
pub trait Deserialize<'de>: Sized {}

/// Serialization half of the shim, mirroring `serde::ser`.
pub mod ser {
    pub use crate::Serialize;
}

/// Deserialization half of the shim, mirroring `serde::de`.
pub mod de {
    pub use crate::Deserialize;
}
