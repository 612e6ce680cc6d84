//! Offline shim for the `serde_derive` proc-macro crate.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! a minimal stand-in: the derives accept the same attribute grammar
//! (`#[serde(...)]` container/field attributes are tolerated) but expand to
//! nothing.  No code in the workspace uses them; see the `serde` shim for why
//! the crate is still built.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// No-op stand-in for `serde_derive::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op stand-in for `serde_derive::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
