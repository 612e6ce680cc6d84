//! The repo benchmark's shared code: argument parsing, seeded inputs,
//! reference results and verification, the generic drivers both binaries
//! run, and result reporting.
//!
//! Two binaries build on it (see `README.md`):
//!
//! * `bench` — the end-to-end run.  It constructs the system's engines,
//!   sinks, sessions and clients and calls them; it implements none of the
//!   system's traits.
//! * `trace` — the per-layer run.  It owns every wrapper `Timestamper` /
//!   `EventSink` / `ServeEngine` / `Transport` impl and the span recorder.
//!
//! Nothing here implements a system trait either; where `trace` needs its
//! wrappers inside a driver, the driver is generic over the trait, so a
//! change to a trait's methods can only break `trace`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod graphs;
pub mod live;
pub mod net;
pub mod report;
pub mod stats;
pub mod verify;
