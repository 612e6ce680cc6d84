//! Logical clock substrate for thread–object computations.
//!
//! This crate provides the timestamp representation shared by every clock in
//! the repository and the classic clock algorithms the paper compares
//! against:
//!
//! * [`compare`] — [`VectorTimestamp`] (the vector value attached to an
//!   event) and [`ClockOrd`], the four-way outcome of comparing two
//!   timestamps.
//! * [`component`] — [`ComponentMap`]: the mapping from a chosen set of
//!   threads/objects to vector components.  The paper's mixed clock
//!   (Section III-C) takes a vertex cover of the thread–object graph; the
//!   traditional thread-based and object-based clocks of Section II are the
//!   same protocol with every thread ([`ComponentMap::all_threads`]) or
//!   every object ([`ComponentMap::all_objects`]) as a component.
//! * [`chunked`] — the storage rule rows and stamps share (the nonzero
//!   64-entry chunks, packed, plus a mask bit per chunk, in one buffer) and
//!   [`ClockRows`]: the per-thread and per-object rows and the write-back
//!   protocol step, whose stamp shares the thread's row until that row's
//!   next write.
//! * [`chain`] — a dynamic chain-clock baseline in the spirit of
//!   Agarwal & Garg (PODC 2005), the closest related work (Section VI).
//! * [`validate`] — checking the vector clock condition
//!   `s → t ⇔ s.v < t.v` of a timestamp assignment against the exact
//!   happened-before oracle.
//!
//! # Example
//!
//! The thread-based vector clock of Figure 1, one [`ClockRows::step`] per
//! event:
//!
//! ```
//! use mvc_clock::{validate, ClockRows, ComponentMap};
//! use mvc_trace::examples::paper_figure1;
//!
//! let computation = paper_figure1();
//! let map = ComponentMap::all_threads(computation.thread_index_bound());
//! let mut rows = ClockRows::new();
//! let stamps: Vec<_> = computation
//!     .events()
//!     .map(|e| rows.step(e.thread, e.object, map.event_component(e).unwrap(), map.len()))
//!     .collect();
//! let oracle = computation.causality_oracle();
//! assert!(validate::satisfies_vector_clock_condition(&computation, &stamps, &oracle));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod chunked;
pub mod compare;
pub mod component;
pub mod validate;

#[cfg(test)]
mod mixed;
#[cfg(test)]
mod vector;

pub use chunked::{ClockRows, StampPatch};
pub use compare::{ClockOrd, VectorTimestamp};
pub use component::{Component, ComponentMap};
