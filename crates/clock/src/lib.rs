//! Logical clock substrate for thread–object computations.
//!
//! This crate provides the timestamp representation shared by every clock in
//! the repository and the classic clock algorithms the paper compares
//! against:
//!
//! * [`compare`] — [`VectorTimestamp`] (the vector value attached to an
//!   event) and [`ClockOrd`], the four-way outcome of comparing two
//!   timestamps.
//! * [`vector`] — the traditional thread-based and object-based vector clock
//!   assigners from Section II.
//! * [`component`] — [`ComponentMap`]: the mapping from a chosen set of
//!   threads/objects (a vertex cover of the thread–object graph) to vector
//!   components.
//! * [`mixed`] — the paper's mixed-vector-clock timestamping protocol
//!   (Section III-C), parameterised by a [`ComponentMap`].
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
//! ```
//! use mvc_clock::{vector::ThreadVectorClockAssigner, TimestampAssigner, validate};
//! use mvc_trace::examples::paper_figure1;
//!
//! let computation = paper_figure1();
//! let stamps = ThreadVectorClockAssigner::new().assign(&computation);
//! let oracle = computation.causality_oracle();
//! assert!(validate::satisfies_vector_clock_condition(&computation, &stamps, &oracle));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod chunked;
pub mod compare;
pub mod component;
pub mod mixed;
pub mod validate;
pub mod vector;

pub use chunked::{ClockRows, StampPatch};
pub use compare::{ClockOrd, VectorTimestamp};
pub use component::{Component, ComponentMap};
pub use mixed::MixedVectorClockAssigner;

use mvc_trace::Computation;

/// A timestamping algorithm: walks a computation in append order and produces
/// one [`VectorTimestamp`] per event.
///
/// Implementations must be deterministic: the same computation always yields
/// the same timestamps.
pub trait TimestampAssigner {
    /// A short, stable name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Number of components in the vectors this assigner produces for the
    /// given computation.
    fn clock_size(&self, computation: &Computation) -> usize;

    /// Assigns a timestamp to every event of the computation, indexed by
    /// [`mvc_trace::EventId`] order.
    fn assign(&self, computation: &Computation) -> Vec<VectorTimestamp>;
}
