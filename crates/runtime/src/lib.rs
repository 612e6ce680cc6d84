//! Concurrent execution substrate: run real multithreaded workloads over
//! shared objects, record the thread–object trace, and track causality with
//! mixed vector clocks while the program runs.
//!
//! The paper evaluates on synthetic graphs; this crate supplies the missing
//! production piece — the instrumentation a real program would use:
//!
//! * [`session`] — [`TraceSession`]: registers threads, creates
//!   [`SharedObject`]s, and collects every operation into a
//!   [`Computation`](mvc_trace::Computation).  Each registered thread owns
//!   an ingest buffer and each operation draws a per-object serialization
//!   ticket while the object's lock is held, so the trace is exactly the
//!   interleaving the paper's model assumes — with no global queue for
//!   producers to contend on.
//! * [`ingest`] — the per-thread buffers, the publish signal that lets a
//!   drain visit only the buffers with something in them, and the
//!   order-preserving merge that reassembles a faithful interleaving.
//! * [`pipeline`] — how a live session is put together (ingest → merge →
//!   mvc-core's [`StampLoop`](mvc_core::StampLoop)) and its
//!   [`PipelineError`].
//! * [`live`] — [`LiveSession`]: the same session switched into live mode,
//!   where any [`Timestamper`](mvc_core::Timestamper) stamps events as they
//!   drain from the ingest buffers and any sink receives the stamped
//!   batches, instead of waiting for a post-hoc batch replay.
//! * [`object`] — [`SharedObject<T>`]: a value behind a `parking_lot` mutex
//!   whose reads and writes are traced.
//! * [`conflict`] — [`ConflictAnalyzer`]: post-mortem detection of concurrent
//!   conflicting operations across user-declared object groups (atomicity
//!   violation candidates), the debugging use-case that motivates causality
//!   tracking in the paper's introduction.
//! * [`analysis`] — the same questions answered *at pipeline rate*:
//!   [`ReachabilityIndexSink`], [`ConflictSink`] and [`CompetitiveSink`] are
//!   [`EventSink`](mvc_core::sink::EventSink)s that ride the
//!   merge → stamp → sink loop, so ordering queries, conflict flagging and
//!   competitive-ratio tracking happen while the run is still going.
//!
//! # Example
//!
//! ```
//! use mvc_runtime::TraceSession;
//!
//! let session = TraceSession::new();
//! let counter = session.shared_object("counter", 0u64);
//! let handle = session.register_thread("worker");
//! counter.write(&handle, |v| *v += 1);
//! let count = counter.read(&handle, |v| *v);
//! assert_eq!(count, 1);
//!
//! let computation = session.into_computation();
//! assert_eq!(computation.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod conflict;
pub mod ingest;
pub mod live;
pub mod object;
pub mod pipeline;
pub mod session;

pub use analysis::{CompetitiveSink, ConflictSink, ReachabilityIndexSink};
pub use conflict::{ConflictAnalyzer, ConflictPair};
pub use live::{LiveRun, LiveSession};
pub use object::SharedObject;
pub use pipeline::PipelineError;
pub use session::{ThreadHandle, TraceSession};
