//! Optimal mixed vector clocks for multithreaded systems.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Zheng & Garg, *An Optimal Vector Clock Algorithm for Multithreaded
//! Systems*, ICDCS 2019): timestamping the events of a thread–object
//! computation with a **mixed vector clock** whose components are a minimum
//! vertex cover of the thread–object bipartite graph, which is provably the
//! smallest component set that can characterise happened-before.
//!
//! The crate ties together the substrates:
//!
//! * [`offline`] — [`OfflineOptimizer`]: Algorithm 1 (maximum matching via
//!   Hopcroft–Karp, then the Kőnig–Egerváry construction) producing an
//!   [`OfflinePlan`] with the optimal component set.
//! * [`engine`] — [`TimestampingEngine`]: an incremental engine that
//!   maintains per-thread and per-object mixed vectors and timestamps events
//!   as they are observed; supports growing the component set online, which
//!   is what the `mvc-online` mechanisms need.
//! * [`analysis`] — [`ClockSizeReport`]: side-by-side clock sizes of the
//!   thread / object / mixed / chain clocks, and [`verify_assignment`]
//!   against the exact happened-before oracle.
//! * [`timestamper`] — [`Timestamper`]: the unified streaming interface over
//!   the batch replay path ([`BatchReplay`]), the incremental engine, and the
//!   online timestampers of `mvc-online`, plus [`replay`] to drive a whole
//!   computation through any of them.
//! * [`sink`] — [`EventSink`]: pluggable egress for stamped events (memory
//!   recorder, streaming codec writer, stats counters, tee fan-out), the
//!   third stage of the runtime's ingest → stamp → sink pipeline.
//! * [`stamp_loop`] — [`StampLoop`]: the one loop that drives a
//!   [`Timestamper`] into an [`EventSink`] in bounded windows, holding back
//!   whatever either stage refused ([`PipelineError`]); the runtime's live
//!   sessions and the network server both feed it.
//!
//! # Quickstart
//!
//! ```
//! use mvc_core::prelude::*;
//! use mvc_trace::examples::paper_figure1;
//!
//! let computation = paper_figure1();
//!
//! // Run the offline optimal algorithm (Algorithm 1 of the paper).
//! let plan = OfflineOptimizer::new().plan_for_computation(&computation);
//! assert_eq!(plan.clock_size(), 3); // T2, O2/T1, O3 — fewer than 4 threads or 4 objects
//!
//! // Timestamp every event with the optimal mixed clock and validate it.
//! let stamps = replay(&mut plan.timestamper(), &computation)?.timestamps;
//! let oracle = computation.causality_oracle();
//! assert!(mvc_clock::validate::satisfies_vector_clock_condition(
//!     &computation, &stamps, &oracle
//! ));
//! # Ok::<(), TimestampError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod engine;
pub mod offline;
pub mod sink;
pub mod stamp_loop;
pub mod timestamper;

pub use analysis::{verify_assignment, ClockSizeReport};
pub use engine::TimestampingEngine;
pub use offline::{OfflineOptimizer, OfflinePlan, OfflineSolution};
pub use sink::{
    CodecSink, EventSink, MemoryRecorder, SinkError, SinkStats, StampedEvent, StatsSink, TeeSink,
};
pub use stamp_loop::{PipelineError, StampLoop};
pub use timestamper::{
    replay, BatchReplay, TimestampError, TimestampReport, TimestampedRun, Timestamper,
};

/// Convenient re-exports of the types most applications need.
pub mod prelude {
    pub use crate::analysis::ClockSizeReport;
    pub use crate::engine::TimestampingEngine;
    pub use crate::offline::{OfflineOptimizer, OfflinePlan, OfflineSolution};
    pub use crate::sink::{
        CodecSink, EventSink, MemoryRecorder, SinkError, StampedEvent, StatsSink, TeeSink,
    };
    pub use crate::timestamper::{
        replay, BatchReplay, TimestampError, TimestampReport, TimestampedRun, Timestamper,
    };
    pub use mvc_clock::{ClockOrd, Component, ComponentMap, VectorTimestamp};
    pub use mvc_graph::{BipartiteGraph, GraphScenario, RandomGraphBuilder, Vertex, VertexCover};
    pub use mvc_trace::{Computation, EventId, ObjectId, OpKind, ThreadId};
}
