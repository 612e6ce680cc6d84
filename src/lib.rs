//! Optimal mixed vector clocks for multithreaded systems — facade crate.
//!
//! This crate re-exports the whole workspace behind one dependency, which is
//! what an application would normally add:
//!
//! * [`graph`] — bipartite graphs, Hopcroft–Karp matching, Kőnig–Egerváry
//!   minimum vertex cover, random graph generators.
//! * [`trace`] — the thread–object computation model, happened-before oracle
//!   and synthetic workload generators.
//! * [`clock`] — vector timestamps, component maps (every thread, every
//!   object or a vertex cover: the paper's three clocks), the chunked
//!   protocol rows and the chain-clock baseline.
//! * [`core`] — the offline optimal algorithm (Algorithm 1) and the
//!   incremental timestamping engine.
//! * [`online`] — the Naive / Random / Popularity / Adaptive online
//!   mechanisms.
//! * [`shard`] — the sharded timestamping engine: components striped across
//!   dense slices, stamped in turn on the caller's thread and merged in
//!   order (the independent dense kernel the sequential engine is checked
//!   against).
//! * [`runtime`] — traced shared objects, trace sessions (batch or live,
//!   stamped while the program runs) and the conflict analyzer.
//! * [`net`] — the pipeline as a networked multi-client service: framed
//!   protocol, TCP and in-process transports, session server with
//!   credit-based backpressure and reconnect-and-replay.
//! * [`obs`] — the zero-dependency observability layer: sharded atomic
//!   counters / gauges / log₂ histograms, the process-global registry every
//!   stage records into, and JSON + Prometheus snapshots.
//! * [`eval`] — the harness that regenerates the paper's figures.
//!
//! # Example
//!
//! ```
//! use mixed_vector_clock::prelude::*;
//!
//! // Build a computation: two threads sharing one queue object.
//! let mut computation = Computation::new();
//! computation.record(ThreadId(0), ObjectId(0));
//! computation.record(ThreadId(1), ObjectId(0));
//! computation.record(ThreadId(1), ObjectId(1));
//!
//! // The optimal mixed clock needs fewer components than threads or objects.
//! let plan = OfflineOptimizer::new().plan_for_computation(&computation);
//! assert!(plan.clock_size() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mvc_clock as clock;
pub use mvc_core as core;
pub use mvc_eval as eval;
pub use mvc_graph as graph;
pub use mvc_net as net;
pub use mvc_obs as obs;
pub use mvc_online as online;
pub use mvc_runtime as runtime;
pub use mvc_shard as shard;
pub use mvc_trace as trace;

/// The most commonly used types, re-exported from `mvc_core::prelude` plus
/// the online mechanisms, the mechanism registry, the workload generators and
/// the runtime session types.
///
/// The unified timestamping surface is all here: the
/// [`Timestamper`](mvc_core::Timestamper) trait with its four
/// implementations ([`BatchReplay`](mvc_core::BatchReplay),
/// [`TimestampingEngine`](mvc_core::TimestampingEngine),
/// [`OnlineTimestamper`](mvc_online::OnlineTimestamper),
/// [`ShardedEngine`](mvc_shard::ShardedEngine)), the
/// [`MechanismRegistry`](mvc_online::MechanismRegistry) for name-based
/// mechanism selection, the batch
/// ([`TraceSession`](mvc_runtime::TraceSession)) / live
/// ([`LiveSession`](mvc_runtime::LiveSession)) recording modes, and the
/// pluggable event sinks ([`EventSink`](mvc_core::EventSink) with the
/// mem / codec / stats / tee backends).
pub mod prelude {
    pub use mvc_core::prelude::*;
    pub use mvc_net::{
        ClientConfig, InProcTransport, NetServer, ProducerClient, ServerConfig, TcpTransport,
    };
    pub use mvc_online::{
        simulate_final_size, Adaptive, MechanismRegistry, MechanismStats, Naive, NaiveSide,
        OnlineMechanism, OnlineRun, OnlineTimestamper, Popularity, Random, UnknownMechanismError,
    };
    pub use mvc_runtime::{
        ConflictAnalyzer, LiveRun, LiveSession, PipelineError, SharedObject, ThreadHandle,
        TraceSession,
    };
    pub use mvc_shard::ShardedEngine;
    pub use mvc_trace::{WorkloadBuilder, WorkloadKind};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let mut c = Computation::new();
        c.record(ThreadId(0), ObjectId(0));
        let plan = OfflineOptimizer::new().plan_for_computation(&c);
        assert_eq!(plan.clock_size(), 1);
    }
}
