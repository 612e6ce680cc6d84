//! Sharded timestamping: the mixed-vector-clock protocol over striped
//! dense slices, with an order-preserving merge.
//!
//! The sequential [`TimestampingEngine`](mvc_core::TimestampingEngine)
//! steps chunked protocol rows one event at a time.  [`ShardedEngine`] runs
//! the same protocol slice by slice without changing a single stamp: the
//! clock's components are striped across `N` shards (component `k` belongs
//! to shard `k % N`), each shard owns its slice of every per-thread and
//! per-object mixed vector as plain dense rows, and a merge reassembles
//! full-width timestamps in arrival order.  The shards run in turn on the
//! caller's thread.
//!
//! # When to use it
//!
//! As a reference, not for speed.  Every shard applies every event and the
//! merge scatters every component of every stamp into a dense vector, so
//! the engine does strictly more work than the sequential one.  In the
//! benchmark's trace run (`shard.vs_engine_ratio`, 2 shards on a 2-vCPU
//! host, medians of six runs) it ran at 0.54× the sequential engine at
//! width 64 and 0.009× at width 4096, where the sequential engine's packed
//! stamps skip the untouched chunks a dense stamp must write.  Its dense-slice
//! kernel shares no code with the chunked one, which makes it the
//! independent reference the sequential engine is checked against
//! (conformance oracles 6, 7, 9, 10 and 12).
//!
//! # Why slicing is exact
//!
//! The mixed-clock update is componentwise independent (see the `slicing`
//! module): component `k` of an event's stamp depends only on component
//! `k` of the thread's and object's current vectors.  Every shard therefore
//! applies the *entire* event stream, in the one arrival order, to just its
//! slice — shards never exchange state, and the concatenation of their
//! slices is bit-for-bit the sequential engine's output.  Conformance
//! oracle 6 (`tests/conformance.rs`) proves this equality under proptest
//! over random workloads, shard counts 1/2/4/8, and mid-run component
//! additions.
//!
//! # The merge invariant
//!
//! A batch of events is routed once and cut into chunks of
//! `CHUNK_EVENTS`.  Each chunk is applied to every shard's slice, in
//! arrival order, and then merged; only then does the next chunk start.
//! So at every chunk boundary:
//!
//! 1. **Same prefix everywhere.**  Every shard has applied exactly the
//!    events before the boundary, in arrival order, to its slice.
//! 2. **Each component has one author.**  Component `k` of event `i`'s
//!    timestamp is read from its owning shard's buffer at `k`'s local index
//!    (shard `k % N`, local index `k / N`).
//! 3. **Program and chain order are preserved.**  Because all shards see
//!    the single arrival order (the faithful interleaving
//!    [`TraceSession`](../mvc_runtime/struct.TraceSession.html)'s
//!    order-preserving ingest merge produces from the per-thread ingest
//!    buffers and the serialization tickets drawn under each object's
//!    lock), per-thread program order and per-object chain order in the
//!    output equal the sequential engine's — not just up to equivalence,
//!    but as the identical stamp sequence.
//!
//! The engine implements [`Timestamper`](mvc_core::Timestamper), so
//! `TraceSession::live`, [`replay`](mvc_core::replay) and the network
//! server pick it up with zero call-site changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub(crate) mod slicing;

pub use engine::ShardedEngine;
