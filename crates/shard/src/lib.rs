//! Sharded timestamping runtime: multi-core event recording with an
//! order-preserving merge.
//!
//! The sequential [`TimestampingEngine`](mvc_core::TimestampingEngine)
//! processes one event at a time on one core.  [`ShardedEngine`] runs the
//! same protocol slice-parallel without changing a single stamp: the clock's
//! components are striped across `N` worker threads (component `k` belongs
//! to shard `k % N`), each shard owns its slice of every per-thread and
//! per-object mixed vector as plain dense rows, and a merge stage
//! reassembles full-width timestamps in arrival order.
//!
//! # When to use it
//!
//! Measure first.  Every shard applies every event and the merge scatters
//! every component of every stamp, so the fan-out, the per-chunk channel
//! round-trip and the merge are pure overhead unless the slice arithmetic
//! dominates them.  On the one host this has been measured on (2 shards on
//! 2 cores, `shard.vs_engine_ratio` in the benchmark's trace run) the
//! sharded engine ran at 0.59× the sequential engine at width 64 and 0.15×
//! at width 4096.  Use `TimestampingEngine` unless you have measured
//! otherwise on your hardware.  The dense-slice kernel here is also the
//! independent reference the chunked kernel is checked against
//! (conformance oracles 6 and 10).
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
//! A batch of events is cut into chunks (epochs).  For every chunk boundary
//! — the *watermark* — the following holds, and is what makes the merge
//! order-preserving:
//!
//! 1. **Same prefix everywhere.**  Every shard has applied exactly the
//!    events before the watermark, in arrival order, to its slice.  Chunks
//!    reach each shard over a FIFO queue and each shard processes its queue
//!    in order, so no shard can run ahead or behind within a chunk.
//! 2. **Stamps complete in order.**  The merge emits event `i`'s timestamp
//!    only once every shard's slice for `i`'s chunk has arrived, and
//!    component `k` of that timestamp is read from its owning shard's
//!    buffer at `k`'s local index (shard `k % N`, local index `k / N`) —
//!    each component is produced by exactly one shard.
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
//! server pick it up with zero call-site changes; batches fan out, single
//! observations still work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub(crate) mod slicing;
pub(crate) mod worker;

pub use engine::ShardedEngine;
