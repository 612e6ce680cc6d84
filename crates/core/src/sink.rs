//! Event sinks: pluggable egress backends for stamped events.
//!
//! The ingest side of the runtime pipeline produces a faithful interleaving
//! and the [`Timestamper`](crate::Timestamper) stamps it; an [`EventSink`]
//! decides what happens to the stamped stream.  The four backends cover the
//! deployment spectrum:
//!
//! * [`MemoryRecorder`] — keeps the interleaving as a
//!   [`Computation`] plus the per-event timestamps (the classic
//!   post-run-analysis mode, and the backend `LiveSession::finish` uses to
//!   build its `LiveRun`).
//! * [`CodecSink`] — feeds a [`StreamEncoder`] so the trace persists in the
//!   `mvc_trace::codec` binary format *without materialising a
//!   [`Computation`]* — memory is the encoded bytes, not the chains.
//! * [`StatsSink`] — O(1)-ish counters only: event totals per kind, id
//!   bounds, clock-width high-water.  For long-running services that want
//!   monitoring, not storage.
//! * [`TeeSink`] — fans every batch out to any number of boxed child sinks,
//!   so recording, persistence and monitoring compose.
//!
//! Sinks accept events in **batches** (one call per drained merge batch, not
//! one per event) through [`EventSink::accept_columns`], the one body every
//! sink implements: the operations arrive as a slice and their timestamps
//! as a vector the sink consumes, so a sink that stores the batch moves
//! timestamps instead of cloning them.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::fmt;

use mvc_clock::VectorTimestamp;
use mvc_trace::codec::StreamEncoder;
use mvc_trace::{Computation, ObjectId, OpKind, ThreadId};

/// One event as it leaves the timestamping stage: the operation plus its
/// assigned timestamp (at the clock width current when it was stamped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedEvent {
    /// The thread that performed the operation.
    pub thread: ThreadId,
    /// The object operated on.
    pub object: ObjectId,
    /// The kind of operation.
    pub kind: OpKind,
    /// The mixed-clock timestamp assigned to the operation.
    pub timestamp: VectorTimestamp,
}

/// Errors reported by sink operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkError {
    /// An underlying writer failed (message carries the source error).
    Io(String),
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkError::Io(msg) => write!(f, "sink I/O failure: {msg}"),
        }
    }
}

impl std::error::Error for SinkError {}

/// A destination for stamped events.
///
/// The trait is dyn-compatible so sinks can be selected at runtime and
/// composed through [`TeeSink`].  A sink implements one batch body,
/// [`accept_columns`](Self::accept_columns) — the shape the pipeline driver
/// delivers; [`accept_batch`](Self::accept_batch) and
/// [`accept_owned`](Self::accept_owned) are adapters onto it for callers
/// holding [`StampedEvent`]s.
///
/// Contract: a batch is either accepted completely or the sink returns an
/// error having (observably) stored nothing of it, and a caller that
/// receives an error from `accept_columns` must re-offer the **identical
/// columns** before sending any new events — the pipeline driver
/// guarantees this by holding failed batches back and retrying them first.
/// The retry clause is what lets a combinator like [`TeeSink`] resume a
/// partially fanned-out batch without duplicating events into children
/// that already stored it.
///
/// Sinks are `Send` so a type-erased `Box<dyn EventSink>` can cross thread
/// boundaries — the networked service (`mvc-net`) drains one shared sink
/// from many connection-handler threads behind a mutex.
pub trait EventSink: Send {
    /// A short, stable name for reports and CLI selection.
    fn name(&self) -> &str;

    /// Accepts one batch of stamped events, in stamping order, by cloning
    /// their timestamps into columns for
    /// [`accept_columns`](Self::accept_columns).
    ///
    /// # Errors
    ///
    /// Same contract as [`accept_columns`](Self::accept_columns).
    fn accept_batch(&mut self, batch: &[StampedEvent]) -> Result<(), SinkError> {
        let events: Vec<_> = batch.iter().map(|e| (e.thread, e.object, e.kind)).collect();
        let mut stamps = batch.iter().map(|e| e.timestamp.clone()).collect();
        self.accept_columns(&events, &mut stamps)
    }

    /// Accepts a batch by value, draining `batch` on success: its
    /// timestamps are moved into columns for
    /// [`accept_columns`](Self::accept_columns), and moved back on error,
    /// so a refused batch is handed back identical for retry.
    ///
    /// # Errors
    ///
    /// Same contract as [`accept_columns`](Self::accept_columns).
    fn accept_owned(&mut self, batch: &mut Vec<StampedEvent>) -> Result<(), SinkError> {
        let events: Vec<_> = batch.iter().map(|e| (e.thread, e.object, e.kind)).collect();
        let mut stamps = batch
            .iter_mut()
            .map(|e| std::mem::take(&mut e.timestamp))
            .collect();
        match self.accept_columns(&events, &mut stamps) {
            Ok(()) => {
                batch.clear();
                Ok(())
            }
            Err(e) => {
                for (event, stamp) in batch.iter_mut().zip(stamps) {
                    event.timestamp = stamp;
                }
                Err(e)
            }
        }
    }

    /// Accepts a batch in column layout — the pipeline driver's native
    /// shape: one `(thread, object, kind)` tuple per event plus the
    /// parallel vector of timestamps, in stamping order.  On success the
    /// stamps are consumed (`stamps` is left empty).
    ///
    /// # Errors
    ///
    /// Returns a [`SinkError`] if the batch could not be stored; nothing is
    /// consumed, the batch is considered *not* accepted, and the caller
    /// must re-offer the identical columns before any new events (see the
    /// trait docs).
    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError>;

    /// Pushes buffered state towards the sink's destination.
    ///
    /// # Errors
    ///
    /// Returns a [`SinkError`] if the underlying writer fails.
    fn flush(&mut self) -> Result<(), SinkError> {
        Ok(())
    }

    /// Events accepted so far.
    fn events_accepted(&self) -> usize;

    /// The sink as [`Any`](std::any::Any), so callers holding a
    /// type-erased sink — a [`TeeSink`] child, a CLI-selected
    /// `Box<dyn EventSink>` — can downcast back to the concrete backend and
    /// recover its product.
    fn as_any(&self) -> &dyn std::any::Any;
}

impl<S: EventSink + ?Sized> EventSink for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn accept_batch(&mut self, batch: &[StampedEvent]) -> Result<(), SinkError> {
        (**self).accept_batch(batch)
    }

    fn accept_owned(&mut self, batch: &mut Vec<StampedEvent>) -> Result<(), SinkError> {
        (**self).accept_owned(batch)
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        (**self).accept_columns(events, stamps)
    }

    fn flush(&mut self) -> Result<(), SinkError> {
        (**self).flush()
    }

    fn events_accepted(&self) -> usize {
        (**self).events_accepted()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        (**self).as_any()
    }
}

/// The in-memory backend: records the interleaving as a [`Computation`] and
/// keeps every timestamp (at its raw stamping width).
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    computation: Computation,
    timestamps: Vec<VectorTimestamp>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The interleaving recorded so far.
    pub fn computation(&self) -> &Computation {
        &self.computation
    }

    /// The timestamps recorded so far, in stamping order, each at the raw
    /// width it was assigned at.
    pub fn timestamps(&self) -> &[VectorTimestamp] {
        &self.timestamps
    }

    /// Consumes the recorder, returning the interleaving and the raw-width
    /// timestamps.
    pub fn into_parts(self) -> (Computation, Vec<VectorTimestamp>) {
        (self.computation, self.timestamps)
    }
}

impl EventSink for MemoryRecorder {
    fn name(&self) -> &str {
        "mem"
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        debug_assert_eq!(events.len(), stamps.len());
        self.computation.record_ops(events.iter().copied());
        self.timestamps.append(stamps);
        Ok(())
    }

    fn events_accepted(&self) -> usize {
        self.timestamps.len()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The persistence backend: streams the interleaving into the
/// `mvc_trace::codec` binary format via a [`StreamEncoder`].
///
/// Timestamps are *not* persisted — the format stores the computation, from
/// which any timestamper can reproduce them deterministically (that is the
/// point of the conformance oracles).  Memory is the encoded bytes.
#[derive(Debug, Clone, Default)]
pub struct CodecSink {
    encoder: StreamEncoder,
}

impl CodecSink {
    /// Creates an empty codec sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seals the encoding (magic + count + records); the result decodes with
    /// `mvc_trace::codec::decode` and is byte-identical to encoding the
    /// recorded interleaving in one batch.
    pub fn into_bytes(self) -> bytes::Bytes {
        self.encoder.finish()
    }
}

impl EventSink for CodecSink {
    fn name(&self) -> &str {
        "codec"
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        debug_assert_eq!(events.len(), stamps.len());
        for &(thread, object, kind) in events {
            self.encoder.push(thread, object, kind);
        }
        stamps.clear();
        Ok(())
    }

    fn events_accepted(&self) -> usize {
        self.encoder.event_count() as usize
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Aggregate statistics kept by a [`StatsSink`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Total events accepted.
    pub events: usize,
    /// Events per operation kind, indexed `[read, write, acquire, release,
    /// op]`.
    pub per_kind: [usize; 5],
    /// `1 + max thread index` seen (0 if none).
    pub thread_index_bound: usize,
    /// `1 + max object index` seen (0 if none).
    pub object_index_bound: usize,
    /// Widest timestamp seen — the clock-size high-water mark.
    pub max_clock_width: usize,
}

/// The monitoring backend: constant-memory counters over the stamped
/// stream, for services that want visibility without storage.
///
/// The counts live in [`mvc_obs`] counter cells — *detached* ones, so each
/// sink's figures stay exact per instance and keep counting whether or not
/// process-wide metrics are enabled. Call
/// [`bind_metrics`](StatsSink::bind_metrics) to publish the cells into a
/// registry, after which its snapshots report this sink's figures under
/// the `sink.stats.*` names instead of a parallel hand-rolled count.
///
/// Cloning shares the counter cells (clones are views of one sink's
/// counts, matching `mvc_obs` handle semantics); the index bounds and the
/// clock-width high-water mark are plain per-instance fields.
#[derive(Debug, Clone)]
pub struct StatsSink {
    events: mvc_obs::Counter,
    /// Indexed like [`SinkStats::per_kind`]: `[read, write, acquire,
    /// release, op]`.
    per_kind: [mvc_obs::Counter; 5],
    thread_index_bound: usize,
    object_index_bound: usize,
    max_clock_width: usize,
}

/// Registry names for [`StatsSink::bind_metrics`], index-aligned with
/// [`SinkStats::per_kind`] after the leading `events` entry.
const STATS_METRIC_NAMES: [&str; 6] = [
    "sink.stats.events",
    "sink.stats.reads",
    "sink.stats.writes",
    "sink.stats.acquires",
    "sink.stats.releases",
    "sink.stats.ops",
];

impl Default for StatsSink {
    fn default() -> Self {
        Self {
            events: mvc_obs::Counter::detached(),
            per_kind: std::array::from_fn(|_| mvc_obs::Counter::detached()),
            thread_index_bound: 0,
            object_index_bound: 0,
            max_clock_width: 0,
        }
    }
}

fn kind_slot(kind: OpKind) -> usize {
    match kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
        OpKind::Acquire => 2,
        OpKind::Release => 3,
        OpKind::Op => 4,
    }
}

impl StatsSink {
    /// Creates a sink with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters accumulated so far, read out of the shared cells.
    pub fn stats(&self) -> SinkStats {
        SinkStats {
            events: self.events.value() as usize,
            per_kind: std::array::from_fn(|i| self.per_kind[i].value() as usize),
            thread_index_bound: self.thread_index_bound,
            object_index_bound: self.object_index_bound,
            max_clock_width: self.max_clock_width,
        }
    }

    /// Publishes this sink's counter cells into `registry` under the
    /// `sink.stats.*` names (`events`, `reads`, `writes`, `acquires`,
    /// `releases`, `ops`), so registry snapshots report the sink's figures
    /// directly. Re-binding (another sink, same registry) replaces the
    /// previous cells.
    pub fn bind_metrics(&self, registry: &mvc_obs::Registry) {
        registry.adopt_counter(STATS_METRIC_NAMES[0], &self.events);
        for (name, counter) in STATS_METRIC_NAMES[1..].iter().zip(self.per_kind.iter()) {
            registry.adopt_counter(name, counter);
        }
    }
}

impl EventSink for StatsSink {
    fn name(&self) -> &str {
        "stats"
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        debug_assert_eq!(events.len(), stamps.len());
        // Tally into locals, hit the shared cells once per batch.
        let mut kinds = [0u64; 5];
        for &(thread, object, kind) in events {
            kinds[kind_slot(kind)] += 1;
            self.thread_index_bound = self.thread_index_bound.max(thread.index() + 1);
            self.object_index_bound = self.object_index_bound.max(object.index() + 1);
        }
        for stamp in stamps.iter() {
            self.max_clock_width = self.max_clock_width.max(stamp.len());
        }
        self.events.add(events.len() as u64);
        for (slot, n) in kinds.into_iter().enumerate() {
            if n > 0 {
                self.per_kind[slot].add(n);
            }
        }
        stamps.clear();
        Ok(())
    }

    fn events_accepted(&self) -> usize {
        self.events.value() as usize
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The fan-out combinator: forwards every batch to each child sink in
/// order.  Every child but the last gets a clone of the stamps; the last
/// consumes the originals.
///
/// A child failure aborts the batch with that child's error.  Children
/// earlier in the list have already accepted it, so the tee remembers how
/// far it got: when the caller re-offers the columns (the retry contract —
/// see [`EventSink::accept_columns`]), delivery resumes at the child that
/// failed instead of duplicating events into the children that already
/// stored them.
pub struct TeeSink {
    children: Vec<Box<dyn EventSink>>,
    events: usize,
    /// Children that accepted the in-flight batch before a later child
    /// refused it; skipped when the identical batch is re-offered.
    accepted_children: usize,
}

impl TeeSink {
    /// Creates a tee over the given children.
    pub fn new(children: Vec<Box<dyn EventSink>>) -> Self {
        Self {
            children,
            events: 0,
            accepted_children: 0,
        }
    }

    /// The child sinks, in fan-out order.
    #[cfg(test)]
    fn children(&self) -> &[Box<dyn EventSink>] {
        &self.children
    }

    /// Consumes the tee, returning the children (to recover per-child
    /// results after a run).
    pub fn into_children(self) -> Vec<Box<dyn EventSink>> {
        self.children
    }
}

impl fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeeSink")
            .field("children", &self.children.len())
            .field("events", &self.events)
            .finish()
    }
}

impl EventSink for TeeSink {
    fn name(&self) -> &str {
        "tee"
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        let last = self.children.len().saturating_sub(1);
        while self.accepted_children < last {
            self.children[self.accepted_children].accept_columns(events, &mut stamps.clone())?;
            self.accepted_children += 1;
        }
        match self.children.last_mut() {
            Some(child) => child.accept_columns(events, stamps)?,
            None => stamps.clear(),
        }
        self.accepted_children = 0;
        self.events += events.len();
        Ok(())
    }

    fn flush(&mut self) -> Result<(), SinkError> {
        for child in &mut self.children {
            child.flush()?;
        }
        Ok(())
    }

    fn events_accepted(&self) -> usize {
        self.events
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_trace::codec;

    fn stamped(thread: usize, object: usize, kind: OpKind, stamp: &[u64]) -> StampedEvent {
        StampedEvent {
            thread: ThreadId(thread),
            object: ObjectId(object),
            kind,
            timestamp: VectorTimestamp::from_components(stamp.to_vec()),
        }
    }

    fn sample_batch() -> Vec<StampedEvent> {
        vec![
            stamped(0, 0, OpKind::Write, &[1]),
            stamped(1, 0, OpKind::Read, &[1, 1]),
            stamped(0, 2, OpKind::Acquire, &[2, 1]),
        ]
    }

    #[test]
    fn memory_recorder_keeps_interleaving_and_stamps() {
        let mut sink = MemoryRecorder::new();
        let mut batch = sample_batch();
        let expected: Vec<_> = batch.iter().map(|e| e.timestamp.clone()).collect();
        sink.accept_owned(&mut batch).unwrap();
        assert!(batch.is_empty(), "owned batch is drained");
        assert_eq!(sink.events_accepted(), 3);
        assert_eq!(sink.computation().len(), 3);
        assert_eq!(sink.timestamps(), &expected[..]);
        let (c, ts) = sink.into_parts();
        assert_eq!(c.object_chain(ObjectId(0)).len(), 2);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn memory_recorder_borrowed_and_owned_paths_agree() {
        let batch = sample_batch();
        let mut borrowed = MemoryRecorder::new();
        borrowed.accept_batch(&batch).unwrap();
        let mut owned = MemoryRecorder::new();
        owned.accept_owned(&mut batch.clone()).unwrap();
        assert_eq!(borrowed.computation(), owned.computation());
        assert_eq!(borrowed.timestamps(), owned.timestamps());
    }

    #[test]
    fn codec_sink_output_decodes_to_the_interleaving() {
        let mut sink = CodecSink::new();
        let batch = sample_batch();
        sink.accept_batch(&batch).unwrap();
        sink.accept_batch(&batch).unwrap();
        assert_eq!(sink.events_accepted(), 6);
        let decoded = codec::decode(&sink.into_bytes()).unwrap();
        assert_eq!(decoded.len(), 6);
        let mut reference = Computation::new();
        for e in batch.iter().chain(batch.iter()) {
            reference.record_op(e.thread, e.object, e.kind);
        }
        assert_eq!(decoded, reference);
    }

    #[test]
    fn stats_sink_counts_without_storing() {
        let mut sink = StatsSink::new();
        sink.accept_batch(&sample_batch()).unwrap();
        let stats = sink.stats();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.per_kind, [1, 1, 1, 0, 0]);
        assert_eq!(stats.thread_index_bound, 2);
        assert_eq!(stats.object_index_bound, 3);
        assert_eq!(stats.max_clock_width, 2);
        assert_eq!(sink.events_accepted(), 3);
        assert_eq!(sink.name(), "stats");
    }

    #[test]
    fn tee_fans_out_to_every_child() {
        let mut tee = TeeSink::new(vec![
            Box::new(MemoryRecorder::new()),
            Box::new(StatsSink::new()),
            Box::new(CodecSink::new()),
        ]);
        let mut batch = sample_batch();
        tee.accept_owned(&mut batch).unwrap();
        assert!(batch.is_empty());
        tee.flush().unwrap();
        assert_eq!(tee.events_accepted(), 3);
        assert_eq!(tee.name(), "tee");
        for child in tee.children() {
            assert_eq!(child.events_accepted(), 3, "{}", child.name());
        }
        assert!(format!("{tee:?}").contains("children"));
    }

    /// A sink that refuses its first `failures` batches, then accepts.
    struct FlakySink {
        failures: usize,
        accepted: usize,
    }

    impl EventSink for FlakySink {
        fn name(&self) -> &str {
            "flaky"
        }

        fn accept_columns(
            &mut self,
            events: &[(ThreadId, ObjectId, OpKind)],
            stamps: &mut Vec<VectorTimestamp>,
        ) -> Result<(), SinkError> {
            if self.failures > 0 {
                self.failures -= 1;
                return Err(SinkError::Io("transient".into()));
            }
            self.accepted += events.len();
            stamps.clear();
            Ok(())
        }

        fn events_accepted(&self) -> usize {
            self.accepted
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn tee_retry_does_not_duplicate_into_children_that_already_accepted() {
        // Child 0 (mem) accepts, child 1 fails twice, child 2 (stats) is
        // never reached until the retry succeeds.  Re-offering the same
        // batch must deliver it exactly once to every child.
        let mut tee = TeeSink::new(vec![
            Box::new(MemoryRecorder::new()),
            Box::new(FlakySink {
                failures: 2,
                accepted: 0,
            }),
            Box::new(StatsSink::new()),
        ]);
        let mut batch = sample_batch();
        assert!(tee.accept_owned(&mut batch).is_err());
        assert_eq!(batch, sample_batch(), "failed batch is handed back whole");
        assert!(tee.accept_owned(&mut batch).is_err(), "still flaky");
        tee.accept_owned(&mut batch).unwrap();
        assert!(batch.is_empty());
        assert_eq!(tee.events_accepted(), 3);
        for child in tee.children() {
            assert_eq!(
                child.events_accepted(),
                3,
                "{}: exactly once, no duplication",
                child.name()
            );
        }

        // And the next (new) batch goes to every child again.
        let mut next = sample_batch();
        tee.accept_owned(&mut next).unwrap();
        for child in tee.children() {
            assert_eq!(child.events_accepted(), 6, "{}", child.name());
        }
    }

    #[test]
    fn refused_adapters_count_nothing_and_hand_the_batch_back() {
        let mut sink = FlakySink {
            failures: 2,
            accepted: 0,
        };
        let before = sample_batch();
        assert!(sink.accept_batch(&before).is_err());
        assert_eq!(sink.events_accepted(), 0, "a refused batch counts nothing");
        let mut batch = before.clone();
        assert!(sink.accept_owned(&mut batch).is_err());
        assert_eq!(batch, before, "every stamp is moved back on refusal");
        sink.accept_owned(&mut batch).unwrap();
        assert!(batch.is_empty());
        assert_eq!(sink.events_accepted(), 3);
    }

    #[test]
    fn boxed_sinks_forward_through_the_blanket_impl() {
        let mut sink: Box<dyn EventSink> = Box::new(MemoryRecorder::new());
        let mut batch = sample_batch();
        sink.accept_owned(&mut batch).unwrap();
        sink.flush().unwrap();
        assert_eq!(sink.events_accepted(), 3);
        assert_eq!(sink.name(), "mem");
    }

    #[test]
    fn sink_error_displays_the_source() {
        let err = SinkError::Io("disk full".into());
        assert!(err.to_string().contains("disk full"));
    }
}
