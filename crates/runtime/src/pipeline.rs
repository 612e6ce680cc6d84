//! The pipeline driver: ingest → [`Timestamper::observe_batch`] →
//! [`EventSink`].
//!
//! `PipelineState` owns everything between the producers' buffers and the
//! sink: the order-preserving merge (it visits only the buffers that
//! published since the last pump; an idle pump is two uncontended locks), the
//! merged-but-unstamped backlog, and the stamped-but-unsunk backlog.  Both
//! [`LiveSession::pump`](crate::LiveSession::pump) and
//! [`TraceSession::into_computation`](crate::TraceSession::into_computation)
//! are thin wrappers over it, so there is exactly one drain loop in the
//! runtime.
//!
//! **Failure containment.**  Each stage's backlog holds exactly what its
//! downstream stage refused, so no operation that really executed is ever
//! lost: a [`TimestampError`] leaves the failing event (and its suffix) in
//! the unstamped backlog; a [`SinkError`] leaves the whole stamped batch in
//! the stamped backlog.  The next pump retries the backlogs first — the
//! caller recovers (adds a component, frees disk space) and simply pumps
//! again.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;

use mvc_clock::VectorTimestamp;
use mvc_core::sink::{EventSink, SinkError};
use mvc_core::{TimestampError, Timestamper};
use mvc_trace::{ObjectId, ThreadId};

use crate::ingest::OrderedMerge;
use crate::session::{RawEvent, SessionInner};

/// Errors reported by a pipeline pump: either the stamping stage or the
/// egress stage refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The timestamper could not stamp an event (see [`TimestampError`]);
    /// the failing event and everything merged behind it are held back.
    Timestamp(TimestampError),
    /// The sink refused a stamped batch (see [`SinkError`]); the batch is
    /// held back and re-offered on the next pump.
    Sink(SinkError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Timestamp(e) => write!(f, "timestamping stage failed: {e}"),
            PipelineError::Sink(e) => write!(f, "sink stage failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Timestamp(e) => Some(e),
            PipelineError::Sink(e) => Some(e),
        }
    }
}

impl From<TimestampError> for PipelineError {
    fn from(e: TimestampError) -> Self {
        PipelineError::Timestamp(e)
    }
}

impl From<SinkError> for PipelineError {
    fn from(e: SinkError) -> Self {
        PipelineError::Sink(e)
    }
}

impl PipelineError {
    /// The stamping-stage error, if that is what failed — convenience for
    /// recovery code that only handles coverage errors.
    pub fn as_timestamp_error(&self) -> Option<&TimestampError> {
        match self {
            PipelineError::Timestamp(e) => Some(e),
            PipelineError::Sink(_) => None,
        }
    }
}

/// Handles into the process-global metrics registry, resolved once per
/// pipeline. Names are catalogued in `docs/OBSERVABILITY.md`; everything
/// records at stamped-window granularity, so a disabled registry costs a
/// few `Relaxed` loads per window and an enabled one a few atomics, two
/// clock reads and one pass over the window's stamps.
#[derive(Debug)]
struct PipelineMetrics {
    /// `pipeline.batch_events` (histogram, events): size of each stamped
    /// window handed to the sink.
    batch_events: mvc_obs::Histogram,
    /// `pipeline.stamp_ns` (histogram, ns): latency of one
    /// `observe_batch` call.
    stamp_ns: mvc_obs::Histogram,
    /// `pipeline.sink_ns` (histogram, ns): latency of one
    /// `accept_columns` call.
    sink_ns: mvc_obs::Histogram,
    /// `pipeline.stamp_words` (histogram, `u64` words): mean
    /// [`VectorTimestamp::stored_words`] over each stamped window — what a
    /// stamp really occupies, as opposed to its width.
    stamp_words: mvc_obs::Histogram,
    /// `pipeline.events_accepted` (counter, events): delivered to and
    /// accepted by the sink.
    events_accepted: mvc_obs::Counter,
    /// `pipeline.events_refused` (counter, events): offered to the sink
    /// and refused (held back for the next pump's retry).
    events_refused: mvc_obs::Counter,
    /// `pipeline.backlog_retries` (counter, pumps): pumps that began by
    /// re-offering a previously refused batch.
    backlog_retries: mvc_obs::Counter,
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        let registry = mvc_obs::global();
        Self {
            batch_events: registry.histogram("pipeline.batch_events"),
            stamp_ns: registry.histogram("pipeline.stamp_ns"),
            sink_ns: registry.histogram("pipeline.sink_ns"),
            stamp_words: registry.histogram("pipeline.stamp_words"),
            events_accepted: registry.counter("pipeline.events_accepted"),
            events_refused: registry.counter("pipeline.events_refused"),
            backlog_retries: registry.counter("pipeline.backlog_retries"),
        }
    }
}

/// Drain-side state of one session pipeline.
#[derive(Debug, Default)]
pub(crate) struct PipelineState {
    /// Process-global metric handles (resolved once, recorded per window).
    metrics: PipelineMetrics,
    merge: OrderedMerge,
    /// Interleaving not yet stamped, merged or recorded already serialised
    /// (the failing event and its suffix after a [`TimestampError`]).
    /// `cursor` marks the consumed prefix within a pump; it is compacted
    /// away before every return so the backlog between pumps is exactly
    /// the unstamped events.
    pending: Vec<RawEvent>,
    cursor: usize,
    /// Stamped batch a sink refused (events + parallel stamps), re-offered
    /// before new work.
    held_events: Vec<RawEvent>,
    held_stamps: Vec<VectorTimestamp>,
    /// Scratch for the `(thread, object)` view observe_batch takes.
    ops: Vec<(ThreadId, ObjectId)>,
    /// Scratch for the timestamps observe_batch appends.
    stamps: Vec<VectorTimestamp>,
}

/// Events merged, stamped and delivered per round.  Big enough to feed any
/// bulk fast path at full speed, small enough that (a) the stamping and
/// sink scratch buffers stay O(window) even when a rarely pumped session
/// has accumulated a huge backlog (the backlog itself necessarily stays
/// O(events) — windowing only stops it being walked twice), and (b) each
/// batch is still cache-warm from the merge when it is stamped and sunk.
const STAMP_WINDOW: usize = 4096;

impl PipelineState {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends events the caller serialised itself to the unstamped backlog,
    /// behind whatever a failed pump left there.
    pub(crate) fn record(&mut self, events: impl IntoIterator<Item = RawEvent>) {
        self.pending.extend(events);
    }

    /// Pulls every currently available event through merge → stamp → sink,
    /// returning how many events the sink accepted.
    pub(crate) fn pump<T: Timestamper, S: EventSink>(
        &mut self,
        inner: &SessionInner,
        timestamper: &mut T,
        sink: &mut S,
    ) -> Result<usize, PipelineError> {
        let result = self.pump_inner(inner, timestamper, sink);
        // Compact the consumed prefix on every exit (errors return early),
        // so `pending` holds exactly the unstamped suffix for the retry.
        if self.cursor > 0 {
            self.pending.drain(..self.cursor);
            self.cursor = 0;
        }
        result
    }

    fn pump_inner<T: Timestamper, S: EventSink>(
        &mut self,
        inner: &SessionInner,
        timestamper: &mut T,
        sink: &mut S,
    ) -> Result<usize, PipelineError> {
        let mut delivered = 0;
        // Re-offer a batch the sink previously refused before stamping
        // anything new, so sink-side ordering is preserved.
        if !self.held_events.is_empty() {
            self.metrics.backlog_retries.inc();
            let span = self.metrics.sink_ns.span();
            let result = sink.accept_columns(&self.held_events, &mut self.held_stamps);
            span.stop();
            if let Err(e) = result {
                self.metrics
                    .events_refused
                    .add(self.held_events.len() as u64);
                return Err(e.into());
            }
            self.metrics
                .events_accepted
                .add(self.held_events.len() as u64);
            delivered += self.held_events.len();
            self.held_events.clear();
        }
        loop {
            if self.cursor == self.pending.len() {
                self.pending.clear();
                self.cursor = 0;
                if self
                    .merge
                    .drain(&inner.ingest, &mut self.pending, STAMP_WINDOW)
                    == 0
                {
                    return Ok(delivered);
                }
            }
            // Stamp in bounded windows so scratch memory stays O(window)
            // regardless of how large a backlog this pump is clearing.
            let window_end = (self.cursor + STAMP_WINDOW).min(self.pending.len());
            self.ops.clear();
            self.ops.extend(
                self.pending[self.cursor..window_end]
                    .iter()
                    .map(|&(thread, object, _)| (thread, object)),
            );
            self.stamps.clear();
            let stamp_span = self.metrics.stamp_ns.span();
            let outcome = timestamper.observe_batch(&self.ops, &mut self.stamps);
            stamp_span.stop();
            // Per the observe_batch contract exactly the stampable prefix
            // was appended; hand it on in column layout (the sink consumes
            // the stamps; hot backends never see a per-event struct).
            let done = self.stamps.len();
            if done > 0 {
                self.metrics.batch_events.record(done as u64);
                if mvc_obs::global().enabled() {
                    let words: usize = self.stamps.iter().map(|s| s.stored_words()).sum();
                    self.metrics.stamp_words.record((words / done) as u64);
                }
                let events = &self.pending[self.cursor..self.cursor + done];
                let sink_span = self.metrics.sink_ns.span();
                let sink_result = sink.accept_columns(events, &mut self.stamps);
                sink_span.stop();
                if let Err(e) = sink_result {
                    // Hold the stamped-but-refused batch (its stamps were
                    // restored per the accept_columns contract) so the next
                    // pump re-offers it first; the timestamper must not see
                    // these events again.
                    self.metrics.events_refused.add(done as u64);
                    self.held_events.extend_from_slice(events);
                    std::mem::swap(&mut self.held_stamps, &mut self.stamps);
                    self.cursor += done;
                    return Err(e.into());
                }
                self.metrics.events_accepted.add(done as u64);
                delivered += done;
                self.cursor += done;
            }
            outcome?;
        }
    }
}
