//! The stamp loop: a backlog of events → [`Timestamper::observe_batch`] →
//! [`EventSink::accept_columns`], in bounded windows.
//!
//! [`StampLoop`] is the one drain loop every caller shares; it borrows the
//! timestamper and the sink per pump.  `mvc_runtime`'s `LiveSession`
//! refills it from its ticket merge, `mvc_net`'s `NetServer`
//! [`record`](StampLoop::record)s each `Events` frame in arrival order.
//!
//! **Failure containment.**  No operation that really executed is lost: a
//! [`TimestampError`] leaves the failing event and its suffix unstamped, a
//! [`SinkError`] leaves the whole stamped window held, and the next pump
//! re-offers the held window first — the caller recovers (adds a component,
//! frees disk space) and simply pumps again.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::fmt;

use mvc_clock::VectorTimestamp;
use mvc_trace::{ObjectId, OpKind, ThreadId};

use crate::sink::{EventSink, SinkError};
use crate::timestamper::{TimestampError, Timestamper};

/// One operation in the column layout
/// [`EventSink::accept_columns`] consumes.
type Event = (ThreadId, ObjectId, OpKind);

/// Errors reported by a pump: either the stamping stage or the egress stage
/// refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The timestamper could not stamp an event (see [`TimestampError`]);
    /// the failing event and everything behind it are held back.
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
/// loop and recorded once per stamped window (names and meanings in
/// `docs/OBSERVABILITY.md`).
#[derive(Debug)]
struct PipelineMetrics {
    batch_events: mvc_obs::Histogram,
    stamp_ns: mvc_obs::Histogram,
    sink_ns: mvc_obs::Histogram,
    /// Mean [`VectorTimestamp::stored_words`] of a window's stamps.
    stamp_words: mvc_obs::Histogram,
    events_accepted: mvc_obs::Counter,
    events_refused: mvc_obs::Counter,
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

/// Events stamped and delivered per round, and the most a refill should
/// add at once: enough to feed any bulk fast path at full speed, few enough
/// that the scratch stays O(window) however large the backlog, and that each
/// window is still cache-warm from its refill when it is stamped and sunk.
pub const STAMP_WINDOW: usize = 4096;

/// The drain side of a pipeline: events not yet stamped, a stamped window
/// the sink refused, and the loop that moves them through a
/// [`Timestamper`] into an [`EventSink`].
#[derive(Debug, Default)]
pub struct StampLoop {
    /// Process-global metric handles (resolved once, recorded per window).
    metrics: PipelineMetrics,
    /// Events not delivered yet: first a window the sink refused (`held`
    /// events, whose stamps wait in `stamps`), then the unstamped ones
    /// (after a [`TimestampError`], the failing event first).  `cursor`
    /// marks the delivered prefix within a pump; it is compacted away
    /// before every return.
    pending: Vec<Event>,
    cursor: usize,
    held: usize,
    /// Scratch for the `(thread, object)` view observe_batch takes.
    ops: Vec<(ThreadId, ObjectId)>,
    /// The timestamps observe_batch appends: the window's stamp column.
    stamps: Vec<VectorTimestamp>,
}

impl StampLoop {
    /// An empty loop.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends events to the unstamped backlog, behind whatever a failed
    /// pump left there; the next [`pump`](Self::pump) stamps them in this
    /// order.
    ///
    /// The order must be a linear extension of both chain families: each
    /// thread's events in program order, each object's in its
    /// serialization order.  A mixed-clock stamp depends only on the
    /// event's causal past, so every such order gives the same stamps.
    pub fn record(&mut self, events: impl IntoIterator<Item = Event>) {
        self.pending.extend(events);
    }

    /// Whether the loop holds no event: nothing unstamped, no refused
    /// window.  True after every pump that succeeded.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Re-offers a refused window, then stamps the backlog window by window
    /// into `sink`; whenever the backlog runs dry it calls `refill`, which
    /// appends at most [`STAMP_WINDOW`] events to the vector it is given
    /// and returns how many it appended — `0` ends the pump.  Returns how
    /// many events the sink accepted.
    ///
    /// # Errors
    ///
    /// The first failure of either stage, with everything it refused held
    /// for the next pump (see the module docs).
    pub fn pump<T: Timestamper, S: EventSink>(
        &mut self,
        timestamper: &mut T,
        sink: &mut S,
        refill: impl FnMut(&mut Vec<Event>) -> usize,
    ) -> Result<usize, PipelineError> {
        let result = self.pump_inner(timestamper, sink, refill);
        // Compact the delivered prefix on every exit (errors return early),
        // so `pending` holds exactly what the retry must deliver.
        if self.cursor > 0 {
            self.pending.drain(..self.cursor);
            self.cursor = 0;
        }
        result
    }

    fn pump_inner<T: Timestamper, S: EventSink>(
        &mut self,
        timestamper: &mut T,
        sink: &mut S,
        mut refill: impl FnMut(&mut Vec<Event>) -> usize,
    ) -> Result<usize, PipelineError> {
        let mut delivered = 0;
        loop {
            // Re-offer a window the sink refused before stamping anything
            // new: the timestamper must not see its events again.
            let outcome = if self.held > 0 {
                self.metrics.backlog_retries.inc();
                Ok(())
            } else {
                if self.cursor == self.pending.len() {
                    self.pending.clear();
                    self.cursor = 0;
                    if refill(&mut self.pending) == 0 {
                        return Ok(delivered);
                    }
                }
                // Stamp in bounded windows so scratch memory stays
                // O(window) regardless of how large a backlog this pump is
                // clearing.
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
                // Per the observe_batch contract exactly the stampable
                // prefix was appended.
                self.held = self.stamps.len();
                if self.held > 0 {
                    self.metrics.batch_events.record(self.held as u64);
                    if mvc_obs::global().enabled() {
                        let words: usize = self.stamps.iter().map(|s| s.stored_words()).sum();
                        self.metrics.stamp_words.record((words / self.held) as u64);
                    }
                }
                outcome
            };
            // Hand the window on in column layout (the sink consumes the
            // stamps; hot backends never see a per-event struct).  A refusal
            // restores the stamps, per the accept_columns contract, and the
            // window stays held for the next pump.
            let done = self.held;
            if done > 0 {
                let events = &self.pending[self.cursor..self.cursor + done];
                let sink_span = self.metrics.sink_ns.span();
                let sink_result = sink.accept_columns(events, &mut self.stamps);
                sink_span.stop();
                if let Err(e) = sink_result {
                    self.metrics.events_refused.add(done as u64);
                    return Err(e.into());
                }
                self.metrics.events_accepted.add(done as u64);
                delivered += done;
                self.cursor += done;
                self.held = 0;
            }
            outcome?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_clock::Component;

    use crate::sink::MemoryRecorder;
    use crate::{replay, BatchReplay, TimestampingEngine};

    #[test]
    fn serialized_events_are_stamped_in_their_order_behind_a_held_back_suffix() {
        let mut stamps = StampLoop::new();
        let mut engine = TimestampingEngine::new();
        let mut sink = MemoryRecorder::new();
        let (a, b) = (ThreadId(0), ThreadId(1));
        let (x, y) = (ObjectId(0), ObjectId(1));
        engine.add_component(Component::Object(x));
        stamps.record([(b, x, OpKind::Write), (a, y, OpKind::Read)]);
        let err = stamps.pump(&mut engine, &mut sink, |_| 0).unwrap_err();
        assert!(err.as_timestamp_error().is_some(), "y is not covered yet");
        assert!(!stamps.is_idle(), "the uncovered event is held back");
        stamps.record([(a, x, OpKind::Write)]);
        engine.add_component(Component::Object(y));
        assert_eq!(
            stamps.pump(&mut engine, &mut sink, |_| 0).unwrap(),
            2,
            "the held-back event, then the new one"
        );
        assert!(stamps.is_idle());
        let order: Vec<_> = sink
            .computation()
            .events()
            .map(|e| (e.thread, e.object, e.kind))
            .collect();
        assert_eq!(
            order,
            [
                (b, x, OpKind::Write),
                (a, y, OpKind::Read),
                (a, x, OpKind::Write)
            ]
        );
        let mut batch = BatchReplay::new(engine.components().clone());
        let expected = replay(&mut batch, sink.computation()).unwrap().timestamps;
        let width = engine.components().len();
        let got: Vec<_> = sink
            .timestamps()
            .iter()
            .map(|t| t.clone().into_padded_to(width))
            .collect();
        assert_eq!(got, expected);
    }

    /// Refuses the next `refuse` windows, then records.
    struct Refusing {
        refuse: usize,
        inner: MemoryRecorder,
    }

    impl EventSink for Refusing {
        fn name(&self) -> &str {
            "refusing"
        }

        fn accept_columns(
            &mut self,
            events: &[Event],
            stamps: &mut Vec<VectorTimestamp>,
        ) -> Result<(), SinkError> {
            if self.refuse > 0 {
                self.refuse -= 1;
                return Err(SinkError::Io("refused".into()));
            }
            self.inner.accept_columns(events, stamps)
        }

        fn events_accepted(&self) -> usize {
            self.inner.events_accepted()
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_refused_window_is_re_offered_whole_before_anything_recorded_behind_it() {
        let mut stamps = StampLoop::new();
        let mut engine =
            TimestampingEngine::with_components(mvc_clock::ComponentMap::all_threads(2));
        let mut sink = Refusing {
            refuse: 2,
            inner: MemoryRecorder::new(),
        };
        let (a, b, x) = (ThreadId(0), ThreadId(1), ObjectId(0));
        stamps.record([(a, x, OpKind::Write), (b, x, OpKind::Read)]);
        for _ in 0..2 {
            let err = stamps.pump(&mut engine, &mut sink, |_| 0).unwrap_err();
            assert!(matches!(err, PipelineError::Sink(_)));
            assert!(!stamps.is_idle(), "the window is held");
        }
        stamps.record([(a, x, OpKind::Read)]);
        assert_eq!(stamps.pump(&mut engine, &mut sink, |_| 0).unwrap(), 3);
        assert!(stamps.is_idle());
        assert_eq!(engine.events_observed(), 3, "each event stamped once");
        let order: Vec<_> = sink
            .inner
            .computation()
            .events()
            .map(|e| e.thread)
            .collect();
        assert_eq!(order, [a, b, a]);
        let got = sink.inner.timestamps();
        assert!(got[0].strictly_less_than(&got[1]) && got[1].strictly_less_than(&got[2]));
    }

    #[test]
    fn a_refill_is_asked_only_once_the_backlog_is_stamped() {
        let mut stamps = StampLoop::new();
        let mut engine =
            TimestampingEngine::with_components(mvc_clock::ComponentMap::all_threads(1));
        let mut sink = MemoryRecorder::new();
        let write = (ThreadId(0), ObjectId(0), OpKind::Write);
        stamps.record([write; 3]);
        let mut refills = vec![2, 1];
        let delivered = stamps
            .pump(&mut engine, &mut sink, |out| {
                let n = refills.pop().unwrap_or(0);
                assert!(out.is_empty(), "the backlog is stamped first");
                out.extend(std::iter::repeat_n(write, n));
                n
            })
            .unwrap();
        assert_eq!(delivered, 6);
        assert_eq!(engine.events_observed(), 6);
    }
}
