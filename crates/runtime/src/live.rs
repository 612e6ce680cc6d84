//! Live timestamping: events are stamped as they drain from the ingest
//! buffers and delivered to a pluggable [`EventSink`].
//!
//! A plain [`TraceSession`] only *collects* a [`Computation`] for later
//! batch processing.
//! [`LiveSession`] attaches any [`Timestamper`] and any [`EventSink`] to the
//! same ingest pipeline, so operations receive their mixed-clock timestamps
//! while the program is still running — the streaming half of the unified
//! timestamping API — and the stamped stream goes wherever the sink points
//! (memory, the streaming codec, stats counters, or a tee of several).
//! With the default [`MemoryRecorder`] sink the session records the drained
//! interleaving as a computation, so a live run can always be cross-checked
//! against a post-hoc batch replay of the identical event order.
//!
//! A live session is three parts: the ingest buffers its threads publish
//! to, the ticket merge that reassembles one faithful interleaving from
//! them, and mvc-core's [`StampLoop`], which the merge refills window by
//! window and which stamps each window and hands it to the sink.
//!
//! ```
//! use mvc_runtime::TraceSession;
//! use mvc_online::{OnlineTimestamper, Popularity};
//!
//! let session = TraceSession::new();
//! let worker = session.register_thread("worker");
//! let counter = session.shared_object("counter", 0u64);
//!
//! // Switch into live mode; the traced operations below are timestamped as
//! // they are pumped out of the ingest buffers.
//! let mut live = session.live(OnlineTimestamper::new(Popularity::new()));
//! counter.write(&worker, |v| *v += 1);
//! counter.read(&worker, |v| *v);
//! live.pump().unwrap();
//! assert_eq!(live.timestamps().len(), 2);
//!
//! let run = live.finish().unwrap();
//! assert_eq!(run.computation.len(), 2);
//! assert!(run.timestamps[0].strictly_less_than(&run.timestamps[1]));
//! ```

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::sync::Arc;

use mvc_clock::VectorTimestamp;
use mvc_core::sink::{EventSink, MemoryRecorder};
use mvc_core::stamp_loop::{StampLoop, STAMP_WINDOW};
use mvc_core::{TimestampReport, Timestamper};
use mvc_trace::Computation;

use crate::ingest::OrderedMerge;
use crate::pipeline::PipelineError;
use crate::session::{SessionInner, ThreadHandle, TraceSession};
use crate::SharedObject;

/// The completed output of a live session.
#[derive(Debug, Clone)]
pub struct LiveRun {
    /// The drained interleaving, in the order events left the merge (the
    /// same order the timestamper observed them).
    pub computation: Computation,
    /// Per-event timestamps in that order, all padded to the final clock
    /// width so they are mutually comparable.
    pub timestamps: Vec<VectorTimestamp>,
    /// The timestamper's final report.
    pub report: TimestampReport,
}

/// A [`TraceSession`] in live mode: a [`Timestamper`] stamps events as they
/// drain from the ingest buffers and an [`EventSink`] receives the stamped
/// batches.
///
/// Threads and objects can still be registered after the switch; draining
/// happens whenever [`pump`](LiveSession::pump) is called and once more in
/// [`finish`](LiveSession::finish).  Per-object and per-thread orders are
/// preserved exactly as in batch mode, because the order-preserving merge
/// replays the serialization tickets drawn under each object's lock (see
/// [`crate::ingest`]).  The merge visits only the buffers that published
/// since the last pump, so an idle pump is two uncontended locks.
#[derive(Debug)]
pub struct LiveSession<T, S = MemoryRecorder> {
    inner: Arc<SessionInner>,
    timestamper: T,
    sink: S,
    merge: OrderedMerge,
    stamps: StampLoop,
}

impl TraceSession {
    /// Switches the session into live mode around the given timestamper,
    /// recording into the default in-memory sink.
    ///
    /// Existing [`SharedObject`]s and [`ThreadHandle`]s keep working — they
    /// feed the same ingest buffers the live session drains.
    pub fn live<T: Timestamper>(self, timestamper: T) -> LiveSession<T> {
        self.live_with_sink(timestamper, MemoryRecorder::new())
    }

    /// Switches the session into live mode with an explicit event sink.
    pub fn live_with_sink<T: Timestamper, S: EventSink>(
        self,
        timestamper: T,
        sink: S,
    ) -> LiveSession<T, S> {
        let TraceSession { inner } = self;
        LiveSession {
            inner,
            timestamper,
            sink,
            merge: OrderedMerge::new(),
            stamps: StampLoop::new(),
        }
    }
}

impl<T: Timestamper, S: EventSink> LiveSession<T, S> {
    /// Registers an application thread and returns its handle.
    pub fn register_thread(&self, name: &str) -> ThreadHandle {
        self.inner.register_thread_handle(name)
    }

    /// Creates a traced shared object holding `value`.
    pub fn shared_object<V>(&self, name: &str, value: V) -> SharedObject<V> {
        let id = self.inner.register_object(name);
        SharedObject::new(id, name, value)
    }

    /// Drains every event currently published to the ingest buffers through
    /// the timestamper into the sink, returning how many events the sink
    /// accepted.
    ///
    /// The drain is the three-stage pipeline: the order-preserving merge
    /// reassembles a faithful interleaving, whole batches are handed to
    /// [`Timestamper::observe_batch`] (so a timestamper with a bulk fast
    /// path — notably the sharded engine — is driven at full speed), and
    /// each stamped batch goes to the sink in one call.
    ///
    /// Events sent concurrently with the call may or may not be included;
    /// call [`finish`](LiveSession::finish) after joining the workers to
    /// drain everything.
    ///
    /// # Errors
    ///
    /// Propagates the first failure of either downstream stage.  Events
    /// accepted before the failure keep their place; the failing event (on
    /// a [`PipelineError::Timestamp`]) or the whole stamped batch (on a
    /// [`PipelineError::Sink`]) is held back and retried by the next `pump`
    /// (or by [`finish`](LiveSession::finish)), so after recovering — e.g.
    /// adding a component via [`timestamper_mut`](Self::timestamper_mut) —
    /// no operation is lost.
    pub fn pump(&mut self) -> Result<usize, PipelineError> {
        let (merge, ingest) = (&mut self.merge, &self.inner.ingest);
        self.stamps
            .pump(&mut self.timestamper, &mut self.sink, |out| {
                merge.drain(ingest, out, STAMP_WINDOW)
            })
    }

    /// The attached timestamper.
    pub fn timestamper(&self) -> &T {
        &self.timestamper
    }

    /// Mutable access to the attached timestamper — the recovery hook after
    /// a failed [`pump`](LiveSession::pump) (e.g. to add the missing
    /// component to an engine before retrying).
    pub fn timestamper_mut(&mut self) -> &mut T {
        &mut self.timestamper
    }

    /// The attached sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Current clock width.
    pub fn clock_size(&self) -> usize {
        self.timestamper.width()
    }

    /// Closes the session, drains the remaining events, flushes the sink,
    /// and returns it together with the timestamper's final report.
    ///
    /// This is the generic form of [`finish`](LiveSession::finish) for
    /// sessions with a custom sink; the caller recovers the sink's product
    /// (encoded bytes, stats, …) from the returned sink value.
    ///
    /// Call this after all worker threads have been joined; operations
    /// still being performed concurrently with the drain may or may not be
    /// included (the same contract as [`TraceSession::into_computation`]).
    ///
    /// # Errors
    ///
    /// On the first [`PipelineError`] the final drain or flush reports, the
    /// session is handed back *with* the error: everything the sink already
    /// accepted and every held-back backlog survives, so the caller can
    /// recover (add the component, free the disk) and finish again — the
    /// same no-operation-is-ever-lost contract as
    /// [`pump`](LiveSession::pump).
    #[allow(clippy::result_large_err)]
    pub fn finish_into_sink(mut self) -> Result<(S, TimestampReport), (Self, PipelineError)> {
        if let Err(e) = self.pump() {
            return Err((self, e));
        }
        if let Err(e) = self.sink.flush() {
            return Err((self, PipelineError::Sink(e)));
        }
        Ok((self.sink, self.timestamper.finish()))
    }
}

impl<T: Timestamper> LiveSession<T, MemoryRecorder> {
    /// The timestamps assigned so far, in drain order, at the raw width each
    /// observation had (see [`LiveRun::timestamps`] for the padded form).
    pub fn timestamps(&self) -> &[VectorTimestamp] {
        self.sink.timestamps()
    }

    /// The interleaving drained so far.
    pub fn computation(&self) -> &Computation {
        self.sink.computation()
    }

    /// Closes the session, drains the remaining events, and returns the
    /// completed run with every timestamp padded to the final clock width.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PipelineError`] the final drain reports (the
    /// session is dropped; keep it alive through repeated
    /// [`pump`](LiveSession::pump)s — or use
    /// [`finish_into_sink`](LiveSession::finish_into_sink), which hands the
    /// session back — if recovery matters).
    pub fn finish(self) -> Result<LiveRun, PipelineError> {
        let (sink, report) = self.finish_into_sink().map_err(|(_, e)| e)?;
        let width = report.width();
        let (computation, timestamps) = sink.into_parts();
        Ok(LiveRun {
            computation,
            timestamps: timestamps
                .into_iter()
                .map(|t| t.into_padded_to(width))
                .collect(),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    use mvc_core::sink::{CodecSink, StatsSink, TeeSink};
    use mvc_core::{replay, BatchReplay, OfflineOptimizer, TimestampingEngine};
    use mvc_online::{MechanismRegistry, OnlineTimestamper, Popularity};

    #[test]
    fn live_session_stamps_single_thread_program_order() {
        let session = TraceSession::new();
        let t = session.register_thread("main");
        let x = session.shared_object("x", 0u32);
        let mut live = session.live(OnlineTimestamper::new(Popularity::new()));
        x.write(&t, |v| *v = 1);
        x.read(&t, |v| *v);
        assert_eq!(live.pump().unwrap(), 2);
        assert_eq!(live.pump().unwrap(), 0, "buffers already drained");
        assert_eq!(live.computation().len(), 2);
        assert!(live.clock_size() >= 1);
        let run = live.finish().unwrap();
        assert!(run.timestamps[0].strictly_less_than(&run.timestamps[1]));
        assert_eq!(run.report.events, 2);
    }

    #[test]
    fn live_session_allows_late_registration() {
        let session = TraceSession::new();
        let live = session.live(OnlineTimestamper::new(Popularity::new()));
        let t = live.register_thread("late");
        let o = live.shared_object("late-object", 7i32);
        o.write(&t, |v| *v += 1);
        let run = live.finish().unwrap();
        assert_eq!(run.computation.len(), 1);
        assert_eq!(run.timestamps.len(), 1);
        assert_eq!(run.report.name, "popularity");
    }

    #[test]
    fn live_timestamps_equal_post_hoc_batch_replay() {
        // The acceptance check: a multithreaded execution stamped live must
        // agree with replaying the *same drained interleaving* in batch.
        let session = TraceSession::new();
        let counter = session.shared_object("counter", 0u64);
        let flag = session.shared_object("flag", false);
        let mut workers = Vec::new();
        for i in 0..4 {
            let handle = session.register_thread(&format!("worker-{i}"));
            let counter = counter.clone();
            let flag = flag.clone();
            workers.push(thread::spawn(move || {
                for _ in 0..25 {
                    counter.write(&handle, |v| *v += 1);
                }
                flag.write(&handle, |v| *v = true);
            }));
        }
        let live = session.live(OnlineTimestamper::new(Popularity::new()));
        for worker in workers {
            worker.join().unwrap();
        }
        let run = live.finish().unwrap();
        assert_eq!(run.computation.len(), 104);

        // Post-hoc: batch-replay the drained interleaving with a fresh copy
        // of the same (deterministic) strategy.
        let batch = OnlineTimestamper::new(Popularity::new())
            .run(&run.computation)
            .unwrap();
        assert_eq!(run.timestamps, batch.timestamps);

        // And the optimal batch plan over the same interleaving is valid too,
        // so the drained order really is a faithful computation.
        let plan = OfflineOptimizer::new().plan_for_computation(&run.computation);
        let mut engine = TimestampingEngine::with_components(plan.components().clone());
        let streamed: Vec<_> = run
            .computation
            .events()
            .map(|e| engine.observe(e.thread, e.object).unwrap())
            .collect();
        let dense = replay(&mut plan.timestamper(), &run.computation).unwrap();
        assert_eq!(streamed, dense.timestamps);
    }

    #[test]
    fn live_session_works_with_any_timestamper_impl() {
        // Seed a batch replayer whose map covers everything the program does.
        let mut map = mvc_clock::ComponentMap::new();
        map.push(mvc_clock::Component::Object(mvc_trace::ObjectId(0)));
        let session = TraceSession::new();
        let t = session.register_thread("t");
        let o = session.shared_object("o", 0u8);
        let mut live = session.live(BatchReplay::new(map));
        o.write(&t, |v| *v = 1);
        live.pump().unwrap();
        let run = live.finish().unwrap();
        assert_eq!(run.report.name, "batch-replay");
        assert_eq!(run.timestamps.len(), 1);
    }

    #[test]
    fn failed_pump_holds_the_event_back_for_retry() {
        // An engine with no components cannot stamp anything: the first pump
        // must fail WITHOUT losing the operation, and succeed after the
        // caller adds a covering component.
        let session = TraceSession::new();
        let t = session.register_thread("t");
        let o = session.shared_object("o", 0u8);
        let mut live = session.live(TimestampingEngine::new());
        o.write(&t, |v| *v = 1);
        let err = live.pump().unwrap_err();
        assert!(matches!(
            err.as_timestamp_error(),
            Some(mvc_core::TimestampError::Uncovered { .. })
        ));
        assert_eq!(live.computation().len(), 0, "failed event is not recorded");

        // Recover: cover the object, retry — the held-back event is stamped.
        live.timestamper_mut()
            .add_component(mvc_clock::Component::Object(mvc_trace::ObjectId(0)));
        assert_eq!(live.pump().unwrap(), 1, "the held-back event is retried");
        let run = live.finish().unwrap();
        assert_eq!(run.computation.len(), 1, "no operation was lost");
        assert_eq!(run.timestamps.len(), 1);
    }

    /// A memory recorder whose first `failures` batches are refused.
    #[derive(Debug, Default)]
    struct FlakyRecorder {
        failures: usize,
        inner: MemoryRecorder,
    }

    impl EventSink for FlakyRecorder {
        fn name(&self) -> &str {
            "flaky-mem"
        }

        fn accept_columns(
            &mut self,
            events: &[(mvc_trace::ThreadId, mvc_trace::ObjectId, mvc_trace::OpKind)],
            stamps: &mut Vec<VectorTimestamp>,
        ) -> Result<(), mvc_core::SinkError> {
            if self.failures > 0 {
                self.failures -= 1;
                return Err(mvc_core::SinkError::Io("transient".into()));
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
    fn failed_sink_holds_the_stamped_batch_back_for_retry() {
        // The egress half of the failure-containment contract: a sink error
        // keeps the stamped batch in the pipeline, and the next pump
        // delivers it exactly once — nothing lost, nothing duplicated.
        let session = TraceSession::new();
        let t = session.register_thread("t");
        let o = session.shared_object("o", 0u32);
        let sink = FlakyRecorder {
            failures: 1,
            inner: MemoryRecorder::new(),
        };
        let mut live = session.live_with_sink(OnlineTimestamper::new(Popularity::new()), sink);
        o.write(&t, |v| *v = 1);
        o.read(&t, |v| *v);
        let err = live.pump().unwrap_err();
        assert!(matches!(err, PipelineError::Sink(_)));
        assert_eq!(live.sink().events_accepted(), 0, "batch was refused whole");
        assert_eq!(live.pump().unwrap(), 2, "held-back batch retried");
        let (sink, report) = live.finish_into_sink().map_err(|(_, e)| e).unwrap();
        assert_eq!(report.events, 2, "timestamper observed each event once");
        assert_eq!(sink.inner.computation().len(), 2, "delivered exactly once");
    }

    #[test]
    fn failed_finish_hands_the_session_back_for_recovery() {
        // finish_into_sink must not destroy the sink's product on error:
        // the session comes back with the error, and finishing again
        // delivers the held-back batch.
        let session = TraceSession::new();
        let t = session.register_thread("t");
        let o = session.shared_object("o", 0u8);
        let sink = FlakyRecorder {
            failures: 1,
            inner: MemoryRecorder::new(),
        };
        let live = session.live_with_sink(OnlineTimestamper::new(Popularity::new()), sink);
        o.write(&t, |v| *v = 1);
        let (live, err) = live.finish_into_sink().unwrap_err();
        assert!(matches!(err, PipelineError::Sink(_)));
        let (sink, report) = live.finish_into_sink().map_err(|(_, e)| e).unwrap();
        assert_eq!(report.events, 1);
        assert_eq!(sink.inner.computation().len(), 1, "nothing was lost");
    }

    #[test]
    fn live_session_with_registry_mechanism() {
        let session = TraceSession::new();
        let t = session.register_thread("t");
        let o = session.shared_object("o", ());
        let mechanism = MechanismRegistry::new().from_name("adaptive").unwrap();
        let mut live = session.live(OnlineTimestamper::new(mechanism));
        o.write(&t, |_| ());
        live.pump().unwrap();
        let run = live.finish().unwrap();
        assert_eq!(run.report.name, "adaptive");
        assert_eq!(run.report.events, 1);
    }

    #[test]
    fn live_session_streams_into_a_custom_sink() {
        // A tee of stats + codec: no computation is materialised anywhere,
        // yet the encoded trace decodes to the drained interleaving.
        let session = TraceSession::new();
        let t = session.register_thread("t");
        let o = session.shared_object("o", 0u32);
        let sink = TeeSink::new(vec![Box::new(StatsSink::new()), Box::new(CodecSink::new())]);
        let mut live = session.live_with_sink(OnlineTimestamper::new(Popularity::new()), sink);
        o.write(&t, |v| *v = 1);
        o.read(&t, |v| *v);
        assert_eq!(live.pump().unwrap(), 2);
        assert_eq!(live.sink().events_accepted(), 2);
        let (sink, report) = live.finish_into_sink().map_err(|(_, e)| e).unwrap();
        assert_eq!(report.events, 2);
        let children = sink.into_children();
        let stats = children[0]
            .as_any()
            .downcast_ref::<StatsSink>()
            .unwrap()
            .stats();
        assert_eq!(stats.events, 2);
        assert_eq!(stats.per_kind[0], 1, "one read");
        assert_eq!(stats.per_kind[1], 1, "one write");
        let codec = children[1].as_any().downcast_ref::<CodecSink>().unwrap();
        let decoded = mvc_trace::codec::decode(&codec.clone().into_bytes()).unwrap();
        assert_eq!(decoded.len(), 2, "the streamed trace decodes");
    }
}
