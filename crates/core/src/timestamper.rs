//! The unified timestamping interface.
//!
//! The paper answers one question three ways — *which vector timestamp does
//! this operation get?* — with an offline-optimal batch replay, an
//! incremental engine over a fixed component set, and online mechanisms that
//! grow the component set as the computation reveals itself.  [`Timestamper`]
//! is the streaming-first interface all three share, so harnesses, sessions
//! and benchmarks can drive any of them interchangeably:
//!
//! * [`BatchReplay`] — the paper's batch protocol (Section III-C) replayed
//!   event by event over a component map fixed up front, typically one
//!   computed by the [`OfflineOptimizer`](crate::OfflineOptimizer).  The
//!   clock width never changes; observing an uncovered event is an error.
//! * [`TimestampingEngine`](crate::TimestampingEngine) — the same protocol,
//!   but the component set may be widened between observations; uncovered
//!   events are an error *until* someone adds a component.
//! * `OnlineTimestamper` (in `mvc-online`) — couples the engine with an
//!   online component-selection mechanism, so uncovered events trigger a
//!   mechanism decision instead of an error.
//!
//! **Choosing between them, in the paper's terms:** if the whole computation
//! is known in advance, run the offline optimizer and replay with
//! [`BatchReplay`] — the clock is provably minimal (Theorem 3).  If the
//! component set is known but events arrive one at a time (a replay of a
//! recorded trace, or a deployment whose interaction graph is stable), use
//! the engine.  If nothing is known in advance, an online mechanism must
//! grow the clock as events reveal the thread–object graph, paying the
//! competitive gap of Section IV in exchange for never needing the future.
//!
//! [`replay`] drives a whole [`Computation`] through any timestamper and
//! pads every timestamp to the final clock width so they are mutually
//! comparable — the one loop that previously existed as three private
//! copies.

use std::fmt;

use mvc_clock::{Component, ComponentMap, VectorTimestamp};
use mvc_trace::{Computation, ObjectId, ThreadId};

/// Errors reported by [`Timestamper::observe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimestampError {
    /// Neither the operation's thread nor its object carries a clock
    /// component, and the timestamper has no way to add one.
    Uncovered {
        /// The thread performing the operation.
        thread: ThreadId,
        /// The object operated on.
        object: ObjectId,
    },
    /// An online mechanism, asked to cover the operation, returned a
    /// component that covers neither endpoint — the operation is still not
    /// timestampable.
    RogueComponent {
        /// The thread performing the operation.
        thread: ThreadId,
        /// The object operated on.
        object: ObjectId,
        /// The unrelated component the mechanism chose.
        component: Component,
    },
}

impl fmt::Display for TimestampError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimestampError::Uncovered { thread, object } => write!(
                f,
                "operation of {thread} on {object} is not covered by any clock component"
            ),
            TimestampError::RogueComponent {
                thread,
                object,
                component,
            } => write!(
                f,
                "mechanism chose {component}, which covers neither {thread} nor {object}"
            ),
        }
    }
}

impl std::error::Error for TimestampError {}

/// Summary of a timestamping run: how many events were observed and which
/// components the final clock uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimestampReport {
    /// The timestamper's [`name`](Timestamper::name).
    pub name: String,
    /// Number of events successfully observed.
    pub events: usize,
    /// The final component layout of the clock.
    pub components: ComponentMap,
}

impl TimestampReport {
    /// Final clock width (number of components).
    pub fn width(&self) -> usize {
        self.components.len()
    }

    /// Alias for [`width`](Self::width) matching the paper's terminology.
    pub fn clock_size(&self) -> usize {
        self.components.len()
    }

    /// Number of thread components in the final clock.
    pub fn thread_components(&self) -> usize {
        self.components
            .components()
            .iter()
            .filter(|c| matches!(c, Component::Thread(_)))
            .count()
    }

    /// Number of object components in the final clock.
    pub fn object_components(&self) -> usize {
        self.components
            .components()
            .iter()
            .filter(|c| matches!(c, Component::Object(_)))
            .count()
    }
}

/// A streaming timestamping strategy: observes thread–object operations one
/// at a time and assigns each a [`VectorTimestamp`].
///
/// The trait is dyn-compatible, so harnesses can hold a
/// `Box<dyn Timestamper>` chosen at runtime.  Timestamps produced early in a
/// run may be narrower than later ones if the implementation grows its clock;
/// padding a narrow timestamp with zeros (see
/// [`VectorTimestamp::padded_to`]) makes it comparable with wide ones,
/// because a missing component is exactly a counter that was still zero when
/// the timestamp was taken.  [`replay`] does this for a whole computation.
pub trait Timestamper {
    /// A short, stable name for reports.
    fn name(&self) -> &str;

    /// Observes one operation and returns its timestamp.
    ///
    /// # Errors
    ///
    /// Returns a [`TimestampError`] when the operation cannot be covered by
    /// the clock's components.  A failed observation must not count the
    /// event, grow the clock, or advance any vector, so the caller may
    /// recover (e.g. add a component) and retry the same operation.
    fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError>;

    /// Observes a batch of operations, appending one timestamp per event to
    /// `out` in event order.
    ///
    /// The default implementation simply loops over [`observe`]; streaming
    /// implementations with a cheaper bulk path (notably the sharded engine,
    /// which fans a batch out across shards) override it.  Drivers that
    /// already hold many events — [`replay`], a batched channel drain — call
    /// this instead of observing one event at a time, so any override is
    /// picked up with zero call-site changes.
    ///
    /// # Errors
    ///
    /// Stops at the first event that cannot be timestamped and returns its
    /// [`TimestampError`].  On error, `out` has grown by exactly the number
    /// of events that were successfully observed (the batch's longest
    /// stampable prefix, all of which count as observed); the failing event
    /// is `events[appended]` and, like a failed [`observe`], has consumed no
    /// state — the caller may recover and resubmit the unprocessed suffix.
    ///
    /// [`observe`]: Timestamper::observe
    fn observe_batch(
        &mut self,
        events: &[(ThreadId, ObjectId)],
        out: &mut Vec<VectorTimestamp>,
    ) -> Result<(), TimestampError> {
        for &(thread, object) in events {
            out.push(self.observe(thread, object)?);
        }
        Ok(())
    }

    /// Current clock width (number of components).
    fn width(&self) -> usize;

    /// Summarises the run so far: events observed and the component layout.
    fn finish(&self) -> TimestampReport;
}

/// Boxed timestampers are timestampers, so pipeline drivers generic over
/// `T: Timestamper` also accept a `Box<dyn Timestamper>` selected at
/// runtime.
impl<T: Timestamper + ?Sized> Timestamper for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        (**self).observe(thread, object)
    }

    fn observe_batch(
        &mut self,
        events: &[(ThreadId, ObjectId)],
        out: &mut Vec<VectorTimestamp>,
    ) -> Result<(), TimestampError> {
        (**self).observe_batch(events, out)
    }

    fn width(&self) -> usize {
        (**self).width()
    }

    fn finish(&self) -> TimestampReport {
        (**self).finish()
    }
}

/// A whole computation timestamped by one [`Timestamper`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimestampedRun {
    /// Per-event timestamps in append order, all padded to the final clock
    /// width so they are mutually comparable.
    pub timestamps: Vec<VectorTimestamp>,
    /// The timestamper's final report.
    pub report: TimestampReport,
}

/// Replays a whole computation through a timestamper.
///
/// The events are handed to [`Timestamper::observe_batch`] as one batch, so
/// implementations with a bulk fast path (the sharded engine fans the batch
/// out across its shards) are driven at full speed while everything else
/// falls back to per-event observation.  Implementations that grow their
/// clock mid-run hand out raw timestamps of increasing width; the returned
/// timestamps are all padded to the final width (missing components are
/// zero, exactly the value those counters held at the time), so any two of
/// them can be compared directly.
///
/// # Errors
///
/// Propagates the first [`TimestampError`] an observation reports.
pub fn replay<T: Timestamper + ?Sized>(
    timestamper: &mut T,
    computation: &Computation,
) -> Result<TimestampedRun, TimestampError> {
    // Batches big enough to feed any bulk fast path at full speed, small
    // enough that the staging buffer stays O(window) instead of duplicating
    // the whole computation as tuples.
    const WINDOW: usize = 4096;
    let mut raw = Vec::with_capacity(computation.len());
    let mut window = Vec::with_capacity(WINDOW.min(computation.len()));
    let mut events = computation.events().peekable();
    while events.peek().is_some() {
        window.clear();
        window.extend(events.by_ref().take(WINDOW).map(|e| (e.thread, e.object)));
        timestamper.observe_batch(&window, &mut raw)?;
    }
    let width = timestamper.width();
    let timestamps = raw.into_iter().map(|t| t.into_padded_to(width)).collect();
    Ok(TimestampedRun {
        timestamps,
        report: timestamper.finish(),
    })
}

/// The batch replay path as a [`Timestamper`].
///
/// Runs the paper's Section III-C protocol over a component map fixed at
/// construction (typically the minimum vertex cover computed by the
/// [`OfflineOptimizer`](crate::OfflineOptimizer)), one event at a time, on
/// dense vectors.  It is the repository's dense reference for the protocol:
/// [`TimestampingEngine`](crate::TimestampingEngine) runs the same step on
/// chunked rows and must produce the same stamps.  Under
/// [`ComponentMap::all_threads`] or [`ComponentMap::all_objects`] it is the
/// traditional thread-based or object-based vector clock of Section II.
/// Uncovered events surface as a [`TimestampError`], and the width never
/// changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReplay {
    components: ComponentMap,
    thread_clock: Vec<VectorTimestamp>,
    object_clock: Vec<VectorTimestamp>,
    events: usize,
}

impl BatchReplay {
    /// Creates the replay over a fixed component map.
    pub fn new(components: ComponentMap) -> Self {
        Self {
            components,
            thread_clock: Vec::new(),
            object_clock: Vec::new(),
            events: 0,
        }
    }

    /// The component map driving the replay.
    pub fn components(&self) -> &ComponentMap {
        &self.components
    }

    /// Number of events observed so far.
    pub fn events_observed(&self) -> usize {
        self.events
    }
}

fn clock_at(clocks: &mut Vec<VectorTimestamp>, index: usize, width: usize) -> &VectorTimestamp {
    if index >= clocks.len() {
        clocks.resize_with(index + 1, || VectorTimestamp::zeros(width));
    }
    &clocks[index]
}

impl Timestamper for BatchReplay {
    fn name(&self) -> &str {
        "batch-replay"
    }

    fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        let component = self
            .components
            .object_component(object)
            .or_else(|| self.components.thread_component(thread))
            .ok_or(TimestampError::Uncovered { thread, object })?;
        let width = self.components.len();
        let mut v = clock_at(&mut self.thread_clock, thread.index(), width).clone();
        v.merge_max(clock_at(&mut self.object_clock, object.index(), width));
        v.increment(component);
        self.thread_clock[thread.index()] = v.clone();
        self.object_clock[object.index()] = v.clone();
        self.events += 1;
        Ok(v)
    }

    fn width(&self) -> usize {
        self.components.len()
    }

    fn finish(&self) -> TimestampReport {
        TimestampReport {
            name: self.name().to_owned(),
            events: self.events,
            components: self.components.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_trace::WorkloadBuilder;

    use crate::engine::TimestampingEngine;
    use crate::offline::OfflineOptimizer;

    #[test]
    fn batch_replay_matches_the_engine() {
        let c = WorkloadBuilder::new(6, 6).operations(150).seed(21).build();
        let plan = OfflineOptimizer::new().plan_for_computation(&c);
        let mut engine = TimestampingEngine::with_components(plan.components().clone());
        let streamed = replay(&mut engine, &c).unwrap().timestamps;
        let mut replayer = BatchReplay::new(plan.components().clone());
        let run = replay(&mut replayer, &c).unwrap();
        assert_eq!(run.timestamps, streamed);
        assert_eq!(run.report.events, c.len());
        assert_eq!(run.report.width(), plan.clock_size());
        assert_eq!(run.report.name, "batch-replay");
    }

    #[test]
    fn batch_replay_rejects_uncovered_event_without_state_change() {
        let mut map = ComponentMap::new();
        map.push(Component::Thread(ThreadId(0)));
        let mut replayer = BatchReplay::new(map);
        replayer.observe(ThreadId(0), ObjectId(0)).unwrap();
        let before = replayer.clone();
        let err = replayer.observe(ThreadId(1), ObjectId(1)).unwrap_err();
        assert!(matches!(err, TimestampError::Uncovered { .. }));
        assert!(err.to_string().contains("T1"));
        assert_eq!(replayer, before, "failed observation must not change state");
        assert_eq!(replayer.events_observed(), 1);
        assert_eq!(replayer.components().len(), 1);
    }

    #[test]
    fn report_counts_component_kinds() {
        let mut map = ComponentMap::new();
        map.push(Component::Thread(ThreadId(0)));
        map.push(Component::Object(ObjectId(4)));
        map.push(Component::Object(ObjectId(5)));
        let report = BatchReplay::new(map).finish();
        assert_eq!(report.width(), 3);
        assert_eq!(report.clock_size(), 3);
        assert_eq!(report.thread_components(), 1);
        assert_eq!(report.object_components(), 2);
        assert_eq!(report.events, 0);
    }

    #[test]
    fn rogue_component_error_displays_all_parties() {
        let err = TimestampError::RogueComponent {
            thread: ThreadId(1),
            object: ObjectId(2),
            component: Component::Thread(ThreadId(9)),
        };
        let s = err.to_string();
        assert!(s.contains("T9") && s.contains("T1") && s.contains("O2"));
    }

    #[test]
    fn default_observe_batch_appends_prefix_then_stops_at_the_failure() {
        let mut map = ComponentMap::new();
        map.push(Component::Thread(ThreadId(0)));
        let mut replayer = BatchReplay::new(map);
        let events = [
            (ThreadId(0), ObjectId(0)),
            (ThreadId(0), ObjectId(1)),
            (ThreadId(1), ObjectId(2)), // uncovered
            (ThreadId(0), ObjectId(3)),
        ];
        let mut out = Vec::new();
        let err = replayer.observe_batch(&events, &mut out).unwrap_err();
        assert_eq!(
            err,
            TimestampError::Uncovered {
                thread: ThreadId(1),
                object: ObjectId(2),
            }
        );
        assert_eq!(out.len(), 2, "the stampable prefix was appended");
        assert_eq!(replayer.events_observed(), 2, "the suffix consumed nothing");
        assert!(out[0].strictly_less_than(&out[1]));

        // The batch path is bit-identical to observing one event at a time.
        let mut map = ComponentMap::new();
        map.push(Component::Thread(ThreadId(0)));
        let mut single = BatchReplay::new(map);
        let looped: Vec<_> = events[..2]
            .iter()
            .map(|&(t, o)| single.observe(t, o).unwrap())
            .collect();
        assert_eq!(out, looped);
    }

    #[test]
    fn replay_through_dyn_timestamper_works() {
        let mut c = Computation::new();
        c.record(ThreadId(0), ObjectId(0));
        c.record(ThreadId(1), ObjectId(0));
        let mut map = ComponentMap::new();
        map.push(Component::Object(ObjectId(0)));
        let mut boxed: Box<dyn Timestamper> = Box::new(BatchReplay::new(map));
        let run = replay(boxed.as_mut(), &c).unwrap();
        assert_eq!(run.timestamps.len(), 2);
        assert!(run.timestamps[0].strictly_less_than(&run.timestamps[1]));
        assert_eq!(boxed.width(), 1);
        assert_eq!(boxed.name(), "batch-replay");
    }
}
