//! The incremental timestamping engine.
//!
//! [`TimestampingEngine`] maintains the per-thread and per-object mixed
//! vectors of the paper's protocol and timestamps operations *as they are
//! observed*, one at a time.  Unlike the dense
//! [`BatchReplay`](crate::BatchReplay) it supports **growing the component
//! set while the computation is running**,
//! which is exactly what the online mechanisms of `mvc-online` need: when a
//! new event is not covered by the current components, the mechanism picks a
//! new component (the event's thread or object) and the engine widens every
//! vector transparently (new components start at zero, which is always safe
//! because no past event incremented them).
//!
//! Rows and stamps share one storage rule (see [`mvc_clock::chunked`]): the
//! nonzero 64-entry chunks, packed, plus a mask bit per chunk.  The protocol
//! step ([`ClockRows::step`]) mutates both rows in place (write-back) and
//! the emitted stamp *shares* the thread's row until that row's next write,
//! which copies the row first if the stamp is still alive.  So an event
//! costs `O(nonzero chunks)`, never `O(width)` — unless a consumer asks a
//! stamp for `as_slice()` — and a stamp dropped before its thread's next
//! event costs no allocation at all.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use mvc_clock::{ClockRows, Component, ComponentMap, VectorTimestamp};
use mvc_trace::{ObjectId, ThreadId};

use crate::timestamper::{TimestampError, TimestampReport, Timestamper};

/// Incremental mixed-vector-clock engine.
///
/// ```
/// use mvc_core::TimestampingEngine;
/// use mvc_clock::Component;
/// use mvc_trace::{ThreadId, ObjectId};
///
/// let mut engine = TimestampingEngine::new();
/// engine.add_component(Component::Thread(ThreadId(0)));
/// let a = engine.observe(ThreadId(0), ObjectId(7)).unwrap();
/// let b = engine.observe(ThreadId(0), ObjectId(8)).unwrap();
/// assert!(a.strictly_less_than(&b));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimestampingEngine {
    components: ComponentMap,
    /// Per-thread and per-object rows; materialised on first touch.
    rows: ClockRows,
    events_observed: usize,
}

impl TimestampingEngine {
    /// Creates an engine with no components (every observation will fail
    /// until components are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine pre-loaded with a component map (e.g. one computed
    /// by the offline optimizer for a replay).
    pub fn with_components(components: ComponentMap) -> Self {
        Self {
            components,
            ..Self::default()
        }
    }

    /// Mean fraction of nonzero 64-entry chunks across every materialised
    /// row — the measured sparsity of the clock.  `None` until the first
    /// row is touched (a mean over zero rows).
    pub fn chunk_occupancy(&self) -> Option<f64> {
        self.rows.occupancy()
    }

    /// The current component map.
    pub fn components(&self) -> &ComponentMap {
        &self.components
    }

    /// Current clock width (number of components).
    pub fn width(&self) -> usize {
        self.components.len()
    }

    /// Number of operations observed so far.
    pub fn events_observed(&self) -> usize {
        self.events_observed
    }

    /// Adds a component (if not already present), returning its index.
    ///
    /// Existing per-thread / per-object vectors are logically padded with a
    /// zero for the new component; padding is materialised lazily.
    pub fn add_component(&mut self, component: Component) -> usize {
        self.components.push(component)
    }

    /// Returns `true` if an operation of `thread` on `object` could be
    /// timestamped right now (at least one endpoint has a component).
    pub fn covers(&self, thread: ThreadId, object: ObjectId) -> bool {
        self.components.contains_thread(thread) || self.components.contains_object(object)
    }

    /// Observes one operation and returns its timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`TimestampError::Uncovered`] when neither the thread nor the
    /// object carries a component.  The engine state is left unchanged in
    /// that case, so the caller may add a component and retry the same
    /// operation.
    pub fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        self.try_step(thread, object)
            .ok_or(TimestampError::Uncovered { thread, object })
    }

    /// The protocol step, or `None` (and no change) for an uncovered
    /// operation.  An `Option` has the stamp's own layout, so the row step
    /// writes its stamp straight into the value the caller receives; the
    /// wider `Result` is built only around it.
    fn try_step(&mut self, thread: ThreadId, object: ObjectId) -> Option<VectorTimestamp> {
        let component = self
            .components
            .object_component(object)
            .or_else(|| self.components.thread_component(thread))?;
        let width = self.components.len();
        let stamp = self.rows.step(thread, object, component, width);
        self.events_observed += 1;
        Some(stamp)
    }

    /// Frees the row of a thread that will observe nothing more (see
    /// [`ClockRows::release_thread`]); its id stays taken.
    pub fn release_thread(&mut self, thread: ThreadId) {
        self.rows.release_thread(thread);
    }

    /// The current clock of a thread, padded to the current width.
    pub fn thread_clock(&self, thread: ThreadId) -> VectorTimestamp {
        self.rows.thread_clock(thread, self.width())
    }

    /// The current clock of an object, padded to the current width.
    pub fn object_clock(&self, object: ObjectId) -> VectorTimestamp {
        self.rows.object_clock(object, self.width())
    }
}

impl Timestamper for TimestampingEngine {
    fn name(&self) -> &str {
        "timestamping-engine"
    }

    fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        TimestampingEngine::observe(self, thread, object)
    }

    fn width(&self) -> usize {
        TimestampingEngine::width(self)
    }

    fn finish(&self) -> TimestampReport {
        TimestampReport {
            name: "timestamping-engine".to_owned(),
            events: self.events_observed,
            components: self.components.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_clock::validate::satisfies_vector_clock_condition;
    use mvc_trace::{Computation, WorkloadBuilder};
    use proptest::prelude::*;

    use crate::offline::OfflineOptimizer;
    use crate::replay;

    #[test]
    fn empty_engine_rejects_everything() {
        let mut e = TimestampingEngine::new();
        assert_eq!(e.width(), 0);
        assert!(!e.covers(ThreadId(0), ObjectId(0)));
        let err = e.observe(ThreadId(0), ObjectId(0)).unwrap_err();
        assert!(matches!(err, TimestampError::Uncovered { .. }));
        assert!(err.to_string().contains("T0"));
        assert_eq!(e.events_observed(), 0, "failed observation must not count");
    }

    #[test]
    fn single_thread_component_counts_its_operations() {
        let mut e = TimestampingEngine::new();
        e.add_component(Component::Thread(ThreadId(0)));
        let a = e.observe(ThreadId(0), ObjectId(5)).unwrap();
        let b = e.observe(ThreadId(0), ObjectId(9)).unwrap();
        assert_eq!(a.as_slice(), &[1]);
        assert_eq!(b.as_slice(), &[2]);
        assert_eq!(e.events_observed(), 2);
        assert_eq!(e.thread_clock(ThreadId(0)).as_slice(), &[2]);
        assert_eq!(e.object_clock(ObjectId(9)).as_slice(), &[2]);
        assert_eq!(e.object_clock(ObjectId(42)).as_slice(), &[0]);
    }

    #[test]
    fn adding_component_widens_existing_clocks() {
        let mut e = TimestampingEngine::new();
        e.add_component(Component::Thread(ThreadId(0)));
        e.observe(ThreadId(0), ObjectId(0)).unwrap();
        // New component appears mid-stream.
        e.add_component(Component::Object(ObjectId(1)));
        assert_eq!(e.width(), 2);
        let t = e.observe(ThreadId(2), ObjectId(1)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.as_slice(), &[0, 1]);
        // The older thread's clock reads back padded to the new width.
        assert_eq!(e.thread_clock(ThreadId(0)).as_slice(), &[1, 0]);
    }

    #[test]
    fn adding_duplicate_component_is_idempotent() {
        let mut e = TimestampingEngine::new();
        let a = e.add_component(Component::Object(ObjectId(3)));
        let b = e.add_component(Component::Object(ObjectId(3)));
        assert_eq!(a, b);
        assert_eq!(e.width(), 1);
    }

    #[test]
    fn object_component_preferred_like_batch_replay() {
        // Replaying a computation through the engine with a fixed component map
        // must give exactly the same stamps as the dense batch replay.
        let c = WorkloadBuilder::new(6, 6).operations(120).seed(42).build();
        let plan = OfflineOptimizer::new().plan_for_computation(&c);
        let batch = replay(&mut plan.timestamper(), &c).unwrap().timestamps;
        let mut engine = TimestampingEngine::with_components(plan.components().clone());
        let streamed: Vec<_> = c
            .events()
            .map(|e| engine.observe(e.thread, e.object).unwrap())
            .collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn failed_observation_leaves_state_unchanged() {
        let mut e = TimestampingEngine::new();
        e.add_component(Component::Thread(ThreadId(0)));
        e.observe(ThreadId(0), ObjectId(0)).unwrap();
        let before = e.clone();
        assert!(e.observe(ThreadId(1), ObjectId(1)).is_err());
        assert_eq!(e, before);
    }

    #[test]
    fn chunk_occupancy_tracks_touched_chunks() {
        // 128 components, but every event touches only component 0: each
        // touched row has exactly 1 of its 2 chunks nonzero.
        let mut map = ComponentMap::all_threads(1);
        for o in 0..127 {
            map.push(Component::Object(ObjectId(o)));
        }
        let mut e = TimestampingEngine::with_components(map);
        assert_eq!(e.chunk_occupancy(), None, "no rows touched yet");
        e.observe(ThreadId(0), ObjectId(999)).unwrap();
        assert_eq!(e.width(), 128);
        assert_eq!(e.chunk_occupancy(), Some(0.5));
    }

    /// Every thread then every object, in id order.
    fn all_endpoints(threads: usize, objects: usize) -> ComponentMap {
        let mut map = ComponentMap::all_threads(threads);
        for o in 0..objects {
            map.push(Component::Object(ObjectId(o)));
        }
        map
    }

    #[test]
    fn wide_clustered_rows_and_stamps_store_only_the_chunks_they_touched() {
        // `live-wide` in small: width 4096, 64 clusters of 32 threads and 32
        // objects, so a row only ever sees its own cluster's chunk.
        let c = WorkloadBuilder::new(2048, 2048)
            .operations(1500)
            .kind(mvc_trace::WorkloadKind::Clustered { clusters: 64 })
            .seed(9)
            .build();
        let nonzero_chunks = |dense: &[u64]| {
            dense
                .chunks(64)
                .filter(|c| c.iter().any(|&v| v != 0))
                .count()
        };
        let mut e = TimestampingEngine::with_components(all_endpoints(2048, 2048));
        for event in c.events() {
            let stamp = e.observe(event.thread, event.object).unwrap();
            assert_eq!(stamp.len(), 4096);
            let chunks = nonzero_chunks(stamp.clone().as_slice());
            assert_eq!(
                stamp.stored_words(),
                64 * chunks + 1,
                "chunks + one mask word"
            );
            assert_eq!(chunks, 1);
        }
        // The rows hold what they touched, not `rows x width`: every touched
        // row stores one of its 64 chunks.
        assert_eq!(e.chunk_occupancy(), Some(1.0 / 64.0));
    }

    #[test]
    fn a_full_row_emits_the_plain_vector() {
        // One chunk is full from the first event on.
        let mut narrow = TimestampingEngine::with_components(all_endpoints(0, 64));
        let stamp = narrow.observe(ThreadId(0), ObjectId(5)).unwrap();
        assert_eq!(stamp.stored_words(), 64);
        assert_eq!(stamp.as_slice().len(), 64);
        // Two chunks: packed until the thread has seen both, plain after.
        let mut two = TimestampingEngine::with_components(all_endpoints(0, 100));
        let first = two.observe(ThreadId(0), ObjectId(5)).unwrap();
        assert_eq!(first.stored_words(), 64 + 1);
        let second = two.observe(ThreadId(0), ObjectId(99)).unwrap();
        assert_eq!(second.stored_words(), 100);
        assert!(first.strictly_less_than(&second));
    }

    #[test]
    fn covers_reflects_components() {
        let mut e = TimestampingEngine::new();
        e.add_component(Component::Object(ObjectId(2)));
        assert!(e.covers(ThreadId(9), ObjectId(2)));
        assert!(!e.covers(ThreadId(9), ObjectId(3)));
    }

    proptest! {
        /// Streaming through the engine with components chosen by the offline
        /// optimizer yields a valid vector clock, identical to the batch path.
        #[test]
        fn prop_engine_matches_batch_and_is_valid(
            threads in 1usize..7,
            objects in 1usize..7,
            ops in 1usize..80,
            seed in 0u64..150,
        ) {
            let c = WorkloadBuilder::new(threads, objects).operations(ops).seed(seed).build();
            let plan = OfflineOptimizer::new().plan_for_computation(&c);
            let mut engine = TimestampingEngine::with_components(plan.components().clone());
            let streamed: Vec<_> = c
                .events()
                .map(|e| engine.observe(e.thread, e.object).unwrap())
                .collect();
            prop_assert_eq!(&streamed, &replay(&mut plan.timestamper(), &c).unwrap().timestamps);
            let oracle = c.causality_oracle();
            prop_assert!(satisfies_vector_clock_condition(&c, &streamed, &oracle));
            prop_assert_eq!(engine.events_observed(), c.len());
            let _ = Computation::new();
        }
    }
}
