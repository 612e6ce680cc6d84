//! The sharded timestamping engine.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use mvc_clock::{Component, ComponentMap, VectorTimestamp};
use mvc_core::{TimestampError, TimestampReport, Timestamper};
use mvc_trace::{ObjectId, ThreadId};

use crate::slicing::{local_width, EventRec, ShardState};

/// Events per chunk: the granularity at which a batch is applied to the
/// slices and merged back.  It bounds each shard's slice buffer to one
/// chunk's values (`CHUNK_EVENTS × slice width`) instead of the whole batch.
pub(crate) const CHUNK_EVENTS: usize = 4096;

/// The sharded counterpart of
/// [`TimestampingEngine`](mvc_core::TimestampingEngine): the same incremental
/// mixed-vector-clock protocol, with the clock's components striped across
/// `N` shards (component `k` on shard `k % N`) that each own their slice of
/// every per-thread / per-object vector as dense rows (see the `slicing`
/// module).  The shards run in turn on the caller's thread.
///
/// The engine implements [`Timestamper`], so every driver —
/// [`replay`](mvc_core::replay), `TraceSession::live`, the network server —
/// picks it up unchanged.  A batch ([`Timestamper::observe_batch`]) is
/// routed once, applied chunk by chunk to every slice, and merged back in
/// arrival order.  Observing single events works and is bit-identical, but
/// pays one merge per event; drive the engine with batches.
///
/// ```
/// use mvc_core::{replay, Timestamper, TimestampingEngine};
/// use mvc_shard::ShardedEngine;
/// use mvc_clock::Component;
/// use mvc_trace::{ThreadId, ObjectId, WorkloadBuilder};
///
/// let c = WorkloadBuilder::new(8, 8).operations(400).seed(7).build();
/// let mut map = mvc_clock::ComponentMap::new();
/// for t in 0..8 {
///     map.push(Component::Thread(ThreadId(t)));
/// }
/// let mut sharded = ShardedEngine::with_components(map.clone(), 4);
/// let mut sequential = TimestampingEngine::with_components(map);
/// let a = replay(&mut sharded, &c).unwrap();
/// let b = replay(&mut sequential, &c).unwrap();
/// assert_eq!(a.timestamps, b.timestamps); // bit-for-bit
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    components: ComponentMap,
    /// One slice of the engine state per shard.
    shards: Vec<ShardState>,
    /// One reusable slice buffer per shard (slice values, event-major).
    bufs: Vec<Vec<u64>>,
    events_observed: usize,
}

impl ShardedEngine {
    /// Creates an engine with no components over `shards` slices (clamped
    /// to at least 1).
    pub fn new(shards: usize) -> Self {
        Self::with_components(ComponentMap::new(), shards)
    }

    /// Creates an engine pre-loaded with a component map (e.g. one computed
    /// by the offline optimizer).
    pub fn with_components(components: ComponentMap, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut engine = ShardedEngine {
            components: ComponentMap::new(),
            shards: (0..shards).map(ShardState::new).collect(),
            bufs: vec![Vec::new(); shards],
            events_observed: 0,
        };
        for &component in components.components() {
            engine.add_component(component);
        }
        engine
    }

    /// The current component map.
    pub fn components(&self) -> &ComponentMap {
        &self.components
    }

    /// Number of operations observed so far.
    pub fn events_observed(&self) -> usize {
        self.events_observed
    }

    /// Adds a component (if not already present), returning its index.
    ///
    /// Component `index` lands on shard `index % shard_count`; no existing
    /// slice data moves (see the `slicing` module).
    pub fn add_component(&mut self, component: Component) -> usize {
        self.components.push(component)
    }

    /// Frees a thread that will observe nothing more: its row is emptied in
    /// every shard and its slot kept, as
    /// [`ClockRows::release_thread`](mvc_clock::ClockRows::release_thread)
    /// does, so thread ids stay dense and are never reused.
    pub fn release_thread(&mut self, thread: ThreadId) {
        for shard in &mut self.shards {
            shard.release_thread(thread.index());
        }
    }

    /// Returns `true` if an operation of `thread` on `object` could be
    /// timestamped right now (at least one endpoint has a component).
    pub fn covers(&self, thread: ThreadId, object: ObjectId) -> bool {
        self.route(thread, object).is_some()
    }

    /// The component the protocol increments for an operation: the object's
    /// component if the object is in the clock, otherwise the thread's —
    /// the same preference as the sequential engine.
    fn route(&self, thread: ThreadId, object: ObjectId) -> Option<u32> {
        self.components
            .object_component(object)
            .or_else(|| self.components.thread_component(thread))
            // `ComponentMap` holds fewer than `u32::MAX` components.
            .map(|index| index as u32)
    }

    /// The batch pipeline: route → apply each chunk to every slice →
    /// order-preserving merge.  See the crate docs for the merge invariant.
    fn process_batch(
        &mut self,
        events: &[(ThreadId, ObjectId)],
        out: &mut Vec<VectorTimestamp>,
    ) -> Result<(), TimestampError> {
        let width = self.components.len();
        let shards = self.shards.len();
        // Route the batch's longest coverable prefix.  Coverage cannot change
        // inside the batch (`add_component` needs `&mut self`), so checking
        // up front is equivalent to the sequential engine's per-event check.
        let mut recs = Vec::with_capacity(events.len());
        let mut failure = None;
        for &(thread, object) in events {
            match self.route(thread, object) {
                Some(c) => recs.push(EventRec::striped(
                    thread.index() as u32,
                    object.index() as u32,
                    c,
                    shards as u32,
                )),
                None => {
                    failure = Some(TimestampError::Uncovered { thread, object });
                    break;
                }
            }
        }
        self.events_observed += recs.len();
        out.reserve(recs.len());
        for chunk in recs.chunks(CHUNK_EVENTS) {
            for (s, (state, buf)) in self.shards.iter_mut().zip(&mut self.bufs).enumerate() {
                buf.clear();
                state.apply(local_width(width, s, shards), chunk, buf);
            }
            merge_into(width, &self.bufs, chunk.len(), out);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Timestamper for ShardedEngine {
    fn name(&self) -> &str {
        "sharded-engine"
    }

    fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        let mut out = Vec::with_capacity(1);
        self.process_batch(&[(thread, object)], &mut out)?;
        // A covered event gets exactly one stamp; an uncovered one has
        // already returned its error above.
        out.pop()
            .ok_or(TimestampError::Uncovered { thread, object })
    }

    fn observe_batch(
        &mut self,
        events: &[(ThreadId, ObjectId)],
        out: &mut Vec<VectorTimestamp>,
    ) -> Result<(), TimestampError> {
        self.process_batch(events, out)
    }

    fn width(&self) -> usize {
        self.components.len()
    }

    fn finish(&self) -> TimestampReport {
        TimestampReport {
            name: "sharded-engine".to_owned(),
            events: self.events_observed,
            components: self.components.clone(),
        }
    }
}

/// Merges one chunk's per-shard slice buffers into full-width timestamps,
/// in arrival order: value `i * ln + j` of shard `s`'s buffer (with `ln`
/// that shard's slice width) is component `s + j * shards` of event `i` —
/// the inverse of the striping.
fn merge_into(width: usize, bufs: &[Vec<u64>], n_events: usize, out: &mut Vec<VectorTimestamp>) {
    let shards = bufs.len();
    let lns: Vec<usize> = (0..shards).map(|s| local_width(width, s, shards)).collect();
    for i in 0..n_events {
        let mut v = vec![0u64; width];
        for (s, (buf, &ln)) in bufs.iter().zip(&lns).enumerate() {
            let slice = &buf[i * ln..(i + 1) * ln];
            for (dst, &value) in v.iter_mut().skip(s).step_by(shards).zip(slice) {
                *dst = value;
            }
        }
        out.push(VectorTimestamp::from_components(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_core::{replay, BatchReplay, TimestampingEngine};
    use mvc_trace::WorkloadBuilder;

    fn thread_map(n: usize) -> ComponentMap {
        ComponentMap::all_threads(n)
    }

    #[test]
    fn sharded_engine_matches_sequential_engine() {
        let c = WorkloadBuilder::new(6, 9).operations(700).seed(13).build();
        let mut map = thread_map(6);
        map.push(Component::Object(ObjectId(0)));
        for shards in [1, 2, 3, 4, 8, 16] {
            let mut sharded = ShardedEngine::with_components(map.clone(), shards);
            let mut sequential = TimestampingEngine::with_components(map.clone());
            let a = replay(&mut sharded, &c).unwrap();
            let b = replay(&mut sequential, &c).unwrap();
            assert_eq!(a.timestamps, b.timestamps, "{shards} shards");
            assert_eq!(a.report.events, b.report.events);
            assert_eq!(a.report.components, b.report.components);
        }
    }

    #[test]
    fn batches_spanning_multiple_chunks_stay_ordered() {
        let ops = CHUNK_EVENTS * 2 + 37;
        let c = WorkloadBuilder::new(8, 8).operations(ops).seed(3).build();
        let map = thread_map(8);
        let mut sharded = ShardedEngine::with_components(map.clone(), 4);
        let mut sequential = TimestampingEngine::with_components(map);
        let a = replay(&mut sharded, &c).unwrap();
        let b = replay(&mut sequential, &c).unwrap();
        assert_eq!(a.timestamps, b.timestamps);
        assert_eq!(sharded.events_observed(), ops);
    }

    #[test]
    fn uncovered_event_fails_after_the_stampable_prefix() {
        let mut map = ComponentMap::new();
        map.push(Component::Thread(ThreadId(0)));
        let mut engine = ShardedEngine::with_components(map, 2);
        let events = [
            (ThreadId(0), ObjectId(0)),
            (ThreadId(0), ObjectId(1)),
            (ThreadId(9), ObjectId(9)),
            (ThreadId(0), ObjectId(2)),
        ];
        let mut out = Vec::new();
        let err = engine.observe_batch(&events, &mut out).unwrap_err();
        assert_eq!(
            err,
            TimestampError::Uncovered {
                thread: ThreadId(9),
                object: ObjectId(9),
            }
        );
        assert_eq!(out.len(), 2);
        assert_eq!(engine.events_observed(), 2);
        // Recover exactly like the sequential engine: cover and resubmit.
        engine.add_component(Component::Object(ObjectId(9)));
        engine.observe_batch(&events[2..], &mut out).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(engine.events_observed(), 4);
    }

    #[test]
    fn mid_run_component_addition_widens_like_the_sequential_engine() {
        let c = WorkloadBuilder::new(5, 5).operations(300).seed(21).build();
        let half = 150;
        let events: Vec<_> = c.events().map(|e| (e.thread, e.object)).collect();
        let partial = ComponentMap::all_threads(5);
        let mut sharded = ShardedEngine::with_components(partial.clone(), 4);
        let mut sequential = TimestampingEngine::with_components(partial);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        sharded.observe_batch(&events[..half], &mut a).unwrap();
        sequential.observe_batch(&events[..half], &mut b).unwrap();
        // The clock grows mid-run on both engines; old rows pad with zeros.
        for o in 0..5 {
            sharded.add_component(Component::Object(ObjectId(o)));
            sequential.add_component(Component::Object(ObjectId(o)));
        }
        sharded.observe_batch(&events[half..], &mut a).unwrap();
        sequential.observe_batch(&events[half..], &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(sharded.width(), 10);
        assert_eq!(sharded.components(), sequential.components());
    }

    #[test]
    fn a_released_thread_empties_its_rows_and_the_others_stamp_as_batch() {
        let c = WorkloadBuilder::new(6, 6).operations(400).seed(29).build();
        let events: Vec<_> = c.events().map(|e| (e.thread, e.object)).collect();
        let mut map = thread_map(6);
        map.push(Component::Object(ObjectId(0)));
        let mut sharded = ShardedEngine::with_components(map.clone(), 3);
        let mut batch = BatchReplay::new(map);
        let (first, rest) = events.split_at(200);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        sharded.observe_batch(first, &mut a).unwrap();
        batch.observe_batch(first, &mut b).unwrap();

        let gone = ThreadId(2);
        assert!(first.iter().any(|&(t, _)| t == gone));
        sharded.release_thread(gone);
        let rest: Vec<_> = rest.iter().copied().filter(|&(t, _)| t != gone).collect();
        sharded.observe_batch(&rest, &mut a).unwrap();
        batch.observe_batch(&rest, &mut b).unwrap();
        assert_eq!(a, b, "the other threads stamp as the dense reference");
        for shard in &sharded.shards {
            assert_eq!(
                shard.thread_row(gone.index()),
                Some(&[][..]),
                "slot kept, row gone"
            );
            assert!(shard.thread_row(3).is_some_and(|row| !row.is_empty()));
        }
        sharded.release_thread(ThreadId(99));
        assert!(sharded.shards.iter().all(|s| s.thread_row(99).is_none()));
    }

    #[test]
    fn single_observe_is_bit_identical_to_batching() {
        let c = WorkloadBuilder::new(4, 4).operations(60).seed(5).build();
        let map = thread_map(4);
        let mut one_by_one = ShardedEngine::with_components(map.clone(), 3);
        let singles: Vec<_> = c
            .events()
            .map(|e| Timestamper::observe(&mut one_by_one, e.thread, e.object).unwrap())
            .collect();
        let mut batched = ShardedEngine::with_components(map, 3);
        let run = replay(&mut batched, &c).unwrap();
        assert_eq!(singles, run.timestamps);
    }

    #[test]
    fn zero_shards_clamps_to_one_and_empty_engine_rejects() {
        let mut e = ShardedEngine::new(0);
        assert_eq!(e.shards.len(), 1);
        assert_eq!(e.width(), 0);
        assert!(!e.covers(ThreadId(0), ObjectId(0)));
        let err = Timestamper::observe(&mut e, ThreadId(0), ObjectId(0)).unwrap_err();
        assert!(matches!(err, TimestampError::Uncovered { .. }));
        assert_eq!(e.events_observed(), 0);
    }

    #[test]
    fn add_component_is_idempotent_and_object_preferred() {
        let mut e = ShardedEngine::new(2);
        let a = e.add_component(Component::Object(ObjectId(3)));
        let b = e.add_component(Component::Object(ObjectId(3)));
        assert_eq!(a, b);
        assert_eq!(e.width(), 1);
        e.add_component(Component::Thread(ThreadId(1)));
        // Object component preferred when both endpoints are covered,
        // exactly like the sequential engine.
        let stamp = Timestamper::observe(&mut e, ThreadId(1), ObjectId(3)).unwrap();
        assert_eq!(stamp.as_slice(), &[1, 0]);
    }

    #[test]
    fn finish_reports_name_events_and_components() {
        let map = thread_map(2);
        let mut e = ShardedEngine::with_components(map.clone(), 2);
        Timestamper::observe(&mut e, ThreadId(0), ObjectId(0)).unwrap();
        let report = e.finish();
        assert_eq!(report.name, "sharded-engine");
        assert_eq!(report.events, 1);
        assert_eq!(report.components, map);
        assert_eq!(e.name(), "sharded-engine");
    }
}
