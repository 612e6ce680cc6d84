//! The sharded timestamping engine.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use mvc_clock::{Component, ComponentMap, VectorTimestamp};
use mvc_core::{TimestampError, TimestampReport, Timestamper};
use mvc_trace::{ObjectId, ThreadId};

use crate::slicing::{local_width, EventRec};
use crate::worker::{spawn, Chunk};

/// Events per chunk: the granularity at which batches are broadcast to the
/// shards and merged back.  Large enough to amortise one channel round-trip
/// per shard over thousands of events, small enough that the merge stage
/// pipelines with the shards instead of waiting for the whole batch.
pub(crate) const CHUNK_EVENTS: usize = 4096;

/// How many chunks may be in flight (sent to the shards but not yet merged)
/// at once: deep enough that the merge never starves the workers, shallow
/// enough that reply queues hold O(PIPELINE_CHUNKS × width × CHUNK_EVENTS)
/// slice values instead of the whole batch.
pub(crate) const PIPELINE_CHUNKS: usize = 4;

/// Handles into the process-global metrics registry, resolved once per
/// engine. All recording is chunk-granular (a chunk is up to
/// [`CHUNK_EVENTS`] events), so the engine pays a few `Relaxed` atomics per
/// chunk round-trip and nothing per event. Names are catalogued in
/// `docs/OBSERVABILITY.md`.
#[derive(Debug)]
struct EngineMetrics {
    /// `shard.chunk_ns` (histogram, ns): router-side latency of collecting
    /// one chunk's replies from every shard.
    chunk_ns: mvc_obs::Histogram,
    /// `shard.inflight_chunks` (gauge, chunks): chunks broadcast to the
    /// workers but not yet merged, sampled per merge step (bounded by
    /// [`PIPELINE_CHUNKS`]).
    inflight_chunks: mvc_obs::Gauge,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        let registry = mvc_obs::global();
        Self {
            chunk_ns: registry.histogram("shard.chunk_ns"),
            inflight_chunks: registry.gauge("shard.inflight_chunks"),
        }
    }
}

/// The sharded counterpart of
/// [`TimestampingEngine`](mvc_core::TimestampingEngine): the same incremental
/// mixed-vector-clock protocol, with the clock's components striped across
/// `N` worker threads (component `k` on shard `k % N`) that each own their
/// slice of every per-thread / per-object vector (see the `slicing` module).
///
/// The engine implements [`Timestamper`], so every existing driver —
/// [`replay`](mvc_core::replay), `TraceSession::live`, the benches, the
/// `mvc-eval` CLI — picks it up unchanged.  A batch
/// ([`Timestamper::observe_batch`]) is routed once, broadcast to the shards
/// in chunks, processed slice-parallel, and merged back in arrival order.
/// Observing single events works and is bit-identical, but pays one full
/// fan-out per event; drive the engine with batches.
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
    /// Process-global metric handles (resolved once, recorded per chunk).
    metrics: EngineMetrics,
    components: ComponentMap,
    /// One chunk queue per shard worker.
    inputs: Vec<Sender<Chunk>>,
    /// One reply channel per shard worker (slice values, event-major).
    replies: Vec<Receiver<Vec<u64>>>,
    handles: Vec<JoinHandle<()>>,
    events_observed: usize,
}

impl ShardedEngine {
    /// Creates an engine with no components over `shards` worker threads
    /// (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        Self::with_components(ComponentMap::new(), shards)
    }

    /// Creates an engine pre-loaded with a component map (e.g. one computed
    /// by the offline optimizer).
    pub fn with_components(components: ComponentMap, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut inputs = Vec::with_capacity(shards);
        let mut replies = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for s in 0..shards {
            let (to_shard, input) = unbounded();
            let (output, reply) = unbounded();
            handles.push(spawn(s, input, output));
            inputs.push(to_shard);
            replies.push(reply);
        }
        let mut engine = ShardedEngine {
            metrics: EngineMetrics::default(),
            components: ComponentMap::new(),
            inputs,
            replies,
            handles,
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

    /// The batch pipeline: route → broadcast in chunks → apply per shard →
    /// order-preserving merge.  See the crate docs for the merge invariant.
    fn process_batch(
        &mut self,
        events: &[(ThreadId, ObjectId)],
        out: &mut Vec<VectorTimestamp>,
    ) -> Result<(), TimestampError> {
        let width = self.components.len();
        let shards = self.inputs.len();
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
        let n = recs.len();
        self.events_observed += n;
        out.reserve(n);
        let windows: Vec<(usize, usize)> = (0..n)
            .step_by(CHUNK_EVENTS)
            .map(|start| (start, (start + CHUNK_EVENTS).min(n)))
            .collect();
        // Keep a bounded window of chunks in flight: the shards work ahead of
        // the merge, but the reply queues never buffer more than
        // PIPELINE_CHUNKS chunks of slice data — without the bound, shards
        // that outrun the merge would transiently hold the whole batch's
        // slices (O(events × width)) in memory.
        let shared = Arc::new(recs);
        let mut sent = 0;
        let mut bufs: Vec<Vec<u64>> = Vec::with_capacity(shards);
        for (merged, &(start, end)) in windows.iter().enumerate() {
            while sent < windows.len() && sent < merged + PIPELINE_CHUNKS {
                let (s, e) = windows[sent];
                for (shard, input) in self.inputs.iter().enumerate() {
                    #[expect(
                        clippy::expect_used,
                        reason = "workers only exit after their input channel is dropped, which happens in our Drop"
                    )]
                    input
                        .send(Chunk {
                            ln: local_width(width, shard, shards),
                            events: Arc::clone(&shared),
                            start: s,
                            end: e,
                        })
                        .expect("shard worker is alive");
                }
                sent += 1;
            }
            self.metrics.inflight_chunks.set((sent - merged) as i64);
            bufs.clear();
            let chunk_span = self.metrics.chunk_ns.span();
            for reply in &self.replies {
                #[expect(
                    clippy::expect_used,
                    reason = "a worker replies once per chunk or the process is already panicking; see worker.rs"
                )]
                bufs.push(reply.recv().expect("shard worker reply"));
            }
            chunk_span.stop();
            merge_into(width, &bufs, end - start, out);
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

    #[expect(
        clippy::expect_used,
        reason = "process_batch's contract is one stamp per input event; one event in, one stamp out"
    )]
    fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        let mut out = Vec::with_capacity(1);
        self.process_batch(&[(thread, object)], &mut out)?;
        Ok(out.pop().expect("one stamp for one event"))
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

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Dropping the senders lets every worker drain its queue and exit;
        // dropping the reply receivers first would also work, but joining
        // keeps thread teardown deterministic for tests.
        self.inputs.clear();
        self.replies.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
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
    use mvc_core::{replay, TimestampingEngine};
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
        assert_eq!(e.inputs.len(), 1);
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

    #[test]
    fn dropping_a_threaded_engine_joins_its_workers() {
        // Nothing to assert beyond "this terminates": Drop joins every
        // worker, so a hang here would fail the test by timeout.
        for _ in 0..3 {
            let mut e = ShardedEngine::with_components(thread_map(2), 4);
            Timestamper::observe(&mut e, ThreadId(0), ObjectId(0)).unwrap();
        }
    }
}
