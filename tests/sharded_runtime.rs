//! Tier-1 smoke test: a real multi-threaded `TraceSession` stamped live by
//! the sharded engine, end to end.
//!
//! Four worker threads hammer shared objects; the drained interleaving is
//! stamped by a `ShardedEngine` through `LiveSession`'s batched pump path
//! (`observe_batch`), and the result is cross-checked against the
//! sequential engine replaying the identical interleaving — the whole
//! scale-out stack (session → channel drain → sharded batch pipeline →
//! order-preserving merge) in one test.

use std::thread;

use mvc_clock::validate::satisfies_vector_clock_condition;
use mvc_clock::ComponentMap;
use mvc_core::{replay, TimestampingEngine};
use mvc_runtime::TraceSession;
use mvc_shard::ShardedEngine;

#[test]
fn multithreaded_live_session_through_threaded_sharded_engine() {
    let session = TraceSession::new();
    let counter = session.shared_object("counter", 0u64);
    let flag = session.shared_object("flag", false);
    let mut handles = Vec::new();
    for i in 0..4 {
        let worker = session.register_thread(&format!("worker-{i}"));
        let counter = counter.clone();
        let flag = flag.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..50 {
                counter.write(&worker, |v| *v += 1);
            }
            flag.write(&worker, |v| *v = true);
        }));
    }

    // All four threads are registered up front, so the thread-sided cover is
    // known before any event drains; objects appear as they are touched.
    let map = ComponentMap::all_threads(4);
    let live = session.live(ShardedEngine::with_components(map.clone(), 4));
    for handle in handles {
        handle.join().unwrap();
    }
    let run = live.finish().unwrap();

    assert_eq!(run.computation.len(), 204, "4 threads x (50 writes + flag)");
    assert_eq!(run.timestamps.len(), 204);
    assert_eq!(run.report.events, 204);
    assert_eq!(run.report.name, "sharded-engine");

    // The live sharded stamps equal a sequential replay of the identical
    // drained interleaving, bit for bit.
    let mut sequential = TimestampingEngine::with_components(map);
    let reference = replay(&mut sequential, &run.computation).unwrap();
    assert_eq!(run.timestamps, reference.timestamps);

    // And they really are a vector clock for that interleaving: comparison
    // order mirrors happened-before exactly.
    let oracle = run.computation.causality_oracle();
    assert!(satisfies_vector_clock_condition(
        &run.computation,
        &run.timestamps,
        &oracle
    ));
}

#[test]
fn sharded_engine_recovers_live_after_component_addition() {
    // An engine whose cover misses an object: the pump fails without losing
    // the operation, the missing component is added, and the held-back
    // event drains on the next pump — the same recovery contract as the
    // sequential engine, through the batched drain path.
    let session = TraceSession::new();
    let t = session.register_thread("t");
    let o = session.shared_object("o", 0u8);
    let mut live = session.live(ShardedEngine::new(2));
    o.write(&t, |v| *v = 1);
    let err = live.pump().unwrap_err();
    assert!(matches!(
        err.as_timestamp_error(),
        Some(mvc_core::TimestampError::Uncovered { .. })
    ));
    assert_eq!(live.computation().len(), 0, "failed event is not recorded");

    live.timestamper_mut()
        .add_component(mvc_clock::Component::Object(mvc_trace::ObjectId(0)));
    assert_eq!(live.pump().unwrap(), 1, "held-back event is retried");
    let run = live.finish().unwrap();
    assert_eq!(run.computation.len(), 1);
    assert_eq!(run.timestamps.len(), 1);
}
