//! Integration tests spanning the runtime substrate and the clock stack:
//! real multithreaded executions are traced, analysed offline, and monitored
//! online.

use std::thread;

use mixed_vector_clock::prelude::*;

#[test]
fn traced_execution_feeds_the_offline_optimizer() {
    let session = TraceSession::new();
    let queues: Vec<_> = (0..4)
        .map(|i| session.shared_object(&format!("queue-{i}"), Vec::<u64>::new()))
        .collect();

    let mut workers = Vec::new();
    // Producers each own one queue; consumers drain all queues.
    for (i, queue) in queues.iter().enumerate() {
        let handle = session.register_thread(&format!("producer-{i}"));
        let queue = queue.clone();
        workers.push(thread::spawn(move || {
            for item in 0..25u64 {
                queue.write(&handle, |q| q.push(item));
            }
        }));
    }
    for i in 0..2 {
        let handle = session.register_thread(&format!("consumer-{i}"));
        let queues: Vec<_> = queues.to_vec();
        workers.push(thread::spawn(move || {
            let mut drained = 0usize;
            for _ in 0..10 {
                for queue in &queues {
                    drained += queue.write(&handle, |q| q.drain(..).count());
                }
            }
            assert!(drained <= 100, "cannot drain more than was produced");
        }));
    }
    for worker in workers {
        worker.join().unwrap();
    }

    let computation = session.into_computation();
    assert_eq!(computation.thread_count(), 6);
    assert_eq!(computation.object_count(), 4);
    assert_eq!(computation.len(), 4 * 25 + 2 * 10 * 4);

    // The per-object chains in the trace reflect the real serialization
    // order, so the optimal mixed clock must be a valid vector clock.
    let plan = OfflineOptimizer::new().plan_for_computation(&computation);
    assert!(plan.clock_size() <= 4, "4 objects always form a cover here");
    let stamps = replay(&mut plan.timestamper(), &computation)
        .unwrap()
        .timestamps;
    assert!(mvc_core::verify_assignment(&computation, &stamps));
}

#[test]
fn live_session_orders_cross_thread_handoffs() {
    let session = TraceSession::new();
    let flag = session.shared_object("flag", false);
    let other = session.shared_object("other", 0u64);
    let writer = session.register_thread("writer");
    let reader = session.register_thread("reader");
    let bystander = session.register_thread("bystander");
    let ids = [writer.id(), reader.id(), bystander.id()];
    let mut live = session.live(OnlineTimestamper::new(Popularity::new()));

    // The writer thread writes the flag, then the reader thread reads it: the live stamps must
    // show the ordering through the shared object even across OS threads.
    let writer_flag = flag.clone();
    thread::spawn(move || writer_flag.write(&writer, |f| *f = true))
        .join()
        .unwrap();
    thread::spawn(move || assert!(flag.read(&reader, |f| *f)))
        .join()
        .unwrap();
    // An unrelated write, on another object by another thread.
    other.write(&bystander, |n| *n += 1);
    live.pump().unwrap();
    let run = live.finish().unwrap();

    let [write_stamp, read_stamp, other_stamp] = ids.map(|thread| {
        let position = run
            .computation
            .events()
            .position(|e| e.thread == thread)
            .unwrap();
        &run.timestamps[position]
    });
    assert!(write_stamp.strictly_less_than(read_stamp));
    assert!(!read_stamp.strictly_less_than(write_stamp));
    assert_eq!(write_stamp.compare(other_stamp), ClockOrd::Concurrent);
}

#[test]
fn live_session_matches_post_hoc_batch_replay_on_the_same_interleaving() {
    // The acceptance bar for the unified API: a real multithreaded execution
    // timestamped *live* (events stamped as they drain from the channel) must
    // be indistinguishable from recording the computation and batch-replaying
    // it afterwards.
    let session = TraceSession::new();
    let queues: Vec<_> = (0..3)
        .map(|i| session.shared_object(&format!("queue-{i}"), Vec::<u64>::new()))
        .collect();
    let mut workers = Vec::new();
    for i in 0..4 {
        let handle = session.register_thread(&format!("worker-{i}"));
        let queues = queues.to_vec();
        workers.push(thread::spawn(move || {
            for item in 0..20u64 {
                queues[(i + item as usize) % 3].write(&handle, |q| q.push(item));
            }
        }));
    }

    let mechanism = MechanismRegistry::new().from_name("popularity").unwrap();
    let mut live = session.live(OnlineTimestamper::new(mechanism));
    // Pump concurrently with the workers; whatever is left is drained by
    // finish() after the joins.
    live.pump().unwrap();
    for worker in workers {
        worker.join().unwrap();
    }
    let run = live.finish().unwrap();
    assert_eq!(run.computation.len(), 80);
    assert_eq!(run.report.events, 80);

    // Post-hoc batch replay of the identical interleaving, with a fresh copy
    // of the same deterministic mechanism.
    let batch = OnlineTimestamper::new(Popularity::new())
        .run(&run.computation)
        .unwrap();
    assert_eq!(run.timestamps, batch.timestamps);

    // The live timestamps are a valid vector clock for the drained order.
    assert!(mvc_core::verify_assignment(
        &run.computation,
        &run.timestamps
    ));
}

#[test]
fn conflict_analyzer_finds_non_atomic_invariant_updates() {
    let session = TraceSession::new();
    let left = session.shared_object("left", 0i64);
    let right = session.shared_object("right", 0i64);

    let mut workers = Vec::new();
    for i in 0..3 {
        let handle = session.register_thread(&format!("mover-{i}"));
        let left = left.clone();
        let right = right.clone();
        workers.push(thread::spawn(move || {
            for _ in 0..10 {
                left.write(&handle, |v| *v -= 1);
                right.write(&handle, |v| *v += 1);
            }
        }));
    }
    for worker in workers {
        worker.join().unwrap();
    }

    let computation = session.into_computation();
    let analyzer = ConflictAnalyzer::with_groups([vec![ObjectId(0), ObjectId(1)]]);
    let conflicts = analyzer.analyze(&computation);
    assert!(
        !conflicts.is_empty(),
        "three movers interleaving over two objects must produce concurrent cross-object pairs"
    );
    // Every reported pair involves different threads and conflicting kinds.
    for pair in conflicts {
        let first = computation.event(pair.first);
        let second = computation.event(pair.second);
        assert_ne!(first.thread, second.thread);
        assert!(first.kind.conflicts_with(second.kind));
    }
}
