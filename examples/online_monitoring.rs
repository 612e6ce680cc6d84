//! Online monitoring: events arrive one at a time (no prior knowledge of the
//! thread–object interaction), and the online mechanisms decide which threads
//! and objects become clock components.  Every mechanism is selected **by
//! name** through the [`MechanismRegistry`] and driven as a
//! `Box<dyn OnlineMechanism>` — no concrete mechanism types appear here —
//! and compared against the offline optimum on the same stream.
//!
//! Run with `cargo run --example online_monitoring`.

#![allow(clippy::print_stdout, reason = "an example reports on stdout")]

use mixed_vector_clock::prelude::*;
use mvc_trace::generator::random_graph_computation;

fn main() {
    // A sparse, skewed interaction graph in the paper's evaluation regime
    // (50 threads, 50 objects, density ~0.05, a small hot set receiving most
    // traffic) — where the Popularity mechanism shines.
    let (_, computation) = random_graph_computation(
        50,
        50,
        0.05,
        GraphScenario::Nonuniform {
            hot_fraction: 0.15,
            hot_boost: 10.0,
        },
        2024,
    );
    println!(
        "streaming {} events ({} threads, {} objects active)",
        computation.len(),
        computation.thread_count(),
        computation.object_count()
    );

    // Offline optimum for reference (requires the whole computation up front).
    let optimal = OfflineOptimizer::new()
        .plan_for_computation(&computation)
        .clock_size();

    let registry = MechanismRegistry::new().seed(7);
    println!("\nfinal mixed-clock size by mechanism (offline optimum = {optimal}):");
    for &name in MechanismRegistry::names() {
        let mechanism = registry.from_name(name).expect("registry name");
        let run = OnlineTimestamper::new(mechanism)
            .run(&computation)
            .expect("registry mechanisms cover their own events");
        // Every online run must still be a valid vector clock.
        assert!(mvc_core::verify_assignment(&computation, &run.timestamps));
        let size = run.stats.clock_size();
        let bar = "#".repeat(size / 2);
        println!("  {name:<18} {size:>4}  {bar}");
    }

    // Live session demo: a traced execution timestamped while it runs, via
    // the unified Timestamper trait, then asked ordering questions through
    // its stamps.
    let session = TraceSession::new();
    let producer = session.register_thread("producer");
    let consumer = session.register_thread("consumer");
    let bystander = session.register_thread("bystander");
    let queue = session.shared_object("queue", Vec::<u64>::new());
    let log = session.shared_object("log", 0u64);
    let mut live = session.live(OnlineTimestamper::new(
        registry.from_name("adaptive").expect("registry name"),
    ));
    for i in 0..5 {
        queue.write(&producer, |q| q.push(i));
    }
    queue.write(&consumer, |q| q.pop());
    log.write(&bystander, |n| *n += 1);
    live.pump().expect("adaptive covers its own events");
    let width_so_far = live.clock_size();
    let run = live.finish().expect("drained");

    // `LiveRun` pads every stamp to the final width, so any two compare.
    let stamp_of = |thread: &ThreadHandle| {
        let position = run
            .computation
            .events()
            .position(|e| e.thread == thread.id())
            .expect("the thread ran");
        &run.timestamps[position]
    };
    let enqueue = stamp_of(&producer);
    let dequeue = stamp_of(&consumer);
    let unrelated = stamp_of(&bystander);
    println!(
        "\nlive session demo: {} events stamped live, final width {}",
        run.report.events,
        run.report.width()
    );
    println!(
        "  enqueue -> dequeue ordered:   {}",
        enqueue.compare(dequeue) == ClockOrd::Before
    );
    println!(
        "  enqueue || unrelated:         {}",
        enqueue.compare(unrelated) == ClockOrd::Concurrent
    );
    println!("  clock size so far:            {width_so_far}");
    assert!(enqueue.strictly_less_than(dequeue));
    assert_eq!(enqueue.compare(unrelated), ClockOrd::Concurrent);
}
