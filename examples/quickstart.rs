//! Quickstart: build a small computation, compute the optimal mixed vector
//! clock, timestamp every event and compare a few pairs.
//!
//! Run with `cargo run --example quickstart`.

#![allow(clippy::print_stdout, reason = "an example reports on stdout")]

use mixed_vector_clock::prelude::*;

fn main() -> Result<(), TimestampError> {
    // A small pipeline: producer -> queue -> consumer, plus an independent
    // logger thread writing to its own object.
    let mut computation = Computation::new();
    let producer = ThreadId(0);
    let consumer = ThreadId(1);
    let logger = ThreadId(2);
    let queue = ObjectId(0);
    let sink = ObjectId(1);
    let log = ObjectId(2);

    let produce = computation.record_op(producer, queue, OpKind::Write);
    let consume = computation.record_op(consumer, queue, OpKind::Read);
    let store = computation.record_op(consumer, sink, OpKind::Write);
    let log_entry = computation.record_op(logger, log, OpKind::Write);

    // 1. Offline optimal plan: which threads/objects become clock components?
    let plan = OfflineOptimizer::new().plan_for_computation(&computation);
    println!(
        "computation: {} events, {} threads, {} objects",
        computation.len(),
        computation.thread_count(),
        computation.object_count()
    );
    println!("optimal mixed clock components ({}):", plan.clock_size());
    for component in plan.components().components() {
        println!("  - {component}");
    }
    println!(
        "traditional clocks would need {} (threads) or {} (objects) components",
        computation.thread_count(),
        computation.object_count()
    );

    // 2. Timestamp every event with the optimal mixed clock.
    let stamps = replay(&mut plan.timestamper(), &computation)?.timestamps;
    for event in computation.events() {
        println!("  {event}  ->  {}", stamps[event.id.index()]);
    }

    // 3. Ask causality questions by comparing timestamps.
    let ordered = stamps[produce.index()].compare(&stamps[store.index()]);
    let unrelated = stamps[consume.index()].compare(&stamps[log_entry.index()]);
    println!("produce vs store:   {ordered}");
    println!("consume vs log:     {unrelated}");

    // 4. Sanity: the mixed clock characterises happened-before exactly.
    let report = ClockSizeReport::analyze(&computation);
    println!("{report}");
    assert!(mvc_core::verify_assignment(&computation, &stamps));
    println!("mixed clock verified against the happened-before oracle ✔");
    Ok(())
}
