//! Reproduces the paper's running example (Figures 1–3): the 4-thread /
//! 4-object computation, its thread–object bipartite graph with the minimum
//! vertex cover highlighted, and the mixed-clock timestamps of every event.
//!
//! Run with `cargo run --example paper_example`.

#![allow(clippy::print_stdout, reason = "an example reports on stdout")]

use mixed_vector_clock::prelude::*;
use mvc_graph::dot::to_dot;
use mvc_trace::examples::paper_figure1;

fn main() -> Result<(), TimestampError> {
    // Figure 1: the computation.
    let computation = paper_figure1();
    println!("=== Figure 1: computation ===");
    for event in computation.events() {
        println!(
            "  {}: thread T{} operates on object O{}",
            event.id,
            event.thread.index() + 1,
            event.object.index() + 1
        );
    }

    // Figure 2: the thread-object bipartite graph and its minimum vertex cover.
    let plan = OfflineOptimizer::new().plan_for_computation(&computation);
    println!("\n=== Figure 2: thread-object bipartite graph ===");
    println!(
        "{} threads, {} objects, {} edges, maximum matching = {}",
        computation.thread_count(),
        computation.object_count(),
        plan.graph().edge_count(),
        plan.matching_size()
    );
    println!("minimum vertex cover (mixed clock components):");
    for component in plan.components().components() {
        println!(
            "  - {component} (paper numbering: {})",
            paper_name(component)
        );
    }
    println!(
        "\nGraphviz DOT (filled vertices = cover):\n{}",
        to_dot(plan.graph(), Some(plan.cover()))
    );

    // Figure 3: timestamps of every event under the mixed clock.
    println!("=== Figure 3: mixed-vector-clock timestamps ===");
    let stamps = replay(&mut plan.timestamper(), &computation)?.timestamps;
    for event in computation.events() {
        println!(
            "  [T{}, O{}]  ->  {}",
            event.thread.index() + 1,
            event.object.index() + 1,
            stamps[event.id.index()]
        );
    }

    // The ordering argued in Section III-C: [T2,O1] -> [T3,O3].
    let t2_o1 = &stamps[0];
    let t3_o3 = &stamps[4];
    println!(
        "\n[T2,O1] {} happened before [T3,O3] {}: {}",
        t2_o1,
        t3_o3,
        t2_o1.strictly_less_than(t3_o3)
    );

    assert_eq!(plan.clock_size(), 3);
    assert!(mvc_core::verify_assignment(&computation, &stamps));
    println!("\nreproduced: mixed clock of size 3 (< 4 threads, < 4 objects), valid ✔");
    Ok(())
}

fn paper_name(component: &Component) -> String {
    match component {
        Component::Thread(t) => format!("T{}", t.index() + 1),
        Component::Object(o) => format!("O{}", o.index() + 1),
    }
}
