//! Offline trace analysis: generate several large synthetic workloads (or
//! decode a recorded binary trace), run the offline optimal algorithm on
//! each, and report how much smaller the mixed vector clock is than the
//! traditional thread- and object-based clocks.
//!
//! Run with `cargo run --example offline_analysis`.

#![allow(clippy::print_stdout, reason = "an example reports on stdout")]

use mixed_vector_clock::prelude::*;
use mvc_trace::codec;
use mvc_trace::{WorkloadBuilder, WorkloadKind};

fn main() {
    // Keep the interaction graphs sparse (the paper's regime): the number of
    // operations is small relative to threads × objects, so most thread-object
    // pairs never interact and the minimum cover can undercut both sides.
    let workloads: Vec<(&str, usize, WorkloadKind)> = vec![
        ("uniform sparse", 250, WorkloadKind::Uniform),
        (
            "nonuniform (hot 10%, 20x)",
            900,
            WorkloadKind::Nonuniform {
                hot_fraction: 0.1,
                hot_boost: 20.0,
            },
        ),
        (
            "producer-consumer (4 queues)",
            5_000,
            WorkloadKind::ProducerConsumer { queues: 4 },
        ),
        (
            "lock-striped (2% cross-stripe)",
            3_000,
            WorkloadKind::LockStriped {
                cross_stripe_prob: 0.02,
            },
        ),
        ("phased (4 phases)", 900, WorkloadKind::Phased { phases: 4 }),
    ];

    println!(
        "{:<32} {:>7} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "workload", "events", "threads", "objects", "mixed", "chain", "reduction"
    );
    for (name, operations, kind) in workloads {
        let computation = WorkloadBuilder::new(64, 96)
            .operations(operations)
            .kind(kind)
            .seed(99)
            .build();
        let report = ClockSizeReport::analyze(&computation);
        println!(
            "{:<32} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8.0}%",
            name,
            report.events,
            report.thread_clock,
            report.object_clock,
            report.optimal_mixed,
            report.chain_clock,
            (1.0 - report.reduction_ratio()) * 100.0
        );
    }

    // Round-trip one workload through the binary trace codec, the way a
    // recorded production trace would be stored and analysed later.
    let recorded = WorkloadBuilder::new(32, 32)
        .operations(5_000)
        .kind(WorkloadKind::Nonuniform {
            hot_fraction: 0.1,
            hot_boost: 12.0,
        })
        .seed(7)
        .build();
    let encoded = codec::encode(&recorded);
    println!(
        "\nencoded a {}-event trace into {} bytes ({:.2} bytes/event)",
        recorded.len(),
        encoded.len(),
        encoded.len() as f64 / recorded.len() as f64
    );
    let decoded = codec::decode(&encoded).expect("round-trip decode");
    let plan = OfflineOptimizer::new().plan_for_computation(&decoded);
    println!(
        "replayed trace: optimal mixed clock has {} components (threads {}, objects {})",
        plan.clock_size(),
        decoded.thread_count(),
        decoded.object_count()
    );
}
