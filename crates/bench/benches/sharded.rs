//! Sharded vs. sequential engine throughput.
//!
//! Both engines replay the identical workload with the identical
//! offline-optimal component map through the unified batch path
//! ([`mvc_core::replay`] → `observe_batch`), so the comparison isolates the
//! engine: routing, slice arithmetic, merge, and queue traffic.  Two streams
//! are measured:
//!
//! * `uniform` — the acceptance stream: 64 threads × 64 objects, uniformly
//!   random pairs; the offline-optimal clock is wide (≈64 components), so
//!   there is real slice work to divide.
//! * `phase-shift` — the adversarial partition-churn family: the active
//!   object window slides over the object space, so per-object rows keep
//!   going cold — the worst case for the shards' working sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mvc_core::{replay, OfflineOptimizer, TimestampingEngine};
use mvc_shard::ShardedEngine;
use mvc_trace::{Computation, WorkloadBuilder, WorkloadKind};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const EVENTS: usize = 50_000;

fn stream(kind: WorkloadKind, seed: u64) -> Computation {
    WorkloadBuilder::new(64, 64)
        .operations(EVENTS)
        .kind(kind)
        .seed(seed)
        .build()
}

fn bench_stream(c: &mut Criterion, name: &str, workload: Computation) {
    let plan = OfflineOptimizer::new().plan_for_computation(&workload);
    let map = plan.components().clone();

    let mut group = c.benchmark_group(format!("sharded-{name}"));
    group.throughput(Throughput::Elements(EVENTS as u64));
    group.sample_size(10);
    // `keep` holds each iteration's run until the next one has allocated:
    // dropping ~25 MB of stamps all at once would otherwise let glibc trim
    // the arena top between iterations, and the following iteration would
    // measure page faults instead of the engine (an asymmetric tax — the
    // sequential engine's continuous churn never triggers the trim).
    group.bench_with_input(BenchmarkId::new("sequential", EVENTS), &workload, |b, w| {
        let mut keep = None;
        b.iter(|| {
            let mut engine = TimestampingEngine::with_components(map.clone());
            let run = replay(&mut engine, w).expect("covered");
            let stamped = run.timestamps.len();
            keep = Some(run);
            stamped
        })
    });
    for shards in SHARD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new(format!("sharded-{shards}x"), EVENTS),
            &workload,
            |b, w| {
                let mut keep = None;
                b.iter(|| {
                    let mut engine = ShardedEngine::with_components(map.clone(), shards);
                    let run = replay(&mut engine, w).expect("covered");
                    let stamped = run.timestamps.len();
                    keep = Some(run);
                    stamped
                })
            },
        );
    }
    group.finish();
}

fn bench_uniform(c: &mut Criterion) {
    bench_stream(c, "uniform", stream(WorkloadKind::Uniform, 42));
}

fn bench_phase_shift(c: &mut Criterion) {
    bench_stream(
        c,
        "phase-shift",
        stream(
            WorkloadKind::PhaseShift {
                period: 256,
                shift: 1,
            },
            42,
        ),
    );
}

criterion_group!(benches, bench_uniform, bench_phase_shift);
criterion_main!(benches);
