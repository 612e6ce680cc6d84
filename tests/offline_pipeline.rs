//! End-to-end integration tests of the offline pipeline: workload generation
//! → bipartite graph → matching → minimum cover → mixed clock → validity.

use mixed_vector_clock::prelude::*;
use mvc_clock::chain;
use mvc_clock::validate::satisfies_vector_clock_condition;
use mvc_trace::examples::paper_figure1;
use mvc_trace::{WorkloadBuilder, WorkloadKind};

/// The paper's four clocks on one computation, as `(name, size, stamps)`:
/// the thread, object and optimal mixed clocks are one protocol
/// (`BatchReplay`) under three component maps, the chain clock is
/// `chain::decompose`.
fn all_clocks(
    computation: &Computation,
    plan: &OfflinePlan,
) -> [(&'static str, usize, Vec<VectorTimestamp>); 4] {
    let stamp = |name, map: ComponentMap| {
        let size = map.len();
        let stamps = replay(&mut BatchReplay::new(map), computation)
            .unwrap()
            .timestamps;
        (name, size, stamps)
    };
    let chain = chain::decompose(computation);
    [
        stamp(
            "thread-vector-clock",
            ComponentMap::all_threads(computation.thread_index_bound()),
        ),
        stamp(
            "object-vector-clock",
            ComponentMap::all_objects(computation.object_index_bound()),
        ),
        stamp("mixed-vector-clock", plan.components().clone()),
        ("chain-clock", chain.chains, chain.timestamps),
    ]
}

#[test]
fn paper_running_example_end_to_end() {
    let computation = paper_figure1();
    let plan = OfflineOptimizer::new().plan_for_computation(&computation);

    // The paper's claims about Figures 1-3.
    assert_eq!(plan.clock_size(), 3);
    assert_eq!(plan.matching_size(), 3);
    assert!(plan.clock_size() < computation.thread_count());
    assert!(plan.clock_size() < computation.object_count());

    // Every clock implementation agrees that it is a valid vector clock.
    let oracle = computation.causality_oracle();
    for (name, size, stamps) in all_clocks(&computation, &plan) {
        assert!(
            satisfies_vector_clock_condition(&computation, &stamps, &oracle),
            "{name} invalid on the paper example"
        );
        assert!(
            size >= plan.clock_size() || name == "mixed-vector-clock" || name == "chain-clock",
            "{name} reported size {size} below the optimum {}",
            plan.clock_size()
        );
    }
}

#[test]
fn all_clock_kinds_induce_the_same_order_on_random_workloads() {
    for seed in 0..5u64 {
        let computation = WorkloadBuilder::new(10, 10)
            .operations(150)
            .kind(WorkloadKind::Nonuniform {
                hot_fraction: 0.3,
                hot_boost: 4.0,
            })
            .seed(seed)
            .build();
        let plan = OfflineOptimizer::new().plan_for_computation(&computation);
        let [(_, _, thread), (_, _, object), (_, _, mixed), (_, _, chain)] =
            all_clocks(&computation, &plan);

        for i in 0..computation.len() {
            for j in 0..computation.len() {
                if i == j {
                    continue;
                }
                let reference = thread[i].strictly_less_than(&thread[j]);
                assert_eq!(
                    reference,
                    object[i].strictly_less_than(&object[j]),
                    "object clock disagrees (seed {seed})"
                );
                assert_eq!(
                    reference,
                    mixed[i].strictly_less_than(&mixed[j]),
                    "mixed clock disagrees (seed {seed})"
                );
                assert_eq!(
                    reference,
                    chain[i].strictly_less_than(&chain[j]),
                    "chain clock disagrees (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn optimal_mixed_clock_is_never_larger_and_often_smaller() {
    let mut strictly_smaller = 0;
    for seed in 0..20u64 {
        let computation = WorkloadBuilder::new(30, 30)
            .operations(120)
            .kind(WorkloadKind::Nonuniform {
                hot_fraction: 0.15,
                hot_boost: 10.0,
            })
            .seed(seed)
            .build();
        let report = ClockSizeReport::analyze(&computation);
        assert!(report.optimal_mixed <= report.naive_best);
        if report.optimal_mixed < report.naive_best {
            strictly_smaller += 1;
        }
    }
    assert!(
        strictly_smaller >= 15,
        "expected most skewed sparse workloads to benefit, got {strictly_smaller}/20"
    );
}

#[test]
fn trace_codec_round_trip_preserves_the_optimal_plan() {
    let original = WorkloadBuilder::new(24, 40)
        .operations(2_000)
        .kind(WorkloadKind::LockStriped {
            cross_stripe_prob: 0.1,
        })
        .seed(3)
        .build();
    let bytes = mvc_trace::codec::encode(&original);
    let decoded = mvc_trace::codec::decode(&bytes).expect("decode");
    assert_eq!(original, decoded);

    let plan_a = OfflineOptimizer::new().plan_for_computation(&original);
    let plan_b = OfflineOptimizer::new().plan_for_computation(&decoded);
    assert_eq!(plan_a.clock_size(), plan_b.clock_size());
    assert_eq!(plan_a.cover(), plan_b.cover());
}

#[test]
fn degenerate_computations_are_handled() {
    // Single thread, many objects: the optimal clock is that one thread.
    let single_thread = WorkloadBuilder::new(1, 20).operations(100).seed(1).build();
    let plan = OfflineOptimizer::new().plan_for_computation(&single_thread);
    assert_eq!(plan.clock_size(), 1);
    let stamps = replay(&mut plan.timestamper(), &single_thread)
        .unwrap()
        .timestamps;
    let oracle = single_thread.causality_oracle();
    assert!(satisfies_vector_clock_condition(
        &single_thread,
        &stamps,
        &oracle
    ));

    // Single object, many threads: the optimal clock is that one object.
    let single_object = WorkloadBuilder::new(20, 1).operations(100).seed(1).build();
    let plan = OfflineOptimizer::new().plan_for_computation(&single_object);
    assert_eq!(plan.clock_size(), 1);

    // Empty computation.
    let empty = Computation::new();
    let plan = OfflineOptimizer::new().plan_for_computation(&empty);
    assert_eq!(plan.clock_size(), 0);
    assert!(replay(&mut plan.timestamper(), &empty)
        .unwrap()
        .timestamps
        .is_empty());
}

/// `plan-sparse`'s nonuniform graph at `seed` as a reveal stream, with about
/// one edge in eight revealed a second time (a seeded pick among the edges
/// already revealed), as a computation touches a pair again.  Returns the
/// stream and how many of its reveals are repeats.
fn stream_with_repeats(n: usize, seed: u64) -> (Vec<(usize, usize)>, usize) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let (_, edges) = RandomGraphBuilder::new(n, n)
        .density(3.0 / n as f64)
        .scenario(GraphScenario::default_nonuniform())
        .seed(seed)
        .build_edge_stream();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::with_capacity(edges.len() + edges.len() / 4);
    let mut repeats = 0;
    for edge in edges {
        stream.push(edge);
        if rng.gen_bool(0.125) {
            stream.push(stream[rng.gen_range(0..stream.len())]);
            repeats += 1;
        }
    }
    (stream, repeats)
}

/// The competitive tracker's optimum against the offline solve at
/// `plan-sparse`'s shape: n = 8192 per side, mean degree 3, nonuniform, the
/// builder's reveal stream with repeats.  At every 1 000th new edge and the
/// last, the maintained size equals the solve's and the maintained Kőnig
/// cover equals the batch one member for member, and every repeat is
/// refused.  Oracles 5 and 11 stream at most 48 vertices a side.
#[test]
fn incremental_optimum_equals_the_offline_solve_at_plan_sparse_shape() {
    use mvc_graph::cover::minimum_vertex_cover_of;
    use mvc_graph::IncrementalOptimum;

    const N: usize = 8192;
    for seed in [42, 7] {
        let (stream, repeats) = stream_with_repeats(N, seed);
        let mut optimum = IncrementalOptimum::new();
        let mut refused = 0;
        for (i, &(t, o)) in stream.iter().enumerate() {
            let new = optimum.insert_edge(t, o);
            refused += usize::from(!new);
            let revealed = optimum.graph().edge_count();
            if !(new && revealed.is_multiple_of(1_000) || i + 1 == stream.len()) {
                continue;
            }
            let solved = OfflineOptimizer::new().solve(optimum.graph());
            assert_eq!(
                optimum.cover_size(),
                solved.matching_size(),
                "seed {seed}, {revealed} edges"
            );
            let (_, batch) = minimum_vertex_cover_of(optimum.graph());
            assert!(
                *optimum.cover() == batch,
                "cover diverged at seed {seed}, {revealed} edges"
            );
        }
        assert_eq!(refused, repeats, "seed {seed}: every repeat is refused");
    }
}
