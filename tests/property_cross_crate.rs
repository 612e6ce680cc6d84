//! Cross-crate property tests: invariants that only hold when the whole
//! pipeline (generation → graph → cover → clocks → online mechanisms) is
//! wired together correctly.

use mixed_vector_clock::prelude::*;
use mvc_graph::cover::minimum_vertex_cover_of;
use mvc_graph::GraphScenario;
use mvc_trace::generator::random_graph_computation;
use mvc_trace::{WorkloadBuilder, WorkloadKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cover computed from a computation's bipartite graph always covers
    /// every event of the computation, so the mixed clock can timestamp it.
    #[test]
    fn cover_from_graph_covers_every_event(
        threads in 1usize..12,
        objects in 1usize..12,
        ops in 1usize..150,
        seed in 0u64..200,
    ) {
        let computation = WorkloadBuilder::new(threads, objects)
            .operations(ops)
            .seed(seed)
            .build();
        let (_, cover) = minimum_vertex_cover_of(&computation.bipartite_graph());
        let components = ComponentMap::from_cover(&cover);
        for event in computation.events() {
            prop_assert!(components.covers_event(event));
        }
    }

    /// Theorem 3 (optimality, upper-bound direction): the optimal mixed clock
    /// never exceeds the number of active threads or active objects, on any
    /// workload family.
    #[test]
    fn optimal_clock_bounded_by_both_sides(
        threads in 1usize..10,
        objects in 1usize..10,
        ops in 0usize..120,
        seed in 0u64..100,
        kind_selector in 0usize..4,
    ) {
        let kind = match kind_selector {
            0 => WorkloadKind::Uniform,
            1 => WorkloadKind::Nonuniform { hot_fraction: 0.25, hot_boost: 5.0 },
            2 => WorkloadKind::ProducerConsumer { queues: 2 },
            _ => WorkloadKind::LockStriped { cross_stripe_prob: 0.2 },
        };
        let computation = WorkloadBuilder::new(threads, objects)
            .operations(ops)
            .kind(kind)
            .seed(seed)
            .build();
        let plan = OfflineOptimizer::new().plan_for_computation(&computation);
        prop_assert!(plan.clock_size() <= computation.thread_count());
        prop_assert!(plan.clock_size() <= computation.object_count()
            || computation.is_empty());
    }

    /// The streaming engine pre-loaded with the offline components produces a
    /// valid clock for any reveal order of a random graph.
    #[test]
    fn offline_components_work_for_any_reveal_order(
        nodes in 1usize..15,
        density in 0.0f64..0.5,
        seed in 0u64..100,
    ) {
        let (graph, computation) = random_graph_computation(
            nodes, nodes, density, GraphScenario::Uniform, seed,
        );
        let plan = OfflineOptimizer::new().plan_for_graph(graph);
        let mut engine = TimestampingEngine::with_components(plan.components().clone());
        let mut stamps = Vec::new();
        for event in computation.events() {
            stamps.push(engine.observe(event.thread, event.object).expect("covered"));
        }
        prop_assert!(mvc_core::verify_assignment(&computation, &stamps));
    }

    /// Online mechanisms never produce a smaller clock than the offline
    /// optimum (they cannot, since their component set is also a cover of the
    /// final graph), and their clocks are always valid.
    #[test]
    fn online_never_beats_offline(
        nodes in 2usize..12,
        density in 0.01f64..0.4,
        seed in 0u64..60,
    ) {
        let (graph, computation) = random_graph_computation(
            nodes, nodes, density, GraphScenario::default_nonuniform(), seed,
        );
        let optimal = OfflineOptimizer::new().plan_for_graph(graph).clock_size();
        let run = OnlineTimestamper::new(Popularity::new()).run(&computation).unwrap();
        prop_assert!(run.stats.clock_size() >= optimal);
        prop_assert!(mvc_core::verify_assignment(&computation, &run.timestamps));
    }
}
