//! Cross-crate conformance suite: the paper's load-bearing theorems as
//! executable oracles.
//!
//! Twelve invariant families are encoded so that any future refactor of the
//! graph, clock, core, online, shard, runtime or net crates is checked
//! against the mathematics rather than against snapshots:
//!
//! 1. **Kőnig duality (Theorem: offline optimality).**  The offline
//!    optimizer's clock size equals the maximum matching of the
//!    thread–object bipartite graph — cross-checked against both matching
//!    algorithms in `mvc_graph` and, on small graphs, against a brute-force
//!    enumeration of *all* vertex covers.
//! 2. **Order embedding (the vector clock condition).**  Every clock that
//!    claims to characterise happened-before — the protocol under every
//!    thread, every object or the optimal cover, and the chain clock — must
//!    map vector comparison exactly onto poset reachability:
//!    `s → t ⇔ s.v < t.v`, with concurrency ⇔ incomparability.
//! 3. **Online lower bound and the Adaptive budget.**  Every online
//!    mechanism's final clock is lower-bounded by the offline optimum of the
//!    final revealed graph (its component set is a vertex cover too), and
//!    the Adaptive mechanism respects its design bound on adversarial
//!    streams: at most `node_threshold` non-thread components, while pure
//!    Naive degenerates linearly on the star stream.
//! 4. **API unification.**  The redesigned surface must not change the
//!    mathematics: every registry mechanism, driven as a
//!    `Box<dyn OnlineMechanism>`, is bit-identical to its concrete-typed
//!    counterpart, and the three [`Timestamper`] implementations (batch
//!    replay, engine, online) agree on a replayed computation with a fixed
//!    component map.
//! 5. **Incremental optimum maintenance.**  After *every* insertion of a
//!    random edge stream, the incrementally maintained matching equals a
//!    from-scratch Hopcroft–Karp on the revealed prefix, and the cover read
//!    off the maintained `Z` on demand satisfies Kőnig (size equals
//!    matching size, covers all edges) — the incremental engine is a pure
//!    optimisation, never a new algorithm.
//! 6. **Sharded timestamping parity.**  The sharded engine — any shard
//!    count, with or without mid-run component additions — produces the
//!    sequential engine's stamp stream bit for bit: sharding is a
//!    scheduling strategy, never a semantic change.
//! 7. **Ingest pipeline faithfulness.**  A live multi-threaded run through
//!    the per-thread ingest buffers, the order-preserving merge,
//!    the sharded engine and any sink backend produces timestamps
//!    bit-for-bit equal to a post-hoc sequential batch replay of the merged
//!    interleaving — contention-free ingest is a scheduling strategy too,
//!    never a semantic change.
//! 8. **Streaming analyses equal post-hoc analysis.**  The analysis sinks
//!    riding the live pipeline reach the verdicts post-hoc analysis reaches
//!    from the recorded trace: the streaming `ConflictSink` flags *exactly*
//!    the pairs `ConflictAnalyzer` reports (same groups, same pairs, despite
//!    live stamps vs. a fresh offline-optimal plan — any valid cover
//!    characterises happened-before), and the streaming reachability index
//!    agrees with the bitset `CausalityOracle` on every in-window pair.
//! 9. **Networked service faithfulness.**  Seeded schedules of the
//!    `mvc-net` server (`support::schedule`) — 1–3 producer clients over
//!    in-process transports, byte-split feeds and deliveries, a forced cut
//!    of one client's link inside a `Stamps` frame, on a frame boundary or
//!    off one, random cuts, corrupted frames and a refusing sink — produce
//!    stamps bit-for-bit equal to a sequential batch replay of the arrival
//!    order the schedule decoded from the bytes it fed, and every client
//!    receives exactly its own threads' stamps in its own record order: the
//!    network is a scheduling strategy too, never a semantic change.
//! 10. **The wide-clock representation is invisible.**  The sequential
//!     engine's chunked kernel and the sharded engine's dense-slice kernel
//!     are each other's oracle: at widths 64, 512 and 4096, over 1, 2 and 4
//!     shards, they produce the same stamps bit for bit, and the chunked
//!     rows read back as the protocol says they must (`T[t] = O[o] = v`:
//!     each thread's and object's clock is the last stamp emitted for it).
//! 11. **The optimum has an independent witness.**  A test-only minimum
//!     vertex cover read from a max-flow minimum cut (`support::flow_cut`,
//!     no code shared with `mvc_graph`) equals, member for member, the Kőnig
//!     cover of Hopcroft–Karp's matching and the cover `IncrementalOptimum`
//!     reads off its maintained `Z`, at every prefix of streams long enough
//!     to interleave growth of `Z`, augmentation and the repair of the
//!     augmenting path's tree.
//! 12. **A stamp's storage is not observable.**  The engine emits a stamp
//!     that shares its thread's packed row until the row's next write — or
//!     the plain vector once every chunk is nonzero — and either way it
//!     equals the dense-slice kernel's stamp three ways: `==` (which reads
//!     masks, not a materialised copy), `as_slice()` and `Hash`.  Widths 70
//!     and 150 put a truncated chunk at the tail; a uniform workload fills
//!     rows mid-run, so one stream holds both forms; an online mechanism
//!     grows the width mid-run.  The wire is held to the same: a stamp
//!     decoded from a differential `Stamps` frame equals the one sent and
//!     stores the same words — the decoder built the packed form, it never
//!     saw a dense vector.

mod support;

use mvc_clock::{chain, ClockOrd, ComponentMap, VectorTimestamp};
use mvc_core::{
    replay, verify_assignment, BatchReplay, EventSink, OfflineOptimizer, Timestamper,
    TimestampingEngine,
};
use mvc_graph::matching::{hopcroft_karp, simple_augmenting};
use mvc_graph::{
    minimum_vertex_cover, BipartiteGraph, GraphScenario, IncrementalOptimum, RandomGraphBuilder,
};
use mvc_online::{
    Adaptive, CompetitiveTracker, MechanismRegistry, Naive, OnlineMechanism, OnlineTimestamper,
    Popularity, Random,
};
use mvc_shard::ShardedEngine;
use mvc_trace::generator::computation_from_edge_stream;
use mvc_trace::{
    CausalityOracle, Computation, EventId, ObjectId, ThreadId, WorkloadBuilder, WorkloadKind,
};
use proptest::prelude::*;

use support::flow_cut::flow_cut_cover;
use support::{ComputationStrategy, EdgeStreamStrategy, GraphComputationStrategy};

// ---------------------------------------------------------------------------
// Oracle 1: Kőnig duality / offline optimality
// ---------------------------------------------------------------------------

/// Exhaustive minimum vertex cover over the graph's active vertices.
///
/// Only usable on small graphs (≲ 16 active vertices); serves as the
/// algorithm-independent ground truth for the Kőnig–Egerváry construction.
fn brute_force_min_cover(graph: &BipartiteGraph) -> usize {
    let left: Vec<usize> = graph.active_left().collect();
    let right: Vec<usize> = graph.active_right().collect();
    let edges: Vec<(usize, usize)> = graph.edges().collect();
    let n = left.len() + right.len();
    assert!(n <= 20, "brute force cover limited to small graphs");
    let mut best = n;
    for mask in 0u32..(1 << n) {
        let size = mask.count_ones() as usize;
        if size >= best {
            continue;
        }
        let in_cover = |l: usize, r: usize| {
            let li = left.iter().position(|&x| x == l);
            let ri = right.iter().position(|&x| x == r);
            li.is_some_and(|i| mask & (1 << i) != 0)
                || ri.is_some_and(|i| mask & (1 << (left.len() + i)) != 0)
        };
        if edges.iter().all(|&(l, r)| in_cover(l, r)) {
            best = size;
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kőnig duality, algorithm cross-check: the offline clock size equals
    /// the maximum matching computed by *both* matching algorithms, and the
    /// produced component set is a genuine vertex cover of that size.
    #[test]
    fn offline_clock_size_equals_maximum_matching(
        gc in GraphComputationStrategy::medium(),
    ) {
        let (graph, computation) = gc;
        let plan = OfflineOptimizer::new().plan_for_graph(graph.clone());

        let hk = hopcroft_karp(&graph);
        let simple = simple_augmenting(&graph);
        prop_assert!(hk.is_valid_for(&graph));
        prop_assert_eq!(hk.size(), simple.size());
        prop_assert_eq!(plan.clock_size(), hk.size());
        prop_assert_eq!(plan.matching_size(), hk.size());

        prop_assert!(plan.cover().covers_all_edges(&graph));
        prop_assert_eq!(plan.cover().size(), plan.clock_size());

        // The plan built from the equivalent computation agrees.
        let from_computation = OfflineOptimizer::new().plan_for_computation(&computation);
        prop_assert_eq!(from_computation.clock_size(), plan.clock_size());
    }

    /// Kőnig duality, ground truth: on small graphs no vertex cover of any
    /// kind — not just covers the constructive proof can reach — is smaller
    /// than the matching-sized one the optimizer returns.
    #[test]
    fn offline_cover_is_globally_minimal(
        gc in GraphComputationStrategy::small(),
    ) {
        let (graph, _) = gc;
        let plan = OfflineOptimizer::new().plan_for_graph(graph.clone());
        prop_assert_eq!(plan.clock_size(), brute_force_min_cover(&graph));
    }
}

// ---------------------------------------------------------------------------
// Oracle 2: timestamps order-embed the happened-before poset
// ---------------------------------------------------------------------------

/// Checks `compare ⇔ reachability` for every ordered pair of events.
fn order_embeds(
    computation: &Computation,
    oracle: &CausalityOracle,
    stamps: &[VectorTimestamp],
) -> Result<(), String> {
    for i in 0..computation.len() {
        for j in 0..computation.len() {
            let (a, b) = (EventId(i), EventId(j));
            let cmp = stamps[i].compare(&stamps[j]);
            let expected = if i == j {
                ClockOrd::Equal
            } else if oracle.happened_before(a, b) {
                ClockOrd::Before
            } else if oracle.happened_before(b, a) {
                ClockOrd::After
            } else {
                ClockOrd::Concurrent
            };
            if cmp != expected {
                return Err(format!(
                    "events {i} vs {j}: expected {expected}, timestamps say {cmp}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The vector clock condition for every characterising clock: the
    /// protocol under every thread (the thread vector clock), every object
    /// (the object vector clock) and the optimal cover (the mixed clock),
    /// and the chain clock all order-embed the happened-before poset.
    #[test]
    fn timestamps_order_embed_happened_before(
        computation in ComputationStrategy::small(),
    ) {
        let oracle = computation.causality_oracle();
        let plan = OfflineOptimizer::new().plan_for_computation(&computation);
        let stamp = |map: ComponentMap| {
            replay(&mut BatchReplay::new(map), &computation).unwrap().timestamps
        };

        let threads = computation.thread_index_bound();
        let objects = computation.object_index_bound();
        let chain = chain::decompose(&computation);

        let clocks: [(&str, usize, Vec<VectorTimestamp>); 4] = [
            ("thread", threads, stamp(ComponentMap::all_threads(threads))),
            ("object", objects, stamp(ComponentMap::all_objects(objects))),
            ("mixed", plan.clock_size(), stamp(plan.components().clone())),
            ("chain", chain.chains, chain.timestamps),
        ];
        for (name, width, stamps) in clocks {
            prop_assert_eq!(stamps.len(), computation.len());
            prop_assert!(
                stamps.iter().all(|s| s.len() == width),
                "{name} clock is not {width} components wide"
            );
            if let Err(msg) = order_embeds(&computation, &oracle, &stamps) {
                prop_assert!(false, "{name} clock does not order-embed: {msg}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 3: online lower bound + the Adaptive mechanism's budget
// ---------------------------------------------------------------------------

/// Replays one stream through a mechanism, checking the run against the
/// offline optimum of the final graph.
fn check_online_run<M: OnlineMechanism>(
    mechanism: M,
    computation: &Computation,
    offline_optimum: usize,
) -> Result<(), String> {
    let run = OnlineTimestamper::new(mechanism)
        .run(computation)
        .map_err(|e| e.to_string())?;
    let size = run.stats.clock_size();
    if size < offline_optimum {
        return Err(format!(
            "online clock {size} beat the offline optimum {offline_optimum}"
        ));
    }
    let ceiling = computation.thread_count() + computation.object_count();
    if size > ceiling {
        return Err(format!(
            "online clock {size} exceeds the trivial ceiling {ceiling}"
        ));
    }
    if !verify_assignment(computation, &run.timestamps) {
        return Err("online timestamps violate the vector clock condition".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every mechanism's final clock size is sandwiched between the offline
    /// optimum (its components are also a vertex cover of the final graph)
    /// and the trivial `threads + objects` ceiling, and its timestamps stay
    /// valid for the whole reveal order.
    #[test]
    fn online_clock_never_smaller_than_offline_optimum(
        stream in EdgeStreamStrategy { nodes: 2..12, density: 0.01..0.45 },
        seed in 0u64..1000,
    ) {
        let (graph, edges) = stream;
        let computation = computation_from_edge_stream(&edges);
        let optimum = OfflineOptimizer::new().plan_for_graph(graph).clock_size();

        for result in [
            check_online_run(Naive::threads(), &computation, optimum),
            check_online_run(Naive::objects(), &computation, optimum),
            check_online_run(Random::seeded(seed), &computation, optimum),
            check_online_run(Popularity::new(), &computation, optimum),
            check_online_run(Adaptive::with_paper_thresholds(), &computation, optimum),
        ] {
            if let Err(msg) = result {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    /// Section IV's characterisation of the Naive mechanism: always choosing
    /// threads reproduces exactly the traditional thread vector clock size —
    /// one component per active thread.
    #[test]
    fn naive_threads_is_exactly_the_thread_vector_clock(
        computation in ComputationStrategy::small(),
    ) {
        let run = OnlineTimestamper::new(Naive::threads()).run(&computation).unwrap();
        prop_assert_eq!(run.stats.clock_size(), computation.thread_count());
        prop_assert_eq!(run.stats.object_components, 0);
    }

    /// The competitive trajectory never dips below optimal at any prefix:
    /// after every reveal, the online size dominates the optimum of the
    /// graph revealed so far.
    #[test]
    fn competitive_trajectory_dominates_prefix_optimum(
        stream in EdgeStreamStrategy { nodes: 2..10, density: 0.02..0.4 },
    ) {
        let (_, edges) = stream;
        let report = CompetitiveTracker::new(Popularity::new()).run(&edges);
        for point in &report.trajectory {
            prop_assert!(point.online_size >= point.offline_optimum);
            prop_assert!(point.ratio() >= 1.0);
        }
    }
}

/// The paper's adversarial family for Naive: a star around one hot object.
/// Naive-threads promotes every thread (ratio `n`); Popularity and Adaptive
/// promote the hub after at most one misstep (ratio ≤ 2).
#[test]
fn adaptive_and_popularity_stay_bounded_on_adversarial_star() {
    let n = 120;
    let star: Vec<(usize, usize)> = (0..n).map(|t| (t, 0)).collect();

    let naive = CompetitiveTracker::new(Naive::threads()).run(&star);
    assert_eq!(naive.final_point().unwrap().offline_optimum, 1);
    assert_eq!(naive.final_point().unwrap().online_size, n);

    for report in [
        CompetitiveTracker::new(Popularity::new()).run(&star),
        CompetitiveTracker::new(Adaptive::with_paper_thresholds()).run(&star),
    ] {
        let last = report.final_point().unwrap();
        assert_eq!(last.offline_optimum, 1);
        assert!(
            last.online_size <= 2,
            "hub mechanisms must converge on the star, got {}",
            last.online_size
        );
        assert!(report.worst_ratio() <= 2.0);
    }
}

/// The Adaptive mechanism's design bound: non-thread components can only be
/// added before the switch to Naive, so they never exceed the node
/// threshold — even on a stream engineered to force the switch.
#[test]
fn adaptive_respects_its_switch_budget_on_adversarial_stream() {
    // A perfect matching on 100+100 nodes: every reveal is uncovered, the
    // active node count blows through the threshold, and the mechanism must
    // switch to Naive partway through.
    let n = 100;
    let matching_stream: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
    let computation = computation_from_edge_stream(&matching_stream);

    let adaptive = Adaptive::with_paper_thresholds();
    let mut timestamper = OnlineTimestamper::new(adaptive);
    for event in computation.events() {
        timestamper.observe(event.thread, event.object).unwrap();
    }
    assert!(
        timestamper.mechanism().has_switched(),
        "the matching stream must force the switch"
    );
    let stats = timestamper.stats();
    assert!(
        stats.object_components <= 70,
        "non-thread components exceed the switch budget: {}",
        stats.object_components
    );
    // The final size is optimal here anyway (the stream IS a matching), so
    // the lower bound still holds.
    assert_eq!(stats.clock_size(), n);
}

// ---------------------------------------------------------------------------
// Oracle 4: the unified API is a refactor, not a new algorithm
// ---------------------------------------------------------------------------

/// Every registry mechanism, driven through `Box<dyn OnlineMechanism>`, must
/// produce bit-identical timestamps and stats to its concrete-typed
/// counterpart: the registry is a construction convenience, never a
/// behavioural fork.
#[test]
fn registry_mechanisms_match_their_concrete_counterparts_bit_for_bit() {
    let registry = MechanismRegistry::new();
    let parity_names: Vec<&str> = vec![
        "naive-threads",
        "naive-objects",
        "random",
        "popularity",
        "adaptive",
    ];
    assert_eq!(
        parity_names,
        MechanismRegistry::names(),
        "the parity check must cover exactly the registry"
    );
    for seed in 0..3u64 {
        let c = WorkloadBuilder::new(12, 12)
            .operations(250)
            .kind(WorkloadKind::Nonuniform {
                hot_fraction: 0.2,
                hot_boost: 6.0,
            })
            .seed(seed)
            .build();
        for &name in &parity_names {
            let by_name = registry.from_name(name).unwrap();
            let dyn_run = OnlineTimestamper::new(by_name).run(&c).unwrap();
            // The registry defaults are the paper's: Random seed 0, Adaptive
            // with the Section V thresholds.
            let concrete_run = match name {
                "naive-threads" => OnlineTimestamper::new(Naive::threads()).run(&c),
                "naive-objects" => OnlineTimestamper::new(Naive::objects()).run(&c),
                "random" => OnlineTimestamper::new(Random::seeded(0)).run(&c),
                "popularity" => OnlineTimestamper::new(Popularity::new()).run(&c),
                "adaptive" => OnlineTimestamper::new(Adaptive::with_paper_thresholds()).run(&c),
                other => unreachable!("unknown parity case {other}"),
            }
            .unwrap();
            assert_eq!(
                dyn_run.timestamps, concrete_run.timestamps,
                "{name}: boxed and concrete timestamps diverge (seed {seed})"
            );
            assert_eq!(
                dyn_run.stats, concrete_run.stats,
                "{name}: boxed and concrete stats diverge (seed {seed})"
            );
        }
    }
}

/// With a fixed component map covering the whole computation, all three
/// `Timestamper` implementations are the same protocol and must agree
/// bit-for-bit with a fresh dense batch replay.
#[test]
fn all_three_timestamper_impls_agree_on_a_fixed_component_map() {
    for seed in 0..5u64 {
        let c = WorkloadBuilder::new(8, 8)
            .operations(200)
            .seed(seed)
            .build();
        let plan = OfflineOptimizer::new().plan_for_computation(&c);
        let reference = replay(&mut plan.timestamper(), &c).unwrap().timestamps;

        let mut timestampers: Vec<Box<dyn Timestamper>> = vec![
            Box::new(plan.timestamper()),
            Box::new(TimestampingEngine::with_components(
                plan.components().clone(),
            )),
            Box::new(OnlineTimestamper::with_components(
                Popularity::new(),
                plan.components().clone(),
            )),
        ];
        for timestamper in &mut timestampers {
            let run = replay(timestamper.as_mut(), &c)
                .unwrap_or_else(|e| panic!("{}: {e}", timestamper.name()));
            assert_eq!(
                run.timestamps, reference,
                "{} disagrees with the dense batch replay (seed {seed})",
                run.report.name
            );
            assert_eq!(run.report.events, c.len());
            assert_eq!(run.report.clock_size(), plan.clock_size());
            assert_eq!(run.report.components, *plan.components());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property form of the three-way agreement, across workload families:
    /// the engine's chunked kernel and the online timestamper against the
    /// dense batch replay.
    #[test]
    fn prop_timestamper_impls_agree(computation in ComputationStrategy::small()) {
        let plan = OfflineOptimizer::new().plan_for_computation(&computation);
        let reference = replay(&mut plan.timestamper(), &computation).unwrap().timestamps;

        let mut engine = TimestampingEngine::with_components(plan.components().clone());
        let mut online =
            OnlineTimestamper::with_components(Naive::threads(), plan.components().clone());
        prop_assert_eq!(&replay(&mut engine, &computation).unwrap().timestamps, &reference);
        prop_assert_eq!(&replay(&mut online, &computation).unwrap().timestamps, &reference);
    }
}

// ---------------------------------------------------------------------------
// Oracle 5: incremental optimum maintenance == from-scratch at every prefix
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every single insertion of a random edge stream, the
    /// incrementally maintained matching size equals a from-scratch
    /// Hopcroft–Karp run on the revealed prefix, and the incremental cover
    /// satisfies Kőnig: its size equals the matching size and it covers
    /// every revealed edge.
    #[test]
    fn incremental_optimum_equals_scratch_after_every_insertion(
        stream in EdgeStreamStrategy { nodes: 2..12, density: 0.02..0.5 },
    ) {
        let (_, edges) = stream;
        let mut incremental = IncrementalOptimum::new();
        let mut revealed = BipartiteGraph::new(0, 0);
        for &(l, r) in &edges {
            prop_assert_eq!(incremental.insert_edge(l, r), revealed.add_edge_growing(l, r));
            let scratch = hopcroft_karp(&revealed);
            prop_assert_eq!(incremental.matching_size(), scratch.size());
            prop_assert_eq!(incremental.cover_size(), scratch.size());
            let cover = incremental.cover().clone();
            prop_assert_eq!(cover.size(), scratch.size());
            prop_assert!(
                cover.covers_all_edges(&revealed),
                "not a vertex cover after ({}, {})", l, r
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 6: sharded timestamping == sequential timestamping, bit for bit
// ---------------------------------------------------------------------------

/// Shard counts the parity oracle sweeps.
const ORACLE6_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sharded engine's stamp stream equals the sequential engine's
    /// bit for bit — across random workloads and shard counts 1/2/4/8 —
    /// and its report carries the same component layout.
    #[test]
    fn sharded_engine_equals_sequential_engine(
        computation in ComputationStrategy::small(),
    ) {
        let plan = OfflineOptimizer::new().plan_for_computation(&computation);
        let mut sequential = TimestampingEngine::with_components(plan.components().clone());
        let reference = replay(&mut sequential, &computation).unwrap();
        for shards in ORACLE6_SHARD_COUNTS {
            let mut sharded =
                ShardedEngine::with_components(plan.components().clone(), shards);
            let run = replay(&mut sharded, &computation).unwrap();
            prop_assert_eq!(&run.timestamps, &reference.timestamps);
            prop_assert_eq!(&run.report.components, &reference.report.components);
            prop_assert_eq!(run.report.events, reference.report.events);
        }
    }

    /// Mid-run component additions: both engines start from a half cover,
    /// recover from the same uncovered events by adding the same components,
    /// and still agree bit for bit on every stamp (the worker-side
    /// slice-widening path).
    #[test]
    fn sharded_engine_agrees_under_midrun_component_additions(
        computation in ComputationStrategy::small(),
        shards_index in 0usize..4,
    ) {
        let shards = ORACLE6_SHARD_COUNTS[shards_index];
        let events: Vec<(ThreadId, ObjectId)> =
            computation.events().map(|e| (e.thread, e.object)).collect();
        let plan = OfflineOptimizer::new().plan_for_computation(&computation);
        let full = plan.components().components();
        // Start with only half the optimal cover; stamp until an event is
        // uncovered, add that event's thread component to BOTH engines, and
        // retry — exercising clock growth while vectors already carry data.
        let half: mvc_clock::ComponentMap =
            full.iter().take(full.len() / 2).copied().collect();
        let mut sequential = TimestampingEngine::with_components(half.clone());
        let mut sharded = ShardedEngine::with_components(half, shards);

        let (mut seq_out, mut shard_out) = (Vec::new(), Vec::new());
        let mut rest: &[(ThreadId, ObjectId)] = &events;
        loop {
            let a = Timestamper::observe_batch(&mut sequential, rest, &mut seq_out);
            let b = sharded.observe_batch(rest, &mut shard_out);
            // Same outcome — same error at the same position.
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(seq_out.len(), shard_out.len());
            match a {
                Ok(()) => break,
                Err(mvc_core::TimestampError::Uncovered { thread, .. }) => {
                    let done = seq_out.len() - (events.len() - rest.len());
                    rest = &rest[done..];
                    sequential.add_component(mvc_clock::Component::Thread(thread));
                    sharded.add_component(mvc_clock::Component::Thread(thread));
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
        prop_assert_eq!(&seq_out, &shard_out);
        prop_assert_eq!(seq_out.len(), events.len());
        prop_assert_eq!(sequential.width(), Timestamper::width(&sharded));
    }
}

// ---------------------------------------------------------------------------
// Oracle 7: per-thread ingest + sharded engine + any sink == sequential batch
// replay of the merged interleaving, bit for bit
// ---------------------------------------------------------------------------

/// A full object cover: every operation touches an object, so stamping with
/// one component per object can never fail — the live runs below need no
/// recovery path.
fn full_object_cover(objects: usize) -> mvc_clock::ComponentMap {
    (0..objects)
        .map(|o| mvc_clock::Component::Object(ObjectId(o)))
        .collect()
}

/// Runs one live multi-threaded session: `scripts[t]` is thread `t`'s
/// program (object index, kind) in program order, executed on a real OS
/// thread over shared contended objects, stamped as it drains through the
/// ingest pipeline by a sharded engine into `sink`.
fn run_live_pipeline<S: mvc_core::EventSink>(
    scripts: &[Vec<(usize, mvc_trace::OpKind)>],
    objects: usize,
    shards: usize,
    sink: S,
) -> (S, mvc_core::TimestampReport) {
    let session = mvc_runtime::TraceSession::new();
    let handles: Vec<_> = (0..scripts.len())
        .map(|t| session.register_thread(&format!("t{t}")))
        .collect();
    let objs: Vec<_> = (0..objects)
        .map(|o| session.shared_object(&format!("o{o}"), 0u64))
        .collect();
    let engine = ShardedEngine::with_components(full_object_cover(objects), shards);
    let mut live = session.live_with_sink(engine, sink);
    std::thread::scope(|scope| {
        for (script, handle) in scripts.iter().zip(&handles) {
            let objs = &objs;
            scope.spawn(move || {
                for &(o, kind) in script {
                    objs[o].apply(handle, kind, |v| *v += 1);
                }
            });
        }
        // Pump concurrently with the producers at least once, so the oracle
        // exercises mid-run drains (partial merges, stalls) and not only the
        // final quiescent drain.
        let _ = live.pump().unwrap();
    });
    live.finish_into_sink().map_err(|(_, e)| e).unwrap()
}

/// Sequential batch replay of `computation` over the same full object
/// cover, padded to the final width — the reference stream live runs must
/// reproduce bit for bit.
fn sequential_reference(computation: &Computation, objects: usize) -> Vec<VectorTimestamp> {
    let mut engine = TimestampingEngine::with_components(full_object_cover(objects));
    replay(&mut engine, computation).unwrap().timestamps
}

/// Per-thread scripts: `threads` threads × up to 24 ops over `objects`
/// contended objects with mixed op kinds.
fn scripts_strategy(
    threads: usize,
    objects: usize,
) -> impl Strategy<Value = Vec<Vec<(usize, mvc_trace::OpKind)>>> {
    use mvc_trace::OpKind;
    let op = (0..objects, 0usize..5).prop_map(|(o, k)| {
        let kind = [
            OpKind::Read,
            OpKind::Write,
            OpKind::Acquire,
            OpKind::Release,
            OpKind::Op,
        ][k];
        (o, kind)
    });
    proptest::collection::vec(proptest::collection::vec(op, 0..24), threads..=threads)
}

/// Thread counts oracle 7 sweeps (the 8-thread case is the stress shape the
/// ingest design targets).
const ORACLE7_THREADS: [usize; 4] = [1, 2, 4, 8];
const ORACLE7_SHARDS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A live multi-threaded run through per-thread ingest + sharded engine +
    /// memory sink produces timestamps bit-for-bit equal to a post-hoc
    /// sequential batch replay of the merged interleaving, and the merged
    /// interleaving preserves every per-thread chain.
    #[test]
    fn live_segmented_ingest_equals_sequential_batch_replay(
        config_idx in (0usize..4, 0usize..3),
        seed_scripts in scripts_strategy(8, 5),
    ) {
        let (threads_idx, shards_idx) = config_idx;
        let threads = ORACLE7_THREADS[threads_idx];
        let shards = ORACLE7_SHARDS[shards_idx];
        let scripts = &seed_scripts[..threads];

        let (recorder, report) =
            run_live_pipeline(scripts, 5, shards, mvc_core::MemoryRecorder::new());
        let (computation, timestamps) = recorder.into_parts();
        // Every produced operation is drained.
        prop_assert_eq!(computation.len(), scripts.iter().map(Vec::len).sum::<usize>());
        // Per-thread program order survives the merge.
        for (t, script) in scripts.iter().enumerate() {
            let chain: Vec<usize> = computation
                .thread_chain(ThreadId(t))
                .iter()
                .map(|&id| computation.event(id).object.index())
                .collect();
            let expected: Vec<usize> = script.iter().map(|&(o, _)| o).collect();
            prop_assert!(chain == expected, "thread {} program order", t);
        }
        // Bit-for-bit parity with a sequential batch replay of the merged
        // interleaving (full object cover ⇒ width fixed ⇒ no padding
        // subtleties).
        let reference = sequential_reference(&computation, 5);
        prop_assert_eq!(timestamps, reference);
        prop_assert_eq!(report.events, computation.len());
    }

    /// The same parity holds through every sink backend at once: a tee of
    /// mem + stats + codec.  The memory child carries the stamps for the
    /// bit-for-bit check, the codec child's bytes decode to the identical
    /// interleaving, and the stats child counted every event.
    #[test]
    fn live_pipeline_agrees_through_every_sink_backend(
        scripts in scripts_strategy(4, 4),
        shards_idx in 0usize..3,
    ) {
        let shards = ORACLE7_SHARDS[shards_idx];
        let sink = mvc_core::TeeSink::new(vec![
            Box::new(mvc_core::MemoryRecorder::new()),
            Box::new(mvc_core::StatsSink::new()),
            Box::new(mvc_core::CodecSink::new()),
        ]);
        let (tee, report) = run_live_pipeline(&scripts, 4, shards, sink);
        let total: usize = scripts.iter().map(Vec::len).sum();
        prop_assert_eq!(report.events, total);
        prop_assert_eq!(tee.events_accepted(), total);

        let children = tee.into_children();
        let recorder = children[0]
            .as_any()
            .downcast_ref::<mvc_core::MemoryRecorder>()
            .unwrap();
        let computation = recorder.computation();
        prop_assert_eq!(computation.len(), total);
        // Mem child: bit-for-bit parity with the sequential batch replay.
        prop_assert_eq!(
            recorder.timestamps().to_vec(),
            sequential_reference(computation, 4)
        );

        let codec = children[2]
            .as_any()
            .downcast_ref::<mvc_core::CodecSink>()
            .unwrap();
        let decoded = mvc_trace::codec::decode(&codec.clone().into_bytes()).unwrap();
        // Codec child: the streamed trace round-trips.
        prop_assert_eq!(&decoded, computation);

        let stats = children[1]
            .as_any()
            .downcast_ref::<mvc_core::StatsSink>()
            .unwrap()
            .stats();
        prop_assert_eq!(stats.events, total);
        if total > 0 {
            // Full object cover width.
            prop_assert_eq!(stats.max_clock_width, 4);
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 8: streaming analyses == post-hoc analysis
// ---------------------------------------------------------------------------

/// The invariant groups oracle 8 monitors over its 5 contended objects:
/// two disjoint pairs plus one overlapping triple, so both the
/// single-membership fast path and the multi-group path are exercised.
fn oracle8_groups() -> Vec<Vec<ObjectId>> {
    vec![
        vec![ObjectId(0), ObjectId(1)],
        vec![ObjectId(2), ObjectId(3)],
        vec![ObjectId(1), ObjectId(2), ObjectId(4)],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A live run with the analysis sinks teed next to a recorder flags
    /// exactly what post-hoc analysis of the recorded trace finds: the
    /// streaming conflict sink's pairs equal `ConflictAnalyzer::analyze`
    /// (as sets — discovery order differs from the analyzer's group-major
    /// order), and the streaming reachability index answers every
    /// `happened_before` / `concurrent` query on in-window pairs exactly
    /// like the bitset `CausalityOracle`.
    #[test]
    fn streaming_analyses_agree_with_post_hoc_analysis(
        config_idx in (0usize..4, 0usize..3),
        seed_scripts in scripts_strategy(8, 5),
    ) {
        let (threads_idx, shards_idx) = config_idx;
        let threads = ORACLE7_THREADS[threads_idx];
        let shards = ORACLE7_SHARDS[shards_idx];
        let scripts = &seed_scripts[..threads];

        let analyzer = mvc_runtime::ConflictAnalyzer::with_groups(oracle8_groups());
        let sink = mvc_core::TeeSink::new(vec![
            Box::new(mvc_core::MemoryRecorder::new()),
            Box::new(mvc_runtime::ConflictSink::mirroring(&analyzer)),
            Box::new(mvc_runtime::ReachabilityIndexSink::unbounded()),
        ]);
        let (tee, report) = run_live_pipeline(scripts, 5, shards, sink);
        let total: usize = scripts.iter().map(Vec::len).sum();
        prop_assert_eq!(report.events, total);

        let children = tee.into_children();
        let recorder = children[0]
            .as_any()
            .downcast_ref::<mvc_core::MemoryRecorder>()
            .unwrap();
        let computation = recorder.computation();
        prop_assert_eq!(computation.len(), total);

        // Streaming conflict pairs == post-hoc analyzer pairs, exactly.
        // The streaming sink used the live engine's stamps (full object
        // cover); the analyzer plans a fresh offline-optimal clock — any
        // valid cover characterises happened-before, so the pair sets must
        // still be identical.
        let conflict = children[1]
            .as_any()
            .downcast_ref::<mvc_runtime::ConflictSink>()
            .unwrap();
        let mut streamed = conflict.conflicts().to_vec();
        streamed.sort();
        prop_assert_eq!(streamed, analyzer.analyze(computation));

        // Streaming reachability == bitset causality oracle on every pair
        // (the window is unbounded, so every pair is in-window).
        let reach = children[2]
            .as_any()
            .downcast_ref::<mvc_runtime::ReachabilityIndexSink>()
            .unwrap();
        prop_assert_eq!(reach.spilled(), 0);
        let oracle = computation.causality_oracle();
        for a in 0..total {
            for b in a + 1..total {
                let (a, b) = (EventId(a), EventId(b));
                prop_assert_eq!(
                    reach.happened_before(a, b),
                    Some(oracle.happened_before(a, b))
                );
                prop_assert_eq!(
                    reach.happened_before(b, a),
                    Some(oracle.happened_before(b, a))
                );
                prop_assert_eq!(reach.concurrent(a, b), Some(oracle.concurrent(a, b)));
            }
        }
        // The oracle's concurrent-pair enumeration is the same relation.
        for (a, b) in oracle.all_concurrent_pairs() {
            prop_assert_eq!(reach.concurrent(a, b), Some(true));
        }
    }

    /// Conflict parity survives a bounded reachability window running
    /// alongside: spilling the reach window must not perturb the conflict
    /// sink (they are independent children of the tee), and in-window
    /// queries stay exact after eviction.
    #[test]
    fn bounded_window_spill_keeps_in_window_queries_exact(
        scripts in scripts_strategy(4, 5),
    ) {
        let window = 16;
        let sink = mvc_core::TeeSink::new(vec![
            Box::new(mvc_core::MemoryRecorder::new()),
            Box::new(mvc_runtime::ReachabilityIndexSink::with_capacity(window)),
        ]);
        let (tee, _) = run_live_pipeline(&scripts, 5, 2, sink);
        let children = tee.into_children();
        let recorder = children[0]
            .as_any()
            .downcast_ref::<mvc_core::MemoryRecorder>()
            .unwrap();
        let computation = recorder.computation();
        let reach = children[1]
            .as_any()
            .downcast_ref::<mvc_runtime::ReachabilityIndexSink>()
            .unwrap();
        let total = computation.len();
        prop_assert_eq!(reach.spilled(), total.saturating_sub(window));
        let oracle = computation.causality_oracle();
        for a in 0..total {
            for b in a + 1..total {
                let (a, b) = (EventId(a), EventId(b));
                match reach.compare(a, b) {
                    // Evicted on either side: explicitly unanswerable.
                    None => prop_assert!(
                        !reach.contains(a) || !reach.contains(b)
                    ),
                    Some(ord) => {
                        prop_assert_eq!(
                            ord.is_before(),
                            oracle.happened_before(a, b)
                        );
                        prop_assert_eq!(
                            ord.is_concurrent(),
                            oracle.concurrent(a, b)
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 9: networked multi-client service == batch replay of its arrival
// order, under seeded schedules
// ---------------------------------------------------------------------------

/// Conformance oracle 9: seeded schedules of the networked service
/// (`support::schedule`) stamp bit for bit like a batch replay of the
/// arrival order the schedule decoded, and route to each client exactly its
/// own threads' stamps in its own record order.  Seeds `0..48` sweep client
/// count (1–3) × engine (chunked, or sharded over oracle 7's 1, 2 and 4
/// shards) × a forced cut of client 0's link (none, inside a `Stamps` frame,
/// on a frame boundary, off one).
#[test]
fn networked_service_equals_sequential_batch_replay() {
    for seed in 0..48 {
        support::schedule::check(seed);
    }
}

// ---------------------------------------------------------------------------
// Oracle 10: the chunked kernel and the dense-slice kernel are each other's
// oracle at every clock width
// ---------------------------------------------------------------------------

/// Clock widths the wide-clock oracle sweeps: exactly one chunk, several
/// chunks, and the acceptance width (64 chunks).
const ORACLE10_WIDTHS: [usize; 3] = [64, 512, 4096];

/// A component map over `width` components (half thread, half object, in id
/// order) and a clustered workload whose endpoints are all covered by it.
fn wide_case(width: usize, events: usize, seed: u64) -> (mvc_clock::ComponentMap, Computation) {
    let threads = width / 2;
    let objects = width - threads;
    let mut map = mvc_clock::ComponentMap::new();
    for t in 0..threads {
        map.push(mvc_clock::Component::Thread(ThreadId(t)));
    }
    for o in 0..objects {
        map.push(mvc_clock::Component::Object(ObjectId(o)));
    }
    let computation = WorkloadBuilder::new(threads, objects)
        .operations(events)
        .kind(WorkloadKind::Clustered {
            clusters: (width / 64).max(1),
        })
        .seed(seed)
        .build();
    (map, computation)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The chunked sequential engine and the sharded engine's dense slices
    /// produce the same stamps bit for bit at every width and shard
    /// count, and the chunked rows read back as the protocol's
    /// `T[t] = O[o] = v`: each thread's / object's clock is the last stamp
    /// emitted for it (all zeros if it never appeared).
    #[test]
    fn chunked_stamp_format_equals_dense_at_every_width(seed in 0u64..1000) {
        for width in ORACLE10_WIDTHS {
            let (map, computation) = wide_case(width, 300, seed);
            let mut chunked = TimestampingEngine::with_components(map.clone());
            let reference = replay(&mut chunked, &computation).unwrap().timestamps;
            for shards in ORACLE7_SHARDS {
                let mut dense = ShardedEngine::with_components(map.clone(), shards);
                let run = replay(&mut dense, &computation).unwrap();
                prop_assert_eq!(&run.timestamps, &reference);
            }

            let zeros = VectorTimestamp::zeros(width);
            let mut last_of_thread = vec![&zeros; width / 2];
            let mut last_of_object = vec![&zeros; width - width / 2];
            for (event, stamp) in computation.events().zip(&reference) {
                last_of_thread[event.thread.index()] = stamp;
                last_of_object[event.object.index()] = stamp;
            }
            for (t, last) in last_of_thread.into_iter().enumerate() {
                prop_assert_eq!(&chunked.thread_clock(ThreadId(t)), last);
            }
            for (o, last) in last_of_object.into_iter().enumerate() {
                prop_assert_eq!(&chunked.object_clock(ObjectId(o)), last);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 11: max-flow min-cut cover == Kőnig cover == maintained cover
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 16–48 vertices per side at mean degree 2–4, both scenarios: the
    /// regime where free threads survive long enough for insertions to be
    /// rejected against `Z`, to grow it, to augment and to force a tree
    /// repair within one stream (oracle 5's 2–12-vertex streams almost
    /// never do).
    /// The source side of the minimum cut closest to the source is unique,
    /// and so is `Z` across maximum matchings: all three covers must agree
    /// member for member after every insertion.
    #[test]
    fn flow_cut_cover_equals_batch_and_incremental_cover_at_every_prefix(
        nodes in 16usize..49,
        mean_degree in 2.0f64..4.0,
        scenario in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let scenario = [GraphScenario::Uniform, GraphScenario::default_nonuniform()][scenario];
        let (_, edges) = RandomGraphBuilder::new(nodes, nodes)
            .density(mean_degree / nodes as f64)
            .scenario(scenario)
            .seed(seed)
            .build_edge_stream();
        let mut incremental = IncrementalOptimum::new();
        let mut revealed = BipartiteGraph::new(0, 0);
        for &(l, r) in &edges {
            incremental.insert_edge(l, r);
            revealed.add_edge_growing(l, r);
            let matching = hopcroft_karp(&revealed);
            let cut = flow_cut_cover(&revealed);
            prop_assert_eq!(cut.size(), matching.size());
            prop_assert!(cut.covers_all_edges(&revealed));
            prop_assert_eq!(&cut, &minimum_vertex_cover(&revealed, &matching));
            prop_assert_eq!(incremental.cover_size(), cut.size());
            let maintained = incremental.cover().clone();
            prop_assert!(maintained == cut, "diverged after ({}, {})", l, r);
            // Given the matching, Z is unique: the batch BFS in `cover.rs`
            // is the maintained marks' reference.
            let own = incremental.matching().to_matching(&revealed);
            prop_assert_eq!(&maintained, &minimum_vertex_cover(&revealed, &own));
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 12: a packed stamp and the dense stamp of the same vector are the
// same value
// ---------------------------------------------------------------------------

/// Oracle 10's widths plus two that end in a truncated chunk.
const ORACLE12_WIDTHS: [usize; 5] = [64, 70, 150, 512, 4096];

fn hash_of(stamp: &VectorTimestamp) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    stamp.hash(&mut hasher);
    hasher.finish()
}

/// Holds the chunked engine's stamp equal to the dense kernel's three ways.
/// `==` goes first, in both directions, while nothing has asked either stamp
/// for a slice.
fn assert_same_stamp(chunked: &VectorTimestamp, dense: &VectorTimestamp) {
    assert_eq!(dense.stored_words(), dense.len(), "the reference is dense");
    assert!(chunked == dense, "{chunked} != {dense}");
    assert!(dense == chunked, "{dense} != {chunked}");
    assert_eq!(chunked.as_slice(), dense.as_slice());
    assert_eq!(hash_of(chunked), hash_of(dense));
}

/// Replays `computation` through the chunked engine and the two-shard dense
/// kernel, holds the streams equal, and returns the chunked engine's stamps.
fn chunked_equals_dense_kernel(
    map: &mvc_clock::ComponentMap,
    computation: &Computation,
) -> Vec<VectorTimestamp> {
    let mut chunked = TimestampingEngine::with_components(map.clone());
    let mut dense = ShardedEngine::with_components(map.clone(), 2);
    let chunked = replay(&mut chunked, computation).unwrap().timestamps;
    let dense = replay(&mut dense, computation).unwrap().timestamps;
    assert_eq!(chunked.len(), dense.len());
    for (c, d) in chunked.iter().zip(&dense) {
        assert_same_stamp(c, d);
    }
    chunked
}

/// Oracle 12's wire half: `stamps` — each on the lane of its event's thread —
/// through differential `Stamps` frames and a fresh reader come out equal by
/// value and stored the same: the decoder rebuilt the packed form from chunks.
fn assert_the_wire_keeps(computation: &Computation, stamps: &[VectorTimestamp]) {
    use mvc_net::frame::{write_stamps_frame, write_stream_header};
    let mut wire = Vec::new();
    write_stream_header(&mut wire);
    let mut sent = 0;
    while sent < stamps.len() {
        let pending = computation.events().zip(stamps).skip(sent);
        let lanes = pending.map(|(event, stamp)| (event.thread.index() as u32, stamp));
        sent += write_stamps_frame(&mut wire, sent as u64, lanes, 128);
    }
    let mut reader = mvc_net::FrameReader::new();
    reader.feed(&wire);
    let mut decoded: Vec<VectorTimestamp> = Vec::new();
    while let Some(frame) = reader.try_next().expect("a well-formed stream") {
        match frame {
            mvc_net::Frame::Stamps { first, stamps } => {
                assert_eq!(first, decoded.len() as u64);
                decoded.extend(stamps);
            }
            other => panic!("expected Stamps, got {other:?}"),
        }
    }
    assert_eq!(decoded.len(), stamps.len());
    for (got, sent) in decoded.iter().zip(stamps) {
        assert!(got == sent, "{got} != {sent}");
        assert_eq!(got.len(), sent.len());
        assert_eq!(got.stored_words(), sent.stored_words());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Clustered rows never leave their chunks, so every stamp wider than
    /// one chunk stays packed; uniform rows over an all-object map fill
    /// chunk by chunk, so the stream starts packed and ends dense.
    #[test]
    fn packed_stamps_equal_the_dense_kernel_at_every_width(seed in 0u64..1000) {
        for width in ORACLE12_WIDTHS {
            let (map, clustered) = wide_case(width, 300, seed);
            let stamps = chunked_equals_dense_kernel(&map, &clustered);
            // One chunk is always full.  Thread components are never
            // incremented (objects win), so from 64 threads up the first
            // chunk stays zero.  Width 70 may do either.
            let packed = stamps.iter().filter(|s| s.stored_words() < width).count();
            prop_assert!(width != 64 || packed == 0);
            prop_assert!(width / 2 < 64 || packed == stamps.len(), "width {}", width);
            assert_the_wire_keeps(&clustered, &stamps);

            let uniform = WorkloadBuilder::new(4, width)
                .operations(40 * width.div_ceil(64))
                .seed(seed)
                .build();
            let stamps = chunked_equals_dense_kernel(&full_object_cover(width), &uniform);
            let full = stamps.iter().filter(|s| s.stored_words() == width).count();
            prop_assert!(full > 0, "width {}: no row filled", width);
            prop_assert!((full == stamps.len()) == (width <= 64), "width {}", width);
            assert_the_wire_keeps(&uniform, &stamps);
        }
    }

    /// `Naive::threads` adds a component per new thread: over 150 threads
    /// the width crosses two chunk boundaries while rows carry data.  The
    /// dense kernel is handed the same components at the same events.
    #[test]
    fn packed_stamps_equal_the_dense_kernel_while_the_width_grows(seed in 0u64..1000) {
        let computation = WorkloadBuilder::new(150, 40).operations(600).seed(seed).build();
        let mut online = OnlineTimestamper::new(Naive::threads());
        let mut dense = ShardedEngine::with_components(mvc_clock::ComponentMap::new(), 2);
        let mut packed = 0;
        let mut stamps = Vec::new();
        for event in computation.events() {
            let stamp = online.observe(event.thread, event.object).unwrap();
            let components = online.engine().components().components();
            for &component in &components[Timestamper::width(&dense)..] {
                dense.add_component(component);
            }
            let reference = dense.observe(event.thread, event.object).unwrap();
            assert_same_stamp(&stamp, &reference);
            packed += usize::from(stamp.stored_words() < stamp.len());
            stamps.push(stamp);
        }
        // Widths grow from frame to frame and inside a frame.
        assert_the_wire_keeps(&computation, &stamps);
        prop_assert!(online.clock_size() > 128);
        prop_assert!(packed > 0, "no stamp was emitted packed");
    }
}
