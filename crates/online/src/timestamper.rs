//! Driving an online mechanism: component selection plus real timestamping.
//!
//! [`OnlineTimestamper`] is the full pipeline — it maintains the revealed
//! thread–object graph, asks the mechanism for a new component whenever an
//! uncovered event arrives, and produces a real timestamp for every event via
//! the incremental [`TimestampingEngine`].  It implements the unified
//! [`Timestamper`] trait, so harnesses can drive it interchangeably with the
//! batch replay path and the raw engine.  [`simulate_final_size`] replays
//! only the component-selection decisions over an edge-reveal stream — the
//! lightweight variant the evaluation figures need — using the same
//! [`ComponentMap`] cover tracking as the full pipeline.
//!
//! Both drive one reveal step.  It reveals an event's edge only while the
//! mechanism [reads the graph](OnlineMechanism::reads_graph), because
//! revealing it (a seen-set probe, a log push, two degrees) is most of what a
//! simulated decision costs.  A run of [`Naive`](crate::Naive) or
//! [`Random`](crate::Random) therefore reveals nothing, one of
//! [`Adaptive`](crate::Adaptive) stops revealing when it switches to Naive,
//! and one of [`Popularity`](crate::Popularity) reveals every event.  A
//! decision is the same either way, since a mechanism reads the graph only
//! while it is complete.

use mvc_clock::{Component, ComponentMap, VectorTimestamp};
use mvc_core::{replay, TimestampError, TimestampReport, Timestamper, TimestampingEngine};
use mvc_graph::BipartiteGraph;
use mvc_trace::{Computation, ObjectId, ThreadId};

use crate::mechanism::OnlineMechanism;

/// Statistics of one online run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MechanismStats {
    /// Number of events observed.
    pub events: usize,
    /// Number of thread components added by the mechanism.
    pub thread_components: usize,
    /// Number of object components added by the mechanism.
    pub object_components: usize,
}

impl MechanismStats {
    /// Number of components the mechanism added (for a timestamper started
    /// empty, the final size of the online mixed vector clock).
    pub fn clock_size(&self) -> usize {
        self.thread_components + self.object_components
    }
}

/// The result of replaying a whole computation through an online mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineRun {
    /// Per-event timestamps, in the computation's append order.
    pub timestamps: Vec<VectorTimestamp>,
    /// Aggregate statistics (component counts).
    pub stats: MechanismStats,
}

/// Online timestamping pipeline: mechanism + revealed graph + engine.
#[derive(Debug)]
pub struct OnlineTimestamper<M> {
    mechanism: M,
    engine: TimestampingEngine,
    revealed: BipartiteGraph,
    stats: MechanismStats,
}

impl<M: OnlineMechanism> OnlineTimestamper<M> {
    /// Creates an online timestamper around a mechanism, starting from an
    /// empty component set.
    pub fn new(mechanism: M) -> Self {
        Self::with_components(mechanism, ComponentMap::new())
    }

    /// Creates an online timestamper warm-started with an existing component
    /// map (e.g. one computed by the offline optimizer for the part of the
    /// computation already known).  The mechanism is only consulted for
    /// events the seeded components do not cover;
    /// [`stats`](OnlineTimestamper::stats) counts the mechanism's additions,
    /// not the seeded components.
    pub fn with_components(mechanism: M, components: ComponentMap) -> Self {
        Self {
            mechanism,
            engine: TimestampingEngine::with_components(components),
            revealed: BipartiteGraph::new(0, 0),
            stats: MechanismStats::default(),
        }
    }

    /// The mechanism driving component selection.
    pub fn mechanism(&self) -> &M {
        &self.mechanism
    }

    /// Current clock width.
    pub fn clock_size(&self) -> usize {
        self.engine.width()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> MechanismStats {
        self.stats
    }

    /// The underlying timestamping engine (e.g. to inspect per-thread clocks).
    pub fn engine(&self) -> &TimestampingEngine {
        &self.engine
    }

    /// Observes one operation: reveals its edge while the mechanism reads
    /// the graph, asks the mechanism for a component if the operation is not
    /// covered, and returns its timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`TimestampError::RogueComponent`] when the mechanism violates
    /// its contract and chooses a component covering neither endpoint.  The
    /// rogue component is discarded and neither the clock nor the stats
    /// change (an edge revealed before the error stays revealed — it
    /// genuinely was observed — and revealing it again on a retry is a
    /// no-op), so the call is safe to retry.
    pub fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        let chosen = reveal(
            &mut self.mechanism,
            &mut self.revealed,
            self.engine.components(),
            thread,
            object,
        )?;
        if let Some(component) = chosen {
            match component {
                Component::Thread(_) => self.stats.thread_components += 1,
                Component::Object(_) => self.stats.object_components += 1,
            }
            self.engine.add_component(component);
        }
        let stamp = self.engine.observe(thread, object)?;
        self.stats.events += 1;
        Ok(stamp)
    }

    /// Replays a whole computation in append order.
    ///
    /// Because components are added while the computation runs, events
    /// observed early have narrower raw timestamps than later ones; the
    /// returned timestamps are all padded to the final clock width (missing
    /// components are zero, which is exactly the value those counters held at
    /// the time), so they can be compared directly.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TimestampError`] an observation reports (see
    /// [`OnlineTimestamper::observe`]).
    pub fn run(mut self, computation: &Computation) -> Result<OnlineRun, TimestampError> {
        let timestamps = replay(&mut self, computation)?.timestamps;
        Ok(OnlineRun {
            timestamps,
            stats: self.stats,
        })
    }
}

impl<M: OnlineMechanism> Timestamper for OnlineTimestamper<M> {
    fn name(&self) -> &str {
        self.mechanism.name()
    }

    fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        OnlineTimestamper::observe(self, thread, object)
    }

    fn width(&self) -> usize {
        self.engine.width()
    }

    fn finish(&self) -> TimestampReport {
        TimestampReport {
            name: self.mechanism.name().to_owned(),
            events: self.stats.events,
            components: self.engine.components().clone(),
        }
    }
}

/// Section IV's reveal step: reveals the edge of the event
/// `(thread, object)` into `revealed` while `mechanism` reads the graph and,
/// if `components` covers neither endpoint, returns the component the
/// mechanism chooses to cover it.
///
/// # Errors
///
/// Returns [`TimestampError::RogueComponent`] when the chosen component
/// covers neither endpoint.
fn reveal<M: OnlineMechanism + ?Sized>(
    mechanism: &mut M,
    revealed: &mut BipartiteGraph,
    components: &ComponentMap,
    thread: ThreadId,
    object: ObjectId,
) -> Result<Option<Component>, TimestampError> {
    if mechanism.reads_graph() {
        revealed.add_edge_growing(thread.index(), object.index());
    }
    if components.contains_thread(thread) || components.contains_object(object) {
        return Ok(None);
    }
    choose_covering(mechanism, revealed, thread, object).map(Some)
}

/// Asks `mechanism` for a component covering the uncovered event
/// `(thread, object)`, whose edge `revealed` already holds if the mechanism
/// reads the graph.
///
/// # Errors
///
/// Returns [`TimestampError::RogueComponent`] when the chosen component
/// covers neither endpoint.
pub(crate) fn choose_covering<M: OnlineMechanism + ?Sized>(
    mechanism: &mut M,
    revealed: &BipartiteGraph,
    thread: ThreadId,
    object: ObjectId,
) -> Result<Component, TimestampError> {
    let component = mechanism.choose(revealed, thread, object);
    if component == Component::Thread(thread) || component == Component::Object(object) {
        Ok(component)
    } else {
        Err(TimestampError::RogueComponent {
            thread,
            object,
            component,
        })
    }
}

/// Replays only the component-selection decisions over an edge-reveal stream
/// and returns the selected components.
///
/// `edges` is the order in which distinct `(thread, object)` pairs are first
/// revealed (repeat occurrences of a pair never trigger a decision, so they
/// can be omitted).  The cover bookkeeping is the same [`ComponentMap`] the
/// full timestamping pipeline uses — only the engine's vector arithmetic is
/// skipped.
///
/// # Panics
///
/// Panics with [`TimestampError::RogueComponent`]'s message when the
/// mechanism chooses a component covering neither endpoint.
fn simulate_components<M: OnlineMechanism + ?Sized>(
    mechanism: &mut M,
    edges: &[(usize, usize)],
) -> ComponentMap {
    let mut revealed = BipartiteGraph::new(0, 0);
    let mut components = ComponentMap::new();
    for &(t, o) in edges {
        let chosen = reveal(
            mechanism,
            &mut revealed,
            &components,
            ThreadId(t),
            ObjectId(o),
        );
        if let Some(component) = chosen.unwrap_or_else(|e| panic!("{e}")) {
            components.push(component);
        }
    }
    components
}

/// Replays only the component-selection decisions over an edge-reveal stream
/// and returns the final clock size — the quantity plotted on the y-axis of
/// Figures 4–7.  `edges` is the order in which distinct `(thread, object)`
/// pairs are first revealed; repeats never trigger a decision.
///
/// # Panics
///
/// Panics with [`TimestampError::RogueComponent`]'s message when the
/// mechanism chooses a component covering neither endpoint.
pub fn simulate_final_size<M: OnlineMechanism + ?Sized>(
    mechanism: &mut M,
    edges: &[(usize, usize)],
) -> usize {
    simulate_components(mechanism, edges).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{Adaptive, Naive, NaiveSide, Popularity, Random};
    use mvc_clock::validate::satisfies_vector_clock_condition;
    use mvc_core::OfflineOptimizer;
    use mvc_graph::{GraphScenario, RandomGraphBuilder};
    use mvc_trace::{WorkloadBuilder, WorkloadKind};
    use proptest::prelude::*;

    #[test]
    fn naive_threads_equals_active_thread_count() {
        let c = WorkloadBuilder::new(10, 10).operations(200).seed(1).build();
        let run = OnlineTimestamper::new(Naive::threads()).run(&c).unwrap();
        assert_eq!(run.stats.clock_size(), c.thread_count());
        assert_eq!(run.stats.object_components, 0);
        assert_eq!(run.stats.events, c.len());
    }

    #[test]
    fn naive_objects_equals_active_object_count() {
        let c = WorkloadBuilder::new(10, 10).operations(200).seed(2).build();
        let run = OnlineTimestamper::new(Naive::objects()).run(&c).unwrap();
        assert_eq!(run.stats.clock_size(), c.object_count());
        assert_eq!(run.stats.thread_components, 0);
    }

    #[test]
    fn online_clock_is_valid_for_every_mechanism() {
        let c = WorkloadBuilder::new(8, 8)
            .operations(150)
            .kind(WorkloadKind::Nonuniform {
                hot_fraction: 0.25,
                hot_boost: 5.0,
            })
            .seed(3)
            .build();
        let oracle = c.causality_oracle();
        let runs: Vec<(&str, OnlineRun)> = vec![
            (
                "naive",
                OnlineTimestamper::new(Naive::threads()).run(&c).unwrap(),
            ),
            (
                "random",
                OnlineTimestamper::new(Random::seeded(7)).run(&c).unwrap(),
            ),
            (
                "popularity",
                OnlineTimestamper::new(Popularity::new()).run(&c).unwrap(),
            ),
            (
                "adaptive",
                OnlineTimestamper::new(Adaptive::with_paper_thresholds())
                    .run(&c)
                    .unwrap(),
            ),
        ];
        for (name, run) in runs {
            assert!(
                satisfies_vector_clock_condition(&c, &run.timestamps, &oracle),
                "{name} produced an invalid online clock"
            );
        }
    }

    #[test]
    fn online_size_never_below_offline_optimum() {
        for seed in 0..10 {
            let c = WorkloadBuilder::new(12, 12)
                .operations(150)
                .seed(seed)
                .build();
            let optimal = OfflineOptimizer::new()
                .plan_for_computation(&c)
                .clock_size();
            for run in [
                OnlineTimestamper::new(Popularity::new()).run(&c).unwrap(),
                OnlineTimestamper::new(Random::seeded(seed))
                    .run(&c)
                    .unwrap(),
                OnlineTimestamper::new(Naive::threads()).run(&c).unwrap(),
            ] {
                assert!(
                    run.stats.clock_size() >= optimal,
                    "online mechanism beat the offline optimum (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn observe_reveals_edges_and_grows_clock() {
        let mut ts = OnlineTimestamper::new(Popularity::new());
        let a = ts.observe(ThreadId(0), ObjectId(0)).unwrap();
        assert_eq!(ts.clock_size(), 1);
        assert_eq!(a.len(), 1);
        // Covered event does not add a component.
        let b = ts.observe(ThreadId(5), ObjectId(0)).unwrap();
        assert_eq!(ts.clock_size(), 1);
        assert!(a.strictly_less_than(&b));
        assert_eq!(ts.stats().events, 2);
        assert_eq!(ts.engine().events_observed(), 2);
        assert_eq!(ts.mechanism().name(), "popularity");
    }

    /// A contract-violating mechanism: promotes a thread unrelated to the
    /// uncovered event.
    struct Rogue;

    impl OnlineMechanism for Rogue {
        fn name(&self) -> &'static str {
            "rogue"
        }

        fn choose(
            &mut self,
            _graph: &BipartiteGraph,
            thread: ThreadId,
            _object: ObjectId,
        ) -> Component {
            Component::Thread(ThreadId(thread.index() + 1000))
        }
    }

    #[test]
    fn uncovered_event_surfaces_as_error_not_panic() {
        let mut ts = OnlineTimestamper::new(Rogue);
        let err = ts.observe(ThreadId(0), ObjectId(0)).unwrap_err();
        assert_eq!(
            err,
            TimestampError::RogueComponent {
                thread: ThreadId(0),
                object: ObjectId(0),
                component: Component::Thread(ThreadId(1000)),
            }
        );
        assert_eq!(ts.stats().events, 0, "failed observation must not count");
        assert_eq!(ts.clock_size(), 0, "the rogue component is discarded");
        assert_eq!(
            ts.stats().clock_size(),
            0,
            "stats stay in step with the clock"
        );
        // Retrying is safe and reports the same error again.
        assert_eq!(ts.observe(ThreadId(0), ObjectId(0)).unwrap_err(), err);
        assert_eq!(ts.clock_size(), 0);
        // The run API propagates the same error.
        let mut c = Computation::new();
        c.record(ThreadId(0), ObjectId(0));
        let err = OnlineTimestamper::new(Rogue).run(&c).unwrap_err();
        assert!(matches!(err, TimestampError::RogueComponent { .. }));
        assert!(err.to_string().contains("T1000"));
    }

    #[test]
    #[should_panic(expected = "mechanism chose T1000, which covers neither T0 nor O0")]
    fn simulate_panics_on_a_rogue_mechanism() {
        simulate_final_size(&mut Rogue, &[(0, 0), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "mechanism chose T1000, which covers neither T0 nor O0")]
    fn competitive_tracker_panics_on_a_rogue_mechanism() {
        crate::CompetitiveTracker::new(Rogue).run(&[(0, 0), (1, 1)]);
    }

    #[test]
    fn warm_started_timestamper_skips_the_mechanism_for_covered_events() {
        let c = WorkloadBuilder::new(6, 6).operations(80).seed(17).build();
        let plan = OfflineOptimizer::new().plan_for_computation(&c);
        let run = OnlineTimestamper::with_components(Rogue, plan.components().clone())
            .run(&c)
            .expect("every event is covered by the seeded plan");
        let batch = replay(&mut plan.timestamper(), &c).unwrap();
        assert_eq!(run.timestamps, batch.timestamps);
        let stats = OnlineTimestamper::with_components(Rogue, plan.components().clone()).stats();
        assert_eq!(stats.clock_size(), 0, "stats count mechanism additions");
    }

    #[test]
    fn simulate_matches_full_run_for_deterministic_mechanisms() {
        let (_, stream) = RandomGraphBuilder::new(30, 30)
            .density(0.08)
            .scenario(GraphScenario::default_nonuniform())
            .seed(5)
            .build_edge_stream();
        let c = mvc_trace::generator::computation_from_edge_stream(&stream);

        let sim = simulate_final_size(&mut Popularity::new(), &stream);
        let full = OnlineTimestamper::new(Popularity::new()).run(&c).unwrap();
        assert_eq!(sim, full.stats.clock_size());

        let sim_naive = simulate_final_size(&mut Naive::threads(), &stream);
        let full_naive = OnlineTimestamper::new(Naive::threads()).run(&c).unwrap();
        assert_eq!(sim_naive, full_naive.stats.clock_size());
    }

    #[test]
    fn simulate_components_match_full_run_component_map() {
        let (_, stream) = RandomGraphBuilder::new(20, 20)
            .density(0.1)
            .seed(8)
            .build_edge_stream();
        let c = mvc_trace::generator::computation_from_edge_stream(&stream);
        let sim = simulate_components(&mut Popularity::new(), &stream);
        let mut full = OnlineTimestamper::new(Popularity::new());
        for e in c.events() {
            full.observe(e.thread, e.object).unwrap();
        }
        assert_eq!(&sim, full.engine().components());
    }

    #[test]
    fn simulate_ignores_repeated_edges() {
        let edges = vec![(0, 0), (0, 0), (1, 0), (1, 0)];
        let size = simulate_final_size(&mut Naive::threads(), &edges);
        assert_eq!(size, 2);
    }

    #[test]
    fn simulate_accepts_dyn_mechanisms() {
        let mut boxed = crate::MechanismRegistry::new()
            .from_name("popularity")
            .unwrap();
        let size = simulate_final_size(boxed.as_mut(), &[(0, 0), (1, 0), (2, 0)]);
        assert_eq!(size, 1);
    }

    #[test]
    fn adaptive_behaves_like_popularity_then_naive() {
        // Low thresholds: adaptive switches almost immediately, so its final
        // size is close to naive's.
        let (_, stream) = RandomGraphBuilder::new(40, 40)
            .density(0.1)
            .seed(11)
            .build_edge_stream();
        let adaptive_size =
            simulate_final_size(&mut Adaptive::new(0.0, 0, NaiveSide::Threads), &stream);
        let naive_size = simulate_final_size(&mut Naive::threads(), &stream);
        assert_eq!(adaptive_size, naive_size);
    }

    #[test]
    fn timestamper_trait_reports_the_online_run() {
        let c = WorkloadBuilder::new(5, 5).operations(60).seed(9).build();
        let mut ts = OnlineTimestamper::new(Popularity::new());
        let run = replay(&mut ts, &c).unwrap();
        assert_eq!(run.report.name, "popularity");
        assert_eq!(run.report.events, c.len());
        assert_eq!(run.report.clock_size(), ts.clock_size());
        assert_eq!(
            run.report.thread_components() + run.report.object_components(),
            ts.stats().clock_size()
        );
        assert_eq!(Timestamper::width(&ts), ts.clock_size());
        assert_eq!(Timestamper::name(&ts), "popularity");
    }

    /// What a run returns: the component map, the stamps padded to the
    /// final width, and the stats.
    type RunOutcome = (ComponentMap, Vec<VectorTimestamp>, MechanismStats);

    /// Section IV's reveal loop with no gate: every event's edge is revealed
    /// before coverage is checked, whatever the mechanism reads.
    fn always_reveal<M: OnlineMechanism>(
        mut mechanism: M,
        events: &[(usize, usize)],
    ) -> RunOutcome {
        let mut revealed = BipartiteGraph::new(0, 0);
        let mut engine = TimestampingEngine::new();
        let mut stats = MechanismStats::default();
        let mut stamps = Vec::new();
        for &(t, o) in events {
            let (thread, object) = (ThreadId(t), ObjectId(o));
            revealed.add_edge_growing(t, o);
            if !engine.covers(thread, object) {
                let component = mechanism.choose(&revealed, thread, object);
                match component {
                    Component::Thread(_) => stats.thread_components += 1,
                    Component::Object(_) => stats.object_components += 1,
                }
                engine.add_component(component);
            }
            stamps.push(engine.observe(thread, object).unwrap());
            stats.events += 1;
        }
        let width = engine.width();
        let stamps = stamps
            .into_iter()
            .map(|s| s.into_padded_to(width))
            .collect();
        (engine.components().clone(), stamps, stats)
    }

    fn computation_of(events: &[(usize, usize)]) -> Computation {
        let mut c = Computation::new();
        for &(t, o) in events {
            c.record(ThreadId(t), ObjectId(o));
        }
        c
    }

    /// The gated drivers over `events`: `simulate_components` and
    /// `OnlineTimestamper::run`, each with a fresh mechanism from `make`.
    fn gated<M: OnlineMechanism>(make: impl Fn() -> M, events: &[(usize, usize)]) -> RunOutcome {
        let simulated = simulate_components(&mut make(), events);
        let run = OnlineTimestamper::new(make())
            .run(&computation_of(events))
            .unwrap();
        (simulated, run.timestamps, run.stats)
    }

    #[test]
    fn blanket_impls_forward_reads_graph() {
        let registry = crate::MechanismRegistry::new().seed(3);
        for (name, reads) in [
            ("naive-threads", false),
            ("naive-objects", false),
            ("random", false),
            ("popularity", true),
            ("adaptive", true),
        ] {
            let boxed = registry.from_name(name).unwrap();
            assert_eq!(OnlineMechanism::reads_graph(&boxed), reads, "{name}");
        }
        // A switched Adaptive, behind a box and behind `&mut`.
        let mut adaptive = Adaptive::new(0.0, 0, NaiveSide::Threads);
        simulate_final_size(&mut &mut adaptive, &[(0, 0)]);
        assert!(adaptive.has_switched());
        assert!(!OnlineMechanism::reads_graph(&&mut adaptive));
        let mut boxed = registry.from_name("adaptive").unwrap();
        let stream: Vec<_> = (0..40).map(|i| (i, i)).collect();
        simulate_final_size(&mut boxed, &stream);
        assert!(
            !OnlineMechanism::reads_graph(&boxed),
            "80 active nodes > 70"
        );
        assert!(OnlineMechanism::reads_graph(&&mut Popularity::new()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Revealing edges only while the mechanism reads them changes no
        /// decision: the gated simulation and the gated timestamper return
        /// exactly what the ungated loop does, for every mechanism, also
        /// behind `Box<dyn OnlineMechanism>` and `&mut M`.
        #[test]
        fn prop_gated_reveal_matches_always_reveal(
            pairs in collection::vec((0usize..30, 0usize..30), 1..120),
            picks in collection::vec(0usize..10_000, 0..250),
            span in 2usize..31,
            seed in 0u64..1_000,
            thresholds in (0.0f64..1.0, 0usize..40, 0usize..2),
        ) {
            // Ids below `span`: a narrow span draws a dense graph, which
            // trips the paper's density threshold mid-stream.
            let pairs: Vec<_> = pairs.iter().map(|&(t, o)| (t % span, o % span)).collect();
            // At most 120 distinct pairs under up to 250 events: most
            // events repeat a pair revealed before.
            let events: Vec<_> = picks.iter().map(|&k| pairs[k % pairs.len()]).collect();
            let (density, nodes, side) = thresholds;
            let side = if side == 0 { NaiveSide::Threads } else { NaiveSide::Objects };
            let drawn = move || Adaptive::new(density, nodes, side);
            prop_assert_eq!(gated(Naive::threads, &events), always_reveal(Naive::threads(), &events));
            prop_assert_eq!(gated(Naive::objects, &events), always_reveal(Naive::objects(), &events));
            prop_assert_eq!(
                gated(|| Random::seeded(seed), &events),
                always_reveal(Random::seeded(seed), &events)
            );
            prop_assert_eq!(gated(Popularity::new, &events), always_reveal(Popularity::new(), &events));
            prop_assert_eq!(
                gated(Adaptive::with_paper_thresholds, &events),
                always_reveal(Adaptive::with_paper_thresholds(), &events)
            );
            prop_assert_eq!(gated(drawn, &events), always_reveal(drawn(), &events));

            let registry = crate::MechanismRegistry::new().seed(seed);
            for &name in crate::MechanismRegistry::names() {
                let boxed = || registry.from_name(name).unwrap();
                prop_assert_eq!(gated(boxed, &events), always_reveal(boxed(), &events));
            }
            let (mut a, mut b) = (drawn(), drawn());
            let simulated = simulate_components(&mut &mut a, &events);
            let run = OnlineTimestamper::new(&mut b).run(&computation_of(&events)).unwrap();
            prop_assert_eq!((simulated, run.timestamps, run.stats), always_reveal(drawn(), &events));
        }

        /// Whatever the mechanism decides, the selected components always form a
        /// vertex cover of the revealed graph, so the online clock is valid.
        #[test]
        fn prop_online_components_cover_revealed_graph(
            threads in 1usize..10,
            objects in 1usize..10,
            ops in 0usize..120,
            seed in 0u64..150,
        ) {
            let c = WorkloadBuilder::new(threads, objects).operations(ops).seed(seed).build();
            let mut ts = OnlineTimestamper::new(Random::seeded(seed));
            for e in c.events() {
                ts.observe(e.thread, e.object).unwrap();
            }
            let map = ts.engine().components().clone();
            for e in c.events() {
                prop_assert!(map.contains_thread(e.thread) || map.contains_object(e.object));
            }
            prop_assert_eq!(ts.stats().clock_size(), ts.clock_size());
        }

        /// Online popularity timestamps are always valid vector clocks.
        #[test]
        fn prop_popularity_online_clock_valid(
            threads in 1usize..7,
            objects in 1usize..7,
            ops in 1usize..80,
            seed in 0u64..100,
        ) {
            let c = WorkloadBuilder::new(threads, objects).operations(ops).seed(seed).build();
            let run = OnlineTimestamper::new(Popularity::new()).run(&c).unwrap();
            let oracle = c.causality_oracle();
            prop_assert!(satisfies_vector_clock_condition(&c, &run.timestamps, &oracle));
        }
    }
}
