//! Synthetic workload generators.
//!
//! The paper evaluates on random bipartite graphs; real uses of the library
//! need event-level computations.  This module generates both: given a target
//! interaction structure it emits a full [`Computation`] (a sequence of
//! thread–object operations), whose induced bipartite graph then has the
//! requested shape.
//!
//! The available workload families are:
//!
//! * [`WorkloadKind::Uniform`] — every operation picks a uniformly random
//!   (thread, object) pair; corresponds to the paper's *Uniform* scenario.
//! * [`WorkloadKind::Nonuniform`] — a small hot set of threads and objects
//!   receives a boosted share of operations; the paper's *Nonuniform*
//!   scenario.
//! * [`WorkloadKind::ProducerConsumer`] — producers write to queue objects,
//!   consumers read from them; models the pipeline workloads used to motivate
//!   causality tracking in debugging.
//! * [`WorkloadKind::LockStriped`] — each thread mostly works on its own
//!   stripe of objects with occasional cross-stripe accesses; models
//!   partitioned data structures where the thread–object graph is sparse.
//! * [`WorkloadKind::Phased`] — the computation alternates between phases that
//!   use disjoint object sets; models barrier-style programs.
//! * [`WorkloadKind::Star`] — every thread hammers a tiny set of hub objects;
//!   the paper's adversarial lower-bound stream, on which naive-threads pays
//!   one component per thread while the optimum is the hub count.
//! * [`WorkloadKind::Clustered`] — threads and objects are divided into
//!   communities and operations stay inside their community; models
//!   microservice/actor systems where interaction is dense locally and
//!   absent globally — the workload that rewards locality-aware shard
//!   assignment and chunked wide clocks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mvc_graph::{BipartiteGraph, GraphScenario, RandomGraphBuilder};

use crate::computation::Computation;
use crate::event::OpKind;
use crate::ids::{ObjectId, ThreadId};

/// The family of synthetic workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WorkloadKind {
    /// Uniformly random (thread, object) pairs.
    #[default]
    Uniform,
    /// A hot fraction of threads/objects receives `hot_boost`× the traffic.
    Nonuniform {
        /// Fraction of threads and objects that are hot (0, 1].
        hot_fraction: f64,
        /// Relative weight of a hot vertex when sampling.
        hot_boost: f64,
    },
    /// Producers append to queue objects; consumers drain them.
    ProducerConsumer {
        /// Number of queue objects shared between producers and consumers.
        queues: usize,
    },
    /// Threads work mostly within their own stripe of objects.
    LockStriped {
        /// Probability that an operation escapes its stripe.
        cross_stripe_prob: f64,
    },
    /// Phases use disjoint slices of the object space.
    Phased {
        /// Number of phases.
        phases: usize,
    },
    /// Every thread hammers a tiny set of hub objects — the paper's
    /// adversarial lower-bound stream for the Naive mechanism.  Threads are
    /// visited round-robin so each one is guaranteed to touch a hub: the
    /// offline optimum is at most `hubs`, while naive-threads pays one
    /// component per thread (competitive ratio `n / hubs`).
    Star {
        /// Number of hub objects (clamped to `[1, objects]`).
        hubs: usize,
    },
    /// Threads are paired 1:1 with objects — the thread–object graph is a
    /// (rotating) perfect matching, the paper's other adversarial family:
    /// every edge is vertex-disjoint, so the offline optimum equals the
    /// maximum matching exactly and *no* online mechanism can beat one
    /// component per pair (the lower bound of Section IV is tight here).
    /// With a non-zero `rotation_period` the pairing shifts by one partner
    /// every period, so the revealed graph densifies into a union of
    /// matchings over time — a steady drip of brand-new edges that forces
    /// online mechanisms (and a growing clock) to add components for the
    /// whole run, not just during warm-up.
    ///
    /// The matching property needs `objects >= threads`: thread `t` works
    /// on object `(t + rotation) % objects`, so with fewer objects the
    /// pairing wraps, objects collect several threads, and the graph is a
    /// union of small stars rather than a matching (still a valid workload,
    /// but the tight-lower-bound reading above no longer applies).
    Matching {
        /// Operations between rotations of the pairing (0 = never rotate:
        /// the graph stays a fixed perfect matching).
        rotation_period: usize,
    },
    /// The active object window slides over the object space every `period`
    /// operations — barrier-free phase behaviour.  Unlike
    /// [`Phased`](WorkloadKind::Phased), whose phases use disjoint static
    /// slices, the window *wraps around* and shifts by `shift` slots, so
    /// consecutive phases overlap and every shard/partition of the object
    /// space keeps receiving both old and brand-new objects: the worst case
    /// for partitioned state (cache churn, cross-shard traffic) and for
    /// popularity-style mechanisms whose hot set keeps expiring.
    PhaseShift {
        /// Operations per phase (clamped to at least 1).
        period: usize,
        /// How many object slots the window slides per phase (clamped to at
        /// least 1).
        shift: usize,
    },
    /// Threads and objects are split into `clusters` equal communities
    /// (cluster `i` owns the `i`-th contiguous range of thread and object
    /// ids) and every operation stays inside its community.  The
    /// thread–object graph is a disjoint union of dense blocks: a thread's
    /// clock row only ever becomes nonzero on its own community's components
    /// — a tiny, stable slice of a wide clock — which is the regime where
    /// chunked stamps and interaction-graph shard assignment pay off.
    /// (Modulo striping still scatters each community across all shards; the
    /// locality has to be discovered from the interaction graph.)
    Clustered {
        /// Number of communities (clamped to `[1, min(threads, objects)]`).
        clusters: usize,
    },
}

impl WorkloadKind {
    /// Short, stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Nonuniform { .. } => "nonuniform",
            WorkloadKind::ProducerConsumer { .. } => "producer-consumer",
            WorkloadKind::LockStriped { .. } => "lock-striped",
            WorkloadKind::Phased { .. } => "phased",
            WorkloadKind::Star { .. } => "star",
            WorkloadKind::Matching { .. } => "matching",
            WorkloadKind::PhaseShift { .. } => "phase-shift",
            WorkloadKind::Clustered { .. } => "clustered",
        }
    }
}

/// Builder for synthetic computations.
///
/// ```
/// use mvc_trace::{WorkloadBuilder, WorkloadKind};
/// let c = WorkloadBuilder::new(8, 8)
///     .operations(200)
///     .kind(WorkloadKind::Uniform)
///     .seed(1)
///     .build();
/// assert_eq!(c.len(), 200);
/// assert!(c.thread_count() <= 8);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    threads: usize,
    objects: usize,
    operations: usize,
    kind: WorkloadKind,
    seed: u64,
}

/// The fraction of generated operations that are writes (the rest are reads).
const WRITE_FRACTION: f64 = 0.5;

impl WorkloadBuilder {
    /// Starts a builder for a workload over `threads` threads and `objects`
    /// objects.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(threads: usize, objects: usize) -> Self {
        assert!(threads > 0, "workload needs at least one thread");
        assert!(objects > 0, "workload needs at least one object");
        Self {
            threads,
            objects,
            operations: threads * objects,
            kind: WorkloadKind::Uniform,
            seed: 0,
        }
    }

    /// Sets the total number of operations to generate.
    pub fn operations(mut self, operations: usize) -> Self {
        self.operations = operations;
        self
    }

    /// Sets the workload family.
    pub fn kind(mut self, kind: WorkloadKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the computation.
    pub fn build(&self) -> Computation {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut c = Computation::new();
        for step in 0..self.operations {
            let (t, o) = self.sample_pair(step, &mut rng);
            let kind = if rng.gen_bool(WRITE_FRACTION) {
                OpKind::Write
            } else {
                OpKind::Read
            };
            c.record_op(ThreadId(t), ObjectId(o), kind);
        }
        c
    }

    fn sample_pair<R: Rng + ?Sized>(&self, step: usize, rng: &mut R) -> (usize, usize) {
        match self.kind {
            WorkloadKind::Uniform => (
                rng.gen_range(0..self.threads),
                rng.gen_range(0..self.objects),
            ),
            WorkloadKind::Nonuniform {
                hot_fraction,
                hot_boost,
            } => (
                sample_skewed(self.threads, hot_fraction, hot_boost, rng),
                sample_skewed(self.objects, hot_fraction, hot_boost, rng),
            ),
            WorkloadKind::ProducerConsumer { queues } => {
                let queues = queues.clamp(1, self.objects);
                let q = rng.gen_range(0..queues);
                let t = rng.gen_range(0..self.threads);
                (t, q)
            }
            WorkloadKind::LockStriped { cross_stripe_prob } => {
                let t = rng.gen_range(0..self.threads);
                let stripe_size = (self.objects / self.threads).max(1);
                let o = if rng.gen_bool(cross_stripe_prob.clamp(0.0, 1.0)) {
                    rng.gen_range(0..self.objects)
                } else {
                    let start = (t * stripe_size) % self.objects;
                    (start + rng.gen_range(0..stripe_size)) % self.objects
                };
                (t, o)
            }
            WorkloadKind::Phased { phases } => {
                let phases = phases.clamp(1, self.objects);
                let ops_per_phase = (self.operations / phases).max(1);
                let phase = (step / ops_per_phase).min(phases - 1);
                let span = (self.objects / phases).max(1);
                let start = phase * span;
                let o = start + rng.gen_range(0..span);
                (rng.gen_range(0..self.threads), o.min(self.objects - 1))
            }
            WorkloadKind::Star { hubs } => {
                let hubs = hubs.clamp(1, self.objects);
                // Round-robin over the threads so every thread reaches a hub
                // (the full star, the worst case for naive-threads), with the
                // hub chosen at random when there are several.
                (step % self.threads, rng.gen_range(0..hubs))
            }
            WorkloadKind::Matching { rotation_period } => {
                // Round-robin over the threads so the whole matching is
                // realised; thread t's partner is object (t + rotation) with
                // the rotation advancing one slot every `rotation_period`
                // operations (never, when the period is 0).
                let t = step % self.threads;
                let rotation = step.checked_div(rotation_period).unwrap_or(0);
                (t, (t + rotation) % self.objects)
            }
            WorkloadKind::PhaseShift { period, shift } => {
                let period = period.max(1);
                let shift = shift.max(1);
                // A window of a quarter of the object space (at least one
                // object) slides `shift` slots per phase and wraps around.
                let window = (self.objects / 4).max(1);
                let phase = step / period;
                let start = (phase * shift) % self.objects;
                let o = (start + rng.gen_range(0..window)) % self.objects;
                (rng.gen_range(0..self.threads), o)
            }
            WorkloadKind::Clustered { clusters } => {
                // Pick a community, then a thread and object inside its
                // contiguous id ranges (cluster i owns threads
                // [i*span, (i+1)*span) and likewise for objects; the last
                // cluster absorbs the remainder).
                let clusters = clusters.clamp(1, self.threads.min(self.objects));
                let cluster = rng.gen_range(0..clusters);
                let t = cluster_member(self.threads, clusters, cluster, rng);
                let o = cluster_member(self.objects, clusters, cluster, rng);
                (t, o)
            }
        }
    }
}

/// Samples a member of community `cluster` when `n` ids are split into
/// `clusters` contiguous ranges of `n / clusters` (the last range keeps the
/// remainder).  Requires `clusters <= n`.
fn cluster_member<R: Rng + ?Sized>(
    n: usize,
    clusters: usize,
    cluster: usize,
    rng: &mut R,
) -> usize {
    let span = n / clusters;
    let start = cluster * span;
    let end = if cluster + 1 == clusters {
        n
    } else {
        start + span
    };
    start + rng.gen_range(0..end - start)
}

/// Samples an index in `0..n` where the first `ceil(n * hot_fraction)`
/// indices are `hot_boost`× more likely than the rest.
fn sample_skewed<R: Rng + ?Sized>(
    n: usize,
    hot_fraction: f64,
    hot_boost: f64,
    rng: &mut R,
) -> usize {
    let hot = ((n as f64 * hot_fraction).ceil() as usize).clamp(1, n);
    let cold = n - hot;
    let hot_weight = hot as f64 * hot_boost;
    let total = hot_weight + cold as f64;
    if cold == 0 || rng.gen_bool((hot_weight / total).clamp(0.0, 1.0)) {
        rng.gen_range(0..hot)
    } else {
        hot + rng.gen_range(0..cold)
    }
}

/// Converts a bipartite graph plus a reveal order of its edges into a
/// computation with exactly one operation per edge.
///
/// This is how the evaluation harness turns the paper's random graphs into
/// event streams for the online mechanisms: each revealed edge becomes one
/// event of its thread on its object.
pub fn computation_from_edge_stream(edges: &[(usize, usize)]) -> Computation {
    edges
        .iter()
        .map(|&(t, o)| (ThreadId(t), ObjectId(o)))
        .collect()
}

/// Generates a random thread–object graph with the given parameters and the
/// computation induced by revealing its edges in random order.
///
/// Returns `(graph, computation)`; the computation's bipartite graph equals
/// `graph` up to isolated vertices.
pub fn random_graph_computation(
    threads: usize,
    objects: usize,
    density: f64,
    scenario: GraphScenario,
    seed: u64,
) -> (BipartiteGraph, Computation) {
    let (graph, stream) = RandomGraphBuilder::new(threads, objects)
        .density(density)
        .scenario(scenario)
        .seed(seed)
        .build_edge_stream();
    let computation = computation_from_edge_stream(&stream);
    (graph, computation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_workload_has_requested_size() {
        let c = WorkloadBuilder::new(4, 4).operations(100).seed(3).build();
        assert_eq!(c.len(), 100);
        assert!(c.thread_count() <= 4);
        assert!(c.object_count() <= 4);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let b = WorkloadBuilder::new(6, 9)
            .operations(300)
            .kind(WorkloadKind::Nonuniform {
                hot_fraction: 0.2,
                hot_boost: 5.0,
            })
            .seed(11);
        assert_eq!(b.build(), b.build());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = WorkloadBuilder::new(0, 4);
    }

    #[test]
    fn producer_consumer_touches_only_queues() {
        let c = WorkloadBuilder::new(8, 16)
            .operations(500)
            .kind(WorkloadKind::ProducerConsumer { queues: 3 })
            .seed(5)
            .build();
        for e in c.events() {
            assert!(e.object.index() < 3);
        }
    }

    #[test]
    fn lock_striped_is_sparse() {
        let c = WorkloadBuilder::new(10, 100)
            .operations(2000)
            .kind(WorkloadKind::LockStriped {
                cross_stripe_prob: 0.0,
            })
            .seed(7)
            .build();
        let g = c.bipartite_graph();
        // With zero cross-stripe probability each thread touches only its own
        // stripe of 10 objects.
        for t in 0..10 {
            assert!(g.degree_left(t) <= 10);
        }
    }

    #[test]
    fn phased_workload_respects_phase_object_ranges() {
        let c = WorkloadBuilder::new(4, 20)
            .operations(400)
            .kind(WorkloadKind::Phased { phases: 4 })
            .seed(9)
            .build();
        // Phase i (100 ops) uses objects [5i, 5i+5).
        for (idx, e) in c.events().enumerate() {
            let phase = (idx / 100).min(3);
            let o = e.object.index();
            assert!(
                o >= phase * 5 && o < phase * 5 + 5,
                "event {idx} object {o} phase {phase}"
            );
        }
    }

    #[test]
    fn star_workload_touches_every_thread_and_only_hubs() {
        let c = WorkloadBuilder::new(30, 10)
            .operations(90)
            .kind(WorkloadKind::Star { hubs: 2 })
            .seed(3)
            .build();
        assert_eq!(c.thread_count(), 30, "round-robin reaches every thread");
        assert!(c.object_count() <= 2);
        for e in c.events() {
            assert!(e.object.index() < 2, "star events stay on the hubs");
        }
        // The induced bipartite graph is (a union of) stars: hub objects
        // cover every edge, so the minimum cover is at most the hub count.
        let g = c.bipartite_graph();
        assert!(g.edge_count() >= 30);
        assert_eq!(WorkloadKind::Star { hubs: 2 }.name(), "star");
    }

    #[test]
    fn star_hub_count_is_clamped_to_object_space() {
        let c = WorkloadBuilder::new(4, 3)
            .operations(40)
            .kind(WorkloadKind::Star { hubs: 100 })
            .seed(5)
            .build();
        for e in c.events() {
            assert!(e.object.index() < 3);
        }
        let zero = WorkloadBuilder::new(4, 3)
            .operations(12)
            .kind(WorkloadKind::Star { hubs: 0 })
            .seed(5)
            .build();
        for e in zero.events() {
            assert_eq!(e.object.index(), 0, "hubs=0 clamps to the single hub");
        }
    }

    #[test]
    fn matching_workload_without_rotation_is_a_perfect_matching() {
        let c = WorkloadBuilder::new(8, 8)
            .operations(160)
            .kind(WorkloadKind::Matching { rotation_period: 0 })
            .seed(2)
            .build();
        assert_eq!(c.thread_count(), 8, "round-robin reaches every thread");
        for e in c.events() {
            assert_eq!(e.object.index(), e.thread.index(), "fixed 1:1 pairing");
        }
        // Every edge is vertex-disjoint: the graph is a perfect matching, so
        // each side's degrees are all exactly one.
        let g = c.bipartite_graph();
        assert_eq!(g.edge_count(), 8);
        for t in 0..8 {
            assert_eq!(g.degree_left(t), 1);
        }
    }

    #[test]
    fn matching_workload_rotation_densifies_over_time() {
        let c = WorkloadBuilder::new(6, 6)
            .operations(180)
            .kind(WorkloadKind::Matching {
                rotation_period: 30,
            })
            .seed(2)
            .build();
        // 180 ops / period 30 = rotations 0..=5: each thread meets 6 distinct
        // partners, so the graph is a union of 6 rotated matchings.
        let g = c.bipartite_graph();
        assert_eq!(g.edge_count(), 36);
        for t in 0..6 {
            assert_eq!(g.degree_left(t), 6);
        }
        // Events inside the first period keep the identity pairing.
        for (i, e) in c.events().enumerate().take(30) {
            assert_eq!(e.object.index(), e.thread.index(), "event {i}");
        }
        assert_eq!(
            WorkloadKind::Matching {
                rotation_period: 30
            }
            .name(),
            "matching"
        );
    }

    #[test]
    fn phase_shift_window_slides_and_wraps() {
        let c = WorkloadBuilder::new(4, 16)
            .operations(400)
            .kind(WorkloadKind::PhaseShift {
                period: 50,
                shift: 3,
            })
            .seed(11)
            .build();
        // Window = 16/4 = 4 objects starting at (phase * 3) % 16, wrapping.
        for (i, e) in c.events().enumerate() {
            let start = (i / 50) * 3 % 16;
            let offset = (e.object.index() + 16 - start) % 16;
            assert!(offset < 4, "event {i}: object {} outside window", e.object);
        }
        // The sliding window eventually touches the whole object space —
        // the cross-partition churn the family exists to produce.
        assert_eq!(c.object_count(), 16);
        assert_eq!(
            WorkloadKind::PhaseShift {
                period: 50,
                shift: 3
            }
            .name(),
            "phase-shift"
        );
    }

    #[test]
    fn phase_shift_degenerate_parameters_are_clamped() {
        let c = WorkloadBuilder::new(2, 1)
            .operations(20)
            .kind(WorkloadKind::PhaseShift {
                period: 0,
                shift: 0,
            })
            .seed(3)
            .build();
        assert_eq!(c.len(), 20);
        for e in c.events() {
            assert_eq!(e.object.index(), 0);
        }
    }

    #[test]
    fn clustered_events_stay_inside_their_community() {
        let c = WorkloadBuilder::new(16, 64)
            .operations(800)
            .kind(WorkloadKind::Clustered { clusters: 4 })
            .seed(19)
            .build();
        // Cluster i owns threads [4i, 4i+4) and objects [16i, 16i+16): each
        // event's endpoints must name the same community.
        for (i, e) in c.events().enumerate() {
            assert_eq!(
                e.thread.index() / 4,
                e.object.index() / 16,
                "event {i} crosses communities"
            );
        }
        assert_eq!(WorkloadKind::Clustered { clusters: 4 }.name(), "clustered");
    }

    #[test]
    fn clustered_last_community_absorbs_the_remainder() {
        // 10 threads / 7 objects over 3 clusters: spans 3 and 2, the last
        // cluster stretching to ids 9 and 6.
        let c = WorkloadBuilder::new(10, 7)
            .operations(600)
            .kind(WorkloadKind::Clustered { clusters: 3 })
            .seed(23)
            .build();
        for e in c.events() {
            let (t, o) = (e.thread.index(), e.object.index());
            let tc = (t / 3).min(2);
            let oc = (o / 2).min(2);
            assert_eq!(tc, oc, "thread {t} and object {o} share a community");
        }
        // Degenerate parameters clamp instead of panicking.
        let tiny = WorkloadBuilder::new(2, 2)
            .operations(20)
            .kind(WorkloadKind::Clustered { clusters: 100 })
            .seed(1)
            .build();
        assert_eq!(tiny.len(), 20);
        for e in tiny.events() {
            assert_eq!(e.thread.index(), e.object.index());
        }
    }

    #[test]
    fn nonuniform_hot_threads_receive_more_operations() {
        let c = WorkloadBuilder::new(20, 20)
            .operations(4000)
            .kind(WorkloadKind::Nonuniform {
                hot_fraction: 0.1,
                hot_boost: 20.0,
            })
            .seed(13)
            .build();
        let hot_ops = c.thread_chain(ThreadId(0)).len() + c.thread_chain(ThreadId(1)).len();
        let cold_ops: usize = (2..20).map(|t| c.thread_chain(ThreadId(t)).len()).sum();
        let hot_avg = hot_ops as f64 / 2.0;
        let cold_avg = cold_ops as f64 / 18.0;
        assert!(hot_avg > 3.0 * cold_avg, "hot {hot_avg} vs cold {cold_avg}");
    }

    #[test]
    fn edge_stream_conversion_round_trips_edges() {
        let (graph, computation) =
            random_graph_computation(20, 20, 0.1, GraphScenario::Uniform, 17);
        let induced = computation.bipartite_graph();
        assert_eq!(induced.edge_count(), graph.edge_count());
        for (l, r) in graph.edges() {
            assert!(induced.has_edge(l, r));
        }
    }

    #[test]
    fn workload_kind_names() {
        assert_eq!(WorkloadKind::Uniform.name(), "uniform");
        assert_eq!(WorkloadKind::Phased { phases: 2 }.name(), "phased");
        assert_eq!(WorkloadKind::default(), WorkloadKind::Uniform);
    }

    proptest! {
        #[test]
        fn prop_generated_events_stay_in_bounds(
            threads in 1usize..12,
            objects in 1usize..12,
            ops in 0usize..400,
            seed in 0u64..100,
        ) {
            let c = WorkloadBuilder::new(threads, objects)
                .operations(ops)
                .seed(seed)
                .build();
            prop_assert_eq!(c.len(), ops);
            for e in c.events() {
                prop_assert!(e.thread.index() < threads);
                prop_assert!(e.object.index() < objects);
            }
        }

        #[test]
        fn prop_skewed_sampler_in_range(
            n in 1usize..50,
            hot_fraction in 0.01f64..1.0,
            hot_boost in 1.0f64..50.0,
            seed in 0u64..50,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..100 {
                let x = sample_skewed(n, hot_fraction, hot_boost, &mut rng);
                prop_assert!(x < n);
            }
        }
    }
}
