//! The offline optimal algorithm (Algorithm 1 of the paper).
//!
//! Given the full computation (or just its thread–object bipartite graph):
//!
//! 1. compute a maximum matching `M*` with Hopcroft–Karp, started from a
//!    Karp–Sipser matching (a degree-one sweep that, on sparse graphs,
//!    leaves the phases almost nothing to find — which maximum matching
//!    comes out depends on the start, step 2's cover does not);
//! 2. convert `M*` into a minimum vertex cover `C*` using the constructive
//!    Kőnig–Egerváry argument (`C* = (T − Z) ∪ (O ∩ Z)` where `Z` is the set
//!    of vertices reachable from unmatched threads via alternating paths).
//!    No second search finds `Z`: Hopcroft–Karp's last BFS starts from every
//!    unmatched thread and crosses exactly the alternating edges, and it
//!    reaches no free object, or the matching would not be maximum.  What it
//!    reached is `Z`, and the cover is read off its distances;
//! 3. use the threads and objects of `C*` as the components of the mixed
//!    vector clock.
//!
//! The resulting clock is a valid vector clock (Theorem 2) and no valid
//! vector clock built from thread/object components can be smaller
//! (Theorem 3), because any such component set must cover every edge of the
//! bipartite graph.

use mvc_clock::ComponentMap;
use mvc_graph::{cover::minimum_vertex_cover_of, BipartiteGraph, GraphStats, VertexCover};
use mvc_trace::Computation;

/// The algorithmic output of Algorithm 1 on a *borrowed* graph: matching
/// size, minimum cover, and the component layout of the mixed vector clock.
///
/// This is the allocation-light sibling of [`OfflinePlan`]: it does not take
/// ownership of (or clone) the analysed graph, so per-prefix or per-trial
/// sweeps that only need sizes can call [`OfflineOptimizer::solve`] in a loop
/// without copying the graph every time.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineSolution {
    matching_size: usize,
    cover: VertexCover,
    components: ComponentMap,
}

impl OfflineSolution {
    /// Size of the maximum matching (equals the cover size by
    /// Kőnig–Egerváry).
    pub fn matching_size(&self) -> usize {
        self.matching_size
    }

    /// The minimum vertex cover: the chosen threads and objects.
    pub fn cover(&self) -> &VertexCover {
        &self.cover
    }

    /// The component layout of the mixed vector clock.
    pub fn components(&self) -> &ComponentMap {
        &self.components
    }

    /// Number of components of the optimal mixed vector clock.
    pub fn clock_size(&self) -> usize {
        self.components.len()
    }

    /// Attaches the analysed graph, upgrading to a full [`OfflinePlan`].
    fn into_plan(self, graph: BipartiteGraph) -> OfflinePlan {
        OfflinePlan {
            graph,
            matching_size: self.matching_size,
            cover: self.cover,
            components: self.components,
        }
    }
}

/// The output of the offline optimizer: the graph it analysed, the optimal
/// cover, and the component layout of the resulting mixed vector clock.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflinePlan {
    graph: BipartiteGraph,
    matching_size: usize,
    cover: VertexCover,
    components: ComponentMap,
}

impl OfflinePlan {
    /// The thread–object bipartite graph the plan was computed from.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// Size of the maximum matching (equals the cover size by
    /// Kőnig–Egerváry).
    pub fn matching_size(&self) -> usize {
        self.matching_size
    }

    /// The minimum vertex cover: the chosen threads and objects.
    pub fn cover(&self) -> &VertexCover {
        &self.cover
    }

    /// The component layout of the mixed vector clock.
    pub fn components(&self) -> &ComponentMap {
        &self.components
    }

    /// Number of components of the optimal mixed vector clock.
    pub fn clock_size(&self) -> usize {
        self.components.len()
    }

    /// Size of the best traditional (single-sided) clock for this graph:
    /// `min(active threads, active objects)`.
    pub fn naive_clock_size(&self) -> usize {
        GraphStats::of(&self.graph).naive_clock_size()
    }

    /// How many components the optimal mixed clock saves over the best
    /// traditional clock.
    pub fn savings(&self) -> usize {
        self.naive_clock_size().saturating_sub(self.clock_size())
    }

    /// Builds the streaming [`Timestamper`](crate::Timestamper) replaying the
    /// batch protocol over this plan's components.
    pub fn timestamper(&self) -> crate::BatchReplay {
        crate::BatchReplay::new(self.components.clone())
    }
}

/// The offline optimizer: computes an [`OfflinePlan`] for a computation or a
/// pre-built thread–object graph, matching with Hopcroft–Karp (`O(E √V)`, the
/// paper's "simple and efficient" choice) from a Karp–Sipser start (`O(E)`;
/// see [`mvc_graph::matching`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OfflineOptimizer;

impl OfflineOptimizer {
    /// Creates the optimizer.
    pub fn new() -> Self {
        Self
    }

    /// Runs Algorithm 1 on the thread–object graph of a computation.
    pub fn plan_for_computation(&self, computation: &Computation) -> OfflinePlan {
        self.plan_for_graph(computation.bipartite_graph())
    }

    /// Runs Algorithm 1 on a pre-built thread–object graph, taking ownership
    /// of the graph so the plan can report graph-derived statistics.
    ///
    /// Callers that only need the sizes/cover of a graph they keep should
    /// use the borrowing [`solve`](Self::solve) instead of cloning.
    pub fn plan_for_graph(&self, graph: BipartiteGraph) -> OfflinePlan {
        self.solve(&graph).into_plan(graph)
    }

    /// Runs Algorithm 1 on a *borrowed* graph: the borrow path for callers
    /// that keep (or immediately discard) the graph and must not pay a
    /// clone per call — per-trial sweeps, benchmarks, prefix recomputes.
    ///
    /// # Panics
    ///
    /// Panics if a side or the edge count of `graph` does not fit below
    /// `u32::MAX` (see
    /// [`hopcroft_karp_with_phases`](mvc_graph::matching::hopcroft_karp_with_phases)).
    pub fn solve(&self, graph: &BipartiteGraph) -> OfflineSolution {
        let (matching, cover) = minimum_vertex_cover_of(graph);
        let components = ComponentMap::from_cover(&cover);
        OfflineSolution {
            // Counted from the matching, never from the cover: the Kőnig
            // certificate checks one against the other.
            matching_size: matching.size(),
            cover,
            components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_clock::validate::satisfies_vector_clock_condition;
    use mvc_graph::cover::minimum_vertex_cover;
    use mvc_graph::matching::{hopcroft_karp, simple_augmenting};
    use mvc_graph::{GraphScenario, RandomGraphBuilder};
    use mvc_trace::examples::paper_figure1;
    use mvc_trace::{ObjectId, ThreadId, WorkloadBuilder, WorkloadKind};
    use proptest::prelude::*;

    use crate::replay;

    #[test]
    fn empty_computation_plan() {
        let plan = OfflineOptimizer::new().plan_for_computation(&Computation::new());
        assert_eq!(plan.clock_size(), 0);
        assert_eq!(plan.matching_size(), 0);
        assert_eq!(plan.naive_clock_size(), 0);
        assert_eq!(plan.savings(), 0);
        assert!(plan.cover().is_empty());
    }

    #[test]
    fn figure1_plan_matches_paper() {
        let plan = OfflineOptimizer::new().plan_for_computation(&paper_figure1());
        assert_eq!(plan.clock_size(), 3);
        assert_eq!(plan.matching_size(), 3);
        assert_eq!(
            plan.naive_clock_size(),
            4,
            "4 threads and 4 objects are active"
        );
        assert_eq!(plan.savings(), 1);
        // T2 (thread index 1) and O3 (object index 2) are in every minimum cover.
        assert!(plan.cover().contains_left(1));
        assert!(plan.cover().contains_right(2));
    }

    #[test]
    fn plan_clock_size_never_exceeds_naive() {
        for seed in 0..20 {
            let c = WorkloadBuilder::new(12, 20)
                .operations(200)
                .kind(WorkloadKind::Nonuniform {
                    hot_fraction: 0.2,
                    hot_boost: 6.0,
                })
                .seed(seed)
                .build();
            let plan = OfflineOptimizer::new().plan_for_computation(&c);
            assert!(plan.clock_size() <= plan.naive_clock_size());
            assert_eq!(plan.savings(), plan.naive_clock_size() - plan.clock_size());
        }
    }

    #[test]
    fn skewed_sparse_graphs_save_significantly() {
        // The headline of the evaluation: on sparse, skewed computations the
        // optimal cover is well below min(n, m), because a few popular threads
        // and objects cover most interactions.
        let c = WorkloadBuilder::new(50, 50)
            .operations(200)
            .kind(WorkloadKind::Nonuniform {
                hot_fraction: 0.1,
                hot_boost: 12.0,
            })
            .seed(7)
            .build();
        let plan = OfflineOptimizer::new().plan_for_computation(&c);
        assert!(
            plan.clock_size() < plan.naive_clock_size(),
            "expected savings on a sparse skewed computation: {} vs {}",
            plan.clock_size(),
            plan.naive_clock_size()
        );
    }

    #[test]
    fn solve_borrow_path_agrees_with_plan() {
        for seed in 0..5 {
            let g = RandomGraphBuilder::new(30, 30)
                .density(0.1)
                .scenario(GraphScenario::default_nonuniform())
                .seed(seed)
                .build();
            let solution = OfflineOptimizer::new().solve(&g);
            let plan = OfflineOptimizer::new().plan_for_graph(g.clone());
            assert_eq!(solution.clock_size(), plan.clock_size());
            assert_eq!(solution.matching_size(), plan.matching_size());
            assert_eq!(solution.cover(), plan.cover());
            assert_eq!(solution.components(), plan.components());
            assert_eq!(solution.into_plan(g), plan, "into_plan upgrades losslessly");
        }
    }

    #[test]
    fn solution_equality_is_by_members() {
        // Isolated threads and objects at the high end: the solve's cover
        // spans both whole sides, one rebuilt from its members does not.
        let mut g = BipartiteGraph::new(500, 400);
        for (l, r) in [(0, 0), (1, 0), (2, 1), (2, 2)] {
            g.add_edge(l, r);
        }
        let solution = OfflineOptimizer::new().solve(&g);
        let cover = VertexCover::from_sets(
            (0..500).filter(|&l| solution.cover().contains_left(l)),
            (0..400).filter(|&r| solution.cover().contains_right(r)),
        );
        let rebuilt = OfflineSolution {
            matching_size: 2,
            components: ComponentMap::from_cover(&cover),
            cover,
        };
        assert_eq!(solution, rebuilt);
        assert_eq!(solution.clock_size(), 2);
    }

    #[test]
    fn single_pair_plan() {
        let mut c = Computation::new();
        c.record(ThreadId(0), ObjectId(0));
        let plan = OfflineOptimizer::new().plan_for_computation(&c);
        assert_eq!(plan.clock_size(), 1);
        let stamps = replay(&mut plan.timestamper(), &c).unwrap().timestamps;
        assert_eq!(stamps[0].as_slice(), &[1]);
    }

    proptest! {
        /// End-to-end Theorem 2: the plan's mixed clock is always a valid vector
        /// clock on random workloads.
        #[test]
        fn prop_plan_produces_valid_clock(
            threads in 1usize..8,
            objects in 1usize..8,
            ops in 1usize..100,
            seed in 0u64..200,
        ) {
            let c = WorkloadBuilder::new(threads, objects).operations(ops).seed(seed).build();
            let plan = OfflineOptimizer::new().plan_for_computation(&c);
            let stamps = replay(&mut plan.timestamper(), &c).unwrap().timestamps;
            let oracle = c.causality_oracle();
            prop_assert!(satisfies_vector_clock_condition(&c, &stamps, &oracle));
        }

        /// The solve's cover is the reference search's cover member for
        /// member, with isolated vertices at the high end of both sides, and
        /// its matching size is the reference matcher's.
        #[test]
        fn prop_solve_agrees_with_the_reference_search(
            n_left in 1usize..40,
            n_right in 1usize..40,
            extra_left in 0usize..70,
            extra_right in 0usize..70,
            density in 0.0f64..0.5,
            seed in 0u64..300,
        ) {
            let drawn = RandomGraphBuilder::new(n_left, n_right).density(density).seed(seed).build();
            let edges: Vec<_> = drawn.edges().collect();
            let g = BipartiteGraph::from_edges(n_left + extra_left, n_right + extra_right, &edges);
            let solution = OfflineOptimizer::new().solve(&g);
            let reference = minimum_vertex_cover(&g, &hopcroft_karp(&g));
            prop_assert_eq!(solution.cover(), &reference);
            prop_assert!(solution.cover().covers_all_edges(&g));
            prop_assert_eq!(solution.matching_size(), simple_augmenting(&g).size());
            prop_assert_eq!(solution.components(), &ComponentMap::from_cover(&reference));
        }

        /// Kőnig–Egerváry inside the plan: cover size always equals matching size
        /// and never exceeds the naive clock size.
        #[test]
        fn prop_plan_sizes(
            n_left in 1usize..40,
            n_right in 1usize..40,
            density in 0.0f64..0.5,
            seed in 0u64..300,
        ) {
            let g = RandomGraphBuilder::new(n_left, n_right).density(density).seed(seed).build();
            let plan = OfflineOptimizer::new().plan_for_graph(g);
            prop_assert_eq!(plan.clock_size(), plan.matching_size());
            prop_assert!(plan.clock_size() <= plan.naive_clock_size());
        }
    }
}
