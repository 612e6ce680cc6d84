//! Random bipartite graph generators for the paper's evaluation scenarios.
//!
//! Section V of the paper evaluates on two families of thread–object graphs:
//!
//! * **Uniform** — every (thread, object) pair is an edge independently with
//!   the same probability `p` (so the expected density is `p`).
//! * **Nonuniform** — "a small fraction of objects and threads are much more
//!   popular than other threads and objects": edges incident to *hot*
//!   vertices are added with a boosted probability, edges between two cold
//!   vertices with a reduced probability, calibrated so the expected density
//!   still matches the requested density.
//!
//! The generators are deterministic given a seed so that every figure in
//! `EXPERIMENTS.md` can be regenerated bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::bipartite::BipartiteGraph;

/// Which of the paper's two evaluation scenarios to generate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum GraphScenario {
    /// Every (thread, object) pair is an edge with the same probability.
    #[default]
    Uniform,
    /// A `hot_fraction` of threads and objects are `hot_boost`× more likely
    /// to be an endpoint of any given edge than cold vertices.
    Nonuniform {
        /// Fraction (0, 1] of vertices on each side that are "popular".
        hot_fraction: f64,
        /// Multiplicative boost applied to the edge probability for each hot
        /// endpoint (a hot–hot pair gets `hot_boost²` before clamping).
        hot_boost: f64,
    },
}

impl GraphScenario {
    /// The nonuniform scenario with the parameters used throughout the
    /// evaluation harness (20% hot vertices, 8× boost).
    pub fn default_nonuniform() -> Self {
        GraphScenario::Nonuniform {
            hot_fraction: 0.2,
            hot_boost: 8.0,
        }
    }

    /// A short, stable name used in reports and CSV headers.
    pub fn name(&self) -> &'static str {
        match self {
            GraphScenario::Uniform => "uniform",
            GraphScenario::Nonuniform { .. } => "nonuniform",
        }
    }
}

/// Builder for random thread–object bipartite graphs.
///
/// ```
/// use mvc_graph::{GraphScenario, RandomGraphBuilder};
/// let g = RandomGraphBuilder::new(50, 50)
///     .density(0.05)
///     .scenario(GraphScenario::Uniform)
///     .seed(42)
///     .build();
/// assert_eq!(g.n_left(), 50);
/// assert_eq!(g.n_right(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct RandomGraphBuilder {
    n_left: usize,
    n_right: usize,
    density: f64,
    scenario: GraphScenario,
    seed: u64,
}

impl RandomGraphBuilder {
    /// Starts a builder for a graph with `n_left` threads and `n_right`
    /// objects.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        Self {
            n_left,
            n_right,
            density: 0.05,
            scenario: GraphScenario::Uniform,
            seed: 0,
        }
    }

    /// Sets the target (expected) edge density in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `[0, 1]` or is NaN.
    pub fn density(mut self, density: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&density),
            "density must be within [0, 1], got {density}"
        );
        self.density = density;
        self
    }

    /// Selects the generation scenario (uniform / nonuniform).
    pub fn scenario(mut self, scenario: GraphScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sets the RNG seed; identical seeds produce identical graphs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the graph.
    pub fn build(&self) -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.build_with_rng(&mut rng)
    }

    /// Generates the graph from `rng`.
    fn build_with_rng<R: Rng + ?Sized>(&self, rng: &mut R) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(self.n_left, self.n_right);
        match self.scenario {
            GraphScenario::Uniform => {
                for l in 0..self.n_left {
                    for r in 0..self.n_right {
                        if rng.gen_bool(self.density.clamp(0.0, 1.0)) {
                            g.add_edge(l, r);
                        }
                    }
                }
            }
            GraphScenario::Nonuniform {
                hot_fraction,
                hot_boost,
            } => {
                let hot_left = hot_count(self.n_left, hot_fraction);
                let hot_right = hot_count(self.n_right, hot_fraction);
                // Choose a base probability for cold-cold pairs such that the
                // expected number of edges matches `density * n_left * n_right`.
                // Pair weights: cold-cold 1, hot-cold hot_boost, hot-hot hot_boost².
                let f_l = if self.n_left == 0 {
                    0.0
                } else {
                    hot_left as f64 / self.n_left as f64
                };
                let f_r = if self.n_right == 0 {
                    0.0
                } else {
                    hot_right as f64 / self.n_right as f64
                };
                let mean_weight = (1.0 - f_l) * (1.0 - f_r)
                    + (f_l * (1.0 - f_r) + f_r * (1.0 - f_l)) * hot_boost
                    + f_l * f_r * hot_boost * hot_boost;
                let base = if mean_weight > 0.0 {
                    self.density / mean_weight
                } else {
                    self.density
                };
                for l in 0..self.n_left {
                    for r in 0..self.n_right {
                        let mut p = base;
                        if l < hot_left {
                            p *= hot_boost;
                        }
                        if r < hot_right {
                            p *= hot_boost;
                        }
                        if rng.gen_bool(p.clamp(0.0, 1.0)) {
                            g.add_edge(l, r);
                        }
                    }
                }
            }
        }
        g
    }

    /// Generates the graph and returns its edges in a uniformly random order,
    /// simulating an online computation revealing events one at a time.
    ///
    /// The shuffle uses the same seeded RNG stream as the graph itself so a
    /// `(builder, seed)` pair fully determines the revealed sequence.
    pub fn build_edge_stream(&self) -> (BipartiteGraph, Vec<(usize, usize)>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let g = self.build_with_rng(&mut rng);
        let mut edges: Vec<(usize, usize)> = g.edges().collect();
        // Fisher-Yates shuffle driven by the same RNG stream.
        for i in (1..edges.len()).rev() {
            let j = rng.gen_range(0..=i);
            edges.swap(i, j);
        }
        (g, edges)
    }
}

fn hot_count(n: usize, fraction: f64) -> usize {
    if n == 0 {
        return 0;
    }
    ((n as f64 * fraction).round() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let b = RandomGraphBuilder::new(20, 20).density(0.3).seed(99);
        assert_eq!(b.build(), b.build());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let a = RandomGraphBuilder::new(20, 20).density(0.3).seed(1).build();
        let b = RandomGraphBuilder::new(20, 20).density(0.3).seed(2).build();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_density_has_no_edges() {
        let g = RandomGraphBuilder::new(30, 30).density(0.0).seed(5).build();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn full_density_is_complete() {
        let g = RandomGraphBuilder::new(10, 12).density(1.0).seed(5).build();
        assert_eq!(g.edge_count(), 120);
    }

    #[test]
    #[should_panic(expected = "density must be within")]
    fn invalid_density_rejected() {
        let _ = RandomGraphBuilder::new(5, 5).density(1.5);
    }

    #[test]
    fn uniform_density_close_to_target() {
        let g = RandomGraphBuilder::new(100, 100)
            .density(0.2)
            .seed(7)
            .build();
        let observed = g.density();
        assert!(
            (observed - 0.2).abs() < 0.03,
            "observed density {observed} too far from 0.2"
        );
    }

    #[test]
    fn nonuniform_density_close_to_target() {
        let g = RandomGraphBuilder::new(100, 100)
            .density(0.1)
            .scenario(GraphScenario::default_nonuniform())
            .seed(11)
            .build();
        let observed = g.density();
        assert!(
            (observed - 0.1).abs() < 0.04,
            "observed density {observed} too far from 0.1"
        );
    }

    #[test]
    fn nonuniform_hot_vertices_have_higher_degree() {
        let g = RandomGraphBuilder::new(100, 100)
            .density(0.05)
            .scenario(GraphScenario::Nonuniform {
                hot_fraction: 0.1,
                hot_boost: 10.0,
            })
            .seed(3)
            .build();
        let hot: usize = (0..10).map(|l| g.degree_left(l)).sum();
        let cold: usize = (10..100).map(|l| g.degree_left(l)).sum();
        let hot_avg = hot as f64 / 10.0;
        let cold_avg = cold as f64 / 90.0;
        assert!(
            hot_avg > 2.0 * cold_avg,
            "hot average degree {hot_avg} not clearly above cold {cold_avg}"
        );
    }

    #[test]
    fn edge_stream_covers_exactly_the_graph() {
        let (g, stream) = RandomGraphBuilder::new(30, 30)
            .density(0.1)
            .seed(21)
            .build_edge_stream();
        assert_eq!(stream.len(), g.edge_count());
        for &(l, r) in &stream {
            assert!(g.has_edge(l, r));
        }
    }

    #[test]
    fn edge_stream_is_deterministic() {
        let b = RandomGraphBuilder::new(30, 30).density(0.1).seed(21);
        assert_eq!(b.build_edge_stream().1, b.build_edge_stream().1);
    }

    #[test]
    fn scenario_names() {
        assert_eq!(GraphScenario::Uniform.name(), "uniform");
        assert_eq!(GraphScenario::default_nonuniform().name(), "nonuniform");
        assert_eq!(GraphScenario::default(), GraphScenario::Uniform);
    }

    #[test]
    fn hot_count_bounds() {
        assert_eq!(hot_count(0, 0.2), 0);
        assert_eq!(hot_count(10, 0.2), 2);
        assert_eq!(hot_count(3, 0.01), 1, "at least one hot vertex when n > 0");
        assert_eq!(hot_count(4, 2.0), 4, "clamped to n");
    }
}
