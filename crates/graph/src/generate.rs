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
//! Both are block models: every pair in a block is an edge independently
//! with the block's probability.  The builder walks the pairs row by row and
//! skips geometrically inside each run of equal probability (Batagelj &
//! Brandes, "Efficient generation of large random networks", Phys. Rev. E 71,
//! 036113, 2005): the gap to the next edge is drawn directly, from one random
//! word, so a graph costs `O(n_left + m)` draws and time instead of one draw
//! per pair.
//!
//! A seed fixes the graph, and with it every figure of `mvc_eval`
//! (README's "Regenerating the paper's figures"; `crates/eval/tests/golden/`
//! holds two of them byte for byte).  It does so within one version of this
//! module only: the move from one Bernoulli draw per pair to geometric
//! skipping gave every seed a new graph from the same distribution.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bipartite::BipartiteGraph;

/// Which of the paper's two evaluation scenarios to generate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
    ///
    /// # Panics
    ///
    /// Panics if a nonuniform scenario's `hot_fraction` is not in `(0, 1]`
    /// or its `hot_boost` is not finite and positive (NaN fails both).
    pub fn scenario(mut self, scenario: GraphScenario) -> Self {
        if let GraphScenario::Nonuniform {
            hot_fraction,
            hot_boost,
        } = scenario
        {
            assert!(
                hot_fraction > 0.0 && hot_fraction <= 1.0,
                "hot_fraction must be within (0, 1], got {hot_fraction}"
            );
            assert!(
                hot_boost.is_finite() && hot_boost > 0.0,
                "hot_boost must be finite and positive, got {hot_boost}"
            );
        }
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

    /// Generates the graph from `rng`, one row of pairs after another with
    /// ascending objects, so edges are inserted row-major.
    fn build_with_rng<R: Rng + ?Sized>(&self, rng: &mut R) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(self.n_left, self.n_right);
        // A uniform graph is the nonuniform one with no hot vertex.
        let (hot_left, hot_right, boost, base) = match self.scenario {
            GraphScenario::Uniform => (0, 0, 1.0, self.density),
            GraphScenario::Nonuniform {
                hot_fraction,
                hot_boost,
            } => {
                let hot_left = hot_count(self.n_left, hot_fraction);
                let hot_right = hot_count(self.n_right, hot_fraction);
                // Choose a base probability for cold-cold pairs such that the
                // expected number of edges matches `density * n_left * n_right`.
                // Pair weights: cold-cold 1, hot-cold hot_boost, hot-hot hot_boost²;
                // their mean is positive because `scenario` checked the boost.
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
                (hot_left, hot_right, hot_boost, self.density / mean_weight)
            }
        };
        for l in 0..self.n_left {
            let row = if l < hot_left { base * boost } else { base };
            // The hot objects, then the cold ones; a uniform row has no hot
            // object, so its first run is empty and draws nothing.
            let mut start = 0;
            for (end, p) in [(hot_right, row * boost), (self.n_right, row)] {
                let mut r = start;
                while let Some(edge) = first_edge(rng, r..end, p) {
                    g.add_edge(l, edge);
                    r = edge + 1;
                }
                start = end;
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

/// The first index of `cells` that is an edge when each is one
/// independently with probability `p`, or `None` if none of them is.
///
/// The number of misses before the first edge is geometric:
/// `⌊ln(1 − U) / ln(1 − p)⌋` with `U` uniform in `[0, 1)` is at least `k`
/// with probability `(1 − p)^k`.  That costs one draw; an empty run, `p ≤ 0`
/// and `p ≥ 1` cost none.
fn first_edge<R: Rng + ?Sized>(rng: &mut R, cells: Range<usize>, p: f64) -> Option<usize> {
    if cells.is_empty() || p <= 0.0 {
        return None;
    }
    if p >= 1.0 {
        return Some(cells.start);
    }
    let u: f64 = rng.gen_range(0.0..1.0);
    let misses = (-u).ln_1p() / (-p).ln_1p();
    // Compared with the run's length before it is added, so the index
    // cannot overflow.
    (misses < cells.len() as f64).then(|| cells.start + misses as usize)
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

    fn nonuniform(hot_fraction: f64, hot_boost: f64) -> RandomGraphBuilder {
        let scenario = GraphScenario::Nonuniform {
            hot_fraction,
            hot_boost,
        };
        RandomGraphBuilder::new(5, 5).scenario(scenario)
    }

    #[test]
    #[should_panic(expected = "hot_boost must be finite and positive, got NaN")]
    fn nan_boost_rejected() {
        let _ = nonuniform(0.2, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "hot_boost must be finite and positive, got inf")]
    fn infinite_boost_rejected() {
        let _ = nonuniform(0.2, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "hot_boost must be finite and positive, got 0")]
    fn zero_boost_rejected() {
        let _ = nonuniform(0.2, 0.0);
    }

    #[test]
    #[should_panic(expected = "hot_fraction must be within (0, 1], got 0")]
    fn zero_hot_fraction_rejected() {
        let _ = nonuniform(0.0, 8.0);
    }

    #[test]
    #[should_panic(expected = "hot_fraction must be within (0, 1], got 1.5")]
    fn hot_fraction_above_one_rejected() {
        let _ = nonuniform(1.5, 8.0);
    }

    /// Edge counts summed over `seeds` graphs of `builder`, one per block of
    /// `hot_left` × `hot_right` (hot–hot, hot–cold, cold–hot, cold–cold);
    /// asserts on the way that every graph's edges come out row-major.
    fn block_counts(
        builder: &RandomGraphBuilder,
        (hot_left, hot_right): (usize, usize),
        seeds: std::ops::Range<u64>,
    ) -> [u64; 4] {
        let mut counts = [0; 4];
        for seed in seeds {
            let g = builder.clone().seed(seed).build();
            let edges: Vec<_> = g.edges().collect();
            assert!(edges.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
            for (l, r) in edges {
                counts[2 * usize::from(l >= hot_left) + usize::from(r >= hot_right)] += 1;
            }
        }
        counts
    }

    /// Asserts that `observed` edges over `graphs` graphs lie within 4
    /// standard deviations of the binomial expectation of `cells` pairs a
    /// graph at probability `p`.
    fn assert_binomial(observed: u64, graphs: u64, cells: usize, p: f64, what: &str) {
        let trials = (graphs * cells as u64) as f64;
        let mean = trials * p;
        let sd = (trials * p * (1.0 - p)).sqrt();
        let z = (observed as f64 - mean) / sd;
        assert!(
            z.abs() <= 4.0,
            "{what}: {observed} edges, expected {mean:.1} ± {sd:.1} (z = {z:.2})"
        );
    }

    #[test]
    fn block_edge_counts_match_their_probabilities() {
        // 200 graphs of 200 threads × 300 objects per scenario.  Every block
        // of pairs is binomial, so its total over the graphs must sit within
        // 4 standard deviations of cells × p; the probabilities are derived
        // here from the scenario's definition, not read from the builder.
        let (n_left, n_right, density, graphs) = (200, 300, 0.02, 200);
        let uniform = RandomGraphBuilder::new(n_left, n_right).density(density);
        let [.., all] = block_counts(&uniform, (0, 0), 0..graphs);
        assert_binomial(all, graphs, n_left * n_right, density, "uniform");

        // A fifth hot on each side: 40 threads and 60 objects.  The mean
        // pair weight is 0.8² + 2 × 0.8 × 0.2 × 8 + 0.2² × 8² = 5.76.
        let nonuniform = uniform.scenario(GraphScenario::default_nonuniform());
        let (hot_left, hot_right) = (40, 60);
        let base = density / 5.76;
        let counts = block_counts(&nonuniform, (hot_left, hot_right), 0..graphs);
        let (cold_left, cold_right) = (n_left - hot_left, n_right - hot_right);
        let blocks = [
            (hot_left * hot_right, base * 64.0, "hot-hot"),
            (hot_left * cold_right, base * 8.0, "hot-cold"),
            (cold_left * hot_right, base * 8.0, "cold-hot"),
            (cold_left * cold_right, base, "cold-cold"),
        ];
        for (observed, (cells, p, what)) in counts.into_iter().zip(blocks) {
            assert_binomial(observed, graphs, cells, p, what);
        }
    }

    #[test]
    fn a_block_at_probability_one_or_more_is_complete() {
        // 10 of 40 vertices hot on each side, boost 4: the mean pair weight
        // is 0.75² + 2 × 0.75 × 0.25 × 4 + 0.25² × 16 = 3.0625, so hot–hot
        // pairs get 0.5 / 3.0625 × 16 ≈ 2.6 before clamping.
        let builder =
            RandomGraphBuilder::new(40, 40)
                .density(0.5)
                .scenario(GraphScenario::Nonuniform {
                    hot_fraction: 0.25,
                    hot_boost: 4.0,
                });
        let base = 0.5 / 3.0625;
        let graphs = 50;
        let [hot_hot, hot_cold, cold_hot, cold_cold] = block_counts(&builder, (10, 10), 0..graphs);
        assert_eq!(hot_hot, graphs * 100);
        assert_binomial(hot_cold, graphs, 300, base * 4.0, "hot-cold");
        assert_binomial(cold_hot, graphs, 300, base * 4.0, "cold-hot");
        assert_binomial(cold_cold, graphs, 900, base, "cold-cold");
    }

    #[test]
    fn empty_sides_and_a_single_pair() {
        for scenario in [GraphScenario::Uniform, GraphScenario::default_nonuniform()] {
            for (n_left, n_right) in [(0, 7), (7, 0), (0, 0)] {
                let g = RandomGraphBuilder::new(n_left, n_right)
                    .density(1.0)
                    .scenario(scenario)
                    .build();
                assert_eq!((g.n_left(), g.n_right()), (n_left, n_right));
                assert_eq!(g.edge_count(), 0, "{scenario:?} {n_left} x {n_right}");
            }
            let one = |density| {
                RandomGraphBuilder::new(1, 1)
                    .density(density)
                    .scenario(scenario)
            };
            assert_eq!(one(1.0).build().edges().collect::<Vec<_>>(), [(0, 0)]);
            assert_eq!(one(0.0).build().edge_count(), 0);
            // The one pair is hot–hot in the nonuniform scenario, and its
            // probability is the density either way.
            let [.., edges] = block_counts(&one(0.3), (0, 0), 0..400);
            assert_binomial(edges, 400, 1, 0.3, scenario.name());
        }
    }

    #[test]
    fn hot_count_bounds() {
        assert_eq!(hot_count(0, 0.2), 0);
        assert_eq!(hot_count(10, 0.2), 2);
        assert_eq!(hot_count(3, 0.01), 1, "at least one hot vertex when n > 0");
        assert_eq!(hot_count(4, 2.0), 4, "clamped to n");
    }
}
