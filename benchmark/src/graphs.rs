//! The graph-side work: `plan-sparse`'s seeded inputs, the offline solve with
//! its Kőnig certificate, and the competitive tracker.

use std::time::{Duration, Instant};

use mvc_core::{OfflineOptimizer, OfflineSolution};
use mvc_graph::{BipartiteGraph, GraphScenario, RandomGraphBuilder, VertexCover};
use mvc_online::{CompetitiveTracker, Popularity};

use crate::args::Corrupt;

/// One seeded random graph with its edge-reveal stream.
#[derive(Debug)]
pub struct Sparse {
    /// The final graph.
    pub graph: BipartiteGraph,
    /// Its edges in reveal order.
    pub stream: Vec<(usize, usize)>,
    /// Time `build_edge_stream` took.
    pub generate: Duration,
}

fn sparse(n: usize, scenario: GraphScenario, seed: u64) -> Sparse {
    let started = Instant::now();
    let (graph, stream) = RandomGraphBuilder::new(n, n)
        .density(3.0 / n as f64)
        .scenario(scenario)
        .seed(seed)
        .build_edge_stream();
    Sparse {
        graph,
        stream,
        generate: started.elapsed(),
    }
}

/// The graphs of `plan-sparse`: the paper's two scenarios at mean degree 3,
/// the sparse regime where a mixed clock beats both one-sided clocks.
///
/// Each scenario is a *family* of independent graphs, not one big graph,
/// because the driver compares runs across seeds and Hopcroft–Karp's time on
/// one random graph is a matter of luck: a single uniform graph with
/// n = 16384 solves in 17.6 to 30.9 ms depending on the seed, eight with
/// n = 8192 in 70.7 to 88.7 ms together.
#[derive(Debug)]
pub struct PlanInput {
    /// Uniform graphs.
    pub uniform: Vec<Sparse>,
    /// Nonuniform graphs (a fifth of the vertices hot).  The first is also
    /// the tracker's graph.
    pub nonuniform: Vec<Sparse>,
}

impl PlanInput {
    /// Side length of every graph: large enough that the incremental
    /// optimum's per-insertion cost, which grows with V and is invisible at
    /// the 64 x 64 of the stamping workloads, dominates the tracker.
    pub const N: usize = 8192;
    /// How many uniform graphs.
    pub const UNIFORM: u64 = 8;
    /// How many nonuniform graphs.
    pub const NONUNIFORM: u64 = 2;

    /// Generates the graphs from `seed`.
    pub fn build(seed: u64) -> Self {
        let sub = |k: u64| {
            seed.wrapping_mul(Self::UNIFORM + Self::NONUNIFORM)
                .wrapping_add(k)
        };
        PlanInput {
            uniform: (0..Self::UNIFORM)
                .map(|k| sparse(Self::N, GraphScenario::Uniform, sub(k)))
                .collect(),
            nonuniform: (0..Self::NONUNIFORM)
                .map(|k| {
                    sparse(
                        Self::N,
                        GraphScenario::default_nonuniform(),
                        sub(Self::UNIFORM + k),
                    )
                })
                .collect(),
        }
    }

    /// Every graph, uniform first.
    pub fn graphs(&self) -> impl Iterator<Item = &Sparse> {
        self.uniform.iter().chain(&self.nonuniform)
    }

    /// The graph the tracker is run on.
    pub fn tracked(&self) -> &Sparse {
        &self.nonuniform[0]
    }

    /// Edges of all graphs together.
    pub fn edges(&self) -> u64 {
        self.graphs().map(|g| g.stream.len() as u64).sum()
    }
}

/// Runs `OfflineOptimizer::solve` and returns the solution with its time.
pub fn solve_timed(graph: &BipartiteGraph) -> (OfflineSolution, Duration) {
    let started = Instant::now();
    let solution = OfflineOptimizer::new().solve(std::hint::black_box(graph));
    let elapsed = started.elapsed();
    (std::hint::black_box(solution), elapsed)
}

/// Checks the Kőnig certificate of a solution — the cover covers every edge
/// and is exactly as large as the matching, hence minimum — and returns what
/// is wrong with it, if anything.  `corrupt` drops one cover vertex first.
pub fn certificate_faults(
    graph: &BipartiteGraph,
    solution: &OfflineSolution,
    corrupt: Option<Corrupt>,
) -> Vec<String> {
    let dropped: VertexCover;
    let cover = if corrupt == Some(Corrupt::Cover) {
        dropped = solution.cover().members().into_iter().skip(1).collect();
        &dropped
    } else {
        solution.cover()
    };
    let mut faults = Vec::new();
    if !cover.covers_all_edges(graph) {
        faults.push("the cover leaves an edge uncovered".to_owned());
    }
    if cover.size() != solution.matching_size() {
        faults.push(format!(
            "cover size {} != matching size {}",
            cover.size(),
            solution.matching_size()
        ));
    }
    faults
}

/// `CompetitiveTracker::new(Popularity::new()).run(stream)`: its time, and
/// the final offline optimum it maintained.
pub fn track(stream: &[(usize, usize)]) -> (Duration, usize) {
    let started = Instant::now();
    let report = CompetitiveTracker::new(Popularity::new()).run(std::hint::black_box(stream));
    let elapsed = started.elapsed();
    (
        elapsed,
        report.final_point().map_or(0, |p| p.offline_optimum),
    )
}
