//! Competitive analysis of online mechanisms.
//!
//! The hardness of the online problem (Section IV) is that components can
//! only be added, never revised, so an online mechanism is naturally judged
//! by its *competitive ratio*: the size of its final clock divided by the
//! offline optimum (the minimum vertex cover of the final revealed graph).
//! The paper reports that gap only at the end of each run (Figures 6 and 7);
//! [`CompetitiveTracker`] additionally exposes the *trajectory* — after every
//! revealed event, both the online size so far and the optimum for the graph
//! revealed so far — which the ablation experiments use to show where a
//! mechanism falls behind.
//!
//! The optimum of the revealed graph is maintained by
//! [`IncrementalOptimum`] with an `O(1)` cover-size read and no clone or
//! replan per reveal — fit for production-scale monitoring, not just
//! evaluation.  A reveal makes no per-vertex allocation: what grows is a few
//! flat arrays (the revealed graph, two `u32` links per edge, the
//! trajectory), amortised.  What a reveal costs is stated in
//! [`mvc_graph::incremental`]'s module docs and measured as
//! `tracked_edges_per_s` by the repo benchmark.

use mvc_clock::ComponentMap;
use mvc_graph::IncrementalOptimum;
use mvc_trace::{ObjectId, ThreadId};

use crate::mechanism::OnlineMechanism;
use crate::timestamper::choose_covering;

/// One point of a competitive trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Number of distinct edges revealed so far.
    pub revealed_edges: usize,
    /// Online clock size after this reveal.
    pub online_size: usize,
    /// Offline optimum (minimum vertex cover) of the graph revealed so far.
    pub offline_optimum: usize,
}

impl TrajectoryPoint {
    /// `online_size / offline_optimum` (1.0 when both are zero).
    pub fn ratio(&self) -> f64 {
        if self.offline_optimum == 0 {
            1.0
        } else {
            self.online_size as f64 / self.offline_optimum as f64
        }
    }
}

/// Result of a tracked online run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompetitiveReport {
    /// Trajectory sampled after every *new* edge reveal.
    pub trajectory: Vec<TrajectoryPoint>,
}

impl CompetitiveReport {
    /// The final point of the trajectory, if any edge was revealed.
    pub fn final_point(&self) -> Option<TrajectoryPoint> {
        self.trajectory.last().copied()
    }

    /// The final competitive ratio (1.0 for an empty run).
    pub fn final_ratio(&self) -> f64 {
        self.final_point().map_or(1.0, |p| p.ratio())
    }

    /// The worst (largest) ratio observed anywhere along the trajectory.
    pub fn worst_ratio(&self) -> f64 {
        self.trajectory
            .iter()
            .map(TrajectoryPoint::ratio)
            .fold(1.0, f64::max)
    }
}

/// Tracks an online mechanism against the offline optimum of the revealed
/// graph.
///
/// The optimum is maintained incrementally (see [`mvc_graph::incremental`]
/// for the cost of a reveal; `O(1)` cover-size read between edges) and a
/// tracked reveal only grows flat arrays, amortised: the tracker is safe to
/// leave on in production monitoring, not only in evaluation runs.
#[derive(Debug)]
pub struct CompetitiveTracker<M> {
    mechanism: M,
    optimum: IncrementalOptimum,
    components: ComponentMap,
    trajectory: Vec<TrajectoryPoint>,
}

impl<M: OnlineMechanism> CompetitiveTracker<M> {
    /// Creates a tracker around a mechanism.
    pub fn new(mechanism: M) -> Self {
        Self {
            mechanism,
            optimum: IncrementalOptimum::new(),
            components: ComponentMap::new(),
            trajectory: Vec::new(),
        }
    }

    /// Reveals one event.  A trajectory point is appended only when the event
    /// introduces a new (thread, object) edge — repeats change nothing.
    fn reveal(&mut self, thread: ThreadId, object: ObjectId) {
        let is_new = self.optimum.insert_edge(thread.index(), object.index());
        if !is_new {
            return;
        }
        if !self.components.contains_thread(thread) && !self.components.contains_object(object) {
            self.components.push(
                choose_covering(&mut self.mechanism, self.optimum.graph(), thread, object)
                    .unwrap_or_else(|e| panic!("{e}")),
            );
        }
        self.trajectory.push(TrajectoryPoint {
            revealed_edges: self.optimum.graph().edge_count(),
            online_size: self.components.len(),
            offline_optimum: self.optimum.cover_size(),
        });
    }

    /// Reveals a whole edge stream and returns the report.
    ///
    /// # Panics
    ///
    /// Panics with [`TimestampError::RogueComponent`]'s message when the
    /// mechanism chooses a component covering neither endpoint.
    ///
    /// [`TimestampError::RogueComponent`]: mvc_core::TimestampError::RogueComponent
    pub fn run(mut self, edges: &[(usize, usize)]) -> CompetitiveReport {
        for &(t, o) in edges {
            self.reveal(ThreadId(t), ObjectId(o));
        }
        CompetitiveReport {
            trajectory: self.trajectory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{Naive, Popularity, Random};
    use mvc_graph::{GraphScenario, RandomGraphBuilder};

    #[test]
    fn empty_run_has_trivial_report() {
        let report = CompetitiveTracker::new(Popularity::new()).run(&[]);
        assert!(report.trajectory.is_empty());
        assert_eq!(report.final_ratio(), 1.0);
        assert_eq!(report.worst_ratio(), 1.0);
        assert!(report.final_point().is_none());
    }

    #[test]
    fn single_edge_is_optimal() {
        let report = CompetitiveTracker::new(Popularity::new()).run(&[(0, 0)]);
        let point = report.final_point().unwrap();
        assert_eq!(point.online_size, 1);
        assert_eq!(point.offline_optimum, 1);
        assert_eq!(point.revealed_edges, 1);
        assert_eq!(report.final_ratio(), 1.0);
    }

    #[test]
    fn repeated_edges_do_not_add_trajectory_points() {
        let report = CompetitiveTracker::new(Naive::threads()).run(&[(0, 0), (0, 0), (0, 0)]);
        assert_eq!(report.trajectory.len(), 1);
    }

    #[test]
    fn online_never_below_offline_along_the_whole_trajectory() {
        let (_, stream) = RandomGraphBuilder::new(20, 20)
            .density(0.1)
            .scenario(GraphScenario::default_nonuniform())
            .seed(3)
            .build_edge_stream();
        for report in [
            CompetitiveTracker::new(Popularity::new()).run(&stream),
            CompetitiveTracker::new(Random::seeded(9)).run(&stream),
            CompetitiveTracker::new(Naive::threads()).run(&stream),
        ] {
            for point in &report.trajectory {
                assert!(point.online_size >= point.offline_optimum);
                assert!(point.ratio() >= 1.0);
            }
            assert!(report.worst_ratio() >= report.final_ratio() || report.trajectory.is_empty());
        }
    }

    #[test]
    fn star_reveal_order_shows_naive_threads_weakness() {
        // Ten threads all touching one object: the optimum is 1 (the object),
        // Naive-threads ends at 10, Popularity ends at... it promotes the
        // object as soon as the tie-break sees it, so it stays near optimal.
        let edges: Vec<(usize, usize)> = (0..10).map(|t| (t, 0)).collect();
        let naive = CompetitiveTracker::new(Naive::threads()).run(&edges);
        let popularity = CompetitiveTracker::new(Popularity::new()).run(&edges);
        assert_eq!(naive.final_point().unwrap().offline_optimum, 1);
        assert_eq!(naive.final_point().unwrap().online_size, 10);
        assert!((naive.final_ratio() - 10.0).abs() < 1e-12);
        assert_eq!(popularity.final_point().unwrap().online_size, 1);
        assert_eq!(popularity.final_ratio(), 1.0);
    }

    #[test]
    fn trajectory_optimum_matches_from_scratch_recompute() {
        // The incremental optimum must be indistinguishable from the old
        // clone-and-replan implementation at every trajectory point.
        let (_, stream) = RandomGraphBuilder::new(25, 25)
            .density(0.12)
            .scenario(GraphScenario::default_nonuniform())
            .seed(5)
            .build_edge_stream();
        let report = CompetitiveTracker::new(Popularity::new()).run(&stream);
        assert_eq!(report.trajectory.len(), stream.len());
        let mut revealed = mvc_graph::BipartiteGraph::new(0, 0);
        for (point, &(t, o)) in report.trajectory.iter().zip(&stream) {
            revealed.add_edge_growing(t, o);
            assert_eq!(
                point.offline_optimum,
                mvc_graph::hopcroft_karp(&revealed).size(),
                "optimum diverged after revealing ({t}, {o})"
            );
        }
    }

    #[test]
    fn ratios_are_finite_and_at_least_one() {
        let (_, stream) = RandomGraphBuilder::new(15, 15)
            .density(0.2)
            .seed(11)
            .build_edge_stream();
        let report = CompetitiveTracker::new(Popularity::new()).run(&stream);
        assert!(report.final_ratio() >= 1.0);
        assert!(report.worst_ratio().is_finite());
    }
}
