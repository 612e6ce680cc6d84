//! The online component-selection mechanisms.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mvc_clock::Component;
use mvc_graph::{stats::more_popular, BipartiteGraph, Vertex};
use mvc_trace::{ObjectId, ThreadId};

/// An online component-selection policy.
///
/// [`choose`](OnlineMechanism::choose) is called only when a newly revealed
/// event `(thread, object)` is *not* covered by the components selected so
/// far; it must return one of the two endpoints, which is then added as a new
/// clock component (components are never removed).
///
/// While [`reads_graph`](OnlineMechanism::reads_graph) returns `true`,
/// `graph` is the thread–object bipartite graph of the computation revealed
/// so far, *including* the edge of the current event.  Once it returns
/// `false` the mechanism has promised never to read `graph` again, and a
/// driver may stop revealing edges into it: a later `choose` gets a graph
/// that may lack edges.
///
/// The trait is dyn-compatible: every driver in the workspace accepts
/// `Box<dyn OnlineMechanism>`, so mechanisms can be selected by name at
/// runtime through the [`MechanismRegistry`](crate::MechanismRegistry)
/// instead of being enumerated as concrete types.
pub trait OnlineMechanism {
    /// A short, stable name for reports.
    fn name(&self) -> &'static str;

    /// Chooses which endpoint of the uncovered event becomes a component.
    fn choose(&mut self, graph: &BipartiteGraph, thread: ThreadId, object: ObjectId) -> Component;

    /// Whether a later [`choose`](OnlineMechanism::choose) may read its
    /// `graph`.  Once this returns `false` for an instance it stays `false`,
    /// so a driver may stop revealing edges from then on: that reveal is
    /// most of what a simulated decision costs.
    fn reads_graph(&self) -> bool {
        true
    }
}

impl<M: OnlineMechanism + ?Sized> OnlineMechanism for Box<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn choose(&mut self, graph: &BipartiteGraph, thread: ThreadId, object: ObjectId) -> Component {
        (**self).choose(graph, thread, object)
    }

    fn reads_graph(&self) -> bool {
        (**self).reads_graph()
    }
}

impl<M: OnlineMechanism + ?Sized> OnlineMechanism for &mut M {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn choose(&mut self, graph: &BipartiteGraph, thread: ThreadId, object: ObjectId) -> Component {
        (**self).choose(graph, thread, object)
    }

    fn reads_graph(&self) -> bool {
        (**self).reads_graph()
    }
}

/// Which side the [`Naive`] mechanism always chooses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NaiveSide {
    /// Always promote the event's thread.
    #[default]
    Threads,
    /// Always promote the event's object.
    Objects,
}

/// The conventional solution: always choose threads (or always objects).
///
/// Produces a final clock with one component per active thread (resp.
/// object) — the traditional vector clock, used as the baseline in every
/// figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Naive {
    side: NaiveSide,
}

impl Naive {
    /// Always choose threads.
    pub fn threads() -> Self {
        Self {
            side: NaiveSide::Threads,
        }
    }

    /// Always choose objects.
    pub fn objects() -> Self {
        Self {
            side: NaiveSide::Objects,
        }
    }

    /// The side this instance promotes.
    pub fn side(&self) -> NaiveSide {
        self.side
    }
}

impl OnlineMechanism for Naive {
    fn name(&self) -> &'static str {
        match self.side {
            NaiveSide::Threads => "naive-threads",
            NaiveSide::Objects => "naive-objects",
        }
    }

    fn choose(&mut self, _graph: &BipartiteGraph, thread: ThreadId, object: ObjectId) -> Component {
        match self.side {
            NaiveSide::Threads => Component::Thread(thread),
            NaiveSide::Objects => Component::Object(object),
        }
    }

    fn reads_graph(&self) -> bool {
        false
    }
}

/// Choose the thread or the object with probability ½ each.
#[derive(Debug, Clone)]
pub struct Random {
    rng: StdRng,
}

impl Random {
    /// Creates the mechanism with a deterministic seed (evaluation runs are
    /// reproducible given the seed).
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl OnlineMechanism for Random {
    fn name(&self) -> &'static str {
        "random"
    }

    fn choose(&mut self, _graph: &BipartiteGraph, thread: ThreadId, object: ObjectId) -> Component {
        if self.rng.gen_bool(0.5) {
            Component::Thread(thread)
        } else {
            Component::Object(object)
        }
    }

    fn reads_graph(&self) -> bool {
        false
    }
}

/// Choose the endpoint with higher popularity `deg(v) / |E|` in the revealed
/// graph (Definition 1 of the paper); ties go to the object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Popularity;

impl Popularity {
    /// Creates the mechanism.
    pub fn new() -> Self {
        Self
    }
}

impl OnlineMechanism for Popularity {
    fn name(&self) -> &'static str {
        "popularity"
    }

    fn choose(&mut self, graph: &BipartiteGraph, thread: ThreadId, object: ObjectId) -> Component {
        match more_popular(graph, thread.index(), object.index()) {
            Vertex::Left(t) => Component::Thread(ThreadId(t)),
            Vertex::Right(o) => Component::Object(ObjectId(o)),
        }
    }
}

/// The practical hybrid from the paper's Section V conclusion: start with
/// [`Popularity`], and once the revealed graph exceeds a density threshold or
/// a node-count threshold, behave like [`Naive`] for all later decisions.
///
/// Density is measured over the *active* vertices of the revealed graph and
/// only consulted once at least 16 vertices are active: a freshly revealed
/// graph of a handful of nodes is always near density 1.0, and switching on
/// that noise would collapse the mechanism into plain Naive from the first
/// event.  Once switched it never reads the graph again, and
/// [`reads_graph`](OnlineMechanism::reads_graph) says so.
#[derive(Debug, Clone)]
pub struct Adaptive {
    popularity: Popularity,
    naive: Naive,
    density_threshold: f64,
    node_threshold: usize,
    switched: bool,
}

impl Adaptive {
    /// Minimum number of active vertices before the density trigger is
    /// consulted (below this, observed density is dominated by small-sample
    /// noise).
    const DENSITY_WARMUP_ACTIVE_NODES: usize = 16;

    /// Creates the hybrid with explicit thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `density_threshold` is not in `[0, 1]`.
    pub fn new(density_threshold: f64, node_threshold: usize, naive_side: NaiveSide) -> Self {
        assert!(
            (0.0..=1.0).contains(&density_threshold),
            "density threshold must be within [0, 1], got {density_threshold}"
        );
        Self {
            popularity: Popularity::new(),
            naive: Naive { side: naive_side },
            density_threshold,
            node_threshold,
            switched: false,
        }
    }

    /// Thresholds matching the crossovers observed in the paper's evaluation:
    /// density 0.2 and 70 active nodes.
    pub fn with_paper_thresholds() -> Self {
        Self::new(0.2, 70, NaiveSide::Threads)
    }

    /// Returns `true` once the mechanism has permanently switched to Naive.
    pub fn has_switched(&self) -> bool {
        self.switched
    }
}

impl OnlineMechanism for Adaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn choose(&mut self, graph: &BipartiteGraph, thread: ThreadId, object: ObjectId) -> Component {
        if !self.switched {
            // O(1) per decision: the graph maintains its active-vertex
            // counts incrementally, so the hybrid adds no per-event scan of
            // the revealed graph.
            let active_left = graph.active_left_count();
            let active_right = graph.active_right_count();
            let active_nodes = active_left + active_right;
            // Density over active vertices only: the allocated sides of a
            // grown revealed graph track the highest ids seen, not the
            // population that matters for cover size.
            let active_density = if active_left == 0 || active_right == 0 {
                0.0
            } else {
                graph.edge_count() as f64 / (active_left * active_right) as f64
            };
            let density_tripped = active_nodes >= Self::DENSITY_WARMUP_ACTIVE_NODES
                && active_density > self.density_threshold;
            if density_tripped || active_nodes > self.node_threshold {
                self.switched = true;
            }
        }
        if self.switched {
            self.naive.choose(graph, thread, object)
        } else {
            self.popularity.choose(graph, thread, object)
        }
    }

    /// Only until it switches: Naive never reads the graph.
    fn reads_graph(&self) -> bool {
        !self.switched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with(edges: &[(usize, usize)]) -> BipartiteGraph {
        BipartiteGraph::from_edges(10, 10, edges)
    }

    #[test]
    fn naive_threads_always_picks_thread() {
        let mut m = Naive::threads();
        let g = graph_with(&[(0, 0)]);
        assert_eq!(
            m.choose(&g, ThreadId(0), ObjectId(0)),
            Component::Thread(ThreadId(0))
        );
        assert_eq!(m.name(), "naive-threads");
        assert_eq!(m.side(), NaiveSide::Threads);
    }

    #[test]
    fn naive_objects_always_picks_object() {
        let mut m = Naive::objects();
        let g = graph_with(&[(3, 7)]);
        assert_eq!(
            m.choose(&g, ThreadId(3), ObjectId(7)),
            Component::Object(ObjectId(7))
        );
        assert_eq!(m.name(), "naive-objects");
        assert_eq!(Naive::default().side(), NaiveSide::Threads);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_picks_an_endpoint() {
        let g = graph_with(&[(1, 2)]);
        let run = |seed| {
            let mut m = Random::seeded(seed);
            (0..20)
                .map(|_| m.choose(&g, ThreadId(1), ObjectId(2)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9), "same seed, same decisions");
        for c in run(9) {
            assert!(
                c == Component::Thread(ThreadId(1)) || c == Component::Object(ObjectId(2)),
                "random must pick one of the two endpoints"
            );
        }
        // Across many draws both endpoints must appear (probability of failure ~2^-40).
        let picks = run(1234);
        assert!(picks.iter().any(|c| matches!(c, Component::Thread(_))));
        assert!(picks.iter().any(|c| matches!(c, Component::Object(_))));
        assert_eq!(Random::seeded(0).name(), "random");
    }

    #[test]
    fn popularity_picks_higher_degree_endpoint() {
        // Object 0 touched by threads 0,1,2; thread 0 touched objects 0 only.
        let g = graph_with(&[(0, 0), (1, 0), (2, 0)]);
        let mut m = Popularity::new();
        assert_eq!(
            m.choose(&g, ThreadId(0), ObjectId(0)),
            Component::Object(ObjectId(0))
        );
        // Thread 5 with degree 3 vs object 6 with degree 1.
        let g2 = graph_with(&[(5, 6), (5, 7), (5, 8)]);
        let mut m2 = Popularity::new();
        assert_eq!(
            m2.choose(&g2, ThreadId(5), ObjectId(6)),
            Component::Thread(ThreadId(5))
        );
        assert_eq!(m2.name(), "popularity");
    }

    #[test]
    fn popularity_tie_goes_to_object() {
        let g = graph_with(&[(0, 0)]);
        let mut m = Popularity::new();
        assert_eq!(
            m.choose(&g, ThreadId(0), ObjectId(0)),
            Component::Object(ObjectId(0))
        );
    }

    #[test]
    fn adaptive_switches_on_node_threshold() {
        let mut m = Adaptive::new(1.0, 3, NaiveSide::Threads);
        // Small graph: behaves like popularity (object on ties).
        let small = graph_with(&[(0, 0)]);
        assert_eq!(
            m.choose(&small, ThreadId(0), ObjectId(0)),
            Component::Object(ObjectId(0))
        );
        assert!(!m.has_switched());
        // Larger graph: 4 active nodes > 3 -> switch to naive-threads, permanently.
        let big = graph_with(&[(0, 0), (1, 1)]);
        assert_eq!(
            m.choose(&big, ThreadId(1), ObjectId(1)),
            Component::Thread(ThreadId(1))
        );
        assert!(m.has_switched());
        // Even on a small graph again, it stays naive.
        assert_eq!(
            m.choose(&small, ThreadId(0), ObjectId(0)),
            Component::Thread(ThreadId(0))
        );
        assert_eq!(m.name(), "adaptive");
    }

    #[test]
    fn adaptive_switches_on_density_threshold() {
        let mut m = Adaptive::new(0.4, 1000, NaiveSide::Objects);
        // Density over active nodes 1/1 = 1.0, but only 2 active vertices:
        // below the warm-up, so the trigger must not fire.
        let sparse = graph_with(&[(0, 0)]);
        m.choose(&sparse, ThreadId(0), ObjectId(0));
        assert!(!m.has_switched());
        // Complete 8x8 graph: 16 active vertices (warm-up reached), active
        // density 1.0 > 0.4.
        let mut edges = Vec::new();
        for t in 0..8 {
            for o in 0..8 {
                edges.push((t, o));
            }
        }
        let dense = BipartiteGraph::from_edges(8, 8, &edges);
        assert_eq!(
            m.choose(&dense, ThreadId(1), ObjectId(1)),
            Component::Object(ObjectId(1))
        );
        assert!(m.has_switched());
    }

    #[test]
    fn adaptive_ignores_small_sample_density() {
        // Regression: a freshly revealed graph is always near density 1.0;
        // before the warm-up the mechanism must keep behaving like
        // Popularity instead of collapsing into Naive on the first event.
        let mut m = Adaptive::with_paper_thresholds();
        let tiny = BipartiteGraph::from_edges(1, 1, &[(0, 0)]);
        assert_eq!(
            m.choose(&tiny, ThreadId(0), ObjectId(0)),
            Component::Object(ObjectId(0)),
            "popularity tie-break (object), not naive-threads"
        );
        assert!(!m.has_switched());
    }

    #[test]
    #[should_panic(expected = "density threshold")]
    fn adaptive_rejects_bad_threshold() {
        let _ = Adaptive::new(2.0, 10, NaiveSide::Threads);
    }

    #[test]
    fn paper_thresholds_constructor() {
        let m = Adaptive::with_paper_thresholds();
        assert!(!m.has_switched());
    }
}
