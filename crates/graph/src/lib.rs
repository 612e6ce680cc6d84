//! Bipartite graph substrate for the mixed-vector-clock algorithms.
//!
//! A computation of threads operating on shared objects induces a
//! *thread–object bipartite graph*: left vertices are threads, right vertices
//! are objects, and an edge `(t, o)` exists iff thread `t` performed at least
//! one operation on object `o`.  The paper's central observation is that any
//! set of mixed-vector-clock components must be a *vertex cover* of this
//! graph, and that a *minimum* vertex cover — computable in polynomial time
//! via the Kőnig–Egerváry theorem — yields the optimal (smallest) valid mixed
//! vector clock.
//!
//! This crate provides:
//!
//! * [`BipartiteGraph`] — a bipartite graph with incremental edge insertion
//!   (used both offline and online), stored as an insertion-ordered edge log,
//!   two degree arrays and a set of the pairs seen, so that an edge revealed
//!   online costs one probe of a multiplicative-hash table, one push and two
//!   increments.  It keeps no per-vertex lists: each offline solve groups the
//!   log once, by a stable counting sort, into a frozen `u32`
//!   compressed-sparse-row view and runs on that.
//! * [`matching`] — maximum bipartite matching: the Hopcroft–Karp algorithm
//!   (`O(E √V)`) from a Karp–Sipser start, and a simple augmenting-path
//!   reference (`O(V·E)`) it is checked against.
//! * [`incremental`] — maintenance of a maximum matching, Algorithm 1's
//!   reachable set `Z` and the offline optimum under single edge insertions
//!   (`O(1)` cover size between insertions; its module docs state what an
//!   insertion costs) — the engine behind the competitive-trajectory
//!   experiments.
//! * [`cover`] — minimum vertex cover via the constructive Kőnig–Egerváry
//!   proof, read off Hopcroft–Karp's last BFS in the offline solve.
//! * [`generate`] — random graph generators for the paper's *Uniform* and
//!   *Nonuniform* evaluation scenarios.
//! * [`stats`] — density, degree and popularity statistics (popularity drives
//!   the online *Popularity* mechanism).
//! * [`dot`] — Graphviz DOT export for visualisation and debugging.
//!
//! # Example
//!
//! ```
//! use mvc_graph::{BipartiteGraph, matching::hopcroft_karp, cover::minimum_vertex_cover};
//!
//! // The thread–object graph of the paper's Figure 1 computation.
//! let mut g = BipartiteGraph::new(4, 4);
//! for &(t, o) in &[(0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 2), (3, 2), (2, 1)] {
//!     g.add_edge(t, o);
//! }
//! let matching = hopcroft_karp(&g);
//! let cover = minimum_vertex_cover(&g, &matching);
//! assert_eq!(cover.size(), matching.size());
//! assert!(cover.covers_all_edges(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod cover;
pub mod dot;
pub mod generate;
pub mod incremental;
pub mod matching;
pub mod stats;

pub use bipartite::{BipartiteGraph, EdgeIter, LeftVertex, RightVertex, Vertex};
pub use cover::{minimum_vertex_cover, VertexCover};
pub use generate::{GraphScenario, RandomGraphBuilder};
pub use incremental::{IncrementalMatching, IncrementalOptimum};
pub use matching::{hopcroft_karp, hopcroft_karp_with_phases, Matching};
pub use stats::GraphStats;
