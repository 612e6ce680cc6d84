//! The [`BipartiteGraph`] data structure.
//!
//! Left vertices model threads and right vertices model objects, but the type
//! is agnostic to that interpretation: it is a plain undirected bipartite
//! graph with O(1) amortised incremental edge insertion and O(1) edge-presence
//! queries, which is exactly what both the offline optimizer (build once,
//! solve once) and the online mechanisms (edges revealed one at a time) need.
//!
//! The graph keeps one growable list per vertex so that it can grow.  A
//! solve does not walk those lists: Hopcroft–Karp copies them once per call
//! into a frozen compressed-sparse-row view with `u32` offsets and targets
//! (see [`crate::matching`]).

use std::collections::HashSet;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A vertex on the left side of a bipartite graph (a *thread* in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LeftVertex(pub usize);

/// A vertex on the right side of a bipartite graph (an *object* in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RightVertex(pub usize);

/// Either side of the bipartition.
///
/// A [`crate::cover::VertexCover`] is a set of `Vertex` values; when the graph
/// is a thread–object graph, `Left` members are threads chosen as clock
/// components and `Right` members are objects chosen as clock components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Vertex {
    /// A left-side vertex (thread).
    Left(usize),
    /// A right-side vertex (object).
    Right(usize),
}

impl Vertex {
    /// Returns the raw index of the vertex within its own side.
    pub fn index(&self) -> usize {
        match *self {
            Vertex::Left(i) | Vertex::Right(i) => i,
        }
    }
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vertex::Left(i) => write!(f, "T{i}"),
            Vertex::Right(i) => write!(f, "O{i}"),
        }
    }
}

impl From<LeftVertex> for Vertex {
    fn from(v: LeftVertex) -> Self {
        Vertex::Left(v.0)
    }
}

impl From<RightVertex> for Vertex {
    fn from(v: RightVertex) -> Self {
        Vertex::Right(v.0)
    }
}

/// An undirected bipartite graph with `n_left` left vertices and `n_right`
/// right vertices.
///
/// Edges are stored as adjacency lists on both sides plus a hash set for O(1)
/// membership tests, so that repeatedly "revealing" the same thread–object
/// pair (as happens in an online computation where a thread touches the same
/// object many times) does not create parallel edges.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BipartiteGraph {
    n_left: usize,
    n_right: usize,
    adj_left: Vec<Vec<usize>>,
    adj_right: Vec<Vec<usize>>,
    edge_set: HashSet<(usize, usize)>,
    // Maintained incrementally so per-event consumers (the Adaptive online
    // mechanism, the incremental matcher's augmentation guard) get O(1)
    // active-vertex counts instead of O(V) scans.
    active_left_count: usize,
    active_right_count: usize,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph with `n_left` left vertices and
    /// `n_right` right vertices and no edges.
    ///
    /// ```
    /// use mvc_graph::BipartiteGraph;
    /// let g = BipartiteGraph::new(3, 5);
    /// assert_eq!(g.n_left(), 3);
    /// assert_eq!(g.n_right(), 5);
    /// assert_eq!(g.edge_count(), 0);
    /// ```
    pub fn new(n_left: usize, n_right: usize) -> Self {
        Self {
            n_left,
            n_right,
            adj_left: vec![Vec::new(); n_left],
            adj_right: vec![Vec::new(); n_right],
            edge_set: HashSet::new(),
            active_left_count: 0,
            active_right_count: 0,
        }
    }

    /// Creates a graph from an explicit edge list.
    ///
    /// Vertex counts are given explicitly so that isolated vertices at the
    /// high end of either side are representable. Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if any edge references a vertex out of range.
    pub fn from_edges(n_left: usize, n_right: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Self::new(n_left, n_right);
        for &(l, r) in edges {
            g.add_edge(l, r);
        }
        g
    }

    /// Number of left-side vertices (threads).
    pub fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right-side vertices (objects).
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edge_set.len()
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edge_set.is_empty()
    }

    /// Grows the left side to at least `n` vertices (no-op if already larger).
    fn ensure_left(&mut self, n: usize) {
        if n > self.n_left {
            self.adj_left.resize_with(n, Vec::new);
            self.n_left = n;
        }
    }

    /// Grows the right side to at least `n` vertices (no-op if already larger).
    fn ensure_right(&mut self, n: usize) {
        if n > self.n_right {
            self.adj_right.resize_with(n, Vec::new);
            self.n_right = n;
        }
    }

    /// Adds the edge `(left, right)`, returning `true` if the edge was not
    /// already present.
    ///
    /// This is the operation an online computation performs when an event
    /// `(thread, object)` is revealed for a pair that may or may not have
    /// interacted before.
    ///
    /// # Panics
    ///
    /// Panics if `left >= n_left()` or `right >= n_right()`. Use
    /// [`add_edge_growing`](Self::add_edge_growing) for dynamically sized
    /// graphs.
    pub fn add_edge(&mut self, left: usize, right: usize) -> bool {
        assert!(
            left < self.n_left,
            "left vertex {left} out of range (n_left = {})",
            self.n_left
        );
        assert!(
            right < self.n_right,
            "right vertex {right} out of range (n_right = {})",
            self.n_right
        );
        if self.edge_set.insert((left, right)) {
            if self.adj_left[left].is_empty() {
                self.active_left_count += 1;
            }
            if self.adj_right[right].is_empty() {
                self.active_right_count += 1;
            }
            self.adj_left[left].push(right);
            self.adj_right[right].push(left);
            true
        } else {
            false
        }
    }

    /// Adds the edge `(left, right)`, growing either side as needed.
    ///
    /// Returns `true` if the edge is new.
    pub fn add_edge_growing(&mut self, left: usize, right: usize) -> bool {
        self.ensure_left(left + 1);
        self.ensure_right(right + 1);
        self.add_edge(left, right)
    }

    /// Returns `true` if the edge `(left, right)` is present.
    pub fn has_edge(&self, left: usize, right: usize) -> bool {
        self.edge_set.contains(&(left, right))
    }

    /// Neighbours (right-side indices) of a left vertex.
    pub fn neighbors_of_left(&self, left: usize) -> &[usize] {
        &self.adj_left[left]
    }

    /// Neighbours (left-side indices) of a right vertex.
    pub(crate) fn neighbors_of_right(&self, right: usize) -> &[usize] {
        &self.adj_right[right]
    }

    /// Degree of a left vertex.
    pub fn degree_left(&self, left: usize) -> usize {
        self.adj_left[left].len()
    }

    /// Degree of a right vertex.
    pub fn degree_right(&self, right: usize) -> usize {
        self.adj_right[right].len()
    }

    /// Degree of an arbitrary vertex.
    fn degree(&self, v: Vertex) -> usize {
        match v {
            Vertex::Left(i) => self.degree_left(i),
            Vertex::Right(i) => self.degree_right(i),
        }
    }

    /// Iterator over all edges as `(left, right)` pairs.
    ///
    /// Edges are produced grouped by left vertex in insertion order, which
    /// makes the iteration deterministic (important for reproducible
    /// evaluation runs).
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            left: 0,
            pos: 0,
        }
    }

    /// Density of the graph: `|E| / (n_left * n_right)`.
    ///
    /// This matches the paper's notion of "graph density" used on the x-axis
    /// of Figures 4 and 6. Returns 0.0 for a graph with an empty side.
    pub fn density(&self) -> f64 {
        let cells = self.n_left * self.n_right;
        if cells == 0 {
            0.0
        } else {
            self.edge_count() as f64 / cells as f64
        }
    }

    /// Popularity of a vertex: `deg(v) / |E|` (Definition 1 in the paper).
    ///
    /// Returns 0.0 when the graph has no edges.
    pub fn popularity(&self, v: Vertex) -> f64 {
        let e = self.edge_count();
        if e == 0 {
            0.0
        } else {
            self.degree(v) as f64 / e as f64
        }
    }

    /// Left vertices with at least one incident edge.
    pub fn active_left(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_left).filter(|&l| !self.adj_left[l].is_empty())
    }

    /// Right vertices with at least one incident edge.
    pub fn active_right(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_right).filter(|&r| !self.adj_right[r].is_empty())
    }

    /// Number of left vertices with at least one incident edge, maintained
    /// incrementally (`O(1)`, unlike counting [`active_left`](Self::active_left)).
    pub fn active_left_count(&self) -> usize {
        self.active_left_count
    }

    /// Number of right vertices with at least one incident edge, maintained
    /// incrementally (`O(1)`, unlike counting [`active_right`](Self::active_right)).
    pub fn active_right_count(&self) -> usize {
        self.active_right_count
    }
}

/// Iterator over the edges of a [`BipartiteGraph`], created by
/// [`BipartiteGraph::edges`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a BipartiteGraph,
    left: usize,
    pos: usize,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        while self.left < self.graph.n_left {
            if self.pos < self.graph.adj_left[self.left].len() {
                let r = self.graph.adj_left[self.left][self.pos];
                self.pos += 1;
                return Some((self.left, r));
            }
            self.left += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(0, 0);
        assert_eq!((g.n_left(), g.n_right()), (0, 0));
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = BipartiteGraph::new(3, 3);
        assert!(g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(0, 1), "duplicate edge must be ignored");
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 1));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree_left(0), 1);
        assert_eq!(g.degree_right(2), 1);
        assert_eq!(g.degree(Vertex::Left(1)), 1);
        assert_eq!(g.degree(Vertex::Right(0)), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_left_panics() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_right_panics() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 5);
    }

    #[test]
    fn growing_insertion() {
        let mut g = BipartiteGraph::new(0, 0);
        assert!(g.add_edge_growing(2, 3));
        assert_eq!(g.n_left(), 3);
        assert_eq!(g.n_right(), 4);
        assert!(g.has_edge(2, 3));
        // Growing never shrinks.
        g.ensure_left(1);
        assert_eq!(g.n_left(), 3);
    }

    #[test]
    fn from_edges_matches_manual_insertion() {
        let edges = [(0, 0), (0, 1), (1, 1), (2, 0)];
        let g = BipartiteGraph::from_edges(3, 2, &edges);
        let mut h = BipartiteGraph::new(3, 2);
        for &(l, r) in &edges {
            h.add_edge(l, r);
        }
        assert_eq!(g, h);
    }

    #[test]
    fn density_and_popularity() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        assert!((g.density() - 0.75).abs() < 1e-12);
        assert!((g.popularity(Vertex::Left(0)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((g.popularity(Vertex::Right(1)) - 1.0 / 3.0).abs() < 1e-12);
        let empty = BipartiteGraph::new(2, 2);
        assert_eq!(empty.popularity(Vertex::Left(0)), 0.0);
    }

    #[test]
    fn edge_iterator_yields_all_edges() {
        let edges = [(0, 0), (0, 2), (1, 1), (2, 0)];
        let g = BipartiteGraph::from_edges(3, 3, &edges);
        let collected: Vec<_> = g.edges().collect();
        assert_eq!(collected.len(), 4);
        for e in &edges {
            assert!(collected.contains(e));
        }
    }

    #[test]
    fn active_vertices() {
        let g = BipartiteGraph::from_edges(4, 4, &[(1, 2)]);
        assert_eq!(g.active_left().collect::<Vec<_>>(), vec![1]);
        assert_eq!(g.active_right().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn active_counts_track_the_iterators() {
        let mut g = BipartiteGraph::new(0, 0);
        assert_eq!(g.active_left_count(), 0);
        assert_eq!(g.active_right_count(), 0);
        for (l, r) in [(0, 0), (0, 1), (2, 1), (2, 1), (5, 0)] {
            g.add_edge_growing(l, r);
            assert_eq!(g.active_left_count(), g.active_left().count());
            assert_eq!(g.active_right_count(), g.active_right().count());
        }
        assert_eq!(g.active_left_count(), 3);
        assert_eq!(g.active_right_count(), 2);
        // Growing a side does not activate the new (isolated) vertices.
        g.ensure_left(20);
        g.ensure_right(20);
        assert_eq!(g.active_left_count(), 3);
        assert_eq!(g.active_right_count(), 2);
    }

    #[test]
    fn vertex_display_and_accessors() {
        assert_eq!(Vertex::Left(3).to_string(), "T3");
        assert_eq!(Vertex::Right(0).to_string(), "O0");
        assert_eq!(Vertex::Right(7).index(), 7);
        assert_eq!(Vertex::from(LeftVertex(2)), Vertex::Left(2));
        assert_eq!(Vertex::from(RightVertex(5)), Vertex::Right(5));
    }
}
