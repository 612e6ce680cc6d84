//! Degree / density / popularity statistics over a bipartite graph.
//!
//! The online *Popularity* mechanism (Definition 1 in the paper) and the
//! evaluation harness both need cheap access to aggregate graph statistics;
//! this module centralises them.

use crate::bipartite::{BipartiteGraph, Vertex};

/// Aggregate statistics of a bipartite graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of left vertices (threads) declared in the graph.
    pub n_left: usize,
    /// Number of right vertices (objects) declared in the graph.
    pub n_right: usize,
    /// Number of left vertices with at least one edge.
    pub active_left: usize,
    /// Number of right vertices with at least one edge.
    pub active_right: usize,
    /// Number of distinct edges.
    pub edges: usize,
    /// `edges / (n_left * n_right)`.
    pub density: f64,
    /// Maximum degree over left vertices.
    pub max_degree_left: usize,
    /// Maximum degree over right vertices.
    pub max_degree_right: usize,
    /// Mean degree over *active* left vertices (0 if none).
    pub mean_degree_left: f64,
    /// Mean degree over *active* right vertices (0 if none).
    pub mean_degree_right: f64,
}

impl GraphStats {
    /// Computes statistics for a graph.  The counts are the graph's
    /// maintained ones; only the maximum degrees scan the sides.
    pub fn of(graph: &BipartiteGraph) -> Self {
        let active_left = graph.active_left_count();
        let active_right = graph.active_right_count();
        let max_degree_left = (0..graph.n_left())
            .map(|l| graph.degree_left(l))
            .max()
            .unwrap_or(0);
        let max_degree_right = (0..graph.n_right())
            .map(|r| graph.degree_right(r))
            .max()
            .unwrap_or(0);
        // Every edge adds one to the degree sum of each side.
        let edges = graph.edge_count();
        GraphStats {
            n_left: graph.n_left(),
            n_right: graph.n_right(),
            active_left,
            active_right,
            edges,
            density: graph.density(),
            max_degree_left,
            max_degree_right,
            mean_degree_left: mean(edges, active_left),
            mean_degree_right: mean(edges, active_right),
        }
    }

    /// Size of the smaller *active* side — the best a traditional
    /// single-sided vector clock can achieve for this computation.
    pub fn naive_clock_size(&self) -> usize {
        self.active_left.min(self.active_right)
    }
}

fn mean(total: usize, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Returns the vertex (thread or object) with the higher popularity,
/// breaking ties in favour of the *object* (right vertex).
///
/// The tie-break matches the intuition behind the Popularity mechanism:
/// objects touched by many threads tend to keep gaining edges, so preferring
/// the object is the safer bet when degrees are equal. The choice is made
/// explicit here so the evaluation is reproducible.
pub fn more_popular(graph: &BipartiteGraph, left: usize, right: usize) -> Vertex {
    let pop_left = graph.popularity(Vertex::Left(left));
    let pop_right = graph.popularity(Vertex::Right(right));
    if pop_left > pop_right {
        Vertex::Left(left)
    } else {
        Vertex::Right(right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_empty_graph() {
        let s = GraphStats::of(&BipartiteGraph::new(3, 4));
        assert_eq!(s.n_left, 3);
        assert_eq!(s.n_right, 4);
        assert_eq!(s.edges, 0);
        assert_eq!(s.active_left, 0);
        assert_eq!(s.active_right, 0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.mean_degree_left, 0.0);
        assert_eq!(s.naive_clock_size(), 0);
    }

    #[test]
    fn stats_of_small_graph() {
        let g = BipartiteGraph::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0)]);
        let s = GraphStats::of(&g);
        assert_eq!(s.edges, 3);
        assert_eq!(s.active_left, 2);
        assert_eq!(s.active_right, 2);
        assert_eq!(s.max_degree_left, 2);
        assert_eq!(s.max_degree_right, 2);
        assert!((s.mean_degree_left - 1.5).abs() < 1e-12);
        assert!((s.density - 0.5).abs() < 1e-12);
        assert_eq!(s.naive_clock_size(), 2);
    }

    #[test]
    fn stats_of_a_grown_graph_agree_with_a_scan() {
        let mut g = BipartiteGraph::new(0, 0);
        for (l, r) in [(4, 0), (4, 9), (1, 9), (4, 0), (7, 3)] {
            g.add_edge_growing(l, r);
        }
        g.add_edge_growing(30, 40);
        let s = GraphStats::of(&g);
        assert_eq!((s.n_left, s.n_right), (31, 41));
        assert_eq!(s.active_left, g.active_left().count());
        assert_eq!(s.active_right, g.active_right().count());
        assert_eq!((s.active_left, s.active_right, s.edges), (4, 4, 5));
        let degree_sum: usize = g.active_right().map(|r| g.degree_right(r)).sum();
        assert!((s.mean_degree_right - degree_sum as f64 / 4.0).abs() < 1e-12);
        assert_eq!((s.max_degree_left, s.max_degree_right), (2, 2));
    }

    #[test]
    fn more_popular_prefers_higher_degree() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 0), (2, 0), (0, 1)]);
        // Object 0 has degree 3, thread 0 has degree 2.
        assert_eq!(more_popular(&g, 0, 0), Vertex::Right(0));
        // Thread 0 (degree 2) vs object 1 (degree 1).
        assert_eq!(more_popular(&g, 0, 1), Vertex::Left(0));
    }

    #[test]
    fn more_popular_tie_breaks_to_object() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]);
        assert_eq!(more_popular(&g, 0, 0), Vertex::Right(0));
    }
}
