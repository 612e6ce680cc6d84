//! Hard-coded example computations from the paper.
//!
//! Figure 1 of the paper shows a computation of four threads `T1..T4` on four
//! objects `O1..O4` whose minimum mixed vector clock has the three components
//! `{T2, O2, O3}`.  We reproduce the interaction structure exactly (which
//! thread touches which object, and the chain orders that make the Figure 3
//! timestamps come out); the reproduction tests and the `paper_example`
//! binary are built on it.
//!
//! Indices are zero-based: the paper's `T1..T4` are [`ThreadId`]`(0)` through
//! [`ThreadId`]`(3)` and `O1..O4` are [`ObjectId`]`(0)` through
//! [`ObjectId`]`(3)`.

use crate::computation::Computation;
use crate::ids::{ObjectId, ThreadId};

/// The operations of the paper's Figure 1 computation, in an order consistent
/// with the figure's left-to-right layout (one operation per circle).
///
/// * `T1` operates on `O2`.
/// * `T2` operates on `O1`, then `O2`, then `O3`, then `O4`.
/// * `T3` operates on `O3` (after `T2`'s `O3` operation), then `O2`.
/// * `T4` operates on `O3`.
const FIGURE1_OPS: &[(usize, usize)] = &[
    (1, 0), // T2 on O1
    (0, 1), // T1 on O2
    (1, 1), // T2 on O2
    (1, 2), // T2 on O3
    (2, 2), // T3 on O3
    (1, 3), // T2 on O4
    (2, 1), // T3 on O2
    (3, 2), // T4 on O3
];

/// Builds the computation of the paper's Figure 1.
///
/// ```
/// let c = mvc_trace::examples::paper_figure1();
/// assert_eq!(c.thread_count(), 4);
/// assert_eq!(c.object_count(), 4);
/// ```
pub fn paper_figure1() -> Computation {
    FIGURE1_OPS
        .iter()
        .map(|&(t, o)| (ThreadId(t), ObjectId(o)))
        .collect()
}

/// A tiny two-thread, two-object computation with both ordered and concurrent
/// event pairs; convenient for doctests and quick sanity checks.
pub fn tiny() -> Computation {
    [(0, 0), (1, 1), (0, 1), (1, 0)]
        .into_iter()
        .map(|(t, o)| (ThreadId(t), ObjectId(o)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EventId;
    use mvc_graph::cover::minimum_vertex_cover_of;

    #[test]
    fn figure1_shape() {
        let c = paper_figure1();
        assert_eq!(c.len(), FIGURE1_OPS.len());
        assert_eq!(c.thread_count(), 4);
        assert_eq!(c.object_count(), 4);
        // T2 performs four operations, the most of any thread.
        assert_eq!(c.thread_chain(ThreadId(1)).len(), 4);
    }

    #[test]
    fn figure1_bipartite_graph_has_cover_of_size_three() {
        let c = paper_figure1();
        let g = c.bipartite_graph();
        let (_, cover) = minimum_vertex_cover_of(&g);
        assert_eq!(cover.size(), 3, "the paper's mixed clock has 3 components");
        assert!(cover.covers_all_edges(&g));
        // T2 (index 1) and O3 (index 2) are forced members of every minimum cover.
        assert!(cover.contains_left(1));
        assert!(cover.contains_right(2));
    }

    #[test]
    fn figure1_causality_matches_paper_claim() {
        // The paper argues [T2,O1] -> [T3,O3] by transitivity through [T2,O3].
        let c = paper_figure1();
        let oracle = c.causality_oracle();
        let t2_o1 = EventId(0);
        let t2_o3 = EventId(3);
        let t3_o3 = EventId(4);
        assert!(oracle.happened_before(t2_o1, t2_o3));
        assert!(oracle.happened_before(t2_o3, t3_o3));
        assert!(oracle.happened_before(t2_o1, t3_o3));
    }

    #[test]
    fn tiny_has_concurrency() {
        let c = tiny();
        let oracle = c.causality_oracle();
        assert!(oracle.concurrent(EventId(0), EventId(1)));
        assert!(oracle.happened_before(EventId(0), EventId(2)));
    }
}
