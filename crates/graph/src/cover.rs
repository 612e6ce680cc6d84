//! Minimum vertex cover of a bipartite graph (Kőnig–Egerváry).
//!
//! Algorithm 1 in the paper: given a maximum matching `M*`, let `S` be the set
//! of unmatched left (thread) vertices, and let `Z` be the set of vertices
//! reachable from `S` via alternating paths (unmatched edge from left to
//! right, matched edge from right to left).  Then
//!
//! ```text
//! C* = (T − Z) ∪ (O ∩ Z)
//! ```
//!
//! is a minimum vertex cover whose size equals `|M*|`.  The threads and
//! objects in the cover become the components of the optimal mixed vector
//! clock.
//!
//! [`minimum_vertex_cover_of`] does not search for `Z` a second time, because
//! Hopcroft–Karp's last BFS already did:
//!
//! 1. it starts from every free thread and crosses edges out of a thread and
//!    matched edges out of an object, so it reaches exactly `Z`;
//! 2. it reaches no free object, or the matching would not be maximum;
//! 3. so every object in `Z` is matched, and is in `Z` iff its partner is.
//!
//! [`minimum_vertex_cover`] runs that search on its own, for any given
//! maximum matching.
//!
//! A cover stores each side as a bitset, so its members come out in
//! ascending order without a sort.

use std::collections::VecDeque;
use std::fmt;

use crate::bipartite::{BipartiteGraph, Vertex};
use crate::matching::{Matching, MaximumMatching, NONE};

/// A set of vertex indices of one side, one bit each.
///
/// Equality is by members: trailing zero words do not count.
#[derive(Clone, Default, Eq)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|word| word >> (i % 64) & 1 == 1)
    }

    /// Adds `i`, returning `true` if it was not a member.
    fn insert(&mut self, i: usize) -> bool {
        let k = i / 64;
        if k >= self.words.len() {
            self.words.resize(k + 1, 0);
        }
        let bit = 1 << (i % 64);
        let fresh = self.words[k] & bit == 0;
        self.words[k] |= bit;
        fresh
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &word)| {
            std::iter::successors((word != 0).then_some(word), |&w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| k * 64 + w.trailing_zeros() as usize)
        })
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = Self::default();
        for i in iter {
            set.insert(i);
        }
        set
    }
}

/// A vertex cover of a bipartite graph: a set of vertices such that every
/// edge has at least one endpoint in the set.
///
/// In mixed-vector-clock terms: the set of threads and objects that will get
/// a component in the clock.  Each side is a bitset indexed by vertex, so
/// its memory grows with the largest member, one bit per index below it.
/// Two covers are equal when they have the same members.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VertexCover {
    left: BitSet,
    right: BitSet,
}

impl VertexCover {
    /// Creates an empty cover (only a valid cover for an edgeless graph).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a cover from explicit left/right vertex sets.
    pub fn from_sets(
        left: impl IntoIterator<Item = usize>,
        right: impl IntoIterator<Item = usize>,
    ) -> Self {
        Self {
            left: left.into_iter().collect(),
            right: right.into_iter().collect(),
        }
    }

    /// Number of vertices in the cover (= size of the mixed vector clock).
    pub fn size(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Returns `true` if the cover has no vertices.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }

    /// All members of the cover as [`Vertex`] values, left side first,
    /// each side in ascending index order (deterministic).
    pub fn members(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.left
            .iter()
            .map(Vertex::Left)
            .chain(self.right.iter().map(Vertex::Right))
    }

    /// Returns `true` if the given left vertex is in the cover.
    pub fn contains_left(&self, l: usize) -> bool {
        self.left.contains(l)
    }

    /// Returns `true` if the given right vertex is in the cover.
    pub fn contains_right(&self, r: usize) -> bool {
        self.right.contains(r)
    }

    /// Returns `true` if the given vertex is in the cover.
    pub fn contains(&self, v: Vertex) -> bool {
        match v {
            Vertex::Left(l) => self.contains_left(l),
            Vertex::Right(r) => self.contains_right(r),
        }
    }

    /// Adds a vertex to the cover, returning `true` if it was newly inserted.
    pub fn insert(&mut self, v: Vertex) -> bool {
        match v {
            Vertex::Left(l) => self.left.insert(l),
            Vertex::Right(r) => self.right.insert(r),
        }
    }

    /// Checks the defining property: every edge of `graph` has at least one
    /// endpoint in the cover.
    pub fn covers_all_edges(&self, graph: &BipartiteGraph) -> bool {
        graph
            .log()
            .iter()
            .all(|&(l, r)| self.contains_left(l as usize) || self.contains_right(r as usize))
    }
}

impl FromIterator<Vertex> for VertexCover {
    fn from_iter<I: IntoIterator<Item = Vertex>>(iter: I) -> Self {
        let mut cover = VertexCover::new();
        for v in iter {
            cover.insert(v);
        }
        cover
    }
}

/// Computes a minimum vertex cover from a maximum matching using the
/// constructive Kőnig–Egerváry argument (Algorithm 1 of the paper).
///
/// `matching` **must** be a maximum matching of `graph` (e.g. the output of
/// [`hopcroft_karp`](crate::matching::hopcroft_karp)); otherwise the
/// returned set is still a vertex cover but not necessarily minimum.
///
/// This is the standalone search for `Z`, over the graph's edges grouped by
/// thread as in Hopcroft–Karp's frozen view.  [`minimum_vertex_cover_of`]
/// gets the same cover without it.
///
/// ```
/// use mvc_graph::{BipartiteGraph, matching::hopcroft_karp, cover::minimum_vertex_cover};
/// let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]);
/// let m = hopcroft_karp(&g);
/// let c = minimum_vertex_cover(&g, &m);
/// assert_eq!(c.size(), 2);
/// assert!(c.covers_all_edges(&g));
/// ```
///
/// # Panics
///
/// Panics if the edge count of `graph` does not fit a `u32`.
pub fn minimum_vertex_cover(graph: &BipartiteGraph, matching: &Matching) -> VertexCover {
    let rows = graph.left_rows();
    let n_left = graph.n_left();

    // Z := unmatched left vertices, plus everything reachable from them via
    // alternating paths (BFS: left->right over unmatched edges, right->left
    // over matched edges).
    let mut z_left = vec![false; n_left];
    let mut z_right = vec![false; graph.n_right()];
    let mut queue = VecDeque::new();

    for (l, in_z) in z_left.iter_mut().enumerate() {
        // Only consider left vertices that participate in the graph at all;
        // isolated threads are irrelevant to the cover.
        if graph.degree_left(l) > 0 && !matching.is_left_matched(l) {
            *in_z = true;
            queue.push_back(Vertex::Left(l));
        }
    }

    while let Some(v) = queue.pop_front() {
        match v {
            Vertex::Left(l) => {
                for r in rows.row(l).iter().map(|&r| r as usize) {
                    // Alternating path: from a left vertex we may only follow
                    // *unmatched* edges.
                    if !matching.contains_edge(l, r) && !z_right[r] {
                        z_right[r] = true;
                        queue.push_back(Vertex::Right(r));
                    }
                }
            }
            Vertex::Right(r) => {
                // From a right vertex we may only follow the *matched* edge.
                if let Some(l) = matching.partner_of_right(r) {
                    if !z_left[l] {
                        z_left[l] = true;
                        queue.push_back(Vertex::Left(l));
                    }
                }
            }
        }
    }

    // C* = (T − Z) ∪ (O ∩ Z), restricted to vertices with at least one edge.
    let left = (0..n_left).filter(|&l| graph.degree_left(l) > 0 && !z_left[l]);
    let right = (0..graph.n_right()).filter(|&r| z_right[r]);
    VertexCover::from_sets(left, right)
}

/// Algorithm 1 in one pass: a maximum matching by Hopcroft–Karp, and the
/// minimum vertex cover read off the BFS that proved it maximum (see the
/// [module docs](self)).
///
/// The cover equals `minimum_vertex_cover(graph, &hopcroft_karp(graph))`
/// member for member.
///
/// ```
/// use mvc_graph::{BipartiteGraph, cover::minimum_vertex_cover_of};
/// let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]);
/// let (matching, cover) = minimum_vertex_cover_of(&g);
/// assert_eq!(matching.size(), 2);
/// assert_eq!(cover.size(), 2);
/// assert!(cover.covers_all_edges(&g));
/// ```
///
/// # Panics
///
/// Panics if a side or the edge count of `graph` does not fit below
/// `u32::MAX`, like
/// [`hopcroft_karp_with_phases`](crate::matching::hopcroft_karp_with_phases).
pub fn minimum_vertex_cover_of(graph: &BipartiteGraph) -> (Matching, VertexCover) {
    let found = MaximumMatching::find(graph);
    // C* = (T − Z) ∪ (O ∩ Z).  A thread is in `Z` iff the BFS reached it; one
    // with no edge is free, so the BFS started from it: it is in `Z`, and out
    // of the cover.
    let unreached = |dist: &[u32]| {
        (0..)
            .zip(dist)
            .fold(0, |w, (i, &d)| w | u64::from(d == NONE) << i)
    };
    let left = BitSet {
        words: found.dist.chunks(64).map(unreached).collect(),
    };
    // An object is in `Z` iff its partner is (3. above).
    let mut right = BitSet {
        words: vec![0; graph.n_right().div_ceil(64)],
    };
    for (&d, &r) in found.dist.iter().zip(&found.pair_left) {
        if d != NONE && r != NONE {
            right.words[r as usize / 64] |= 1 << (r % 64);
        }
    }
    (found.into_matching(), VertexCover { left, right })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{GraphScenario, RandomGraphBuilder};
    use crate::matching::hopcroft_karp;
    use proptest::prelude::*;

    fn cover_of(g: &BipartiteGraph) -> VertexCover {
        minimum_vertex_cover(g, &hopcroft_karp(g))
    }

    #[test]
    fn empty_graph_empty_cover() {
        let g = BipartiteGraph::new(4, 4);
        let c = cover_of(&g);
        assert!(c.is_empty());
        assert!(c.covers_all_edges(&g));
    }

    #[test]
    fn single_edge_cover_size_one() {
        let g = BipartiteGraph::from_edges(1, 1, &[(0, 0)]);
        let c = cover_of(&g);
        assert_eq!(c.size(), 1);
        assert!(c.covers_all_edges(&g));
    }

    #[test]
    fn star_graph_cover_is_center() {
        // One thread touching 10 objects: the optimal cover is just the thread.
        let mut g = BipartiteGraph::new(1, 10);
        for r in 0..10 {
            g.add_edge(0, r);
        }
        let c = cover_of(&g);
        assert_eq!(c.size(), 1);
        assert!(c.contains_left(0));
    }

    #[test]
    fn reverse_star_cover_is_center_object() {
        // Ten threads all touching one object: the optimal cover is the object.
        let mut g = BipartiteGraph::new(10, 1);
        for l in 0..10 {
            g.add_edge(l, 0);
        }
        let c = cover_of(&g);
        assert_eq!(c.size(), 1);
        assert!(c.contains_right(0));
    }

    #[test]
    fn paper_figure2_cover_is_t2_o2_o3() {
        // Threads T1..T4 are indices 0..3, objects O1..O4 are indices 0..3.
        // Edges from Fig. 1: T1-O2, T2-O1, T2-O2, T2-O3, T2-O4, T3-O3, T4-O3.
        let g = BipartiteGraph::from_edges(
            4,
            4,
            &[(0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 2), (3, 2)],
        );
        let c = cover_of(&g);
        assert_eq!(c.size(), 3, "paper reports a mixed clock of size 3");
        assert!(c.covers_all_edges(&g));
        // Every minimum cover of this graph contains T2 and O3; the third
        // component is either T1 or O2 (the paper picks {T2, O2, O3}).
        assert!(c.contains_left(1));
        assert!(c.contains_right(2));
        assert!(c.contains_right(1) || c.contains_left(0));
    }

    #[test]
    fn cover_size_never_exceeds_min_side() {
        for seed in 0..10 {
            let g = RandomGraphBuilder::new(20, 35)
                .density(0.3)
                .seed(seed)
                .build();
            let c = cover_of(&g);
            let active_left = g.active_left().count();
            let active_right = g.active_right().count();
            assert!(c.size() <= active_left.min(active_right));
        }
    }

    #[test]
    fn complete_graph_cover_is_smaller_side() {
        let mut g = BipartiteGraph::new(4, 9);
        for l in 0..4 {
            for r in 0..9 {
                g.add_edge(l, r);
            }
        }
        let c = cover_of(&g);
        assert_eq!(c.size(), 4);
        assert!(c.covers_all_edges(&g));
    }

    #[test]
    fn members_are_sorted_and_typed() {
        let cover = VertexCover::from_sets([2, 0], [1]);
        assert_eq!(
            cover.members().collect::<Vec<_>>(),
            vec![Vertex::Left(0), Vertex::Left(2), Vertex::Right(1)]
        );
        assert!(cover.contains(Vertex::Left(2)));
        assert!(!cover.contains(Vertex::Right(9)));
    }

    #[test]
    fn equality_is_by_members_not_bitset_length() {
        // The solve sizes its bitsets to the graph's sides; `from_sets`
        // grows them to the largest member.
        let mut g = BipartiteGraph::new(300, 200);
        g.add_edge(1, 2);
        g.add_edge(3, 2);
        let (_, solved) = minimum_vertex_cover_of(&g);
        let built = VertexCover::from_sets([], [2]);
        assert_ne!(solved.right.words.len(), built.right.words.len());
        assert_eq!(solved, built);
        assert_eq!(built, solved);
        assert_ne!(solved, VertexCover::from_sets([], [2, 130]));
        assert_ne!(VertexCover::from_sets([], [2, 130]), solved);
        assert_eq!(format!("{solved:?}"), format!("{built:?}"));
        assert_eq!(VertexCover::new(), VertexCover::from_sets([], []));
    }

    #[test]
    fn lookups_past_the_bitsets_are_absent() {
        let cover = VertexCover::from_sets([5], [64]);
        assert!(!cover.contains_left(usize::MAX));
        assert!(!cover.contains_right(1 << 40));
        assert!(cover.contains_right(64) && !cover.contains_right(0));
        assert_eq!(cover.size(), 2);
    }

    #[test]
    fn from_iterator_collects_vertices() {
        let cover: VertexCover = [Vertex::Left(1), Vertex::Right(3), Vertex::Left(1)]
            .into_iter()
            .collect();
        assert_eq!(cover.size(), 2);
    }

    proptest! {
        /// The heart of the Kőnig–Egerváry theorem: |minimum cover| == |maximum matching|,
        /// and the produced set indeed covers every edge.
        #[test]
        fn prop_konig_egervary(
            n_left in 1usize..35,
            n_right in 1usize..35,
            density in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            let g = RandomGraphBuilder::new(n_left, n_right)
                .density(density)
                .seed(seed)
                .build();
            let m = hopcroft_karp(&g);
            let c = minimum_vertex_cover(&g, &m);
            prop_assert!(c.covers_all_edges(&g));
            prop_assert_eq!(c.size(), m.size());
        }

        /// Nonuniform graphs exercise the skewed generator path as well.
        #[test]
        fn prop_konig_egervary_nonuniform(
            n in 2usize..30,
            density in 0.0f64..0.6,
            seed in 0u64..500,
        ) {
            let g = RandomGraphBuilder::new(n, n)
                .density(density)
                .scenario(GraphScenario::Nonuniform { hot_fraction: 0.2, hot_boost: 8.0 })
                .seed(seed)
                .build();
            let m = hopcroft_karp(&g);
            let c = minimum_vertex_cover(&g, &m);
            prop_assert!(c.covers_all_edges(&g));
            prop_assert_eq!(c.size(), m.size());
        }
    }
}
