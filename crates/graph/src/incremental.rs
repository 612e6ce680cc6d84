//! Incremental maintenance of the offline optimum under edge insertion.
//!
//! The competitive experiments (paper Figures 6/7 and the ablation
//! trajectories) need the offline optimum — the minimum vertex cover of the
//! revealed thread–object graph — *after every revealed edge*.  Recomputing
//! it from scratch costs a full Hopcroft–Karp run per edge (`O(E · E√V)`
//! over a stream).  This module maintains it incrementally, using the
//! classic dynamic-matching observation:
//!
//! > Inserting one edge changes the maximum matching by **at most one**
//! > augmenting path, and if the old matching was maximum, any augmenting
//! > path in the new graph must traverse the new edge.
//!
//! # What is maintained, and what an insertion costs
//!
//! Besides the matching, [`IncrementalMatching`] keeps Algorithm 1's set `Z`
//! — everything reachable from the unmatched threads by alternating paths —
//! alive across insertions: an epoch mark and a `parent` thread per object
//! (a matched thread is in `Z` iff its partner is, a free thread always), and
//! the list of free threads `Z` is rooted at.  It also keeps each thread's
//! objects in insertion order, since growing `Z` walks them and the graph
//! stores only an edge log (see [`crate::bipartite`]); the reports that
//! maintain the matching fill these lists.  An augmenting path is an
//! alternating path from a free thread to a free object, so the new edge
//! `(l, r)` matters only if `l ∈ Z` and `r ∉ Z`:
//!
//! * `l ∉ Z` or `r ∈ Z` — nothing becomes reachable: `O(1)`.
//! * otherwise `Z` *grows* from `r`.  A vertex enters `Z` once between two
//!   augmentations, so growth is amortised over that stretch.
//! * growth that reaches a free object augments along the `parent` chain.
//!   Whenever the matching grows, `Z` shrinks and is marked invalid; the next
//!   insertion that needs it rebuilds it once from the surviving roots,
//!   `O(|Z|)` — one rebuild per augmentation, never a scan of the thread side.
//!
//! Measured figures: `graph.incremental_ns_per_edge` and
//! `tracked_edges_per_s` of the repo benchmark's `plan-sparse` workload.
//!
//! By Kőnig–Egerváry the minimum-vertex-cover *size* is the matching size,
//! `O(1)`; [`IncrementalOptimum`] bundles the growing graph with the
//! maintained matching and reads the explicit cover (Algorithm 1's
//! `C* = (T − Z) ∪ (O ∩ Z)`) off the maintained marks only when a caller asks
//! for the actual cover members.
//!
//! ```
//! use mvc_graph::incremental::IncrementalOptimum;
//! use mvc_graph::matching::hopcroft_karp;
//!
//! let mut opt = IncrementalOptimum::new();
//! for (t, o) in [(0, 0), (1, 0), (2, 0), (1, 1)] {
//!     opt.insert_edge(t, o);
//!     // The maintained optimum always equals a from-scratch recompute.
//!     assert_eq!(opt.cover_size(), hopcroft_karp(opt.graph()).size());
//! }
//! assert_eq!(opt.cover_size(), 2);
//! let revealed = opt.graph().clone();
//! assert!(opt.cover().covers_all_edges(&revealed));
//! ```

use crate::bipartite::BipartiteGraph;
use crate::cover::VertexCover;
use crate::matching::{Matching, NIL};

/// A maximum matching of a growing bipartite graph, maintained under single
/// edge insertions together with the alternating-reachable set `Z` (see the
/// [module docs](self) for the cost of an insertion).
///
/// The caller owns the graph; [`insert_edge`](Self::insert_edge) states the
/// contract that comes with that.  [`IncrementalOptimum`] owns the graph and
/// keeps the two in lock-step.  All buffers are reused across insertions, so
/// a steady-state insertion allocates nothing beyond the amortised growth of
/// one thread's list.
#[derive(Debug, Clone, Default)]
pub struct IncrementalMatching {
    pair_left: Vec<usize>,
    pair_right: Vec<usize>,
    size: usize,
    /// Edges reported so far; checked against the graph in debug builds.
    reported: usize,
    /// Each thread's objects in the order their edges were reported, which
    /// by the [`insert_edge`](Self::insert_edge) contract is the graph's
    /// insertion order.
    adj: Vec<Vec<usize>>,
    /// Object `r` is in `Z` iff `mark[r] == epoch` (and `valid`); it was
    /// reached over the non-matching edge `(parent[r], r)`.
    mark: Vec<u32>,
    parent: Vec<usize>,
    epoch: u32,
    /// `false` after the matching grew: `Z` is then a stale superset.
    valid: bool,
    /// Threads that were free when their first edge arrived.  A matched
    /// thread never becomes free again, so a rebuild prunes this in place.
    roots: Vec<usize>,
    /// Threads in `Z` whose neighbours are still to be visited (empty
    /// whenever `Z` is valid; a rebuild clears what an augmentation left).
    stack: Vec<usize>,
    #[cfg(test)]
    expansions: usize,
}

impl IncrementalMatching {
    /// Creates an empty matching (sides grow on demand).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of matched edges — by Kőnig–Egerváry also the minimum
    /// vertex cover size of any graph this matching is maximum for.  `O(1)`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The right partner matched with left vertex `l`, if any.
    pub fn partner_of_left(&self, l: usize) -> Option<usize> {
        self.pair_left.get(l).copied().filter(|&r| r != NIL)
    }

    /// The left partner matched with right vertex `r`, if any.
    pub fn partner_of_right(&self, r: usize) -> Option<usize> {
        self.pair_right.get(r).copied().filter(|&l| l != NIL)
    }

    /// Copies the maintained pairs into a plain [`Matching`] (`O(V)`), e.g.
    /// to feed [`minimum_vertex_cover`](crate::cover::minimum_vertex_cover).
    pub fn to_matching(&self, graph: &BipartiteGraph) -> Matching {
        let mut matching = Matching::empty(graph.n_left(), graph.n_right());
        for (l, &r) in self.pair_left.iter().enumerate() {
            if r != NIL {
                matching.insert(l, r);
            }
        }
        matching
    }

    /// Re-establishes maximality after the edge `(l, r)` was inserted into
    /// `graph`.  Returns `true` if the matching grew.
    ///
    /// # Contract
    ///
    /// `graph` must already contain `(l, r)`, and **every** edge of `graph`
    /// must be reported here exactly once, as it is inserted.  `Z` and the
    /// per-thread lists are kept between calls, so a skipped or repeated
    /// report does not cost time — it silently corrupts the optimum.  Debug
    /// builds count the reports and each thread's list, and panic on a
    /// mismatch with `graph.edge_count()` or `graph.degree_left(l)`.
    pub fn insert_edge(&mut self, graph: &BipartiteGraph, l: usize, r: usize) -> bool {
        debug_assert!(graph.has_edge(l, r), "insert the edge into the graph first");
        self.reported += 1;
        debug_assert_eq!(self.reported, graph.edge_count(), "edge report mismatch");
        self.grow(graph.n_left(), graph.n_right());
        self.adj[l].push(r);
        debug_assert_eq!(
            self.adj[l].len(),
            graph.degree_left(l),
            "thread list mismatch"
        );
        if self.pair_left[l] == NIL {
            if self.pair_right[r] == NIL {
                // The new edge is itself an augmenting path.  Unless this is
                // l's first edge, Z just lost a root.
                self.valid &= graph.degree_left(l) == 1;
                self.pair_left[l] = r;
                self.pair_right[r] = l;
                self.size += 1;
                return true;
            }
            if graph.degree_left(l) == 1 {
                self.roots.push(l);
            }
        }
        if !self.valid {
            // Rebuilt over the graph *including* (l, r): the rebuild itself
            // finds the augmenting path if there is one.
            return self.rebuild();
        }
        let l_in_z = self.pair_left[l] == NIL || self.in_z(self.pair_left[l]);
        if !l_in_z || self.in_z(r) {
            return false;
        }
        self.reach(r, l) || self.expand()
    }

    fn in_z(&self, r: usize) -> bool {
        self.mark[r] == self.epoch
    }

    /// Recomputes `Z` from the free threads.  Returns `true` if that found
    /// (and applied) an augmenting path, which leaves `Z` invalid again.
    fn rebuild(&mut self) -> bool {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.valid = true;
        let pair_left = &self.pair_left;
        self.roots.retain(|&t| pair_left[t] == NIL);
        self.stack.clear();
        self.stack.extend_from_slice(&self.roots);
        self.expand()
    }

    /// Visits the neighbours of every thread on the work stack, growing `Z`
    /// until it is closed or an augmenting path is found (`true`).
    fn expand(&mut self) -> bool {
        // The lists are moved out for the search, so that each thread's
        // list is walked as one borrowed slice while `reach` takes `&mut
        // self`, instead of `self.adj` being indexed again per neighbour.
        let adj = std::mem::take(&mut self.adj);
        let found = 'search: {
            while let Some(t) = self.stack.pop() {
                #[cfg(test)]
                {
                    self.expansions += 1;
                }
                for &r in &adj[t] {
                    if !self.in_z(r) && self.reach(r, t) {
                        break 'search true;
                    }
                }
            }
            false
        };
        self.adj = adj;
        found
    }

    /// Adds object `r`, reached from thread `from ∈ Z`, to `Z`.  A matched
    /// `r` brings its partner along; a free `r` ends an augmenting path,
    /// which is applied along the `parent` chain (`true`).
    fn reach(&mut self, mut r: usize, from: usize) -> bool {
        self.mark[r] = self.epoch;
        self.parent[r] = from;
        if self.pair_right[r] != NIL {
            self.stack.push(self.pair_right[r]);
            return false;
        }
        loop {
            let t = self.parent[r];
            let previous = std::mem::replace(&mut self.pair_left[t], r);
            self.pair_right[r] = t;
            if previous == NIL {
                break;
            }
            r = previous;
        }
        self.size += 1;
        self.valid = false;
        true
    }

    /// Algorithm 1's `C* = (T − Z) ∪ (O ∩ Z)`, read off the marks (`O(V)`).
    fn konig_cover(&mut self) -> VertexCover {
        if !self.valid {
            let augmented = self.rebuild();
            debug_assert!(!augmented, "the maintained matching was not maximum");
        }
        let unreached = |&l: &usize| self.pair_left[l] != NIL && !self.in_z(self.pair_left[l]);
        let left = (0..self.pair_left.len()).filter(unreached);
        let right = (0..self.mark.len()).filter(|&r| self.in_z(r));
        VertexCover::from_sets(left, right)
    }

    fn grow(&mut self, n_left: usize, n_right: usize) {
        if self.pair_left.len() < n_left {
            self.pair_left.resize(n_left, NIL);
            self.adj.resize_with(n_left, Vec::new);
        }
        if self.pair_right.len() < n_right {
            self.pair_right.resize(n_right, NIL);
            // Epoch 0 is never current while `Z` is valid.
            self.mark.resize(n_right, 0);
            self.parent.resize(n_right, NIL);
        }
    }
}

/// The offline optimum of a growing revealed graph, maintained per edge.
///
/// Owns the [`BipartiteGraph`] and an [`IncrementalMatching`] kept in
/// lock-step, so callers replay a reveal stream with
/// [`insert_edge`](Self::insert_edge) and read [`cover_size`](Self::cover_size)
/// in `O(1)` after every event — no graph clone, no re-matching.  The
/// explicit cover (which threads/objects form the optimal clock) is read off
/// the maintained `Z` only when [`cover`](Self::cover) is called, and cached
/// until the next insertion.
#[derive(Debug, Clone, Default)]
pub struct IncrementalOptimum {
    graph: BipartiteGraph,
    matching: IncrementalMatching,
    cover: Option<VertexCover>,
}

impl IncrementalOptimum {
    /// Creates an empty tracker; both sides grow as edges are inserted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reveals the edge `(l, r)`, growing the graph as needed.  Returns
    /// `true` if the edge is new; repeats are `O(1)` no-ops.
    pub fn insert_edge(&mut self, l: usize, r: usize) -> bool {
        if !self.graph.add_edge_growing(l, r) {
            return false;
        }
        self.cover = None;
        self.matching.insert_edge(&self.graph, l, r);
        true
    }

    /// The revealed graph so far.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The maintained maximum matching.
    pub fn matching(&self) -> &IncrementalMatching {
        &self.matching
    }

    /// Size of the maintained maximum matching.  `O(1)`.
    pub fn matching_size(&self) -> usize {
        self.matching.size()
    }

    /// Size of the minimum vertex cover of the revealed graph — the offline
    /// optimal clock size.  `O(1)` by Kőnig–Egerváry (it equals the matching
    /// size; `Z` is not consulted).
    pub fn cover_size(&self) -> usize {
        self.matching.size()
    }

    /// The minimum vertex cover itself (Algorithm 1's component set), read
    /// off the maintained `Z` — `O(V)`, plus one rebuild of `Z` if the last
    /// insertion augmented — and cached until the next insertion.
    pub fn cover(&mut self) -> &VertexCover {
        self.cover
            .get_or_insert_with(|| self.matching.konig_cover())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::minimum_vertex_cover;
    use crate::generate::{GraphScenario, RandomGraphBuilder};
    use crate::matching::hopcroft_karp;
    use proptest::prelude::*;

    /// Replays a stream through both the incremental matcher and per-prefix
    /// from-scratch Hopcroft–Karp, asserting equality at every step.
    fn check_stream(edges: &[(usize, usize)]) {
        check_stream_on(IncrementalOptimum::new(), edges);
    }

    /// [`check_stream`] on a caller-prepared (still empty) tracker.
    fn check_stream_on(
        mut opt: IncrementalOptimum,
        edges: &[(usize, usize)],
    ) -> IncrementalOptimum {
        let mut scratch = BipartiteGraph::new(0, 0);
        for &(l, r) in edges {
            let new_inc = opt.insert_edge(l, r);
            let new_scratch = scratch.add_edge_growing(l, r);
            assert_eq!(new_inc, new_scratch, "edge ({l}, {r})");
            let reference = hopcroft_karp(&scratch);
            assert_eq!(
                opt.matching_size(),
                reference.size(),
                "matching size diverged after inserting ({l}, {r})"
            );
            assert_eq!(opt.cover_size(), reference.size());
            let cover = opt.cover().clone();
            assert_eq!(cover.size(), reference.size(), "Kőnig violated");
            assert!(cover.covers_all_edges(&scratch), "not a vertex cover");
            let matching = opt.matching().to_matching(&scratch);
            assert!(matching.is_valid_for(&scratch));
            // Given the matching, Z is unique: the batch BFS is its reference.
            assert_eq!(cover, minimum_vertex_cover(&scratch, &matching));
        }
        opt
    }

    #[test]
    fn empty_tracker() {
        let mut opt = IncrementalOptimum::new();
        assert_eq!(opt.cover_size(), 0);
        assert_eq!(opt.matching_size(), 0);
        assert!(opt.cover().is_empty());
        assert_eq!(opt.graph().edge_count(), 0);
    }

    #[test]
    fn repeats_are_no_ops() {
        let mut opt = IncrementalOptimum::new();
        assert!(opt.insert_edge(0, 0));
        assert!(!opt.insert_edge(0, 0));
        assert_eq!(opt.cover_size(), 1);
        assert_eq!(opt.graph().edge_count(), 1);
    }

    #[test]
    fn star_stream_stays_at_one() {
        let mut opt = IncrementalOptimum::new();
        for t in 0..50 {
            opt.insert_edge(t, 0);
            assert_eq!(opt.cover_size(), 1, "one hub covers the whole star");
        }
        assert!(opt.cover().contains_right(0));
    }

    #[test]
    fn both_endpoints_matched_can_still_augment() {
        // Chain: L0–R0 and L2–R1 are matched greedily; inserting (1, 0) then
        // (1, 1) exercises the free-endpoint roots; finally a both-matched
        // insertion that *does* admit an augmenting path through the middle.
        check_stream(&[(0, 0), (2, 1), (1, 0), (1, 1), (0, 1), (2, 2), (1, 2)]);
    }

    #[test]
    fn paper_figure2_stream() {
        check_stream(&[(0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 2), (3, 2)]);
        let mut opt = IncrementalOptimum::new();
        for &(l, r) in &[(0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 2), (3, 2)] {
            opt.insert_edge(l, r);
        }
        assert_eq!(opt.cover_size(), 3, "paper reports a mixed clock of size 3");
    }

    #[test]
    fn random_streams_match_scratch_at_every_prefix() {
        for seed in 0..15 {
            let (_, stream) = RandomGraphBuilder::new(18, 18)
                .density(0.15)
                .scenario(if seed % 2 == 0 {
                    GraphScenario::Uniform
                } else {
                    GraphScenario::default_nonuniform()
                })
                .seed(seed)
                .build_edge_stream();
            check_stream(&stream);
        }
    }

    #[test]
    fn long_alternating_chain_insertion_does_not_overflow() {
        // Mirror of the batch-algorithm regression: the final insertion
        // augments along a ~50k-edge alternating chain, which must use the
        // explicit-stack search.
        let n = 50_000;
        let mut opt = IncrementalOptimum::new();
        for i in 0..n {
            opt.insert_edge(i, i);
            opt.insert_edge(i, i + 1);
        }
        assert_eq!(opt.cover_size(), n);
        assert_eq!(opt.matching.expansions, 0, "no free thread, so Z is empty");
        assert!(opt.insert_edge(n, 0), "the chain-closing edge is new");
        assert_eq!(opt.cover_size(), n + 1, "chain-long augmentation found");
        // Work is counted, not timed: any search per failing insertion
        // would show here.
        assert_eq!(
            opt.matching.expansions, n,
            "each chain thread enters Z once"
        );
    }

    #[test]
    fn a_rebuild_costs_what_its_roots_reach_not_the_thread_side() {
        // n matched pairs, then `rounds` times: a new thread hangs off a
        // matched object (one rebuild, rooted at that thread alone) and its
        // old partner gets a fresh object (one augmentation).  Each rebuild
        // expands the root and one matched thread, however wide the graph.
        let (n, rounds) = (50_000, 1_000);
        let mut opt = IncrementalOptimum::new();
        for i in 0..n {
            opt.insert_edge(i, i);
        }
        for k in 0..rounds {
            opt.insert_edge(n + k, k);
            assert_eq!(opt.matching.roots, vec![n + k], "matched roots are pruned");
            opt.insert_edge(k, n + k);
            assert_eq!(opt.cover_size(), n + k + 1);
            assert!(!opt.matching.valid, "an augmentation invalidates Z");
        }
        assert_eq!(opt.matching.expansions, 2 * rounds);
    }

    #[test]
    fn perfect_matching_makes_every_further_insertion_free() {
        let n = 64;
        let mut opt = IncrementalOptimum::new();
        for i in 0..n {
            opt.insert_edge(i, i);
        }
        for i in 0..n {
            for j in [(i + 1) % n, (i + 7) % n] {
                opt.insert_edge(i, j);
                assert_eq!(opt.cover_size(), n);
            }
        }
        assert_eq!(opt.matching.expansions, 0, "no free thread: Z is empty");
        assert!(opt.matching.roots.is_empty());
    }

    #[test]
    fn edges_that_cannot_extend_z_cost_nothing_and_keep_it_valid() {
        let mut opt = IncrementalOptimum::new();
        // Z = {t1, o0, t0} after the rebuild triggered by (1, 0).
        for (l, r) in [(0, 0), (1, 0), (2, 1)] {
            opt.insert_edge(l, r);
        }
        assert!(opt.matching.valid);
        let before = opt.matching.expansions;
        opt.insert_edge(2, 0); // leaves a thread outside Z
        opt.insert_edge(3, 0); // enters an object already in Z (new root t3)
        assert_eq!(opt.matching.expansions, before);
        assert!(opt.matching.valid);
        assert_eq!(opt.cover_size(), 2);
        opt.insert_edge(0, 1); // t0 ∈ Z, o1 ∉ Z: Z grows by o1 and t2, no augment
        assert_eq!(opt.matching.expansions, before + 1);
        assert!(opt.matching.valid);
        assert_eq!(opt.cover_size(), hopcroft_karp(opt.graph()).size());
        let cover = opt.cover().clone();
        assert!(cover.contains_right(0) && cover.contains_right(1));
    }

    #[test]
    fn epoch_wrap_clears_the_marks() {
        let (_, stream) = RandomGraphBuilder::new(24, 24)
            .density(0.12)
            .seed(5)
            .build_edge_stream();
        let mut opt = IncrementalOptimum::new();
        opt.matching.epoch = u32::MAX - 2;
        let opt = check_stream_on(opt, &stream);
        assert!(
            opt.matching.epoch < u32::MAX - 2,
            "the stream crossed the wrap"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "edge report mismatch")]
    fn skipped_edge_report_is_caught_in_debug_builds() {
        let mut graph = BipartiteGraph::new(2, 2);
        let mut matching = IncrementalMatching::new();
        graph.add_edge(0, 0);
        graph.add_edge(1, 1); // never reported
        matching.insert_edge(&graph, 0, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread list mismatch")]
    fn a_repeat_reported_in_place_of_a_skipped_edge_is_caught_in_debug_builds() {
        // The report count matches, but thread 0's list gets (0, 0) twice
        // while the graph gives it one edge.
        let mut graph = BipartiteGraph::new(2, 2);
        let mut matching = IncrementalMatching::new();
        graph.add_edge(0, 0);
        matching.insert_edge(&graph, 0, 0);
        graph.add_edge(1, 1); // never reported
        matching.insert_edge(&graph, 0, 0);
    }

    #[test]
    fn matching_accessors() {
        let mut opt = IncrementalOptimum::new();
        opt.insert_edge(0, 3);
        assert_eq!(opt.matching().partner_of_left(0), Some(3));
        assert_eq!(opt.matching().partner_of_right(3), Some(0));
        assert_eq!(opt.matching().partner_of_left(99), None);
        assert_eq!(opt.matching().partner_of_right(99), None);
        assert_eq!(opt.matching().size(), 1);
    }

    proptest! {
        /// Every prefix of a random stream: incremental == from-scratch, and
        /// the lazily rebuilt cover is a genuine Kőnig cover.
        #[test]
        fn prop_incremental_matches_scratch(
            n in 1usize..14,
            density in 0.0f64..0.6,
            seed in 0u64..300,
        ) {
            let (_, stream) = RandomGraphBuilder::new(n, n)
                .density(density)
                .seed(seed)
                .build_edge_stream();
            check_stream(&stream);
        }
    }
}
