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
//! exact across insertions, as a forest of alternating trees.  A free thread
//! is always in `Z` and roots its own tree; a matched thread is in `Z` iff
//! its partner is.  Each object in `Z` records its root and the thread it was
//! reached from, and each root chains its tree's objects, so one tree is
//! listed without scanning `Z`.  The graph stores only an edge log (see
//! [`crate::bipartite`]), so each thread's and each object's edges are
//! chained through it by two `u32` links per edge: a report appends two
//! links and allocates nothing per vertex.  An augmenting path is an
//! alternating path from a free thread to a free object, so the new edge
//! `(l, r)` matters only if `l ∈ Z` and `r ∉ Z`:
//!
//! * `l ∉ Z` or `r ∈ Z` — nothing becomes reachable: `O(1)`.
//! * otherwise `Z` *grows* from `r` into `l`'s tree.  A vertex enters `Z`
//!   once between two augmentations, so growth is amortised over that
//!   stretch.
//! * growth that reaches a free object augments along the tree path back to
//!   its root `u`, and so does a free `l` whose new edge meets a free object
//!   (a path of one edge).  The other trees are vertex-disjoint from that
//!   path, so they stay alternating and keep their members.  Only `u`'s tree
//!   is repaired: its objects leave `Z`, each one with an edge from a thread
//!   still in `Z` is re-attached there, and growth from the re-attached
//!   objects closes `Z` again.  An augmentation costs the edges of the one
//!   tree it dissolves, never a walk over `Z` or the thread side.
//!
//! The new matching is maximum, so a repair never reaches a free object.  By
//! Dulmage & Mendelsohn ("Coverings of bipartite graphs", 1958) `Z` does not
//! depend on which maximum matching is found, so the maintained `Z` is the
//! one a batch solve of the same graph reads its cover off.
//!
//! Measured figures: `graph.incremental_ns_per_edge` and
//! `tracked_edges_per_s` of the repo benchmark's `plan-sparse` workload.
//!
//! By Kőnig–Egerváry the minimum-vertex-cover *size* is the matching size,
//! `O(1)`; [`IncrementalOptimum`] bundles the growing graph with the
//! maintained matching and reads the explicit cover (Algorithm 1's
//! `C* = (T − Z) ∪ (O ∩ Z)`) off the maintained `Z` only when a caller asks
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
use crate::matching::Matching;

/// "Unmatched" in the partner arrays.
const NIL: usize = usize::MAX;

/// No vertex or edge: the root of an object outside `Z`, or the end of a
/// chain.  Vertex indices are below a side length, which [`BipartiteGraph`]
/// keeps within `u32`, so no vertex is `u32::MAX`, and
/// [`IncrementalMatching::insert_edge`] refuses the edge that would be.
const NONE: u32 = u32::MAX;

/// A maximum matching of a growing bipartite graph, maintained under single
/// edge insertions together with the alternating-reachable set `Z` (see the
/// [module docs](self) for the cost of an insertion).
///
/// The caller owns the graph; [`insert_edge`](Self::insert_edge) states the
/// contract that comes with that.  [`IncrementalOptimum`] owns the graph and
/// keeps the two in lock-step.  All buffers are reused across insertions, so
/// a steady-state insertion allocates nothing beyond the amortised growth of
/// the per-edge links.
#[derive(Debug, Clone, Default)]
pub struct IncrementalMatching {
    pair_left: Vec<usize>,
    pair_right: Vec<usize>,
    size: usize,
    /// Each thread's and each object's edges, newest first, chained through
    /// the graph's edge log: the newest edge per vertex, then per edge the
    /// next older edge of the same thread and of the same object.  Edge `e`
    /// is the `e`-th report, which by the [`insert_edge`](Self::insert_edge)
    /// contract is the log's `e`-th edge; the links count the reports.
    thread_edges: Vec<u32>,
    object_edges: Vec<u32>,
    next_thread_edge: Vec<u32>,
    next_object_edge: Vec<u32>,
    /// Object `r` is in `Z` iff `root[r] != NONE`: it hangs in the tree of
    /// the free thread `root[r]`, reached over the non-matching edge
    /// `(parent[r], r)`.
    root: Vec<u32>,
    parent: Vec<u32>,
    /// Each free thread's tree objects, chained: the first per thread, the
    /// next per object.
    first_member: Vec<u32>,
    next_member: Vec<u32>,
    /// Threads in `Z` whose neighbours are still to be visited (empty
    /// between insertions).
    stack: Vec<usize>,
    #[cfg(test)]
    expansions: usize,
    #[cfg(test)]
    scans: usize,
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
    /// per-vertex chains are kept between calls, so a skipped or repeated
    /// report does not cost time — it silently corrupts the optimum.  Debug
    /// builds count the reports and check that the report is the log's
    /// newest edge, so that it chains into the right thread's and object's
    /// list; they panic on a mismatch with `graph.edge_count()` or either
    /// end.
    ///
    /// # Panics
    ///
    /// Panics when the graph holds `u32::MAX` edges, which the links cannot
    /// index.
    pub fn insert_edge(&mut self, graph: &BipartiteGraph, l: usize, r: usize) -> bool {
        debug_assert!(graph.has_edge(l, r), "insert the edge into the graph first");
        let e = self.next_thread_edge.len();
        debug_assert_eq!(e + 1, graph.edge_count(), "edge report mismatch");
        let log = graph.log();
        debug_assert_eq!(log[e].0 as usize, l, "thread list mismatch");
        debug_assert_eq!(log[e].1 as usize, r, "object list mismatch");
        assert!(e < NONE as usize, "more edges than u32 links index");
        self.grow(graph.n_left(), graph.n_right());
        let e = e as u32;
        let older = std::mem::replace(&mut self.thread_edges[l], e);
        self.next_thread_edge.push(older);
        let older = std::mem::replace(&mut self.object_edges[r], e);
        self.next_object_edge.push(older);
        let augmented_from = if self.pair_left[l] == NIL && self.pair_right[r] == NIL {
            // The new edge is itself an augmenting path, from the root l.
            self.pair_left[l] = r;
            self.pair_right[r] = l;
            self.size += 1;
            Some(l)
        } else {
            match self.root_of(l) {
                Some(root) if self.root[r] == NONE => {
                    self.reach(r, l, root).or_else(|| self.expand(log))
                }
                _ => None,
            }
        };
        let Some(u) = augmented_from else {
            return false;
        };
        self.repair(u, log);
        true
    }

    /// The root of thread `t`'s tree, or `None` if `t ∉ Z`.
    fn root_of(&self, t: usize) -> Option<u32> {
        match self.pair_left[t] {
            NIL => Some(t as u32),
            r => Some(self.root[r]).filter(|&root| root != NONE),
        }
    }

    /// Visits the neighbours of every thread on the work stack, growing `Z`
    /// until it is closed or an augmenting path is found (its root).  `log`
    /// is the graph's edge log.
    fn expand(&mut self, log: &[(u32, u32)]) -> Option<usize> {
        while let Some(t) = self.stack.pop() {
            #[cfg(test)]
            {
                self.expansions += 1;
            }
            // A stacked thread is matched, in the tree of its partner.
            let root = self.root[self.pair_left[t]];
            let mut e = self.thread_edges[t];
            while e != NONE {
                let r = log[e as usize].1 as usize;
                if self.root[r] == NONE {
                    if let Some(root) = self.reach(r, t, root) {
                        return Some(root);
                    }
                }
                e = self.next_thread_edge[e as usize];
            }
        }
        None
    }

    /// Adds object `r`, reached from thread `from` in `root`'s tree, to `Z`.
    /// A matched `r` joins the tree and brings its partner along; a free `r`
    /// ends an augmenting path, which is applied along the `parent` chain
    /// back to the root, returned.
    fn reach(&mut self, mut r: usize, from: usize, root: u32) -> Option<usize> {
        if self.pair_right[r] != NIL {
            self.root[r] = root;
            self.parent[r] = from as u32;
            self.next_member[r] =
                std::mem::replace(&mut self.first_member[root as usize], r as u32);
            self.stack.push(self.pair_right[r]);
            return None;
        }
        let mut t = from;
        loop {
            let previous = std::mem::replace(&mut self.pair_left[t], r);
            self.pair_right[r] = t;
            if previous == NIL {
                self.size += 1;
                return Some(t);
            }
            r = previous;
            t = self.parent[r] as usize;
        }
    }

    /// Restores `Z` after an augmentation from the free thread `u`, which is
    /// matched now: `u`'s tree leaves `Z`, and each of its objects that a
    /// thread still in `Z` reaches is re-attached before `Z` is closed again.
    fn repair(&mut self, u: usize, log: &[(u32, u32)]) {
        // What was left to visit belongs to the dissolved tree.
        self.stack.clear();
        let head = std::mem::replace(&mut self.first_member[u], NONE);
        for r in chain(head, &self.next_member) {
            self.root[r] = NONE;
        }
        let mut member = head;
        while member != NONE {
            let r = member as usize;
            // Read before `reach` re-chains `r` into its new tree.
            member = self.next_member[r];
            #[cfg(test)]
            {
                self.scans += 1;
            }
            // A thread in `Z` cannot be matched to `r`, which is not.
            let from = chain(self.object_edges[r], &self.next_object_edge).find_map(|e| {
                let t = log[e].0 as usize;
                self.root_of(t).map(|root| (t, root))
            });
            if let Some((t, root)) = from {
                debug_assert_ne!(
                    self.pair_right[r], NIL,
                    "the augmentation left a tree object free"
                );
                self.reach(r, t, root);
            }
        }
        let augmented = self.expand(log);
        debug_assert!(
            augmented.is_none(),
            "the maintained matching was not maximum"
        );
    }

    /// Algorithm 1's `C* = (T − Z) ∪ (O ∩ Z)`, read off the roots (`O(V)`).
    fn konig_cover(&self) -> VertexCover {
        let unreached =
            |&l: &usize| self.pair_left[l] != NIL && self.root[self.pair_left[l]] == NONE;
        let left = (0..self.pair_left.len()).filter(unreached);
        let right = (0..self.root.len()).filter(|&r| self.root[r] != NONE);
        VertexCover::from_sets(left, right)
    }

    fn grow(&mut self, n_left: usize, n_right: usize) {
        if self.pair_left.len() < n_left {
            self.pair_left.resize(n_left, NIL);
            self.thread_edges.resize(n_left, NONE);
            self.first_member.resize(n_left, NONE);
        }
        if self.pair_right.len() < n_right {
            self.pair_right.resize(n_right, NIL);
            self.object_edges.resize(n_right, NONE);
            self.root.resize(n_right, NONE);
            self.parent.resize(n_right, NONE);
            self.next_member.resize(n_right, NONE);
        }
    }
}

/// The indices on the chain that starts at `first` and goes on through
/// `next`, up to [`NONE`].
fn chain(first: u32, next: &[u32]) -> impl Iterator<Item = usize> + '_ {
    let link = |i: u32| (i != NONE).then_some(i as usize);
    std::iter::successors(link(first), move |&i| link(next[i]))
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
    /// off the maintained `Z` in `O(V)` and cached until the next insertion.
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

    impl IncrementalMatching {
        /// The objects of `root`'s tree, newest first.
        fn tree(&self, root: usize) -> Vec<usize> {
            chain(self.first_member[root], &self.next_member).collect()
        }

        /// Holds the marks to the forest the module docs describe: every
        /// marked object is matched, sits in the chain of its root, a free
        /// thread, and was reached over a non-matching edge from a thread of
        /// the same tree.
        fn check_forest(&self, graph: &BipartiteGraph) {
            let mut chained = 0;
            for root in 0..self.pair_left.len() {
                let members = self.tree(root);
                assert!(
                    members.is_empty() || self.pair_left[root] == NIL,
                    "matched thread {root} roots a tree"
                );
                for &r in &members {
                    assert_eq!(self.root[r], root as u32, "object {r} in the wrong chain");
                    assert_ne!(self.pair_right[r], NIL, "free object {r} in Z");
                    let from = self.parent[r] as usize;
                    assert!(graph.has_edge(from, r), "no edge into {r}");
                    assert_ne!(self.pair_left[from], r, "tree edge into {r} is matched");
                    assert_eq!(
                        self.root_of(from),
                        Some(root as u32),
                        "object {r} reached from outside its tree"
                    );
                }
                chained += members.len();
            }
            let marked = self.root.iter().filter(|&&root| root != NONE).count();
            assert_eq!(chained, marked, "a marked object is in no chain");
            assert!(self.stack.is_empty(), "work left between insertions");
        }
    }

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
            opt.matching.check_forest(&scratch);
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
        assert_eq!(
            opt.matching.scans, n,
            "the repair lists the dissolved tree once"
        );
    }

    #[test]
    fn a_rebuild_costs_what_its_roots_reach_not_the_thread_side() {
        // n matched pairs, then `rounds` times: a new thread hangs off a
        // matched object (its tree: that object) and its old partner gets a
        // fresh object (one augmentation, which dissolves the tree).  Each
        // round expands one matched thread and lists one object's threads,
        // however wide the graph.
        let (n, rounds) = (50_000, 1_000);
        let mut opt = IncrementalOptimum::new();
        for i in 0..n {
            opt.insert_edge(i, i);
        }
        for k in 0..rounds {
            opt.insert_edge(n + k, k);
            assert_eq!(opt.matching.tree(n + k), vec![k], "the new root's tree");
            opt.insert_edge(k, n + k);
            assert_eq!(opt.cover_size(), n + k + 1);
            assert!(
                opt.matching.tree(n + k).is_empty(),
                "a matched root has no tree"
            );
            assert_eq!(opt.matching.root[k], NONE, "no thread in Z reaches k again");
        }
        assert_eq!(opt.matching.expansions, rounds);
        assert_eq!(opt.matching.scans, rounds);
    }

    #[test]
    fn a_repair_costs_the_augmenting_tree_not_z() {
        // `roots` free threads share m matched pairs, m / roots each, so Z
        // holds every vertex.  Then `rounds` times: a new root x reaches a
        // fresh pair (q, y), y gets a fresh object (x's one-thread tree
        // augments), and a Z thread reaches another fresh pair (w, p).  A
        // round expands y and w and lists q's threads, however large Z is;
        // rebuilding Z from every root would expand all m + roots threads.
        let (m, roots, rounds) = (20_000, 40, 500);
        let mut opt = IncrementalOptimum::new();
        for i in 0..m {
            opt.insert_edge(i, i);
        }
        for i in 0..m {
            opt.insert_edge(m + i % roots, i);
        }
        assert_eq!(opt.matching.tree(m).len(), m / roots);
        let before = opt.matching.expansions + opt.matching.scans;
        for k in 0..rounds {
            let (t, o) = (m + roots + 3 * k, m + 3 * k);
            let (x, y, w) = (t, t + 1, t + 2);
            let (q, fresh, p) = (o, o + 1, o + 2);
            opt.insert_edge(y, q);
            opt.insert_edge(x, q);
            assert_eq!(opt.matching.tree(x), vec![q]);
            opt.insert_edge(y, fresh);
            assert!(opt.matching.tree(x).is_empty(), "x is matched now");
            opt.insert_edge(w, p);
            opt.insert_edge(m, p);
            assert_eq!(opt.cover_size(), m + 3 * (k + 1));
            let work = opt.matching.expansions + opt.matching.scans - before;
            assert_eq!(work, 3 * (k + 1), "round {k} cost more than its trees");
        }
        assert_eq!(opt.matching.tree(m).len(), m / roots + rounds);
        let cover = opt.cover().clone();
        let reference = minimum_vertex_cover(opt.graph(), &hopcroft_karp(opt.graph()));
        assert_eq!(cover, reference);
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
        assert!(opt.matching.root.iter().all(|&root| root == NONE));
        assert!(opt.matching.first_member.iter().all(|&m| m == NONE));
    }

    #[test]
    fn edges_that_cannot_extend_z_cost_nothing_and_keep_it_valid() {
        let mut opt = IncrementalOptimum::new();
        // Z = {t1, o0, t0} after (1, 0): t1's tree holds o0.
        for (l, r) in [(0, 0), (1, 0), (2, 1)] {
            opt.insert_edge(l, r);
        }
        assert_eq!(opt.matching.tree(1), vec![0]);
        let before = opt.matching.expansions;
        opt.insert_edge(2, 0); // leaves a thread outside Z
        opt.insert_edge(3, 0); // enters an object already in Z (new root t3)
        assert_eq!(opt.matching.expansions, before);
        assert_eq!(opt.matching.tree(1), vec![0]);
        assert!(opt.matching.tree(3).is_empty());
        assert_eq!(opt.cover_size(), 2);
        opt.insert_edge(0, 1); // t0 ∈ Z, o1 ∉ Z: Z grows by o1 and t2, no augment
        assert_eq!(opt.matching.expansions, before + 1);
        assert_eq!(opt.matching.tree(1), vec![1, 0]);
        assert_eq!(opt.matching.scans, 0, "nothing augmented inside a tree");
        assert_eq!(opt.cover_size(), hopcroft_karp(opt.graph()).size());
        let cover = opt.cover().clone();
        assert!(cover.contains_right(0) && cover.contains_right(1));
    }

    #[test]
    fn epoch_wrap_clears_the_marks() {
        // Marks are roots, not epochs: an augmentation unmarks the tree it
        // dissolves and re-marks what is still reached, and `check_stream_on`
        // holds the marks to the forest and to the batch cover after every
        // insertion.
        let (_, stream) = RandomGraphBuilder::new(24, 24)
            .density(0.12)
            .seed(5)
            .build_edge_stream();
        let opt = check_stream_on(IncrementalOptimum::new(), &stream);
        assert!(
            opt.matching.scans > 0,
            "the stream dissolved a tree with objects"
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
        /// the cover read off the maintained `Z` is a genuine Kőnig cover.
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
