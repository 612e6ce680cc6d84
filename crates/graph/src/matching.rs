//! Maximum bipartite matching.
//!
//! The paper's offline algorithm (Algorithm 1) starts from a maximum matching
//! of the thread–object bipartite graph.  One batch algorithm computes it
//! (the incremental maintenance is in [`crate::incremental`]):
//!
//! * [`hopcroft_karp`] — the Hopcroft–Karp algorithm referenced by the paper
//!   (`O(E √V)`), started from a Karp–Sipser matching.  The start (Karp &
//!   Sipser, FOCS 1981; the usual one for Hopcroft–Karp, Duff, Kaya & Uçar,
//!   ACM TOMS 2011) matches a vertex with one free neighbour to that
//!   neighbour while one exists — a choice some maximum matching agrees with
//!   — and is exact on forests; on `plan-sparse`'s mean-degree-3 graphs
//!   (n = 8192) it leaves 0–2 phases per graph where the empty matching
//!   needed 7–30.  Each BFS phase then records the level `dist_nil` at which
//!   a free right vertex is first reached and stops expanding beyond it, and
//!   the DFS phase accepts a free right vertex only at exactly that level, so
//!   every phase augments along a *maximal set of shortest vertex-disjoint
//!   augmenting paths* — the property the `O(√V)` phase bound depends on.
//!   [`hopcroft_karp_with_phases`] counts the phases run after the start (0
//!   when the start is already maximum); the tests hold the phase loop
//!   itself to its bound from the empty matching.
//! * [`simple_augmenting`] — the classic single-augmenting-path (Hungarian
//!   style) algorithm in `O(V · E)`, kept as the independent reference that
//!   conformance oracle 1 and the tests compare matching sizes against.
//!
//! Only *which* maximum matching is found depends on the start, not its
//! size; the Kőnig cover built from it does not depend on it either (the
//! set `Z` it is read from is the same for every maximum matching).
//!
//! The graph stores no per-vertex lists, only an insertion-ordered edge log
//! (see [`crate::bipartite`]).  Each call groups that log once, both sides in
//! one pass of a stable counting sort, into a frozen compressed-sparse-row
//! view with `u32` offsets and targets: each list holds its vertex's
//! neighbours in insertion order, so the start and the phases choose the
//! same edges whatever order the log interleaves the lists in.  The start,
//! the phases and their partner and distance arrays all run on that view in
//! `u32`, and a [`Matching`] keeps those partner arrays; the reference search
//! [`simple_augmenting`] walks its thread side, grouped the same way.  The
//! phase loop ends on a BFS that reaches no free object; its layering is
//! kept, and [`minimum_vertex_cover_of`](crate::cover::minimum_vertex_cover_of)
//! reads Algorithm 1's `Z` off it instead of searching a second time.
//!
//! The start does little work (a 24.5 k-edge `plan-sparse` graph: ≈ 8.2 k
//! pops, ≈ 48 k neighbour visits), but with a branch per neighbour it took
//! ≈ 40 ns an edge, and ≈ 35 at n = 512 with every array in L1, on a busy
//! 2-core x86-64 Xeon host: mispredictions, not memory.  Branch-free — a
//! matched vertex's residual degree is 0, so the degree arrays are all it
//! reads, and its stack is sized once for every vertex, so a push checks no
//! room — it takes ≈ 30 and ≈ 23 ns an edge and matches the same edges.
//!
//! All augmenting-path searches use explicit stacks rather than recursion:
//! an adversarial alternating chain (e.g. a 2×n ladder with n in the tens of
//! thousands) would otherwise overflow the call stack.

use crate::bipartite::{BipartiteGraph, Rows};

/// Sentinel meaning "unmatched" in the `u32` partner arrays and "not
/// reached" in the `u32` distance array of the frozen view.
pub(crate) const NONE: u32 = u32::MAX;

/// A matching in a bipartite graph: a set of edges no two of which share an
/// endpoint.
///
/// Stored as the searches' two `u32` partner arrays, `u32::MAX` for a free
/// vertex: `pair_left[l] == r` iff edge `(l, r)` is in the matching (and then
/// `pair_right[r] == l`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    pair_left: Vec<u32>,
    pair_right: Vec<u32>,
}

/// The partner `pairs` holds for vertex `v`, if any.
fn partner(pairs: &[u32], v: usize) -> Option<usize> {
    pairs.get(v).filter(|&&w| w != NONE).map(|&w| w as usize)
}

impl Matching {
    /// Creates an empty matching for a graph with the given side sizes.
    ///
    /// # Panics
    ///
    /// Panics if a side does not fit below `u32::MAX`.
    pub fn empty(n_left: usize, n_right: usize) -> Self {
        assert_fits_u32(n_left, "threads");
        assert_fits_u32(n_right, "objects");
        Self {
            pair_left: vec![NONE; n_left],
            pair_right: vec![NONE; n_right],
        }
    }

    /// Number of matched edges.
    pub fn size(&self) -> usize {
        self.pair_left.iter().filter(|&&r| r != NONE).count()
    }

    /// The right partner matched with left vertex `l`, if any.
    pub fn partner_of_left(&self, l: usize) -> Option<usize> {
        partner(&self.pair_left, l)
    }

    /// The left partner matched with right vertex `r`, if any.
    pub fn partner_of_right(&self, r: usize) -> Option<usize> {
        partner(&self.pair_right, r)
    }

    /// Returns `true` if left vertex `l` is matched.
    pub fn is_left_matched(&self, l: usize) -> bool {
        self.partner_of_left(l).is_some()
    }

    /// Returns `true` if the edge `(l, r)` is in the matching.
    pub fn contains_edge(&self, l: usize, r: usize) -> bool {
        self.partner_of_left(l) == Some(r)
    }

    /// Iterator over matched edges as `(left, right)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pair_left
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r != NONE)
            .map(|(l, &r)| (l, r as usize))
    }

    /// Adds the edge `(l, r)` to the matching.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is already matched to a *different* vertex —
    /// that would violate the matching property — or is past its side.
    pub fn insert(&mut self, l: usize, r: usize) {
        let (old_r, old_l) = (self.pair_left[l], self.pair_right[r]);
        assert!(
            old_r == NONE || old_r as usize == r,
            "left vertex {l} already matched to {old_r}"
        );
        assert!(
            old_l == NONE || old_l as usize == l,
            "right vertex {r} already matched to {old_l}"
        );
        // Both are below a side length, which `empty` keeps below `NONE`.
        self.pair_left[l] = r as u32;
        self.pair_right[r] = l as u32;
    }

    /// Validates the matching against a graph: every matched edge must exist
    /// in the graph and partner arrays must be mutually consistent.
    pub fn is_valid_for(&self, graph: &BipartiteGraph) -> bool {
        if self.pair_left.len() != graph.n_left() || self.pair_right.len() != graph.n_right() {
            return false;
        }
        self.edges()
            .all(|(l, r)| graph.has_edge(l, r) && self.partner_of_right(r) == Some(l))
            && (0..self.pair_right.len()).all(|r| {
                self.partner_of_right(r)
                    .is_none_or(|l| self.partner_of_left(l) == Some(r))
            })
    }
}

/// Computes a maximum matching using the Hopcroft–Karp algorithm, started
/// from a Karp–Sipser matching.
///
/// The start costs `O(E)`.  Each phase runs a BFS from all unmatched left
/// vertices to build a layered graph of shortest alternating paths, then a
/// DFS that augments along a maximal set of vertex-disjoint shortest
/// augmenting paths.  The number of phases is `O(√V)`, giving the `O(E √V)`
/// bound cited in the paper (Hopcroft & Karp, 1973).
///
/// ```
/// use mvc_graph::{BipartiteGraph, matching::hopcroft_karp};
/// let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (2, 2)]);
/// assert_eq!(hopcroft_karp(&g).size(), 3);
/// ```
pub fn hopcroft_karp(graph: &BipartiteGraph) -> Matching {
    hopcroft_karp_with_phases(graph).0
}

/// Like [`hopcroft_karp`], additionally reporting the number of BFS/DFS
/// phases the algorithm ran after its Karp–Sipser start.
///
/// The phase count is the quantity the `O(E √V)` bound is about: it can only
/// stay `O(√V)` when every phase augments exclusively along *shortest*
/// augmenting paths, so the regression tests assert the count on adversarial
/// graphs.  It is exact and deterministic: the start makes no random choice.
/// It is 0 when the start is already maximum, as it always is on a forest.
///
/// # Panics
///
/// Panics if either side of `graph`, or its edge count, does not fit below
/// `u32::MAX`: the search runs on a `u32` view of the graph (see the
/// [module docs](self)) and never truncates an index.
pub fn hopcroft_karp_with_phases(graph: &BipartiteGraph) -> (Matching, usize) {
    let found = MaximumMatching::find(graph);
    let phases = found.phases;
    (found.into_matching(), phases)
}

/// A maximum matching found on a frozen view of a graph, together with the
/// layering of the BFS that proved it maximum.
///
/// That BFS started from every free thread and reached no free object, so
/// the threads it reached are exactly Algorithm 1's `Z ∩ T`.
pub(crate) struct MaximumMatching {
    /// Each thread's partner, `NONE` iff it is free.
    pub(crate) pair_left: Vec<u32>,
    pair_right: Vec<u32>,
    /// The last BFS's distances: `NONE` iff the thread was not reached.
    pub(crate) dist: Vec<u32>,
    phases: usize,
}

impl MaximumMatching {
    /// Hopcroft–Karp from a Karp–Sipser start on a fresh view of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if a side or the edge count of `graph` does not fit below
    /// `u32::MAX`.
    pub(crate) fn find(graph: &BipartiteGraph) -> Self {
        let view = Csr::of(graph);
        let mut pair_left = vec![NONE; view.n_left()];
        let mut pair_right = vec![NONE; view.n_right()];
        let mut dist = vec![NONE; view.n_left()];
        karp_sipser(&view, &mut pair_left, &mut pair_right);
        let phases = hk_phases(&view, &mut pair_left, &mut pair_right, &mut dist);
        Self {
            pair_left,
            pair_right,
            dist,
            phases,
        }
    }

    /// The matching as a [`Matching`], its partner arrays moved, not
    /// copied.
    pub(crate) fn into_matching(self) -> Matching {
        Matching {
            pair_left: self.pair_left,
            pair_right: self.pair_right,
        }
    }
}

/// A frozen compressed-sparse-row view of a graph: both sides' rows,
/// grouped once from the graph's edge log with each list in insertion order.
#[derive(Debug)]
struct Csr {
    by_left: Rows,
    by_right: Rows,
}

impl Csr {
    /// Groups `graph`'s edges by either endpoint.
    ///
    /// # Panics
    ///
    /// Panics if a side or the edge count does not fit below `u32::MAX`.
    fn of(graph: &BipartiteGraph) -> Self {
        assert_fits_u32(graph.n_left(), "threads");
        assert_fits_u32(graph.n_right(), "objects");
        assert_fits_u32(graph.edge_count(), "edges");
        let (by_left, by_right) = graph.rows();
        Self { by_left, by_right }
    }

    fn n_left(&self) -> usize {
        self.by_left.len()
    }

    fn n_right(&self) -> usize {
        self.by_right.len()
    }

    /// Neighbours of thread `l`.
    fn left(&self, l: usize) -> &[u32] {
        self.by_left.row(l)
    }

    /// Neighbours of object `r`.
    fn right(&self, r: usize) -> &[u32] {
        self.by_right.row(r)
    }
}

/// Checks that a count of `what` in the frozen view fits its `u32`s.
///
/// # Panics
///
/// Panics if `n` does not fit below `u32::MAX`, which stays free as
/// [`NONE`].
fn assert_fits_u32(n: usize, what: &str) {
    assert!(
        u32::try_from(n).is_ok_and(|n| n != NONE),
        "{n} {what} do not fit the u32 view of the graph"
    );
}

/// A vertex on the Karp–Sipser stack of residual-degree-one vertices.
#[derive(Debug, Clone, Copy)]
enum Side {
    Left(u32),
    Right(u32),
}

/// Karp–Sipser's greedy matching, made deterministic, into empty partner
/// arrays.
///
/// It keeps each free vertex's *residual degree* — how many of its
/// neighbours are still free — and a stack of the free vertices whose
/// residual degree is one.  While that stack holds one, the vertex is matched
/// to its only free neighbour: some maximum matching of what is left contains
/// that edge, so the rule never costs the final matching an edge.  When no
/// degree-one vertex is left, the lowest-index free thread with a free
/// neighbour is matched to its first free neighbour, and the rule resumes.
/// Each vertex is matched at most once and each edge is looked at a bounded
/// number of times: `O(V + E)`.
///
/// A matched vertex's residual degree is set to 0, so a neighbour of a free
/// vertex is matched iff its residual degree is 0, and the partner arrays
/// are only written.  Residual degrees only fall, so a vertex is stacked at
/// most once: the stack holds `n_left + n_right` plus the slot a push not
/// taken writes into.  The LIFO order and the fallback fix the matching.
fn karp_sipser(view: &Csr, pair_left: &mut [u32], pair_right: &mut [u32]) {
    let n_left = view.n_left();
    let degrees =
        |rows: &Rows| -> Vec<u32> { rows.offsets.windows(2).map(|w| w[1] - w[0]).collect() };
    let (mut degree_left, mut degree_right) = (degrees(&view.by_left), degrees(&view.by_right));
    let mut stack = vec![Side::Left(0); n_left + view.n_right() + 1];
    let mut top = 0;
    for (l, &d) in (0..).zip(&degree_left) {
        stack[top] = Side::Left(l);
        top += usize::from(d == 1);
    }
    for (r, &d) in (0..).zip(&degree_right) {
        stack[top] = Side::Right(r);
        top += usize::from(d == 1);
    }
    // Threads below `next_free` are matched or have no free neighbour, and
    // stay so: residual degrees only fall.
    let mut next_free = 0;

    loop {
        let (l, r) = if top > 0 {
            top -= 1;
            // A stacked vertex is at residual degree one, or has since
            // dropped to zero, matched or not: then it is skipped.
            match stack[top] {
                Side::Left(l) if degree_left[l as usize] == 1 => {
                    (l, sole_free(view.left(l as usize), &degree_right))
                }
                Side::Right(r) if degree_right[r as usize] == 1 => {
                    (sole_free(view.right(r as usize), &degree_left), r)
                }
                _ => continue,
            }
        } else {
            let Some(l) = (next_free..n_left).find(|&l| degree_left[l] != 0) else {
                break;
            };
            next_free = l;
            let first = view
                .left(l)
                .iter()
                .find(|&&r| degree_right[r as usize] != 0);
            let r = *first.expect("a thread of nonzero residual degree has a free neighbour");
            (l as u32, r)
        };
        pair_left[l as usize] = r;
        pair_right[r as usize] = l;
        degree_left[l as usize] = 0;
        degree_right[r as usize] = 0;
        // `l` and `r` leave the free graph: their free neighbours each lose
        // one free neighbour and are stacked on reaching one; a matched
        // neighbour stays at 0, so it never is.
        for &other in view.left(l as usize) {
            let d = &mut degree_right[other as usize];
            *d -= u32::from(*d != 0);
            stack[top] = Side::Right(other);
            top += usize::from(*d == 1);
        }
        for &other in view.right(r as usize) {
            let d = &mut degree_left[other as usize];
            *d -= u32::from(*d != 0);
            stack[top] = Side::Left(other);
            top += usize::from(*d == 1);
        }
    }
}

/// The one vertex of `neighbours` whose residual degree in `degree` is not
/// 0, found without a branch.
fn sole_free(neighbours: &[u32], degree: &[u32]) -> u32 {
    debug_assert_eq!(
        neighbours
            .iter()
            .filter(|&&v| degree[v as usize] != 0)
            .count(),
        1,
        "a vertex at residual degree one has one free neighbour"
    );
    neighbours.iter().fold(0, |sole, &v| {
        sole | v & 0u32.wrapping_sub(u32::from(degree[v as usize] != 0))
    })
}

/// Runs Hopcroft–Karp phases from the matching in `pair_left`/`pair_right`
/// until it is maximum, and returns how many phases ran.
///
/// The loop ends on a BFS that reaches no free object, and `dist` is left
/// holding its layering: a thread is reached iff its distance is not
/// `NONE`.
fn hk_phases(view: &Csr, pair_left: &mut [u32], pair_right: &mut [u32], dist: &mut [u32]) -> usize {
    // Each thread is queued at most once a BFS, into one slot over.
    let mut queue = vec![0; view.n_left() + 1];
    let mut stack = Vec::new();
    let mut phases = 0usize;

    loop {
        let dist_nil = hk_bfs(view, pair_left, pair_right, dist, &mut queue);
        if dist_nil == NONE {
            return phases;
        }
        phases += 1;
        let mut augmented = false;
        for l in 0..view.n_left() {
            if pair_left[l] == NONE
                && hk_dfs(
                    view, l as u32, pair_left, pair_right, dist, dist_nil, &mut stack,
                )
            {
                augmented = true;
            }
        }
        // A BFS that reached a free object leaves the DFS a shortest
        // augmenting path; without this, the loop would not end.
        assert!(augmented, "BFS promised an augmenting path");
    }
}

/// BFS phase: computes shortest alternating-path distances from unmatched
/// left vertices.  Returns `dist_nil`, the level at which a free right vertex
/// is first reached (`NONE` when no augmenting path exists).  Left vertices
/// at `dist_nil` or beyond are not expanded: paths through them cannot be
/// shortest, and the DFS phase must not use them.
fn hk_bfs(
    view: &Csr,
    pair_left: &[u32],
    pair_right: &[u32],
    dist: &mut [u32],
    queue: &mut [u32],
) -> u32 {
    let mut tail = 0;
    for ((l, &partner), d) in (0..).zip(pair_left).zip(dist.iter_mut()) {
        let free = partner == NONE;
        *d = if free { 0 } else { NONE };
        queue[tail] = l;
        tail += usize::from(free);
    }
    let mut dist_nil = NONE;
    let mut head = 0;
    while head < tail {
        let l = queue[head] as usize;
        head += 1;
        let level = dist[l];
        if level >= dist_nil {
            // A free right vertex was already found at an earlier level,
            // and the queue holds levels in order: everything from here on
            // is a non-shortest path.
            break;
        }
        for &r in view.left(l) {
            let next = pair_right[r as usize];
            if next == NONE {
                // A free right vertex: levels only grow, so the first one
                // found is the shortest augmenting path, and later levels
                // must not extend past it.
                dist_nil = dist_nil.min(level + 1);
            } else {
                let d = &mut dist[next as usize];
                let fresh = *d == NONE;
                if fresh {
                    *d = level + 1;
                }
                queue[tail] = next;
                tail += usize::from(fresh);
            }
        }
    }
    dist_nil
}

/// One frame of an explicit-stack augmenting-path search: a left vertex and
/// the index of the next neighbour to try.  `next - 1` is the edge through
/// which the search descended (or succeeded), which is exactly the edge to
/// flip when an augmenting path is found.
#[derive(Debug, Clone, Copy)]
struct SearchFrame {
    vertex: usize,
    next: usize,
}

/// A [`SearchFrame`] on the frozen view: `edge` is the position in the
/// thread rows' targets of the next neighbour to try.
#[derive(Debug, Clone, Copy)]
struct ViewFrame {
    vertex: u32,
    edge: u32,
}

/// DFS phase: finds an augmenting path starting at unmatched left vertex `l`
/// that respects the BFS layering and ends at a free right vertex at exactly
/// level `dist_nil`, flipping matched edges along it.
///
/// Uses an explicit stack: shortest augmenting paths are bounded by the BFS
/// layering, but a single phase on a long alternating chain can still reach
/// depths that overflow the call stack.
fn hk_dfs(
    view: &Csr,
    l: u32,
    pair_left: &mut [u32],
    pair_right: &mut [u32],
    dist: &mut [u32],
    dist_nil: u32,
    stack: &mut Vec<ViewFrame>,
) -> bool {
    stack.clear();
    stack.push(ViewFrame {
        vertex: l,
        edge: view.by_left.offsets[l as usize],
    });
    while let Some(top) = stack.last_mut() {
        let l = top.vertex as usize;
        if top.edge == view.by_left.offsets[l + 1] {
            // Every neighbour failed: this left vertex is off all shortest
            // augmenting paths for the rest of the phase.
            dist[l] = NONE;
            stack.pop();
            continue;
        }
        let r = view.by_left.targets[top.edge as usize];
        top.edge += 1;
        let next = pair_right[r as usize];
        if next == NONE {
            // Accept a free right vertex only at exactly the first free
            // level; deeper free vertices would augment a non-shortest path
            // and void the phase bound.
            if dist[l].saturating_add(1) == dist_nil {
                for frame in stack.iter() {
                    let r = view.by_left.targets[frame.edge as usize - 1];
                    pair_left[frame.vertex as usize] = r;
                    pair_right[r as usize] = frame.vertex;
                }
                return true;
            }
        } else if dist[next as usize] == dist[l].saturating_add(1) {
            stack.push(ViewFrame {
                vertex: next,
                edge: view.by_left.offsets[next as usize],
            });
        }
    }
    false
}

/// Augments along the path recorded by a successful search: each frame's
/// last-tried neighbour is the right vertex its left vertex ends up matched
/// with.
fn flip_stack(rows: &Rows, stack: &[SearchFrame], pair_left: &mut [u32], pair_right: &mut [u32]) {
    for frame in stack {
        let r = rows.row(frame.vertex)[frame.next - 1];
        pair_left[frame.vertex] = r;
        pair_right[r as usize] = frame.vertex as u32;
    }
}

/// Reusable scratch space for the single augmenting-path searches of
/// [`simple_augmenting`].
///
/// Visited marks are epoch-stamped so clearing between searches is `O(1)`,
/// and the explicit stack is reused across searches so a search allocates
/// nothing once the buffers have grown to the graph size.
#[derive(Debug, Clone, Default)]
struct AugmentScratch {
    visited: Vec<u32>,
    epoch: u32,
    stack: Vec<SearchFrame>,
}

impl AugmentScratch {
    fn new() -> Self {
        Self::default()
    }

    /// Starts a fresh search wave over `n` markable vertices: all visited
    /// marks are invalidated in `O(1)` (amortised).
    fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, self.epoch);
        }
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn mark(&mut self, v: usize) -> bool {
        if self.visited[v] == self.epoch {
            false
        } else {
            self.visited[v] = self.epoch;
            true
        }
    }

    /// Tries to find an augmenting path starting at the free left vertex
    /// `root`, flipping matched edges along it.  Right vertices visited in
    /// the current wave (since [`begin`](Self::begin)) are skipped: a failed
    /// search proves its alternating tree cannot lie on any augmenting path
    /// for the current matching, so later roots in the same wave may share
    /// the marks.
    fn augment_from_left(
        &mut self,
        rows: &Rows,
        root: usize,
        pair_left: &mut [u32],
        pair_right: &mut [u32],
    ) -> bool {
        debug_assert_eq!(pair_left[root], NONE, "root must be free");
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.push(SearchFrame {
            vertex: root,
            next: 0,
        });
        let mut found = false;
        while let Some(top) = stack.last_mut() {
            let l = top.vertex;
            let Some(&r) = rows.row(l).get(top.next) else {
                stack.pop();
                continue;
            };
            let r = r as usize;
            top.next += 1;
            if !self.mark(r) {
                continue;
            }
            if pair_right[r] == NONE {
                flip_stack(rows, &stack, pair_left, pair_right);
                found = true;
                break;
            }
            stack.push(SearchFrame {
                vertex: pair_right[r] as usize,
                next: 0,
            });
        }
        self.stack = stack;
        found
    }
}

/// Computes a maximum matching using the simple augmenting-path algorithm
/// (one explicit-stack DFS per left vertex, `O(V · E)`).
///
/// Kept as the independent reference [`hopcroft_karp`] is checked against:
/// conformance oracle 1 and this module's tests compare matching sizes.  It
/// shares only the grouping of the graph's edges with Hopcroft–Karp: it
/// walks the edges grouped by thread, as the frozen view groups them.
///
/// # Panics
///
/// Panics if a side of `graph` does not fit below `u32::MAX`, or its edge
/// count does not fit a `u32`.
pub fn simple_augmenting(graph: &BipartiteGraph) -> Matching {
    let rows = graph.left_rows();
    let mut matching = Matching::empty(graph.n_left(), graph.n_right());
    let mut scratch = AugmentScratch::new();
    for l in 0..graph.n_left() {
        scratch.begin(graph.n_right());
        scratch.augment_from_left(&rows, l, &mut matching.pair_left, &mut matching.pair_right);
    }
    matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::{minimum_vertex_cover, minimum_vertex_cover_of, VertexCover};
    use crate::generate::{GraphScenario, RandomGraphBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Hopcroft–Karp phase loop alone, from the empty matching: what the
    /// BFS/DFS layering regressions must exercise, since the Karp–Sipser
    /// start would otherwise find most (on a chain, all) of their matches.
    fn phases_from_empty(graph: &BipartiteGraph) -> (Matching, usize) {
        let view = Csr::of(graph);
        let mut pair_left = vec![NONE; graph.n_left()];
        let mut pair_right = vec![NONE; graph.n_right()];
        let mut dist = vec![NONE; graph.n_left()];
        let phases = hk_phases(&view, &mut pair_left, &mut pair_right, &mut dist);
        let matching = Matching {
            pair_left,
            pair_right,
        };
        (matching, phases)
    }

    fn perfect_matchable() -> BipartiteGraph {
        // A 4x4 graph with a perfect matching.
        BipartiteGraph::from_edges(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 1),
                (1, 2),
                (2, 2),
                (2, 3),
                (3, 3),
                (3, 0),
            ],
        )
    }

    #[test]
    fn empty_graph_has_empty_matching() {
        let g = BipartiteGraph::new(5, 5);
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 0);
        assert!(m.is_valid_for(&g));
    }

    #[test]
    fn single_edge() {
        let g = BipartiteGraph::from_edges(1, 1, &[(0, 0)]);
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 1);
        assert!(m.contains_edge(0, 0));
        assert!(m.is_left_matched(0));
        assert_eq!(m.partner_of_right(0), Some(0));
    }

    #[test]
    fn perfect_matching_found() {
        let g = perfect_matchable();
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 4);
        assert!(m.is_valid_for(&g));
    }

    #[test]
    fn star_graph_matching_is_one() {
        // One thread touching every object: max matching is 1.
        let mut g = BipartiteGraph::new(1, 10);
        for r in 0..10 {
            g.add_edge(0, r);
        }
        assert_eq!(hopcroft_karp(&g).size(), 1);
        assert_eq!(simple_augmenting(&g).size(), 1);
    }

    #[test]
    fn complete_bipartite_matching_is_min_side() {
        let mut g = BipartiteGraph::new(3, 7);
        for l in 0..3 {
            for r in 0..7 {
                g.add_edge(l, r);
            }
        }
        assert_eq!(hopcroft_karp(&g).size(), 3);
    }

    #[test]
    fn paper_figure2_graph() {
        // Thread-object graph of the paper's Fig. 1/2 computation:
        // T1 uses O2; T2 uses O1, O2, O3, O4; T3 uses O3; T4 uses O3.
        let g = BipartiteGraph::from_edges(
            4,
            4,
            &[(0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 2), (3, 2)],
        );
        let m = hopcroft_karp(&g);
        // Matching size 3 => minimum vertex cover of size 3 (T2, O2, O3).
        assert_eq!(m.size(), 3);
    }

    #[test]
    fn augmenting_path_needed() {
        // Greedy matching in edge order would get stuck without augmentation:
        // 0-0, then 1 can only take 0. Augmenting flips 0 to 1.
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        assert_eq!(hopcroft_karp(&g).size(), 2);
        assert_eq!(simple_augmenting(&g).size(), 2);
    }

    #[test]
    fn both_algorithms_agree_on_random_graphs() {
        for seed in 0..20 {
            let g = RandomGraphBuilder::new(30, 30)
                .density(0.1)
                .scenario(GraphScenario::Uniform)
                .seed(seed)
                .build();
            let hk = hopcroft_karp(&g);
            let simple = simple_augmenting(&g);
            assert!(hk.is_valid_for(&g));
            assert!(simple.is_valid_for(&g));
            assert_eq!(hk.size(), simple.size(), "seed {seed}");
        }
    }

    /// A long alternating chain: lefts `0..n` with edges `(i, i)` and
    /// `(i, i+1)`, plus one extra left `n` whose only edge points back at
    /// right `0`.  Greedy phase 1 matches `(i, i)`, so the final left can
    /// only augment along the full chain `n → 0 → 1 → … → n` — an
    /// augmenting path of ~`n` edges.
    fn alternating_chain(n: usize) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(n + 1, n + 1);
        for i in 0..n {
            g.add_edge(i, i);
            g.add_edge(i, i + 1);
        }
        g.add_edge(n, 0);
        g
    }

    #[test]
    fn long_alternating_chain_does_not_overflow_the_stack() {
        // Regression: the recursive hk_dfs / try_augment overflowed the call
        // stack on alternating chains of this length (one frame per vertex
        // along a ~50k-edge augmenting path).
        let n = 50_000;
        let g = alternating_chain(n);
        let (hk, phases) = phases_from_empty(&g);
        assert_eq!(hk.size(), n + 1, "the chain has a perfect matching");
        assert!(hk.is_valid_for(&g));
        assert_eq!(phases, 2, "greedy phase + one chain-long augmentation");
        let simple = simple_augmenting(&g);
        assert_eq!(simple.size(), n + 1);
        assert!(simple.is_valid_for(&g));
    }

    /// Upper bound on Hopcroft–Karp phases when every phase augments along
    /// shortest paths only: `2·⌈√m⌉ + 2` for matching size `m` (after `√m`
    /// phases the shortest augmenting path exceeds `√m`, leaving at most
    /// `√m` further augmentations, one phase each).
    fn phase_bound(matching_size: usize) -> usize {
        2 * (matching_size as f64).sqrt().ceil() as usize + 2
    }

    #[test]
    fn phase_count_stays_within_the_sqrt_bound() {
        // Regression for the hk_bfs bug that never recorded the level at
        // which a free right vertex was first found: the DFS could then
        // augment along non-shortest paths, voiding the O(√V) phase bound.
        // Random sparse graphs are adversarial enough to catch it — seeds
        // exist where the unfixed algorithm exceeds this bound.
        for seed in 0..40 {
            let g = RandomGraphBuilder::new(120, 120)
                .density(0.02)
                .scenario(GraphScenario::Uniform)
                .seed(seed)
                .build();
            let (m, phases) = phases_from_empty(&g);
            assert_eq!(m.size(), simple_augmenting(&g).size(), "seed {seed}");
            assert!(
                phases <= phase_bound(m.size()),
                "seed {seed}: {phases} phases for matching size {} exceeds the \
                 shortest-path bound {}",
                m.size(),
                phase_bound(m.size())
            );
        }
        for seed in 0..10 {
            let g = RandomGraphBuilder::new(150, 150)
                .density(0.05)
                .scenario(GraphScenario::default_nonuniform())
                .seed(seed)
                .build();
            let (m, phases) = phases_from_empty(&g);
            assert!(phases <= phase_bound(m.size()), "nonuniform seed {seed}");
        }
    }

    #[test]
    fn phase_count_on_adversarial_widget_is_exactly_two() {
        // Regression for the hk_bfs/hk_dfs shortest-path bug.  The widget is
        // built so that in phase 2 the DFS from thread A explores the branch
        // A→Y2→c2→z2→c3 first and finds the free object Z at level 3, while
        // the shortest augmenting paths (A→Y1→c1→X and B→W→c4→Z) have level
        // 2.  The unfixed DFS accepted Z at level 3, which stole Z from B's
        // shortest path and forced a third phase; the fixed algorithm rejects
        // the deep free vertex and finishes in exactly two phases.
        //
        // Lefts: c1=0, c2=1, c3=2, c4=3, A=4, B=5.
        // Rights: Y1=0, Y2=1, z2=2, W=3, X=4, Z=5.
        #[rustfmt::skip]
        let g = BipartiteGraph::from_edges(
            6,
            6,
            &[
                (0, 0), (0, 4), // c1: Y1, X
                (1, 1), (1, 2), // c2: Y2, z2
                (2, 2), (2, 5), // c3: z2, Z
                (3, 3), (3, 5), // c4: W, Z
                (4, 1), (4, 0), // A: Y2 (the trap branch first), Y1
                (5, 3),         // B: W
            ],
        );
        let (m, phases) = phases_from_empty(&g);
        assert_eq!(m.size(), 6, "the widget has a perfect matching");
        assert_eq!(
            phases, 2,
            "augmenting along non-shortest paths costs an extra phase here"
        );
    }

    #[test]
    fn phase_count_on_trivial_graphs() {
        let empty = BipartiteGraph::new(4, 4);
        assert_eq!(hopcroft_karp_with_phases(&empty).1, 0);
        // The start matches the edge; the one phase from empty is not run.
        let single = BipartiteGraph::from_edges(1, 1, &[(0, 0)]);
        assert_eq!(hopcroft_karp_with_phases(&single).1, 0);
        assert_eq!(phases_from_empty(&single).1, 1);
    }

    /// A random forest with `n` vertices a side: the vertices arrive in a
    /// random order, and each attaches to one random earlier vertex of the
    /// other side or to none, so no edge closes a cycle.
    fn random_forest(n: usize, seed: u64) -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = BipartiteGraph::new(n, n);
        let (mut lefts, mut rights) = (0, 0);
        while lefts < n || rights < n {
            if rights == n || (lefts < n && rng.gen_bool(0.5)) {
                if rights > 0 && rng.gen_bool(0.9) {
                    g.add_edge(lefts, rng.gen_range(0..rights));
                }
                lefts += 1;
            } else {
                if lefts > 0 && rng.gen_bool(0.9) {
                    g.add_edge(rng.gen_range(0..lefts), rights);
                }
                rights += 1;
            }
        }
        g
    }

    #[test]
    fn karp_sipser_is_exact_on_forests() {
        // A forest always has a vertex of degree one until it has no edge, so
        // the start only ever applies the degree-one rule, which some maximum
        // matching agrees with: no phase is left to run.
        for seed in 0..30 {
            let g = random_forest(300, seed);
            let (m, phases) = hopcroft_karp_with_phases(&g);
            assert_eq!(phases, 0, "seed {seed}");
            assert!(m.is_valid_for(&g));
            assert_eq!(m.size(), simple_augmenting(&g).size(), "seed {seed}");
        }
        let n = 50_000;
        let chain = alternating_chain(n);
        let (m, phases) = hopcroft_karp_with_phases(&chain);
        assert_eq!((m.size(), phases), (n + 1, 0));
        assert!(m.is_valid_for(&chain));
    }

    #[test]
    fn karp_sipser_start_leaves_few_phases_at_plan_sparse_shape() {
        // `plan-sparse`'s graphs scaled down from n = 8192: mean degree 3,
        // seeds 1-60 of both scenarios, 5-24 phases each from the empty
        // matching.  The bounds are what `RandomGraphBuilder` gave when it
        // drew one Bernoulli per pair, over seeds 1-200 of both scenarios
        // (400 graphs): at most 4 phases after the start on any graph (its
        // uniform seeds 21 and 103), and 0.295 ± 0.674 per graph, so at most
        // 57 (mean + 3 sd) over these 120.  A start that stops finding the
        // degree-one matches fails here, not only in the benchmark.
        let n = 2048;
        let mut total = 0;
        for scenario in [GraphScenario::Uniform, GraphScenario::default_nonuniform()] {
            for seed in 1..=60 {
                let g = RandomGraphBuilder::new(n, n)
                    .density(3.0 / n as f64)
                    .scenario(scenario)
                    .seed(seed)
                    .build();
                let (m, phases) = hopcroft_karp_with_phases(&g);
                let (reference, from_empty) = phases_from_empty(&g);
                assert_eq!(m.size(), reference.size(), "{scenario:?} seed {seed}");
                assert!(
                    phases <= 4 && phases < from_empty,
                    "{scenario:?} seed {seed}: {phases} phases after the start \
                     ({from_empty} from the empty matching)"
                );
                total += phases;
            }
        }
        assert!(
            total <= 57,
            "{total} phases after the start over 120 graphs"
        );
    }

    #[test]
    fn empty_sides_and_isolated_high_ends_solve_like_the_reference() {
        // No edge can exist with an empty side; the isolated vertices at
        // either high end stay free, in `Z` when they are threads.
        let low = [(0, 0), (0, 1), (1, 0), (2, 2)];
        for (n_left, n_right, edges) in [(0, 7, &[][..]), (7, 0, &[]), (0, 0, &[]), (90, 130, &low)]
        {
            let g = BipartiteGraph::from_edges(n_left, n_right, edges);
            let ((m, phases), (_, cover)) =
                (hopcroft_karp_with_phases(&g), minimum_vertex_cover_of(&g));
            assert_eq!((m.size(), phases), (simple_augmenting(&g).size(), 0));
            assert!(m.is_valid_for(&g));
            assert_eq!(cover, minimum_vertex_cover(&g, &m));
            assert_eq!(cover.size(), m.size());
        }
    }

    #[test]
    fn a_star_of_degree_one_leaves_is_matched_from_the_top_of_the_stack() {
        // Every one of the 10^5 threads starts at degree one, the stack's
        // worst case; the last one stacked is matched, and the others drop
        // to degree zero.
        let leaves = 100_000;
        let star: Vec<_> = (0..leaves).map(|l| (l, 0)).collect();
        let g = BipartiteGraph::from_edges(leaves, 2, &star);
        let (m, phases) = hopcroft_karp_with_phases(&g);
        assert_eq!(
            (m.size(), phases, m.partner_of_right(0)),
            (1, 0, Some(leaves - 1))
        );
        assert_eq!(
            minimum_vertex_cover_of(&g).1,
            VertexCover::from_sets([], [0])
        );
    }

    #[test]
    fn matching_insert_rejects_conflicts() {
        let mut m = Matching::empty(2, 2);
        m.insert(0, 0);
        let result = std::panic::catch_unwind(move || {
            m.insert(0, 1);
        });
        assert!(result.is_err());
    }

    #[test]
    fn matching_validity_detects_foreign_edges() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0)]);
        let mut m = Matching::empty(2, 2);
        m.insert(1, 1); // not an edge of g
        assert!(!m.is_valid_for(&g));
    }

    #[test]
    fn view_counts_up_to_u32_max_minus_one_fit() {
        assert_fits_u32(0, "threads");
        assert_fits_u32(u32::MAX as usize - 1, "edges");
    }

    #[test]
    #[should_panic(expected = "4294967295 objects do not fit the u32 view")]
    fn a_side_of_u32_max_stops_at_the_named_assert() {
        // `u32::MAX` itself is the sentinel, so it is one past the range.
        assert_fits_u32(u32::MAX as usize, "objects");
    }

    #[test]
    #[should_panic(expected = "1099511627776 edges do not fit the u32 view")]
    fn an_edge_count_past_u32_stops_at_the_named_assert() {
        assert_fits_u32(1 << 40, "edges");
    }

    /// One graph of family `family` (0..5): uniform, nonuniform, a star
    /// (around a thread for even seeds, an object for odd ones), complete
    /// bipartite, or the thread–object graph of the `Matching` workload of
    /// `mvc-trace` (which this crate cannot depend on, so its pair rule is
    /// repeated here: over `4 · n_left` round-robin operations thread `t`
    /// works on object `(t + rotation) % n_right`, the rotation advancing
    /// every `period` operations — never for a third of the seeds, leaving a
    /// perfect matching when `n_right >= n_left`).
    fn drawn_graph(
        family: usize,
        n_left: usize,
        n_right: usize,
        density: f64,
        seed: u64,
    ) -> BipartiteGraph {
        let random = RandomGraphBuilder::new(n_left, n_right).seed(seed);
        match family {
            0 => random.density(density).build(),
            1 => random
                .density(density)
                .scenario(GraphScenario::default_nonuniform())
                .build(),
            2 => {
                let edges: Vec<_> = if seed.is_multiple_of(2) {
                    (0..n_right).map(|r| (0, r)).collect()
                } else {
                    (0..n_left).map(|l| (l, 0)).collect()
                };
                BipartiteGraph::from_edges(n_left, n_right, &edges)
            }
            3 => random.density(1.0).build(),
            _ => {
                let period = (seed % 3) as usize * n_left;
                let mut g = BipartiteGraph::new(n_left, n_right);
                for step in 0..4 * n_left {
                    let t = step % n_left;
                    let rotation = step.checked_div(period).unwrap_or(0);
                    g.add_edge(t, (t + rotation) % n_right);
                }
                g
            }
        }
    }

    proptest! {
        #[test]
        fn prop_hopcroft_karp_is_valid_matching(
            family in 0usize..5,
            n_left in 1usize..40,
            n_right in 1usize..40,
            density in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            let g = drawn_graph(family, n_left, n_right, density, seed);
            let m = hopcroft_karp(&g);
            prop_assert!(m.is_valid_for(&g));
            // Matching size can never exceed either side.
            prop_assert!(m.size() <= n_left.min(n_right));
            prop_assert_eq!(m.size(), simple_augmenting(&g).size());
        }

        #[test]
        fn prop_matching_sizes_agree(
            family in 0usize..5,
            n in 1usize..25,
            density in 0.0f64..1.0,
            seed in 0u64..500,
        ) {
            let g = drawn_graph(family, n, n, density, seed);
            let m = hopcroft_karp(&g);
            prop_assert!(m.is_valid_for(&g));
            prop_assert_eq!(m.size(), simple_augmenting(&g).size());
        }

        #[test]
        fn prop_matching_maximality_no_free_edge(
            n in 1usize..25,
            density in 0.0f64..1.0,
            seed in 0u64..500,
        ) {
            // A maximum matching is in particular maximal: there is no edge with
            // both endpoints unmatched.
            let g = RandomGraphBuilder::new(n, n).density(density).seed(seed).build();
            let m = hopcroft_karp(&g);
            for (l, r) in g.edges() {
                prop_assert!(m.is_left_matched(l) || m.partner_of_right(r).is_some());
            }
        }

        /// The cover read off Hopcroft–Karp's last BFS is the reference
        /// search's cover member for member, on every family and with
        /// isolated vertices at the high end of either side.  The matching
        /// it comes with is counted from its own partner arrays.
        #[test]
        fn prop_cover_of_the_last_bfs_is_the_reference_cover(
            family in 0usize..5,
            n_left in 1usize..40,
            n_right in 1usize..40,
            extra_left in 0usize..70,
            extra_right in 0usize..70,
            density in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            let drawn = drawn_graph(family, n_left, n_right, density, seed);
            let edges: Vec<_> = drawn.edges().collect();
            let g = BipartiteGraph::from_edges(n_left + extra_left, n_right + extra_right, &edges);
            let (m, cover) = minimum_vertex_cover_of(&g);
            prop_assert!(m.is_valid_for(&g));
            prop_assert_eq!(&cover, &minimum_vertex_cover(&g, &hopcroft_karp(&g)));
            prop_assert!(cover.covers_all_edges(&g));
            prop_assert_eq!(m.size(), simple_augmenting(&g).size());
            prop_assert_eq!(cover.size(), m.size());
        }

        /// The rows Hopcroft–Karp, the reference searches and `edges()`
        /// read, grouped by one side or by both in one pass, are the
        /// insertion log filtered per vertex, in order: on
        /// every family, revealed twice over in a shuffled order into a
        /// graph that starts at `start_left × start_right` and grows past
        /// it or keeps isolated vertices at the high end.
        #[test]
        fn prop_rows_are_the_log_filtered_per_vertex(
            family in 0usize..5,
            n_left in 1usize..40,
            n_right in 1usize..40,
            start_left in 0usize..70,
            start_right in 0usize..70,
            density in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            let drawn = drawn_graph(family, n_left, n_right, density, seed);
            let mut stream: Vec<_> = drawn.edges().chain(drawn.edges()).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..stream.len()).rev() {
                stream.swap(i, rng.gen_range(0..=i));
            }
            let mut g = BipartiteGraph::new(start_left, start_right);
            let mut log = Vec::new();
            for &(l, r) in &stream {
                if g.add_edge_growing(l, r) {
                    log.push((l, r));
                }
            }
            let reached = |end: fn(&(usize, usize)) -> usize| stream.iter().map(|e| end(e) + 1).max();
            prop_assert_eq!(g.n_left(), start_left.max(reached(|e| e.0).unwrap_or(0)));
            prop_assert_eq!(g.n_right(), start_right.max(reached(|e| e.1).unwrap_or(0)));
            prop_assert_eq!(log.len(), drawn.edge_count());
            let view = Csr::of(&g);
            prop_assert_eq!(&g.left_rows(), &view.by_left);
            let widen = |row: &[u32]| row.iter().map(|&v| v as usize).collect::<Vec<_>>();
            let mut grouped = Vec::new();
            for l in 0..g.n_left() {
                let objects: Vec<_> = log.iter().filter(|e| e.0 == l).map(|e| e.1).collect();
                prop_assert_eq!(widen(view.left(l)), objects.clone());
                grouped.extend(objects.into_iter().map(|r| (l, r)));
            }
            for r in 0..g.n_right() {
                let threads: Vec<_> = log.iter().filter(|e| e.1 == r).map(|e| e.0).collect();
                prop_assert_eq!(widen(view.right(r)), threads);
            }
            prop_assert_eq!(g.edges().collect::<Vec<_>>(), grouped);
        }
    }
}
