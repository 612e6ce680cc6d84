//! The [`BipartiteGraph`] data structure.
//!
//! Left vertices model threads and right vertices model objects, but the type
//! is agnostic to that interpretation: it is a plain undirected bipartite
//! graph with O(1) amortised incremental edge insertion and O(1) expected
//! edge-presence queries, which is exactly what both the offline optimizer
//! (build once, solve once) and the online mechanisms (edges revealed one at
//! a time) need.
//!
//! # Storage
//!
//! The graph is an *edge log*: every distinct edge in the order it was first
//! added, one degree array per side, the active-vertex counts, and the set of
//! pairs seen so far.  That is everything an insertion touches, and all the
//! online mechanisms read.  No per-vertex list is stored.  A reader that needs
//! adjacency groups the log once, by a stable counting sort, into compressed
//! sparse rows with each list in insertion order: Hopcroft–Karp's frozen view
//! and the reference searches (see [`crate::matching`]) and
//! [`BipartiteGraph::edges`] do.
//! [`IncrementalMatching`](crate::incremental::IncrementalMatching), which
//! walks single threads' and objects' edges between insertions, chains them
//! through the log with two links per edge of its own.
//!
//! The seen set is an open-addressing table of the pairs packed into `u64`
//! keys, with linear probing under a multiplicative (Fibonacci) hash.  It is
//! not SipHash: the keys are dense vertex indices, which a multiply spreads
//! well, and a keyed hash would cost a reveal more than the rest of it.  The
//! table is therefore not hardened against pairs crafted to collide; a
//! caller that lets an untrusted party choose ids bounds them where they
//! enter the process, as `mvc_trace::codec` does.  Indices are stored as
//! `u32`, so a side holds at most `u32::MAX` vertices.

use std::fmt;
use std::marker::PhantomData;

/// A vertex on the left side of a bipartite graph (a *thread* in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeftVertex(pub usize);

/// A vertex on the right side of a bipartite graph (an *object* in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RightVertex(pub usize);

/// Either side of the bipartition.
///
/// A [`crate::cover::VertexCover`] is a set of `Vertex` values; when the graph
/// is a thread–object graph, `Left` members are threads chosen as clock
/// components and `Right` members are objects chosen as clock components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
/// Edges are stored as an insertion-ordered log plus a set of the pairs seen
/// (see the [module docs](self)), so that repeatedly "revealing" the same
/// thread–object pair (as happens in an online computation where a thread
/// touches the same object many times) does not create parallel edges.
///
/// Two graphs are equal when they have the same sides and every vertex has
/// the same neighbours in the same order; how the two logs interleave those
/// lists does not matter.
#[derive(Debug, Clone, Default)]
pub struct BipartiteGraph {
    /// Every distinct edge, in the order it was first added.
    log: Vec<(u32, u32)>,
    /// Edges at each left vertex; its length is `n_left`.
    degree_left: Vec<u32>,
    /// Edges at each right vertex; its length is `n_right`.
    degree_right: Vec<u32>,
    seen: EdgeSet,
    // Maintained incrementally so per-event consumers (the Adaptive online
    // mechanism, `GraphStats`) get O(1) active-vertex counts instead of O(V)
    // scans.
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
    ///
    /// # Panics
    ///
    /// Panics if a side has more than `u32::MAX` vertices.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        let mut g = Self::default();
        g.ensure_left(n_left);
        g.ensure_right(n_right);
        g
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
        self.degree_left.len()
    }

    /// Number of right-side vertices (objects).
    pub fn n_right(&self) -> usize {
        self.degree_right.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.log.len()
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Grows the left side to at least `n` vertices (no-op if already larger).
    fn ensure_left(&mut self, n: usize) {
        grow_side(&mut self.degree_left, n);
    }

    /// Grows the right side to at least `n` vertices (no-op if already larger).
    fn ensure_right(&mut self, n: usize) {
        grow_side(&mut self.degree_right, n);
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
            left < self.n_left(),
            "left vertex {left} out of range (n_left = {})",
            self.n_left()
        );
        assert!(
            right < self.n_right(),
            "right vertex {right} out of range (n_right = {})",
            self.n_right()
        );
        // Both are below a side length, which `grow_side` keeps within u32.
        let (l, r) = (left as u32, right as u32);
        if !self.seen.insert(key(l, r), &self.log) {
            return false;
        }
        self.log.push((l, r));
        self.active_left_count += (self.degree_left[left] == 0) as usize;
        self.active_right_count += (self.degree_right[right] == 0) as usize;
        self.degree_left[left] += 1;
        self.degree_right[right] += 1;
        true
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
        left < self.n_left()
            && right < self.n_right()
            && self.seen.contains(key(left as u32, right as u32))
    }

    /// Degree of a left vertex.
    pub fn degree_left(&self, left: usize) -> usize {
        self.degree_left[left] as usize
    }

    /// Degree of a right vertex.
    pub fn degree_right(&self, right: usize) -> usize {
        self.degree_right[right] as usize
    }

    /// Degree of an arbitrary vertex.
    fn degree(&self, v: Vertex) -> usize {
        match v {
            Vertex::Left(i) => self.degree_left(i),
            Vertex::Right(i) => self.degree_right(i),
        }
    }

    /// Every distinct edge as `(left, right)`, in the order it was first
    /// added.
    pub(crate) fn log(&self) -> &[(u32, u32)] {
        &self.log
    }

    /// The edges grouped by left vertex: row `l` lists the right neighbours
    /// of `l` in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the edge count does not fit a `u32`.
    pub(crate) fn left_rows(&self) -> Rows {
        self.group::<false>().0
    }

    /// The edges grouped by left and by right vertex, in one pass over the
    /// log: row `l` of the first lists the right neighbours of `l`, row `r`
    /// of the second the left neighbours of `r`, each in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the edge count does not fit a `u32`.
    pub(crate) fn rows(&self) -> (Rows, Rows) {
        self.group::<true>()
    }

    /// A stable counting sort of the log by left vertex and, if `BY_RIGHT`,
    /// by right vertex too (the second rows are empty otherwise).
    ///
    /// Each side's offsets start as the row ends, the degree arrays' prefix
    /// sums, and the log is scattered back to front, each edge one slot
    /// below its row's last: that keeps each row in insertion order and
    /// leaves the offsets at the row starts, with no cursor array.
    fn group<const BY_RIGHT: bool>(&self) -> (Rows, Rows) {
        let edges = u32::try_from(self.log.len())
            .unwrap_or_else(|_| panic!("{} edges do not fit u32 rows", self.log.len()));
        let mut by_left = Rows::ends(&self.degree_left, edges);
        let mut by_right = if BY_RIGHT {
            Rows::ends(&self.degree_right, edges)
        } else {
            Rows::ends(&[], 0)
        };
        for &(l, r) in self.log.iter().rev() {
            by_left.place_before_end(l, r);
            if BY_RIGHT {
                by_right.place_before_end(r, l);
            }
        }
        (by_left, by_right)
    }

    /// Iterator over all edges as `(left, right)` pairs.
    ///
    /// Edges are produced grouped by left vertex in insertion order, which
    /// makes the iteration deterministic (important for reproducible
    /// evaluation runs).  Creating the iterator groups the log once (`O(V +
    /// E)` time and memory).
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            rows: self.left_rows(),
            left: 0,
            pos: 0,
            graph: PhantomData,
        }
    }

    /// Density of the graph: `|E| / (n_left * n_right)`.
    ///
    /// This matches the paper's notion of "graph density" used on the x-axis
    /// of Figures 4 and 6. Returns 0.0 for a graph with an empty side.
    pub fn density(&self) -> f64 {
        let cells = self.n_left() * self.n_right();
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
        (0..self.n_left()).filter(|&l| self.degree_left[l] != 0)
    }

    /// Right vertices with at least one incident edge.
    pub fn active_right(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_right()).filter(|&r| self.degree_right[r] != 0)
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

impl PartialEq for BipartiteGraph {
    fn eq(&self, other: &Self) -> bool {
        // Equal degrees make equal sides and equal row offsets; the rows
        // then compare the lists themselves.
        self.degree_left == other.degree_left
            && self.degree_right == other.degree_right
            && self.rows() == other.rows()
    }
}

impl Eq for BipartiteGraph {}

/// Grows a degree array to at least `n` vertices, the new ones isolated.
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX`: indices are stored as `u32`.
fn grow_side(degree: &mut Vec<u32>, n: usize) {
    if n > degree.len() {
        assert!(
            u32::try_from(n).is_ok(),
            "a side of {n} vertices does not fit u32 indices"
        );
        degree.resize(n, 0);
    }
}

/// The seen-set key of the edge `(l, r)`.
fn key(l: u32, r: u32) -> u64 {
    u64::from(l) << 32 | u64::from(r)
}

/// The graph's edges as a set of keys: open addressing with linear probing,
/// at most half full.
///
/// A slot holds a key or [`EMPTY`](Self::EMPTY), which no edge packs to: an
/// index is below `u32::MAX`.  A slot is found from the top bits of the key
/// times `2^64 / φ` (Fibonacci hashing), which spreads stars, complete
/// graphs and diagonals alike.  The set holds exactly the edges of the
/// graph's log, which it grows from.
#[derive(Debug, Clone, Default)]
struct EdgeSet {
    /// Empty, or a power of two of at least 16 slots.
    slots: Vec<u64>,
}

impl EdgeSet {
    const EMPTY: u64 = u64::MAX;
    const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Adds `key`, returning `true` if it was absent.  `log` holds the
    /// edges already in the set.
    fn insert(&mut self, key: u64, log: &[(u32, u32)]) -> bool {
        // May grow one insertion early, on a repeat; that costs nothing.
        if 2 * (log.len() + 1) > self.slots.len() {
            self.grow(log);
        }
        let slot = self.slot(key);
        let fresh = self.slots[slot] == Self::EMPTY;
        self.slots[slot] = key;
        fresh
    }

    fn contains(&self, key: u64) -> bool {
        !self.slots.is_empty() && self.slots[self.slot(key)] == key
    }

    /// The slot holding `key`, or else the empty slot it would go in.
    fn slot(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let shift = u64::BITS - self.slots.len().trailing_zeros();
        let mut i = (key.wrapping_mul(Self::MULTIPLIER) >> shift) as usize;
        while self.slots[i] != key && self.slots[i] != Self::EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// Quadruples the table and re-inserts `log`'s edges into it.
    ///
    /// The edges come from the dense log rather than the old slots, so no
    /// empty slot is branched over.  Growing fourfold rather than twofold
    /// re-inserts a third as many edges over the table's life, for a table
    /// between 1/8 and 1/2 full instead of between 1/4 and 1/2.
    fn grow(&mut self, log: &[(u32, u32)]) {
        self.slots = vec![Self::EMPTY; (4 * self.slots.len()).max(16)];
        for &(l, r) in log {
            let slot = self.slot(key(l, r));
            self.slots[slot] = key(l, r);
        }
    }
}

/// One side's adjacency as compressed sparse rows: row `v` is
/// `targets[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Rows {
    pub(crate) offsets: Vec<u32>,
    pub(crate) targets: Vec<u32>,
}

impl Rows {
    /// Rows of `degree[v]` slots each, `edges` in all, with every offset
    /// still at its row's end: [`place_before_end`](Self::place_before_end)
    /// fills a row from the back and leaves its offset at the start.
    fn ends(degree: &[u32], edges: u32) -> Self {
        let mut offsets = Vec::with_capacity(degree.len() + 1);
        let mut end = 0;
        offsets.extend(degree.iter().map(|&d| {
            end += d;
            end
        }));
        offsets.push(edges);
        Self {
            offsets,
            targets: vec![0; edges as usize],
        }
    }

    /// Puts `w` in the last unfilled slot of row `v`.
    fn place_before_end(&mut self, v: u32, w: u32) {
        let slot = &mut self.offsets[v as usize];
        *slot -= 1;
        self.targets[*slot as usize] = w;
    }

    /// The number of rows.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `v`.
    pub(crate) fn row(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Iterator over the edges of a [`BipartiteGraph`], created by
/// [`BipartiteGraph::edges`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    rows: Rows,
    left: usize,
    pos: usize,
    graph: PhantomData<&'a BipartiteGraph>,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let r = *self.rows.targets.get(self.pos)?;
        while self.rows.offsets[self.left + 1] as usize <= self.pos {
            self.left += 1;
        }
        self.pos += 1;
        Some((self.left, r as usize))
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
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = BipartiteGraph::new(3, 3);
        assert!(g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(0, 1), "duplicate edge must be ignored");
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 1));
        assert!(!g.has_edge(7, 1), "past the side");
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
    #[should_panic(expected = "a side of 4294967296 vertices does not fit u32 indices")]
    fn a_side_past_u32_stops_before_allocating() {
        let mut g = BipartiteGraph::new(0, 0);
        g.add_edge_growing(u32::MAX as usize, 0);
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
    fn the_seen_set_survives_growth() {
        // Enough edges for several rebuilds, on a star, a column and a
        // diagonal: every edge stays findable, and no repeat is new.
        let mut g = BipartiteGraph::new(0, 0);
        let edges: Vec<_> = (0..3000)
            .flat_map(|i| [(0, i), (i, 0), (i + 1, i + 2)])
            .collect();
        let fresh = edges
            .iter()
            .filter(|&&(l, r)| g.add_edge_growing(l, r))
            .count();
        assert_eq!(fresh, 3 * 3000 - 1, "(0, 0) is in the star and the column");
        assert_eq!(g.edge_count(), fresh);
        assert!(edges.iter().all(|&(l, r)| g.has_edge(l, r)));
        assert!(edges.iter().all(|&(l, r)| !g.add_edge(l, r)));
        assert!(!g.has_edge(5, 7));
        assert!(
            2 * g.edge_count() <= g.seen.slots.len(),
            "at most half full"
        );
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
    fn equality_is_per_vertex_lists_not_the_interleaving() {
        // Thread 0 lists [0, 1], thread 1 [1, 0]; object 0 lists [0, 1],
        // object 1 [1, 0] — in both logs, interleaved differently.
        let a = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1), (0, 1), (1, 0)]);
        let b = BipartiteGraph::from_edges(2, 2, &[(1, 1), (0, 0), (1, 0), (0, 1)]);
        assert_ne!(a.log, b.log);
        assert_eq!(a, b);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        // The same thread lists, but object 1 now lists [0, 1].
        let objects_differ = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 1), (1, 0)]);
        assert_ne!(a, objects_differ);
        // The same object lists, but thread 0 now lists [1, 0].
        let threads_differ = BipartiteGraph::from_edges(2, 2, &[(1, 1), (0, 1), (0, 0), (1, 0)]);
        assert_ne!(a, threads_differ);
        // The same lists on a wider side.
        let wider = BipartiteGraph::from_edges(3, 2, &[(0, 0), (1, 1), (0, 1), (1, 0)]);
        assert_ne!(a, wider);
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
