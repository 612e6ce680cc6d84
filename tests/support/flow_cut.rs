//! Test-only minimum vertex cover by max-flow / min-cut — an oracle for the
//! paper's core object that shares no code with `mvc_graph`'s matching and
//! Kőnig construction.
//!
//! The network: `source → thread` and `object → sink` with capacity 1, every
//! thread–object edge with unbounded capacity.  A minimum cut can then only
//! sever unit edges, and the threads and objects whose unit edge it severs
//! form a minimum vertex cover (an uncovered edge would leave a
//! `source → t → o → sink` path uncut).  The cut is read from the residual
//! network: with `S` the set reachable from the source, it severs
//! `source → t` for `t ∉ S` and `o → sink` for `o ∈ S`.
//!
//! `S` is the same for every maximum flow (it is the source side of the
//! minimum cut closest to the source), and restricted to the bipartite graph
//! it is exactly Algorithm 1's `Z`.  So this cover must equal the Kőnig cover
//! of *any* maximum matching member for member, not just in size.

use std::collections::VecDeque;

use mvc_graph::{BipartiteGraph, VertexCover};

const SOURCE: usize = 0;
const SINK: usize = 1;
const UNBOUNDED: u32 = u32::MAX;

/// A flow network as an arc list; arc `a ^ 1` is the residual twin of `a`.
struct Network {
    head: Vec<usize>,
    capacity: Vec<u32>,
    arcs_of: Vec<Vec<usize>>,
}

impl Network {
    fn new(nodes: usize) -> Self {
        Network {
            head: Vec::new(),
            capacity: Vec::new(),
            arcs_of: vec![Vec::new(); nodes],
        }
    }

    fn add_arc(&mut self, from: usize, to: usize, capacity: u32) {
        for (tail, head, capacity) in [(from, to, capacity), (to, from, 0)] {
            self.arcs_of[tail].push(self.head.len());
            self.head.push(head);
            self.capacity.push(capacity);
        }
    }

    /// Breadth-first search over arcs with residual capacity.  Returns, per
    /// node, the arc it was reached over (`None` if unreached; the source
    /// carries a placeholder).
    fn residual_tree(&self) -> Vec<Option<usize>> {
        let mut via = vec![None; self.arcs_of.len()];
        via[SOURCE] = Some(usize::MAX);
        let mut queue = VecDeque::from([SOURCE]);
        while let Some(node) = queue.pop_front() {
            for &arc in &self.arcs_of[node] {
                let next = self.head[arc];
                if self.capacity[arc] > 0 && via[next].is_none() {
                    via[next] = Some(arc);
                    queue.push_back(next);
                }
            }
        }
        via
    }

    /// Edmonds–Karp: saturates shortest augmenting paths until the sink is
    /// unreachable, and returns the final residual search tree.  Every path
    /// crosses two unit arcs, so each carries exactly one unit.
    fn max_flow(&mut self) -> Vec<Option<usize>> {
        loop {
            let via = self.residual_tree();
            if via[SINK].is_none() {
                return via;
            }
            let mut node = SINK;
            while node != SOURCE {
                let arc = via[node].expect("on the path the search just found");
                self.capacity[arc] -= 1;
                self.capacity[arc ^ 1] += 1;
                node = self.head[arc ^ 1];
            }
        }
    }
}

/// The minimum vertex cover of `graph`, from the minimum cut of its flow
/// network.
pub fn flow_cut_cover(graph: &BipartiteGraph) -> VertexCover {
    let thread = |t: usize| 2 + t;
    let object = |o: usize| 2 + graph.n_left() + o;
    let mut network = Network::new(2 + graph.n_left() + graph.n_right());
    // Isolated vertices get no unit arc: nothing can cut them into the cover.
    for t in graph.active_left() {
        network.add_arc(SOURCE, thread(t), 1);
    }
    for o in graph.active_right() {
        network.add_arc(object(o), SINK, 1);
    }
    for (t, o) in graph.edges() {
        network.add_arc(thread(t), object(o), UNBOUNDED);
    }
    let reached = network.max_flow();
    VertexCover::from_sets(
        graph
            .active_left()
            .filter(|&t| reached[thread(t)].is_none()),
        graph
            .active_right()
            .filter(|&o| reached[object(o)].is_some()),
    )
}
