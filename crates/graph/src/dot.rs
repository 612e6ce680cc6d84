//! Graphviz DOT export of thread–object bipartite graphs.
//!
//! Useful for debugging and for regenerating diagrams in the style of the
//! paper's Figure 2 (the bipartite graph with its minimum vertex cover
//! highlighted).

use std::fmt::Write as _;

use crate::bipartite::BipartiteGraph;
use crate::cover::VertexCover;

/// Renders the graph as a Graphviz DOT document.
///
/// Threads are drawn as boxes on the left rank, objects as ellipses on the
/// right rank. If `cover` is provided, vertices in the cover are filled —
/// mirroring the paper's Figure 2 where "filled vertices represent the
/// minimum vertex cover".
pub fn to_dot(graph: &BipartiteGraph, cover: Option<&VertexCover>) -> String {
    let mut out = String::new();
    // Writing to a String never fails, so the unwraps below are safe.
    writeln!(out, "graph thread_object {{").unwrap();
    writeln!(out, "  rankdir=LR;").unwrap();
    writeln!(out, "  subgraph cluster_threads {{ label=\"threads\";").unwrap();
    for l in 0..graph.n_left() {
        let filled = cover.is_some_and(|c| c.contains_left(l));
        let style = if filled {
            ",style=filled,fillcolor=gray"
        } else {
            ""
        };
        writeln!(out, "    t{l} [label=\"T{l}\",shape=box{style}];").unwrap();
    }
    writeln!(out, "  }}").unwrap();
    writeln!(out, "  subgraph cluster_objects {{ label=\"objects\";").unwrap();
    for r in 0..graph.n_right() {
        let filled = cover.is_some_and(|c| c.contains_right(r));
        let style = if filled {
            ",style=filled,fillcolor=gray"
        } else {
            ""
        };
        writeln!(out, "    o{r} [label=\"O{r}\",shape=ellipse{style}];").unwrap();
    }
    writeln!(out, "  }}").unwrap();
    for (l, r) in graph.edges() {
        writeln!(out, "  t{l} -- o{r};").unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::minimum_vertex_cover_of;

    #[test]
    fn dot_contains_all_vertices_and_edges() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let dot = to_dot(&g, None);
        assert!(dot.contains("t0 [label=\"T0\""));
        assert!(dot.contains("o1 [label=\"O1\""));
        assert!(dot.contains("t0 -- o0;"));
        assert!(dot.contains("t1 -- o1;"));
        assert!(dot.starts_with("graph thread_object {"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn cover_members_are_filled() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 0)]);
        let (_, cover) = minimum_vertex_cover_of(&g);
        let dot = to_dot(&g, Some(&cover));
        // The unique minimum cover is {O0}; it must be drawn filled.
        assert!(dot.contains("o0 [label=\"O0\",shape=ellipse,style=filled"));
        assert!(!dot.contains("t0 [label=\"T0\",shape=box,style=filled"));
    }
}
