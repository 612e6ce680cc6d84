//! `plan-sparse`, layer by layer: every call `bench` makes, one span each,
//! plus the pieces `OfflineOptimizer::solve` and `CompetitiveTracker::run`
//! are made of, called directly.

use std::time::{Duration, Instant};

use mvc_benchmark::args::Args;
use mvc_benchmark::graphs::{certificate_faults, solve_timed, track, PlanInput, Sparse};
use mvc_benchmark::stats::median;
use mvc_graph::{
    hopcroft_karp_with_phases, minimum_vertex_cover, BipartiteGraph, IncrementalOptimum,
};
use mvc_online::{simulate_final_size, Adaptive, Naive, OnlineMechanism, Popularity};

use crate::spans;
use crate::Traced;

/// `simulate_final_size` under a span (`batch` = edges).
fn simulate<M: OnlineMechanism>(name: &'static str, mut mechanism: M, g: &Sparse) -> usize {
    let _span = spans::enter(name, g.stream.len() as u64);
    simulate_final_size(&mut mechanism, std::hint::black_box(&g.stream))
}

/// Part (a) of the untraced run on one graph, one span per call.  Returns
/// the optimum and the three final widths.
fn plan_and_simulate(g: &Sparse) -> (usize, [usize; 3]) {
    let optimum = {
        let _span = spans::enter("core.solve", g.stream.len() as u64);
        solve_timed(&g.graph).0.clock_size()
    };
    let widths = [
        simulate("online.naive", Naive::threads(), g),
        simulate("online.popularity", Popularity::new(), g),
        simulate("online.adaptive", Adaptive::with_paper_thresholds(), g),
    ];
    (optimum, widths)
}

/// The same calls with no span around them, timed as one.
fn plan_and_simulate_untraced(g: &Sparse) -> usize {
    let optimum = solve_timed(&g.graph).0.clock_size();
    let sizes = [
        simulate_final_size(&mut Naive::threads(), std::hint::black_box(&g.stream)),
        simulate_final_size(&mut Popularity::new(), std::hint::black_box(&g.stream)),
        simulate_final_size(
            &mut Adaptive::with_paper_thresholds(),
            std::hint::black_box(&g.stream),
        ),
    ];
    std::hint::black_box(sizes);
    optimum
}

/// What `OfflineOptimizer::solve` is made of, on one graph.  Returns the
/// number of Hopcroft–Karp phases.
fn solve_in_pieces(g: &Sparse) -> usize {
    let edges = g.stream.len() as u64;
    let graph = {
        let _span = spans::enter("graph.build", edges);
        let mut graph = BipartiteGraph::new(0, 0);
        for &(l, r) in &g.stream {
            graph.add_edge_growing(l, r);
        }
        graph
    };
    let (matching, phases) = {
        let _span = spans::enter("graph.matching", edges);
        hopcroft_karp_with_phases(std::hint::black_box(&graph))
    };
    let _span = spans::enter("graph.cover", edges);
    std::hint::black_box(minimum_vertex_cover(&graph, &matching));
    phases
}

pub fn run(args: &Args) -> Result<Traced, String> {
    let mut traced = Traced::default();

    let input = PlanInput::build(args.seed);
    let generate: Duration = input.graphs().map(|g| g.generate).sum();
    traced.exact("graph.generate_ms", generate.as_secs_f64() * 1e3);
    let edges = input.edges();
    let tracked = input.tracked();
    let tracked_edges = tracked.stream.len() as u64;
    traced.outcome.attempted += edges;
    for g in input.graphs() {
        let (solution, _) = solve_timed(&g.graph);
        for fault in certificate_faults(&g.graph, &solution, args.corrupt) {
            traced.outcome.fail(g.stream.len() as u64, fault);
        }
    }

    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes = 0u64;
    let mut untraced_events_per_s = Vec::new();
    let mut traced_events_per_s = Vec::new();
    let (mut optimum, mut widths, mut phases) = (0, [0usize; 3], 0);
    while passes == 0 || Instant::now() < until {
        // Part (a) untraced and traced, in alternating order, so that
        // neither always runs on the caches the other warmed.
        let traced_first = passes % 2 == 1;
        for traced_turn in [traced_first, !traced_first] {
            let started = Instant::now();
            if traced_turn {
                (optimum, widths) = (0, [0; 3]);
                for g in input.graphs() {
                    let (graph_optimum, graph_widths) = plan_and_simulate(g);
                    optimum += graph_optimum;
                    for (sum, width) in widths.iter_mut().zip(graph_widths) {
                        *sum += width;
                    }
                }
                traced_events_per_s.push(edges as f64 / started.elapsed().as_secs_f64());
            } else {
                for g in input.graphs() {
                    std::hint::black_box(plan_and_simulate_untraced(g));
                }
                untraced_events_per_s.push(edges as f64 / started.elapsed().as_secs_f64());
            }
        }

        phases = input.graphs().map(solve_in_pieces).sum();

        // The tracker, and its two halves on their own: the incremental
        // optimum, and the popularity decisions (the tracker's self time,
        // measured directly — the difference of two 25 us/edge figures
        // cannot resolve 0.2 us/edge).
        let tracked_optimum = {
            let _span = spans::enter("online.tracker", tracked_edges);
            track(&tracked.stream).1
        };
        let incremental_optimum = {
            let _span = spans::enter("graph.incremental", tracked_edges);
            let mut incremental = IncrementalOptimum::new();
            for &(l, r) in &tracked.stream {
                incremental.insert_edge(l, r);
            }
            incremental.cover_size()
        };
        simulate("online.tracker_self", Popularity::new(), tracked);
        traced.outcome.attempted += edges + tracked_edges;
        if tracked_optimum != incremental_optimum {
            traced.outcome.fail(
                tracked_edges,
                format!("tracker optimum {tracked_optimum} != incremental optimum {incremental_optimum}"),
            );
        }
        passes += 1;
    }

    traced.spans = spans::take();
    let totals = spans::totals(&traced.spans);
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ms_per_pass = |name: &str| of(name).total_ns as f64 / 1e6 / passes as f64;
    let ns_per_edge = |name: &str| of(name).total_ns as f64 / of(name).batch.max(1) as f64;
    traced.exact("core.solve_ms", ms_per_pass("core.solve"));
    traced.exact("graph.build_ms", ms_per_pass("graph.build"));
    traced.exact("graph.matching_ms", ms_per_pass("graph.matching"));
    traced.exact("graph.matching_phases", phases as f64);
    traced.exact("graph.cover_ms", ms_per_pass("graph.cover"));
    traced.exact(
        "graph.incremental_ns_per_edge",
        ns_per_edge("graph.incremental"),
    );
    traced.exact("online.naive_ns_per_edge", ns_per_edge("online.naive"));
    traced.exact(
        "online.popularity_ns_per_edge",
        ns_per_edge("online.popularity"),
    );
    traced.exact(
        "online.adaptive_ns_per_edge",
        ns_per_edge("online.adaptive"),
    );
    traced.exact("online.naive_width", widths[0] as f64);
    traced.exact("online.popularity_width", widths[1] as f64);
    traced.exact("online.adaptive_width", widths[2] as f64);
    traced.exact(
        "online.tracker_self_ns_per_edge",
        ns_per_edge("online.tracker_self"),
    );
    traced.exact(
        "clock.bytes_per_stamp",
        8.0 * optimum as f64 / input.graphs().count() as f64,
    );
    traced.exact(
        "obs.traced_overhead_ratio",
        median(&traced_events_per_s) / median(&untraced_events_per_s),
    );
    Ok(traced)
}
