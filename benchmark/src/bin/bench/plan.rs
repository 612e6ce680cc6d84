//! `plan-sparse`, end to end: the paper's Section V job at scale — offline
//! optimum, online mechanisms and the competitive tracker on sparse graphs.
//! No event is stamped.

use std::time::{Duration, Instant};

use mvc_benchmark::args::Args;
use mvc_benchmark::graphs::{certificate_faults, solve_timed, track, PlanInput, Sparse};
use mvc_benchmark::report::Outcome;
use mvc_online::{simulate_final_size, Adaptive, Naive, Popularity};

/// Further `solve` calls per graph and pass, behind `plan_ms`.
const SOLVES_PER_PASS: usize = 3;

/// What part (a) found on all graphs together.
#[derive(Default, PartialEq, Eq)]
struct Widths {
    optimum: usize,
    popularity: usize,
}

/// Part (a) on one graph: one solve plus the three mechanisms over the
/// reveal stream.  Adds the graph's widths to `widths` and returns what is
/// wrong with the results, if anything.
fn plan_and_simulate(args: &Args, g: &Sparse, widths: &mut Widths) -> Vec<String> {
    let (solution, _) = solve_timed(&g.graph);
    let naive = simulate_final_size(&mut Naive::threads(), &g.stream);
    let popularity = simulate_final_size(&mut Popularity::new(), &g.stream);
    let adaptive = simulate_final_size(&mut Adaptive::with_paper_thresholds(), &g.stream);
    let mut faults = certificate_faults(&g.graph, &solution, args.corrupt);
    let optimum = solution.clock_size();
    for (name, size) in [
        ("naive-threads", naive),
        ("popularity", popularity),
        ("adaptive", adaptive),
    ] {
        if size < optimum {
            faults.push(format!(
                "{name} ended at {size} components, below the optimum {optimum}"
            ));
        }
    }
    widths.optimum += optimum;
    widths.popularity += popularity;
    faults
}

/// The tracker on its graph: its time, and a fault if its final optimum is
/// not the batch optimum.
fn tracked(input: &PlanInput, batch_optimum: usize) -> (Duration, Option<String>) {
    let (elapsed, optimum) = track(&input.tracked().stream);
    let fault = (optimum != batch_optimum)
        .then(|| format!("tracker optimum {optimum} != batch optimum {batch_optimum}"));
    (elapsed, fault)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();

    // Set-up, several times over: generation and one verified pass over
    // every graph (certificates, tracker optimum == batch optimum).
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..args.setup_repeats() {
        drop(kept.take());
        let started = Instant::now();
        let input = PlanInput::build(args.seed);
        let mut widths = Widths::default();
        let mut faults = Vec::new();
        for g in input.graphs() {
            faults.extend(plan_and_simulate(args, g, &mut widths));
        }
        let tracked_optimum = solve_timed(&input.tracked().graph).0.clock_size();
        faults.extend(tracked(&input, tracked_optimum).1);
        setups.push(started.elapsed().as_secs_f64());
        kept = Some((input, faults, widths, tracked_optimum));
    }
    let (input, faults, widths, tracked_optimum) = kept.expect("set-up ran at least once");
    let edges = input.edges();
    let tracked_edges = input.tracked().stream.len() as u64;
    outcome.attempted += edges + tracked_edges;
    for fault in faults {
        // A failed certificate or parity check fails everything it vouches for.
        outcome.fail(edges + tracked_edges, fault);
    }

    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut events_per_s, mut plan_ms, mut tracked_edges_per_s) =
        (Vec::new(), Vec::new(), Vec::new());
    while events_per_s.is_empty() || Instant::now() < until {
        // (a) plan + mechanisms on every graph.
        let started = Instant::now();
        let mut pass_widths = Widths::default();
        let mut faults = Vec::new();
        for g in input.graphs() {
            faults.extend(plan_and_simulate(args, g, &mut pass_widths));
        }
        events_per_s.push(edges as f64 / started.elapsed().as_secs_f64());
        outcome.attempted += edges;
        if pass_widths != widths {
            faults.push("widths changed between passes".to_owned());
        }
        for fault in faults {
            outcome.fail(edges, fault);
        }
        // (b) further solves.
        let solve: Duration = input
            .graphs()
            .flat_map(|g| (0..SOLVES_PER_PASS).map(|_| solve_timed(&g.graph).1))
            .sum();
        plan_ms.push(solve.as_secs_f64() * 1e3 / SOLVES_PER_PASS as f64);
        // (c) the tracker.
        let (elapsed, fault) = tracked(&input, tracked_optimum);
        tracked_edges_per_s.push(tracked_edges as f64 / elapsed.as_secs_f64());
        outcome.attempted += tracked_edges;
        if let Some(fault) = fault {
            outcome.fail(tracked_edges, fault);
        }
    }

    outcome.sampled("events_per_s", "events/s", &events_per_s);
    outcome.exact("clock_width", "components", widths.optimum as f64);
    outcome.exact(
        "online_width_ratio",
        "ratio",
        widths.popularity as f64 / widths.optimum as f64,
    );
    outcome.sampled("plan_ms", "ms", &plan_ms);
    outcome.sampled("tracked_edges_per_s", "edges/s", &tracked_edges_per_s);
    outcome.memory_and_setup(&setups);
    Ok(outcome)
}
