//! End-to-end smoke test for incremental optimum tracking at evaluation
//! scale: a full 200×200, density-0.1 reveal stream (~4000 distinct edges)
//! driven through [`CompetitiveTracker`] — the workload the tracker could
//! not handle before the incremental rewrite without `O(E · E√V)` replans.
//!
//! Runs under the tier-1 suite (`cargo test`) in debug; what a tracked
//! reveal costs is stated in `mvc_graph::incremental`'s module docs.

use mvc_core::OfflineOptimizer;
use mvc_graph::{GraphScenario, RandomGraphBuilder};
use mvc_online::{CompetitiveTracker, Popularity};

#[test]
fn tracked_200x200_density_01_stream_end_to_end() {
    let (graph, stream) = RandomGraphBuilder::new(200, 200)
        .density(0.1)
        .scenario(GraphScenario::Uniform)
        .seed(42)
        .build_edge_stream();
    assert!(
        stream.len() > 3_000,
        "expected ~4000 edges at density 0.1, got {}",
        stream.len()
    );

    let report = CompetitiveTracker::new(Popularity::new()).run(&stream);
    assert_eq!(
        report.trajectory.len(),
        stream.len(),
        "one trajectory point per distinct revealed edge"
    );

    // The maintained optimum must be monotone (edges only ever arrive) and
    // dominated by the online size at every prefix.
    let mut previous = 0;
    for point in &report.trajectory {
        assert!(point.offline_optimum >= previous, "optimum shrank");
        assert!(point.online_size >= point.offline_optimum);
        previous = point.offline_optimum;
    }

    // The final maintained optimum agrees with one from-scratch solve of the
    // complete graph (single Hopcroft–Karp run, not per-edge).
    let final_point = report.final_point().expect("non-empty stream");
    assert_eq!(
        final_point.offline_optimum,
        OfflineOptimizer::new().solve(&graph).clock_size(),
        "incremental tracking diverged from the batch optimum"
    );
    assert!(report.final_ratio() >= 1.0);
    assert!(report.worst_ratio().is_finite());
}
