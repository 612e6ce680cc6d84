//! Low-level experiment runner: one (algorithm, graph configuration) pair at
//! a time, averaged over seeds.
//!
//! Online mechanisms are not enumerated as concrete types anywhere in the
//! harness: [`AlgorithmKind::Online`] carries a mechanism *name* that is
//! resolved through the [`MechanismRegistry`] at run time, so adding a
//! mechanism to the registry makes it sweepable here, in the `mvc_eval`
//! binary and in the benchmarks without touching any of them.

use mvc_core::OfflineOptimizer;
use mvc_graph::{GraphScenario, RandomGraphBuilder};
use mvc_online::{simulate_final_size, MechanismRegistry};

/// Which clock-size algorithm a data point measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// The paper's Naive baseline with one component per thread of the
    /// *system*, allocated up front ("a vector clock with size equal to the
    /// number of threads … for all computations") — its size does not depend
    /// on the revealed graph.  (The registry's lazily-growing
    /// `naive-threads` only materialises components for *active* threads;
    /// that refinement would only make the baseline look better than the
    /// paper's.)
    NaiveThreads,
    /// The object-side upfront baseline: one component per object.
    NaiveObjects,
    /// Offline optimal: minimum vertex cover via Algorithm 1.
    OfflineOptimal,
    /// Any [`MechanismRegistry`] mechanism, replayed over the reveal stream
    /// and resolved by name when the point is measured.
    Online(String),
}

impl AlgorithmKind {
    /// An online algorithm driven by the named registry mechanism.
    pub fn online(mechanism: impl Into<String>) -> Self {
        AlgorithmKind::Online(mechanism.into())
    }

    /// Stable display name (used in table headers and CSV columns).
    pub fn name(&self) -> &str {
        match self {
            AlgorithmKind::NaiveThreads => "naive",
            AlgorithmKind::NaiveObjects => "naive-objects",
            AlgorithmKind::OfflineOptimal => "offline-optimal",
            AlgorithmKind::Online(mechanism) => mechanism,
        }
    }
}

/// Configuration of a single measured point: a graph family plus an
/// algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Threads (left side) per graph.
    pub threads: usize,
    /// Objects (right side) per graph.
    pub objects: usize,
    /// Target edge density.
    pub density: f64,
    /// Uniform or nonuniform generation.
    pub scenario: GraphScenario,
    /// Number of independent seeds to average over.
    pub trials: usize,
}

impl SweepConfig {
    /// The paper's first setting: 50 threads, 50 objects.
    pub fn fifty_by_fifty(density: f64, scenario: GraphScenario, trials: usize) -> Self {
        Self {
            threads: 50,
            objects: 50,
            density,
            scenario,
            trials,
        }
    }
}

/// One averaged measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataPoint {
    /// The value swept on the x axis (density or node count, set by the
    /// figure driver).
    pub x: f64,
    /// Mean final clock size over the trials.
    pub mean_size: f64,
    /// Minimum observed size.
    pub min_size: usize,
    /// Maximum observed size.
    pub max_size: usize,
}

/// Derives the mechanism seed from the workload/graph seed so that trials
/// are independent but reproducible.
pub(crate) fn mechanism_seed(graph_seed: u64) -> u64 {
    graph_seed.wrapping_mul(0x9E37_79B9) ^ 0xA5A5
}

/// Measures the final clock size of `algorithm` on one random graph drawn
/// with `seed`.
fn single_run(config: &SweepConfig, algorithm: &AlgorithmKind, seed: u64) -> usize {
    let builder = RandomGraphBuilder::new(config.threads, config.objects)
        .density(config.density)
        .scenario(config.scenario)
        .seed(seed);
    match algorithm {
        AlgorithmKind::OfflineOptimal => {
            // Borrow path: no clone / ownership transfer of the graph just
            // to read the optimal clock size.
            let graph = builder.build();
            OfflineOptimizer::new().solve(&graph).clock_size()
        }
        AlgorithmKind::NaiveThreads => config.threads,
        AlgorithmKind::NaiveObjects => config.objects,
        AlgorithmKind::Online(mechanism) => {
            let (_, stream) = builder.build_edge_stream();
            let mut mechanism = MechanismRegistry::new()
                .seed(mechanism_seed(seed))
                .from_name(mechanism)
                .unwrap_or_else(|e| panic!("{e}"));
            simulate_final_size(mechanism.as_mut(), &stream)
        }
    }
}

/// Averages the final clock size of `algorithm` over `config.trials` random
/// graphs (seeds `0..trials`, so different algorithms see the same graphs).
///
/// # Panics
///
/// Panics when an [`AlgorithmKind::Online`] name is not in the
/// [`MechanismRegistry`]; callers exposing user-supplied names should
/// validate them with [`MechanismRegistry::from_name`] first (the `mvc_eval`
/// binary does).
pub fn average_size(config: &SweepConfig, algorithm: &AlgorithmKind, x: f64) -> DataPoint {
    assert!(config.trials > 0, "at least one trial is required");
    let mut total = 0usize;
    let mut min_size = usize::MAX;
    let mut max_size = 0usize;
    for trial in 0..config.trials {
        let size = single_run(config, algorithm, trial as u64);
        total += size;
        min_size = min_size.min(size);
        max_size = max_size.max(size);
    }
    DataPoint {
        x,
        mean_size: total as f64 / config.trials as f64,
        min_size,
        max_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(density: f64, trials: usize) -> SweepConfig {
        SweepConfig::fifty_by_fifty(density, GraphScenario::Uniform, trials)
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(AlgorithmKind::NaiveThreads.name(), "naive");
        assert_eq!(AlgorithmKind::OfflineOptimal.name(), "offline-optimal");
        assert_eq!(AlgorithmKind::online("adaptive").name(), "adaptive");
        assert_eq!(AlgorithmKind::online("popularity").name(), "popularity");
    }

    #[test]
    fn single_run_is_deterministic() {
        let c = cfg(0.05, 1);
        for alg in [
            AlgorithmKind::NaiveThreads,
            AlgorithmKind::online("random"),
            AlgorithmKind::online("popularity"),
            AlgorithmKind::online("adaptive"),
            AlgorithmKind::OfflineOptimal,
        ] {
            assert_eq!(single_run(&c, &alg, 3), single_run(&c, &alg, 3), "{alg:?}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown mechanism")]
    fn unknown_online_name_panics_with_candidates() {
        let c = cfg(0.05, 1);
        let _ = single_run(&c, &AlgorithmKind::online("gradient-descent"), 0);
    }

    #[test]
    fn offline_never_exceeds_online() {
        let c = cfg(0.05, 1);
        for seed in 0..5 {
            let offline = single_run(&c, &AlgorithmKind::OfflineOptimal, seed);
            for alg in [
                AlgorithmKind::NaiveThreads,
                AlgorithmKind::NaiveObjects,
                AlgorithmKind::online("random"),
                AlgorithmKind::online("popularity"),
                AlgorithmKind::online("adaptive"),
            ] {
                assert!(
                    single_run(&c, &alg, seed) >= offline,
                    "{alg:?} beat the offline optimum at seed {seed}"
                );
            }
        }
    }

    #[test]
    fn naive_threads_is_bounded_by_thread_count() {
        let c = cfg(0.3, 1);
        for seed in 0..3 {
            assert!(single_run(&c, &AlgorithmKind::NaiveThreads, seed) <= 50);
        }
    }

    #[test]
    fn registry_naive_never_exceeds_the_upfront_baseline() {
        // The registry's lazily-growing naive-threads only pays for active
        // threads, so it can only undercut the paper's upfront baseline.
        let c = cfg(0.02, 1);
        for seed in 0..3 {
            let lazy = single_run(&c, &AlgorithmKind::online("naive-threads"), seed);
            let upfront = single_run(&c, &AlgorithmKind::NaiveThreads, seed);
            assert!(lazy <= upfront, "lazy {lazy} vs upfront {upfront}");
        }
    }

    #[test]
    fn average_aggregates_min_mean_max() {
        let c = cfg(0.05, 5);
        let p = average_size(&c, &AlgorithmKind::online("popularity"), 0.05);
        assert_eq!(p.x, 0.05);
        assert!(p.min_size as f64 <= p.mean_size);
        assert!(p.mean_size <= p.max_size as f64);
        assert!(p.max_size <= 100);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let c = cfg(0.05, 0);
        let _ = average_size(&c, &AlgorithmKind::online("popularity"), 0.0);
    }

    #[test]
    fn popularity_beats_naive_on_sparse_nonuniform_graphs() {
        // The paper's headline online result: at low density, Popularity and
        // Random produce significantly smaller clocks than Naive, especially
        // in the Nonuniform scenario.
        let c = SweepConfig::fifty_by_fifty(0.03, GraphScenario::default_nonuniform(), 10);
        let pop = average_size(&c, &AlgorithmKind::online("popularity"), 0.03);
        let naive = average_size(&c, &AlgorithmKind::NaiveThreads, 0.03);
        assert!(
            pop.mean_size < naive.mean_size,
            "popularity {} should beat naive {} on sparse nonuniform graphs",
            pop.mean_size,
            naive.mean_size
        );
    }
}
