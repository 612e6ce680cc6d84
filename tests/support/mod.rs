//! Shared proptest strategies for the workspace-level test suites.
//!
//! Lives in a subdirectory (not compiled as its own integration-test crate)
//! and is pulled in with `mod support;` by the suites that use it, so every
//! suite draws its computations and graphs from the same distributions.
//! [`flow_cut`] is the independent minimum-vertex-cover oracle (conformance
//! oracle 11); [`schedule`] is the seeded explorer of the networked service
//! (conformance oracle 9 and `net_service.rs`).

// Each integration-test crate uses a subset of these strategies.
#![allow(dead_code)]

pub mod flow_cut;
pub mod schedule;

use std::ops::Range;
use std::sync::{Mutex, MutexGuard, OnceLock};

use mvc_graph::{BipartiteGraph, GraphScenario, RandomGraphBuilder};
use mvc_trace::generator::random_graph_computation;
use mvc_trace::{Computation, WorkloadBuilder, WorkloadKind};
use proptest::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

/// Serializes the tests of one suite that touch the process-global metrics
/// registry, or read gauges every server in the process moves.
pub fn global_registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The workload families the paper's model covers, cycled through by
/// [`ComputationStrategy`].
pub const WORKLOAD_KINDS: [WorkloadKind; 6] = [
    WorkloadKind::Uniform,
    WorkloadKind::Nonuniform {
        hot_fraction: 0.25,
        hot_boost: 5.0,
    },
    WorkloadKind::ProducerConsumer { queues: 2 },
    WorkloadKind::LockStriped {
        cross_stripe_prob: 0.2,
    },
    WorkloadKind::Matching {
        rotation_period: 16,
    },
    WorkloadKind::PhaseShift {
        period: 24,
        shift: 2,
    },
];

/// Strategy yielding random thread–object computations across all workload
/// families.
#[derive(Debug, Clone)]
pub struct ComputationStrategy {
    /// Range of thread counts.
    pub threads: Range<usize>,
    /// Range of object counts.
    pub objects: Range<usize>,
    /// Range of operation counts.
    pub ops: Range<usize>,
}

impl ComputationStrategy {
    /// A small computation: enough structure for interesting covers while
    /// keeping the `O(n^2)` causality oracle cheap.
    pub fn small() -> Self {
        ComputationStrategy {
            threads: 1..10,
            objects: 1..10,
            ops: 0..150,
        }
    }
}

impl Strategy for ComputationStrategy {
    type Value = Computation;

    fn generate(&self, rng: &mut StdRng) -> Computation {
        let threads = rng.gen_range(self.threads.clone());
        let objects = rng.gen_range(self.objects.clone());
        let ops = rng.gen_range(self.ops.clone());
        let kind = WORKLOAD_KINDS[rng.gen_range(0..WORKLOAD_KINDS.len())];
        let seed = rng.gen_range(0u64..=u64::MAX);
        WorkloadBuilder::new(threads, objects)
            .operations(ops)
            .kind(kind)
            .seed(seed)
            .build()
    }
}

/// Strategy yielding a random bipartite graph together with a computation
/// whose thread–object graph is exactly that graph (one event per edge, in a
/// random reveal order).
#[derive(Debug, Clone)]
pub struct GraphComputationStrategy {
    /// Range of node counts per side.
    pub nodes: Range<usize>,
    /// Range of edge densities.
    pub density: Range<f64>,
}

impl GraphComputationStrategy {
    /// Graphs small enough for the brute-force cover cross-check.
    pub fn small() -> Self {
        GraphComputationStrategy {
            nodes: 1..8,
            density: 0.0..0.7,
        }
    }

    /// Larger graphs for algorithm-vs-algorithm cross-checks.
    pub fn medium() -> Self {
        GraphComputationStrategy {
            nodes: 1..25,
            density: 0.0..0.5,
        }
    }
}

impl Strategy for GraphComputationStrategy {
    type Value = (BipartiteGraph, Computation);

    fn generate(&self, rng: &mut StdRng) -> (BipartiteGraph, Computation) {
        let nodes = rng.gen_range(self.nodes.clone());
        let density = rng.gen_range(self.density.clone());
        let scenario = if rng.gen_bool(0.5) {
            GraphScenario::Uniform
        } else {
            GraphScenario::default_nonuniform()
        };
        let seed = rng.gen_range(0u64..=u64::MAX);
        random_graph_computation(nodes, nodes, density, scenario, seed)
    }
}

/// Strategy yielding an online edge-reveal stream with its final graph.
#[derive(Debug, Clone)]
pub struct EdgeStreamStrategy {
    /// Range of node counts per side.
    pub nodes: Range<usize>,
    /// Range of edge densities.
    pub density: Range<f64>,
}

impl Strategy for EdgeStreamStrategy {
    type Value = (BipartiteGraph, Vec<(usize, usize)>);

    fn generate(&self, rng: &mut StdRng) -> (BipartiteGraph, Vec<(usize, usize)>) {
        let nodes = rng.gen_range(self.nodes.clone());
        let density = rng.gen_range(self.density.clone());
        let seed = rng.gen_range(0u64..=u64::MAX);
        RandomGraphBuilder::new(nodes, nodes)
            .density(density)
            .scenario(GraphScenario::default_nonuniform())
            .seed(seed)
            .build_edge_stream()
    }
}

/// Strategy yielding triples of equal-width vector timestamps, for testing
/// the comparison algebra of `mvc_clock::compare` on raw vectors (not only
/// on vectors a clock happens to produce).
#[derive(Debug, Clone)]
pub struct TimestampTripleStrategy {
    /// Range of vector widths.
    pub width: Range<usize>,
    /// Exclusive upper bound on component values (small values maximise the
    /// chance of equal/ordered pairs).
    pub magnitude: u64,
}

impl TimestampTripleStrategy {
    /// Small, collision-rich timestamps.
    pub fn small() -> Self {
        TimestampTripleStrategy {
            width: 1..8,
            magnitude: 4,
        }
    }
}

impl Strategy for TimestampTripleStrategy {
    type Value = (
        mvc_clock::VectorTimestamp,
        mvc_clock::VectorTimestamp,
        mvc_clock::VectorTimestamp,
    );

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let width = rng.gen_range(self.width.clone());
        let draw = |rng: &mut StdRng| {
            mvc_clock::VectorTimestamp::from_components(
                (0..width)
                    .map(|_| rng.gen_range(0..self.magnitude))
                    .collect(),
            )
        };
        (draw(rng), draw(rng), draw(rng))
    }
}
