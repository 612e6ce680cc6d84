//! Evaluation harness: regenerates every figure of the paper's Section V.
//!
//! The paper's evaluation measures the **final vector clock size** produced
//! by the online mechanisms (Naive / Random / Popularity) and by the offline
//! optimal algorithm on randomly generated thread–object bipartite graphs in
//! two scenarios (*Uniform* and *Nonuniform*), while sweeping either the
//! graph density (at 50 threads + 50 objects) or the number of nodes (at
//! density 0.05):
//!
//! | Experiment | Sweep | Algorithms | Paper figure |
//! |---|---|---|---|
//! | [`experiments::fig4`] | density, 50+50 nodes | Naive, Random, Popularity | Fig. 4 |
//! | [`experiments::fig5`] | nodes/side, density 0.05 | Naive, Random, Popularity | Fig. 5 |
//! | [`experiments::fig6`] | density, 50+50 nodes | Offline optimal, Popularity, Naive | Fig. 6 |
//! | [`experiments::fig7`] | nodes/side, density 0.05 | Offline optimal, Popularity, Naive | Fig. 7 |
//! | [`experiments::adaptive_ablation`] | nodes/side, density 0.05 | Adaptive vs its ingredients | §V last paragraph |
//! | [`experiments::star_sweep`] | nodes/side, star workload | every registry mechanism | §IV lower bound |
//!
//! Mechanisms are selected **by name** through
//! [`MechanismRegistry`](mvc_online::MechanismRegistry) — the harness holds
//! no concrete mechanism types — and [`experiments::registry_sweep`] sweeps
//! any registry subset over any synthetic workload family (including the
//! adversarial [`WorkloadKind::Star`](mvc_trace::WorkloadKind) stream)
//! through the full unified timestamping pipeline.
//!
//! Every data point is averaged over a configurable number of seeds; graphs,
//! reveal orders and random mechanisms are all seeded, so a report is
//! reproducible bit-for-bit.  [`report`] renders results as aligned text
//! tables and CSV.
//!
//! Beyond the paper's clock-size figures, [`throughput`] measures recording
//! *speed* as ratios against a baseline timed in the same interleaved run —
//! plain ingest vs. a selectable [`SinkKind`] backend, the loopback-TCP
//! service and the instrumented pipeline — and renders them as JSON
//! (`mvc-eval throughput`) for CI to gate on.  Absolute performance numbers
//! come from the repo benchmark (`bash benchmark/run.sh`), not from here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod serve;
pub mod throughput;

pub use experiments::{
    adaptive_ablation, competitive_trajectory, fig4, fig5, fig6, fig7, registry_sweep, star_sweep,
    FigureData, Series,
};
pub use report::{render_csv, render_table};
pub use runner::{average_size, AlgorithmKind, DataPoint, SweepConfig};
pub use serve::{
    produce, render_produce_json, render_serve_json, serve_with_metrics, ProduceConfig,
    ProduceSummary, ServeSummary,
};
pub use throughput::{
    measure_throughput, render_throughput_json, SinkKind, ThroughputConfig, ThroughputReport,
    ThroughputSlot,
};
