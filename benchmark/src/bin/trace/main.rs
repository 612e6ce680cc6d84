//! `trace`: the per-layer run of one workload.
//!
//! It times calls into the layers' *public* functions from the benchmark's
//! own files — the wrapper impls in `wrappers.rs`, direct calls, and reads of
//! `mvc_obs::global().snapshot()` — keeps the spans in memory and writes them
//! to `<out>/trace-<workload>.jsonl` when the run ends.  Every per-layer
//! metric of `BENCHMARK.json` is printed for every workload; a layer the
//! workload does not exercise reads 0.  Definitions are in
//! `../../../README.md`.

use std::collections::HashMap;
use std::process::ExitCode;

use mvc_benchmark::args::{Args, Workload};
use mvc_benchmark::report::{emit, Outcome};
use mvc_benchmark::stats::Summary;

mod live;
mod net;
mod plan;
mod spans;
mod wrappers;

/// Every per-layer metric, in reporting order, with its unit.
const LAYERS: &[(&str, &str)] = &[
    ("runtime.produce_ns_per_event", "ns"),
    ("runtime.drain_ns_per_event", "ns"),
    ("runtime.merge_ns_per_event", "ns"),
    ("runtime.backlog_drain_ns_per_event", "ns"),
    ("runtime.minor_faults_per_event", "count"),
    ("runtime.sys_time_share", "ratio"),
    ("runtime.backlog_minor_faults_per_event", "count"),
    ("runtime.backlog_sys_time_share", "ratio"),
    ("runtime.windows", "count"),
    ("runtime.events_per_window", "events"),
    ("runtime.merge_parks_per_event", "ratio"),
    ("runtime.concurrent_events_per_s", "events/s"),
    ("core.stamp_ns_per_event", "ns"),
    ("core.sink_ns_per_event", "ns"),
    ("core.engine_ns_per_event", "ns"),
    ("core.solve_ms", "ms"),
    ("clock.bytes_per_stamp", "bytes"),
    ("clock.chunk_occupancy", "ratio"),
    ("clock.changed_components_per_stamp", "components"),
    ("shard.engine2_ns_per_event", "ns"),
    ("shard.vs_engine_ratio", "ratio"),
    ("net.client_step_ns_per_event", "ns"),
    ("net.client_send_ns_per_event", "ns"),
    ("net.client_recv_ns_per_event", "ns"),
    ("net.client_wait_ns_per_event", "ns"),
    ("net.server_recv_ns_per_event", "ns"),
    ("net.server_feed_ns_per_event", "ns"),
    ("net.server_pump_ns_per_event", "ns"),
    ("net.server_pump_self_ns_per_event", "ns"),
    ("net.server_send_ns_per_event", "ns"),
    ("net.server_wait_ns_per_event", "ns"),
    ("net.frame_encode_events_ns_per_event", "ns"),
    ("net.frame_decode_events_ns_per_event", "ns"),
    ("net.frame_encode_events128_ns_per_event", "ns"),
    ("net.frame_decode_events128_ns_per_event", "ns"),
    ("net.frame_encode_stamps_ns_per_event", "ns"),
    ("net.frame_decode_stamps_ns_per_event", "ns"),
    ("net.wire_bytes_up_per_event", "bytes"),
    ("net.wire_bytes_down_per_event", "bytes"),
    ("net.frames_up", "count"),
    ("net.frames_down", "count"),
    ("net.stamp_latency_p95_us", "us"),
    ("net.stamp_latency_p99_us", "us"),
    ("net.late_share_5ms", "ratio"),
    ("net.generator_max_late_us", "us"),
    ("net.residual_share", "ratio"),
    ("graph.generate_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.matching_ms", "ms"),
    ("graph.matching_phases", "count"),
    ("graph.cover_ms", "ms"),
    ("graph.incremental_ns_per_edge", "ns"),
    ("online.naive_ns_per_edge", "ns"),
    ("online.popularity_ns_per_edge", "ns"),
    ("online.adaptive_ns_per_edge", "ns"),
    ("online.naive_width", "components"),
    ("online.popularity_width", "components"),
    ("online.adaptive_width", "components"),
    ("online.tracker_self_ns_per_edge", "ns"),
    ("trace.generate_ns_per_event", "ns"),
    ("obs.traced_overhead_ratio", "ratio"),
];

/// What one traced workload measured.
#[derive(Default)]
pub struct Traced {
    pub outcome: Outcome,
    values: HashMap<&'static str, Summary>,
    pub spans: Vec<spans::Span>,
}

impl Traced {
    /// Records a layer metric as the median of `samples`.
    pub fn sampled(&mut self, name: &'static str, samples: &[f64]) {
        match Summary::of(samples) {
            Some(summary) => self.set(name, summary),
            None => self
                .outcome
                .fail(1, format!("layer metric {name} has no samples")),
        }
    }

    /// Records a layer metric as one exact (or already aggregated) value.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    fn set(&mut self, name: &'static str, summary: Summary) {
        assert!(
            LAYERS.iter().any(|(known, _)| *known == name),
            "{name} is not in the layer table"
        );
        self.values.insert(name, summary);
    }
}

fn main() -> ExitCode {
    let args = match Args::from_env() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("trace: {message}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        eprintln!("trace: `--trace 0` is the `bench` binary's run (run.sh picks it)");
        return ExitCode::from(2);
    }
    let traced = match args.workload {
        Workload::LiveNarrow | Workload::LiveWide => live::run(&args),
        Workload::NetEcho => net::run(&args),
        Workload::PlanSparse => plan::run(&args),
    };
    let mut traced = match traced {
        Ok(traced) => traced,
        Err(message) => {
            eprintln!("trace: {} failed: {message}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.out {
        let path = dir.join(format!("trace-{}.jsonl", args.workload.name()));
        if let Err(e) = spans::write_jsonl(&path, &traced.spans) {
            eprintln!("trace: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for &(name, unit) in LAYERS {
        let summary = traced
            .values
            .get(name)
            .copied()
            .unwrap_or(Summary::exact(0.0));
        traced.outcome.metrics.push(mvc_benchmark::report::Metric {
            name,
            unit,
            summary,
        });
    }
    emit(&args, traced.outcome)
}
