//! Engine throughput measurement: sequential vs. sharded events/second.
//!
//! The paper's figures measure clock *size*; this module measures recording
//! *speed*, split into two sections so the ingest path scales can be read
//! separately from raw stamping:
//!
//! * **`engines`** — how many events per second a timestamper stamps when
//!   driven through the unified batch path ([`mvc_core::replay`]): no
//!   ingest, no sink, pure stamping.  Comparable across PRs since PR 4.
//! * **`ingest`** — the same engines driven through the full runtime
//!   pipeline: events staged into per-thread segmented buffers, then timed
//!   through merge → [`observe_batch`](mvc_core::Timestamper::observe_batch)
//!   → the selected [`EventSink`] backend.  The sink is selectable
//!   (`--sink mem|codec|stats|conflict|reach|competitive|tee`), so egress
//!   cost — including the streaming analysis sinks' monitoring overhead —
//!   is visible too.  When a non-default sink is selected, the same
//!   interleaved timing also measures a sequential + mem-sink baseline, and
//!   the report carries the selected sink's throughput relative to it
//!   (`sink_relative_throughput`, the number CI gates on).
//!
//! The `mvc-eval throughput` command emits the result as JSON so successive
//! PRs can compare bench trajectories mechanically (`jq`-able, no table
//! parsing).
//!
//! Every engine sees the identical precomputed workload and the identical
//! offline-optimal component map, so the numbers isolate engine overhead:
//! routing, slice arithmetic, merge, and queue traffic.

use std::any::Any;
use std::time::Instant;

use mvc_core::sink::{CodecSink, EventSink, MemoryRecorder, StatsSink, TeeSink};
use mvc_core::{replay, OfflineOptimizer, TimestampingEngine};
use mvc_runtime::{CompetitiveSink, ConflictSink, ReachabilityIndexSink, TraceSession};
use mvc_shard::ShardedEngine;
use mvc_trace::{Computation, WorkloadBuilder, WorkloadKind};

/// The egress backend an ingest measurement drives
/// (`--sink mem|codec|stats|conflict|reach|competitive|tee`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinkKind {
    /// In-memory recorder — the default, and the closest to the historical
    /// single-channel live path (interleaving + timestamps retained).
    #[default]
    Mem,
    /// Streaming codec writer: the trace persists as encoded bytes.
    Codec,
    /// Constant-memory stats counters.
    Stats,
    /// Streaming conflict flagging over consecutive-object-pair groups.
    Conflict,
    /// Streaming happened-before index over a bounded window.
    Reach,
    /// Windowed competitive-ratio tracking against the revealed optimum.
    Competitive,
    /// Tee of everything above: record, persist *and* monitor in one run.
    Tee,
}

/// The reachability window the eval harness provisions (matches the
/// pipeline's stamping window, so an in-flight batch is always queryable).
const REACH_WINDOW: usize = 4096;

impl SinkKind {
    /// Parses a CLI sink name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the candidates when the name is unknown.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "mem" => Ok(SinkKind::Mem),
            "codec" => Ok(SinkKind::Codec),
            "stats" => Ok(SinkKind::Stats),
            "conflict" => Ok(SinkKind::Conflict),
            "reach" => Ok(SinkKind::Reach),
            "competitive" => Ok(SinkKind::Competitive),
            "tee" => Ok(SinkKind::Tee),
            other => Err(format!(
                "unknown sink '{other}' (expected mem|codec|stats|conflict|reach|competitive|tee)"
            )),
        }
    }

    /// The stable CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            SinkKind::Mem => "mem",
            SinkKind::Codec => "codec",
            SinkKind::Stats => "stats",
            SinkKind::Conflict => "conflict",
            SinkKind::Reach => "reach",
            SinkKind::Competitive => "competitive",
            SinkKind::Tee => "tee",
        }
    }

    /// Builds a fresh sink of this kind for a workload over `objects`
    /// objects.
    ///
    /// The conflict sink declares disjoint object pairs `{2i, 2i + 1}` as
    /// its invariant groups — every object is monitored, every group is
    /// contended under the uniform workload, and each event lands in
    /// exactly one group, so the measured overhead reflects full-coverage
    /// monitoring at a realistic invariant density (overlapping groups
    /// would charge every event twice).
    pub fn build_for(self, objects: usize) -> Box<dyn EventSink> {
        let conflict = || {
            ConflictSink::with_groups(
                (0..objects / 2)
                    .map(|i| vec![mvc_trace::ObjectId(2 * i), mvc_trace::ObjectId(2 * i + 1)]),
            )
        };
        // Publish the stats sink's cells into the global registry so its
        // figures ride along in every `metrics` snapshot (latest-built
        // sink wins the names).
        let stats = || {
            let sink = StatsSink::new();
            sink.bind_metrics(mvc_obs::global());
            sink
        };
        match self {
            SinkKind::Mem => Box::new(MemoryRecorder::new()),
            SinkKind::Codec => Box::new(CodecSink::new()),
            SinkKind::Stats => Box::new(stats()),
            SinkKind::Conflict => Box::new(conflict()),
            SinkKind::Reach => Box::new(ReachabilityIndexSink::with_capacity(REACH_WINDOW)),
            SinkKind::Competitive => Box::new(CompetitiveSink::new()),
            SinkKind::Tee => Box::new(TeeSink::new(vec![
                Box::new(MemoryRecorder::new()),
                Box::new(stats()),
                Box::new(CodecSink::new()),
                Box::new(conflict()),
                Box::new(ReachabilityIndexSink::with_capacity(REACH_WINDOW)),
                Box::new(CompetitiveSink::new()),
            ])),
        }
    }
}

/// Configuration for one throughput measurement.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Threads in the synthetic workload.
    pub threads: usize,
    /// Objects in the synthetic workload.
    pub objects: usize,
    /// Operations to generate and stamp.
    pub events: usize,
    /// The workload family.
    pub workload: WorkloadKind,
    /// Shard counts to measure the sharded engine at.
    pub shard_counts: Vec<usize>,
    /// Workload seed.
    pub seed: u64,
    /// Timed repetitions per engine (the best run is reported, like a
    /// benchmark's minimum — throughput noise is one-sided).
    pub repeats: usize,
    /// The egress backend the ingest section drives.
    pub sink: SinkKind,
    /// Producer clients for the loopback-TCP `net` section (0 skips it).
    pub net_clients: usize,
}

impl ThroughputConfig {
    /// The acceptance configuration: a uniform 64-thread / 64-object stream,
    /// sharded at 1/2/4/8, with a 4-client loopback service slot.
    pub fn uniform_64x64(events: usize) -> Self {
        ThroughputConfig {
            threads: 64,
            objects: 64,
            events,
            workload: WorkloadKind::Uniform,
            shard_counts: vec![1, 2, 4, 8],
            seed: 42,
            repeats: 3,
            sink: SinkKind::Mem,
            net_clients: 4,
        }
    }
}

/// One engine's measured throughput.
#[derive(Debug, Clone)]
pub struct EngineThroughput {
    /// `"sequential"` or `"sharded"`.
    pub engine: String,
    /// Shard count (1 for the sequential engine).
    pub shards: usize,
    /// Best elapsed wall-clock nanoseconds over the repeats.
    pub elapsed_ns: u128,
    /// Events per second derived from the best run.
    pub events_per_sec: f64,
    /// Speedup over the sequential engine measured in the same report.
    pub speedup: f64,
}

/// Loopback-TCP service throughput: one thread-per-connection server fed by
/// N producer clients streaming the same workload, partitioned round-robin,
/// with a memory sink and no stamp return.
#[derive(Debug, Clone)]
pub struct NetThroughput {
    /// Producer clients driving the server.
    pub clients: usize,
    /// Best elapsed wall-clock nanoseconds over the repeats.
    pub elapsed_ns: u128,
    /// Events per second through the networked service.
    pub events_per_sec: f64,
    /// The sequential + mem-sink in-process ingest rate measured in the
    /// *same* interleaved run — the denominator of the CI gate.
    pub ingest_events_per_sec: f64,
    /// `events_per_sec / ingest_events_per_sec` — CI fails below 0.5.
    pub relative_to_ingest: f64,
}

/// The observability overhead gate: the same sequential + mem-sink ingest
/// measured twice in one interleaved run — once with the global
/// [`mvc_obs`] registry disabled (the process default) and once with every
/// instrument live.  CI fails the enabled rate below 0.95× the disabled
/// one, which is what keeps the instrumentation batch-granular.
#[derive(Debug, Clone)]
pub struct ObsOverhead {
    /// Events per second with the registry disabled.
    pub disabled_events_per_sec: f64,
    /// Events per second with every instrument recording.
    pub enabled_events_per_sec: f64,
    /// `enabled / disabled` — the overhead gate value.
    pub relative: f64,
}

/// The verdicts the streaming analysis sinks reached while riding the
/// ingest pipeline — surfaced in the JSON so a bench run doubles as a
/// monitoring smoke test.  Every field is `None` unless a sink of that
/// kind (directly or as a tee child) drove the run.
#[derive(Debug, Clone, Default)]
pub struct AnalysisVerdicts {
    /// Conflict pairs the streaming [`ConflictSink`] flagged.
    pub conflict_pairs: Option<usize>,
    /// Invariant groups the conflict sink monitored.
    pub conflict_groups: Option<usize>,
    /// Events the bounded [`ReachabilityIndexSink`] evicted from its window.
    pub reach_spilled: Option<usize>,
    /// Worst online/offline ratio the [`CompetitiveSink`] observed.
    pub competitive_worst_ratio: Option<f64>,
    /// The competitive tracker's final online clock size.
    pub competitive_online_size: Option<usize>,
    /// The competitive tracker's final revealed offline optimum.
    pub competitive_offline_optimum: Option<usize>,
}

impl AnalysisVerdicts {
    fn is_empty(&self) -> bool {
        self.conflict_pairs.is_none()
            && self.reach_spilled.is_none()
            && self.competitive_worst_ratio.is_none()
    }

    /// Harvests every analysis sink reachable from `sink`, recursing into
    /// tee children.
    fn collect_from(&mut self, sink: &dyn EventSink) {
        if let Some(tee) = sink.as_any().downcast_ref::<TeeSink>() {
            for child in tee.children() {
                self.collect_from(child.as_ref());
            }
        } else if let Some(c) = sink.as_any().downcast_ref::<ConflictSink>() {
            self.conflict_pairs = Some(c.conflicts().len());
            self.conflict_groups = Some(c.group_count());
        } else if let Some(r) = sink.as_any().downcast_ref::<ReachabilityIndexSink>() {
            self.reach_spilled = Some(r.spilled());
        } else if let Some(t) = sink.as_any().downcast_ref::<CompetitiveSink>() {
            self.competitive_worst_ratio = Some(t.worst_ratio());
            self.competitive_online_size = Some(t.online_size());
            self.competitive_offline_optimum = Some(t.offline_optimum());
        }
    }
}

/// A full throughput report: workload metadata plus one row per engine in
/// each section.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// The workload family name.
    pub workload: String,
    /// Threads in the workload.
    pub threads: usize,
    /// Objects in the workload.
    pub objects: usize,
    /// Events stamped per run.
    pub events: usize,
    /// Width of the offline-optimal clock all engines replayed with.
    pub clock_width: usize,
    /// The sink backend the ingest section drove.
    pub sink: String,
    /// Pure stamping (replay, no ingest/sink), sequential first.
    pub engines: Vec<EngineThroughput>,
    /// Full pipeline (segmented ingest → merge → stamp → sink), sequential
    /// first.  Speedups are relative to the sequential *ingest* row.
    pub ingest: Vec<EngineThroughput>,
    /// A sequential + mem-sink ingest row measured in the same interleaved
    /// run, present when the selected sink is not `mem` — the baseline the
    /// selected sink's overhead is judged against.
    pub ingest_baseline: Option<EngineThroughput>,
    /// The selected sink's sequential ingest throughput relative to the
    /// mem-sink baseline (1.0 when the selected sink *is* `mem`).  CI fails
    /// a monitoring sink below 0.5.
    pub sink_relative_throughput: f64,
    /// The streaming analysis sinks' verdicts, when the selected sink
    /// carries any (conflict / reach / competitive / tee).
    pub analysis: Option<AnalysisVerdicts>,
    /// The loopback-TCP networked-service slot, when `net_clients > 0`.
    pub net: Option<NetThroughput>,
    /// The observability overhead slot pair (disabled vs. enabled registry).
    pub obs: ObsOverhead,
    /// Registry snapshot delta captured around the instrumented overhead
    /// slots: every counter and latency histogram the pipeline recorded.
    pub metrics: mvc_obs::Snapshot,
}

/// Times one replay of `computation` through a fresh engine.
///
/// The run (engine state + every produced stamp) is returned alongside the
/// elapsed time instead of being dropped here: [`time_interleaved`] keeps it
/// alive until the *next* slot has allocated, so the allocator never trims
/// the freed pages out from under the following measurement.
fn time_one(
    mut engine: Box<dyn mvc_core::Timestamper>,
    computation: &Computation,
) -> (u128, Box<dyn Any>) {
    let start = Instant::now();
    let run = replay(engine.as_mut(), computation).expect("plan covers the workload");
    let elapsed = start.elapsed().as_nanos();
    assert_eq!(run.timestamps.len(), computation.len());
    (elapsed, Box::new(run))
}

/// Times one pass of `computation` through the full runtime pipeline with a
/// fresh engine and sink: the events are staged into per-thread segmented
/// ingest buffers (untimed — that is the producers' cost, paid on their own
/// threads in production), then the drain — order-preserving merge, bulk
/// stamping, sink delivery — is timed as one `pump`.
fn time_one_ingest(
    engine: Box<dyn mvc_core::Timestamper>,
    computation: &Computation,
    sink: Box<dyn EventSink>,
    threads: usize,
    objects: usize,
) -> (u128, Box<dyn Any>) {
    let session = TraceSession::new();
    let handles: Vec<_> = (0..threads)
        .map(|i| session.register_thread(&format!("t{i}")))
        .collect();
    let objs: Vec<_> = (0..objects)
        .map(|i| session.shared_object(&format!("o{i}"), ()))
        .collect();
    for e in computation.events() {
        objs[e.object.index()].apply(&handles[e.thread.index()], e.kind, |_| ());
    }
    let mut live = session.live_with_sink(engine, sink);
    let start = Instant::now();
    let pumped = live.pump().expect("plan covers the workload");
    let (sink, _report) = live
        .finish_into_sink()
        .map_err(|(_, e)| e)
        .expect("final drain is clean");
    let elapsed = start.elapsed().as_nanos();
    assert_eq!(pumped, computation.len());
    assert_eq!(sink.events_accepted(), computation.len());
    // The sink owns the run's stamps (for the mem backend, ~all of the
    // slot's allocation) — hand it to the harness to keep alive.
    (elapsed, Box::new(sink))
}

/// Times `engines` measurement slots `repeats` times each, interleaved
/// round-robin (one rep of each slot per round) so machine-level noise —
/// frequency scaling, noisy neighbours — hits all slots alike, and returns
/// each slot's best run (throughput noise is one-sided).  A leading untimed
/// warm-up round maps the allocator arena the stamp vectors will recycle, so
/// the timed rounds measure steady-state throughput rather than first-touch
/// page faults.
///
/// Each slot returns its product (the run's stamps) alongside its time, and
/// `keep` holds it until the *next* slot has allocated and been timed.
/// Dropping ~100 MB of uniform stamp vectors between slots would otherwise
/// let glibc consolidate and trim the arena top, and the following slot's
/// timed region would pay the page-fault storm instead of measuring the
/// engine.  The tax was asymmetric — only the slot right after the
/// still-churning sequential engine ran warm — which is exactly the
/// "1-shard fast, 2/4/8 collapse" artifact the committed bench used to
/// show.  Keeping the previous product alive turns the freed pages into an
/// interior hole the next slot reuses instead of a trimmed arena top it
/// must re-fault.
fn time_interleaved(
    engines: usize,
    repeats: usize,
    mut run_slot: impl FnMut(usize) -> (u128, Box<dyn Any>),
) -> Vec<u128> {
    let mut best = vec![u128::MAX; engines];
    let mut keep: Option<Box<dyn Any>> = None;
    for round in 0..repeats.max(1) + 1 {
        for (i, b) in best.iter_mut().enumerate() {
            let (elapsed, product) = run_slot(i);
            // Drops the previous slot's product only now, after the current
            // slot has allocated on top of it.
            keep = Some(product);
            if round > 0 {
                *b = (*b).min(elapsed);
            }
        }
    }
    drop(keep);
    best
}

fn events_per_sec(events: usize, elapsed_ns: u128) -> f64 {
    if elapsed_ns == 0 {
        return 0.0;
    }
    events as f64 / (elapsed_ns as f64 / 1e9)
}

/// Builds the report rows for one measured section: sequential first, then
/// one sharded row per configured count, speedups relative to the
/// sequential row of the *same* section.
fn rows(config: &ThroughputConfig, timings: &[u128]) -> Vec<EngineThroughput> {
    let sequential_ns = timings[0];
    let mut out = vec![EngineThroughput {
        engine: "sequential".to_owned(),
        shards: 1,
        elapsed_ns: sequential_ns,
        events_per_sec: events_per_sec(config.events, sequential_ns),
        speedup: 1.0,
    }];
    for (&shards, &ns) in config.shard_counts.iter().zip(&timings[1..]) {
        out.push(EngineThroughput {
            engine: "sharded".to_owned(),
            shards,
            elapsed_ns: ns,
            events_per_sec: events_per_sec(config.events, ns),
            speedup: if ns == 0 {
                0.0
            } else {
                sequential_ns as f64 / ns as f64
            },
        });
    }
    out
}

/// Measures the sequential engine and the sharded engine (at every
/// configured shard count) over the same workload and component map — once
/// through the pure stamping path and once through the full ingest → stamp
/// → sink pipeline with the configured sink backend.
pub fn measure_throughput(config: &ThroughputConfig) -> ThroughputReport {
    let computation = WorkloadBuilder::new(config.threads, config.objects)
        .operations(config.events)
        .kind(config.workload)
        .seed(config.seed)
        .build();
    let plan = OfflineOptimizer::new().plan_for_computation(&computation);
    let map = plan.components().clone();

    // Slot 0 is the sequential engine, slot k the k-th shard count.
    let make_engine = |slot: usize| -> Box<dyn mvc_core::Timestamper> {
        if slot == 0 {
            Box::new(TimestampingEngine::with_components(map.clone()))
        } else {
            Box::new(ShardedEngine::with_components(
                map.clone(),
                config.shard_counts[slot - 1],
            ))
        }
    };
    let slots = 1 + config.shard_counts.len();

    let stamping = time_interleaved(slots, config.repeats, |slot| {
        time_one(make_engine(slot), &computation)
    });
    // When the selected sink is not `mem`, one extra slot measures the
    // sequential engine through a mem sink in the *same* interleaved run —
    // the baseline `sink_relative_throughput` (and the CI overhead gate)
    // compares against.
    let baseline_slots = usize::from(config.sink != SinkKind::Mem);
    let pipeline = time_interleaved(slots + baseline_slots, config.repeats, |slot| {
        // The extra trailing slot is sequential + mem; every other slot
        // drives the selected sink.
        let (engine_slot, sink) = if slot < slots {
            (slot, config.sink)
        } else {
            (0, SinkKind::Mem)
        };
        time_one_ingest(
            make_engine(engine_slot),
            &computation,
            sink.build_for(config.objects),
            config.threads,
            config.objects,
        )
    });
    let ingest = rows(config, &pipeline[..slots]);
    let ingest_baseline = (baseline_slots == 1).then(|| EngineThroughput {
        engine: "sequential".to_owned(),
        shards: 1,
        elapsed_ns: pipeline[slots],
        events_per_sec: events_per_sec(config.events, pipeline[slots]),
        speedup: 1.0,
    });
    let sink_relative_throughput = match &ingest_baseline {
        None => 1.0,
        Some(baseline) => {
            if ingest[0].elapsed_ns == 0 {
                0.0
            } else {
                baseline.elapsed_ns as f64 / ingest[0].elapsed_ns as f64
            }
        }
    };

    // One untimed pass harvests the analysis sinks' verdicts when the
    // selected backend carries any — the timed slots drop their sinks, and
    // the verdicts must come from a complete run, not the best-timed one.
    let analysis = matches!(
        config.sink,
        SinkKind::Conflict | SinkKind::Reach | SinkKind::Competitive | SinkKind::Tee
    )
    .then(|| {
        let (_, product) = time_one_ingest(
            make_engine(0),
            &computation,
            config.sink.build_for(config.objects),
            config.threads,
            config.objects,
        );
        let sink = product
            .downcast::<Box<dyn EventSink>>()
            .expect("the ingest product is the sink");
        let mut verdicts = AnalysisVerdicts::default();
        verdicts.collect_from(sink.as_ref().as_ref());
        verdicts
    })
    .filter(|v| !v.is_empty());

    // The loopback-TCP service slot, interleaved with its own sequential +
    // mem-sink in-process baseline so machine noise hits both alike.  The
    // service run schedules ~2x`net_clients` threads on whatever cores the
    // machine has, so its best-of converges slower than the single-threaded
    // slots — give the pair extra repeats when the configured count is low.
    let net = (config.net_clients > 0).then(|| {
        let net_repeats = if config.repeats > 1 {
            config.repeats.max(5)
        } else {
            config.repeats
        };
        let timings = time_interleaved(2, net_repeats, |slot| {
            if slot == 0 {
                time_one_ingest(
                    Box::new(TimestampingEngine::with_components(map.clone())),
                    &computation,
                    SinkKind::Mem.build_for(config.objects),
                    config.threads,
                    config.objects,
                )
            } else {
                crate::serve::time_one_net(
                    &computation,
                    config.threads,
                    config.objects,
                    config.net_clients,
                )
            }
        });
        NetThroughput {
            clients: config.net_clients,
            elapsed_ns: timings[1],
            events_per_sec: events_per_sec(config.events, timings[1]),
            ingest_events_per_sec: events_per_sec(config.events, timings[0]),
            relative_to_ingest: if timings[1] == 0 {
                0.0
            } else {
                timings[0] as f64 / timings[1] as f64
            },
        }
    });

    // The observability overhead pair: the identical sequential + mem-sink
    // ingest, slot 0 with the global registry disabled and slot 1 with it
    // enabled, interleaved so machine noise hits both alike.  Each slot
    // sets the switch itself (and drops back to disabled on exit) so the
    // main sections above always measure the uninstrumented rate.  The
    // registry delta around the run becomes the report's `metrics` section.
    let registry = mvc_obs::global();
    let was_enabled = registry.enabled();
    let before = registry.snapshot();
    let obs_timings = time_interleaved(2, config.repeats, |slot| {
        registry.set_enabled(slot == 1);
        let result = time_one_ingest(
            Box::new(TimestampingEngine::with_components(map.clone())),
            &computation,
            SinkKind::Mem.build_for(config.objects),
            config.threads,
            config.objects,
        );
        registry.set_enabled(false);
        result
    });
    registry.set_enabled(was_enabled);
    let metrics = registry.snapshot().delta(&before);
    let obs = ObsOverhead {
        disabled_events_per_sec: events_per_sec(config.events, obs_timings[0]),
        enabled_events_per_sec: events_per_sec(config.events, obs_timings[1]),
        relative: if obs_timings[1] == 0 {
            0.0
        } else {
            obs_timings[0] as f64 / obs_timings[1] as f64
        },
    };

    ThroughputReport {
        workload: config.workload.name().to_owned(),
        threads: config.threads,
        objects: config.objects,
        events: config.events,
        clock_width: map.len(),
        sink: config.sink.name().to_owned(),
        engines: rows(config, &stamping),
        ingest,
        ingest_baseline,
        sink_relative_throughput,
        analysis,
        net,
        obs,
        metrics,
    }
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.2}")
    } else {
        "null".to_owned()
    }
}

fn render_row(out: &mut String, e: &EngineThroughput) {
    out.push('{');
    out.push_str(&format!("\"engine\": \"{}\", ", e.engine));
    out.push_str(&format!("\"shards\": {}, ", e.shards));
    out.push_str(&format!("\"elapsed_ns\": {}, ", e.elapsed_ns));
    out.push_str(&format!(
        "\"events_per_sec\": {}, ",
        json_f64(e.events_per_sec)
    ));
    out.push_str(&format!("\"speedup\": {}", json_f64(e.speedup)));
    out.push('}');
}

fn render_rows(out: &mut String, key: &str, rows: &[EngineThroughput], trailing_comma: bool) {
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, e) in rows.iter().enumerate() {
        out.push_str("    ");
        render_row(out, e);
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]");
    if trailing_comma {
        out.push(',');
    }
    out.push('\n');
}

/// Renders a report as a single JSON object (two-space indent, stable key
/// order) — the machine-readable output of `mvc-eval throughput`.
pub fn render_throughput_json(report: &ThroughputReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"workload\": \"{}\",\n", report.workload));
    out.push_str(&format!("  \"threads\": {},\n", report.threads));
    out.push_str(&format!("  \"objects\": {},\n", report.objects));
    out.push_str(&format!("  \"events\": {},\n", report.events));
    out.push_str(&format!("  \"clock_width\": {},\n", report.clock_width));
    out.push_str(&format!("  \"sink\": \"{}\",\n", report.sink));
    render_rows(&mut out, "engines", &report.engines, true);
    render_rows(&mut out, "ingest", &report.ingest, true);
    out.push_str("  \"ingest_baseline\": ");
    match &report.ingest_baseline {
        None => out.push_str("null"),
        Some(row) => render_row(&mut out, row),
    }
    out.push_str(",\n");
    out.push_str("  \"analysis\": ");
    match &report.analysis {
        None => out.push_str("null"),
        Some(v) => {
            let opt_usize = |v: &Option<usize>| match v {
                None => "null".to_owned(),
                Some(n) => n.to_string(),
            };
            let opt_f64 = |v: &Option<f64>| match v {
                None => "null".to_owned(),
                Some(x) => json_f64(*x),
            };
            out.push('{');
            out.push_str(&format!(
                "\"conflict_pairs\": {}, ",
                opt_usize(&v.conflict_pairs)
            ));
            out.push_str(&format!(
                "\"conflict_groups\": {}, ",
                opt_usize(&v.conflict_groups)
            ));
            out.push_str(&format!(
                "\"reach_spilled\": {}, ",
                opt_usize(&v.reach_spilled)
            ));
            out.push_str(&format!(
                "\"competitive_worst_ratio\": {}, ",
                opt_f64(&v.competitive_worst_ratio)
            ));
            out.push_str(&format!(
                "\"competitive_online_size\": {}, ",
                opt_usize(&v.competitive_online_size)
            ));
            out.push_str(&format!(
                "\"competitive_offline_optimum\": {}",
                opt_usize(&v.competitive_offline_optimum)
            ));
            out.push('}');
        }
    }
    out.push_str(",\n");
    out.push_str("  \"net\": ");
    match &report.net {
        None => out.push_str("null"),
        Some(net) => {
            out.push('{');
            out.push_str(&format!("\"clients\": {}, ", net.clients));
            out.push_str(&format!("\"elapsed_ns\": {}, ", net.elapsed_ns));
            out.push_str(&format!(
                "\"events_per_sec\": {}, ",
                json_f64(net.events_per_sec)
            ));
            out.push_str(&format!(
                "\"ingest_events_per_sec\": {}, ",
                json_f64(net.ingest_events_per_sec)
            ));
            // Four decimals: the CI gate compares this against 0.5, and two
            // would round 0.498 up to the threshold.
            out.push_str(&format!(
                "\"relative_to_ingest\": {}",
                if net.relative_to_ingest.is_finite() {
                    format!("{:.4}", net.relative_to_ingest)
                } else {
                    "null".to_owned()
                }
            ));
            out.push('}');
        }
    }
    out.push_str(",\n");
    out.push_str("  \"obs\": {");
    out.push_str(&format!(
        "\"disabled_events_per_sec\": {}, ",
        json_f64(report.obs.disabled_events_per_sec)
    ));
    out.push_str(&format!(
        "\"enabled_events_per_sec\": {}, ",
        json_f64(report.obs.enabled_events_per_sec)
    ));
    // Four decimals: the CI overhead gate compares this against 0.95, and
    // two would round 0.9489 up to the threshold.
    out.push_str(&format!(
        "\"relative\": {}",
        if report.obs.relative.is_finite() {
            format!("{:.4}", report.obs.relative)
        } else {
            "null".to_owned()
        }
    ));
    out.push_str("},\n");
    out.push_str(&format!("  \"metrics\": {},\n", report.metrics.to_json()));
    out.push_str(&format!(
        "  \"sink_relative_throughput\": {}\n",
        json_f64(report.sink_relative_throughput)
    ));
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_every_configured_engine() {
        let config = ThroughputConfig {
            threads: 8,
            objects: 8,
            events: 2_000,
            workload: WorkloadKind::Uniform,
            shard_counts: vec![1, 2],
            seed: 3,
            repeats: 1,
            sink: SinkKind::Mem,
            net_clients: 0,
        };
        let report = measure_throughput(&config);
        for section in [&report.engines, &report.ingest] {
            assert_eq!(section.len(), 3);
            assert_eq!(section[0].engine, "sequential");
            assert_eq!(section[0].speedup, 1.0);
            assert_eq!(section[1].shards, 1);
            assert_eq!(section[2].shards, 2);
            for e in section.iter() {
                assert!(e.events_per_sec > 0.0, "{}: zero throughput", e.engine);
            }
        }
        assert!(report.clock_width > 0);
        assert_eq!(report.sink, "mem");
        assert!(report.ingest_baseline.is_none(), "mem is its own baseline");
        assert_eq!(report.sink_relative_throughput, 1.0);
        assert!(report.obs.disabled_events_per_sec > 0.0);
        assert!(report.obs.enabled_events_per_sec > 0.0);
        assert!(report.obs.relative > 0.0);
        // The instrumented slot drove the full pipeline: the delta
        // snapshot carries its counters.  Lower bound only — sibling tests
        // in this process share the global registry, and the enabled slot
        // runs once per round (warm-up included).
        let accepted = report
            .metrics
            .counter("pipeline.events_accepted")
            .expect("the enabled slot registered pipeline counters");
        assert!(accepted >= 2_000, "at least one enabled pass: {accepted}");
        let stamp = report
            .metrics
            .histogram("pipeline.stamp_ns")
            .expect("stamp latency histogram");
        assert!(stamp.count > 0);
    }

    #[test]
    fn every_sink_backend_drives_the_ingest_section() {
        for sink in [
            SinkKind::Mem,
            SinkKind::Codec,
            SinkKind::Stats,
            SinkKind::Conflict,
            SinkKind::Reach,
            SinkKind::Competitive,
            SinkKind::Tee,
        ] {
            let config = ThroughputConfig {
                threads: 4,
                objects: 4,
                events: 400,
                workload: WorkloadKind::Uniform,
                shard_counts: vec![2],
                seed: 9,
                repeats: 1,
                sink,
                net_clients: 0,
            };
            let report = measure_throughput(&config);
            assert_eq!(report.sink, sink.name());
            assert_eq!(report.ingest.len(), 2);
            for e in &report.ingest {
                assert!(e.events_per_sec > 0.0, "{}: zero throughput", e.engine);
            }
            if sink == SinkKind::Mem {
                assert!(report.ingest_baseline.is_none());
                assert_eq!(report.sink_relative_throughput, 1.0);
            } else {
                let baseline = report.ingest_baseline.as_ref().unwrap();
                assert_eq!(baseline.engine, "sequential");
                assert!(baseline.events_per_sec > 0.0);
                assert!(report.sink_relative_throughput > 0.0);
            }
        }
    }

    #[test]
    fn sink_names_parse_and_round_trip() {
        for name in [
            "mem",
            "codec",
            "stats",
            "conflict",
            "reach",
            "competitive",
            "tee",
        ] {
            assert_eq!(SinkKind::parse(name).unwrap().name(), name);
        }
        let err = SinkKind::parse("paper").unwrap_err();
        assert!(err.contains("unknown sink 'paper'"));
        assert!(
            err.contains("mem|codec|stats|conflict|reach|competitive|tee"),
            "lists candidates"
        );
        assert_eq!(SinkKind::default(), SinkKind::Mem);
    }

    #[test]
    fn analysis_sinks_produce_their_analysis_during_ingest() {
        // The conflict sink must actually flag something on a contended
        // workload, not just count events — drive one ingest run by hand.
        let config = ThroughputConfig {
            threads: 8,
            objects: 8,
            events: 800,
            workload: WorkloadKind::Uniform,
            shard_counts: vec![1],
            seed: 7,
            repeats: 1,
            sink: SinkKind::Conflict,
            net_clients: 0,
        };
        let sink = SinkKind::Conflict.build_for(config.objects);
        let conflict = sink.as_any().downcast_ref::<ConflictSink>().unwrap();
        assert_eq!(conflict.group_count(), 4, "disjoint object pairs");
        let report = measure_throughput(&config);
        assert!(report.sink_relative_throughput > 0.0);
    }

    #[test]
    fn json_has_stable_shape() {
        let config = ThroughputConfig {
            threads: 4,
            objects: 4,
            events: 500,
            workload: WorkloadKind::PhaseShift {
                period: 64,
                shift: 1,
            },
            shard_counts: vec![2],
            seed: 1,
            repeats: 1,
            sink: SinkKind::Tee,
            net_clients: 0,
        };
        let json = render_throughput_json(&measure_throughput(&config));
        for key in [
            "\"workload\": \"phase-shift\"",
            "\"threads\": 4",
            "\"events\": 500",
            "\"clock_width\":",
            "\"sink\": \"tee\"",
            "\"engines\": [",
            "\"ingest\": [",
            "\"engine\": \"sequential\"",
            "\"engine\": \"sharded\"",
            "\"events_per_sec\":",
            "\"speedup\":",
            "\"ingest_baseline\": {",
            "\"sink_relative_throughput\":",
            "\"obs\": {",
            "\"disabled_events_per_sec\":",
            "\"enabled_events_per_sec\":",
            "\"relative\":",
            "\"metrics\": {",
            "\"pipeline.events_accepted\":",
            "\"pipeline.stamp_ns\":",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));

        // With the default mem sink the baseline is null.
        let mem = ThroughputConfig {
            sink: SinkKind::Mem,
            ..ThroughputConfig::uniform_64x64(200)
        };
        let json = render_throughput_json(&measure_throughput(&mem));
        assert!(json.contains("\"ingest_baseline\": null"));
        assert!(json.contains("\"sink_relative_throughput\": 1.00"));
    }

    #[test]
    fn uniform_64x64_is_the_acceptance_shape() {
        let c = ThroughputConfig::uniform_64x64(1_000);
        assert_eq!((c.threads, c.objects), (64, 64));
        assert_eq!(c.shard_counts, vec![1, 2, 4, 8]);
        assert_eq!(c.workload.name(), "uniform");
        assert_eq!(c.sink, SinkKind::Mem);
    }
}
