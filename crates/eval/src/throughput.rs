//! Pipeline throughput as **ratios against a baseline measured in the same
//! interleaved run** — the one measurement the repo benchmark
//! (`bash benchmark/run.sh`, the source of every absolute number) does not
//! express, and the one CI gates on.
//!
//! One `time_interleaved` call times one list of slots over the identical
//! precomputed workload and offline-optimal component map:
//!
//! * `ingest` — the baseline: events staged into per-thread ingest
//!   buffers, then timed through merge → sequential
//!   [`TimestampingEngine`] → [`MemoryRecorder`], metrics registry off;
//! * `sink:<kind>` — the same with the `--sink`-selected [`EventSink`]
//!   (present when the sink is not `mem`): egress and monitoring cost;
//! * `net:<N>` — the same workload streamed by `N` producer clients through
//!   the loopback-TCP service (present when `--net-clients` > 0);
//! * `obs:enabled` — the baseline again with every [`mvc_obs`] instrument
//!   recording: the observability overhead.
//!
//! Every slot reports `relative` = baseline time ÷ slot time, so 1.0 is "as
//! fast as plain ingest" and a shared runner's noise cancels (JSON via
//! `mvc-eval throughput`).

use std::any::Any;
use std::time::Instant;

use mvc_core::sink::{CodecSink, EventSink, MemoryRecorder, StatsSink, TeeSink};
use mvc_core::{OfflineOptimizer, TimestampingEngine};
use mvc_runtime::{CompetitiveSink, ConflictSink, ReachabilityIndexSink, TraceSession};
use mvc_trace::{Computation, WorkloadBuilder, WorkloadKind};

/// The egress backend an ingest measurement drives
/// (`--sink mem|codec|stats|conflict|reach|competitive|tee`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinkKind {
    /// In-memory recorder (interleaving + timestamps retained): the baseline.
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

/// Every kind under its stable CLI/JSON name, in declaration order.
const SINKS: [(&str, SinkKind); 7] = [
    ("mem", SinkKind::Mem),
    ("codec", SinkKind::Codec),
    ("stats", SinkKind::Stats),
    ("conflict", SinkKind::Conflict),
    ("reach", SinkKind::Reach),
    ("competitive", SinkKind::Competitive),
    ("tee", SinkKind::Tee),
];

impl SinkKind {
    /// Parses a CLI sink name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the candidates when the name is unknown.
    pub fn parse(name: &str) -> Result<Self, String> {
        let known = SINKS.iter().find(|(n, _)| *n == name);
        known.map(|&(_, kind)| kind).ok_or_else(|| {
            let names: Vec<&str> = SINKS.iter().map(|&(n, _)| n).collect();
            format!("unknown sink '{name}' (expected {})", names.join("|"))
        })
    }

    /// The stable CLI/JSON name.
    pub fn name(self) -> &'static str {
        SINKS[self as usize].0
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
    fn build_for(self, objects: usize) -> Box<dyn EventSink> {
        use mvc_trace::ObjectId;
        match self {
            SinkKind::Mem => Box::new(MemoryRecorder::new()),
            SinkKind::Codec => Box::new(CodecSink::new()),
            SinkKind::Stats => {
                // Publish the sink's cells into the global registry so its
                // figures ride along in every `metrics` snapshot
                // (latest-built sink wins the names).
                let sink = StatsSink::new();
                sink.bind_metrics(mvc_obs::global());
                Box::new(sink)
            }
            SinkKind::Conflict => Box::new(ConflictSink::with_groups(
                (0..objects / 2).map(|i| vec![ObjectId(2 * i), ObjectId(2 * i + 1)]),
            )),
            SinkKind::Reach => Box::new(ReachabilityIndexSink::with_capacity(REACH_WINDOW)),
            SinkKind::Competitive => Box::new(CompetitiveSink::new()),
            SinkKind::Tee => {
                let others = SINKS.iter().filter(|(_, kind)| *kind != SinkKind::Tee);
                Box::new(TeeSink::new(
                    others.map(|(_, kind)| kind.build_for(objects)).collect(),
                ))
            }
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
    /// Workload seed.
    pub seed: u64,
    /// Timed repetitions per slot (the best run is reported, like a
    /// benchmark's minimum — throughput noise is one-sided).
    pub repeats: usize,
    /// The egress backend of the `sink:<kind>` slot (`mem` skips the slot:
    /// the baseline already is the mem sink).
    pub sink: SinkKind,
    /// Producer clients of the loopback-TCP `net:<N>` slot (0 skips it).
    pub net_clients: usize,
}

impl ThroughputConfig {
    /// The acceptance configuration: a uniform 64-thread / 64-object stream
    /// with a 4-client loopback service slot.
    pub fn uniform_64x64(events: usize) -> Self {
        ThroughputConfig {
            threads: 64,
            objects: 64,
            events,
            workload: WorkloadKind::Uniform,
            seed: 42,
            repeats: 3,
            sink: SinkKind::Mem,
            net_clients: 4,
        }
    }
}

/// One measured slot of a [`ThroughputReport`].
#[derive(Debug, Clone)]
pub struct ThroughputSlot {
    /// `ingest`, `sink:<kind>`, `net:<clients>` or `obs:enabled`.
    pub name: String,
    /// Best elapsed wall-clock nanoseconds over the timed rounds.
    pub elapsed_ns: u128,
    /// Events per second derived from the best run.
    pub events_per_sec: f64,
    /// The `ingest` slot's best time ÷ this slot's (1.0 for `ingest`
    /// itself) — the value CI gates on.
    pub relative: f64,
}

/// A full throughput report: the measured shape plus one row per slot.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// The configuration that was measured.
    pub config: ThroughputConfig,
    /// Width of the offline-optimal clock the in-process slots replayed with.
    pub clock_width: usize,
    /// The measured slots, `ingest` (the baseline) first.
    pub slots: Vec<ThroughputSlot>,
    /// Registry snapshot delta over the run: what `obs:enabled`, the only
    /// slot with the registry on, recorded (its warm-up pass included).
    pub metrics: mvc_obs::Snapshot,
}

/// Times one pass of `computation` through the full runtime pipeline with a
/// fresh engine and sink: the events are staged into the per-thread
/// ingest buffers (untimed — that is the producers' cost, paid on their own
/// threads in production), then the drain — order-preserving merge, bulk
/// stamping, sink delivery — is timed as one `pump`.
fn time_one_ingest(
    engine: TimestampingEngine,
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

/// Times `slots` measurement slots `repeats` times each, interleaved
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
    slots: usize,
    repeats: usize,
    mut run_slot: impl FnMut(usize) -> (u128, Box<dyn Any>),
) -> Vec<u128> {
    let mut best = vec![u128::MAX; slots];
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

/// Measures the configured slot set — `ingest`, then `sink:<kind>`,
/// `net:<N>` and `obs:enabled` as the config asks — in one interleaved run
/// over the same workload and component map.
pub fn measure_throughput(config: &ThroughputConfig) -> ThroughputReport {
    let computation = WorkloadBuilder::new(config.threads, config.objects)
        .operations(config.events)
        .kind(config.workload)
        .seed(config.seed)
        .build();
    let plan = OfflineOptimizer::new().plan_for_computation(&computation);
    let map = plan.components();
    let registry = mvc_obs::global();

    type Slot<'a> = (String, Box<dyn Fn() -> (u128, Box<dyn Any>) + 'a>);
    let ingest = |sink: SinkKind| {
        time_one_ingest(
            TimestampingEngine::with_components(map.clone()),
            &computation,
            sink.build_for(config.objects),
            config.threads,
            config.objects,
        )
    };
    let mut slots: Vec<Slot<'_>> = vec![("ingest".into(), Box::new(|| ingest(SinkKind::Mem)))];
    if config.sink != SinkKind::Mem {
        let name = format!("sink:{}", config.sink.name());
        slots.push((name, Box::new(|| ingest(config.sink))));
    }
    if config.net_clients > 0 {
        let net = || {
            let (threads, objects) = (config.threads, config.objects);
            crate::serve::time_one_net(&computation, threads, objects, config.net_clients)
        };
        slots.push((format!("net:{}", config.net_clients), Box::new(net)));
    }
    // The one instrumented slot flips the registry on for its own pass only,
    // so every other slot measures the uninstrumented rate.
    let instrumented = || {
        registry.set_enabled(true);
        let result = ingest(SinkKind::Mem);
        registry.set_enabled(false);
        result
    };
    slots.push(("obs:enabled".into(), Box::new(instrumented)));

    let was_enabled = registry.enabled();
    registry.set_enabled(false);
    // `time_interleaved`'s keepalive protects a slot only if its predecessor
    // left a product of its own size in the main arena, and this list is
    // not that uniform: a stats sink retains nothing and the net slot's
    // stamps live in the server thread's arena, so the slot after them found
    // the arena top trimmed and paid ~7.6k page faults per 50k events while
    // its neighbour paid none (`obs:enabled` read 1.6x `ingest`).  So the
    // heap shape is fixed up front by four untimed baseline passes: the last
    // product, allocated on top of the other three, stays alive as a ceiling
    // glibc cannot trim past, and dropping the three below it leaves a warm
    // hole deep enough for the previous product, the current one and the
    // net slot's client logs.  Every in-process slot then runs fault-free.
    let mut warm: Vec<_> = (0..4).map(|_| ingest(SinkKind::Mem).1).collect();
    let ceiling = warm.pop();
    drop(warm);
    let before = registry.snapshot();
    let timings = time_interleaved(slots.len(), config.repeats, |i| (slots[i].1)());
    drop(ceiling);
    registry.set_enabled(was_enabled);
    let metrics = registry.snapshot().delta(&before);

    let slots = slots
        .iter()
        .zip(&timings)
        .map(|((name, _), &ns)| ThroughputSlot {
            name: name.clone(),
            elapsed_ns: ns,
            events_per_sec: events_per_sec(config.events, ns),
            relative: timings[0] as f64 / ns as f64,
        })
        .collect();
    ThroughputReport {
        config: config.clone(),
        clock_width: map.len(),
        slots,
        metrics,
    }
}

/// Renders a report as a single JSON object (two-space indent, stable key
/// order) — the machine-readable output of `mvc-eval throughput`.
pub fn render_throughput_json(report: &ThroughputReport) -> String {
    let f64_or_null = |value: f64, decimals: usize| {
        if value.is_finite() {
            format!("{value:.decimals$}")
        } else {
            "null".to_owned()
        }
    };
    // Four decimals on `relative`: the gates compare it against a
    // threshold, and two would round 0.498 up to 0.50.
    let rows: Vec<String> = report
        .slots
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"elapsed_ns\": {}, \"events_per_sec\": {}, \
                 \"relative\": {}}}",
                s.name,
                s.elapsed_ns,
                f64_or_null(s.events_per_sec, 2),
                f64_or_null(s.relative, 4)
            )
        })
        .collect();
    let c = &report.config;
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"threads\": {},\n  \"objects\": {},\n  \
         \"events\": {},\n  \"clock_width\": {},\n  \"slots\": [\n{}\n  ],\n  \
         \"metrics\": {}\n}}",
        c.workload.name(),
        c.threads,
        c.objects,
        c.events,
        report.clock_width,
        rows.join(",\n"),
        report.metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const SINK_NAMES: &str = "mem|codec|stats|conflict|reach|competitive|tee";

    fn config(threads: usize, events: usize, sink: SinkKind) -> ThroughputConfig {
        ThroughputConfig {
            threads,
            objects: threads,
            repeats: 1,
            sink,
            net_clients: 0,
            ..ThroughputConfig::uniform_64x64(events)
        }
    }

    fn slot_names(report: &ThroughputReport) -> Vec<&str> {
        report.slots.iter().map(|s| s.name.as_str()).collect()
    }

    /// A slot product that logs its own drop.
    struct Product(usize, Rc<RefCell<Vec<String>>>);

    impl Drop for Product {
        fn drop(&mut self) {
            self.1.borrow_mut().push(format!("drop {}", self.0));
        }
    }

    #[test]
    fn interleaved_runner_keeps_each_product_alive_past_the_next_slot() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut call = 0;
        // Two slots, a warm-up round and three timed ones.  Round 0 reports
        // the smallest times of all — they must not count.
        let script = [[1, 2], [50, 90], [40, 95], [45, 80]];
        let best = time_interleaved(2, 3, |slot| {
            let k = call;
            call += 1;
            assert_eq!(slot, k % 2, "one rep of each slot per round");
            log.borrow_mut().push(format!("run {k}"));
            (script[k / 2][slot], Box::new(Product(k, Rc::clone(&log))))
        });
        assert_eq!(best, vec![40, 80], "minimum over the timed rounds only");

        let mut expected = vec!["run 0".to_owned()];
        for k in 1..8 {
            expected.extend([format!("run {k}"), format!("drop {}", k - 1)]);
        }
        expected.push("drop 7".to_owned());
        assert_eq!(*log.borrow(), expected);
    }

    #[test]
    fn slot_set_follows_the_config_and_metrics_cover_the_instrumented_slot() {
        let report = measure_throughput(&config(8, 2_000, SinkKind::Mem));
        assert_eq!(slot_names(&report), ["ingest", "obs:enabled"]);
        assert_eq!(report.slots[0].relative, 1.0);
        for slot in &report.slots {
            assert!(slot.events_per_sec > 0.0, "{}: zero throughput", slot.name);
            assert!(slot.relative > 0.0, "{}", slot.name);
        }
        assert!(report.clock_width > 0);
        // The instrumented slot drove the full pipeline: the delta snapshot
        // carries its counters.  Lower bound only — sibling tests in this
        // process share the global registry, and the enabled slot runs once
        // per round (warm-up included).
        let accepted = report.metrics.counter("pipeline.events_accepted");
        assert!(accepted >= Some(2_000), "one enabled pass: {accepted:?}");
        let stamp = report.metrics.histogram("pipeline.stamp_ns");
        assert!(stamp.expect("stamp latency histogram").count > 0);
    }

    #[test]
    fn every_sink_backend_drives_the_ingest_section() {
        for sink in SINK_NAMES.split('|').skip(1) {
            let kind = SinkKind::parse(sink).unwrap();
            let report = measure_throughput(&config(4, 400, kind));
            let name = format!("sink:{sink}");
            assert_eq!(slot_names(&report), ["ingest", &name, "obs:enabled"]);
            assert!(report.slots[1].events_per_sec > 0.0, "{name}");
            assert!(report.slots[1].relative > 0.0, "{name}");
        }
    }

    #[test]
    fn sink_names_parse_and_round_trip() {
        for name in SINK_NAMES.split('|') {
            assert_eq!(SinkKind::parse(name).unwrap().name(), name);
        }
        let err = SinkKind::parse("paper").unwrap_err();
        assert!(err.contains("unknown sink 'paper'"));
        assert!(err.contains(SINK_NAMES), "lists candidates");
        assert_eq!(SinkKind::default(), SinkKind::Mem);
    }

    #[test]
    fn analysis_sinks_produce_their_analysis_during_ingest() {
        // The conflict sink must actually flag something on a contended
        // workload, not just count events — drive one ingest run by hand.
        let sink = SinkKind::Conflict.build_for(8);
        let conflict = sink.as_any().downcast_ref::<ConflictSink>().unwrap();
        assert_eq!(conflict.group_count(), 4, "disjoint object pairs");
        let computation = WorkloadBuilder::new(8, 8).operations(800).seed(7).build();
        let plan = OfflineOptimizer::new().plan_for_computation(&computation);
        let engine = TimestampingEngine::with_components(plan.components().clone());
        let (_, product) = time_one_ingest(engine, &computation, sink, 8, 8);
        let sink = product.downcast::<Box<dyn EventSink>>().unwrap();
        let conflict = sink.as_any().downcast_ref::<ConflictSink>().unwrap();
        assert!(!conflict.conflicts().is_empty(), "contended pairs flagged");
    }

    /// The key of every `"key":` in `json`, in order.
    fn keys(json: &str) -> Vec<&str> {
        let mut pieces: Vec<&str> = json.split("\":").collect();
        pieces.pop();
        pieces
            .into_iter()
            .map(|p| p.rsplit('"').next().unwrap())
            .collect()
    }

    #[test]
    fn json_has_stable_shape() {
        let config = ThroughputConfig {
            workload: WorkloadKind::PhaseShift {
                period: 64,
                shift: 1,
            },
            ..config(4, 500, SinkKind::Tee)
        };
        let json = render_throughput_json(&measure_throughput(&config));
        assert!(json.starts_with("{\n  \"workload\": \"phase-shift\",\n"));
        assert!(json.ends_with("}\n}"), "metrics object closes the report");
        // Top-level members sit at a two-space indent, one per line; slot
        // rows at four.
        let top = json.lines().filter(|l| l.starts_with("  \""));
        let top: Vec<&str> = top.map(|l| keys(l)[0]).collect();
        let expected = "workload threads objects events clock_width slots metrics";
        assert_eq!(top.join(" "), expected);
        let rows: Vec<&str> = json.lines().filter(|l| l.starts_with("    {")).collect();
        assert_eq!(rows.len(), 3, "ingest, sink:tee, obs:enabled");
        for row in &rows {
            assert_eq!(
                keys(row).join(" "),
                "name elapsed_ns events_per_sec relative"
            );
        }
        assert!(rows[0].starts_with("    {\"name\": \"ingest\", "));
        assert!(rows[0].ends_with("\"relative\": 1.0000},"), "{}", rows[0]);
    }

    #[test]
    fn uniform_64x64_is_the_acceptance_shape() {
        let c = ThroughputConfig::uniform_64x64(1_000);
        assert_eq!((c.threads, c.objects, c.net_clients), (64, 64, 4));
        assert_eq!(c.workload.name(), "uniform");
        assert_eq!(c.sink, SinkKind::Mem);
    }
}
