//! `live-narrow` and `live-wide`, layer by layer.

use std::any::Any;
use std::time::{Duration, Instant};

use mvc_benchmark::args::{Args, Workload};
use mvc_benchmark::live::{closed_pass, finish, live_session, LiveInput};
use mvc_benchmark::report::faults_and_sys_seconds;
use mvc_benchmark::stats::median;
use mvc_core::{EventSink, MemoryRecorder, StatsSink, Timestamper};
use mvc_shard::ShardedEngine;
use mvc_trace::{ObjectId, ThreadId};

use crate::spans;
use crate::wrappers::{SpanEngine, SpanSink};
use crate::Traced;

/// Window of the direct engine runs: small enough that the output buffer
/// stays cache-resident at width 4096, which the pipeline's 4096-event
/// window does not.
const DIRECT_WINDOW: usize = 512;

/// Keeps a pass's sink alive until the next pass has allocated its own, as
/// the untraced run does: freeing ~100 MB of stamps between passes would let
/// glibc trim the arena top, and the next pass would time page faults.
struct KeepAlive(Box<dyn Any>);

impl KeepAlive {
    fn hold(&mut self, sink: impl Any) {
        self.0 = Box::new(sink);
    }
}

pub fn run(args: &Args) -> Result<Traced, String> {
    if args.workload == Workload::LiveNarrow {
        measure(args, MemoryRecorder::new)
    } else {
        measure(args, StatsSink::new)
    }
}

/// Drives `pairs` through `engine` in [`DIRECT_WINDOW`]-event windows with a
/// reused output buffer and returns nanoseconds per event.
fn direct_windows<T: Timestamper>(
    name: &'static str,
    engine: &mut T,
    pairs: &[(ThreadId, ObjectId)],
) -> Result<f64, String> {
    let mut out = Vec::new();
    let started = Instant::now();
    let span = spans::enter(name, pairs.len() as u64);
    for window in pairs.chunks(DIRECT_WINDOW) {
        out.clear();
        engine
            .observe_batch(window, &mut out)
            .map_err(|e| e.to_string())?;
    }
    drop(span);
    Ok(started.elapsed().as_nanos() as f64 / pairs.len() as f64)
}

/// Page faults, kernel time and wall time summed over sections of the run.
#[derive(Default)]
struct KernelShare {
    faults: u64,
    sys_s: f64,
    wall_s: f64,
}

impl KernelShare {
    /// Runs `section` and adds what it cost.
    fn during<R>(&mut self, section: impl FnOnce() -> R) -> R {
        let (faults, sys_s) = faults_and_sys_seconds();
        let started = Instant::now();
        let result = section();
        self.wall_s += started.elapsed().as_secs_f64();
        let after = faults_and_sys_seconds();
        self.faults += after.0 - faults;
        self.sys_s += after.1 - sys_s;
        result
    }
}

fn measure<S: EventSink + 'static>(args: &Args, new_sink: fn() -> S) -> Result<Traced, String> {
    let mut traced = Traced::default();
    let registry = mvc_obs::global();

    let (input, reference) = LiveInput::build(args.workload, args.seed, args.corrupt);
    let (checked, wrong) = input.verification_pass(&reference)?;
    traced.outcome.attempted += checked;
    if wrong > 0 {
        traced.outcome.fail(
            wrong,
            format!("{wrong} of {checked} verified stamps differ from the reference"),
        );
    }
    traced.exact(
        "clock.changed_components_per_stamp",
        reference.changed_components_per_stamp(),
    );
    drop(reference);
    traced.exact("trace.generate_ns_per_event", input.generate_ns_per_event);
    traced.exact("clock.bytes_per_stamp", 8.0 * input.map.len() as f64);
    let warm = closed_pass(&input, new_sink())?;

    let events = input.ops.len();
    let started = Instant::now();
    let passes_until = started + Duration::from_secs_f64(args.seconds * 0.5);
    let direct_until = started + Duration::from_secs_f64(args.seconds * 0.85);
    let concurrent_until = started + Duration::from_secs_f64(args.seconds);

    // Untraced and traced closed passes, alternating, so that noise hits
    // both alike.  The registry is on only while a traced pass runs.
    let before = registry.snapshot();
    let mut untraced_events_per_s = Vec::new();
    let mut traced_passes = 0u64;
    let mut backlog_drain_ns = Vec::new();
    let (mut pass_kernel, mut backlog_kernel) = (KernelShare::default(), KernelShare::default());
    let mut keep = KeepAlive(Box::new(warm.sink));
    while traced_passes == 0 || Instant::now() < passes_until {
        let pass = pass_kernel.during(|| closed_pass(&input, new_sink()))?;
        untraced_events_per_s.push(events as f64 / (pass.produce + pass.drain).as_secs_f64());
        traced.outcome.attempted += events as u64;
        if pass.sink.events_accepted() != events {
            traced.outcome.fail(
                events as u64,
                format!(
                    "untraced pass delivered {} of {events}",
                    pass.sink.events_accepted()
                ),
            );
        }
        keep.hold(pass.sink);

        registry.set_enabled(true);
        let (mut live, producers) = live_session(
            input.shape,
            SpanEngine(input.engine()),
            SpanSink(new_sink()),
        );
        let pass_span = spans::enter("runtime.pass", events as u64);
        let mut pumped = Ok(0);
        for round in input.ops.chunks(input.shape.round) {
            let produce = spans::enter("runtime.produce", round.len() as u64);
            producers.stage(round);
            drop(produce);
            let _draining = spans::enter("runtime.drain", round.len() as u64);
            pumped = live.pump();
            if pumped.is_err() {
                break;
            }
        }
        let finishing = spans::enter("runtime.drain", 0);
        let finished = live.finish_into_sink();
        drop(finishing);
        drop(pass_span);
        registry.set_enabled(false);
        pumped.map_err(|e| e.to_string())?;
        let (sink, report) = finished.map_err(|(_, e)| e.to_string())?;
        traced.outcome.attempted += events as u64;
        if sink.events_accepted() != events || report.events != events {
            traced.outcome.fail(
                events as u64,
                format!(
                    "traced pass delivered {} of {events}",
                    sink.events_accepted()
                ),
            );
        }
        keep.hold(sink);
        traced_passes += 1;

        // The whole pass staged first, then drained as one backlog: the
        // pipeline's own 4096-event windows at work.
        let (live, producers) = live_session(input.shape, input.engine(), new_sink());
        producers.stage(&input.ops);
        let began = Instant::now();
        let (sink, _report) = backlog_kernel.during(|| finish(live))?;
        backlog_drain_ns.push(began.elapsed().as_nanos() as f64 / events as f64);
        keep.hold(sink);
    }
    drop(keep);
    let delta = registry.snapshot().delta(&before);

    // The same events through the engines directly.
    let pairs: Vec<(ThreadId, ObjectId)> = input.ops.iter().map(|op| (op.0, op.1)).collect();
    let mut engine_ns = Vec::new();
    let mut sharded_ns = Vec::new();
    let mut occupancy = 0.0;
    while engine_ns.is_empty() || Instant::now() < direct_until {
        let mut engine = input.engine();
        engine_ns.push(direct_windows("core.engine", &mut engine, &pairs)?);
        occupancy = engine.chunk_occupancy().unwrap_or(0.0);
        let mut sharded = ShardedEngine::with_components(input.map.clone(), 2);
        sharded_ns.push(direct_windows("shard.engine2", &mut sharded, &pairs)?);
    }

    // One producer thread staging while this thread pumps (`live-narrow`
    // only: the one figure taken with two busy threads).
    let mut concurrent = Vec::new();
    while args.workload == Workload::LiveNarrow
        && (concurrent.is_empty() || Instant::now() < concurrent_until)
    {
        let (mut live, producers) = live_session(input.shape, input.engine(), new_sink());
        let began = Instant::now();
        let span = spans::enter("runtime.concurrent", events as u64);
        let pumped = std::thread::scope(|scope| {
            scope.spawn(|| producers.stage(&input.ops));
            let mut delivered = 0;
            while delivered < events {
                delivered += live.pump().map_err(|e| e.to_string())?;
            }
            Ok::<usize, String>(delivered)
        });
        drop(span);
        let elapsed = began.elapsed();
        if pumped? != events {
            traced
                .outcome
                .fail(events as u64, "concurrent pass over-delivered".to_owned());
        }
        concurrent.push(events as f64 / elapsed.as_secs_f64());
    }

    traced.spans = spans::take();
    let totals = spans::totals(&traced.spans);
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_event = |ns: u64| ns as f64 / (traced_passes * events as u64) as f64;
    let (produce, draining, stamp, sink) = (
        of("runtime.produce"),
        of("runtime.drain"),
        of("core.stamp"),
        of("core.sink"),
    );
    let traced_events_per_s: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "runtime.pass")
        .map(|s| events as f64 / (s.duration_ns() as f64 / 1e9))
        .collect();

    traced.exact("runtime.produce_ns_per_event", per_event(produce.total_ns));
    traced.exact("runtime.drain_ns_per_event", per_event(draining.total_ns));
    traced.exact("runtime.merge_ns_per_event", per_event(draining.self_ns));
    traced.sampled("runtime.backlog_drain_ns_per_event", &backlog_drain_ns);
    let offered = (untraced_events_per_s.len() * events) as f64;
    traced.exact(
        "runtime.minor_faults_per_event",
        pass_kernel.faults as f64 / offered,
    );
    traced.exact(
        "runtime.sys_time_share",
        pass_kernel.sys_s / pass_kernel.wall_s,
    );
    traced.exact(
        "runtime.backlog_minor_faults_per_event",
        backlog_kernel.faults as f64 / offered,
    );
    traced.exact(
        "runtime.backlog_sys_time_share",
        backlog_kernel.sys_s / backlog_kernel.wall_s,
    );
    traced.exact("runtime.windows", stamp.count as f64 / traced_passes as f64);
    traced.exact(
        "runtime.events_per_window",
        stamp.batch as f64 / stamp.count.max(1) as f64,
    );
    let emitted = delta.counter("ingest.merge.emitted").unwrap_or(0);
    traced.exact(
        "runtime.merge_parks_per_event",
        delta.counter("ingest.merge.parked").unwrap_or(0) as f64 / emitted.max(1) as f64,
    );
    if !concurrent.is_empty() {
        traced.sampled("runtime.concurrent_events_per_s", &concurrent);
    }
    traced.exact("core.stamp_ns_per_event", per_event(stamp.total_ns));
    traced.exact("core.sink_ns_per_event", per_event(sink.total_ns));
    traced.sampled("core.engine_ns_per_event", &engine_ns);
    traced.exact("clock.chunk_occupancy", occupancy);
    traced.sampled("shard.engine2_ns_per_event", &sharded_ns);
    traced.exact(
        "shard.vs_engine_ratio",
        median(&engine_ns) / median(&sharded_ns),
    );
    traced.exact(
        "obs.traced_overhead_ratio",
        median(&traced_events_per_s) / median(&untraced_events_per_s),
    );

    // obs.parity: the registry saw exactly the events the traced passes
    // offered.  A mismatch is a failure, not a metric.
    let accepted = delta.counter("pipeline.events_accepted").unwrap_or(0);
    if accepted != traced_passes * events as u64 {
        traced.outcome.fail(
            events as u64,
            format!(
                "obs.parity: pipeline.events_accepted {accepted} != {} offered",
                traced_passes * events as u64
            ),
        );
    }
    Ok(traced)
}
