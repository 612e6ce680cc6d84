//! `live-narrow` and `live-wide`, end to end.

use std::time::{Duration, Instant};

use mvc_benchmark::args::{Args, Workload};
use mvc_benchmark::live::{closed_pass, LiveInput};
use mvc_benchmark::report::Outcome;
use mvc_benchmark::verify::digest;
use mvc_core::{EventSink, MemoryRecorder, TimestampReport};

/// What a delivered pass is checked against.
struct Expect {
    events: usize,
    width: usize,
    /// Digest of the full reference (`live-narrow` only: `live-wide`'s sink
    /// stores nothing to digest).
    digest: Option<u64>,
}

/// Why a pass is wrong, if it is.
fn pass_fault<S: EventSink>(expect: &Expect, sink: &S, report: &TimestampReport) -> Option<String> {
    let offered = expect.events;
    if sink.events_accepted() != offered || report.events != offered {
        return Some(format!(
            "offered {offered} events, the engine stamped {} and the sink accepted {}",
            report.events,
            sink.events_accepted()
        ));
    }
    if report.width() != expect.width {
        return Some(format!(
            "clock width {} != {}",
            report.width(),
            expect.width
        ));
    }
    let recorder = sink.as_any().downcast_ref::<MemoryRecorder>()?;
    let expected = expect.digest?;
    let delivered = digest(
        recorder.computation().events().map(|e| e.thread.index()),
        recorder.timestamps(),
    );
    (delivered != expected).then(|| "delivered stamps differ from the reference".to_owned())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.workload == Workload::LiveNarrow {
        measure(args, MemoryRecorder::new)
    } else {
        measure(args, mvc_core::StatsSink::new)
    }
}

fn measure<S: EventSink>(args: &Args, new_sink: fn() -> S) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();

    // Set-up, several times over: generation, plan, reference stamps, the
    // verification pass and one warm-up pass.  The last one is kept.
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..args.setup_repeats() {
        drop(kept.take());
        let started = Instant::now();
        let (input, reference) = LiveInput::build(args.workload, args.seed, args.corrupt);
        let verified = input.verification_pass(&reference)?;
        // Only the digest of a full reference is needed past this point; the
        // stamps themselves, as large as a pass's output, are dropped here.
        let digest = (reference.len() == input.ops.len()).then(|| reference.digest());
        drop(reference);
        let warm = closed_pass(&input, new_sink())?;
        setups.push(started.elapsed().as_secs_f64());
        kept = Some((input, verified, digest, warm));
    }
    let (input, (checked, wrong), digest, warm) = kept.expect("set-up ran at least once");
    outcome.attempted += checked;
    if wrong > 0 {
        outcome.fail(
            wrong,
            format!("{wrong} of {checked} verified stamps differ from the reference"),
        );
    }
    let expect = Expect {
        events: input.ops.len(),
        width: input.map.len(),
        digest,
    };

    // Closed passes until the time is up → events_per_s.
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let events = input.ops.len();
    let mut events_per_s = Vec::new();
    // The previous pass's sink stays alive until the next has allocated:
    // freeing ~100 MB of stamps between passes lets glibc trim the arena
    // top, and the next pass would time page faults instead of the pipeline.
    let mut keep = warm.sink;
    let mut report = warm.report;
    while events_per_s.is_empty() || Instant::now() < until {
        let pass = closed_pass(&input, new_sink())?;
        outcome.attempted += events as u64;
        if let Some(fault) = pass_fault(&expect, &pass.sink, &pass.report) {
            outcome.fail(events as u64, fault);
        }
        events_per_s.push(events as f64 / (pass.produce + pass.drain).as_secs_f64());
        keep = pass.sink;
        report = pass.report;
    }
    drop(keep);

    outcome.sampled("events_per_s", "events/s", &events_per_s);
    outcome.exact("clock_width", "components", report.width() as f64);
    outcome.memory_and_setup(&setups);
    Ok(outcome)
}
