//! `net-echo`, end to end: the system's own `serve_tcp` server on a
//! background thread, one `ProducerClient` over `TcpTransport`.

use std::time::{Duration, Instant};

use mvc_benchmark::args::Args;
use mvc_benchmark::net::{open_slice, session_fault, timed_session, verify, NetInput};
use mvc_benchmark::report::Outcome;
use mvc_benchmark::stats::median;
use mvc_benchmark::verify::digest;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();

    // Set-up, several times over: generation, the verification session with
    // its reference replay, and one warm-up session.  The last one is kept.
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..args.setup_repeats() {
        drop(kept.take());
        let started = Instant::now();
        let input = NetInput::build(args.seed);
        let verified = verify(&input, args.corrupt, true)?;
        timed_session(&input)?;
        setups.push(started.elapsed().as_secs_f64());
        kept = Some((input, verified));
    }
    let (input, verified) = kept.expect("set-up ran at least once");
    outcome.attempted += verified.checked;
    if verified.wrong > 0 {
        outcome.fail(
            verified.wrong,
            format!(
                "{} of {} returned stamps differ from the sequential replay",
                verified.wrong, verified.checked
            ),
        );
    }

    // One measuring cycle = one closed session (phase A) and one open-loop
    // session slice (phase B), so that both metrics' samples spread over the
    // whole run and a slow spell of the host touches both alike.
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let events = input.ops.len();
    let mut events_per_s = Vec::new();
    let mut stamp_latency_p50_us = Vec::new();
    let mut max_late_us = 0.0f64;
    let mut cycle = 0;
    while cycle == 0 || Instant::now() < until {
        // Phase A, closed loop at saturation → events_per_s.
        let (elapsed, run, server) = timed_session(&input)?;
        outcome.attempted += events as u64;
        let fault = session_fault(events, &run, &server, verified.width).or_else(|| {
            (digest(input.client_threads(), &run.stamps) != verified.digest)
                .then(|| "returned stamps differ from the reference".to_owned())
        });
        if let Some(fault) = fault {
            outcome.fail(events as u64, fault);
        }
        events_per_s.push(events as f64 / elapsed.as_secs_f64());
        drop(run);

        // Phase B, open loop → stamp_latency_p50_us.
        let (measured, run, server) = open_slice(&input, cycle)?;
        let offered = run.events as usize;
        outcome.attempted += offered as u64;
        if let Some(fault) = session_fault(offered, &run, &server, verified.width) {
            outcome.fail(offered as u64, fault);
        }
        max_late_us = max_late_us.max(measured.max_late_us);
        stamp_latency_p50_us.push(median(&measured.latencies_us));
        cycle += 1;
    }
    outcome.notes.push(format!(
        "open loop: the generator ran at most {max_late_us:.0} us late"
    ));

    let (up, down) = verified
        .wire_bytes
        .expect("the verification session was relayed");
    outcome.sampled("events_per_s", "events/s", &events_per_s);
    outcome.sampled("stamp_latency_p50_us", "us", &stamp_latency_p50_us);
    outcome.exact(
        "wire_bytes_per_event",
        "bytes",
        (up + down) as f64 / verified.checked as f64,
    );
    outcome.exact("clock_width", "components", verified.width as f64);
    outcome.memory_and_setup(&setups);
    Ok(outcome)
}
