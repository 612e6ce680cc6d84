//! `net-echo`, layer by layer.
//!
//! The traced sessions do not use `serve_tcp`: the benchmark owns a
//! single-threaded server loop over `NetServer::{connect, feed, pump,
//! take_outgoing}` and an accepted `TcpTransport`, so that each step of the
//! handler is a span.  The loop mirrors `serve_tcp`'s handler: block on the
//! socket, drain what is queued, feed, pump, send.

use std::collections::HashMap;
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mvc_benchmark::args::Args;
use mvc_benchmark::net::{
    listen, open_slice, session_fault, timed_session, verify, NetInput, BATCH,
};
use mvc_benchmark::stats::{median, quantile};
use mvc_benchmark::verify::digest;
use mvc_core::{StatsSink, TimestampingEngine};
use mvc_net::frame::{write_frame, write_stream_header};
use mvc_net::{
    ClientRun, Frame, FrameReader, NetServer, ProducerClient, Recv, ServerConfig, ServerRun,
    TcpTransport, Transport,
};

use crate::spans::{self, Span};
use crate::wrappers::{SpanEngine, SpanSink, SpanTransport};
use crate::Traced;

type TracedServer = JoinHandle<Result<(ServerRun, Vec<Span>), String>>;

/// The benchmark-owned handler loop for one connection, on its own thread.
fn spawn_traced_server(listener: TcpListener) -> TracedServer {
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        let mut transport = SpanTransport::server(TcpTransport::new(stream));
        let mut server = NetServer::new(
            SpanEngine(TimestampingEngine::new()),
            Box::new(SpanSink(StatsSink::new())),
            ServerConfig::default(),
        );
        let conn = server.connect();
        let mut buf = vec![0u8; 256 * 1024];
        let mut staged = Vec::with_capacity(512 * 1024);
        let mut closed = false;
        while server.is_open(conn) && !closed {
            staged.clear();
            let mut timeout = Some(Duration::from_millis(5));
            while staged.len() < (1 << 20) {
                match transport
                    .recv(&mut buf, timeout)
                    .map_err(|e| e.to_string())?
                {
                    Recv::Bytes(n) => staged.extend_from_slice(&buf[..n]),
                    Recv::Empty => break,
                    Recv::Closed => {
                        closed = true;
                        break;
                    }
                }
                timeout = Some(Duration::ZERO);
            }
            if !staged.is_empty() {
                let _span = spans::enter("net.server.feed", staged.len() as u64);
                server.feed(conn, &staged).map_err(|e| e.to_string())?;
            }
            if closed {
                server.disconnect(conn);
            }
            {
                let span = spans::enter("net.server.pump", 0);
                span.set_batch(server.pump().map_err(|e| e.to_string())? as u64);
            }
            let out = server.take_outgoing(conn);
            if !out.is_empty() {
                transport.send(&out).map_err(|e| e.to_string())?;
            }
        }
        // The session is complete and its goodbye written; wait for the
        // client to close its end, as `serve_tcp` does, so that a trailing
        // client frame cannot turn the close into a reset.
        for _ in 0..200 {
            if closed {
                break;
            }
            match transport.recv(&mut buf, Some(Duration::from_millis(5))) {
                Ok(Recv::Bytes(_) | Recv::Empty) => {}
                Ok(Recv::Closed) | Err(_) => closed = true,
            }
        }
        let run = server.finish().map_err(|e| e.to_string())?;
        Ok((run, spans::take()))
    })
}

/// One closed session through the span-recording transport, driven step by
/// step (`batch` of a `net.client.step` span = the backlog it started with).
fn traced_session(input: &NetInput) -> Result<(ClientRun, ServerRun, Vec<Span>), String> {
    let (listener, addr) = listen()?;
    let server = spawn_traced_server(listener);
    let session = spans::enter("net.session", input.ops.len() as u64);
    let transport = SpanTransport::client(TcpTransport::connect(addr).map_err(|e| e.to_string())?);
    let mut client = ProducerClient::connect(transport, input.client_config(16384))
        .map_err(|e| e.to_string())?;
    for &(thread, object, kind) in &input.ops {
        client.record(thread as usize, object as usize, kind);
    }
    client.request_finish();
    while !client.is_finished() {
        let _step = spans::enter("net.client.step", client.backlog());
        client
            .step(Some(Duration::from_millis(5)))
            .map_err(|e| e.to_string())?;
    }
    drop(session);
    let run = client.into_run().map_err(|e| e.to_string())?;
    let (server_run, server_spans) = server
        .join()
        .map_err(|_| "the traced server thread panicked".to_owned())??;
    Ok((run, server_run, server_spans))
}

/// Median nanoseconds per item of `encode` and of decoding what it wrote.
fn codec_ns_per_item(frame: &Frame, items: usize, budget: Duration) -> (f64, f64) {
    let mut encoded = Vec::new();
    let (mut encode_ns, mut decode_ns) = (Vec::new(), Vec::new());
    let until = Instant::now() + budget;
    while encode_ns.len() < 5 || (Instant::now() < until && encode_ns.len() < 2000) {
        encoded.clear();
        write_stream_header(&mut encoded);
        let started = Instant::now();
        write_frame(&mut encoded, std::hint::black_box(frame));
        encode_ns.push(started.elapsed().as_nanos() as f64 / items as f64);
        let mut reader = FrameReader::new();
        let started = Instant::now();
        reader.feed(&encoded);
        let decoded = reader.try_next();
        decode_ns.push(started.elapsed().as_nanos() as f64 / items as f64);
        assert!(
            matches!(&decoded, Ok(Some(f)) if f == frame),
            "frame codec round trip"
        );
    }
    (median(&encode_ns), median(&decode_ns))
}

pub fn run(args: &Args) -> Result<Traced, String> {
    let mut traced = Traced::default();
    let registry = mvc_obs::global();

    let input = NetInput::build(args.seed);
    let verified = verify(&input, args.corrupt, false)?;
    traced.outcome.attempted += verified.checked;
    if verified.wrong > 0 {
        traced.outcome.fail(
            verified.wrong,
            format!(
                "{} of {} returned stamps differ from the sequential replay",
                verified.wrong, verified.checked
            ),
        );
    }
    traced.exact(
        "clock.changed_components_per_stamp",
        verified.changed_components_per_stamp,
    );
    traced.exact("clock.bytes_per_stamp", 8.0 * verified.width as f64);
    traced.exact("trace.generate_ns_per_event", input.generate_ns_per_event);
    timed_session(&input)?;

    let events = input.ops.len();
    let started = Instant::now();
    let closed_until = started + Duration::from_secs_f64(args.seconds * 0.5);
    let open_until = started + Duration::from_secs_f64(args.seconds * 0.85);
    let codec_budget = Duration::from_secs_f64(args.seconds * 0.05);

    // Phase A: untraced (`serve_tcp`) and traced sessions, alternating.
    let before = registry.snapshot();
    let mut untraced_events_per_s = Vec::new();
    let mut server_spans: Vec<Span> = Vec::new();
    let mut sessions = 0u64;
    while sessions == 0 || Instant::now() < closed_until {
        let (elapsed, run, server) = timed_session(&input)?;
        untraced_events_per_s.push(events as f64 / elapsed.as_secs_f64());
        traced.outcome.attempted += events as u64;
        if let Some(fault) = session_fault(events, &run, &server, verified.width) {
            traced.outcome.fail(events as u64, fault);
        }
        drop(run);

        registry.set_enabled(true);
        let session = traced_session(&input);
        registry.set_enabled(false);
        let (run, server, spans) = session?;
        traced.outcome.attempted += events as u64;
        let fault = session_fault(events, &run, &server, verified.width).or_else(|| {
            (digest(input.client_threads(), &run.stamps) != verified.digest)
                .then(|| "returned stamps differ from the reference".to_owned())
        });
        if let Some(fault) = fault {
            traced.outcome.fail(events as u64, fault);
        }
        server_spans.extend(spans);
        sessions += 1;
    }
    let delta = registry.snapshot().delta(&before);
    let client_spans = spans::take();

    // Phase B: the open loop's tail, on the system's own server.
    let mut latencies = Vec::new();
    let mut max_late_us = 0.0f64;
    let mut slices = 0;
    while slices == 0 || Instant::now() < open_until {
        let (measured, run, server) = open_slice(&input, slices)?;
        slices += 1;
        let offered = run.events as usize;
        traced.outcome.attempted += offered as u64;
        if let Some(fault) = session_fault(offered, &run, &server, verified.width) {
            traced.outcome.fail(offered as u64, fault);
        }
        max_late_us = max_late_us.max(measured.max_late_us);
        latencies.extend(measured.latencies_us);
    }

    // The frame codec on its own.
    let events_frame = |n: usize| Frame::Events {
        events: input.ops[..n].to_vec(),
    };
    let (enc, dec) = codec_ns_per_item(&events_frame(16384), 16384, codec_budget);
    traced.exact("net.frame_encode_events_ns_per_event", enc);
    traced.exact("net.frame_decode_events_ns_per_event", dec);
    let (enc, dec) = codec_ns_per_item(&events_frame(BATCH), BATCH, codec_budget);
    traced.exact("net.frame_encode_events128_ns_per_event", enc);
    traced.exact("net.frame_decode_events128_ns_per_event", dec);
    let stamps_frame = Frame::Stamps {
        first: 0,
        stamps: verified.sample_stamps.clone(),
    };
    let (enc, dec) = codec_ns_per_item(&stamps_frame, verified.sample_stamps.len(), codec_budget);
    traced.exact("net.frame_encode_stamps_ns_per_event", enc);
    traced.exact("net.frame_decode_stamps_ns_per_event", dec);

    // Per-event budgets from the spans of the traced sessions.
    let total_events = (sessions * events as u64) as f64;
    let client = spans::totals(&client_spans);
    let server = spans::totals(&server_spans);
    let of = |totals: &HashMap<&'static str, spans::Total>, name: &str| {
        totals.get(name).copied().unwrap_or_default()
    };
    let per_event = |ns: u64| ns as f64 / total_events;
    // Waiting counts as waiting on credit only while events are backlogged.
    let backlogged: HashMap<u64, bool> = client_spans
        .iter()
        .filter(|s| s.name == "net.client.step")
        .map(|s| (s.id, s.batch > 0))
        .collect();
    let credit_wait_ns: u64 = client_spans
        .iter()
        .filter(|s| s.name == "net.client.wait")
        .filter(|s| s.parent.is_some_and(|p| backlogged.get(&p) == Some(&true)))
        .map(Span::duration_ns)
        .sum();
    traced.exact(
        "net.client_step_ns_per_event",
        per_event(of(&client, "net.client.step").self_ns),
    );
    traced.exact(
        "net.client_send_ns_per_event",
        per_event(of(&client, "net.client.send").total_ns),
    );
    traced.exact(
        "net.client_recv_ns_per_event",
        per_event(of(&client, "net.client.recv").total_ns),
    );
    traced.exact("net.client_wait_ns_per_event", per_event(credit_wait_ns));
    let pump = of(&server, "net.server.pump");
    let busy_ns = of(&server, "net.server.recv").total_ns
        + of(&server, "net.server.feed").total_ns
        + pump.total_ns
        + of(&server, "net.server.send").total_ns;
    traced.exact(
        "net.server_recv_ns_per_event",
        per_event(of(&server, "net.server.recv").total_ns),
    );
    traced.exact(
        "net.server_feed_ns_per_event",
        per_event(of(&server, "net.server.feed").total_ns),
    );
    traced.exact("net.server_pump_ns_per_event", per_event(pump.total_ns));
    traced.exact("net.server_pump_self_ns_per_event", per_event(pump.self_ns));
    traced.exact(
        "net.server_send_ns_per_event",
        per_event(of(&server, "net.server.send").total_ns),
    );
    traced.exact(
        "net.server_wait_ns_per_event",
        per_event(of(&server, "net.server.wait").total_ns),
    );
    traced.exact(
        "core.stamp_ns_per_event",
        per_event(of(&server, "core.stamp").total_ns),
    );
    traced.exact(
        "core.sink_ns_per_event",
        per_event(of(&server, "core.sink").total_ns),
    );
    let stamp = of(&server, "core.stamp");
    traced.exact("runtime.windows", stamp.count as f64 / sessions as f64);
    traced.exact(
        "runtime.events_per_window",
        stamp.batch as f64 / stamp.count.max(1) as f64,
    );
    let wall_ns = of(&client, "net.session").total_ns;
    traced.exact(
        "net.residual_share",
        1.0 - busy_ns as f64 / wall_ns.max(1) as f64,
    );
    // The transport spans carry the bytes they moved: the benchmark's own
    // count of what crossed the client's socket.
    let sent = of(&client, "net.client.send");
    let (bytes_up, frames_up) = (sent.batch, sent.count);
    let bytes_down = of(&client, "net.client.recv").batch + of(&client, "net.client.wait").batch;
    traced.exact(
        "net.wire_bytes_up_per_event",
        bytes_up as f64 / total_events,
    );
    traced.exact(
        "net.wire_bytes_down_per_event",
        bytes_down as f64 / total_events,
    );
    let frames_sent = delta.counter("net.frames_sent").unwrap_or(0);
    traced.exact("net.frames_up", frames_up as f64 / sessions as f64);
    traced.exact(
        "net.frames_down",
        frames_sent.saturating_sub(frames_up) as f64 / sessions as f64,
    );
    traced.exact("net.stamp_latency_p95_us", quantile(&latencies, 0.95));
    traced.exact("net.stamp_latency_p99_us", quantile(&latencies, 0.99));
    traced.exact(
        "net.late_share_5ms",
        latencies.iter().filter(|&&us| us > 5000.0).count() as f64 / latencies.len() as f64,
    );
    traced.exact("net.generator_max_late_us", max_late_us);
    let traced_events_per_s: Vec<f64> = client_spans
        .iter()
        .filter(|s| s.name == "net.session")
        .map(|s| events as f64 / (s.duration_ns() as f64 / 1e9))
        .collect();
    traced.exact(
        "obs.traced_overhead_ratio",
        median(&traced_events_per_s) / median(&untraced_events_per_s),
    );

    // obs.parity: the registry's byte count equals the wrapper's.  Each
    // direction's 4-byte stream header is not a frame, so the registry does
    // not count it.
    let registry_bytes = delta.counter("net.bytes_sent").unwrap_or(0);
    let wrapper_bytes = bytes_up + bytes_down - 8 * sessions;
    if registry_bytes != wrapper_bytes {
        traced.outcome.fail(
            events as u64,
            format!("obs.parity: net.bytes_sent {registry_bytes} != {wrapper_bytes} on the socket"),
        );
    }
    let ingested = delta.counter("net.server.events_ingested").unwrap_or(0);
    if ingested != sessions * events as u64 {
        traced.outcome.fail(
            events as u64,
            format!(
                "obs.parity: net.server.events_ingested {ingested} != {} offered",
                sessions * events as u64
            ),
        );
    }

    traced.spans = client_spans;
    traced.spans.extend(server_spans);
    Ok(traced)
}
