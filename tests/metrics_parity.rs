//! Tier-1 metrics parity: the observability layer's counters must agree
//! with ground truth the rest of the workspace already measures.
//!
//! Nine oracles:
//!
//! 1. An 8-thread contended `TraceSession` workload drained through the
//!    live pipeline into a `StatsSink`: the global registry's
//!    `pipeline.events_accepted` delta equals both the sink's own count
//!    and the drained computation length — and the sink's adopted
//!    `sink.stats.*` cells report the same figures in the snapshot.
//! 2. A deterministic two-client networked session over the in-process
//!    transport: at quiescence `net.frames_sent == net.frames_received`
//!    and `net.bytes_sent == net.bytes_received` (both roles live in this
//!    process, so every frame written is eventually parsed).
//! 3. A snapshot-merge property: values recorded into one histogram and
//!    one counter from many threads are never lost or double-counted —
//!    the merged snapshot equals the sequential totals.
//! 4. The paper's own quantities: after a live run into a
//!    `CompetitiveSink`, the `analysis.competitive.*` gauges equal the
//!    sink's `offline_optimum()` / `online_size()`, and stay zero while
//!    the registry is disabled.
//!
//! 5. What a stamp stores: after a live run of clustered events at width
//!    4096 (one nonzero chunk of 64 per row) `pipeline.stamp_words` reads
//!    65 — the chunk and its mask word — not 4096; at width 64 it reads
//!    the width; and a disabled registry records nothing.
//!
//! 6. What a drain touches: `ingest.drain.buffers` sums to the number of
//!    clean→flagged edges the producers made — the distinct threads that
//!    published between two pumps, 3 of 2 048 registered in the first
//!    shape — with one record per drain that visited any buffer, none for
//!    an idle pump and none while the registry is disabled.
//!
//! 7. What the server holds for replay: `net.server.retransmit_bytes`
//!    rises by exactly the `Stamps` bytes a server puts in its outboxes,
//!    falls by a session's frames once `StampsAck` covers them, and is back
//!    at its start value when every session has completed — before the
//!    server itself goes away, since a completed session never resumes.
//!
//! 8. What a refused frame leaves: an `Events` frame whose last event names
//!    an unknown thread is refused whole — `net.server.events_ingested`
//!    does not move, a resume is acknowledged at watermark 0, and the
//!    events sent again draw the object's first tickets.
//!
//! 9. What a finished session leaves: across 2 000 sequential sessions
//!    through one server, `net.server.sessions_live`, `net.server.conns_live`
//!    and `net.server.retransmit_bytes` read after every session what they
//!    read after the first — where they started — and `finish` still
//!    returns every session's summary.
//!
//! Oracles 1, 2, 4, 5, 6, 7, 8 and 9 share the process-global registry, so
//! they are serialized behind one mutex; 1, 2, 5, 6 and 8 assert on
//! snapshot *deltas* only, 7 and 9 on the gauges' moves from their start
//! values.

mod support;

use std::thread;
use std::time::Duration;

use mvc_clock::{Component, ComponentMap};
use mvc_core::{StatsSink, TimestampingEngine};
use mvc_net::frame::{self, Frame, FrameReader};
use mvc_net::{
    ClientConfig, ConnId, InProcTransport, NetServer, ProducerClient, Recv, ServerConfig, Transport,
};
use mvc_online::{OnlineTimestamper, Popularity};
use mvc_runtime::{CompetitiveSink, TraceSession};
use mvc_trace::{ObjectId, OpKind, WorkloadBuilder, WorkloadKind};
use proptest::prelude::*;
use support::global_registry_lock;

#[test]
fn live_pipeline_counters_match_sink_ground_truth() {
    let _guard = global_registry_lock();
    let registry = mvc_obs::global();
    let was_enabled = registry.enabled();
    registry.set_enabled(true);
    let before = registry.snapshot();

    const THREADS: usize = 8;
    const WRITES: usize = 100;
    let session = TraceSession::new();
    let a = session.shared_object("a", 0u64);
    let b = session.shared_object("b", 0u64);
    let mut handles = Vec::new();
    for i in 0..THREADS {
        let worker = session.register_thread(&format!("worker-{i}"));
        let a = a.clone();
        let b = b.clone();
        handles.push(thread::spawn(move || {
            // Every thread hammers both objects: maximal contention on the
            // session channel and on the registry's sharded cells.
            for n in 0..WRITES {
                if (n + i) % 2 == 0 {
                    a.write(&worker, |v| *v += 1);
                } else {
                    b.write(&worker, |v| *v += 1);
                }
            }
        }));
    }
    let map = ComponentMap::all_threads(THREADS);
    let sink = StatsSink::new();
    sink.bind_metrics(registry);
    let live = session.live_with_sink(TimestampingEngine::with_components(map), sink);
    for handle in handles {
        handle.join().unwrap();
    }
    let (sink, report) = live.finish_into_sink().expect("pipeline drains clean");

    let delta = registry.snapshot().delta(&before);
    registry.set_enabled(was_enabled);

    // Ground truth: what the sink itself counted, and what the engine
    // reported stamping.
    let expected = (THREADS * WRITES) as u64;
    assert_eq!(sink.stats().events as u64, expected);
    assert_eq!(report.events as u64, expected);

    // The pipeline counter agrees exactly: every event accepted by the sink
    // was counted once, across 8 contended producer threads.
    assert_eq!(delta.counter("pipeline.events_accepted"), Some(expected));
    // Nothing was refused or retried in a clean run.
    assert_eq!(delta.counter("pipeline.events_refused").unwrap_or(0), 0);
    assert_eq!(delta.counter("pipeline.backlog_retries").unwrap_or(0), 0);
    // The adopted sink cells surface the same figures through the registry
    // (fresh cells, so the absolute snapshot equals the delta).
    assert_eq!(delta.counter("sink.stats.events"), Some(expected));
    assert_eq!(delta.counter("sink.stats.writes"), Some(expected));
    // The merge and stamp stages saw every event too.
    assert_eq!(delta.counter("ingest.merge.emitted"), Some(expected));
    let stamp = delta.histogram("pipeline.stamp_ns").expect("stamp hist");
    assert!(stamp.count > 0, "stamp latency histogram recorded batches");
}

#[test]
fn net_frames_sent_equal_frames_received_at_quiescence() {
    let _guard = global_registry_lock();
    let registry = mvc_obs::global();
    let was_enabled = registry.enabled();
    registry.set_enabled(true);
    let before = registry.snapshot();

    let mut server = NetServer::new(
        TimestampingEngine::new(),
        Box::new(mvc_core::MemoryRecorder::new()),
        ServerConfig::default(),
    );
    let zero = Some(Duration::ZERO);
    let mut links = Vec::new();
    let mut clients = Vec::new();
    for c in 0..2 {
        let (near, far) = InProcTransport::pair();
        let conn = server.connect();
        let config = ClientConfig::new(vec![format!("t{c}")], vec!["x".into(), "y".into()], true);
        clients.push(ProducerClient::connect(near, config).expect("connect"));
        links.push((conn, far));
    }
    for i in 0..60u64 {
        for client in &mut clients {
            client.record(0, (i % 2) as usize, OpKind::Write);
        }
    }
    for client in &mut clients {
        client.request_finish();
    }
    for _ in 0..10_000 {
        for client in &mut clients {
            if !client.is_finished() {
                client.step(zero).expect("client step");
            }
        }
        for (conn, far) in &mut links {
            server_round(&mut server, *conn, far);
        }
        if clients.iter().all(|c| c.is_finished()) {
            break;
        }
    }
    assert!(
        clients.iter().all(|c| c.is_finished()),
        "protocol converged"
    );
    // Drain any trailing server->client frames (e.g. credit grants written
    // after the client already had all its stamps) so both directions are
    // fully parsed before comparing the wire counters.
    for client in &mut clients {
        let _ = client.step(zero);
    }
    for run in clients.into_iter().map(|c| c.into_run().expect("run")) {
        assert_eq!(run.stamps.len(), 60);
    }

    let delta = registry.snapshot().delta(&before);
    registry.set_enabled(was_enabled);

    let sent = delta.counter("net.frames_sent").expect("frames sent");
    let received = delta
        .counter("net.frames_received")
        .expect("frames received");
    assert!(sent > 0, "the session exchanged frames");
    assert_eq!(sent, received, "every frame written was parsed");
    assert_eq!(
        delta.counter("net.bytes_sent"),
        delta.counter("net.bytes_received"),
        "framed byte counts agree in both directions"
    );
    // The server-side ingest counter matches the 2 x 60 recorded events.
    assert_eq!(delta.counter("net.server.events_ingested"), Some(120));
    assert_eq!(delta.counter("net.server.sessions_opened"), Some(2));
}

/// One server round for one connection by hand: feed what the client sent,
/// pump, and pass the outbox on — returned, so a test can weigh it.
fn server_round(
    server: &mut NetServer<TimestampingEngine>,
    conn: ConnId,
    far: &mut InProcTransport,
) -> Vec<u8> {
    let mut buf = [0u8; 16 * 1024];
    while let Ok(Recv::Bytes(n)) = far.recv(&mut buf, Some(Duration::ZERO)) {
        server.feed(conn, &buf[..n]).expect("feed");
    }
    server.pump().expect("pump");
    let out = server.take_outgoing(conn);
    far.send(&out).expect("send");
    out
}

#[test]
fn retransmit_bytes_gauge_holds_the_unacknowledged_frames() {
    let _guard = global_registry_lock();
    let registry = mvc_obs::global();
    let was_enabled = registry.enabled();
    registry.set_enabled(true);
    let gauge = registry.gauge("net.server.retransmit_bytes");
    let start = gauge.value();
    let held = || gauge.value() - start;

    let mut server = NetServer::new(
        TimestampingEngine::new(),
        Box::new(StatsSink::new()),
        ServerConfig {
            credit_window: 1 << 16,
            stamps_per_frame: 25,
        },
    );
    let zero = Some(Duration::ZERO);
    // Client 0 acknowledges every 50 stamps; client 1 never does.
    let mut links = Vec::new();
    let mut clients = Vec::new();
    for (c, ack_every) in [(0, 50), (1, u64::MAX)] {
        let (near, far) = InProcTransport::pair();
        let conn = server.connect();
        let mut config = ClientConfig::new(vec![format!("t{c}")], vec!["x".into()], true);
        config.ack_every = ack_every;
        let mut client = ProducerClient::connect(near, config).expect("connect");
        for _ in 0..100 {
            client.record(0, 0, OpKind::Write);
        }
        clients.push(client);
        links.push((conn, far));
    }
    for ((conn, far), client) in links.iter_mut().zip(&mut clients) {
        server_round(&mut server, *conn, far); // HelloAck
        client.step(zero).expect("the ack, then 100 events");
    }
    // Four frames of 25 stamps per session, all unacknowledged.
    let mut sent = Vec::new();
    for (conn, far) in &mut links {
        sent.push(server_round(&mut server, *conn, far).len() as i64);
    }
    assert!(sent.iter().all(|&bytes| bytes > 0));
    assert_eq!(held(), sent[0] + sent[1]);
    // Client 0's acknowledgements of 50 and 100 drop its frames.
    for ((conn, far), client) in links.iter_mut().zip(&mut clients) {
        client.step(zero).expect("the stamps");
        server_round(&mut server, *conn, far);
    }
    assert_eq!(held(), sent[1]);
    // Client 1's frames go when its session completes.
    for client in &mut clients {
        client.request_finish();
    }
    for _ in 0..100 {
        for ((conn, far), client) in links.iter_mut().zip(&mut clients) {
            client.step(zero).expect("client step");
            server_round(&mut server, *conn, far);
        }
        if clients.iter().all(|c| c.is_finished()) {
            break;
        }
    }
    assert!(
        clients.iter().all(|c| c.is_finished()),
        "sessions completed"
    );
    assert_eq!(held(), 0, "a completed session holds no frames");
    let run = server.finish().expect("finish");
    assert!(run.sessions.iter().all(|s| s.completed));
    assert_eq!(held(), 0);
    registry.set_enabled(was_enabled);
}

#[test]
fn a_completed_session_leaves_the_structure_gauges_where_it_found_them() {
    let _guard = global_registry_lock();
    let registry = mvc_obs::global();
    let was_enabled = registry.enabled();
    registry.set_enabled(true);
    let gauges = ["sessions_live", "conns_live", "retransmit_bytes"]
        .map(|name| registry.gauge(&format!("net.server.{name}")));
    let read = || gauges.each_ref().map(|g| g.value());
    let start = read();

    let mut server = NetServer::new(
        TimestampingEngine::new(),
        Box::new(StatsSink::new()),
        ServerConfig::default(),
    );
    assert_eq!(read(), start, "an empty server holds nothing");
    let mut after_first = None;
    for session in 0..2_000 {
        let (near, mut far) = InProcTransport::pair();
        let conn = server.connect();
        let threads = vec!["a".into(), "b".into()];
        let config = ClientConfig::new(threads, vec!["x".into(), "y".into()], true);
        let mut client = ProducerClient::connect(near, config).expect("connect");
        for i in 0..16 {
            client.record(i % 2, i / 3 % 2, OpKind::Write);
        }
        client.request_finish();
        server_round(&mut server, conn, &mut far); // the Hello
        let [sessions, conns, _] = read();
        assert_eq!((sessions, conns), (start[0] + 1, start[1] + 1), "one live");
        while !client.is_finished() {
            client.step(Some(Duration::ZERO)).expect("client step");
            server_round(&mut server, conn, &mut far);
        }
        let levels = read();
        assert_eq!(
            levels,
            *after_first.get_or_insert(levels),
            "after session {session}"
        );
    }
    assert_eq!(after_first, Some(start), "nothing live between sessions");
    let run = server.finish().expect("finish");
    assert_eq!(run.sessions.len(), 2_000);
    assert!(run.sessions.iter().all(|s| s.completed && s.ingested == 16));
    assert!(run.sessions.windows(2).all(|w| w[0].token < w[1].token));
    assert_eq!(read(), start);
    registry.set_enabled(was_enabled);
}

/// Sends a raw client's `frames` — behind a stream header and a `Hello` for
/// session `token` (0: a new one) with one thread and one object, stamps
/// wanted — over a fresh connection, runs one server round, and returns the
/// frames the server answered with.
fn raw_session_round(
    server: &mut NetServer<TimestampingEngine>,
    token: u64,
    frames: &[Frame],
) -> (ConnId, Vec<Frame>) {
    let conn = server.connect();
    let (mut near, mut far) = InProcTransport::pair();
    let mut bytes = Vec::new();
    frame::write_stream_header(&mut bytes);
    let hello = Frame::Hello {
        token,
        want_stamps: true,
        stamps_received: 0,
        threads: vec!["t".into()],
        objects: vec!["o".into()],
    };
    for frame in std::iter::once(&hello).chain(frames) {
        frame::write_frame(&mut bytes, frame);
    }
    near.send(&bytes).expect("send");
    server_round(server, conn, &mut far);
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    while let Ok(Recv::Bytes(n)) = near.recv(&mut buf, Some(Duration::ZERO)) {
        reader.feed(&buf[..n]);
    }
    let mut answer = Vec::new();
    while let Some(frame) = reader.try_next().expect("a well-formed server stream") {
        answer.push(frame);
    }
    (conn, answer)
}

#[test]
fn an_events_frame_with_an_unknown_id_ingests_nothing() {
    let _guard = global_registry_lock();
    let registry = mvc_obs::global();
    let was_enabled = registry.enabled();
    registry.set_enabled(true);
    let before = registry.snapshot();
    let ingested = || {
        registry
            .snapshot()
            .delta(&before)
            .counter("net.server.events_ingested")
            .unwrap_or(0)
    };

    let mut server = NetServer::new(
        TimestampingEngine::new(),
        Box::new(mvc_core::MemoryRecorder::new()),
        ServerConfig::default(),
    );
    let write = (0, 0, OpKind::Write);
    let refused = Frame::Events {
        events: vec![write, write, (1, 0, OpKind::Write)],
    };
    let (conn, answer) = raw_session_round(&mut server, 0, &[refused]);
    let token = match &answer[..] {
        [Frame::HelloAck { token, .. }, Frame::Error { code, message }] => {
            assert_eq!(*code, frame::error_code::PROTOCOL);
            assert!(message.contains("unknown local thread 1"), "got: {message}");
            *token
        }
        other => panic!("expected HelloAck and Error, got {other:?}"),
    };
    assert!(!server.is_open(conn));
    assert_eq!(ingested(), 0, "no event of the refused frame counts");

    // The resume starts from nothing, and the two events sent again draw
    // the object's first two tickets.
    let resent = [
        Frame::Events {
            events: vec![write, write],
        },
        Frame::Goodbye { events: 2 },
    ];
    let (_, answer) = raw_session_round(&mut server, token, &resent);
    assert!(
        matches!(answer.first(), Some(Frame::HelloAck { watermark: 0, .. })),
        "got: {answer:?}"
    );
    let stamps: Vec<_> = answer
        .iter()
        .filter_map(|frame| match frame {
            Frame::Stamps { stamps, .. } => Some(stamps),
            _ => None,
        })
        .flatten()
        .map(|stamp| stamp.as_slice().to_vec())
        .collect();
    assert_eq!(stamps, [[1], [2]]);
    assert_eq!(ingested(), 2);
    let run = server.finish().expect("finish");
    assert_eq!(run.report.events, 2);
    assert!(run.sessions[0].completed);
    registry.set_enabled(was_enabled);
}

/// One live run into a fresh [`CompetitiveSink`]: four threads over three
/// objects, stamped by an online mechanism so the clock width grows mid-run.
fn competitive_run() -> CompetitiveSink {
    let session = TraceSession::new();
    let objects: Vec<_> = (0..3)
        .map(|o| session.shared_object(&format!("o{o}"), 0u64))
        .collect();
    let workers: Vec<_> = (0..4)
        .map(|t| session.register_thread(&format!("t{t}")))
        .collect();
    let timestamper = OnlineTimestamper::new(Popularity::new());
    let mut live = session.live_with_sink(timestamper, CompetitiveSink::new());
    for round in 0..6 {
        for (t, worker) in workers.iter().enumerate() {
            objects[(t + round) % 3].write(worker, |v| *v += 1);
        }
        live.pump().expect("the competitive sink never refuses");
    }
    let (sink, _) = live.finish_into_sink().expect("pipeline drains clean");
    sink
}

#[test]
fn competitive_gauges_equal_the_sinks_optimum_and_width() {
    let _guard = global_registry_lock();
    let registry = mvc_obs::global();
    let was_enabled = registry.enabled();
    let gauges = |snapshot: &mvc_obs::Snapshot| {
        (
            snapshot.gauge("analysis.competitive.optimum"),
            snapshot.gauge("analysis.competitive.online_width"),
        )
    };

    // No other test in this process builds a competitive sink, so a disabled
    // run must leave both (registered) gauges at their initial zero.
    registry.set_enabled(false);
    let sink = competitive_run();
    assert_eq!(sink.offline_optimum(), 3, "3 objects cover 4 x 3 edges");
    assert_eq!(gauges(&registry.snapshot()), (Some(0), Some(0)));

    registry.set_enabled(true);
    let sink = competitive_run();
    let snapshot = registry.snapshot();
    registry.set_enabled(was_enabled);
    assert!(sink.online_size() >= sink.offline_optimum());
    assert_eq!(
        gauges(&snapshot),
        (
            Some(sink.offline_optimum() as i64),
            Some(sink.online_size() as i64)
        )
    );
}

/// One live run of 600 clustered events (clusters of 32 threads and 32
/// objects, like `live-wide`) with every endpoint a component — width
/// `2 * side` — and the `pipeline.stamp_words` it recorded as `(count, sum)`.
fn stamp_words_of_a_clustered_run(side: usize) -> (u64, u64) {
    let registry = mvc_obs::global();
    let before = registry.snapshot();
    let session = TraceSession::new();
    let workers: Vec<_> = (0..side)
        .map(|t| session.register_thread(&format!("t{t}")))
        .collect();
    let objects: Vec<_> = (0..side)
        .map(|o| session.shared_object(&format!("o{o}"), ()))
        .collect();
    let mut map = ComponentMap::all_threads(side);
    for o in 0..side {
        map.push(Component::Object(ObjectId(o)));
    }
    let live = session.live_with_sink(TimestampingEngine::with_components(map), StatsSink::new());
    let computation = WorkloadBuilder::new(side, side)
        .operations(600)
        .kind(WorkloadKind::Clustered {
            clusters: side.div_ceil(32),
        })
        .seed(5)
        .build();
    for event in computation.events() {
        objects[event.object.index()].apply(&workers[event.thread.index()], event.kind, |_| ());
    }
    let (sink, _) = live.finish_into_sink().expect("pipeline drains clean");
    assert_eq!(sink.stats().events, 600);
    let delta = registry.snapshot().delta(&before);
    delta
        .histogram("pipeline.stamp_words")
        .map_or((0, 0), |words| (words.count, words.sum))
}

#[test]
fn stamp_words_histogram_reports_what_stamps_store() {
    let _guard = global_registry_lock();
    let registry = mvc_obs::global();
    let was_enabled = registry.enabled();

    registry.set_enabled(false);
    assert_eq!(stamp_words_of_a_clustered_run(2048), (0, 0));

    registry.set_enabled(true);
    let wide = stamp_words_of_a_clustered_run(2048);
    let narrow = stamp_words_of_a_clustered_run(32);
    registry.set_enabled(was_enabled);
    // Every window's mean is exact here: each stamp stores one chunk and one
    // mask word at width 4096, and the whole vector at width 64.
    assert!(wide.0 > 0 && narrow.0 > 0);
    assert_eq!(wide.1, 65 * wide.0);
    assert_eq!(narrow.1, 64 * narrow.0);
}

/// One live run over 2 048 registered threads: each round performs one
/// write per listed thread (a thread listed twice publishes twice), then
/// pumps twice — the second pump is idle.  Returns what the run recorded
/// into `ingest.drain.buffers` as `(count, sum)`.
fn drain_buffers_of_a_run(rounds: &[&[usize]]) -> (u64, u64) {
    let registry = mvc_obs::global();
    let before = registry.snapshot();
    let session = TraceSession::new();
    let workers: Vec<_> = (0..2048)
        .map(|t| session.register_thread(&format!("t{t}")))
        .collect();
    let object = session.shared_object("o", 0u64);
    let timestamper = OnlineTimestamper::new(Popularity::new());
    let mut live = session.live_with_sink(timestamper, StatsSink::new());
    for round in rounds {
        for &t in *round {
            object.write(&workers[t], |v| *v += 1);
        }
        assert_eq!(live.pump().expect("pump"), round.len());
        assert_eq!(live.pump().expect("idle pump"), 0);
    }
    let (sink, _) = live.finish_into_sink().expect("pipeline drains clean");
    assert_eq!(
        sink.stats().events,
        rounds.iter().map(|r| r.len()).sum::<usize>()
    );
    let delta = registry.snapshot().delta(&before);
    delta
        .histogram("ingest.drain.buffers")
        .map_or((0, 0), |visits| (visits.count, visits.sum))
}

#[test]
fn drain_buffers_histogram_sums_to_the_clean_to_flagged_edges() {
    let _guard = global_registry_lock();
    let registry = mvc_obs::global();
    let was_enabled = registry.enabled();

    registry.set_enabled(false);
    assert_eq!(drain_buffers_of_a_run(&[&[7, 1000, 2047]]), (0, 0));

    registry.set_enabled(true);
    let sparse = drain_buffers_of_a_run(&[&[7, 1000, 2047]]);
    let repeated = drain_buffers_of_a_run(&[&[5, 5, 9], &[], &[9], &[0, 1, 2, 3, 0, 1, 2, 3]]);
    registry.set_enabled(was_enabled);
    // One drain visited three of the 2 048 buffers; the idle pump, and the
    // final drain of `finish`, visited none and recorded nothing.
    assert_eq!(sparse, (1, 3));
    // Distinct publishers per round: 2 + 0 + 1 + 4, over three drains.
    assert_eq!(repeated, (3, 7));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merge-on-snapshot loses nothing: `threads` workers each record a
    /// disjoint slice of `values` into one shared histogram and bump one
    /// shared counter; the merged snapshot equals the sequential totals.
    #[test]
    fn snapshot_merge_equals_sequential_totals(
        values in proptest::collection::vec(0u64..1_000_000, 1..200),
        threads in 1usize..8,
    ) {
        // A private registry: fully isolated from the process-global one,
        // so this property runs in parallel with everything else.
        let registry = mvc_obs::Registry::new();
        let histogram = registry.histogram("parity.hist");
        let counter = registry.counter("parity.count");
        thread::scope(|scope| {
            for chunk in values.chunks(values.len().div_ceil(threads)) {
                let histogram = histogram.clone();
                let counter = counter.clone();
                scope.spawn(move || {
                    for &v in chunk {
                        histogram.record(v);
                        counter.add(v);
                    }
                });
            }
        });
        let snapshot = registry.snapshot();
        let total: u64 = values.iter().sum();
        prop_assert_eq!(snapshot.counter("parity.count"), Some(total));
        let merged = snapshot.histogram("parity.hist").expect("histogram");
        prop_assert_eq!(merged.count, values.len() as u64);
        prop_assert_eq!(merged.sum, total);
        // Bucket mass conservation: bucket counts sum to the record count.
        prop_assert_eq!(merged.buckets.iter().sum::<u64>(), values.len() as u64);
    }
}
