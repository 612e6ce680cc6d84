//! The networked service driven deterministically over the in-process
//! transport: multi-client merging, stamp routing, backpressure,
//! frame-boundary failure (truncation and corruption), version mismatch,
//! the mid-stream disconnect + reconnect-and-replay story, and the stamp
//! retransmit log (resumes on frame boundaries, byte-identical replays,
//! stamps kept across a cut), a user sink that refuses windows while
//! stamps are on their way back, and what a finished session or connection
//! leaves: a completed session cannot be resumed, and a stale connection
//! id reaches nothing.
//!
//! No sockets: every test runs single-threaded over
//! [`InProcTransport`] pairs, alternating client
//! [`step`](ProducerClient::step)s with server
//! [`service`](NetServer::service) rounds.  (The equality-with-batch
//! oracle lives in `tests/conformance.rs` as oracle 9; this file covers
//! the protocol and failure machinery itself.)

use std::time::Duration;

use mvc_clock::VectorTimestamp;
use mvc_core::{BatchReplay, EventSink, MemoryRecorder, SinkError, TimestampingEngine};
use mvc_net::frame::{self, Frame, FrameReader};
use mvc_net::{
    ClientConfig, ConnId, InProcTransport, NetError, NetServer, ProducerClient, ServerConfig,
    Transport, TransportError,
};
use mvc_trace::{ObjectId, OpKind, ThreadId};

const ZERO: Option<Duration> = Some(Duration::ZERO);

type Server = NetServer<TimestampingEngine>;
type Client = ProducerClient<InProcTransport>;

fn new_server(config: ServerConfig) -> Server {
    NetServer::new(
        TimestampingEngine::new(),
        Box::new(MemoryRecorder::new()),
        config,
    )
}

/// One client/server link: the server-side transport half plus the conn id.
struct Link {
    conn: ConnId,
    far: InProcTransport,
}

fn connect(server: &mut Server, config: ClientConfig) -> (Client, Link, InProcTransport) {
    let (near, far) = InProcTransport::pair();
    let spy = near.clone();
    let conn = server.connect();
    let client = ProducerClient::connect(near, config).expect("connect");
    (client, Link { conn, far }, spy)
}

/// Alternates client steps and server service rounds until every client
/// finished (or panics after a generous round cap — the protocol is
/// supposed to converge without any timing assumptions).
fn drive(server: &mut Server, links: &mut [Link], clients: &mut [&mut Client]) {
    for _ in 0..10_000 {
        for client in clients.iter_mut() {
            if !client.is_finished() {
                client.step(ZERO).expect("client step");
            }
        }
        for link in links.iter_mut() {
            server.service(link.conn, &mut link.far).expect("service");
        }
        if clients.iter().all(|c| c.is_finished()) {
            return;
        }
    }
    panic!("protocol did not converge");
}

/// Reads every frame currently deliverable on a raw transport half.
fn read_frames(transport: &mut InProcTransport, reader: &mut FrameReader) -> Vec<Frame> {
    let mut buf = [0u8; 16 * 1024];
    let mut frames = Vec::new();
    while let Ok(mvc_net::Recv::Bytes(n)) = transport.recv(&mut buf, ZERO) {
        reader.feed(&buf[..n]);
    }
    while let Some(frame) = reader.try_next().expect("well-formed server stream") {
        frames.push(frame);
    }
    frames
}

#[test]
fn two_clients_share_objects_and_get_their_stamps_back() {
    let mut server = new_server(ServerConfig::default());
    let (mut a, mut link_a, _) = connect(
        &mut server,
        ClientConfig::new(
            vec!["a0".into(), "a1".into()],
            vec!["x".into(), "y".into()],
            true,
        ),
    );
    let (mut b, mut link_b, _) = connect(
        &mut server,
        ClientConfig::new(vec!["b0".into()], vec!["y".into(), "z".into()], true),
    );
    for i in 0..40 {
        a.record(i % 2, i % 2, OpKind::Write);
        b.record(0, i % 2, OpKind::Read);
    }
    a.request_finish();
    b.request_finish();
    drive(
        &mut server,
        std::slice::from_mut(&mut link_a),
        &mut [&mut a],
    );
    drive(
        &mut server,
        std::slice::from_mut(&mut link_b),
        &mut [&mut b],
    );
    let run_a = a.into_run().expect("a finished");
    let run_b = b.into_run().expect("b finished");
    assert_eq!(run_a.stamps.len(), 40);
    assert_eq!(run_b.stamps.len(), 40);
    // Objects are shared by name: A's "y" and B's "y" are one object.
    assert_eq!(run_a.object_ids[1], run_b.object_ids[0]);
    assert_ne!(run_a.object_ids[0], run_b.object_ids[1]);

    let run = server.finish().expect("server finish");
    assert_eq!(run.report.events, 80);
    assert_eq!(run.sessions.len(), 2);
    assert!(run.sessions.iter().all(|s| s.completed));
    let recorder = run
        .sink
        .as_any()
        .downcast_ref::<MemoryRecorder>()
        .expect("mem sink");
    assert_eq!(recorder.computation().len(), 80);
    // Three distinct objects total: x, y (shared), z.
    assert_eq!(run.report.components.len(), 3);

    // Routing correctness: for each client thread, the client's stamp
    // subsequence for that thread equals the server's stamp subsequence
    // for the same (global) thread — same stamps, same per-thread order.
    let (computation, timestamps) = (recorder.computation(), recorder.timestamps());
    for (run, config) in [(&run_a, 2usize), (&run_b, 1usize)] {
        for local in 0..config {
            let global = run.thread_ids[local] as usize;
            let server_side: Vec<_> = computation
                .events()
                .zip(timestamps)
                .filter(|(e, _)| e.thread.index() == global)
                .map(|(_, ts)| ts.clone())
                .collect();
            // Client events alternate threads in record order.
            let client_side: Vec<_> = run
                .stamps
                .iter()
                .enumerate()
                .filter(|(i, _)| i % config == local)
                .map(|(_, ts)| ts.clone())
                .collect();
            assert_eq!(client_side, server_side, "thread {local} of {config}");
        }
    }
}

#[test]
fn tiny_credit_window_backpressures_but_completes() {
    let mut server = new_server(ServerConfig {
        credit_window: 8,
        stamps_per_frame: 3,
    });
    let (mut client, mut link, _) = connect(
        &mut server,
        ClientConfig::new(vec!["t".into()], vec!["o".into()], true),
    );
    for _ in 0..100 {
        client.record(0, 0, OpKind::Op);
    }
    client.request_finish();
    drive(
        &mut server,
        std::slice::from_mut(&mut link),
        &mut [&mut client],
    );
    let run = client.into_run().expect("finished");
    assert_eq!(run.stamps.len(), 100);
    // Stamps are the per-object sequence 1..=100 (single object cover).
    for (i, stamp) in run.stamps.iter().enumerate() {
        assert_eq!(stamp.as_slice(), &[(i + 1) as u64]);
    }
}

#[test]
fn an_overrun_of_the_credit_window_is_rejected_with_an_error_frame() {
    let mut server = new_server(ServerConfig {
        credit_window: 4,
        stamps_per_frame: 16,
    });
    let conn = server.connect();
    let (mut near, mut far) = InProcTransport::pair();

    let mut hello = Vec::new();
    frame::write_stream_header(&mut hello);
    frame::write_frame(
        &mut hello,
        &Frame::Hello {
            token: 0,
            want_stamps: false,
            stamps_received: 0,
            threads: vec!["t".into()],
            objects: vec!["o".into()],
        },
    );
    near.send(&hello).unwrap();
    server.service(conn, &mut far).unwrap();
    let mut reader = FrameReader::new();
    let frames = read_frames(&mut near, &mut reader);
    let credit = match &frames[..] {
        [Frame::HelloAck { credit, .. }] => *credit,
        other => panic!("expected HelloAck, got {other:?}"),
    };
    assert_eq!(credit, 4);

    // A rogue client ignores the window and sends credit + 1 events.
    let mut overrun = Vec::new();
    frame::write_frame(
        &mut overrun,
        &Frame::Events {
            events: vec![(0, 0, OpKind::Op); credit as usize + 1],
        },
    );
    near.send(&overrun).unwrap();
    server.service(conn, &mut far).unwrap();
    assert!(!server.is_open(conn), "overrun closes the connection");
    let frames = read_frames(&mut near, &mut reader);
    match &frames[..] {
        [Frame::Error { code, message }] => {
            assert_eq!(*code, frame::error_code::PROTOCOL);
            assert!(message.contains("credit"), "got: {message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // Nothing from the rejected frame was ingested.
    let run = server.finish().expect("finish");
    assert_eq!(run.report.events, 0);
}

#[test]
fn a_wrong_protocol_version_fails_loudly_not_silently() {
    let mut server = new_server(ServerConfig::default());
    let conn = server.connect();
    let (mut near, mut far) = InProcTransport::pair();
    near.send(b"MVN\x09junkjunkjunk").unwrap();
    server.service(conn, &mut far).unwrap();
    assert!(!server.is_open(conn));
    let mut reader = FrameReader::new();
    let frames = read_frames(&mut near, &mut reader);
    match &frames[..] {
        [Frame::Error { message, .. }] => {
            assert!(message.contains("version 9"), "got: {message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn corruption_mid_stream_closes_the_connection_but_not_the_session() {
    let mut server = new_server(ServerConfig::default());
    let (mut client, mut link, spy) = connect(
        &mut server,
        ClientConfig::new(vec!["t".into()], vec!["o".into()], true),
    );
    // Handshake, then a first batch of events.
    server.service(link.conn, &mut link.far).unwrap();
    client.step(ZERO).unwrap();
    for _ in 0..10 {
        client.record(0, 0, OpKind::Write);
    }
    client.step(ZERO).unwrap();
    server.service(link.conn, &mut link.far).unwrap();

    // Line noise: bytes that cannot be a valid frame.
    spy.clone().send(&[0xff; 16]).unwrap();
    server.service(link.conn, &mut link.far).unwrap();
    assert!(
        !server.is_open(link.conn),
        "corruption closes the connection"
    );

    // The client observes the server's error frame as a remote failure.
    let err = loop {
        match client.step(ZERO) {
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    assert!(
        matches!(err, NetError::Remote(code, _) if code == frame::error_code::PROTOCOL),
        "got: {err:?}"
    );

    // The session survives: reconnect on a fresh pair and finish.
    let (near2, far2) = InProcTransport::pair();
    let conn2 = server.connect();
    client.reconnect(near2).expect("reconnect");
    let mut link2 = Link {
        conn: conn2,
        far: far2,
    };
    for _ in 0..10 {
        client.record(0, 0, OpKind::Read);
    }
    client.request_finish();
    drive(
        &mut server,
        std::slice::from_mut(&mut link2),
        &mut [&mut client],
    );
    let run = client.into_run().expect("finished after reconnect");
    assert_eq!(run.events, 20);
    assert_eq!(run.stamps.len(), 20);
    assert_eq!(run.reconnects, 1);
    let server_run = server.finish().expect("finish");
    assert_eq!(server_run.report.events, 20);
}

#[test]
fn mid_stream_disconnect_replays_the_watermark_suffix_bit_for_bit() {
    // Reference: the same workload over one uninterrupted connection.
    let script: Vec<(usize, usize, OpKind)> = (0..60)
        .map(|i| (i % 2, i % 3, [OpKind::Read, OpKind::Write][i % 2]))
        .collect();
    let config = || {
        let mut c = ClientConfig::new(
            vec!["t0".into(), "t1".into()],
            vec!["x".into(), "y".into(), "z".into()],
            true,
        );
        // Small frames so the cut lands between and inside event frames.
        c.events_per_frame = 4;
        c
    };

    let mut reference_server = new_server(ServerConfig::default());
    let (mut reference, mut ref_link, _) = connect(&mut reference_server, config());
    for &(t, o, kind) in &script {
        reference.record(t, o, kind);
    }
    reference.request_finish();
    drive(
        &mut reference_server,
        std::slice::from_mut(&mut ref_link),
        &mut [&mut reference],
    );
    let reference_run = reference.into_run().expect("reference finished");
    let reference_server_run = reference_server.finish().expect("reference finish");

    // Interrupted: sever the link mid-frame after the events are on the
    // wire, reconnect, and let the replay fill the gap.
    let mut server = new_server(ServerConfig::default());
    let (mut client, mut link, spy) = connect(&mut server, config());
    server.service(link.conn, &mut link.far).unwrap();
    client.step(ZERO).unwrap(); // consume the ack
    for &(t, o, kind) in &script {
        client.record(t, o, kind);
    }
    client.step(ZERO).unwrap(); // all event frames hit the wire
    let pending = spy.pending();
    assert!(pending > 0);
    // Keep roughly half the bytes, cutting inside a frame.
    spy.sever_keeping(pending / 2);
    server.service(link.conn, &mut link.far).unwrap();
    assert!(!server.is_open(link.conn));
    let err = client.step(ZERO).expect_err("link is dead");
    assert!(matches!(err, NetError::Transport(TransportError::Closed)));

    let (near2, far2) = InProcTransport::pair();
    let conn2 = server.connect();
    client.reconnect(near2).expect("reconnect");
    let mut link2 = Link {
        conn: conn2,
        far: far2,
    };
    client.request_finish();
    drive(
        &mut server,
        std::slice::from_mut(&mut link2),
        &mut [&mut client],
    );
    let run = client.into_run().expect("finished");
    let server_run = server.finish().expect("finish");

    // Bit-for-bit: every event gets the stamp it would have gotten in the
    // uninterrupted run.  The server stamps events in the order they
    // arrive, which over one client is its send order in both runs, so
    // the server records the reference's computation and stamps exactly.
    assert_eq!(run.reconnects, 1);
    assert_eq!(run.stamps, reference_run.stamps);
    let recorded = |r: &mvc_net::ServerRun| {
        r.sink
            .as_any()
            .downcast_ref::<MemoryRecorder>()
            .map(|m| (m.computation().clone(), m.timestamps().to_vec()))
            .expect("mem sink")
    };
    let (computation, timestamps) = recorded(&server_run);
    let (ref_computation, ref_timestamps) = recorded(&reference_server_run);
    assert_eq!(computation, ref_computation);
    assert_eq!(timestamps, ref_timestamps);
    // And those stamps are the dense batch replay's of that computation.
    let mut dense = BatchReplay::new(server_run.report.components.clone());
    let replayed = mvc_core::replay(&mut dense, &computation)
        .unwrap()
        .timestamps;
    assert_eq!(timestamps, replayed);
}

#[test]
fn stamps_lost_with_the_connection_are_retransmitted_after_reconnect() {
    // want_stamps with a cut placed after the server has *sent* stamps the
    // client never received: the reconnect must rewind the stamp stream to
    // what the client actually holds.
    let mut server = new_server(ServerConfig {
        credit_window: 1 << 16,
        stamps_per_frame: 4,
    });
    let (mut client, mut link, _spy) = connect(
        &mut server,
        ClientConfig::new(vec!["t".into()], vec!["o".into()], true),
    );
    server.service(link.conn, &mut link.far).unwrap();
    client.step(ZERO).unwrap();
    for _ in 0..30 {
        client.record(0, 0, OpKind::Op);
    }
    client.step(ZERO).unwrap();
    // The server ingests everything and queues stamp frames — which are
    // lost: severing the server half truncates the stamp bytes still
    // sitting in the server→client pipe before the client reads them.
    server.service(link.conn, &mut link.far).unwrap();
    link.far.sever_keeping(0);
    server.service(link.conn, &mut link.far).unwrap();
    let _ = client.step(ZERO).expect_err("link is dead");
    assert_eq!(client.stamps().len(), 0, "every stamp was lost in flight");

    let (near2, far2) = InProcTransport::pair();
    let conn2 = server.connect();
    client.reconnect(near2).expect("reconnect");
    let mut link2 = Link {
        conn: conn2,
        far: far2,
    };
    client.request_finish();
    drive(
        &mut server,
        std::slice::from_mut(&mut link2),
        &mut [&mut client],
    );
    let run = client.into_run().expect("finished");
    assert_eq!(run.stamps.len(), 30);
    for (i, stamp) in run.stamps.iter().enumerate() {
        assert_eq!(stamp.as_slice(), &[(i + 1) as u64]);
    }
}

#[test]
fn a_wide_sparse_session_gets_its_stamps_back_in_frames_that_fit() {
    // 4 096 registered objects make every stamp 4 096 components wide.  Sent
    // as whole vectors, a default frame of 4 096 of them is 16 785 412
    // bytes, beyond `MAX_FRAME_LEN`: the client used to fail with
    // `Frame(Oversize(..))`.  As differences they cost what they store.
    let threads: Vec<String> = (0..4).map(|t| format!("t{t}")).collect();
    let objects: Vec<String> = (0..4096).map(|o| format!("o{o}")).collect();
    let touched = [3usize, 64, 2100, 4095];
    let script: Vec<(usize, usize)> = (0..5000).map(|i| (i % 4, touched[(i / 3) % 4])).collect();

    let mut server = new_server(ServerConfig::default());
    let (mut client, mut link, _) = connect(&mut server, ClientConfig::new(threads, objects, true));
    for &(t, o) in &script {
        client.record(t, o, OpKind::Write);
    }
    client.request_finish();
    // Driven by hand, to see what the server puts on the wire per round.
    let mut most_in_flight = 0;
    while !client.is_finished() {
        client.step(ZERO).expect("client step");
        server.service(link.conn, &mut link.far).expect("service");
        most_in_flight = most_in_flight.max(link.far.pending());
    }
    assert!(
        (most_in_flight as u64) < frame::MAX_FRAME_LEN / 16,
        "{most_in_flight} bytes in flight for 5 000 one-chunk stamps"
    );
    let run = client.into_run().expect("finished");
    let server_run = server.finish().expect("finish");

    // One client, so its ids are the global ones and its send order is
    // every object's order: the reference is a plain sequential replay.
    let mut computation = mvc_trace::Computation::new();
    for &(t, o) in &script {
        computation.record_op(
            mvc_trace::ThreadId(run.thread_ids[t] as usize),
            mvc_trace::ObjectId(run.object_ids[o] as usize),
            OpKind::Write,
        );
    }
    let mut engine = TimestampingEngine::with_components(server_run.report.components.clone());
    let reference = mvc_core::replay(&mut engine, &computation)
        .unwrap()
        .timestamps;
    assert_eq!(run.stamps.len(), 5000);
    assert_eq!(run.stamps, reference);
    for (stamp, expect) in run.stamps.iter().zip(&reference) {
        assert_eq!(stamp.len(), 4096);
        assert_eq!(
            stamp.stored_words(),
            expect.stored_words(),
            "decoded packed"
        );
    }
}

#[test]
fn truncated_streams_pend_and_corrupted_padding_never_panics_the_server() {
    // Fuzz the server at every frame-type boundary: a valid session
    // prologue cut at every byte position is fed to a fresh server — each
    // prefix must either pend quietly or close with an error frame, never
    // panic, and the pipeline must stay usable.
    let mut stream = Vec::new();
    frame::write_stream_header(&mut stream);
    frame::write_frame(
        &mut stream,
        &Frame::Hello {
            token: 0,
            want_stamps: true,
            stamps_received: 0,
            threads: vec!["t".into()],
            objects: vec!["o".into()],
        },
    );
    frame::write_frame(
        &mut stream,
        &Frame::Events {
            events: vec![(0, 0, OpKind::Write), (0, 0, OpKind::Read)],
        },
    );
    frame::write_frame(&mut stream, &Frame::StampsAck { received: 0 });
    frame::write_frame(&mut stream, &Frame::Goodbye { events: 2 });
    // Not a frame a client sends, but one whose decoder must hold up all the
    // same: stamps that refer back to each other, over two chunks.
    let mut wide = vec![0u64; 100];
    let stamps = [(3, 1), (70, 1), (3, 2), (99, u64::MAX)].map(|(at, value)| {
        wide[at] = value;
        VectorTimestamp::from_components(wide.clone())
    });
    let lanes = [0, 1, 0, 1].into_iter().zip(&stamps);
    frame::write_stamps_frame(&mut stream, 0, lanes, 4096);

    for cut in 0..stream.len() {
        let mut server = new_server(ServerConfig::default());
        let conn = server.connect();
        server
            .feed(conn, &stream[..cut])
            .expect("no pipeline error");
        server.pump().expect("no pipeline error");
        // And with trailing garbage where the lost bytes would be.
        let mut server = new_server(ServerConfig::default());
        let conn = server.connect();
        let mut garbled = stream[..cut].to_vec();
        garbled.extend(std::iter::repeat_n(0xA5, stream.len() - cut));
        server.feed(conn, &garbled).expect("no pipeline error");
        server.pump().expect("no pipeline error");
        let run = server.finish().expect("pipeline intact");
        assert!(run.report.events <= 2);
    }
}

/// A server-side transport that keeps a copy of every byte the server sends.
struct Spy {
    inner: InProcTransport,
    sent: Vec<u8>,
}

impl Transport for Spy {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.sent.extend_from_slice(bytes);
        self.inner.send(bytes)
    }

    fn recv(
        &mut self,
        buf: &mut [u8],
        timeout: Option<Duration>,
    ) -> Result<mvc_net::Recv, TransportError> {
        self.inner.recv(buf, timeout)
    }
}

/// The `Stamps` frames of a server stream, each as its bytes on the wire
/// (length prefix included).
fn stamps_frames(stream: &[u8]) -> Vec<&[u8]> {
    /// The `Stamps` tag (docs/PROTOCOL.md, "Frame types").
    const TAG_STAMPS: u8 = 4;
    let mut frames = Vec::new();
    let mut at = 4; // the stream header
    while at < stream.len() {
        let (len, used) = mvc_trace::codec::peek_varint(&stream[at..])
            .expect("a varint")
            .expect("a whole length");
        let end = at + used + len as usize;
        if stream[at + used] == TAG_STAMPS {
            frames.push(&stream[at..end]);
        }
        at = end;
    }
    frames
}

/// A raw client's stream header and `Hello` for one thread and one object,
/// stamps wanted.
fn raw_hello(token: u64, stamps_received: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    frame::write_stream_header(&mut bytes);
    frame::write_frame(
        &mut bytes,
        &Frame::Hello {
            token,
            want_stamps: true,
            stamps_received,
            threads: vec!["t".into()],
            objects: vec!["o".into()],
        },
    );
    bytes
}

/// Opens a raw session whose ten events the server returns in `Stamps`
/// frames of four — stamps 0..4, 4..8 and 8..10 — and severs it before the
/// client reads any.  Returns the session token and what the server sent.
fn raw_session_cut_after_ten_stamps(server: &mut Server) -> (u64, Vec<u8>) {
    let conn = server.connect();
    let (mut near, far) = InProcTransport::pair();
    let mut spy = Spy {
        inner: far,
        sent: Vec::new(),
    };
    let mut bytes = raw_hello(0, 0);
    frame::write_frame(
        &mut bytes,
        &Frame::Events {
            events: vec![(0, 0, OpKind::Write); 10],
        },
    );
    near.send(&bytes).unwrap();
    server.service(conn, &mut spy).unwrap();
    let mut reader = FrameReader::new();
    let token = match read_frames(&mut near, &mut reader).first() {
        Some(Frame::HelloAck { token, .. }) => *token,
        other => panic!("expected HelloAck, got {other:?}"),
    };
    near.sever();
    server.service(conn, &mut spy).unwrap();
    assert!(!server.is_open(conn));
    assert_eq!(stamps_frames(&spy.sent).len(), 3);
    (token, spy.sent)
}

#[test]
fn a_resume_inside_a_frame_is_refused_and_the_session_stays_resumable() {
    let mut server = new_server(ServerConfig {
        credit_window: 1 << 16,
        stamps_per_frame: 4,
    });
    let (token, _) = raw_session_cut_after_ten_stamps(&mut server);

    // Six stamps received: inside the frame of stamps 4..8.
    let conn = server.connect();
    let (mut near, mut far) = InProcTransport::pair();
    near.send(&raw_hello(token, 6)).unwrap();
    server.service(conn, &mut far).unwrap();
    assert!(!server.is_open(conn));
    let mut reader = FrameReader::new();
    match &read_frames(&mut near, &mut reader)[..] {
        [Frame::Error { code, message }] => {
            assert_eq!(*code, frame::error_code::PROTOCOL);
            assert!(message.contains("4..8"), "names the frame: {message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // On the boundary the session resumes, with everything from stamp 4.
    let conn = server.connect();
    let (mut near, mut far) = InProcTransport::pair();
    near.send(&raw_hello(token, 4)).unwrap();
    server.service(conn, &mut far).unwrap();
    assert!(server.is_open(conn));
    let mut reader = FrameReader::new();
    let frames = read_frames(&mut near, &mut reader);
    assert!(matches!(frames[0], Frame::HelloAck { watermark: 10, .. }));
    let firsts: Vec<u64> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::Stamps { first, .. } => Some(*first),
            _ => None,
        })
        .collect();
    assert_eq!(firsts, [4, 8]);
}

#[test]
fn a_resume_on_a_frame_boundary_replays_the_same_bytes() {
    let mut server = new_server(ServerConfig {
        credit_window: 1 << 16,
        stamps_per_frame: 4,
    });
    let (token, first_sent) = raw_session_cut_after_ten_stamps(&mut server);

    let conn = server.connect();
    let (mut near, far) = InProcTransport::pair();
    let mut spy = Spy {
        inner: far,
        sent: Vec::new(),
    };
    near.send(&raw_hello(token, 4)).unwrap();
    server.service(conn, &mut spy).unwrap();
    let first = stamps_frames(&first_sent);
    assert_eq!(stamps_frames(&spy.sent), first[1..]);
}

/// Runs a session up to the point where the client has `[Stamps…, Credit]`
/// waiting, lets `cut` break the link, and checks that the client keeps the
/// stamps it read before the break, then resumes after them and ends with
/// the batch replay's stamps, none lost or repeated.  Returns the error the
/// break raised.
fn stamps_read_before_a_break_are_kept(
    cut: impl FnOnce(&mut Server, &mut Link, &InProcTransport),
) -> NetError {
    let mut server = new_server(ServerConfig {
        credit_window: 8,
        stamps_per_frame: 3,
    });
    let (mut client, mut link, spy) = connect(
        &mut server,
        ClientConfig::new(vec!["t".into()], vec!["o".into()], true),
    );
    for _ in 0..20 {
        client.record(0, 0, OpKind::Write);
    }
    server.service(link.conn, &mut link.far).unwrap();
    client.step(ZERO).unwrap(); // the ack, then the first window of eight
    server.service(link.conn, &mut link.far).unwrap(); // Stamps ×3, Credit
    cut(&mut server, &mut link, &spy);
    let err = client.step(ZERO).expect_err("the link is broken");
    assert_eq!(client.stamps().len(), 8, "every stamp read is kept");

    let (near2, far2) = InProcTransport::pair();
    let conn2 = server.connect();
    client.reconnect(near2).expect("reconnect");
    let mut link2 = Link {
        conn: conn2,
        far: far2,
    };
    client.request_finish();
    drive(
        &mut server,
        std::slice::from_mut(&mut link2),
        &mut [&mut client],
    );
    let run = client.into_run().expect("finished");
    let server_run = server.finish().expect("finish");
    let mut computation = mvc_trace::Computation::new();
    for _ in 0..20 {
        computation.record_op(
            mvc_trace::ThreadId(run.thread_ids[0] as usize),
            mvc_trace::ObjectId(run.object_ids[0] as usize),
            OpKind::Write,
        );
    }
    let mut engine = TimestampingEngine::with_components(server_run.report.components.clone());
    let reference = mvc_core::replay(&mut engine, &computation)
        .unwrap()
        .timestamps;
    assert_eq!(run.stamps, reference);
    err
}

#[test]
fn stamps_read_before_a_sever_are_kept_across_the_reconnect() {
    let err = stamps_read_before_a_break_are_kept(|server, link, spy| {
        spy.sever();
        server.service(link.conn, &mut link.far).unwrap();
        assert!(!server.is_open(link.conn));
    });
    // The credit read behind the stamps sent the next window into the cut.
    assert!(
        matches!(err, NetError::Transport(TransportError::Closed)),
        "got: {err:?}"
    );
}

#[test]
fn stamps_read_before_an_error_frame_are_kept_across_the_reconnect() {
    let err = stamps_read_before_a_break_are_kept(|server, link, spy| {
        spy.clone().send(&[0xff; 16]).unwrap();
        server.service(link.conn, &mut link.far).unwrap();
        assert!(!server.is_open(link.conn));
    });
    assert!(
        matches!(err, NetError::Remote(code, _) if code == frame::error_code::PROTOCOL),
        "got: {err:?}"
    );
}

/// A recorder that accepts its first `accept` windows and then refuses the
/// next `refuse` offers (the pipeline re-offers a refused window until it is
/// taken).
struct Refusing {
    inner: MemoryRecorder,
    accept: usize,
    refuse: usize,
}

impl EventSink for Refusing {
    fn name(&self) -> &str {
        "refusing"
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        if self.accept == 0 && self.refuse > 0 {
            self.refuse -= 1;
            return Err(SinkError::Io("refused".into()));
        }
        self.accept = self.accept.saturating_sub(1);
        self.inner.accept_columns(events, stamps)
    }

    fn events_accepted(&self) -> usize {
        self.inner.events_accepted()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        &self.inner
    }
}

/// The script of [`served_through_a_refusing_sink`]: three threads, two
/// objects.
fn refusal_script() -> Vec<(usize, usize, OpKind)> {
    (0..10_000)
        .map(|i| (i % 3, (i / 5) % 2, [OpKind::Read, OpKind::Write][i % 2]))
        .collect()
}

/// Serves [`refusal_script`] — three stamp windows, returned in `Stamps`
/// frames of 1 000 — to one client through a [`Refusing`] sink, and checks
/// that every pump it refuses fails and puts nothing in the outbox.  Returns
/// the client's run, the server's, and every byte the server sent.
fn served_through_a_refusing_sink(
    accept: usize,
    refuse: usize,
) -> (mvc_net::ClientRun, mvc_net::ServerRun, Vec<u8>) {
    let sink = Refusing {
        inner: MemoryRecorder::new(),
        accept,
        refuse,
    };
    let mut server = NetServer::new(
        TimestampingEngine::new(),
        Box::new(sink),
        ServerConfig {
            credit_window: 1 << 16,
            stamps_per_frame: 1000,
        },
    );
    let conn = server.connect();
    let (near, far) = InProcTransport::pair();
    let mut spy = Spy {
        inner: far,
        sent: Vec::new(),
    };
    let threads = (0..3).map(|t| format!("t{t}")).collect();
    let config = ClientConfig::new(threads, vec!["x".into(), "y".into()], true);
    let mut client = ProducerClient::connect(near, config).expect("connect");
    for (t, o, kind) in refusal_script() {
        client.record(t, o, kind);
    }
    server.service(conn, &mut spy).expect("the HelloAck");
    client.step(ZERO).expect("the ack, then every event");
    let mut buf = [0u8; 16 * 1024];
    while let Ok(mvc_net::Recv::Bytes(n)) = spy.recv(&mut buf, ZERO) {
        server.feed(conn, &buf[..n]).expect("feed");
    }
    for _ in 0..refuse {
        let err = server.pump().expect_err("the sink refuses");
        assert!(matches!(err, NetError::Pipeline(_)), "got: {err:?}");
        assert!(
            server.take_outgoing(conn).is_empty(),
            "nothing, a Stamps frame least of all, leaves while the sink refuses"
        );
    }
    server.pump().expect("the sink accepts");
    spy.send(&server.take_outgoing(conn)).expect("send");
    client.request_finish();
    for _ in 0..100 {
        if client.is_finished() {
            break;
        }
        client.step(ZERO).expect("client step");
        server.service(conn, &mut spy).expect("service");
    }
    let run = client.into_run().expect("finished");
    (run, server.finish().expect("finish"), spy.sent)
}

#[test]
fn stamps_wait_for_a_refusing_sink_and_then_match_an_uninterrupted_run() {
    let (_, _, uninterrupted) = served_through_a_refusing_sink(0, 0);
    let reference_frames = stamps_frames(&uninterrupted);
    assert_eq!(reference_frames.len(), 10);
    // Refused from the first window on, and from the second, mid-pump.
    for (accept, refuse) in [(0, 3), (1, 2)] {
        let (run, server_run, sent) = served_through_a_refusing_sink(accept, refuse);
        let recorder = server_run
            .sink
            .as_any()
            .downcast_ref::<MemoryRecorder>()
            .expect("mem sink");
        assert_eq!(recorder.computation().len(), 10_000, "each event sunk once");
        // One client: its send order is every object's order, so the
        // reference is a plain sequential replay of the script.
        let mut computation = mvc_trace::Computation::new();
        for (t, o, kind) in refusal_script() {
            computation.record_op(
                ThreadId(run.thread_ids[t] as usize),
                ObjectId(run.object_ids[o] as usize),
                kind,
            );
        }
        let mut engine = TimestampingEngine::with_components(server_run.report.components.clone());
        let reference = mvc_core::replay(&mut engine, &computation)
            .unwrap()
            .timestamps;
        assert_eq!(run.stamps, reference, "accept {accept}, refuse {refuse}");
        assert_eq!(
            stamps_frames(&sent),
            reference_frames,
            "accept {accept}, refuse {refuse}"
        );
    }
}

#[test]
fn a_stamp_less_session_completes_behind_a_refusing_sink_with_the_batch_stamps() {
    let sink = Refusing {
        inner: MemoryRecorder::new(),
        accept: 0,
        refuse: 3,
    };
    let mut server = NetServer::new(
        TimestampingEngine::new(),
        Box::new(sink),
        ServerConfig::default(),
    );
    let conn = server.connect();
    let (near, mut far) = InProcTransport::pair();
    let threads = (0..3).map(|t| format!("t{t}")).collect();
    let config = ClientConfig::new(threads, vec!["x".into(), "y".into()], false);
    let mut client = ProducerClient::connect(near, config).expect("connect");
    for (t, o, kind) in refusal_script() {
        client.record(t, o, kind);
    }
    client.request_finish();
    server.service(conn, &mut far).expect("the HelloAck");
    client
        .step(ZERO)
        .expect("the ack, every event and the Goodbye");
    let mut buf = [0u8; 16 * 1024];
    while let Ok(mvc_net::Recv::Bytes(n)) = far.recv(&mut buf, ZERO) {
        server.feed(conn, &buf[..n]).expect("feed");
    }
    // Everything is ingested and the Goodbye is in, but the session
    // completes only behind a pump that delivered its events.
    for _ in 0..3 {
        server.pump().expect_err("the sink refuses");
        assert!(server.is_open(conn), "no Goodbye while the sink refuses");
        assert!(server.take_outgoing(conn).is_empty());
    }
    server.service(conn, &mut far).expect("the sink accepts");
    assert!(!server.is_open(conn), "the session completed");
    for _ in 0..10 {
        if client.is_finished() {
            break;
        }
        client.step(ZERO).expect("the Goodbye");
    }
    let run = client.into_run().expect("finished");
    let server_run = server.finish().expect("finish");
    assert_eq!(server_run.sessions.len(), 1);
    assert!(server_run.sessions[0].completed);
    let recorder = server_run
        .sink
        .as_any()
        .downcast_ref::<MemoryRecorder>()
        .expect("mem sink");
    let mut computation = mvc_trace::Computation::new();
    for (t, o, kind) in refusal_script() {
        computation.record_op(
            ThreadId(run.thread_ids[t] as usize),
            ObjectId(run.object_ids[o] as usize),
            kind,
        );
    }
    let mut batch = BatchReplay::new(server_run.report.components.clone());
    let reference = mvc_core::replay(&mut batch, &computation).unwrap();
    assert_eq!(recorder.computation().len(), 10_000, "each event sunk once");
    assert_eq!(recorder.timestamps(), reference.timestamps);
}

#[test]
fn resuming_a_completed_session_is_refused_as_already_completed() {
    let mut server = new_server(ServerConfig::default());
    let (mut client, link, _) = connect(
        &mut server,
        ClientConfig::new(vec!["t".into()], vec!["o".into()], true),
    );
    for _ in 0..5 {
        client.record(0, 0, OpKind::Write);
    }
    client.request_finish();
    drive(&mut server, &mut [link], &mut [&mut client]);
    let token = client.into_run().expect("finished").token;

    let refusal = |server: &mut Server, token: u64| {
        let conn = server.connect();
        let (mut near, mut far) = InProcTransport::pair();
        near.send(&raw_hello(token, 5)).unwrap();
        server.service(conn, &mut far).unwrap();
        assert!(!server.is_open(conn));
        let mut reader = FrameReader::new();
        match &read_frames(&mut near, &mut reader)[..] {
            [Frame::Error { code, message }] => {
                assert_eq!(*code, frame::error_code::PROTOCOL);
                message.clone()
            }
            other => panic!("expected Error, got {other:?}"),
        }
    };
    let message = refusal(&mut server, token);
    assert!(message.contains("already completed"), "got: {message}");
    let message = refusal(&mut server, token + 1);
    assert!(message.contains("unknown session token"), "got: {message}");
    let run = server.finish().expect("finish");
    assert_eq!(run.sessions.len(), 1);
    assert!(run.sessions[0].completed);
}

#[test]
fn a_stale_conn_id_is_inert_once_its_slot_serves_another_connection() {
    let mut server = new_server(ServerConfig::default());
    // Closed by the server behind an error frame: freed once it is taken.
    let failed = server.connect();
    server.feed(failed, &[0xff; 8]).unwrap();
    assert!(!server.is_open(failed));
    assert!(!server.take_outgoing(failed).is_empty(), "the Error frame");
    // Disconnected: freed at once.
    let old = server.connect();
    server.disconnect(old);
    let (first, second) = (server.connect(), server.connect());
    for stale in [failed, old] {
        assert!(stale != first && stale != second);
        assert!(!server.is_open(stale));
        assert!(server.take_outgoing(stale).is_empty());
        // A Hello and a disconnect through the stale id reach nothing.
        server.feed(stale, &raw_hello(0, 0)).unwrap();
        server.disconnect(stale);
    }
    assert!(server.is_open(first) && server.is_open(second));
    server.pump().unwrap();
    // Both live connections have their stream header and nothing more.
    for conn in [first, second] {
        assert_eq!(server.take_outgoing(conn).len(), 4, "the header alone");
    }
    // The slot's new connection opens the server's first session.
    let (mut near, mut far) = InProcTransport::pair();
    near.send(&raw_hello(0, 0)).unwrap();
    server.service(first, &mut far).unwrap();
    let mut reader = FrameReader::new();
    reader.feed(&frame::NET_MAGIC);
    reader.feed(&[frame::NET_VERSION]);
    match &read_frames(&mut near, &mut reader)[..] {
        [Frame::HelloAck { token: 1, .. }] => {}
        other => panic!("expected the first HelloAck, got {other:?}"),
    }
    assert_eq!(server.finish().expect("finish").sessions.len(), 1);
}

/// A server-side transport half that decodes every frame the server reads
/// through it, so a test knows the order in which `feed` received events.
struct Tap {
    inner: InProcTransport,
    reader: FrameReader,
}

impl Transport for Tap {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.inner.send(bytes)
    }

    fn recv(
        &mut self,
        buf: &mut [u8],
        timeout: Option<Duration>,
    ) -> Result<mvc_net::Recv, TransportError> {
        let got = self.inner.recv(buf, timeout);
        if let Ok(mvc_net::Recv::Bytes(n)) = got {
            self.reader.feed(&buf[..n]);
        }
        got
    }
}

#[test]
fn the_served_interleaving_is_the_arrival_order() {
    let mut server = new_server(ServerConfig::default());
    // Both clients touch both objects, named in opposite local order.
    let configs = [
        ClientConfig::new(
            vec!["a0".into(), "a1".into()],
            vec!["x".into(), "y".into()],
            true,
        ),
        ClientConfig::new(
            vec!["b0".into(), "b1".into()],
            vec!["y".into(), "x".into()],
            true,
        ),
    ];
    let mut clients = Vec::new();
    let mut taps = Vec::new();
    for mut config in configs {
        // Small frames, so each client's events arrive in several pieces.
        config.events_per_frame = 3;
        let (near, far) = InProcTransport::pair();
        taps.push((
            server.connect(),
            Tap {
                inner: far,
                reader: FrameReader::new(),
            },
        ));
        clients.push(ProducerClient::connect(near, config).expect("connect"));
    }
    // Every `Events` frame the server was fed, as (client, local event).
    let mut arrivals: Vec<(usize, (u32, u32, OpKind))> = Vec::new();
    let mut serve = |server: &mut Server, c: usize, (conn, tap): &mut (ConnId, Tap)| {
        server.service(*conn, tap).expect("service");
        while let Some(frame) = tap.reader.try_next().expect("a well-formed client") {
            if let Frame::Events { events } = frame {
                arrivals.extend(events.into_iter().map(|e| (c, e)));
            }
        }
    };
    let mut script = 0..;
    for round in 0..12 {
        for (c, client) in clients.iter_mut().enumerate() {
            for i in script.by_ref().take(4 + round % 3) {
                client.record(
                    i % 2,
                    (i / 2 + c) % 2,
                    [OpKind::Read, OpKind::Write][i % 3 % 2],
                );
            }
            client.step(ZERO).expect("client step");
            serve(&mut server, c, &mut taps[c]);
        }
    }
    for client in &mut clients {
        client.request_finish();
    }
    for _ in 0..100 {
        if clients.iter().all(|c| c.is_finished()) {
            break;
        }
        for (c, client) in clients.iter_mut().enumerate() {
            if !client.is_finished() {
                client.step(ZERO).expect("client step");
            }
            serve(&mut server, c, &mut taps[c]);
        }
    }
    let runs: Vec<mvc_net::ClientRun> = clients
        .into_iter()
        .map(|c| c.into_run().expect("finished"))
        .collect();
    let server_run = server.finish().expect("finish");

    // The frames interleave: the arrival order switches client many times.
    let switches = arrivals.windows(2).filter(|w| w[0].0 != w[1].0).count();
    assert!(switches >= 20, "only {switches} switches between clients");
    let arrived: Vec<(ThreadId, ObjectId, OpKind)> = arrivals
        .iter()
        .map(|&(c, (t, o, kind))| {
            (
                ThreadId(runs[c].thread_ids[t as usize] as usize),
                ObjectId(runs[c].object_ids[o as usize] as usize),
                kind,
            )
        })
        .collect();
    let recorder = server_run
        .sink
        .as_any()
        .downcast_ref::<MemoryRecorder>()
        .expect("mem sink");
    let served: Vec<(ThreadId, ObjectId, OpKind)> = recorder
        .computation()
        .events()
        .map(|e| (e.thread, e.object, e.kind))
        .collect();
    assert_eq!(served, arrived, "the server stamped in arrival order");

    let mut engine = TimestampingEngine::with_components(server_run.report.components.clone());
    let replayed = mvc_core::replay(&mut engine, recorder.computation())
        .unwrap()
        .timestamps;
    assert_eq!(recorder.timestamps(), replayed);
    // Each client's stamps are the batch replay's stamps of its events, in
    // its send order.
    for (c, run) in runs.iter().enumerate() {
        let batch: Vec<VectorTimestamp> = arrivals
            .iter()
            .zip(&replayed)
            .filter(|((from, _), _)| *from == c)
            .map(|(_, stamp)| stamp.clone())
            .collect();
        assert_eq!(run.stamps.len(), run.events as usize);
        assert_eq!(run.stamps, batch, "client {c}");
    }
}
