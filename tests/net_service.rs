//! The networked service over the sans-I/O server, without sockets.
//!
//! The first test runs seeded schedules (`support::schedule`): clients with
//! shared objects, byte-split feeds and deliveries, cuts inside and between
//! frames, corrupted frames, a refusing sink and stale connection ids, each
//! schedule checked against a batch replay of the arrival order it decoded
//! from the bytes it fed.  (Seeds 0..48, which sweep client count × engine ×
//! forced cut, are conformance oracle 9.)
//!
//! The hand-written interleavings pin one story each, at the numbers a
//! reader can follow: two clients sharing an object, a tiny credit window, a
//! corrupted frame, a cut inside an `Events` frame, stamps lost with the
//! link, a byte-identical replay, stamps read before a break, a refusing
//! sink, a stale connection id, the arrival order and the release of a
//! completed session's threads.  They alternate client
//! [`step`](ProducerClient::step)s with [`service`] rounds over
//! [`InProcTransport`] pairs.  The rest are raw-frame tests of one error or
//! limit each: a wrong protocol version, a credit overrun, truncated and
//! garbled prologues, a resume inside a frame, a resume that renames an
//! object, a resume of a completed session, and the frame sizes of a
//! 4 096-wide session.
//!
//! Every test takes `support::global_registry_lock`: the schedules read
//! gauges that every server in the process moves.

mod support;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use mvc_clock::{Component, VectorTimestamp};
use mvc_core::{
    BatchReplay, EventSink, MemoryRecorder, SinkError, TimestampError, TimestampReport,
    Timestamper, TimestampingEngine,
};
use mvc_net::frame::{self, Frame, FrameReader};
use mvc_net::{
    ClientConfig, ClientRun, ConnId, InProcTransport, NetError, NetServer, ProducerClient, Recv,
    ServeEngine, ServerConfig, ServerRun, Transport, TransportError,
};
use mvc_trace::{Computation, ObjectId, OpKind, ThreadId};

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

/// Feeds `bytes` to `conn`, pumps, and decodes what the server queued for
/// the connection.
fn exchange(
    server: &mut Server,
    conn: ConnId,
    reader: &mut FrameReader,
    bytes: &[u8],
) -> Vec<Frame> {
    server.feed(conn, bytes).expect("feed");
    server.pump().expect("pump");
    reader.feed(&server.take_outgoing(conn));
    let mut frames = Vec::new();
    while let Some(frame) = reader.try_next().expect("a well-formed server stream") {
        frames.push(frame);
    }
    frames
}

/// A raw client's stream header and `Hello` for one thread and `objects`,
/// stamps wanted.
fn raw_hello(token: u64, stamps_received: u64, objects: &[&str]) -> Vec<u8> {
    let mut bytes = Vec::new();
    frame::write_stream_header(&mut bytes);
    frame::write_frame(
        &mut bytes,
        &Frame::Hello {
            token,
            want_stamps: true,
            stamps_received,
            threads: vec!["t".into()],
            objects: objects.iter().map(|&o| o.to_owned()).collect(),
        },
    );
    bytes
}

/// Opens a raw session on object `"o"`, feeds it `events` writes (and its
/// `Goodbye`, if `goodbye`), pumps, and drops the connection before reading
/// anything.  Returns the session's token and every byte the server queued
/// for the connection.
fn raw_session(server: &mut Server, events: usize, goodbye: bool) -> (u64, Vec<u8>) {
    let conn = server.connect();
    let mut bytes = raw_hello(0, 0, &["o"]);
    let writes = vec![(0, 0, OpKind::Write); events];
    frame::write_frame(&mut bytes, &Frame::Events { events: writes });
    if goodbye {
        let events = events as u64;
        frame::write_frame(&mut bytes, &Frame::Goodbye { events });
    }
    server.feed(conn, &bytes).expect("feed");
    server.pump().expect("pump");
    let sent = server.take_outgoing(conn);
    server.disconnect(conn);
    let mut reader = FrameReader::new();
    reader.feed(&sent);
    match reader.try_next().expect("a well-formed server stream") {
        Some(Frame::HelloAck { token, .. }) => (token, sent),
        other => panic!("expected HelloAck, got {other:?}"),
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

/// One client/server link as the server sees it: the connection, the
/// server's transport half, every byte the server sent on it, and a reader
/// of every byte it was fed.
struct Link {
    conn: ConnId,
    far: InProcTransport,
    sent: Vec<u8>,
    fed: FrameReader,
}

/// Connects a client; returns it, its link, and a clone of the client's
/// transport half to cut the link or inject bytes through.
fn connect<E: ServeEngine>(
    server: &mut NetServer<E>,
    config: ClientConfig,
) -> (Client, Link, InProcTransport) {
    let (near, far) = InProcTransport::pair();
    let spy = near.clone();
    let link = Link {
        conn: server.connect(),
        far,
        sent: Vec::new(),
        fed: FrameReader::new(),
    };
    let client = ProducerClient::connect(near, config).expect("connect");
    (client, link, spy)
}

/// Feeds the server every byte the client has sent on `link`; a closed
/// link disconnects.
fn feed_received<E: ServeEngine>(server: &mut NetServer<E>, link: &mut Link) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match link.far.recv(&mut buf, ZERO) {
            Ok(Recv::Bytes(n)) => {
                link.fed.feed(&buf[..n]);
                server.feed(link.conn, &buf[..n]).expect("feed");
            }
            Ok(Recv::Empty) => return,
            Ok(Recv::Closed) | Err(TransportError::Closed) => return server.disconnect(link.conn),
            Err(e) => panic!("the in-process transport failed: {e}"),
        }
    }
}

/// One I/O round for `link`: feed the server what the client sent, pump,
/// and send back what the server queued; a closed link disconnects.
fn service<E: ServeEngine>(server: &mut NetServer<E>, link: &mut Link) {
    feed_received(server, link);
    server.pump().expect("pump");
    let out = server.take_outgoing(link.conn);
    link.sent.extend_from_slice(&out);
    if !out.is_empty() && link.far.send(&out).is_err() {
        server.disconnect(link.conn);
    }
}

/// Alternates client steps and service rounds until the client finished
/// (or panics after a generous round cap — the protocol is supposed to
/// converge without any timing assumptions).
fn drive<E: ServeEngine>(server: &mut NetServer<E>, link: &mut Link, client: &mut Client) {
    for _ in 0..10_000 {
        if !client.is_finished() {
            client.step(ZERO).expect("client step");
        }
        service(server, link);
        if client.is_finished() {
            return;
        }
    }
    panic!("protocol did not converge");
}

/// Reconnects `client` on a fresh pair; returns the new link.
fn reconnect(server: &mut Server, client: &mut Client) -> Link {
    let (near, far) = InProcTransport::pair();
    let link = Link {
        conn: server.connect(),
        far,
        sent: Vec::new(),
        fed: FrameReader::new(),
    };
    client.reconnect(near).expect("reconnect");
    link
}

/// The sink of a finished server run, as the recorder it wraps.
fn recorder(run: &ServerRun) -> &MemoryRecorder {
    run.sink.as_any().downcast_ref().expect("a memory recorder")
}

/// `script` as one client's computation under the global ids of `run`.
fn global(run: &ClientRun, script: &[(usize, usize, OpKind)]) -> Computation {
    let mut computation = Computation::new();
    for &(t, o, kind) in script {
        let thread = ThreadId(run.thread_ids[t] as usize);
        computation.record_op(thread, ObjectId(run.object_ids[o] as usize), kind);
    }
    computation
}

/// Sends a `Hello` on a fresh connection and returns the `Error` frame's
/// message it is answered with.
fn refused_hello(server: &mut Server, hello: &[u8]) -> String {
    let conn = server.connect();
    match &exchange(server, conn, &mut FrameReader::new(), hello)[..] {
        [Frame::Error { code, message }] => {
            assert_eq!(*code, frame::error_code::PROTOCOL);
            assert!(!server.is_open(conn));
            message.clone()
        }
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn seeded_schedules_stamp_like_a_batch_replay_of_their_arrival_order() {
    for seed in 48..304 {
        support::schedule::check(seed);
    }
}

#[test]
fn two_clients_share_objects_and_get_their_stamps_back() {
    let _lock = support::global_registry_lock();
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
    drive(&mut server, &mut link_a, &mut a);
    drive(&mut server, &mut link_b, &mut b);
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
    let recorder = recorder(&run);
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
    let _lock = support::global_registry_lock();
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
    drive(&mut server, &mut link, &mut client);
    let run = client.into_run().expect("finished");
    assert_eq!(run.stamps.len(), 100);
    // Stamps are the per-object sequence 1..=100 (single object cover).
    for (i, stamp) in run.stamps.iter().enumerate() {
        assert_eq!(stamp.as_slice(), &[(i + 1) as u64]);
    }
}

#[test]
fn corruption_mid_stream_closes_the_connection_but_not_the_session() {
    let _lock = support::global_registry_lock();
    let mut server = new_server(ServerConfig::default());
    let (mut client, mut link, spy) = connect(
        &mut server,
        ClientConfig::new(vec!["t".into()], vec!["o".into()], true),
    );
    // Handshake, then a first batch of events.
    service(&mut server, &mut link);
    client.step(ZERO).unwrap();
    for _ in 0..10 {
        client.record(0, 0, OpKind::Write);
    }
    client.step(ZERO).unwrap();
    service(&mut server, &mut link);

    // Line noise: bytes that cannot be a valid frame.
    spy.clone().send(&[0xff; 16]).unwrap();
    service(&mut server, &mut link);
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
    let mut link = reconnect(&mut server, &mut client);
    for _ in 0..10 {
        client.record(0, 0, OpKind::Read);
    }
    client.request_finish();
    drive(&mut server, &mut link, &mut client);
    let run = client.into_run().expect("finished after reconnect");
    assert_eq!(run.events, 20);
    assert_eq!(run.stamps.len(), 20);
    assert_eq!(run.reconnects, 1);
    let server_run = server.finish().expect("finish");
    assert_eq!(server_run.report.events, 20);
}

#[test]
fn mid_stream_disconnect_replays_the_watermark_suffix_bit_for_bit() {
    let _lock = support::global_registry_lock();
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
    drive(&mut reference_server, &mut ref_link, &mut reference);
    let reference_run = reference.into_run().expect("reference finished");
    let reference_server_run = reference_server.finish().expect("reference finish");

    // Interrupted: sever the link mid-frame after the events are on the
    // wire, reconnect, and let the replay fill the gap.
    let mut server = new_server(ServerConfig::default());
    let (mut client, mut link, spy) = connect(&mut server, config());
    service(&mut server, &mut link);
    client.step(ZERO).unwrap(); // consume the ack
    for &(t, o, kind) in &script {
        client.record(t, o, kind);
    }
    client.step(ZERO).unwrap(); // all event frames hit the wire
    spy.sever();
    let mut wire = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    while let Ok(Recv::Bytes(n)) = link.far.recv(&mut buf, ZERO) {
        wire.extend_from_slice(&buf[..n]);
    }
    assert!(!wire.is_empty());
    // The server gets roughly half the bytes, cut inside a frame.
    server.feed(link.conn, &wire[..wire.len() / 2]).unwrap();
    service(&mut server, &mut link);
    assert!(!server.is_open(link.conn));
    let err = client.step(ZERO).expect_err("link is dead");
    assert!(matches!(err, NetError::Transport(TransportError::Closed)));

    let mut link = reconnect(&mut server, &mut client);
    client.request_finish();
    drive(&mut server, &mut link, &mut client);
    let run = client.into_run().expect("finished");
    let server_run = server.finish().expect("finish");

    // Bit-for-bit: every event gets the stamp it would have gotten in the
    // uninterrupted run.  The server stamps events in the order they
    // arrive, which over one client is its send order in both runs, so
    // the server records the reference's computation and stamps exactly.
    assert_eq!(run.reconnects, 1);
    assert_eq!(run.stamps, reference_run.stamps);
    let (served, reference) = (recorder(&server_run), recorder(&reference_server_run));
    assert_eq!(served.computation(), reference.computation());
    assert_eq!(served.timestamps(), reference.timestamps());
    // And those stamps are the dense batch replay's of that computation.
    let mut dense = BatchReplay::new(server_run.report.components.clone());
    let replayed = mvc_core::replay(&mut dense, served.computation())
        .unwrap()
        .timestamps;
    assert_eq!(served.timestamps(), replayed);
}

#[test]
fn stamps_lost_with_the_connection_are_retransmitted_after_reconnect() {
    let _lock = support::global_registry_lock();
    // want_stamps with a cut placed after the server has *sent* stamps the
    // client never received: the reconnect must rewind the stamp stream to
    // what the client actually holds.
    let mut server = new_server(ServerConfig {
        credit_window: 1 << 16,
        stamps_per_frame: 4,
    });
    let (mut client, mut link, _) = connect(
        &mut server,
        ClientConfig::new(vec!["t".into()], vec!["o".into()], true),
    );
    service(&mut server, &mut link);
    client.step(ZERO).unwrap();
    for _ in 0..30 {
        client.record(0, 0, OpKind::Op);
    }
    client.step(ZERO).unwrap();
    // The server ingests everything and queues stamp frames — which are
    // lost with the link before the client reads them.
    feed_received(&mut server, &mut link);
    server.pump().unwrap();
    assert!(!server.take_outgoing(link.conn).is_empty());
    link.far.sever();
    service(&mut server, &mut link);
    let _ = client.step(ZERO).expect_err("link is dead");
    assert_eq!(client.stamps().len(), 0, "every stamp was lost in flight");

    let mut link = reconnect(&mut server, &mut client);
    client.request_finish();
    drive(&mut server, &mut link, &mut client);
    let run = client.into_run().expect("finished");
    assert_eq!(run.stamps.len(), 30);
    for (i, stamp) in run.stamps.iter().enumerate() {
        assert_eq!(stamp.as_slice(), &[(i + 1) as u64]);
    }
}

#[test]
fn a_resume_on_a_frame_boundary_replays_the_same_bytes() {
    let _lock = support::global_registry_lock();
    let mut server = new_server(ServerConfig {
        credit_window: 1 << 16,
        stamps_per_frame: 4,
    });
    // Ten stamps, framed 0..4, 4..8 and 8..10, none of them read.
    let (token, first_sent) = raw_session(&mut server, 10, false);
    let first = stamps_frames(&first_sent);
    assert_eq!(first.len(), 3);

    let conn = server.connect();
    server.feed(conn, &raw_hello(token, 4, &["o"])).unwrap();
    server.pump().unwrap();
    assert_eq!(stamps_frames(&server.take_outgoing(conn)), first[1..]);
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
    service(&mut server, &mut link);
    client.step(ZERO).unwrap(); // the ack, then the first window of eight
    service(&mut server, &mut link); // Stamps ×3, Credit
    cut(&mut server, &mut link, &spy);
    let err = client.step(ZERO).expect_err("the link is broken");
    assert_eq!(client.stamps().len(), 8, "every stamp read is kept");

    let mut link = reconnect(&mut server, &mut client);
    client.request_finish();
    drive(&mut server, &mut link, &mut client);
    let run = client.into_run().expect("finished");
    let server_run = server.finish().expect("finish");
    let computation = global(&run, &[(0, 0, OpKind::Write); 20]);
    let mut engine = TimestampingEngine::with_components(server_run.report.components.clone());
    let reference = mvc_core::replay(&mut engine, &computation)
        .unwrap()
        .timestamps;
    assert_eq!(run.stamps, reference);
    err
}

#[test]
fn stamps_read_before_a_sever_are_kept_across_the_reconnect() {
    let _lock = support::global_registry_lock();
    let err = stamps_read_before_a_break_are_kept(|server, link, spy| {
        spy.sever();
        service(server, link);
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
    let _lock = support::global_registry_lock();
    let err = stamps_read_before_a_break_are_kept(|server, link, spy| {
        spy.clone().send(&[0xff; 16]).unwrap();
        service(server, link);
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

/// A server whose sink is a [`Refusing`] recorder, and a client of three
/// threads and two objects that has recorded [`refusal_script`] and had its
/// `Hello` answered.
fn refused_setup(
    accept: usize,
    refuse: usize,
    config: ServerConfig,
    want_stamps: bool,
) -> (Server, Client, Link) {
    let sink = Refusing {
        inner: MemoryRecorder::new(),
        accept,
        refuse,
    };
    let mut server = NetServer::new(TimestampingEngine::new(), Box::new(sink), config);
    let threads = (0..3).map(|t| format!("t{t}")).collect();
    let config = ClientConfig::new(threads, vec!["x".into(), "y".into()], want_stamps);
    let (mut client, mut link, _) = connect(&mut server, config);
    for (t, o, kind) in refusal_script() {
        client.record(t, o, kind);
    }
    service(&mut server, &mut link); // the HelloAck
    (server, client, link)
}

/// Serves [`refusal_script`] — three stamp windows, returned in `Stamps`
/// frames of 1 000 — to one client through a [`Refusing`] sink, and checks
/// that every pump it refuses fails and puts nothing in the outbox.  Returns
/// the client's run, the server's, and every byte the server sent.
fn served_through_a_refusing_sink(accept: usize, refuse: usize) -> (ClientRun, ServerRun, Vec<u8>) {
    let config = ServerConfig {
        credit_window: 1 << 16,
        stamps_per_frame: 1000,
    };
    let (mut server, mut client, mut link) = refused_setup(accept, refuse, config, true);
    client.step(ZERO).expect("the ack, then every event");
    feed_received(&mut server, &mut link);
    for _ in 0..refuse {
        let err = server.pump().expect_err("the sink refuses");
        assert!(matches!(err, NetError::Pipeline(_)), "got: {err:?}");
        assert!(
            server.take_outgoing(link.conn).is_empty(),
            "nothing, a Stamps frame least of all, leaves while the sink refuses"
        );
    }
    service(&mut server, &mut link); // the sink accepts
    client.request_finish();
    for _ in 0..100 {
        if client.is_finished() {
            break;
        }
        client.step(ZERO).expect("client step");
        service(&mut server, &mut link);
    }
    let run = client.into_run().expect("finished");
    (run, server.finish().expect("finish"), link.sent)
}

#[test]
fn stamps_wait_for_a_refusing_sink_and_then_match_an_uninterrupted_run() {
    let _lock = support::global_registry_lock();
    let (_, _, uninterrupted) = served_through_a_refusing_sink(0, 0);
    let reference_frames = stamps_frames(&uninterrupted);
    assert_eq!(reference_frames.len(), 10);
    // Refused from the first window on, and from the second, mid-pump.
    for (accept, refuse) in [(0, 3), (1, 2)] {
        let (run, server_run, sent) = served_through_a_refusing_sink(accept, refuse);
        let recorder = recorder(&server_run);
        assert_eq!(recorder.computation().len(), 10_000, "each event sunk once");
        // One client: its send order is every object's order, so the
        // reference is a plain sequential replay of the script.
        let computation = global(&run, &refusal_script());
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
    let _lock = support::global_registry_lock();
    let config = ServerConfig::default();
    let (mut server, mut client, mut link) = refused_setup(0, 3, config, false);
    client.request_finish();
    client
        .step(ZERO)
        .expect("the ack, every event and the Goodbye");
    feed_received(&mut server, &mut link);
    // Everything is ingested and the Goodbye is in, but the session
    // completes only behind a pump that delivered its events.
    for _ in 0..3 {
        server.pump().expect_err("the sink refuses");
        assert!(
            server.is_open(link.conn),
            "no Goodbye while the sink refuses"
        );
        assert!(server.take_outgoing(link.conn).is_empty());
    }
    service(&mut server, &mut link); // the sink accepts
    assert!(!server.is_open(link.conn), "the session completed");
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
    let recorder = recorder(&server_run);
    let computation = global(&run, &refusal_script());
    let mut batch = BatchReplay::new(server_run.report.components.clone());
    let reference = mvc_core::replay(&mut batch, &computation).unwrap();
    assert_eq!(recorder.computation().len(), 10_000, "each event sunk once");
    assert_eq!(recorder.timestamps(), reference.timestamps);
}

#[test]
fn a_stale_conn_id_is_inert_once_its_slot_serves_another_connection() {
    let _lock = support::global_registry_lock();
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
        server.feed(stale, &raw_hello(0, 0, &["o"])).unwrap();
        server.disconnect(stale);
    }
    assert!(server.is_open(first) && server.is_open(second));
    server.pump().unwrap();
    // Both live connections have their stream header and nothing more.
    for conn in [first, second] {
        assert_eq!(server.take_outgoing(conn).len(), 4, "the header alone");
    }
    // The slot's new connection opens the server's first session.
    let mut reader = FrameReader::new();
    reader.feed(&frame::NET_MAGIC);
    reader.feed(&[frame::NET_VERSION]);
    match &exchange(&mut server, first, &mut reader, &raw_hello(0, 0, &["o"]))[..] {
        [Frame::HelloAck { token: 1, .. }] => {}
        other => panic!("expected the first HelloAck, got {other:?}"),
    }
    assert_eq!(server.finish().expect("finish").sessions.len(), 1);
}

#[test]
fn the_served_interleaving_is_the_arrival_order() {
    let _lock = support::global_registry_lock();
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
    let mut links = Vec::new();
    for mut config in configs {
        // Small frames, so each client's events arrive in several pieces.
        config.events_per_frame = 3;
        let (client, link, _) = connect(&mut server, config);
        clients.push(client);
        links.push(link);
    }
    // Every `Events` frame the server was fed, as (client, local event).
    let mut arrivals: Vec<(usize, (u32, u32, OpKind))> = Vec::new();
    let mut serve = |server: &mut Server, c: usize, link: &mut Link| {
        service(server, link);
        while let Some(frame) = link.fed.try_next().expect("a well-formed client") {
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
            serve(&mut server, c, &mut links[c]);
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
            serve(&mut server, c, &mut links[c]);
        }
    }
    let runs: Vec<ClientRun> = clients
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
    let recorder = recorder(&server_run);
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

/// What [`Spy`] saw the server ask of its engine, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Stamp(ThreadId),
    Release(ThreadId),
}

/// A `TimestampingEngine` that logs each event it stamps and each thread
/// the server releases.
struct Spy {
    engine: TimestampingEngine,
    log: Arc<Mutex<Vec<Seen>>>,
}

impl Timestamper for Spy {
    fn name(&self) -> &str {
        "spy"
    }

    fn observe(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
    ) -> Result<VectorTimestamp, TimestampError> {
        let stamp = self.engine.observe(thread, object)?;
        self.log.lock().unwrap().push(Seen::Stamp(thread));
        Ok(stamp)
    }

    fn width(&self) -> usize {
        self.engine.width()
    }

    fn finish(&self) -> TimestampReport {
        self.engine.finish()
    }
}

impl ServeEngine for Spy {
    fn cover_object(&mut self, object: ObjectId) {
        self.engine.add_component(Component::Object(object));
    }

    fn release_thread(&mut self, thread: ThreadId) {
        self.log.lock().unwrap().push(Seen::Release(thread));
        self.engine.release_thread(thread);
    }
}

#[test]
fn a_completed_session_releases_its_threads_once_after_their_last_stamp() {
    let _lock = support::global_registry_lock();
    let log = Arc::new(Mutex::new(Vec::new()));
    let spy = Spy {
        engine: TimestampingEngine::new(),
        log: Arc::clone(&log),
    };
    let engine: Box<dyn ServeEngine> = Box::new(spy);
    let mut server = NetServer::new(
        engine,
        Box::new(MemoryRecorder::new()),
        ServerConfig::default(),
    );
    // Both clients name the same objects, so the clock never widens.
    let config = |threads: [&str; 2]| {
        let threads = threads.iter().map(|&t| t.to_owned()).collect();
        ClientConfig::new(threads, vec!["x".into(), "y".into()], true)
    };
    let (mut done, mut done_link, _) = connect(&mut server, config(["a0", "a1"]));
    let (mut cut, mut cut_link, _) = connect(&mut server, config(["b0", "b1"]));
    for i in 0..30 {
        done.record(i % 2, i % 3 % 2, OpKind::Write);
        cut.record(i % 2, i % 2, OpKind::Read);
        if i % 10 == 9 {
            for (client, link) in [(&mut done, &mut done_link), (&mut cut, &mut cut_link)] {
                client.step(ZERO).expect("client step");
                service(&mut server, link);
            }
        }
    }
    done.request_finish();
    drive(&mut server, &mut done_link, &mut done);
    // The other session is only disconnected: it may still resume.
    server.disconnect(cut_link.conn);
    let done = done.into_run().expect("finished");
    let server_run = server.finish().expect("finish");

    let log = log.lock().unwrap().clone();
    let released: Vec<ThreadId> = (log.iter())
        .filter_map(|seen| match *seen {
            Seen::Release(thread) => Some(thread),
            Seen::Stamp(_) => None,
        })
        .collect();
    let mut expected: Vec<ThreadId> = (done.thread_ids.iter())
        .map(|&t| ThreadId(t as usize))
        .collect();
    expected.sort_unstable();
    let mut sorted = released.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, expected, "each completed thread once, no other");
    let last = |seen| log.iter().rposition(|s| *s == seen).unwrap();
    for thread in released {
        assert!(
            last(Seen::Stamp(thread)) < last(Seen::Release(thread)),
            "{thread:?} released before its last stamp"
        );
    }

    let recorder = recorder(&server_run);
    assert_eq!(recorder.computation().len(), 60, "both sessions stamped");
    let mut batch = BatchReplay::new(server_run.report.components.clone());
    let reference = mvc_core::replay(&mut batch, recorder.computation()).unwrap();
    assert_eq!(recorder.timestamps(), reference.timestamps);
}

#[test]
fn an_overrun_of_the_credit_window_is_rejected_with_an_error_frame() {
    let _lock = support::global_registry_lock();
    let mut server = new_server(ServerConfig {
        credit_window: 4,
        stamps_per_frame: 16,
    });
    let conn = server.connect();
    let mut reader = FrameReader::new();
    let credit = match &exchange(&mut server, conn, &mut reader, &raw_hello(0, 0, &["o"]))[..] {
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
    let frames = exchange(&mut server, conn, &mut reader, &overrun);
    assert!(!server.is_open(conn), "overrun closes the connection");
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
    let _lock = support::global_registry_lock();
    let mut server = new_server(ServerConfig::default());
    let conn = server.connect();
    let mut reader = FrameReader::new();
    let frames = exchange(&mut server, conn, &mut reader, b"MVN\x09junkjunkjunk");
    assert!(!server.is_open(conn));
    match &frames[..] {
        [Frame::Error { message, .. }] => {
            assert!(message.contains("version 9"), "got: {message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn a_wide_sparse_session_gets_its_stamps_back_in_frames_that_fit() {
    let _lock = support::global_registry_lock();
    // 4 096 registered objects make every stamp 4 096 components wide.  Sent
    // as whole vectors, a default frame of 4 096 of them is 16 785 412
    // bytes, beyond `MAX_FRAME_LEN`: the client used to fail with
    // `Frame(Oversize(..))`.  As differences they cost what they store.
    let threads: Vec<String> = (0..4).map(|t| format!("t{t}")).collect();
    let objects: Vec<String> = (0..4096).map(|o| format!("o{o}")).collect();
    let touched = [3usize, 64, 2100, 4095];
    let script: Vec<(usize, usize)> = (0..5000).map(|i| (i % 4, touched[(i / 3) % 4])).collect();

    let mut server = new_server(ServerConfig::default());
    let (near, mut far) = InProcTransport::pair();
    let conn = server.connect();
    let config = ClientConfig::new(threads, objects, true);
    let mut client = ProducerClient::connect(near, config).expect("connect");
    for &(t, o) in &script {
        client.record(t, o, OpKind::Write);
    }
    client.request_finish();
    // What the server puts on the wire per round.
    let mut most_in_flight = 0;
    let mut buf = vec![0u8; 64 * 1024];
    while !client.is_finished() {
        client.step(ZERO).expect("client step");
        while let Ok(Recv::Bytes(n)) = far.recv(&mut buf, ZERO) {
            server.feed(conn, &buf[..n]).expect("feed");
        }
        server.pump().expect("pump");
        let out = server.take_outgoing(conn);
        most_in_flight = most_in_flight.max(out.len());
        far.send(&out).expect("send");
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
    let _lock = support::global_registry_lock();
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

#[test]
fn a_resume_inside_a_frame_is_refused_and_the_session_stays_resumable() {
    let _lock = support::global_registry_lock();
    let mut server = new_server(ServerConfig {
        credit_window: 1 << 16,
        stamps_per_frame: 4,
    });
    // Ten stamps, framed 0..4, 4..8 and 8..10, none of them read.
    let (token, _) = raw_session(&mut server, 10, false);

    // Six stamps received: inside the frame of stamps 4..8.
    let message = refused_hello(&mut server, &raw_hello(token, 6, &["o"]));
    assert!(message.contains("4..8"), "names the frame: {message}");

    // On the boundary the session resumes, with everything from stamp 4.
    let conn = server.connect();
    let mut reader = FrameReader::new();
    let frames = exchange(&mut server, conn, &mut reader, &raw_hello(token, 4, &["o"]));
    assert!(server.is_open(conn));
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
fn a_resume_that_renames_an_object_is_refused_and_the_session_stays_resumable() {
    let _lock = support::global_registry_lock();
    let mut server = new_server(ServerConfig::default());
    let (token, _) = raw_session(&mut server, 3, false);

    // As many objects as the session registered, but another name.
    let message = refused_hello(&mut server, &raw_hello(token, 0, &["p"]));
    assert!(
        message.contains("different registrations"),
        "got: {message}"
    );

    let conn = server.connect();
    let mut reader = FrameReader::new();
    let frames = exchange(&mut server, conn, &mut reader, &raw_hello(token, 0, &["o"]));
    assert!(server.is_open(conn));
    assert!(
        matches!(frames[0], Frame::HelloAck { token: t, watermark: 3, .. } if t == token),
        "got: {frames:?}"
    );
}

#[test]
fn resuming_a_completed_session_is_refused_as_already_completed() {
    let _lock = support::global_registry_lock();
    let mut server = new_server(ServerConfig::default());
    let (token, _) = raw_session(&mut server, 5, true);

    let message = refused_hello(&mut server, &raw_hello(token, 5, &["o"]));
    assert!(message.contains("already completed"), "got: {message}");
    let message = refused_hello(&mut server, &raw_hello(token + 1, 5, &["o"]));
    assert!(message.contains("unknown session token"), "got: {message}");
    let run = server.finish().expect("finish");
    assert_eq!(run.sessions.len(), 1);
    assert!(run.sessions[0].completed);
}
