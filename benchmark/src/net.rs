//! The `net-echo` workload: seeded inputs, the sequential reference, the
//! client loops (closed and open), and the plumbing around them — a
//! one-session `serve_tcp` server and a byte-counting relay.
//!
//! Everything here runs the system's own server and transport; the traced
//! sessions, which wrap both, live in the `trace` binary.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mvc_clock::ComponentMap;
use mvc_core::{replay, BatchReplay, StatsSink, TimestampingEngine};
use mvc_net::{
    serve_tcp, ClientConfig, ClientRun, NetError, NetServer, ProducerClient, ServerConfig,
    ServerRun, TcpTransport,
};
use mvc_trace::{Computation, ObjectId, OpKind, ThreadId, WorkloadBuilder, WorkloadKind};

use crate::args::Corrupt;
use crate::verify::Reference;

/// Threads and objects of the one producer.
pub const SIDE: usize = 64;
/// Events per closed session, and at most per open session.
pub const SESSION_EVENTS: usize = 200_000;
/// Events per open-loop batch, one `Events` frame each.
pub const BATCH: usize = 128;
/// Offered rate of the open-loop phase, events per second.
pub const OPEN_RATE: f64 = 100_000.0;
/// Events offered per open-loop session: 256 frames, a third of a second at
/// [`OPEN_RATE`] — about as long as a closed session.
pub const OPEN_SLICE: usize = 256 * BATCH;

/// Everything set-up derives from the seed for `net-echo`.
#[derive(Debug)]
pub struct NetInput {
    /// The producer's events, as local `(thread, object, kind)` indices.
    pub ops: Vec<(u32, u32, OpKind)>,
    /// Time `WorkloadBuilder::build` took, per event.
    pub generate_ns_per_event: f64,
}

impl NetInput {
    /// Generates the inputs from `seed`.
    pub fn build(seed: u64) -> Self {
        let started = Instant::now();
        let computation = WorkloadBuilder::new(SIDE, SIDE)
            .operations(SESSION_EVENTS)
            .kind(WorkloadKind::Uniform)
            .seed(seed)
            .build();
        let generate_ns_per_event = started.elapsed().as_nanos() as f64 / SESSION_EVENTS as f64;
        let ops: Vec<(u32, u32, OpKind)> = computation
            .events()
            .map(|e| (e.thread.index() as u32, e.object.index() as u32, e.kind))
            .collect();
        NetInput {
            ops,
            generate_ns_per_event,
        }
    }

    /// The client's registrations: `SIDE` threads and objects, stamps wanted.
    pub fn client_config(&self, events_per_frame: usize) -> ClientConfig {
        let names = |prefix: &str| (0..SIDE).map(|i| format!("{prefix}{i}")).collect();
        let mut config = ClientConfig::new(names("t"), names("o"), true);
        config.events_per_frame = events_per_frame;
        config
    }

    /// The expected stamps of a whole session: a sequential batch replay of
    /// the client's events, translated to the global ids the server assigned
    /// (`run`), under the server's final component map.
    ///
    /// # Errors
    ///
    /// A message if the server's map does not cover the events.
    pub fn reference(
        &self,
        components: &ComponentMap,
        run: &ClientRun,
        corrupt: Option<Corrupt>,
    ) -> Result<Reference, String> {
        let mut computation = Computation::new();
        computation.record_ops(self.ops.iter().map(|&(t, o, kind)| {
            (
                ThreadId(run.thread_ids[t as usize] as usize),
                ObjectId(run.object_ids[o as usize] as usize),
                kind,
            )
        }));
        let replayed = replay(&mut BatchReplay::new(components.clone()), &computation)
            .map_err(|e| format!("the server's component map does not cover the session: {e}"))?;
        let mut reference = Reference::new(self.client_threads().collect(), replayed.timestamps);
        if corrupt == Some(Corrupt::Stamp) {
            reference.corrupt();
        }
        Ok(reference)
    }

    /// The local thread of each event, in client order — the key the
    /// verification checks use.
    pub fn client_threads(&self) -> impl Iterator<Item = usize> + '_ {
        self.ops.iter().map(|op| op.0 as usize)
    }
}

/// Binds a loopback listener on a free port.
///
/// # Errors
///
/// The bind error, as text.
pub fn listen() -> Result<(TcpListener, SocketAddr), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    Ok((listener, addr))
}

/// Starts the system's own server — `serve_tcp` over a fresh
/// `NetServer<TimestampingEngine>` draining into a `StatsSink` — for one
/// session, on a background thread.
///
/// # Errors
///
/// The bind error, as text.
fn spawn_server() -> Result<(SocketAddr, JoinHandle<Result<ServerRun, NetError>>), String> {
    let (listener, addr) = listen()?;
    let server = NetServer::new(
        TimestampingEngine::new(),
        Box::new(StatsSink::new()),
        ServerConfig::default(),
    );
    let handle = std::thread::spawn(move || serve_tcp(listener, server, 1));
    Ok((addr, handle))
}

/// Joins a server thread.
///
/// # Errors
///
/// The server's error (or its panic), as text.
fn join_server(handle: JoinHandle<Result<ServerRun, NetError>>) -> Result<ServerRun, String> {
    handle
        .join()
        .map_err(|_| "the server thread panicked".to_owned())?
        .map_err(|e| e.to_string())
}

/// Why a finished session is wrong, if it is: every offered event must have
/// come back stamped, been stamped by the engine and reached the sink, at
/// clock width `width`.
pub fn session_fault(
    offered: usize,
    run: &ClientRun,
    server: &ServerRun,
    width: usize,
) -> Option<String> {
    if run.stamps.len() != offered
        || server.report.events != offered
        || server.sink.events_accepted() != offered
    {
        return Some(format!(
            "offered {offered} events: {} stamps returned, {} stamped, {} sunk",
            run.stamps.len(),
            server.report.events,
            server.sink.events_accepted()
        ));
    }
    (server.report.width() != width)
        .then(|| format!("clock width {} != {width}", server.report.width()))
}

/// What the verification session established about a correct session.
#[derive(Debug)]
pub struct Verified {
    /// Events compared with the reference.
    pub checked: u64,
    /// Of those, how many were missing or different.
    pub wrong: u64,
    /// Digest every later full session must reproduce.
    pub digest: u64,
    /// The server's final clock width.
    pub width: usize,
    /// Bytes that crossed the client's socket, `(up, down)` — counted by the
    /// relay, so only present when the session went through it.
    pub wire_bytes: Option<(u64, u64)>,
    /// Mean components in which a stamp differs from its thread's previous
    /// one.
    pub changed_components_per_stamp: f64,
    /// The first stamps of the session (for the frame codec timings).
    pub sample_stamps: Vec<mvc_clock::VectorTimestamp>,
}

/// The verification session: one closed session (through the byte-counting
/// relay if `relayed`), compared event for event with a sequential replay
/// under the server's final component map.
///
/// # Errors
///
/// Any failure to run the session at all, as text.
pub fn verify(
    input: &NetInput,
    corrupt: Option<Corrupt>,
    relayed: bool,
) -> Result<Verified, String> {
    let events = input.ops.len();
    let (server_addr, server) = spawn_server()?;
    let relay = relayed.then(|| spawn_relay(server_addr)).transpose()?;
    let addr = relay.as_ref().map_or(server_addr, |(addr, _)| *addr);
    let transport = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
    let run = closed_session(transport, input).map_err(|e| e.to_string())?;
    let wire_bytes = match relay {
        Some((_, handle)) => Some(
            handle
                .join()
                .map_err(|_| "the relay thread panicked".to_owned())??,
        ),
        None => None,
    };
    let server = join_server(server)?;
    let reference = input.reference(&server.report.components, &run, corrupt)?;
    let mut wrong = reference.mismatches(input.client_threads(), &run.stamps);
    if let Some(fault) = session_fault(events, &run, &server, server.report.width()) {
        eprintln!("verification session: {fault}");
        wrong = wrong.max(1);
    }
    Ok(Verified {
        checked: events as u64,
        wrong,
        digest: reference.digest(),
        width: server.report.width(),
        wire_bytes,
        changed_components_per_stamp: reference.changed_components_per_stamp(),
        sample_stamps: run.stamps[..4096.min(run.stamps.len())].to_vec(),
    })
}

/// One closed session against a fresh `serve_tcp` server, connect to goodbye
/// timed.
///
/// # Errors
///
/// Any failure of the session or the server, as text.
pub fn timed_session(input: &NetInput) -> Result<(Duration, ClientRun, ServerRun), String> {
    let (addr, server) = spawn_server()?;
    let started = Instant::now();
    let transport = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
    let run = closed_session(transport, input).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    Ok((elapsed, run, join_server(server)?))
}

/// The `slice`-th open-loop session against a fresh `serve_tcp` server: the
/// next [`OPEN_SLICE`] events of the input, wrapping around.
///
/// # Errors
///
/// Any failure of the session or the server, as text.
pub fn open_slice(
    input: &NetInput,
    slice: usize,
) -> Result<(OpenLoop, ClientRun, ServerRun), String> {
    let from = (slice * OPEN_SLICE) % (input.ops.len() - OPEN_SLICE);
    let (addr, server) = spawn_server()?;
    let transport = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
    let (measured, run) = open_session(transport, input, &input.ops[from..from + OPEN_SLICE])
        .map_err(|e| e.to_string())?;
    Ok((measured, run, join_server(server)?))
}

/// One closed session: open, record every event, finish (blocks until the
/// server's goodbye, i.e. until every stamp is back).
///
/// # Errors
///
/// Any protocol or transport error.
fn closed_session(transport: TcpTransport, input: &NetInput) -> Result<ClientRun, NetError> {
    let mut client = ProducerClient::connect(transport, input.client_config(16384))?;
    for &(thread, object, kind) in &input.ops {
        client.record(thread as usize, object as usize, kind);
    }
    client.finish()
}

/// What an open-loop session measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per batch: due time → stamps delivered, in microseconds.
    pub latencies_us: Vec<f64>,
    /// How late the generator started its worst batch, in microseconds.
    pub max_late_us: f64,
}

/// One open-loop session over `ops`: [`BATCH`]-event frames offered on a
/// fixed schedule at [`OPEN_RATE`]; a batch's latency runs from the instant
/// it was due to the instant `stamps().len()` covers it.
///
/// # Errors
///
/// Any protocol or transport error.
fn open_session(
    transport: TcpTransport,
    input: &NetInput,
    ops: &[(u32, u32, OpKind)],
) -> Result<(OpenLoop, ClientRun), NetError> {
    let mut client = ProducerClient::connect(transport, input.client_config(BATCH))?;
    // The handshake is not part of any batch's latency.
    while !client.step(Some(Duration::from_millis(1)))? {}
    let interval = Duration::from_secs_f64(BATCH as f64 / OPEN_RATE);
    let mut measured = OpenLoop::default();
    let mut due_times: Vec<Instant> = Vec::new();
    let harvest = |client: &ProducerClient<TcpTransport>, due: &[Instant], out: &mut Vec<f64>| {
        let covered = (client.stamps().len() / BATCH).min(due.len());
        while out.len() < covered {
            out.push(due[out.len()].elapsed().as_secs_f64() * 1e6);
        }
    };
    let start = Instant::now() + Duration::from_millis(1);
    for (i, batch) in ops.chunks_exact(BATCH).enumerate() {
        let due = start + interval * i as u32;
        // Poll for stamps of earlier batches until this one is due.
        let late = loop {
            let now = Instant::now();
            if now >= due {
                break (now - due).as_secs_f64() * 1e6;
            }
            client.step(Some(Duration::ZERO))?;
            harvest(&client, &due_times, &mut measured.latencies_us);
        };
        measured.max_late_us = measured.max_late_us.max(late);
        for &(thread, object, kind) in batch {
            client.record(thread as usize, object as usize, kind);
        }
        due_times.push(due);
        client.step(Some(Duration::ZERO))?;
        harvest(&client, &due_times, &mut measured.latencies_us);
    }
    client.request_finish();
    while !client.is_finished() {
        client.step(Some(Duration::ZERO))?;
        harvest(&client, &due_times, &mut measured.latencies_us);
    }
    harvest(&client, &due_times, &mut measured.latencies_us);
    // A batch whose stamps never arrived counts as infinitely late.
    measured.latencies_us.resize(due_times.len(), f64::INFINITY);
    Ok((measured, client.into_run()?))
}

/// The relay's thread; joins to `(bytes client → server, bytes server →
/// client)`.
pub type Relay = JoinHandle<Result<(u64, u64), String>>;

/// A byte-counting TCP relay for one connection: the benchmark's own count
/// of what crosses the client's socket, taken without implementing the
/// system's `Transport`.  Returns `(bytes client → server, bytes server →
/// client)` when both directions have closed.
///
/// # Errors
///
/// The bind error, as text.
pub fn spawn_relay(upstream: SocketAddr) -> Result<(SocketAddr, Relay), String> {
    fn copy(mut from: TcpStream, mut to: TcpStream) -> Result<u64, String> {
        let mut buf = vec![0u8; 64 * 1024];
        let mut total = 0u64;
        loop {
            match from.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    to.write_all(&buf[..n]).map_err(|e| e.to_string())?;
                    total += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // The client drops its socket right after the goodbye; a
                // reset then is the end of the stream, not a fault.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
                Err(e) => return Err(e.to_string()),
            }
        }
        to.shutdown(Shutdown::Write).ok();
        Ok(total)
    }
    let (listener, addr) = listen()?;
    let handle = std::thread::spawn(move || {
        let io = |e: std::io::Error| e.to_string();
        let (client, _) = listener.accept().map_err(io)?;
        let server = TcpStream::connect(upstream).map_err(io)?;
        client.set_nodelay(true).map_err(io)?;
        server.set_nodelay(true).map_err(io)?;
        let (client_rx, server_tx) = (
            client.try_clone().map_err(io)?,
            server.try_clone().map_err(io)?,
        );
        let up = std::thread::spawn(move || copy(client_rx, server_tx));
        let down = copy(server, client);
        let up = up
            .join()
            .map_err(|_| "the relay thread panicked".to_owned())?;
        Ok((up?, down?))
    });
    Ok((addr, handle))
}
