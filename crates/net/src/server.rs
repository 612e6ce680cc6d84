//! The timestamping server: N client sessions multiplexed into one
//! engine → sink pipeline.
//!
//! The core, [`NetServer`], is written *sans I/O*: it consumes raw bytes
//! via [`feed`](NetServer::feed), advances the pipeline via
//! [`pump`](NetServer::pump), and produces raw bytes via
//! [`take_outgoing`](NetServer::take_outgoing).  A test schedule is then
//! just a sequence of those calls, which the root test suite draws from a
//! seed and interleaves with client steps, holding the bytes in between
//! itself; [`serve_tcp`] wraps the same core in a thread-per-connection
//! loop behind one mutex.  Inside, it is plain data: the engine, a
//! [`StampLoop`], the sink that routes stamps back, and slabs of sessions
//! and connections.
//!
//! ## Session vs. connection
//!
//! A *session* is a producer's logical stream of events; a *connection* is
//! one transport carrying it.  Sessions survive connection loss: the
//! server keeps the session's ingest watermark, unacknowledged stamp
//! frames, and registrations, and a client that reconnects with its token
//! resumes by replaying its log from the `HelloAck` watermark.  Because
//! events are stamped in the order they were first ingested and replayed
//! events below the watermark are never ingested again, the interleaving —
//! and therefore every stamp — is bit-for-bit identical to an
//! uninterrupted run.
//!
//! A session that completes its `Goodbye` never resumes, so it leaves only
//! its [`SessionSummary`]; its route, frame log, token and slot go, and so
//! do its threads' rows ([`ServeEngine::release_thread`]: both engines
//! free them, in every shard for a `ShardedEngine`).  Thread ids are never
//! reused, so each thread keeps a fixed-size empty row slot and owner slot;
//! objects stay, being the clock's components.  A connection's slot is freed at
//! [`disconnect`](NetServer::disconnect), or when the last bytes of a
//! connection the server closed are taken; a stale [`ConnId`] is inert.
//!
//! ## Stamp return
//!
//! The server records each `Events` frame into its stamp loop whole, in
//! arrival order: the server lock serialises the frames and each client
//! sends its events in program order, so arrival order is a linear
//! extension of both chain families and the stamps come back in each
//! session's send order.
//! The sink the server wraps around the user's frames each window's
//! returned stamps before it hands the window on: it reads them where they
//! lie in the window's stamp column and encodes them into their session's
//! open `Stamps` frame.  A frame stays open across windows and closes at
//! [`ServerConfig::stamps_per_frame`] stamps, at the protocol's byte and
//! word limits, or at the end of a [`pump`](NetServer::pump).  Nothing is
//! cloned per stamp: at a window's end the route clones only each lane's
//! latest stamp in the open frame, which a later stamp of the frame may be
//! based on.  A window the user's sink refuses is routed once; its re-offer
//! is not routed again, and only a pump that succeeds copies frames into an
//! outbox.
//!
//! A session's retransmit log holds the encoded frames, not stamps: the
//! outbox gets copies, `StampsAck` drops whole frames, and a resume
//! replays the same bytes from the frame boundary the client reached.  In
//! an outbox, `Credit` goes behind the `Stamps` it follows, which suits the
//! client's step order — send, read, send, decode: the client sends its
//! next window as soon as it has read the grant, and decodes the stamps
//! while the server works on that window.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::net::TcpListener;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mvc_clock::{Component, VectorTimestamp};
use mvc_core::{
    EventSink, PipelineError, SinkError, StampLoop, TimestampReport, Timestamper,
    TimestampingEngine,
};
use mvc_shard::ShardedEngine;
use mvc_trace::{ObjectId, OpKind, ThreadId};

use crate::frame::{
    count_sent, error_code, write_frame, write_stream_header, Frame, FrameReader, StampsWriter,
};
use crate::transport::{Recv, Transport, TransportError};
use crate::NetError;

/// A [`Timestamper`] the server can grow as clients register objects.
///
/// The server assigns every registered object its own clock component
/// (`Component::Object`), which keeps each event coverable no matter which
/// client's threads touch it — and is the paper-optimal cover for
/// object-dominated workloads.  Implemented for both engines; implement it
/// for your own timestamper to plug it into [`NetServer`].
pub trait ServeEngine: Timestamper + Send {
    /// Ensures `object` is covered by the engine's component map (must be
    /// idempotent).
    fn cover_object(&mut self, object: ObjectId);

    /// Frees what the engine holds for `thread`, whose session has
    /// completed: it observes nothing more, and its id is never reused.
    /// The default keeps everything.
    fn release_thread(&mut self, _thread: ThreadId) {}
}

impl ServeEngine for TimestampingEngine {
    fn cover_object(&mut self, object: ObjectId) {
        self.add_component(Component::Object(object));
    }

    fn release_thread(&mut self, thread: ThreadId) {
        TimestampingEngine::release_thread(self, thread);
    }
}

impl ServeEngine for ShardedEngine {
    fn cover_object(&mut self, object: ObjectId) {
        self.add_component(Component::Object(object));
    }

    fn release_thread(&mut self, thread: ThreadId) {
        ShardedEngine::release_thread(self, thread);
    }
}

impl ServeEngine for Box<dyn ServeEngine> {
    fn cover_object(&mut self, object: ObjectId) {
        (**self).cover_object(object);
    }

    fn release_thread(&mut self, thread: ThreadId) {
        (**self).release_thread(thread);
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Send-credit window granted to each session, in events: a client can
    /// never have more than this many unstamped events in flight.  (It does
    /// not bound the stamp frames a session holds for replay; only
    /// `StampsAck` prunes those.)
    pub credit_window: u64,
    /// Maximum stamps packed into one `Stamps` frame (a frame also closes
    /// at the protocol's byte and word limits, whichever comes first).
    pub stamps_per_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            credit_window: 1 << 16,
            stamps_per_frame: 4096,
        }
    }
}

/// Handle to one server-side connection: its slot and the slot's
/// generation, so a handle outlived by its connection is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(Key);

/// A slot and the generation it was issued at.
type Key = (usize, u64);

/// Reusable slots, each with a generation that freeing it bumps, so a key
/// issued before reads nothing, even once the slot holds another entry.
/// The occupied count is mirrored on a gauge.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<(u64, Option<T>)>,
    live: usize,
    gauge: mvc_obs::Gauge,
}

impl<T> Slab<T> {
    fn new(gauge: mvc_obs::Gauge) -> Self {
        let slots = Vec::new();
        Slab {
            slots,
            live: 0,
            gauge,
        }
    }

    fn insert(&mut self, value: T) -> Key {
        let free = self.slots.iter().position(|(_, v)| v.is_none());
        let slot = free.unwrap_or(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push((0, None));
        }
        self.slots[slot].1 = Some(value);
        self.live += 1;
        self.gauge.add(1);
        (slot, self.slots[slot].0)
    }

    fn get(&self, (slot, generation): Key) -> Option<&T> {
        let (g, value) = self.slots.get(slot)?;
        value.as_ref().filter(|_| *g == generation)
    }

    fn get_mut(&mut self, (slot, generation): Key) -> Option<&mut T> {
        let (g, value) = self.slots.get_mut(slot)?;
        value.as_mut().filter(|_| *g == generation)
    }

    fn remove(&mut self, key: Key) -> Option<T> {
        self.get(key)?;
        let (generation, value) = &mut self.slots[key.0];
        *generation += 1;
        self.live -= 1;
        self.gauge.add(-1);
        value.take()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (Key, &mut T)> {
        let slots = self.slots.iter_mut().enumerate();
        slots.filter_map(|(slot, (g, value))| Some(((slot, *g), value.as_mut()?)))
    }
}

impl<T> Drop for Slab<T> {
    fn drop(&mut self) {
        self.gauge.add(-(self.live as i64));
    }
}

/// The sink the server wraps around the user's sink.  It frames the stamps
/// of threads whose session asked for them straight from each window's
/// stamp column, then forwards the window unchanged.
///
/// Events are stamped in arrival order, so a session's stamps arrive in its
/// send order: per returned stamp the sink resolves the column index to its
/// session and lane and encodes the stamp into the session's open `Stamps`
/// frame where it lies.  At the window's end, before the inner sink may
/// take the column, the route clones what it still refers to: each lane's
/// latest stamp in the open frame (a later stamp of the frame may be based
/// on it).
///
/// Routing comes first; the window is the inner sink's only afterwards.  If
/// the inner sink refuses, the pipeline re-offers the identical window
/// before anything new (the `EventSink` contract), and that re-offer is
/// forwarded without routing it again: a stamp is framed exactly once.
/// The frames it closed wait in the retransmit log, and only a pump that
/// succeeds copies frames into an outbox, so no frame leaves before the
/// inner sink has accepted every stamp in it.
struct RouterSink {
    inner: Box<dyn EventSink>,
    /// `owner[global thread index]`: the session slot and lane (local
    /// thread) whose stamps come back, or `None` for a session without
    /// stamps or one that has completed.  Both fit `u32` by far (a slot
    /// per live session, a lane per thread of one `Hello`), and a finished
    /// thread keeps its 12 bytes here.
    owner: Vec<Option<(u32, u32)>>,
    /// Per session slot; a free slot's route is empty.
    routes: Vec<StampRoute<'static>>,
    /// Whether the inner sink refused the last window offered: its re-offer
    /// is routed already.
    refused: bool,
    stamps_per_frame: usize,
    /// The first stamp that could not be routed: fatal, surfaced by
    /// [`NetServer::pump`].
    fault: Option<String>,
    /// `net.server.stamp_wire_bytes` (bytes): framed bytes per stamp of
    /// each `Stamps` frame encoded.
    stamp_wire_bytes: mvc_obs::Histogram,
    /// `net.server.retransmit_bytes` (bytes), handed to each frame log.
    retransmit_bytes: mvc_obs::Gauge,
}

/// One session's stamp return, in send order.  Between windows it is a
/// `StampRoute<'static>`; during one, its open frame may borrow from the
/// window's column (`'a`).
#[derive(Debug)]
struct StampRoute<'a> {
    /// Events ingested whose stamps are not yet framed.
    owed: u64,
    /// The open frame: the stamps from `log.end` on.
    writer: StampsWriter<'a>,
    log: FrameLog,
}

impl<'a> StampRoute<'a> {
    /// Writes the next stamp in send order into the open frame, closing
    /// frames into the log as they fill.
    fn write(
        &mut self,
        lane: u32,
        mut stamp: Cow<'a, VectorTimestamp>,
        wire_bytes: &mvc_obs::Histogram,
    ) {
        while let Err(refused) = self.writer.push(lane, stamp) {
            self.close_frame(wire_bytes);
            stamp = refused;
        }
        if self.writer.is_full() {
            self.close_frame(wire_bytes);
        }
    }

    /// Closes the open frame into the log.
    fn close_frame(&mut self, wire_bytes: &mvc_obs::Histogram) {
        let mut bytes = Vec::new();
        let count = self.writer.close(&mut bytes);
        wire_bytes.record((bytes.len() / count) as u64);
        self.log.push(count as u64, bytes);
    }

    /// The route as it outlives its window: what it still borrows from the
    /// column, cloned.
    fn keep(self) -> StampRoute<'static> {
        StampRoute {
            owed: self.owed,
            writer: self.writer.keep(),
            log: self.log,
        }
    }
}

/// One encoded `Stamps` frame: stamps `first..first + count`.
#[derive(Debug)]
struct StampFrame {
    first: u64,
    count: u64,
    /// The frame as it goes on the wire, length prefix included.
    bytes: Vec<u8>,
}

/// A session's retransmit log: the `Stamps` frames not yet acknowledged,
/// oldest first, kept as bytes so a replay resends exactly what was sent.
/// Their bytes are on `net.server.retransmit_bytes` while they are held.
#[derive(Debug)]
struct FrameLog {
    frames: VecDeque<StampFrame>,
    /// Stamps framed so far (one past the newest frame's last stamp).
    end: u64,
    /// Bytes of `frames`.
    bytes: u64,
    gauge: mvc_obs::Gauge,
}

impl FrameLog {
    fn new(gauge: mvc_obs::Gauge) -> Self {
        FrameLog {
            frames: VecDeque::new(),
            end: 0,
            bytes: 0,
            gauge,
        }
    }

    /// The first stamp still held (`end` when none is).
    fn base(&self) -> u64 {
        self.frames.front().map_or(self.end, |f| f.first)
    }

    fn push(&mut self, count: u64, bytes: Vec<u8>) {
        self.move_bytes(bytes.len() as i64);
        self.frames.push_back(StampFrame {
            first: self.end,
            count,
            bytes,
        });
        self.end += count;
    }

    /// The frames from the one that starts at stamp `from` on.
    fn since(&self, from: u64) -> impl Iterator<Item = &StampFrame> {
        let at = self.frames.partition_point(|f| f.first < from);
        self.frames.range(at..)
    }

    /// The held frame that has `stamp` strictly inside it, if any.
    fn straddling(&self, stamp: u64) -> Option<&StampFrame> {
        // The last frame that starts below `stamp`.
        let at = self.frames.partition_point(|f| f.first < stamp);
        self.frames
            .get(at.checked_sub(1)?)
            .filter(|f| stamp < f.first + f.count)
    }

    /// Drops the frames whose stamps all lie below `received`.
    fn drop_below(&mut self, received: u64) {
        while let Some(frame) = self.frames.pop_front_if(|f| f.first + f.count <= received) {
            self.move_bytes(-(frame.bytes.len() as i64));
        }
    }

    fn move_bytes(&mut self, delta: i64) {
        self.bytes = self.bytes.wrapping_add_signed(delta);
        self.gauge.add(delta);
    }
}

impl Drop for FrameLog {
    fn drop(&mut self) {
        self.gauge.add(-(self.bytes as i64));
    }
}

impl RouterSink {
    fn new(inner: Box<dyn EventSink>, stamps_per_frame: usize) -> Self {
        let registry = mvc_obs::global();
        RouterSink {
            inner,
            owner: Vec::new(),
            routes: Vec::new(),
            refused: false,
            stamps_per_frame: stamps_per_frame.max(1),
            fault: None,
            stamp_wire_bytes: registry.histogram("net.server.stamp_wire_bytes"),
            retransmit_bytes: registry.gauge("net.server.retransmit_bytes"),
        }
    }

    /// Opens the route of the session in `slot`, whose lanes are the
    /// global threads `threads`.
    fn open_route(&mut self, slot: usize, threads: Range<usize>, want_stamps: bool) {
        if want_stamps {
            self.owner.resize(self.owner.len().max(threads.end), None);
            for (lane, thread) in threads.enumerate() {
                self.owner[thread] = Some((slot as u32, lane as u32));
            }
        }
        if slot == self.routes.len() {
            self.routes.push(self.empty_route());
        }
    }

    /// Frees everything the completed session in `slot` held: its frames,
    /// its open frame and its threads' claims on their stamps.
    fn close_route(&mut self, slot: usize, threads: Range<usize>) {
        if let Some(owners) = self.owner.get_mut(threads) {
            owners.fill(None);
        }
        self.routes[slot] = self.empty_route();
    }

    fn empty_route(&self) -> StampRoute<'static> {
        StampRoute {
            owed: 0,
            writer: StampsWriter::new(0, self.stamps_per_frame),
            log: FrameLog::new(self.retransmit_bytes.clone()),
        }
    }

    /// Frames the window's returned stamps, reading them from `column`, and
    /// clones what the routes still refer to once the window is done.
    fn route_window(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        column: &[VectorTimestamp],
    ) {
        let mut routes: Vec<StampRoute<'_>> = std::mem::take(&mut self.routes);
        for (&(thread, _, _), stamp) in events.iter().zip(column) {
            let Some(&Some((sid, lane))) = self.owner.get(thread.index()) else {
                continue;
            };
            let route = &mut routes[sid as usize];
            if route.owed == 0 {
                self.fault.get_or_insert_with(|| {
                    format!("stamp without a pending event on session {sid}")
                });
                continue;
            }
            route.owed -= 1;
            route.write(lane, Cow::Borrowed(stamp), &self.stamp_wire_bytes);
        }
        self.routes = routes.into_iter().map(StampRoute::keep).collect();
    }

    /// Frames every session's remaining stamps, a partial frame included:
    /// the end of a pump.
    fn frame_ready(&mut self) {
        for route in &mut self.routes {
            if !route.writer.is_empty() {
                route.close_frame(&self.stamp_wire_bytes);
            }
        }
    }
}

impl EventSink for RouterSink {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn accept_columns(
        &mut self,
        events: &[(ThreadId, ObjectId, OpKind)],
        stamps: &mut Vec<VectorTimestamp>,
    ) -> Result<(), SinkError> {
        if !std::mem::take(&mut self.refused) {
            self.route_window(events, stamps);
        }
        let accepted = self.inner.accept_columns(events, stamps);
        self.refused = accepted.is_err();
        accepted
    }

    fn flush(&mut self) -> Result<(), SinkError> {
        self.inner.flush()
    }

    fn events_accepted(&self) -> usize {
        self.inner.events_accepted()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

/// Per-session server state (survives connection loss; dropped when the
/// session completes).
#[derive(Debug)]
struct Session {
    token: u64,
    /// The global thread ids of its local threads `0..`, in order.
    threads: Range<usize>,
    objects: Vec<ObjectId>,
    want_stamps: bool,
    /// Events ingested (the reconnect watermark and `Credit.acked` value).
    ingested: u64,
    /// Remaining send credit.
    credit: u64,
    /// Client's claimed total from its `Goodbye`, once received.
    goodbye_at: Option<u64>,
    conn: Option<ConnId>,
    /// First stamp of the next frame to copy into the connection's outbox
    /// (always a frame boundary).  The stamps themselves, framed, are the
    /// session's route in the [`RouterSink`].
    next_send: u64,
}

impl Session {
    fn summary(&self, completed: bool) -> SessionSummary {
        SessionSummary {
            token: self.token,
            ingested: self.ingested,
            threads: self.threads.len(),
            completed,
        }
    }
}

/// Registry handles for the server's session-layer metrics, resolved once
/// at construction so the frame handlers never touch the registry (names
/// and meanings in docs/OBSERVABILITY.md).
#[derive(Debug)]
struct ServerMetrics {
    sessions_opened: mvc_obs::Counter,
    sessions_resumed: mvc_obs::Counter,
    events_ingested: mvc_obs::Counter,
    /// Events in flight when a credit refill fired.
    credit_occupancy: mvc_obs::Histogram,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        let registry = mvc_obs::global();
        ServerMetrics {
            sessions_opened: registry.counter("net.server.sessions_opened"),
            sessions_resumed: registry.counter("net.server.sessions_resumed"),
            events_ingested: registry.counter("net.server.events_ingested"),
            credit_occupancy: registry.histogram("net.server.credit_occupancy"),
        }
    }
}

/// Per-connection server state.
#[derive(Debug)]
struct Conn {
    reader: FrameReader,
    outbox: Vec<u8>,
    session: Option<Key>,
    open: bool,
}

impl Conn {
    /// Marks the connection closed and detaches its session, which stays
    /// resumable.
    fn close(&mut self, sessions: &mut Slab<Session>) {
        self.open = false;
        if let Some(session) = self.session.take().and_then(|sid| sessions.get_mut(sid)) {
            session.conn = None;
        }
    }
}

/// Summary of one session after [`NetServer::finish`].
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// The session's token.
    pub token: u64,
    /// Events ingested from this session.
    pub ingested: u64,
    /// Number of threads the session registered.
    pub threads: usize,
    /// Whether the session ended with a completed goodbye handshake.
    pub completed: bool,
}

/// Everything the server produced, returned by [`NetServer::finish`].
pub struct ServerRun {
    /// The user's sink, with every stamped event fanned into it.
    pub sink: Box<dyn EventSink>,
    /// The engine's final report (clock width, component map, event count).
    pub report: TimestampReport,
    /// Per-session summaries, in session-creation order.
    pub sessions: Vec<SessionSummary>,
}

/// The sans-I/O server core: sessions, framing, backpressure, and the
/// single shared stamp loop.
///
/// All methods are synchronous and non-blocking; an I/O layer (a test
/// schedule or [`serve_tcp`]) moves bytes between transports and this
/// core: [`feed`](Self::feed) what a connection received,
/// [`pump`](Self::pump), and send what [`take_outgoing`](Self::take_outgoing)
/// returns.
pub struct NetServer<E: ServeEngine> {
    engine: E,
    stamps: StampLoop,
    router: RouterSink,
    config: ServerConfig,
    /// Live sessions (`net.server.sessions_live`); a session's slot is also
    /// its route's index in the router.
    sessions: Slab<Session>,
    /// Connections not yet freed (`net.server.conns_live`).
    conns: Slab<Conn>,
    object_ids: HashMap<String, ObjectId>,
    next_token: u64,
    next_thread: usize,
    /// One summary per completed session.
    completed: Vec<SessionSummary>,
    metrics: ServerMetrics,
}

/// The session a connection said Hello for.
fn session_of<'a>(
    conns: &Slab<Conn>,
    sessions: &'a mut Slab<Session>,
    conn: ConnId,
) -> Result<(Key, &'a mut Session), String> {
    let sid = conns.get(conn.0).and_then(|c| c.session);
    sid.and_then(|sid| Some((sid, sessions.get_mut(sid)?)))
        .ok_or_else(|| "frame before Hello".to_owned())
}

impl<E: ServeEngine> NetServer<E> {
    /// Creates a server draining into `sink` through `engine`.
    pub fn new(engine: E, sink: Box<dyn EventSink>, config: ServerConfig) -> Self {
        let registry = mvc_obs::global();
        NetServer {
            engine,
            stamps: StampLoop::new(),
            router: RouterSink::new(sink, config.stamps_per_frame),
            config,
            sessions: Slab::new(registry.gauge("net.server.sessions_live")),
            conns: Slab::new(registry.gauge("net.server.conns_live")),
            object_ids: HashMap::new(),
            next_token: 1,
            next_thread: 0,
            completed: Vec::new(),
            metrics: ServerMetrics::default(),
        }
    }

    /// Registers a new connection and queues the server's stream header.
    pub fn connect(&mut self) -> ConnId {
        let mut outbox = Vec::with_capacity(64);
        write_stream_header(&mut outbox);
        ConnId(self.conns.insert(Conn {
            reader: FrameReader::new(),
            outbox,
            session: None,
            open: true,
        }))
    }

    /// Whether the connection is still open (has not errored, closed, or
    /// finished its session).
    pub fn is_open(&self, conn: ConnId) -> bool {
        self.conns.get(conn.0).is_some_and(|c| c.open)
    }

    /// Forgets a connection whose transport closed or failed, and frees
    /// its slot: nothing queued for it can be delivered any more.  Its
    /// session, if any, is detached and can be resumed by a reconnect;
    /// any half-received frame is discarded with the reader.
    pub fn disconnect(&mut self, conn: ConnId) {
        if let Some(mut c) = self.conns.remove(conn.0) {
            c.close(&mut self.sessions);
        }
    }

    /// Consumes raw bytes from a connection, decoding and handling every
    /// complete frame.
    ///
    /// Protocol violations do not return an error: they queue an
    /// [`Frame::Error`] on the offending connection and close it (the
    /// session stays resumable).  Bytes for a closed connection are
    /// ignored.
    ///
    /// # Errors
    ///
    /// None today: events are stamped by [`pump`](Self::pump), whose
    /// [`NetError::Pipeline`] is the server's only fatal error.
    pub fn feed(&mut self, conn: ConnId, bytes: &[u8]) -> Result<(), NetError> {
        let Some(c) = self.conns.get_mut(conn.0).filter(|c| c.open) else {
            return Ok(());
        };
        c.reader.feed(bytes);
        // A frame may close the connection: read on only while it is open.
        while let Some(c) = self.conns.get_mut(conn.0).filter(|c| c.open) {
            let violation = match c.reader.try_next() {
                Ok(Some(frame)) => match self.handle_frame(conn, frame) {
                    Ok(()) => continue,
                    Err(violation) => violation,
                },
                Ok(None) => break,
                Err(e) => e.to_string(),
            };
            self.fail_conn(conn, error_code::PROTOCOL, &violation);
        }
        Ok(())
    }

    /// Queues an error frame on the connection and closes it, detaching
    /// (but keeping) its session.
    fn fail_conn(&mut self, conn: ConnId, code: u8, message: &str) {
        if let Some(c) = self.conns.get_mut(conn.0).filter(|c| c.open) {
            let message = message.to_owned();
            write_frame(&mut c.outbox, &Frame::Error { code, message });
            c.close(&mut self.sessions);
        }
    }

    fn handle_frame(&mut self, conn: ConnId, frame: Frame) -> Result<(), String> {
        match frame {
            Frame::Hello {
                token,
                want_stamps,
                stamps_received,
                threads,
                objects,
            } => self.handle_hello(conn, token, want_stamps, stamps_received, threads, objects),
            Frame::Events { events } => self.handle_events(conn, &events),
            Frame::StampsAck { received } => self.handle_stamps_ack(conn, received),
            Frame::Goodbye { events } => self.handle_goodbye(conn, events),
            Frame::Error { .. } => {
                // Client-side failure: treat as a disconnect.
                self.disconnect(conn);
                Ok(())
            }
            Frame::HelloAck { .. } | Frame::Stamps { .. } | Frame::Credit { .. } => {
                Err("server received a server-only frame".to_owned())
            }
        }
    }

    fn handle_hello(
        &mut self,
        conn: ConnId,
        token: u64,
        want_stamps: bool,
        stamps_received: u64,
        threads: Vec<String>,
        objects: Vec<String>,
    ) -> Result<(), String> {
        if self.conns.get(conn.0).is_some_and(|c| c.session.is_some()) {
            return Err("second Hello on one connection".to_owned());
        }
        let sid = if token == 0 {
            self.open_session(want_stamps, &threads, &objects)
        } else {
            self.resume_session(token, want_stamps, stamps_received, &threads, &objects)?
        };
        let (Some(c), Some(session)) = (self.conns.get_mut(conn.0), self.sessions.get_mut(sid))
        else {
            return Ok(());
        };
        c.session = Some(sid);
        session.conn = Some(conn);
        let ack = Frame::HelloAck {
            token: session.token,
            watermark: session.ingested,
            credit: session.credit,
            thread_ids: session.threads.clone().map(|t| t as u64).collect(),
            object_ids: session.objects.iter().map(|o| o.index() as u64).collect(),
        };
        write_frame(&mut c.outbox, &ack);
        Ok(())
    }

    fn open_session(&mut self, want_stamps: bool, threads: &[String], objects: &[String]) -> Key {
        self.metrics.sessions_opened.inc();
        let token = self.next_token;
        self.next_token += 1;
        let threads = self.next_thread..self.next_thread + threads.len();
        self.next_thread = threads.end;
        // A new name gets the next object id and its own clock component.
        let objects = objects.iter().map(|name| {
            let next = ObjectId(self.object_ids.len());
            *self.object_ids.entry(name.clone()).or_insert_with(|| {
                self.engine.cover_object(next);
                next
            })
        });
        let sid = self.sessions.insert(Session {
            token,
            threads: threads.clone(),
            objects: objects.collect(),
            want_stamps,
            ingested: 0,
            credit: self.config.credit_window,
            goodbye_at: None,
            conn: None,
            next_send: 0,
        });
        self.router.open_route(sid.0, threads, want_stamps);
        sid
    }

    fn resume_session(
        &mut self,
        token: u64,
        want_stamps: bool,
        stamps_received: u64,
        threads: &[String],
        objects: &[String],
    ) -> Result<Key, String> {
        let Some((sid, session)) = self.sessions.iter_mut().find(|(_, s)| s.token == token) else {
            // Tokens are issued in order and only a completed session's
            // token stops being live.
            return Err(if token < self.next_token {
                format!("session {token} already completed")
            } else {
                format!("unknown session token {token}")
            });
        };
        if session.conn.is_some() {
            return Err(format!("session {token} is already connected"));
        }
        // Object names are compared through the name table; thread names
        // are not kept, so only their count is.
        let same_objects = session.objects.len() == objects.len()
            && (objects.iter().zip(&session.objects))
                .all(|(name, id)| self.object_ids.get(name) == Some(id));
        if session.threads.len() != threads.len()
            || !same_objects
            || session.want_stamps != want_stamps
        {
            return Err(format!(
                "session {token} resumed with different registrations"
            ));
        }
        let log = &mut self.router.routes[sid.0].log;
        if stamps_received > log.end {
            return Err(format!(
                "session {token} claims {stamps_received} stamps received, only {} were produced",
                log.end
            ));
        }
        if stamps_received < log.base() {
            return Err(format!(
                "session {token} claims {stamps_received} stamps received, already acknowledged {}",
                log.base()
            ));
        }
        // A client holds whole frames only.
        if let Some(frame) = log.straddling(stamps_received) {
            return Err(format!(
                "session {token} claims {stamps_received} stamps received, inside the frame of \
                 stamps {}..{}: a resume starts at a frame boundary",
                frame.first,
                frame.first + frame.count
            ));
        }
        // The client definitely holds everything below `stamps_received`:
        // prune, and replay the frames from there.
        log.drop_below(stamps_received);
        session.next_send = stamps_received;
        // Credit in flight on the dead connection is void; grant a fresh
        // window (the HelloAck carries it).
        session.credit = self.config.credit_window;
        self.metrics.sessions_resumed.inc();
        Ok(sid)
    }

    fn handle_events(&mut self, conn: ConnId, events: &[(u32, u32, OpKind)]) -> Result<(), String> {
        let (sid, session) = session_of(&self.conns, &mut self.sessions, conn)?;
        if session.goodbye_at.is_some() {
            return Err("events after Goodbye".to_owned());
        }
        let n = events.len() as u64;
        if n > session.credit {
            return Err(format!(
                "credit exceeded: {n} events sent, {} allowed",
                session.credit
            ));
        }
        // All or nothing: every id is checked before the first event is
        // recorded, so a refused frame leaves no event behind.
        for &(local_thread, local_object, _) in events {
            if local_thread as usize >= session.threads.len() {
                return Err(format!("unknown local thread {local_thread}"));
            }
            if local_object as usize >= session.objects.len() {
                return Err(format!("unknown local object {local_object}"));
            }
        }
        // Arrival order is the serialization: the transport keeps each
        // client's send order and the server lock serialises frames.
        let (first, objects) = (session.threads.start, &session.objects);
        self.stamps
            .record(events.iter().map(|&(thread, object, kind)| {
                (
                    ThreadId(first + thread as usize),
                    objects[object as usize],
                    kind,
                )
            }));
        if session.want_stamps {
            self.router.routes[sid.0].owed += n;
        }
        session.ingested += n;
        session.credit -= n;
        self.metrics.events_ingested.add(n);
        Ok(())
    }

    fn handle_stamps_ack(&mut self, conn: ConnId, received: u64) -> Result<(), String> {
        let (sid, session) = session_of(&self.conns, &mut self.sessions, conn)?;
        if received > session.next_send {
            return Err(format!(
                "acknowledged {received} stamps, only {} were sent",
                session.next_send
            ));
        }
        self.router.routes[sid.0].log.drop_below(received);
        Ok(())
    }

    fn handle_goodbye(&mut self, conn: ConnId, events: u64) -> Result<(), String> {
        let (_, session) = session_of(&self.conns, &mut self.sessions, conn)?;
        if events != session.ingested {
            return Err(format!(
                "goodbye claims {events} events, server ingested {}",
                session.ingested
            ));
        }
        session.goodbye_at = Some(events);
        Ok(())
    }

    /// Stamps every event fed so far and refreshes every connected
    /// session's outbox: newly produced stamps, credit refills, and
    /// goodbye completions.
    ///
    /// Returns the number of events the user's sink accepted in this call.
    ///
    /// # Errors
    ///
    /// [`NetError::Pipeline`] if the pipeline fails; the error is fatal
    /// for the whole server (the I/O layer should stop).
    pub fn pump(&mut self) -> Result<usize, NetError> {
        let drained = self
            .stamps
            .pump(&mut self.engine, &mut self.router, |_| 0)
            .map_err(|e| NetError::Pipeline(e.to_string()))?;
        self.router.frame_ready();
        if let Some(fault) = self.router.fault.take() {
            return Err(NetError::Pipeline(fault));
        }
        self.flush_sessions();
        Ok(drained)
    }

    /// Copies unsent stamp frames, then credit refills and goodbye
    /// completions, into each connected session's outbox, and lets every
    /// completed session go.
    fn flush_sessions(&mut self) {
        // A completed session's threads lose their rows: that is sound only
        // once the loop holds none of their events, which every successful
        // pump leaves behind.
        debug_assert!(self.stamps.is_idle(), "flushed behind unstamped events");
        let window = self.config.credit_window;
        let mut completed = Vec::new();
        for (sid, session) in self.sessions.iter_mut() {
            let Some(conn) = session.conn.and_then(|c| self.conns.get_mut(c.0)) else {
                continue;
            };
            let route = &self.router.routes[sid.0];
            for frame in route.log.since(session.next_send) {
                conn.outbox.extend_from_slice(&frame.bytes);
                count_sent(frame.bytes.len());
                session.next_send = frame.first + frame.count;
            }
            // Refill credit once more than half the window is consumed
            // (rounding up, so that a window of one refills too).  The
            // grant goes behind the stamps: the client sends again only
            // after it has read them.
            if session.goodbye_at.is_none() && session.credit < window.div_ceil(2) {
                let more = window - session.credit;
                // `more` is exactly the occupancy (events in flight) at
                // the moment the refill fires.
                self.metrics.credit_occupancy.record(more);
                session.credit += more;
                write_frame(
                    &mut conn.outbox,
                    &Frame::Credit {
                        acked: session.ingested,
                        more,
                    },
                );
            }
            // Goodbye completion: everything ingested and (if requested)
            // every stamp copied for delivery.
            if let Some(total) = session.goodbye_at {
                let stamps_flushed = !session.want_stamps || session.next_send == total;
                if session.ingested == total && stamps_flushed {
                    write_frame(&mut conn.outbox, &Frame::Goodbye { events: total });
                    conn.open = false;
                    conn.session = None;
                    completed.push(sid);
                }
            }
        }
        for sid in completed {
            self.complete(sid);
        }
    }

    /// Lets a completed session go: it never resumes, so nothing it held is
    /// needed again but its summary.
    fn complete(&mut self, sid: Key) {
        let Some(session) = self.sessions.remove(sid) else {
            return;
        };
        self.router.close_route(sid.0, session.threads.clone());
        for thread in session.threads.clone() {
            self.engine.release_thread(ThreadId(thread));
        }
        self.completed.push(session.summary(true));
    }

    /// Takes the bytes queued for a connection (empties its outbox).  A
    /// connection the server closed is freed once its last bytes are
    /// taken.
    pub fn take_outgoing(&mut self, conn: ConnId) -> Vec<u8> {
        let Some(c) = self.conns.get_mut(conn.0) else {
            return Vec::new();
        };
        let out = std::mem::take(&mut c.outbox);
        if !c.open {
            self.conns.remove(conn.0);
        }
        out
    }

    /// Drains everything still buffered and returns the sink, the
    /// engine's report, and one summary per session, in creation order.
    ///
    /// # Errors
    ///
    /// [`NetError::Pipeline`] if the final drain fails.
    pub fn finish(mut self) -> Result<ServerRun, NetError> {
        self.pump()?;
        self.router
            .flush()
            .map_err(|e| NetError::Pipeline(PipelineError::Sink(e).to_string()))?;
        let mut sessions = std::mem::take(&mut self.completed);
        sessions.extend(self.sessions.iter_mut().map(|(_, s)| s.summary(false)));
        sessions.sort_by_key(|s| s.token);
        Ok(ServerRun {
            report: self.engine.finish(),
            sink: self.router.inner,
            sessions,
        })
    }
}

// ---------------------------------------------------------------------------
// TCP serving loop
// ---------------------------------------------------------------------------

struct Shared<E: ServeEngine> {
    server: parking_lot::Mutex<NetServer<E>>,
    fail: parking_lot::Mutex<Option<NetError>>,
    done: AtomicBool,
}

/// Serves connections accepted on `listener` until `expected_sessions`
/// sessions have completed their goodbye handshake, then finishes the
/// pipeline and returns the run.
///
/// Thread-per-connection: each accepted socket gets a handler thread that
/// drives the shared [`NetServer`] core behind one mutex.  Handler reads
/// use a short timeout *outside* the lock, so one client's stall never
/// blocks another's stamp or credit flushing.
///
/// # Errors
///
/// [`NetError::Io`] for listener failures, or the first fatal pipeline
/// error raised by any handler.
pub fn serve_tcp<E: ServeEngine + 'static>(
    listener: TcpListener,
    server: NetServer<E>,
    expected_sessions: usize,
) -> Result<ServerRun, NetError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::Io(e.to_string()))?;
    let shared = Arc::new(Shared {
        server: parking_lot::Mutex::new(server),
        fail: parking_lot::Mutex::new(None),
        done: AtomicBool::new(false),
    });
    let mut workers = Vec::new();
    loop {
        {
            let server = shared.server.lock();
            if server.completed.len() >= expected_sessions && server.conns.live == 0 {
                break;
            }
        }
        if shared.fail.lock().is_some() {
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let shared = Arc::clone(&shared);
                workers.push(std::thread::spawn(move || {
                    handle_conn(&shared, crate::TcpTransport::new(stream));
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                *shared.fail.lock() = Some(NetError::Io(e.to_string()));
                break;
            }
        }
    }
    // Release pairs with the Acquire load in `handle_conn`: a handler that
    // observes `done` also observes every write the accept loop made first.
    shared.done.store(true, Ordering::Release);
    for worker in workers {
        let _ = worker.join();
    }
    let shared = Arc::try_unwrap(shared).unwrap_or_else(|_| unreachable!("all workers joined"));
    if let Some(err) = shared.fail.into_inner() {
        return Err(err);
    }
    shared.server.into_inner().finish()
}

fn handle_conn<E: ServeEngine>(shared: &Shared<E>, mut transport: crate::TcpTransport) {
    let conn = shared.server.lock().connect();
    let mut buf = vec![0u8; 256 * 1024];
    let mut staged = Vec::with_capacity(512 * 1024);
    loop {
        if shared.done.load(Ordering::Acquire) {
            shared.server.lock().disconnect(conn);
            return;
        }
        // Block on the socket *outside* the lock so other handlers can
        // pump the shared pipeline meanwhile; once bytes arrive, drain
        // everything already queued without blocking, so one lock + one
        // pump covers the whole burst instead of one per 64 KiB chunk.
        staged.clear();
        let mut closed = false;
        let mut error = None;
        match transport.recv(&mut buf, Some(Duration::from_millis(5))) {
            Ok(Recv::Bytes(n)) => {
                staged.extend_from_slice(&buf[..n]);
                while staged.len() < (1 << 20) {
                    match transport.recv(&mut buf, Some(Duration::ZERO)) {
                        Ok(Recv::Bytes(n)) => staged.extend_from_slice(&buf[..n]),
                        Ok(Recv::Empty) => break,
                        Ok(Recv::Closed) | Err(TransportError::Closed) => {
                            closed = true;
                            break;
                        }
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
            }
            Ok(Recv::Empty) => {}
            Ok(Recv::Closed) | Err(TransportError::Closed) => closed = true,
            Err(e) => error = Some(e),
        }
        let mut server = shared.server.lock();
        let step = (|| -> Result<(Vec<u8>, bool), NetError> {
            if !staged.is_empty() {
                server.feed(conn, &staged)?;
            }
            if let Some(e) = error {
                server.disconnect(conn);
                return Err(NetError::Transport(e));
            }
            if closed {
                server.disconnect(conn);
            }
            server.pump()?;
            Ok((server.take_outgoing(conn), server.is_open(conn)))
        })();
        drop(server);
        match step {
            Ok((out, open)) => {
                if !out.is_empty() && transport.send(&out).is_err() {
                    shared.server.lock().disconnect(conn);
                    return;
                }
                if !open {
                    // Graceful close: the session completed and the final
                    // Goodbye is written.  A trailing client frame (a
                    // `StampsAck` crossing the Goodbye on the wire) may
                    // still be unread; closing now would turn it into an
                    // RST that can destroy the Goodbye before the client
                    // reads it.  Drain until the client closes its end
                    // (bounded, in case it never does).
                    for _ in 0..200 {
                        match transport.recv(&mut buf, Some(Duration::from_millis(5))) {
                            Ok(Recv::Bytes(_) | Recv::Empty) => {}
                            Ok(Recv::Closed) | Err(_) => break,
                        }
                    }
                    return;
                }
            }
            Err(err) => {
                // Lock order: `server`, then `fail`.  The guard on `server`
                // was dropped above; nothing takes `server` while holding
                // `fail`.
                let mut fail = shared.fail.lock();
                if fail.is_none() {
                    *fail = Some(err);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_core::MemoryRecorder;

    fn write(thread: usize) -> (ThreadId, ObjectId, OpKind) {
        (ThreadId(thread), ObjectId(0), OpKind::Write)
    }

    #[test]
    fn a_stamp_for_a_session_that_owes_none_is_a_fault_not_a_frame() {
        let mut router = RouterSink::new(Box::new(MemoryRecorder::new()), 4);
        router.open_route(0, 0..1, true);
        let mut stamps = vec![VectorTimestamp::from(vec![1])];
        router
            .accept_columns(&[write(0)], &mut stamps)
            .expect("the inner sink takes the window");
        let fault = router.fault.take().expect("the stray stamp is a fault");
        assert!(fault.contains("session 0"), "got: {fault}");
        let route = &router.routes[0];
        assert!(
            route.writer.is_empty() && route.log.end == 0,
            "nothing framed"
        );
        // Owed stamps route cleanly.
        router.routes[0].owed = 1;
        let mut stamps = vec![VectorTimestamp::from(vec![2])];
        router.accept_columns(&[write(0)], &mut stamps).unwrap();
        assert!(router.fault.is_none());
        assert_eq!(router.routes[0].owed, 0);
    }

    #[test]
    fn pump_reports_a_stray_stamp_as_a_pipeline_error() {
        let mut server = NetServer::new(
            TimestampingEngine::new(),
            Box::new(MemoryRecorder::new()),
            ServerConfig::default(),
        );
        let conn = server.connect();
        let mut hello = Vec::new();
        write_stream_header(&mut hello);
        write_frame(
            &mut hello,
            &Frame::Hello {
                token: 0,
                want_stamps: true,
                stamps_received: 0,
                threads: vec!["t".into()],
                objects: vec!["x".into()],
            },
        );
        server.feed(conn, &hello).unwrap();
        assert!(server.is_open(conn));
        // An event that bypassed `handle_events`: its session owes no stamp.
        server.stamps.record([write(0)]);
        match server.pump() {
            Err(NetError::Pipeline(msg)) => {
                assert!(msg.contains("stamp without a pending event"), "got: {msg}");
            }
            other => panic!("expected a pipeline error, got {other:?}"),
        }
    }
}
