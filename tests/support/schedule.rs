//! One seeded schedule of the sans-I/O server: the explorer that checks the
//! networked service against the paper's Theorem 1.
//!
//! Any cover of a computation orders its events exactly, so a served run
//! must stamp bit for bit like a batch replay of the order in which the
//! server was fed its events — whatever the clients, cuts and refusals were.
//! [`NetServer`] holds no lock and does no I/O, so a schedule is just a call
//! sequence, in the spirit of CHESS (Musuvathi & Qadeer, PLDI 2007): from a
//! seed it draws clients, an engine, a configuration and an interleaving of
//! [`ProducerClient::step`] with `connect`, byte-split `feed`, `pump`,
//! `take_outgoing` and `disconnect`.  The schedule holds every byte between
//! the two sides itself, so it can cut a link at any byte, corrupt one, and
//! decode what it fed.  Its ops:
//!
//! * record, step, feed, pump, take and deliver, with feeds and deliveries
//!   split at any byte;
//! * sever and reconnect, with the cut inside a `Stamps` frame, on a frame
//!   boundary, off one, or anywhere;
//! * corrupt the tag byte of a frame not yet fed (an `Error` frame, then a
//!   resume);
//! * a user sink that refuses the next windows offered;
//! * feed, take and disconnect through a stale [`ConnId`] once its slot
//!   serves another connection (at every reconnect, and at random).
//!
//! While it runs it checks each step against what it delivered: a client
//! holds exactly the stamps of the `Stamps` frames it was given (all of
//! them after an `Error` frame too, never fewer after a reconnect), a
//! replayed frame is byte for byte the frame first sent, no frame leaves
//! before the user's sink accepted every stamp in it, the server closes a
//! connection exactly when the bytes it was fed stop decoding, and a stale
//! id reaches nothing.  After every schedule it checks that:
//!
//! * every session completed, and each client's events arrived once each,
//!   in its record order;
//! * shared object names got shared ids, and the clock one component per
//!   name;
//! * the sink's stamps equal a [`BatchReplay`], under the server's final
//!   component map, of the arrival order the schedule decoded from the
//!   bytes it fed (never the server's own recording) — a stamp taken before
//!   a later `Hello` added components is that replay's stamp without its
//!   zero tail — and each client's stamps are the sink's stamps of its
//!   events, storing the same words under the chunked engine;
//! * `net.server.{sessions_live, conns_live, retransmit_bytes}` are back at
//!   their start before the server goes away, read behind
//!   [`global_registry_lock`](super::global_registry_lock).
//!
//! A failure panics with one line, `support::schedule::check(SEED) // why`,
//! which pastes into a `#[test]` as is.  `SEED % 48` picks the client count,
//! the engine and a forced cut of client 0's link, so seeds `0..48` sweep
//! them all (conformance oracle 9); the rest of the schedule comes from the
//! whole seed.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mvc_clock::VectorTimestamp;
use mvc_core::{replay, BatchReplay, EventSink, MemoryRecorder, SinkError, TimestampingEngine};
use mvc_net::frame::{self, Frame, FrameReader};
use mvc_net::{
    ClientConfig, ConnId, InProcTransport, NetError, NetServer, ProducerClient, Recv, ServeEngine,
    ServerConfig, Transport, TransportError,
};
use mvc_shard::ShardedEngine;
use mvc_trace::codec::peek_varint;
use mvc_trace::{Computation, ObjectId, OpKind, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the schedule `seed` draws; on any failure, panics with the one line
/// that reproduces it.
pub fn check(seed: u64) {
    let outcome = std::panic::catch_unwind(|| {
        let _lock = super::global_registry_lock();
        Schedule::new(seed).run()
    });
    let why = match outcome {
        Ok(Ok(())) => return,
        Ok(Err(why)) => why,
        Err(panic) => match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
            (Some(message), _) => format!("panicked: {message}"),
            (_, Some(message)) => format!("panicked: {message}"),
            _ => "panicked".to_owned(),
        },
    };
    panic!(
        "support::schedule::check({seed}) // {}",
        why.replace('\n', " ")
    );
}

macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        if !$cond {
            return Err(format!($($why)+));
        }
    };
}

const ZERO: Option<Duration> = Some(Duration::ZERO);
/// `ShardedEngine` runs at oracle 7's shard counts.
const SHARDS: [usize; 3] = [1, 2, 4];
/// Object names the clients draw from, so that some are shared.
const NAMES: [&str; 5] = ["x", "y", "z", "w", "v"];
const KINDS: [OpKind; 5] = [
    OpKind::Read,
    OpKind::Write,
    OpKind::Acquire,
    OpKind::Release,
    OpKind::Op,
];
/// Frame tags (docs/PROTOCOL.md, "Frame types"); the stream header is 0.
const TAG_HELLO_ACK: u8 = 2;
const TAG_EVENTS: u8 = 3;
const TAG_STAMPS: u8 = 4;
/// A tag no frame has: what a corrupted frame carries.
const TAG_CORRUPT: u8 = 0xEE;
/// The gauges a schedule must leave where it found them.
const LEVELS: [&str; 3] = [
    "net.server.sessions_live",
    "net.server.conns_live",
    "net.server.retransmit_bytes",
];
/// Rounds of the fair phase before a schedule counts as stuck.
const MAX_ROUNDS: usize = 1000;
/// What the refusing sink says, so a refusal is told from a fault.
const REFUSED: &str = "refused by the schedule";

/// A forced cut of a link: which byte positions it may keep up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cut {
    /// The client receives part of a `Stamps` frame.
    InsideStamps,
    /// Both directions stop at a frame boundary.
    OnBoundary,
    /// The server receives part of a frame.
    OffBoundary,
    /// Any positions.
    Anywhere,
}

const CUTS: [Cut; 4] = [
    Cut::InsideStamps,
    Cut::OnBoundary,
    Cut::OffBoundary,
    Cut::Anywhere,
];

/// Why a client's link may fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Severed,
    Corrupted,
}

/// One direction of one connection: every byte its sender wrote, split
/// into frames, and how far the schedule has passed them on.  The bytes
/// past `passed` are held by the schedule, and a cut drops them.
#[derive(Default)]
struct Stream {
    bytes: Vec<u8>,
    frames: Vec<Mark>,
    passed: usize,
}

/// One frame of a [`Stream`] (the stream header is a frame of tag 0).
#[derive(Debug, Clone, Copy)]
struct Mark {
    start: usize,
    end: usize,
    tag: u8,
    /// One past the frame's last stamp, for a `Stamps` frame.
    stamps_end: u64,
}

impl Stream {
    /// Appends what the sender wrote and returns the indices of the frames
    /// it completed.
    fn push(&mut self, bytes: &[u8]) -> std::ops::Range<usize> {
        self.bytes.extend_from_slice(bytes);
        let first = self.frames.len();
        loop {
            let start = self.frames.last().map_or(0, |m| m.end);
            let (end, tag) = match peek_varint(&self.bytes[start..]) {
                _ if start == 0 => (4, 0),
                Ok(Some((len, used))) => {
                    let tag = self.bytes.get(start + used).copied().unwrap_or(0);
                    (start + used + len as usize, tag)
                }
                _ => break,
            };
            if end > self.bytes.len() {
                break;
            }
            self.frames.push(Mark {
                start,
                end,
                tag,
                stamps_end: 0,
            });
        }
        first..self.frames.len()
    }

    fn held(&self) -> usize {
        self.bytes.len() - self.passed
    }

    /// A position from `passed` on where the cut falls on a frame boundary.
    fn boundary(&self, rng: &mut StdRng) -> usize {
        let ends = std::iter::once(0).chain(self.frames.iter().map(|m| m.end));
        let ends: Vec<usize> = ends.filter(|&end| end >= self.passed).collect();
        ends.get(rng.gen_range(0..ends.len().max(1)))
            .copied()
            .unwrap_or(self.passed)
    }

    /// A position from `passed` on strictly inside a frame whose tag `keep`
    /// accepts, if there is one.
    fn inside(&self, rng: &mut StdRng, keep: impl Fn(u8) -> bool) -> Option<usize> {
        let frames: Vec<&Mark> = (self.frames.iter())
            .filter(|m| keep(m.tag) && m.end > self.passed.max(m.start + 1))
            .collect();
        let mark = frames.get(rng.gen_range(0..frames.len().max(1)))?;
        Some(rng.gen_range(self.passed.max(mark.start + 1)..mark.end))
    }

    /// Any position from `passed` on.
    fn anywhere(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.passed..=self.bytes.len())
    }
}

/// One client connection as the schedule sees it.
struct Link {
    conn: ConnId,
    /// The server's half of the client's transport.
    far: InProcTransport,
    /// Client to server.
    up: Stream,
    /// Server to client.
    down: Stream,
    /// Decodes what the server was fed on this connection; `None` once the
    /// bytes stopped decoding or the server closed the connection.
    shadow: Option<FrameReader>,
}

impl Link {
    fn new(conn: ConnId, far: InProcTransport) -> Self {
        Link {
            conn,
            far,
            up: Stream::default(),
            down: Stream::default(),
            shadow: Some(FrameReader::new()),
        }
    }
}

/// One producer client and what the schedule knows of it.
struct Peer {
    client: ProducerClient<InProcTransport>,
    link: Link,
    objects: Vec<String>,
    want_stamps: bool,
    script: Vec<(u32, u32, OpKind)>,
    recorded: usize,
    /// Why the current link may fail, once the schedule broke it.
    fault: Option<Fault>,
    /// A step failed; the client must reconnect.
    broken: bool,
    done: bool,
    /// A `HelloAck` reached the client, so it holds its session token.
    acked: bool,
    reconnects: u32,
    /// One past the last stamp of the `Stamps` frames delivered whole since
    /// the client last connected, counted from what it held then.
    delivered: u64,
    /// Stamps the client held after its last step.
    held: usize,
    /// Each `Stamps` frame the server sent, by its first stamp.
    frames_sent: HashMap<u64, Vec<u8>>,
}

/// The user's sink: a recorder that refuses the next `refuse` windows
/// offered, and counts the events it accepted.
struct Refusing {
    inner: MemoryRecorder,
    refuse: Arc<AtomicUsize>,
    accepted: Arc<AtomicUsize>,
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
        let refuse = self.refuse.load(Ordering::Relaxed);
        if refuse > 0 {
            self.refuse.store(refuse - 1, Ordering::Relaxed);
            return Err(SinkError::Io(REFUSED.to_owned()));
        }
        self.inner.accept_columns(events, stamps)?;
        self.accepted.fetch_add(events.len(), Ordering::Relaxed);
        Ok(())
    }

    fn events_accepted(&self) -> usize {
        self.inner.events_accepted()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        &self.inner
    }
}

/// A schedule's calls.
#[derive(Debug, Clone, Copy)]
enum Op {
    Record(usize, usize),
    Step(usize),
    /// Feed the server some (`false`) or all (`true`) of what the client
    /// sent.
    Feed(usize, bool),
    Pump,
    Take(usize),
    Deliver(usize, bool),
    Sever(usize, Cut),
    Corrupt(usize),
    Refuse(usize),
    Stale,
    Reconnect(usize),
}

struct Schedule {
    rng: StdRng,
    server: NetServer<Box<dyn ServeEngine>>,
    chunked: bool,
    peers: Vec<Peer>,
    /// Every event the server was fed, as (client, local event), in order.
    arrival: Vec<(usize, (u32, u32, OpKind))>,
    refusals: bool,
    refuse: Arc<AtomicUsize>,
    accepted: Arc<AtomicUsize>,
    /// Connection ids whose connections are gone.
    stale: Vec<ConnId>,
    /// The cut still to make on client 0's link once it has recorded
    /// `split` events; it records no more until then.
    cut: Option<Cut>,
    split: usize,
    levels: [i64; 3],
}

impl Schedule {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let clients = 1 + (seed % 3) as usize;
        let engine = (seed / 3 % 4) as usize;
        let cut = (seed / 12 % 4).checked_sub(1).map(|k| CUTS[k as usize]);
        let levels = LEVELS.map(|name| mvc_obs::global().gauge(name).value());

        let (refuse, accepted) = (Arc::default(), Arc::default());
        let sink = Refusing {
            inner: MemoryRecorder::new(),
            refuse: Arc::clone(&refuse),
            accepted: Arc::clone(&accepted),
        };
        let config = ServerConfig {
            credit_window: rng.gen_range(1..=16),
            stamps_per_frame: rng.gen_range(1..=6),
        };
        let timestamper: Box<dyn ServeEngine> = match engine {
            0 => Box::new(TimestampingEngine::new()),
            k => Box::new(ShardedEngine::new(SHARDS[k - 1])),
        };
        let mut server = NetServer::new(timestamper, Box::new(sink), config);

        // Wide registrations make stamps wider than a chunk that store few.
        let wide = rng.gen_bool(0.2).then(|| rng.gen_range(60..140usize));
        let mut peers = Vec::new();
        for c in 0..clients {
            let mut names: Vec<&str> = NAMES.to_vec();
            for i in (1..names.len()).rev() {
                names.swap(i, rng.gen_range(0..=i));
            }
            let mut objects: Vec<String> = (names.iter().take(rng.gen_range(1..=3)))
                .map(|&name| name.to_owned())
                .collect();
            let touched = objects.len() as u32;
            if rng.gen_bool(0.3) {
                objects.push(format!("c{c}-own"));
            }
            objects.extend((0..wide.unwrap_or(0)).map(|o| format!("wide{o}")));
            let threads: u32 = rng.gen_range(1..=3);
            let forced = c == 0 && cut.is_some();
            let len = rng.gen_range(if forced { 2..=40usize } else { 0..=40 });
            let script = (0..len)
                .map(|_| {
                    let kind = KINDS[rng.gen_range(0..KINDS.len())];
                    (rng.gen_range(0..threads), rng.gen_range(0..touched), kind)
                })
                .collect();
            let want_stamps = (forced && cut == Some(Cut::InsideStamps)) || rng.gen_bool(0.8);
            let mut config = ClientConfig::new(
                (0..threads).map(|t| format!("c{c}t{t}")).collect(),
                objects.clone(),
                want_stamps,
            );
            config.events_per_frame = rng.gen_range(1..=6);
            config.ack_every = rng.gen_range(1..=6);
            let (near, far) = InProcTransport::pair();
            let conn = server.connect();
            let client = ProducerClient::connect(near, config).expect("an open pipe");
            peers.push(Peer {
                client,
                link: Link::new(conn, far),
                objects,
                want_stamps,
                script,
                recorded: 0,
                fault: None,
                broken: false,
                done: false,
                acked: false,
                reconnects: 0,
                delivered: 0,
                held: 0,
                frames_sent: HashMap::new(),
            });
        }
        let split = rng.gen_range(1..peers[0].script.len().max(2));
        Schedule {
            refusals: rng.gen_bool(0.5),
            rng,
            server,
            chunked: engine == 0,
            peers,
            arrival: Vec::new(),
            refuse,
            accepted,
            stale: Vec::new(),
            cut,
            split,
            levels,
        }
    }

    /// A random stretch of calls, then fair rounds until every client has
    /// finished, then the checks.
    fn run(mut self) -> Result<(), String> {
        for _ in 0..self.rng.gen_range(40..240usize) {
            let p = self.rng.gen_range(0..self.peers.len());
            let disrupt = p != 0 || self.cut.is_none();
            let op = match self.rng.gen_range(0..100u32) {
                0..=14 => Op::Record(p, self.rng.gen_range(1..=4)),
                15..=34 => Op::Step(p),
                35..=52 => Op::Feed(p, false),
                53..=62 => Op::Pump,
                63..=74 => Op::Take(p),
                75..=88 => Op::Deliver(p, false),
                89..=91 if disrupt => Op::Sever(p, CUTS[self.rng.gen_range(0..4usize)]),
                92..=95 if disrupt => Op::Corrupt(p),
                96..=97 if self.refusals => Op::Refuse(self.rng.gen_range(1..=3)),
                98 => Op::Stale,
                _ => Op::Reconnect(p),
            };
            self.apply(op)?;
        }
        for _ in 0..MAX_ROUNDS {
            if self.peers.iter().all(|p| p.done) {
                return self.verify();
            }
            // A pump first, so that a corrupted frame fed next is answered
            // behind the stamps the pump framed, and the client reads both.
            self.apply(Op::Pump)?;
            for p in 0..self.peers.len() {
                for op in [
                    Op::Feed(p, true),
                    Op::Take(p),
                    Op::Deliver(p, true),
                    Op::Reconnect(p),
                    Op::Record(p, usize::MAX),
                    Op::Step(p),
                ] {
                    self.apply(op)?;
                }
            }
        }
        Err(format!(
            "not every client finished in {MAX_ROUNDS} fair rounds"
        ))
    }

    /// Runs one call, then client 0's forced cut if it is due.
    fn apply(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::Record(p, n) => self.record(p, n),
            Op::Step(p) => self.step(p)?,
            Op::Feed(p, all) => {
                let n = self.split_of(self.peers[p].link.up.held(), all);
                self.feed(p, n)?;
            }
            Op::Pump => self.pump()?,
            Op::Take(p) => self.take(p)?,
            Op::Deliver(p, all) => {
                let n = self.split_of(self.peers[p].link.down.held(), all);
                self.deliver(p, n)?;
            }
            Op::Sever(p, cut) => {
                self.sever(p, cut)?;
            }
            Op::Corrupt(p) => self.corrupt(p),
            Op::Refuse(n) => {
                self.refuse.fetch_add(n, Ordering::Relaxed);
            }
            Op::Stale => {
                if !self.stale.is_empty() {
                    let stale = self.stale[self.rng.gen_range(0..self.stale.len())];
                    self.poke_stale(stale)?;
                }
            }
            Op::Reconnect(p) => self.reconnect(p)?,
        }
        if let Some(cut) = self.cut {
            if self.peers[0].recorded >= self.split && self.sever(0, cut)? {
                self.cut = None;
            }
        }
        Ok(())
    }

    /// How many of `held` bytes to pass on: all, or a split at any byte.
    fn split_of(&mut self, held: usize, all: bool) -> usize {
        match (held, all, self.rng.gen_range(0..3u32)) {
            (0, _, _) | (_, true, _) | (_, _, 0) => held,
            (_, _, 1) => self.rng.gen_range(1..=held.min(8)),
            _ => self.rng.gen_range(1..=held),
        }
    }

    fn record(&mut self, p: usize, n: usize) {
        let held_back = p == 0 && self.cut.is_some();
        let peer = &mut self.peers[p];
        let limit = if held_back {
            self.split
        } else {
            peer.script.len()
        };
        while peer.recorded < limit.min(peer.recorded.saturating_add(n)) {
            let (t, o, kind) = peer.script[peer.recorded];
            peer.client.record(t as usize, o as usize, kind);
            peer.recorded += 1;
        }
        if peer.recorded == peer.script.len() {
            peer.client.request_finish();
        }
    }

    fn step(&mut self, p: usize) -> Result<(), String> {
        let peer = &mut self.peers[p];
        if peer.done || peer.broken {
            return Ok(());
        }
        let stepped = peer.client.step(ZERO);
        drain(&mut peer.link);
        let held = peer.client.stamps().len();
        ensure!(
            held >= peer.held,
            "client {p} dropped stamps it held: {} -> {held}",
            peer.held
        );
        peer.held = held;
        let delivered = peer.delivered as usize;
        match (stepped, peer.fault) {
            (Ok(_), _) => {
                ensure!(
                    held == delivered,
                    "client {p} holds {held} stamps, {delivered} were delivered"
                );
                peer.done = peer.client.is_finished();
            }
            (Err(NetError::Transport(TransportError::Closed)), Some(Fault::Severed)) => {
                ensure!(
                    held <= delivered,
                    "client {p} holds {held} stamps, {delivered} were delivered"
                );
                peer.broken = true;
            }
            (Err(NetError::Remote(frame::error_code::PROTOCOL, _)), Some(Fault::Corrupted)) => {
                ensure!(
                    held == delivered,
                    "client {p} kept {held} stamps of the {delivered} read before the Error frame"
                );
                peer.broken = true;
            }
            (Err(e), fault) => return Err(format!("client {p} failed ({fault:?}): {e}")),
        }
        Ok(())
    }

    /// Feeds the server the next `n` bytes client `p` sent, and decodes them
    /// the same way.
    fn feed(&mut self, p: usize, n: usize) -> Result<(), String> {
        let link = &mut self.peers[p].link;
        let bytes = &link.up.bytes[link.up.passed..link.up.passed + n];
        link.up.passed += n;
        if n == 0 {
            return Ok(());
        }
        if !self.server.is_open(link.conn) {
            link.shadow = None;
            return Ok(());
        }
        (self.server.feed(link.conn, bytes)).map_err(|e| format!("feed failed: {e}"))?;
        if let Some(reader) = &mut link.shadow {
            reader.feed(bytes);
            loop {
                match reader.try_next() {
                    Ok(Some(Frame::Events { events })) => {
                        self.arrival.extend(events.into_iter().map(|e| (p, e)));
                    }
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        link.shadow = None;
                        break;
                    }
                }
            }
        }
        let open = self.server.is_open(link.conn);
        ensure!(
            open == link.shadow.is_some(),
            "the server {} client {p}'s connection, whose bytes {}",
            if open { "kept" } else { "closed" },
            if open { "stopped decoding" } else { "decode" }
        );
        Ok(())
    }

    fn pump(&mut self) -> Result<(), String> {
        match self.server.pump() {
            Ok(_) => Ok(()),
            Err(NetError::Pipeline(why)) if why.contains(REFUSED) => Ok(()),
            Err(e) => Err(format!("pump failed: {e}")),
        }
    }

    /// Takes what the server queued for client `p` and holds it.
    fn take(&mut self, p: usize) -> Result<(), String> {
        let out = self.server.take_outgoing(self.peers[p].link.conn);
        let accepted = self.accepted.load(Ordering::Relaxed);
        ensure!(
            accepted <= self.arrival.len(),
            "the sink accepted {accepted} events of {} fed",
            self.arrival.len()
        );
        let sunk = self.arrival[..accepted].iter().filter(|(c, _)| *c == p);
        let sunk = sunk.count() as u64;
        let peer = &mut self.peers[p];
        for i in peer.link.down.push(&out) {
            let mark = peer.link.down.frames[i];
            if mark.tag != TAG_STAMPS {
                continue;
            }
            let bytes = &peer.link.down.bytes[mark.start..mark.end];
            let (first, count) = stamps_frame(bytes)?;
            let end = first + count;
            peer.link.down.frames[i].stamps_end = end;
            ensure!(
                end <= sunk,
                "stamps {first}..{end} left for client {p} before the sink took its event {sunk}"
            );
            match peer.frames_sent.entry(first) {
                Entry::Occupied(sent) => ensure!(
                    sent.get() == bytes,
                    "client {p}'s Stamps frame from {first} was resent with other bytes"
                ),
                Entry::Vacant(slot) => {
                    slot.insert(bytes.to_vec());
                }
            }
        }
        Ok(())
    }

    /// Passes the next `n` bytes the server sent to client `p`.
    fn deliver(&mut self, p: usize, n: usize) -> Result<(), String> {
        let peer = &mut self.peers[p];
        if n == 0 || peer.broken || peer.fault == Some(Fault::Severed) {
            return Ok(());
        }
        let down = &mut peer.link.down;
        let (from, to) = (down.passed, down.passed + n);
        (peer.link.far.send(&down.bytes[from..to])).map_err(|e| format!("deliver: {e}"))?;
        down.passed = to;
        for mark in down.frames.iter().filter(|m| from < m.end && m.end <= to) {
            peer.acked |= mark.tag == TAG_HELLO_ACK;
            peer.delivered = peer.delivered.max(mark.stamps_end);
        }
        Ok(())
    }

    /// Cuts client `p`'s link where `cut` says, if the client can resume
    /// after it: the bytes up to each direction's cut position go through,
    /// the rest is lost.  Returns whether it cut.
    fn sever(&mut self, p: usize, cut: Cut) -> Result<bool, String> {
        let peer = &mut self.peers[p];
        if peer.done || peer.broken || peer.fault.is_some() || !self.server.is_open(peer.link.conn)
        {
            return Ok(false);
        }
        drain(&mut peer.link);
        let rng = &mut self.rng;
        let (up, down) = (&peer.link.up, &peer.link.down);
        let positions = match cut {
            Cut::InsideStamps => down
                .inside(rng, |tag| tag == TAG_STAMPS)
                .map(|at| (up.anywhere(rng), at)),
            Cut::OnBoundary => Some((up.boundary(rng), down.boundary(rng))),
            Cut::OffBoundary => (up.inside(rng, |tag| tag == TAG_EVENTS))
                .or_else(|| up.inside(rng, |tag| tag != 0))
                .map(|at| (at, down.anywhere(rng))),
            Cut::Anywhere => Some((up.anywhere(rng), down.anywhere(rng))),
        };
        let Some((up_at, down_at)) = positions else {
            return Ok(false);
        };
        // A client that never read its first `HelloAck` has no token to
        // resume with.
        let acked_by_cut = (down.frames.iter()).any(|m| m.tag == TAG_HELLO_ACK && m.end <= down_at);
        if !peer.acked && !acked_by_cut {
            return Ok(false);
        }
        let (up_n, down_n) = (up_at - up.passed, down_at - down.passed);
        self.feed(p, up_n)?;
        self.deliver(p, down_n)?;
        let peer = &mut self.peers[p];
        self.server.disconnect(peer.link.conn);
        peer.link.far.sever();
        peer.fault = Some(Fault::Severed);
        Ok(true)
    }

    /// Overwrites the tag of a frame client `p` sent that the server has not
    /// been fed yet.
    fn corrupt(&mut self, p: usize) {
        let peer = &mut self.peers[p];
        if peer.done || peer.broken || peer.fault.is_some() || !peer.acked {
            return;
        }
        drain(&mut peer.link);
        let up = &mut peer.link.up;
        let held: Vec<usize> = (0..up.frames.len())
            .filter(|&i| up.frames[i].tag != 0 && up.frames[i].start >= up.passed)
            .collect();
        if held.is_empty() || !self.server.is_open(peer.link.conn) {
            return;
        }
        let mark = &mut up.frames[held[self.rng.gen_range(0..held.len())]];
        // The tag follows the varint length.
        let used = match peek_varint(&up.bytes[mark.start..]) {
            Ok(Some((_, used))) => used,
            _ => return,
        };
        up.bytes[mark.start + used] = TAG_CORRUPT;
        mark.tag = TAG_CORRUPT;
        peer.fault = Some(Fault::Corrupted);
    }

    /// Resumes client `p`'s session on a new connection, once a step told it
    /// its link is gone, and pokes the connection id that went with it.
    fn reconnect(&mut self, p: usize) -> Result<(), String> {
        if !self.peers[p].broken {
            return Ok(());
        }
        let old = self.peers[p].link.conn;
        // Frees a connection the server closed behind an `Error` frame.
        self.server.take_outgoing(old);
        self.server.disconnect(old);
        let (near, far) = InProcTransport::pair();
        let peer = &mut self.peers[p];
        peer.link.far.sever();
        peer.link = Link::new(self.server.connect(), far);
        self.stale.push(old);
        self.poke_stale(old)?;
        let peer = &mut self.peers[p];
        (peer.client.reconnect(near)).map_err(|e| format!("client {p} cannot reconnect: {e}"))?;
        drain(&mut peer.link);
        peer.fault = None;
        peer.broken = false;
        peer.reconnects += 1;
        peer.delivered = peer.client.stamps().len() as u64;
        Ok(())
    }

    /// Feeds, takes and disconnects through a connection id whose
    /// connection is gone: none of it may reach the connection that now
    /// holds its slot.
    fn poke_stale(&mut self, stale: ConnId) -> Result<(), String> {
        let open = |s: &Self| -> Vec<bool> {
            let links = s.peers.iter().map(|p| p.link.conn);
            links.map(|c| s.server.is_open(c)).collect()
        };
        let before = open(self);
        ensure!(!self.server.is_open(stale), "a stale id reads open");
        ensure!(
            self.server.take_outgoing(stale).is_empty(),
            "a stale id has bytes to take"
        );
        let mut junk = Vec::new();
        frame::write_stream_header(&mut junk);
        let hello = Frame::Hello {
            token: 0,
            want_stamps: true,
            stamps_received: 0,
            threads: vec!["stale".into()],
            objects: vec!["stale".into()],
        };
        frame::write_frame(&mut junk, &hello);
        let events = vec![(0, 0, OpKind::Write)];
        frame::write_frame(&mut junk, &Frame::Events { events });
        (self.server.feed(stale, &junk)).map_err(|e| format!("stale feed: {e}"))?;
        ensure!(
            self.server.take_outgoing(stale).is_empty(),
            "a stale id was answered"
        );
        self.server.disconnect(stale);
        ensure!(open(self) == before, "a stale id reached a live connection");
        Ok(())
    }

    /// The checks once every client has finished.
    fn verify(self) -> Result<(), String> {
        let Schedule {
            mut server,
            peers,
            arrival,
            chunked,
            levels,
            ..
        } = self;
        for peer in &peers {
            server.take_outgoing(peer.link.conn);
        }
        let level_check = |when: &str| -> Result<(), String> {
            for (name, start) in LEVELS.iter().zip(&levels) {
                let now = mvc_obs::global().gauge(name).value();
                ensure!(
                    now == *start,
                    "{name} reads {now} {when}, {start} at the start"
                );
            }
            Ok(())
        };
        level_check("with every session completed")?;
        let server_run = server.finish().map_err(|e| format!("finish failed: {e}"))?;
        level_check("once the server is gone")?;

        ensure!(
            server_run.sessions.len() == peers.len(),
            "{} sessions for {} clients",
            server_run.sessions.len(),
            peers.len()
        );
        let mut runs = Vec::new();
        let mut tokens = HashMap::new();
        for summary in &server_run.sessions {
            ensure!(
                summary.completed,
                "session {} did not complete",
                summary.token
            );
            tokens.insert(summary.token, summary.ingested);
        }
        for (p, peer) in peers.into_iter().enumerate() {
            let (script, objects) = (peer.script, peer.objects);
            let run = (peer.client.into_run()).map_err(|e| format!("client {p}: {e}"))?;
            let mine = arrival.iter().filter(|(c, _)| *c == p).map(|&(_, e)| e);
            let mine: Vec<_> = mine.collect();
            ensure!(
                mine == script,
                "client {p}'s {} events arrived as {} others (first at {:?})",
                script.len(),
                mine.len(),
                first_difference(&mine, &script)
            );
            ensure!(
                tokens.get(&run.token) == Some(&(script.len() as u64)),
                "client {p}'s session ingested {:?} of {} events",
                tokens.get(&run.token),
                script.len()
            );
            ensure!(
                run.reconnects == peer.reconnects,
                "client {p} counts {} reconnects, the schedule made {}",
                run.reconnects,
                peer.reconnects
            );
            runs.push((run, objects, peer.want_stamps));
        }

        // Shared names are shared ids, and each name is one component.
        let mut ids = HashMap::new();
        let mut names = HashMap::new();
        let mut threads = HashSet::new();
        for (run, objects, _) in &runs {
            for (name, &id) in objects.iter().zip(&run.object_ids) {
                ensure!(
                    *ids.entry(name).or_insert(id) == id
                        && *names.entry(id).or_insert(name) == name,
                    "object {name} has id {id}, which is not its name's alone"
                );
            }
            for &thread in &run.thread_ids {
                ensure!(
                    threads.insert(thread),
                    "thread id {thread} serves two threads"
                );
            }
        }
        let components = server_run.report.components;
        ensure!(
            components.len() == ids.len(),
            "{} components for {} object names",
            components.len(),
            ids.len()
        );

        // The arrival order the schedule decoded, replayed on dense vectors
        // under the server's final component map.
        let mut computation = Computation::new();
        for &(c, (t, o, kind)) in &arrival {
            let run = &runs[c].0;
            let thread = ThreadId(run.thread_ids[t as usize] as usize);
            computation.record_op(thread, ObjectId(run.object_ids[o as usize] as usize), kind);
        }
        let dense = replay(&mut BatchReplay::new(components), &computation);
        let dense = dense.map_err(|e| format!("batch replay: {e}"))?.timestamps;

        let recorder = (server_run.sink.as_any().downcast_ref::<MemoryRecorder>())
            .ok_or("the sink is not the recorder")?;
        let triple = |e: &mvc_trace::Event| (e.thread, e.object, e.kind);
        let sunk: Vec<_> = recorder.computation().events().map(triple).collect();
        let fed: Vec<_> = computation.events().map(triple).collect();
        ensure!(
            sunk == fed,
            "the sink got {} events, {} were fed (first difference at {:?})",
            sunk.len(),
            fed.len(),
            first_difference(&sunk, &fed)
        );
        let stamps = recorder.timestamps();
        let wrong = (stamps.iter().zip(&dense)).position(|(s, r)| !extends(s, r));
        ensure!(
            wrong.is_none(),
            "the sink's stamp of event {wrong:?} is not the batch replay's"
        );
        for (p, (run, _, want_stamps)) in runs.iter().enumerate() {
            let mine = (arrival.iter().enumerate()).filter(|(_, (c, _))| *c == p);
            let indices: Vec<usize> = mine.map(|(i, _)| i).collect();
            let expect = if *want_stamps { indices.len() } else { 0 };
            ensure!(
                run.stamps.len() == expect,
                "client {p} got {} stamps, {expect} were due",
                run.stamps.len()
            );
            for (stamp, &i) in run.stamps.iter().zip(&indices) {
                ensure!(
                    *stamp == stamps[i],
                    "client {p}'s stamp of event {i} is not the one the sink got"
                );
                ensure!(
                    !chunked || stamp.stored_words() == stamps[i].stored_words(),
                    "client {p}'s stamp of event {i} stores {} words, the server's {}",
                    stamp.stored_words(),
                    stamps[i].stored_words()
                );
            }
        }
        Ok(())
    }
}

/// Whether `stamp`, taken while the clock had `stamp.len()` components, is
/// `reference` of the final width: equal on those components and zero on
/// the ones added after it (objects registered later).
fn extends(stamp: &VectorTimestamp, reference: &VectorTimestamp) -> bool {
    let (s, r) = (stamp.as_slice(), reference.as_slice());
    s.len() <= r.len() && s == &r[..s.len()] && r[s.len()..].iter().all(|&v| v == 0)
}

/// Moves what the client sent into the link's client-to-server stream.
fn drain(link: &mut Link) {
    let mut buf = [0u8; 4096];
    while let Ok(Recv::Bytes(n)) = link.far.recv(&mut buf, ZERO) {
        link.up.push(&buf[..n]);
    }
}

/// The first stamp and the stamp count of one `Stamps` frame's bytes.
fn stamps_frame(bytes: &[u8]) -> Result<(u64, u64), String> {
    let mut reader = FrameReader::new();
    reader.feed(&frame::NET_MAGIC);
    reader.feed(&[frame::NET_VERSION]);
    reader.feed(bytes);
    match reader.try_next() {
        Ok(Some(Frame::Stamps { first, stamps })) => Ok((first, stamps.len() as u64)),
        other => Err(format!(
            "the server sent a Stamps frame that reads {other:?}"
        )),
    }
}

fn first_difference<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    let at = a.iter().zip(b).position(|(x, y)| x != y);
    at.or((a.len() != b.len()).then(|| a.len().min(b.len())))
}
