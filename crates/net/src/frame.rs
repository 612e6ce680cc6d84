//! Wire framing for the mvc-net protocol.
//!
//! The protocol is layered on the primitives of [`mvc_trace::codec`]: the
//! same 7-bit little-endian varints (decoded with
//! [`codec::peek_varint`](mvc_trace::codec::peek_varint)), the same
//! operation-kind tags, and the same magic-plus-version stream header
//! discipline, with the magic `MVN` ("mixed vector clocks, networked")
//! instead of the batch format's `MVC`.
//!
//! Each direction of a connection is an independent byte stream:
//!
//! ```text
//! stream    := header frame*
//! header    := "MVN" version            (4 bytes, version = 0x02)
//! frame     := varint(len) body         (len = |body|, body >= 1 byte)
//! body      := tag payload              (tag selects the Frame variant)
//! ```
//!
//! Frame bodies are only decoded once fully buffered, so a reader never
//! observes a partial payload: truncation by a dropped connection simply
//! leaves an incomplete frame in the buffer, which is discarded when the
//! [`FrameReader`] is replaced on reconnect.  `len` is bounded by
//! [`MAX_FRAME_LEN`]; anything larger is rejected before buffering.
//!
//! ## Differential stamps
//!
//! A `Stamps` frame does not carry vectors, it carries differences: each
//! stamp names an earlier stamp *of the same frame* as its base (or the zero
//! vector) and lists the 64-entry chunks in which it differs from it — the
//! paper's Section VI pointer to Singhal–Kshemkalyani, cut so that it needs
//! no state: every base lives in the frame, so any reader decodes any frame.
//! The writer ([`write_stamps_frame`]) takes each stamp with a *lane* — the
//! session-local thread it belongs to — and bases it on the lane's latest
//! stamp in the frame, since successive stamps of one thread differ in few
//! components; a lane's first stamp in a frame falls back to the stamp
//! before it.  Both directions walk stored chunks only
//! ([`VectorTimestamp::chunk_pairs`], [`VectorTimestamp::patch`]): a
//! width-4096 stamp that stores one chunk costs one chunk to encode and to
//! decode, and arrives packed.
//!
//! See `docs/PROTOCOL.md` for the full wire specification, including the
//! handshake and credit rules built on these frames.

#![forbid(clippy::expect_used)]
#![deny(clippy::unwrap_used, clippy::panic)]

use std::borrow::Cow;
use std::sync::OnceLock;

use mvc_clock::VectorTimestamp;
use mvc_trace::codec::{peek_varint, DecodeError};
use mvc_trace::OpKind;

/// Wire-level counters, shared by every connection in the process.
///
/// Instrumented here — at the encode/decode choke point both roles go
/// through, plus [`count_sent`] for the server's `Stamps` frames, which are
/// counted when they enter an outbox — so that in one process
/// `net.frames_sent` equals `net.frames_received` at quiescence: every
/// frame written by one side is read by the other.  Byte counters cover
/// framed bytes only (length prefix + body), not the 4-byte stream headers,
/// so the same parity holds for them.
struct WireMetrics {
    frames_sent: mvc_obs::Counter,
    frames_received: mvc_obs::Counter,
    bytes_sent: mvc_obs::Counter,
    bytes_received: mvc_obs::Counter,
}

fn wire_metrics() -> &'static WireMetrics {
    static METRICS: OnceLock<WireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = mvc_obs::global();
        WireMetrics {
            frames_sent: registry.counter("net.frames_sent"),
            frames_received: registry.counter("net.frames_received"),
            bytes_sent: registry.counter("net.bytes_sent"),
            bytes_received: registry.counter("net.bytes_received"),
        }
    })
}

/// Magic bytes opening every mvc-net stream (one per direction).
pub const NET_MAGIC: [u8; 3] = *b"MVN";

/// Protocol version this build speaks, the fourth header byte.
pub const NET_VERSION: u8 = 2;

/// Size of the per-direction stream header in bytes.
const HEADER_LEN: usize = 4;

/// Upper bound on a frame body's length (16 MiB).  A peer announcing a
/// larger frame is corrupt or hostile and is rejected before any buffering.
pub const MAX_FRAME_LEN: u64 = 1 << 24;

/// Upper bound on the `u64` words the stamps of one `Stamps` frame store
/// between them ([`VectorTimestamp::stored_words`]): what a body of
/// [`MAX_FRAME_LEN`] one-byte components could carry.  Differences are small
/// where the stamps they rebuild are not, so the bytes of a frame no longer
/// bound what it decodes to; this does.  [`write_stamps_frame`] closes a
/// frame before it, the reader rejects a frame beyond it.
const MAX_FRAME_STAMP_WORDS: usize = 1 << 24;

/// What one `Stamps` frame may hold.  (A parameter of the codec's inner
/// functions only so that the tests can reach a limit with small inputs.)
#[derive(Debug, Clone, Copy)]
struct StampLimits {
    /// Bytes of encoded stamps.
    bytes: usize,
    /// Words the decoded stamps store.
    words: usize,
}

/// [`MAX_FRAME_LEN`], less room for the tag and the two varints in front of
/// the stamps, and [`MAX_FRAME_STAMP_WORDS`].
const FRAME_LIMITS: StampLimits = StampLimits {
    bytes: MAX_FRAME_LEN as usize - 32,
    words: MAX_FRAME_STAMP_WORDS,
};

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_EVENTS: u8 = 3;
const TAG_STAMPS: u8 = 4;
const TAG_CREDIT: u8 = 5;
const TAG_STAMPS_ACK: u8 = 6;
const TAG_GOODBYE: u8 = 7;
const TAG_ERROR: u8 = 8;

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: open (token 0) or resume (token from a previous
    /// [`Frame::HelloAck`]) a session, registering this producer's threads
    /// and the objects it will touch, by name.
    Hello {
        /// Session token; `0` asks for a fresh session.
        token: u64,
        /// Whether the server should stream stamped results back.
        want_stamps: bool,
        /// How many stamps this client has already received (resume only;
        /// the server restarts the stamp stream from here).
        stamps_received: u64,
        /// Names of the client's threads, defining its local thread ids.
        threads: Vec<String>,
        /// Names of the objects the client operates on, defining its local
        /// object ids.
        objects: Vec<String>,
    },
    /// Server → client: the session is open.
    HelloAck {
        /// Token identifying the session on reconnect.
        token: u64,
        /// Events of this session the server has already ingested; the
        /// client resumes sending from this index (replaying its log).
        watermark: u64,
        /// Initial send credit, in events.
        credit: u64,
        /// Global thread index for each registered local thread, in
        /// registration order.
        thread_ids: Vec<u64>,
        /// Global object index for each registered local object, in
        /// registration order.
        object_ids: Vec<u64>,
    },
    /// Client → server: a batch of events in program order.  Ids are the
    /// client's local indices; the server translates via the registrations
    /// carried by the handshake.
    Events {
        /// `(local thread, local object, kind)` per event.
        events: Vec<(u32, u32, OpKind)>,
    },
    /// Server → client: stamped results for this session's events
    /// `first..first + stamps.len()`, in the client's send order.  Written
    /// through [`write_frame`] every stamp is based on the one before it;
    /// the server writes stamps by reference, with their threads, through
    /// [`write_stamps_frame`].
    Stamps {
        /// Index (in the client's event order) of the first stamp.
        first: u64,
        /// The timestamps.
        stamps: Vec<VectorTimestamp>,
    },
    /// Server → client: flow-control grant.  `acked` lets the client prune
    /// its replay log; `more` extends its send window.
    Credit {
        /// Events ingested so far (the replay watermark).
        acked: u64,
        /// Additional events the client may now send.
        more: u64,
    },
    /// Client → server: stamps received so far, letting the server prune
    /// its retransmit log.
    StampsAck {
        /// Total stamps the client has received.
        received: u64,
    },
    /// Either direction: orderly end of the session.  The client states how
    /// many events it sent in total; the server replies with its own
    /// `Goodbye` once everything is ingested (and, if requested, stamped).
    Goodbye {
        /// Total events in the session.
        events: u64,
    },
    /// Either direction: fatal session error; the connection closes after
    /// this frame.
    Error {
        /// Machine-readable error class (see [`error_code`]).
        code: u8,
        /// Human-readable description.
        message: String,
    },
}

/// Error classes carried by [`Frame::Error`].
pub mod error_code {
    /// The peer violated the protocol (bad frame sequence, credit overrun,
    /// unknown ids…).
    pub const PROTOCOL: u8 = 1;
}

/// Errors produced while decoding the framed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The stream does not begin with the `MVN` magic.
    BadMagic,
    /// The magic matched but the peer speaks a different protocol version.
    VersionMismatch(u8),
    /// A frame body carried an unknown tag.
    UnknownTag(u8),
    /// A frame body ended in the middle of a field — corruption, since
    /// bodies are only decoded once fully buffered.
    Truncated,
    /// A frame body had bytes left over after its last field (carries the
    /// frame's tag).
    TrailingBytes(u8),
    /// A frame announced a body longer than [`MAX_FRAME_LEN`].
    Oversize(u64),
    /// A length or count varint exceeded the maximum varint width.
    VarintOverflow,
    /// An operation-kind tag was not recognised.
    BadOpKind(u8),
    /// A name field was not valid UTF-8.
    BadUtf8,
    /// A local id field exceeded `u32::MAX`.
    IdOverflow,
    /// A stamp named a base that does not precede it in its frame (carries
    /// the back-reference).
    BadBackReference(u64),
    /// A stamp listed a chunk beyond its width.
    ChunkOutOfRange,
    /// A change mask had bits set beyond the stamp's width.
    MaskBeyondWidth,
    /// The stamps of one frame store more than `MAX_FRAME_STAMP_WORDS` (2²⁴)
    /// words.
    StampBudget,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "stream is not an mvc-net protocol stream"),
            FrameError::VersionMismatch(found) => write!(
                f,
                "peer speaks protocol version {found}, this build speaks version {NET_VERSION}"
            ),
            FrameError::UnknownTag(tag) => write!(f, "unknown frame tag {tag}"),
            FrameError::Truncated => write!(f, "frame body ended mid-field"),
            FrameError::TrailingBytes(tag) => {
                write!(f, "frame with tag {tag} has trailing bytes")
            }
            FrameError::Oversize(len) => write!(
                f,
                "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
            ),
            FrameError::VarintOverflow => write!(f, "varint exceeds maximum width"),
            FrameError::BadOpKind(tag) => write!(f, "unknown operation kind tag {tag}"),
            FrameError::BadUtf8 => write!(f, "name field is not valid UTF-8"),
            FrameError::IdOverflow => write!(f, "local id exceeds u32::MAX"),
            FrameError::BadBackReference(back) => write!(
                f,
                "stamp refers {back} stamps back, beyond the start of its frame"
            ),
            FrameError::ChunkOutOfRange => write!(f, "stamp lists a chunk beyond its width"),
            FrameError::MaskBeyondWidth => {
                write!(f, "change mask has bits beyond the stamp's width")
            }
            FrameError::StampBudget => write!(
                f,
                "stamps of one frame store more than {MAX_FRAME_STAMP_WORDS} words"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        match e {
            // The framing calls `peek_varint` only, which reads no ids.
            DecodeError::VarintOverflow | DecodeError::IdOutOfRange => FrameError::VarintOverflow,
            DecodeError::BadOpKind(tag) => FrameError::BadOpKind(tag),
            DecodeError::VersionMismatch(found) => FrameError::VersionMismatch(found),
            DecodeError::BadMagic => FrameError::BadMagic,
            DecodeError::UnexpectedEof => FrameError::Truncated,
        }
    }
}

/// Appends the per-direction stream header (`MVN` + version byte).
pub fn write_stream_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&NET_MAGIC);
    out.push(NET_VERSION);
}

/// Appends `value` as the same 7-bit little-endian varint
/// [`mvc_trace::codec`] uses (asserted equivalent in the tests below).
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn op_kind_tag(kind: OpKind) -> u8 {
    // Same values as mvc_trace::codec's batch format.
    match kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
        OpKind::Acquire => 2,
        OpKind::Release => 3,
        OpKind::Op => 4,
    }
}

fn op_kind_from_tag(tag: u8) -> Result<OpKind, FrameError> {
    Ok(match tag {
        0 => OpKind::Read,
        1 => OpKind::Write,
        2 => OpKind::Acquire,
        3 => OpKind::Release,
        4 => OpKind::Op,
        other => return Err(FrameError::BadOpKind(other)),
    })
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Bytes [`put_varint`] writes for `value`.
fn varint_len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// The wrapping difference `new - old`, small magnitudes first.
fn zigzag(new: u64, old: u64) -> u64 {
    let delta = new.wrapping_sub(old) as i64;
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// `old` plus the difference [`zigzag`] encoded.
fn unzigzag(old: u64, code: u64) -> u64 {
    old.wrapping_add((code >> 1) ^ (code & 1).wrapping_neg())
}

/// Counts one frame of `framed` bytes on `net.frames_sent` and
/// `net.bytes_sent`.
pub(crate) fn count_sent(framed: usize) {
    let metrics = wire_metrics();
    metrics.frames_sent.inc();
    metrics.bytes_sent.add(framed as u64);
}

/// Appends `frame` to `out` as `varint(len) body`.
///
/// A `Frame::Stamps` is one frame whatever it holds; the caller keeps it
/// within [`MAX_FRAME_LEN`] and `MAX_FRAME_STAMP_WORDS` (2²⁴), or uses
/// [`write_stamps_frame`], which splits.
pub fn write_frame(out: &mut Vec<u8>, frame: &Frame) {
    let start = out.len();
    encode_body(out, frame);
    let body = out.len() - start;
    debug_assert!((body as u64) <= MAX_FRAME_LEN, "frame body too large");
    // The body was encoded in place; its length goes in front of it.
    put_varint(out, body as u64);
    let prefix = out.len() - start - body;
    out[start..].rotate_right(prefix);
    count_sent(out.len() - start);
}

/// Appends one `Stamps` frame holding a prefix of `stamps` — each with its
/// lane, see the module docs — numbered from `first`, and returns how many
/// it took: `max_stamps`, unless [`MAX_FRAME_LEN`] or
/// `MAX_FRAME_STAMP_WORDS` closes the frame earlier.  It takes at least
/// one when there is one, so a caller looping until its stamps are gone
/// terminates (a single stamp beyond either limit makes a frame the peer
/// rejects).
///
/// Nothing is cloned and nothing materialised: stamps are read where they
/// lie and encoded straight into the frame.
///
/// Unlike [`write_frame`], this does not count the frame on the wire
/// counters: the server encodes a `Stamps` frame once, keeps its bytes for
/// replay, and counts it each time it enters an outbox.
pub fn write_stamps_frame<'a>(
    out: &mut Vec<u8>,
    first: u64,
    stamps: impl Iterator<Item = (u32, &'a VectorTimestamp)>,
    max_stamps: usize,
) -> usize {
    StampsWriter::holding(first, stamps, max_stamps, FRAME_LIMITS).close(out)
}

/// Appends the `stamp*` part of a `Stamps` body for a prefix of `stamps` and
/// returns how many stamps that is (see [`write_stamps_frame`] for when it
/// stops).
fn encode_stamps<'a>(
    out: &mut Vec<u8>,
    stamps: impl Iterator<Item = (u32, &'a VectorTimestamp)>,
    max_stamps: usize,
    limits: &StampLimits,
) -> usize {
    let writer = StampsWriter::holding(0, stamps, max_stamps, *limits);
    out.extend_from_slice(&writer.body);
    writer.count
}

/// The one encoder of `Stamps` frames: a frame written a stamp at a time and
/// held open for as long as its caller likes — across the server's stamp
/// windows — that closes where [`write_stamps_frame`] would: at
/// `max_stamps`, or before a stamp that would take it past [`MAX_FRAME_LEN`]
/// or `MAX_FRAME_STAMP_WORDS`.  Fed the same lane-tagged stamps, it writes
/// the same bytes however its input is split.
///
/// A stamp is encoded against its base as it is pushed.  The writer keeps
/// only each lane's latest stamp, the one a later stamp of the open frame
/// may be based on: borrowed for as long as `'a` lasts, and cloned by
/// [`keep`](Self::keep) when it must outlive that.
#[derive(Debug)]
pub(crate) struct StampsWriter<'a> {
    limits: StampLimits,
    max_stamps: usize,
    /// Number of the open frame's first stamp.
    first: u64,
    /// Stamps in the open frame.
    count: usize,
    /// Words the open frame's stamps store.
    words: usize,
    /// The open frame's stamps, encoded.
    body: Vec<u8>,
    /// Per lane, its latest stamp in the open frame, with how many stamps
    /// the frame held once it was written.
    latest: Vec<Option<(usize, Cow<'a, VectorTimestamp>)>>,
    /// The lane of the open frame's newest stamp.
    newest: usize,
    /// Scratch for the short last chunk of a plain vector.
    pads: [[u64; 64]; 2],
}

impl<'a> StampsWriter<'a> {
    /// An empty frame numbered from `first` under the protocol's limits.
    pub(crate) fn new(first: u64, max_stamps: usize) -> Self {
        Self::within(first, max_stamps, FRAME_LIMITS)
    }

    /// A frame numbered from `first` that holds the prefix of `stamps` one
    /// frame under `limits` takes.
    fn holding(
        first: u64,
        stamps: impl Iterator<Item = (u32, &'a VectorTimestamp)>,
        max_stamps: usize,
        limits: StampLimits,
    ) -> Self {
        let mut writer = Self::within(first, max_stamps, limits);
        for (lane, stamp) in stamps.take(max_stamps) {
            if writer.push(lane, Cow::Borrowed(stamp)).is_err() {
                break;
            }
        }
        writer
    }

    fn within(first: u64, max_stamps: usize, limits: StampLimits) -> Self {
        StampsWriter {
            limits,
            max_stamps,
            first,
            count: 0,
            words: 0,
            body: Vec::new(),
            latest: Vec::new(),
            newest: 0,
            pads: [[0; 64]; 2],
        }
    }

    /// Whether the open frame holds no stamp.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether the open frame holds `max_stamps` stamps.
    pub(crate) fn is_full(&self) -> bool {
        self.count >= self.max_stamps
    }

    /// Encodes `stamp`, of `lane`, into the open frame, or hands it back when
    /// it would take a frame that holds a stamp already past a limit: close
    /// the frame, and push it again.  An empty frame takes any stamp.
    pub(crate) fn push(
        &mut self,
        lane: u32,
        stamp: Cow<'a, VectorTimestamp>,
    ) -> Result<(), Cow<'a, VectorTimestamp>> {
        let words = self.words.saturating_add(stamp.stored_words());
        if self.count > 0 && words > self.limits.words {
            return Err(stamp);
        }
        let lane = lane as usize;
        if self.latest.len() <= lane {
            self.latest.resize_with(lane + 1, || None);
        }
        // The lane's latest stamp, else the stamp before this one, else (or
        // if that one is wider: widths only grow along a base chain) zero.
        let latest = match &self.latest[lane] {
            Some(latest) => Some(latest),
            None => self.latest.get(self.newest).and_then(Option::as_ref),
        };
        let zero = VectorTimestamp::default();
        let (back, base) = match latest {
            Some((at, base)) if base.len() <= stamp.len() => (self.count + 1 - at, &**base),
            _ => (0, &zero),
        };
        let before = self.body.len();
        encode_stamp(&mut self.body, &stamp, back, base, &mut self.pads);
        if self.count > 0 && self.body.len() > self.limits.bytes {
            self.body.truncate(before);
            return Err(stamp);
        }
        self.words = words;
        self.count += 1;
        self.latest[lane] = Some((self.count, stamp));
        self.newest = lane;
        Ok(())
    }

    /// Appends the open frame to `out` as `varint(len) body`, opens the next
    /// one, and returns how many stamps the closed frame holds.
    pub(crate) fn close(&mut self, out: &mut Vec<u8>) -> usize {
        let count = self.count;
        let body = 1 + varint_len(self.first) + varint_len(count as u64) + self.body.len();
        out.reserve(varint_len(body as u64) + body);
        put_varint(out, body as u64);
        out.push(TAG_STAMPS);
        put_varint(out, self.first);
        put_varint(out, count as u64);
        out.extend_from_slice(&self.body);
        self.first += count as u64;
        self.count = 0;
        self.words = 0;
        self.body.clear();
        self.latest.clear();
        count
    }

    /// The writer with the stamps it still refers to — at most one per lane
    /// — cloned where they are borrowed, so it outlives what they borrow
    /// from.
    pub(crate) fn keep(self) -> StampsWriter<'static> {
        let latest = self
            .latest
            .into_iter()
            .map(|latest| latest.map(|(at, stamp)| (at, Cow::Owned(stamp.into_owned()))));
        StampsWriter {
            limits: self.limits,
            max_stamps: self.max_stamps,
            first: self.first,
            count: self.count,
            words: self.words,
            body: self.body,
            latest: latest.collect(),
            newest: self.newest,
            pads: self.pads,
        }
    }
}

/// `entries` as a whole chunk: itself, or — the short last chunk of a plain
/// vector — a zero-padded copy in `pad`.
fn whole_chunk<'a>(entries: &'a [u64], pad: &'a mut [u64; 64]) -> &'a [u64; 64] {
    match entries.try_into() {
        Ok(whole) => whole,
        Err(_) => {
            *pad = [0; 64];
            pad[..entries.len()].copy_from_slice(entries);
            pad
        }
    }
}

/// Appends one stamp as its difference from `base`, `back` stamps before it
/// (0: the zero vector), which is no wider than `stamp`.
fn encode_stamp(
    out: &mut Vec<u8>,
    stamp: &VectorTimestamp,
    back: usize,
    base: &VectorTimestamp,
    pads: &mut [[u64; 64]; 2],
) {
    put_varint(out, back as u64);
    put_varint(out, (stamp.len() - base.len()) as u64);
    let [pad_new, pad_old] = pads;
    // The chunk after the last one written.
    let mut next = 0;
    for (chunk, new, old) in stamp.chunk_pairs(base) {
        let new = whole_chunk(new, pad_new);
        let old = whole_chunk(old, pad_old);
        let mut mask = 0u64;
        for (group, (a, b)) in new.chunks_exact(8).zip(old.chunks_exact(8)).enumerate() {
            let mut differ = [0u8; 8];
            for ((d, a), b) in differ.iter_mut().zip(a).zip(b) {
                *d = u8::from(a != b);
            }
            // Eight 0/1 bytes to eight bits.
            let bits = u64::from_le_bytes(differ).wrapping_mul(0x0102_0408_1020_4080) >> 56;
            mask |= bits << (8 * group);
        }
        if mask == 0 {
            continue;
        }
        put_varint(out, (chunk - next + 1) as u64);
        out.extend_from_slice(&mask.to_le_bytes());
        while mask != 0 {
            let i = mask.trailing_zeros() as usize % 64;
            mask &= mask - 1;
            put_varint(out, zigzag(new[i], old[i]));
        }
        next = chunk + 1;
    }
    out.push(0);
}

fn encode_body(body: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Hello {
            token,
            want_stamps,
            stamps_received,
            threads,
            objects,
        } => {
            body.push(TAG_HELLO);
            put_varint(body, *token);
            body.push(u8::from(*want_stamps));
            put_varint(body, *stamps_received);
            put_varint(body, threads.len() as u64);
            for name in threads {
                put_string(body, name);
            }
            put_varint(body, objects.len() as u64);
            for name in objects {
                put_string(body, name);
            }
        }
        Frame::HelloAck {
            token,
            watermark,
            credit,
            thread_ids,
            object_ids,
        } => {
            body.push(TAG_HELLO_ACK);
            put_varint(body, *token);
            put_varint(body, *watermark);
            put_varint(body, *credit);
            put_varint(body, thread_ids.len() as u64);
            for id in thread_ids {
                put_varint(body, *id);
            }
            put_varint(body, object_ids.len() as u64);
            for id in object_ids {
                put_varint(body, *id);
            }
        }
        Frame::Events { events } => {
            body.push(TAG_EVENTS);
            put_varint(body, events.len() as u64);
            for &(thread, object, kind) in events {
                put_varint(body, u64::from(thread));
                put_varint(body, u64::from(object));
                body.push(op_kind_tag(kind));
            }
        }
        Frame::Stamps { first, stamps } => {
            body.push(TAG_STAMPS);
            put_varint(body, *first);
            put_varint(body, stamps.len() as u64);
            // One lane: every stamp is based on the one before it.
            let lane = stamps.iter().map(|s| (0, s));
            let written = encode_stamps(body, lane, stamps.len(), &FRAME_LIMITS);
            debug_assert_eq!(written, stamps.len(), "stamps beyond one frame's limits");
        }
        Frame::Credit { acked, more } => {
            body.push(TAG_CREDIT);
            put_varint(body, *acked);
            put_varint(body, *more);
        }
        Frame::StampsAck { received } => {
            body.push(TAG_STAMPS_ACK);
            put_varint(body, *received);
        }
        Frame::Goodbye { events } => {
            body.push(TAG_GOODBYE);
            put_varint(body, *events);
        }
        Frame::Error { code, message } => {
            body.push(TAG_ERROR);
            body.push(*code);
            put_string(body, message);
        }
    }
}

/// Sequential reader over a fully-buffered frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        let byte = *self.buf.get(self.pos).ok_or(FrameError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    fn varint(&mut self) -> Result<u64, FrameError> {
        // Most varints on this wire are one byte.
        if let Some(&byte) = self.buf.get(self.pos).filter(|&&byte| byte < 0x80) {
            self.pos += 1;
            return Ok(u64::from(byte));
        }
        match peek_varint(&self.buf[self.pos..])? {
            Some((value, used)) => {
                self.pos += used;
                Ok(value)
            }
            None => Err(FrameError::Truncated),
        }
    }

    fn u64_le(&mut self) -> Result<u64, FrameError> {
        let bytes = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.first_chunk::<8>())
            .ok_or(FrameError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(*bytes))
    }

    fn local_id(&mut self) -> Result<u32, FrameError> {
        u32::try_from(self.varint()?).map_err(|_| FrameError::IdOverflow)
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.varint()? as usize;
        let end = self.pos.checked_add(len).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let s = std::str::from_utf8(&self.buf[self.pos..end]).map_err(|_| FrameError::BadUtf8)?;
        self.pos = end;
        Ok(s.to_owned())
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Capacity hint for `count` elements of at least `min_size` bytes
    /// each, clamped by the bytes actually present so a corrupt count
    /// cannot trigger a huge allocation.
    fn capacity_for(&self, count: u64, min_size: usize) -> usize {
        (count as usize).min(self.remaining() / min_size.max(1) + 1)
    }
}

/// Decodes one stamp as `base` plus the chunks that follow.  `words` is what
/// the frame's stamps store so far; it never passes `max_words`, and what is
/// allocated on the way passes it by no more than a copy of `base`.
fn decode_stamp(
    c: &mut Cursor<'_>,
    base: &VectorTimestamp,
    words: &mut usize,
    max_words: usize,
) -> Result<VectorTimestamp, FrameError> {
    // A width no machine can hold would break the budget anyway.
    let width = usize::try_from(c.varint()?)
        .ok()
        .and_then(|grown| base.len().checked_add(grown))
        .ok_or(FrameError::StampBudget)?;
    let mut patch = base.patch(width);
    let mut next = 0usize;
    loop {
        if words.saturating_add(patch.min_words()) > max_words {
            return Err(FrameError::StampBudget);
        }
        let skip = c.varint()?;
        if skip == 0 {
            break;
        }
        let chunk = usize::try_from(skip - 1)
            .ok()
            .and_then(|skipped| next.checked_add(skipped))
            .ok_or(FrameError::ChunkOutOfRange)?;
        let mut mask = c.u64_le()?;
        let entries = patch.chunk_mut(chunk).ok_or(FrameError::ChunkOutOfRange)?;
        if entries.len() < 64 && mask >> entries.len() != 0 {
            return Err(FrameError::MaskBeyondWidth);
        }
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            entries[i] = unzigzag(entries[i], c.varint()?);
        }
        next = chunk + 1;
    }
    let stamp = patch.finish();
    *words = words.saturating_add(stamp.stored_words());
    if *words > max_words {
        return Err(FrameError::StampBudget);
    }
    Ok(stamp)
}

/// Decodes a `Stamps` payload — `first`, the count and the stamps — whose
/// stamps store at most `max_words` words.
fn decode_stamps(
    c: &mut Cursor<'_>,
    max_words: usize,
) -> Result<(u64, Vec<VectorTimestamp>), FrameError> {
    let first = c.varint()?;
    let count = c.varint()?;
    let mut stamps: Vec<VectorTimestamp> = Vec::with_capacity(c.capacity_for(count, 3));
    let zero = VectorTimestamp::default();
    let mut words = 0usize;
    for _ in 0..count {
        let back = c.varint()?;
        let base = match usize::try_from(back) {
            Ok(0) => &zero,
            Ok(back) if back <= stamps.len() => &stamps[stamps.len() - back],
            _ => return Err(FrameError::BadBackReference(back)),
        };
        let stamp = decode_stamp(c, base, &mut words, max_words)?;
        stamps.push(stamp);
    }
    Ok((first, stamps))
}

/// Decodes one fully-buffered frame body (`tag payload`) whose stamps, if it
/// has any, store at most `max_words` words.
fn decode_body(body: &[u8], max_words: usize) -> Result<Frame, FrameError> {
    let mut c = Cursor::new(body);
    let tag = c.u8()?;
    let frame = match tag {
        TAG_HELLO => {
            let token = c.varint()?;
            let want_stamps = c.u8()? != 0;
            let stamps_received = c.varint()?;
            let thread_count = c.varint()?;
            let mut threads = Vec::with_capacity(c.capacity_for(thread_count, 1));
            for _ in 0..thread_count {
                threads.push(c.string()?);
            }
            let object_count = c.varint()?;
            let mut objects = Vec::with_capacity(c.capacity_for(object_count, 1));
            for _ in 0..object_count {
                objects.push(c.string()?);
            }
            Frame::Hello {
                token,
                want_stamps,
                stamps_received,
                threads,
                objects,
            }
        }
        TAG_HELLO_ACK => {
            let token = c.varint()?;
            let watermark = c.varint()?;
            let credit = c.varint()?;
            let thread_count = c.varint()?;
            let mut thread_ids = Vec::with_capacity(c.capacity_for(thread_count, 1));
            for _ in 0..thread_count {
                thread_ids.push(c.varint()?);
            }
            let object_count = c.varint()?;
            let mut object_ids = Vec::with_capacity(c.capacity_for(object_count, 1));
            for _ in 0..object_count {
                object_ids.push(c.varint()?);
            }
            Frame::HelloAck {
                token,
                watermark,
                credit,
                thread_ids,
                object_ids,
            }
        }
        TAG_EVENTS => {
            let count = c.varint()?;
            let mut events = Vec::with_capacity(c.capacity_for(count, 3));
            for _ in 0..count {
                let thread = c.local_id()?;
                let object = c.local_id()?;
                let kind = op_kind_from_tag(c.u8()?)?;
                events.push((thread, object, kind));
            }
            Frame::Events { events }
        }
        TAG_STAMPS => {
            let (first, stamps) = decode_stamps(&mut c, max_words)?;
            Frame::Stamps { first, stamps }
        }
        TAG_CREDIT => Frame::Credit {
            acked: c.varint()?,
            more: c.varint()?,
        },
        TAG_STAMPS_ACK => Frame::StampsAck {
            received: c.varint()?,
        },
        TAG_GOODBYE => Frame::Goodbye {
            events: c.varint()?,
        },
        TAG_ERROR => Frame::Error {
            code: c.u8()?,
            message: c.string()?,
        },
        other => return Err(FrameError::UnknownTag(other)),
    };
    if c.remaining() != 0 {
        return Err(FrameError::TrailingBytes(tag));
    }
    Ok(frame)
}

/// A frame as [`FrameReader::try_next_deferring_stamps`] yields it.
pub(crate) enum Incoming {
    /// Any frame but `Stamps`, decoded.
    Frame(Frame),
    /// A `Stamps` frame's payload (its body less the tag), not yet decoded.
    Stamps(Vec<u8>),
}

/// Decodes a `Stamps` payload that [`FrameReader::try_next_deferring_stamps`]
/// deferred, under the same limits as [`FrameReader::try_next`]: the
/// frame's `first` and its stamps.
pub(crate) fn decode_deferred(payload: &[u8]) -> Result<(u64, Vec<VectorTimestamp>), FrameError> {
    let mut c = Cursor::new(payload);
    let stamps = decode_stamps(&mut c, FRAME_LIMITS.words)?;
    if c.remaining() != 0 {
        return Err(FrameError::TrailingBytes(TAG_STAMPS));
    }
    Ok(stamps)
}

/// Incremental decoder for one direction of a connection: feed raw bytes in
/// any chunking, take complete frames out.
///
/// The reader first consumes the 4-byte stream header (rejecting a wrong
/// magic as soon as the prefix diverges and a wrong version at the fourth
/// byte), then yields frames one at a time.  A reader is connection-scoped:
/// on reconnect, replace it, which discards any half-received frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
    header_done: bool,
}

impl FrameReader {
    /// A fresh reader expecting a stream header.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, or `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] is fatal for the connection: framing has lost
    /// sync and the stream cannot be resynchronised.
    pub fn try_next(&mut self) -> Result<Option<Frame>, FrameError> {
        self.next_with(|body| decode_body(body, FRAME_LIMITS.words))
    }

    /// [`try_next`](Self::try_next), except that a `Stamps` frame comes out
    /// as its undecoded body, for [`decode_deferred`] to decode later.
    pub(crate) fn try_next_deferring_stamps(&mut self) -> Result<Option<Incoming>, FrameError> {
        self.next_with(|body| match body.split_first() {
            Some((&TAG_STAMPS, payload)) => Ok(Incoming::Stamps(payload.to_vec())),
            _ => decode_body(body, FRAME_LIMITS.words).map(Incoming::Frame),
        })
    }

    /// Takes the next complete frame body out of the buffer through
    /// `decode`, or `Ok(None)` if more bytes are needed.
    fn next_with<T>(
        &mut self,
        decode: impl FnOnce(&[u8]) -> Result<T, FrameError>,
    ) -> Result<Option<T>, FrameError> {
        if !self.header_done {
            let unread = &self.buf[self.pos..];
            let probe = unread.len().min(NET_MAGIC.len());
            if unread[..probe] != NET_MAGIC[..probe] {
                return Err(FrameError::BadMagic);
            }
            if unread.len() < HEADER_LEN {
                return Ok(None);
            }
            if unread[NET_MAGIC.len()] != NET_VERSION {
                return Err(FrameError::VersionMismatch(unread[NET_MAGIC.len()]));
            }
            self.pos += HEADER_LEN;
            self.header_done = true;
        }
        let unread = &self.buf[self.pos..];
        let (len, used) = match peek_varint(unread)? {
            Some(pair) => pair,
            None => return Ok(None),
        };
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversize(len));
        }
        let total = used + len as usize;
        if unread.len() < total {
            return Ok(None);
        }
        let frame = decode(&unread[used..total])?;
        self.pos += total;
        self.compact();
        let metrics = wire_metrics();
        metrics.frames_received.inc();
        metrics.bytes_received.add(total as u64);
        Ok(Some(frame))
    }

    /// Reclaims consumed prefix bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timestamp of `len` components, zero but for `entries`, in the form
    /// the storage rule gives it (packed unless every chunk is nonzero).
    fn sparse(len: usize, entries: &[(usize, u64)]) -> VectorTimestamp {
        let mut dense = vec![0u64; len];
        for &(at, value) in entries {
            dense[at] = value;
        }
        stored(&dense)
    }

    /// `dense` in the form the storage rule gives it.
    fn stored(dense: &[u64]) -> VectorTimestamp {
        let zero = VectorTimestamp::default();
        let mut patch = zero.patch(dense.len());
        for (chunk, entries) in dense.chunks(64).enumerate() {
            if entries.iter().any(|&v| v != 0) {
                patch
                    .chunk_mut(chunk)
                    .expect("ascending")
                    .copy_from_slice(entries);
            }
        }
        patch.finish()
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                token: 0,
                want_stamps: true,
                stamps_received: 0,
                threads: vec!["loader".into(), "worker".into()],
                objects: vec!["queue".into()],
            },
            Frame::HelloAck {
                token: 7,
                watermark: 0,
                credit: 65_536,
                thread_ids: vec![0, 1],
                object_ids: vec![0],
            },
            Frame::Events {
                events: vec![
                    (0, 0, OpKind::Write),
                    (1, 0, OpKind::Read),
                    (0, 0, OpKind::Acquire),
                ],
            },
            Frame::Stamps {
                first: 3,
                // Bases one stamp back, a width that grows and then shrinks
                // (the narrower stamp starts over from zero), more than one
                // chunk, a chunk that is all zero.
                stamps: vec![
                    VectorTimestamp::from_components(vec![1, 0, 2]),
                    VectorTimestamp::from_components(vec![1, 1, 300]),
                    VectorTimestamp::from_components(vec![1, 1, 300, 0, u64::MAX]),
                    sparse(150, &[(3, 9), (140, 1)]),
                    sparse(150, &[(3, 9), (140, 2)]),
                    VectorTimestamp::from_components(vec![2, 1]),
                    sparse(150, &[(3, 8), (70, 1), (140, 2)]),
                ],
            },
            Frame::Credit {
                acked: 3,
                more: 1024,
            },
            Frame::StampsAck { received: 5 },
            Frame::Goodbye { events: 12 },
            Frame::Error {
                code: error_code::PROTOCOL,
                message: "credit exceeded".into(),
            },
        ]
    }

    fn encode_stream(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        write_stream_header(&mut out);
        for frame in frames {
            write_frame(&mut out, frame);
        }
        out
    }

    #[test]
    fn every_frame_round_trips() {
        let frames = sample_frames();
        let bytes = encode_stream(&frames);
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        for expected in &frames {
            let got = reader.try_next().expect("decode").expect("complete");
            assert_eq!(&got, expected);
        }
        assert!(reader.try_next().expect("decode").is_none());
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_feeding_yields_the_same_frames() {
        let frames = sample_frames();
        let bytes = encode_stream(&frames);
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for &byte in &bytes {
            reader.feed(&[byte]);
            while let Some(frame) = reader.try_next().expect("decode") {
                got.push(frame);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn varint_writer_matches_the_codec() {
        use bytes::BytesMut;
        for value in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut ours = Vec::new();
            put_varint(&mut ours, value);
            let mut theirs = BytesMut::new();
            mvc_trace::codec::put_varint(&mut theirs, value);
            assert_eq!(
                &ours[..],
                &theirs[..],
                "varint encodings differ for {value}"
            );
        }
    }

    #[test]
    fn wrong_magic_is_rejected_at_the_first_divergent_byte() {
        let mut reader = FrameReader::new();
        reader.feed(b"MX");
        assert_eq!(reader.try_next(), Err(FrameError::BadMagic));
    }

    #[test]
    fn wrong_version_is_rejected_at_the_fourth_byte() {
        let mut reader = FrameReader::new();
        reader.feed(b"MVN");
        assert_eq!(reader.try_next(), Ok(None));
        reader.feed(&[9]);
        assert_eq!(reader.try_next(), Err(FrameError::VersionMismatch(9)));
    }

    #[test]
    fn batch_codec_magic_is_not_a_net_stream() {
        // A client accidentally pointed at a codec file (or vice versa)
        // must fail loudly, not misparse.
        let mut reader = FrameReader::new();
        reader.feed(b"MVC\x01");
        assert_eq!(reader.try_next(), Err(FrameError::BadMagic));
    }

    #[test]
    fn oversize_frames_are_rejected_before_buffering() {
        let mut out = Vec::new();
        write_stream_header(&mut out);
        put_varint(&mut out, MAX_FRAME_LEN + 1);
        let mut reader = FrameReader::new();
        reader.feed(&out);
        assert_eq!(
            reader.try_next(),
            Err(FrameError::Oversize(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut out = Vec::new();
        write_stream_header(&mut out);
        put_varint(&mut out, 1);
        out.push(200);
        let mut reader = FrameReader::new();
        reader.feed(&out);
        assert_eq!(reader.try_next(), Err(FrameError::UnknownTag(200)));
    }

    #[test]
    fn zero_length_bodies_are_corrupt() {
        let mut out = Vec::new();
        write_stream_header(&mut out);
        put_varint(&mut out, 0);
        let mut reader = FrameReader::new();
        reader.feed(&out);
        assert_eq!(reader.try_next(), Err(FrameError::Truncated));
    }

    #[test]
    fn trailing_bytes_inside_a_body_are_corrupt() {
        let mut body = Vec::new();
        encode_body(&mut body, &Frame::Goodbye { events: 3 });
        body.push(0xff);
        let mut out = Vec::new();
        write_stream_header(&mut out);
        put_varint(&mut out, body.len() as u64);
        out.extend_from_slice(&body);
        let mut reader = FrameReader::new();
        reader.feed(&out);
        assert_eq!(
            reader.try_next(),
            Err(FrameError::TrailingBytes(TAG_GOODBYE))
        );
    }

    #[test]
    fn truncation_inside_every_frame_type_is_detected_or_pends() {
        // Chop each sample frame's encoding at every possible byte
        // boundary.  A truncated suffix within the stream must either
        // report "need more bytes" (Ok(None)) — never a wrong frame — and
        // a re-padded body must fail as Truncated when the length header
        // claims completeness.
        for frame in sample_frames() {
            let mut body = Vec::new();
            encode_body(&mut body, &frame);
            for cut in 1..body.len() {
                // The frame claims its full length but the body was cut:
                // this is the corruption case (bytes lost mid-stream).
                let mut wire = Vec::new();
                write_stream_header(&mut wire);
                put_varint(&mut wire, body.len() as u64);
                wire.extend_from_slice(&body[..cut]);
                let mut reader = FrameReader::new();
                reader.feed(&wire);
                assert_eq!(
                    reader.try_next(),
                    Ok(None),
                    "cut at {cut} of {frame:?} should pend until the body completes"
                );
                // Now pad with garbage to the claimed length: decoding must
                // fail loudly (some cuts happen to produce a decodable
                // body of a different value — those are indistinguishable
                // in any length-delimited format — but none may panic).
                let mut padded = wire.clone();
                padded.resize(wire.len() + (body.len() - cut), 0xff);
                let mut reader = FrameReader::new();
                reader.feed(&padded);
                let _ = reader.try_next();
            }
        }
    }

    #[test]
    fn a_dropped_connection_discards_the_partial_frame_on_reader_replacement() {
        let frames = sample_frames();
        let bytes = encode_stream(&frames);
        // Deliver only part of the stream, as if the peer died mid-frame.
        let mut reader = FrameReader::new();
        reader.feed(&bytes[..bytes.len() - 3]);
        let mut delivered = 0;
        while reader.try_next().expect("prefix decodes").is_some() {
            delivered += 1;
        }
        assert!(delivered < frames.len());
        assert!(reader.buffered() > 0, "a partial frame is pending");
        // Reconnect: the peer starts a fresh stream from the watermark.
        let reader = FrameReader::new();
        assert_eq!(reader.buffered(), 0);
    }

    /// The body of a `Stamps` frame numbered from 0 around hand-written
    /// `stamps` bytes, behind a stream header.
    fn stamps_wire(count: u64, stamps: &[u8]) -> Vec<u8> {
        let mut body = vec![TAG_STAMPS, 0];
        put_varint(&mut body, count);
        body.extend_from_slice(stamps);
        let mut wire = Vec::new();
        write_stream_header(&mut wire);
        put_varint(&mut wire, body.len() as u64);
        wire.extend_from_slice(&body);
        wire
    }

    fn decode_one(wire: &[u8]) -> Result<Option<Frame>, FrameError> {
        let mut reader = FrameReader::new();
        reader.feed(wire);
        reader.try_next()
    }

    #[test]
    fn a_stamp_is_a_back_reference_and_the_chunks_that_changed() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Stamps {
                first: 3,
                stamps: vec![
                    VectorTimestamp::from_components(vec![1, 0, 2]),
                    VectorTimestamp::from_components(vec![1, 1, 300]),
                ],
            },
        );
        #[rustfmt::skip]
        let expect = [
            32, TAG_STAMPS, 3, 2,
            // From zero, 3 wider: chunk 0, components 0 and 2 up by 1 and 2.
            0, 3,  1, 0b101, 0, 0, 0, 0, 0, 0, 0, 2, 4,  0,
            // From the stamp before, as wide: components 1 and 2 up by 1 and
            // 298 (zig-zag 596 = 0x54 + 4 * 128).
            1, 0,  1, 0b110, 0, 0, 0, 0, 0, 0, 0, 2, 0xd4, 4,  0,
        ];
        assert_eq!(wire, expect);
    }

    #[test]
    fn a_lane_is_based_on_its_own_latest_stamp_in_the_frame() {
        let a0 = sparse(4096, &[(2100, 5)]);
        let b0 = sparse(4096, &[(70, 1)]);
        let a1 = sparse(4096, &[(2100, 5), (2101, 1)]);
        let b1 = sparse(4096, &[(70, 2)]);
        let lanes = [(0u32, &a0), (1, &b0), (0, &a1), (1, &b1)];
        let mut wire = Vec::new();
        write_stream_header(&mut wire);
        let taken = write_stamps_frame(&mut wire, 10, lanes.iter().copied(), 3);
        assert_eq!(taken, 3, "the count limit closes the frame");
        // `a1` refers two stamps back and costs the one entry that changed:
        // component 2101 is bit 53 of chunk 32.
        assert!(wire.ends_with(&[2, 0, 33, 0, 0, 0, 0, 0, 0, 1 << 5, 0, 2, 0]));
        let taken = write_stamps_frame(&mut wire, 13, lanes[3..].iter().copied(), 3);
        assert_eq!(taken, 1);

        let mut reader = FrameReader::new();
        reader.feed(&wire);
        for (first, expect) in [(10, &lanes[..3]), (13, &lanes[3..])] {
            match reader.try_next() {
                Ok(Some(Frame::Stamps { first: got, stamps })) => {
                    assert_eq!(got, first);
                    assert_eq!(stamps.len(), expect.len());
                    for (stamp, (_, sent)) in stamps.iter().zip(expect) {
                        assert_eq!(&stamp, sent);
                        // One chunk and one mask word, never 4096 components.
                        assert_eq!(stamp.stored_words(), 65);
                    }
                }
                other => panic!("expected Stamps, got {other:?}"),
            }
        }
    }

    #[test]
    fn wide_stamps_of_nine_byte_varints_split_at_the_byte_budget() {
        // Every component swings by 2^62 from stamp to stamp: nine bytes
        // each, 18 KiB a stamp, and 1000 of them do not fit 16 MiB.
        let width = 2048;
        let stamps: Vec<VectorTimestamp> = (0..1000u64)
            .map(|i| VectorTimestamp::from_components(vec![(i % 2) << 62; width]))
            .collect();
        let mut wire = Vec::new();
        write_stream_header(&mut wire);
        let mut sent = 0;
        let mut frames = 0;
        while sent < stamps.len() {
            let before = wire.len();
            let pending = stamps[sent..].iter().map(|s| (0, s));
            let taken = write_stamps_frame(&mut wire, sent as u64, pending, 4096);
            assert!(taken > 0 && taken < stamps.len(), "one frame took {taken}");
            assert!((wire.len() - before) as u64 <= MAX_FRAME_LEN);
            sent += taken;
            frames += 1;
        }
        assert_eq!(frames, 2);
        let mut reader = FrameReader::new();
        reader.feed(&wire);
        let mut got = Vec::new();
        while let Some(frame) = reader.try_next().expect("within the limit") {
            match frame {
                Frame::Stamps { first, stamps } => {
                    assert_eq!(first, got.len() as u64);
                    got.extend(stamps);
                }
                other => panic!("expected Stamps, got {other:?}"),
            }
        }
        assert_eq!(got, stamps);
    }

    #[test]
    fn a_frame_closes_before_its_stamps_store_too_many_words() {
        let stamps: Vec<VectorTimestamp> = (1..=10u64)
            .map(|i| VectorTimestamp::from_components(vec![i; 100]))
            .collect();
        let limits = StampLimits {
            bytes: usize::MAX,
            words: 350,
        };
        let mut body = Vec::new();
        let lane = || stamps.iter().map(|s| (0, s));
        assert_eq!(encode_stamps(&mut body, lane(), 4096, &limits), 3);
        // The reader holds the same line, mid-stamp: a fourth stamp that
        // repeats the third costs three bytes on the wire and 100 words.
        body.extend_from_slice(&[1, 0, 0]);
        let mut framed = vec![TAG_STAMPS, 0, 4];
        framed.extend_from_slice(&body);
        assert_eq!(decode_body(&framed, 350), Err(FrameError::StampBudget));
        assert!(decode_body(&framed, 400).is_ok());
        // A single stamp beyond the limit still makes a frame (which the
        // reader then refuses): the writer's caller always makes progress.
        let tight = StampLimits {
            bytes: 16,
            words: 50,
        };
        assert_eq!(encode_stamps(&mut Vec::new(), lane(), 4096, &tight), 1);
        let bytes_only = StampLimits {
            bytes: 16,
            words: usize::MAX,
        };
        assert_eq!(encode_stamps(&mut Vec::new(), lane(), 4096, &bytes_only), 1);
    }

    #[test]
    fn malformed_stamps_are_typed_errors_not_panics_or_allocations() {
        // A base that is not in the frame.
        assert_eq!(
            decode_one(&stamps_wire(1, &[1, 0, 0])),
            Err(FrameError::BadBackReference(1))
        );
        assert_eq!(
            decode_one(&stamps_wire(2, &[0, 3, 0, 2, 0, 0])),
            Err(FrameError::BadBackReference(2))
        );
        // A chunk beyond a 3-wide stamp; a chunk index that overflows.
        let mask = [1, 0, 0, 0, 0, 0, 0, 0];
        let chunk = |skip: &[u8], mask: [u8; 8]| {
            let mut stamp = vec![0, 3];
            stamp.extend_from_slice(skip);
            stamp.extend_from_slice(&mask);
            stamp.extend_from_slice(&[2, 0]);
            stamps_wire(1, &stamp)
        };
        assert!(matches!(decode_one(&chunk(&[1], mask)), Ok(Some(_))));
        assert_eq!(
            decode_one(&chunk(&[2], mask)),
            Err(FrameError::ChunkOutOfRange)
        );
        let mut skip_max = Vec::new();
        put_varint(&mut skip_max, u64::MAX);
        assert_eq!(
            decode_one(&chunk(&skip_max, mask)),
            Err(FrameError::ChunkOutOfRange)
        );
        // A change to component 3 of a 3-wide stamp.
        assert_eq!(
            decode_one(&chunk(&[1], [0b1000, 0, 0, 0, 0, 0, 0, 0])),
            Err(FrameError::MaskBeyondWidth)
        );
        assert_eq!(
            decode_one(&chunk(&[1], [0, 0, 0, 0, 0, 0, 0, 0x80])),
            Err(FrameError::MaskBeyondWidth)
        );
        // A width whose mask alone is beyond the budget, and one beyond
        // `usize`: refused before anything is allocated for it.
        let mut wide = vec![0];
        put_varint(&mut wide, 1 << 40);
        wide.push(0);
        assert_eq!(
            decode_one(&stamps_wire(1, &wide)),
            Err(FrameError::StampBudget)
        );
        let mut wider = vec![0, 3, 0, 1];
        put_varint(&mut wider, u64::MAX);
        wider.push(0);
        assert_eq!(
            decode_one(&stamps_wire(2, &wider)),
            Err(FrameError::StampBudget)
        );
        // A mask or a count that the body does not back.
        assert_eq!(
            decode_one(&stamps_wire(1, &[0, 3, 1, 1, 0, 0])),
            Err(FrameError::Truncated)
        );
        assert_eq!(
            decode_one(&stamps_wire(u64::MAX, &[0, 3, 0])),
            Err(FrameError::Truncated)
        );
    }

    /// What [`lane_stamps`] builds a stamp from: its lane, an index into its
    /// widths, its form (plain or as stored), and edits of its lane's vector.
    type StampSpec = ((u32, usize, u8), Vec<(usize, u8, u64)>);

    /// A strategy for [`lane_stamps`]: up to `max` stamps on four lanes.
    fn stamp_specs(max: usize) -> impl proptest::strategy::Strategy<Value = Vec<StampSpec>> {
        proptest::collection::vec(
            (
                (0u32..4, 0usize..7, 0u8..2),
                proptest::collection::vec((0usize..4096, 0u8..4, 0u64..=u64::MAX), 0..6),
            ),
            1..max,
        )
    }

    /// Lane-tagged stamps from `specs`.  Each lane edits its own vector, so
    /// that successive stamps of a lane share most components, and resizes
    /// it to the width drawn, so that widths grow and shrink inside a frame;
    /// a wide vector as stored is packed.
    fn lane_stamps(specs: &[StampSpec]) -> Vec<(u32, VectorTimestamp)> {
        const WIDTHS: [usize; 7] = [0, 1, 64, 70, 150, 512, 4096];
        let mut lanes = vec![Vec::<u64>::new(); 4];
        specs
            .iter()
            .map(|((lane, width, form), edits)| {
                let width = WIDTHS[*width];
                let vector = &mut lanes[*lane as usize];
                vector.resize(width, 0);
                for &(at, kind, value) in edits {
                    if width > 0 {
                        vector[at % width] = match kind {
                            0 => 0,
                            1 => value % 8,
                            2 => u64::MAX - value % 4,
                            _ => value,
                        };
                    }
                }
                let stamp = match form {
                    0 => VectorTimestamp::from_components(vector.clone()),
                    _ => stored(vector),
                };
                (*lane, stamp)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Whatever the stamps, their forms, their widths and their lanes, a
        /// fresh reader fed one byte at a time decodes what was sent, in the
        /// form the storage rule gives it.
        #[test]
        fn prop_stamps_round_trip_by_value_and_by_form(
            stamps in stamp_specs(24),
            per_frame in 1usize..12,
        ) {
            let sent = lane_stamps(&stamps);

            let mut wire = Vec::new();
            write_stream_header(&mut wire);
            let mut at = 0;
            while at < sent.len() {
                let pending = sent[at..].iter().map(|(lane, stamp)| (*lane, stamp));
                at += write_stamps_frame(&mut wire, at as u64, pending, per_frame);
            }
            // The same stamps without their lanes, as one frame.
            write_frame(&mut wire, &Frame::Stamps {
                first: 0,
                stamps: sent.iter().map(|(_, stamp)| stamp.clone()).collect(),
            });

            let mut reader = FrameReader::new();
            let mut got: Vec<VectorTimestamp> = Vec::new();
            for &byte in &wire {
                reader.feed(&[byte]);
                while let Some(frame) = reader.try_next().expect("decode") {
                    match frame {
                        Frame::Stamps { first, stamps } => {
                            proptest::prop_assert_eq!(first as usize, got.len() % sent.len());
                            proptest::prop_assert!(stamps.len() <= per_frame.max(sent.len()));
                            got.extend(stamps);
                        }
                        other => panic!("expected Stamps, got {other:?}"),
                    }
                }
            }
            proptest::prop_assert_eq!(reader.buffered(), 0);
            proptest::prop_assert_eq!(got.len(), 2 * sent.len());
            for (i, stamp) in got.iter().enumerate() {
                let expect = &sent[i % sent.len()].1;
                proptest::prop_assert_eq!(stamp, expect);
                proptest::prop_assert_eq!(stamp.len(), expect.len());
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the oracle re-derives the storage rule's form from the dense vector"
                )]
                let dense = expect.as_slice();
                proptest::prop_assert_eq!(stamp.stored_words(), stored(dense).stored_words());
            }
        }

        /// However the server's windows split the lane-tagged stamps it
        /// writes — the column of each window borrowed, held-back stamps
        /// cloned, every base the open frame still refers to cloned at a
        /// window's end — the writer writes the bytes of one greedy pass of
        /// `write_stamps_frame`: under the protocol's limits, and under
        /// limits small enough to close frames on bytes and on words.
        #[test]
        fn prop_the_streaming_writer_ignores_how_its_input_is_split(
            stamps in stamp_specs(48),
            windows in proptest::collection::vec(1usize..12, 1..8),
            held in proptest::collection::vec(0u8..4, 1..8),
            per_frame in 1usize..12,
            limits in (0u8..3, 16usize..400, 64usize..5000),
        ) {
            let sent = lane_stamps(&stamps);
            let (limit, bytes, words) = limits;
            let limits = match limit {
                0 => FRAME_LIMITS,
                1 => StampLimits { bytes, words: usize::MAX },
                _ => StampLimits { bytes: usize::MAX, words },
            };
            let mut greedy = Vec::new();
            let mut at = 0;
            while at < sent.len() {
                let pending = sent[at..].iter().map(|(lane, stamp)| (*lane, stamp));
                at += StampsWriter::holding(at as u64, pending, per_frame, limits)
                    .close(&mut greedy);
            }

            let mut streamed = Vec::new();
            let mut writer = StampsWriter::within(0, per_frame, limits);
            let mut at = 0;
            for &window in windows.iter().cycle() {
                if at == sent.len() {
                    break;
                }
                let end = (at + window).min(sent.len());
                let column: Vec<VectorTimestamp> =
                    sent[at..end].iter().map(|(_, stamp)| stamp.clone()).collect();
                let mut open = writer;
                for (i, stamp) in column.iter().enumerate() {
                    // One stamp in four, held back by the reorder window,
                    // arrives as the clone the window's end made of it.
                    let mut stamp = match held[(at + i) % held.len()] {
                        0 => Cow::Owned(stamp.clone()),
                        _ => Cow::Borrowed(stamp),
                    };
                    let lane = sent[at + i].0;
                    while let Err(refused) = open.push(lane, stamp) {
                        open.close(&mut streamed);
                        stamp = refused;
                    }
                    if open.is_full() {
                        open.close(&mut streamed);
                    }
                }
                writer = open.keep();
                drop(column);
                at = end;
            }
            if !writer.is_empty() {
                writer.close(&mut streamed);
            }
            proptest::prop_assert_eq!(streamed, greedy);
        }
    }
}
