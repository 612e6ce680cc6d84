//! Compact binary encoding of computations.
//!
//! Traces recorded by the runtime crate (or generated synthetically) can be
//! persisted and replayed through the offline optimizer.  The format is a
//! simple length-prefixed sequence of `(thread, object, kind)` triples using
//! variable-length integers, built on the [`bytes`] crate.
//!
//! The format is versioned: a 3-byte magic (`MVC`) followed by an explicit
//! protocol-version byte (`1`).  Accidental decoding of unrelated data fails
//! loudly with [`DecodeError::BadMagic`], and a stream written by a future
//! format fails with [`DecodeError::VersionMismatch`] instead of misparsing.
//! The version byte has carried `1` since the first release (the historical
//! 4-byte magic was the same `MVC\x01`), so every existing trace still
//! decodes.
//!
//! There is one encoder and one decoder.  [`StreamEncoder`] appends events
//! one at a time, so the event-sink pipeline can persist a trace without
//! ever materialising a [`Computation`]; [`encode`] drives it over a whole
//! computation.  [`decode`] reads a complete encoding back, and every
//! integer of it through [`peek_varint`].

use bytes::{BufMut, Bytes, BytesMut};

use crate::computation::Computation;
use crate::event::OpKind;
use crate::ids::{ObjectId, ThreadId};

/// The protocol version this build reads and writes, carried as the fourth
/// header byte.  Streams written by every release so far carry version 1
/// (the historical magic was the same four bytes `MVC\x01`), so old traces
/// keep decoding unchanged; a stream from a future format fails with
/// [`DecodeError::VersionMismatch`] instead of misparsing.
const FORMAT_VERSION: u8 = 1;

/// The largest thread or object id [`decode`] accepts.  A [`Computation`]
/// keeps one chain per id up to the largest it has seen, so an id read from
/// the input is a length to allocate for: this bounds it (to ≈ 25 MB of
/// empty chains per side) before it gets there.  The widest workload in the
/// tree stays below 2¹⁷.
const MAX_ID: u64 = (1 << 20) - 1;

/// The 4-byte header: the three magic bytes identifying a serialized
/// computation, then [`FORMAT_VERSION`].
const MAGIC: &[u8; 4] = b"MVC\x01";

/// Errors produced when decoding a serialized computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The magic matched but the version byte is one this build does not
    /// speak.  Carries the version found on the wire.
    VersionMismatch(u8),
    /// The buffer ended in the middle of a record.
    UnexpectedEof,
    /// An operation-kind tag was not recognised.
    BadOpKind(u8),
    /// A varint was longer than the maximum allowed length.
    VarintOverflow,
    /// A thread or object id was larger than any computation this build
    /// holds (2²⁰ − 1).
    IdOutOfRange,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "buffer is not a serialized computation"),
            DecodeError::VersionMismatch(found) => write!(
                f,
                "stream is format version {found}, this build speaks version {FORMAT_VERSION}"
            ),
            DecodeError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            DecodeError::BadOpKind(k) => write!(f, "unknown operation kind tag {k}"),
            DecodeError::VarintOverflow => write!(f, "variable-length integer overflows u64"),
            DecodeError::IdOutOfRange => {
                write!(
                    f,
                    "thread or object id above the largest accepted, {MAX_ID}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

fn op_kind_tag(kind: OpKind) -> u8 {
    match kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
        OpKind::Acquire => 2,
        OpKind::Release => 3,
        OpKind::Op => 4,
    }
}

fn op_kind_from_tag(tag: u8) -> Result<OpKind, DecodeError> {
    Ok(match tag {
        0 => OpKind::Read,
        1 => OpKind::Write,
        2 => OpKind::Acquire,
        3 => OpKind::Release,
        4 => OpKind::Op,
        other => return Err(DecodeError::BadOpKind(other)),
    })
}

/// Appends `value` as a 7-bit little-endian varint (the wire integer format
/// every layer of the codec — and the `mvc-net` framing built on top of it —
/// shares).
pub fn put_varint(buf: &mut BytesMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Attempts to read one varint from the front of `buf` without consuming on
/// failure.  `Ok(None)` means more bytes are needed.
///
/// Public for the layers that frame this codec (notably `mvc-net`), so every
/// wire varint in the workspace has exactly one decoder.
pub fn peek_varint(buf: &[u8]) -> Result<Option<(u64, usize)>, DecodeError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if shift >= 64 {
            return Err(DecodeError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(Some((value, i + 1)));
        }
        shift += 7;
    }
    // Ran out of buffered bytes mid-varint.  A u64 varint is at most 10
    // bytes (the 10th must terminate), so 10 buffered continuation bytes
    // are already overlong — report it now rather than waiting for the
    // terminating byte that can never make the value fit.
    if buf.len() >= 10 {
        return Err(DecodeError::VarintOverflow);
    }
    Ok(None)
}

/// Serializes a computation into a compact binary buffer.
pub fn encode(computation: &Computation) -> Bytes {
    let mut encoder = StreamEncoder::new();
    for e in computation.events() {
        encoder.push(e.thread, e.object, e.kind);
    }
    encoder.finish()
}

/// Takes one varint off the front of `input`; the input ending inside it is
/// a truncated buffer.
fn take_varint(input: &mut &[u8]) -> Result<u64, DecodeError> {
    let (value, used) = peek_varint(input)?.ok_or(DecodeError::UnexpectedEof)?;
    *input = &input[used..];
    Ok(value)
}

/// Takes one thread or object id off the front of `input`, within
/// [`MAX_ID`].
fn take_id(input: &mut &[u8]) -> Result<usize, DecodeError> {
    match take_varint(input)? {
        id if id <= MAX_ID => Ok(id as usize),
        _ => Err(DecodeError::IdOutOfRange),
    }
}

/// Decodes a computation previously produced by [`encode`] or a
/// [`StreamEncoder`].
///
/// # Errors
///
/// Returns a [`DecodeError`] if the buffer is malformed or truncated, or
/// names a thread or object id above 2²⁰ − 1.
pub fn decode(bytes: &[u8]) -> Result<Computation, DecodeError> {
    let Some((header, mut input)) = bytes.split_first_chunk::<4>() else {
        return Err(DecodeError::BadMagic);
    };
    // Wrong magic and wrong version are distinguished so a future-format
    // stream fails loudly as such.
    if header[..3] != MAGIC[..3] {
        return Err(DecodeError::BadMagic);
    }
    if header[3] != FORMAT_VERSION {
        return Err(DecodeError::VersionMismatch(header[3]));
    }
    let count = take_varint(&mut input)?;
    let mut computation = Computation::new();
    for _ in 0..count {
        let thread = take_id(&mut input)?;
        let object = take_id(&mut input)?;
        let (&tag, rest) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
        input = rest;
        computation.record_op(ThreadId(thread), ObjectId(object), op_kind_from_tag(tag)?);
    }
    Ok(computation)
}

/// Incremental encoder: accepts events one at a time; [`encode`] is this
/// encoder driven over a whole computation.
///
/// The record body is encoded as each event arrives; only the header (magic
/// plus the varint event count, whose byte length depends on the final
/// count) is prepended at [`finish`](StreamEncoder::finish).  Memory is the
/// encoded bytes themselves — no chains, no [`Computation`].
#[derive(Debug, Clone, Default)]
pub struct StreamEncoder {
    body: BytesMut,
    count: u64,
}

impl StreamEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event to the encoding.
    pub fn push(&mut self, thread: ThreadId, object: ObjectId, kind: OpKind) {
        put_varint(&mut self.body, thread.index() as u64);
        put_varint(&mut self.body, object.index() as u64);
        self.body.put_u8(op_kind_tag(kind));
        self.count += 1;
    }

    /// Number of events encoded so far.
    pub fn event_count(&self) -> u64 {
        self.count
    }

    /// Seals the encoding: magic, event count, then the accumulated body.
    pub fn finish(self) -> Bytes {
        let mut buf = BytesMut::with_capacity(MAGIC.len() + 10 + self.body.len());
        buf.put_slice(MAGIC);
        put_varint(&mut buf, self.count);
        buf.put_slice(&self.body);
        buf.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadBuilder, WorkloadKind};
    use proptest::prelude::*;

    #[test]
    fn round_trip_empty() {
        let c = Computation::new();
        assert_eq!(decode(&encode(&c)).unwrap(), c);
    }

    #[test]
    fn round_trip_small() {
        let mut c = Computation::new();
        c.record_op(ThreadId(0), ObjectId(3), OpKind::Write);
        c.record_op(ThreadId(200), ObjectId(1), OpKind::Acquire);
        c.record_op(ThreadId(0), ObjectId(3), OpKind::Read);
        assert_eq!(decode(&encode(&c)).unwrap(), c);
    }

    #[test]
    fn round_trip_generated_workload() {
        let c = WorkloadBuilder::new(16, 32)
            .operations(1000)
            .kind(WorkloadKind::Nonuniform {
                hot_fraction: 0.25,
                hot_boost: 4.0,
            })
            .seed(77)
            .build();
        assert_eq!(decode(&encode(&c)).unwrap(), c);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOPE"), Err(DecodeError::BadMagic));
        assert_eq!(decode(b""), Err(DecodeError::BadMagic));
    }

    #[test]
    fn version_mismatch_is_distinguished_from_bad_magic() {
        // Same magic, future version byte: must fail loudly as a version
        // problem, not misparse and not claim "not a serialized computation".
        let mut c = Computation::new();
        c.record(ThreadId(0), ObjectId(0));
        let mut raw = encode(&c).to_vec();
        assert_eq!(raw[3], FORMAT_VERSION, "version byte sits after the magic");
        raw[3] = 2;
        assert_eq!(decode(&raw), Err(DecodeError::VersionMismatch(2)));
        // A diverging *magic* byte is still BadMagic even in position 3.
        let mut bad = encode(&c).to_vec();
        bad[2] = b'X';
        assert_eq!(decode(&bad), Err(DecodeError::BadMagic));
    }

    #[test]
    fn current_version_streams_still_decode() {
        // The wire bytes are unchanged from the pre-versioned format: the
        // header is still exactly `MVC\x01`, so old traces decode as-is.
        let c = WorkloadBuilder::new(4, 4).operations(16).seed(5).build();
        let encoded = encode(&c);
        assert_eq!(&encoded[..4], b"MVC\x01");
        assert_eq!(decode(&encoded).unwrap(), c);
    }

    #[test]
    fn truncated_buffer_rejected() {
        let c = WorkloadBuilder::new(4, 4).operations(10).seed(1).build();
        let encoded = encode(&c);
        let truncated = &encoded[..encoded.len() - 2];
        assert_eq!(decode(truncated), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn bad_op_kind_rejected() {
        let mut c = Computation::new();
        c.record(ThreadId(0), ObjectId(0));
        let mut raw = encode(&c).to_vec();
        let last = raw.len() - 1;
        raw[last] = 99; // corrupt the op-kind tag
        assert_eq!(decode(&raw), Err(DecodeError::BadOpKind(99)));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(DecodeError::BadMagic
            .to_string()
            .contains("not a serialized"));
        assert!(DecodeError::BadOpKind(7).to_string().contains('7'));
        assert!(DecodeError::UnexpectedEof
            .to_string()
            .contains("end of buffer"));
        assert!(DecodeError::VarintOverflow
            .to_string()
            .contains("overflows"));
        let msg = DecodeError::VersionMismatch(3).to_string();
        assert!(
            msg.contains("version 3") && msg.contains("version 1"),
            "{msg}"
        );
        assert!(DecodeError::IdOutOfRange.to_string().contains("1048575"));
    }

    #[test]
    fn varint_round_trip_large_values() {
        let mut buf = BytesMut::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            put_varint(&mut buf, v);
        }
        let mut bytes = &buf[..];
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            assert_eq!(take_varint(&mut bytes).unwrap(), v);
        }
        assert_eq!(take_varint(&mut bytes), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn overlong_varint_rejected() {
        // An 11-byte all-continuation count can never fit a u64 ...
        let mut raw = MAGIC.to_vec();
        raw.extend([0x80u8; 11]);
        assert_eq!(decode(&raw), Err(DecodeError::VarintOverflow));
        // ... nor can a 10-byte one, whatever byte would follow: that is an
        // overlong integer, not a truncated buffer ...
        raw.truncate(MAGIC.len() + 10);
        assert_eq!(decode(&raw), Err(DecodeError::VarintOverflow));
        // ... while one byte short of that is.
        raw.truncate(MAGIC.len() + 9);
        assert_eq!(decode(&raw), Err(DecodeError::UnexpectedEof));
        // The same corruption inside a record id.
        let mut raw = MAGIC.to_vec();
        raw.push(1);
        raw.extend([0x80u8; 11]);
        assert_eq!(decode(&raw), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn id_beyond_the_bound_is_an_error_not_an_allocation() {
        // One event whose thread id is 2⁴⁹ − 1: recording it would size the
        // chain table for 2⁴⁹ threads.
        let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut thread = b"MVC\x01\x01".to_vec();
        thread.extend(huge);
        thread.extend([0, 0]);
        assert_eq!(decode(&thread), Err(DecodeError::IdOutOfRange));
        let mut object = b"MVC\x01\x01\x00".to_vec();
        object.extend(huge);
        object.push(0);
        assert_eq!(decode(&object), Err(DecodeError::IdOutOfRange));
        // The bound is inclusive.
        let one_event_on = |object: u64| {
            let mut encoder = StreamEncoder::new();
            encoder.push(ThreadId(0), ObjectId(object as usize), OpKind::Op);
            decode(&encoder.finish())
        };
        let at_bound = one_event_on(MAX_ID).unwrap();
        assert_eq!(at_bound.object_index_bound(), MAX_ID as usize + 1);
        assert_eq!(one_event_on(MAX_ID + 1), Err(DecodeError::IdOutOfRange));
    }

    proptest! {
        #[test]
        fn prop_round_trip(ops in proptest::collection::vec((0usize..64, 0usize..64, 0u8..5), 0..200)) {
            let mut c = Computation::new();
            for (t, o, k) in ops {
                c.record_op(ThreadId(t), ObjectId(o), op_kind_from_tag(k).unwrap());
            }
            prop_assert_eq!(decode(&encode(&c)).unwrap(), c);
        }
    }
}
