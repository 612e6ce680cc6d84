//! Tier-1 gate: `docs/PROTOCOL.md`'s frame table and version byte check
//! themselves against the codec (ROADMAP direction 7, the protocol half).
//!
//! The tag constants in `crates/net/src/frame.rs` are private, so the check
//! is behavioural, in both directions:
//!
//! 1. every `Frame` variant, written by `write_frame`, starts its body with
//!    the tag its row states — a row cannot name the wrong tag, and a variant
//!    cannot ship without a row (`row_name` below is an exhaustive `match`);
//! 2. every one-byte body is refused as an unknown tag exactly when the table
//!    has no row for it — a row cannot outlive its frame, nor a tag be
//!    accepted that the document does not list.
//!
//! The version is the one `version = 0x..` the stream-layout grammar states.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use mvc_clock::VectorTimestamp;
use mvc_net::frame::{write_frame, write_stream_header};
use mvc_net::{Frame, FrameError, FrameReader, NET_VERSION};
use mvc_trace::OpKind;

fn protocol_doc() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/PROTOCOL.md");
    fs::read_to_string(path).expect("docs/PROTOCOL.md readable")
}

/// The rows of the `## Frame types` table: frame name by tag.
fn documented_tags(doc: &str) -> BTreeMap<u8, String> {
    let table = doc
        .split_once("\n## Frame types\n")
        .map(|(_, rest)| rest.split("\n## ").next().unwrap_or(rest))
        .expect("a `## Frame types` section");
    let mut tags = BTreeMap::new();
    for line in table.lines().filter(|line| line.starts_with('|')) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let Ok(tag) = cells[1].parse::<u8>() else {
            continue; // the header and the rule under it
        };
        let name = cells[2].trim_matches('`').to_owned();
        assert!(
            tags.insert(tag, name).is_none(),
            "tag {tag} has two rows in docs/PROTOCOL.md"
        );
    }
    tags
}

/// The row a variant is documented under.  Exhaustive on purpose: a new
/// variant does not compile until it is given a row name here, and then fails
/// below until the table has that row.
fn row_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "Hello",
        Frame::HelloAck { .. } => "HelloAck",
        Frame::Events { .. } => "Events",
        Frame::Stamps { .. } => "Stamps",
        Frame::Credit { .. } => "Credit",
        Frame::StampsAck { .. } => "StampsAck",
        Frame::Goodbye { .. } => "Goodbye",
        Frame::Error { .. } => "Error",
    }
}

fn one_of_each() -> Vec<Frame> {
    vec![
        Frame::Hello {
            token: 0,
            want_stamps: true,
            stamps_received: 0,
            threads: vec!["t".into()],
            objects: vec!["o".into()],
        },
        Frame::HelloAck {
            token: 1,
            watermark: 0,
            credit: 8,
            thread_ids: vec![0],
            object_ids: vec![0],
        },
        Frame::Events {
            events: vec![(0, 0, OpKind::Write)],
        },
        Frame::Stamps {
            first: 0,
            stamps: vec![VectorTimestamp::from_components(vec![1])],
        },
        Frame::Credit { acked: 1, more: 1 },
        Frame::StampsAck { received: 1 },
        Frame::Goodbye { events: 1 },
        Frame::Error {
            code: 1,
            message: "m".into(),
        },
    ]
}

#[test]
fn every_frame_is_written_under_the_tag_its_row_states() {
    let tags = documented_tags(&protocol_doc());
    let frames = one_of_each();
    assert_eq!(
        tags.len(),
        frames.len(),
        "docs/PROTOCOL.md lists {tags:?}, the codec has {} frames",
        frames.len()
    );
    for frame in &frames {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame);
        // Every sample is short: one length byte, then the body.
        assert_eq!(wire[0] as usize, wire.len() - 1);
        let name = row_name(frame);
        assert_eq!(
            tags.get(&wire[1]).map(String::as_str),
            Some(name),
            "`{name}` is written under tag {}, docs/PROTOCOL.md says {tags:?}",
            wire[1]
        );
    }
}

#[test]
fn a_tag_is_known_to_the_reader_exactly_when_it_has_a_row() {
    let tags = documented_tags(&protocol_doc());
    for tag in 0..=u8::MAX {
        let mut wire = Vec::new();
        write_stream_header(&mut wire);
        wire.extend_from_slice(&[1, tag]);
        let mut reader = FrameReader::new();
        reader.feed(&wire);
        let unknown = reader.try_next() == Err(FrameError::UnknownTag(tag));
        assert_eq!(
            unknown,
            !tags.contains_key(&tag),
            "tag {tag}: the reader and docs/PROTOCOL.md disagree"
        );
    }
}

#[test]
fn the_documented_version_is_the_one_on_the_wire() {
    let doc = protocol_doc();
    let stated: Vec<u8> = doc
        .match_indices("version = 0x")
        .map(|(at, pattern)| {
            let digits = &doc[at + pattern.len()..at + pattern.len() + 2];
            u8::from_str_radix(digits, 16).expect("two hex digits")
        })
        .collect();
    assert_eq!(stated, [NET_VERSION], "docs/PROTOCOL.md's stream layout");
    let mut header = Vec::new();
    write_stream_header(&mut header);
    assert_eq!(header, [b'M', b'V', b'N', NET_VERSION]);
}
