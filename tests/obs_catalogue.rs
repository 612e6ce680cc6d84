//! Tier-1 gate: the metric catalogue in `docs/OBSERVABILITY.md` checks
//! itself against the code.
//!
//! The catalogue says "a metric not listed here is a bug"; this makes the
//! sentence executable, in both directions:
//!
//! 1. after an instrumented live run (every analysis sink, a bound stats
//!    sink) and one in-process networked session, every name the
//!    process-global registry holds is a catalogue row of the same type — a
//!    metric cannot ship uncatalogued;
//! 2. every catalogued name is a string literal in the source its section
//!    heading names — a row cannot outlive its metric, nor drift to a
//!    section that points at the wrong file.
//!
//! The tables are parsed as written: a `### Title (`path`, …)` heading
//! opens a section (a bare file name is a sibling of the path before it, a
//! directory stands for every `.rs` file below it), and a row's first cell
//! carries its name(s) in backticks (`.suffix` shorthands share the first
//! name's prefix), its second cell the type.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use mvc_clock::ComponentMap;
use mvc_core::{EventSink, MemoryRecorder, StatsSink, TeeSink, TimestampingEngine};
use mvc_net::{
    ClientConfig, InProcTransport, NetServer, ProducerClient, Recv, ServerConfig, Transport,
};
use mvc_obs::SnapshotValue;
use mvc_runtime::{CompetitiveSink, ConflictSink, ReachabilityIndexSink, TraceSession};
use mvc_trace::{ObjectId, OpKind};

/// One catalogued metric: its type cell and the section it is listed in.
#[derive(Debug)]
struct Row {
    kind: String,
    section: String,
}

/// The parsed catalogue: rows by metric name, source paths by section.
#[derive(Debug, Default)]
struct Catalogue {
    rows: BTreeMap<String, Row>,
    sources: BTreeMap<String, Vec<PathBuf>>,
}

/// The backticked spans of `text`, in order.
fn backticked(text: &str) -> Vec<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

fn parse_catalogue(root: &Path) -> Catalogue {
    let text = fs::read_to_string(root.join("docs/OBSERVABILITY.md")).expect("catalogue readable");
    let tables = text
        .split_once("\n## Catalogue\n")
        .and_then(|(_, rest)| rest.split_once("\n## "))
        .map(|(tables, _)| tables)
        .expect("a `## Catalogue` section followed by another");
    let mut catalogue = Catalogue::default();
    let mut section = String::new();
    for line in tables.lines() {
        if let Some(heading) = line.strip_prefix("### ") {
            section = heading.to_owned();
            let mut paths: Vec<PathBuf> = Vec::new();
            for span in backticked(heading) {
                let path = match paths.last() {
                    Some(previous) if !span.contains('/') => previous.with_file_name(span),
                    _ => root.join(span),
                };
                paths.push(path);
            }
            assert!(!paths.is_empty(), "section `{heading}` names no source");
            catalogue.sources.insert(section.clone(), paths);
        } else if line.starts_with("| `") {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let names = backticked(cells[1]);
            let stem = names[0].rsplit_once('.').map_or("", |(stem, _)| stem);
            for name in names {
                let name = match name.strip_prefix('.') {
                    Some(suffix) => format!("{stem}.{suffix}"),
                    None => name.to_owned(),
                };
                let row = Row {
                    kind: cells[2].to_owned(),
                    section: section.clone(),
                };
                assert!(
                    catalogue.rows.insert(name.clone(), row).is_none(),
                    "`{name}` is catalogued twice"
                );
            }
        }
    }
    catalogue
}

/// Appends the text of `path`, or of every `.rs` file below it.
fn read_sources(path: &Path, into: &mut String) {
    if path.is_dir() {
        for entry in fs::read_dir(path).expect("source directory readable") {
            read_sources(&entry.expect("directory entry").path(), into);
        }
    } else if path.extension().is_some_and(|ext| ext == "rs") {
        into.push_str(&fs::read_to_string(path).expect("source file readable"));
    }
}

#[test]
fn every_catalogued_name_is_a_literal_in_the_source_its_section_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let catalogue = parse_catalogue(root);
    assert!(catalogue.rows.len() >= 36, "the tables parsed short");
    let mut sources = BTreeMap::new();
    for (section, paths) in &catalogue.sources {
        let mut text = String::new();
        for path in paths {
            assert!(path.exists(), "`{section}` names a missing path");
            read_sources(path, &mut text);
        }
        sources.insert(section, text);
    }
    for (name, row) in &catalogue.rows {
        assert!(
            sources[&row.section].contains(&format!("\"{name}\"")),
            "`{name}` is catalogued under `{}` but is no string literal there",
            row.section
        );
    }
}

/// A live session over four threads and two objects into `sink`, pumped
/// between rounds so the drain-side metrics all have something to record.
fn live_run<T: mvc_core::Timestamper, S: EventSink>(timestamper: T, sink: S) {
    let session = TraceSession::new();
    let workers: Vec<_> = (0..4)
        .map(|t| session.register_thread(&format!("t{t}")))
        .collect();
    let objects: Vec<_> = (0..2)
        .map(|o| session.shared_object(&format!("o{o}"), 0u64))
        .collect();
    let mut live = session.live_with_sink(timestamper, sink);
    for round in 0..8 {
        for (t, worker) in workers.iter().enumerate() {
            objects[(t + round) % 2].write(worker, |v| *v += 1);
        }
        live.pump().expect("every thread is a component");
    }
    live.finish_into_sink()
        .map_err(|(_, e)| e)
        .expect("pipeline drains clean");
}

/// One stamps-back client against an in-process server, to quiescence.
fn net_session() {
    let mut server = NetServer::new(
        TimestampingEngine::new(),
        Box::new(MemoryRecorder::new()),
        ServerConfig::default(),
    );
    let (near, mut far) = InProcTransport::pair();
    let conn = server.connect();
    let config = ClientConfig::new(vec!["t".into()], vec!["x".into()], true);
    let mut client = ProducerClient::connect(near, config).expect("connect");
    for _ in 0..20 {
        client.record(0, 0, OpKind::Write);
    }
    client.request_finish();
    for _ in 0..10_000 {
        if client.is_finished() {
            break;
        }
        client.step(Some(Duration::ZERO)).expect("client step");
        let mut buf = [0u8; 4096];
        while let Ok(Recv::Bytes(n)) = far.recv(&mut buf, Some(Duration::ZERO)) {
            server.feed(conn, &buf[..n]).expect("feed");
        }
        server.pump().expect("pump");
        far.send(&server.take_outgoing(conn)).expect("send");
    }
    assert_eq!(client.into_run().expect("run").stamps.len(), 20);
}

#[test]
fn every_registered_metric_is_catalogued_with_its_type() {
    let catalogue = parse_catalogue(Path::new(env!("CARGO_MANIFEST_DIR")));
    let registry = mvc_obs::global();
    registry.set_enabled(true);
    let stats = StatsSink::new();
    stats.bind_metrics(registry);
    let analyses = TeeSink::new(vec![
        Box::new(stats),
        Box::new(ConflictSink::with_groups([vec![ObjectId(0), ObjectId(1)]])),
        Box::new(ReachabilityIndexSink::with_capacity(8)),
        Box::new(CompetitiveSink::new()),
    ]);
    let map = ComponentMap::all_threads(4);
    live_run(TimestampingEngine::with_components(map), analyses);
    net_session();
    let snapshot = registry.snapshot();
    registry.set_enabled(false);

    let mut sections_seen = Vec::new();
    for entry in &snapshot.entries {
        let kind = match entry.value {
            SnapshotValue::Counter(_) => "counter",
            SnapshotValue::Gauge(_) => "gauge",
            SnapshotValue::Histogram(_) => "histogram",
        };
        let row = catalogue.rows.get(&entry.name).unwrap_or_else(|| {
            panic!(
                "`{}` ({kind}) is registered but docs/OBSERVABILITY.md has no row for it",
                entry.name
            )
        });
        assert_eq!(
            row.kind, kind,
            "`{}` is catalogued as another type",
            entry.name
        );
        sections_seen.push(&row.section);
    }
    // The run was broad enough to mean something: it registered metrics of
    // every section of the catalogue.
    for section in catalogue.sources.keys() {
        assert!(
            sections_seen.contains(&section),
            "the instrumented run registered nothing of `{section}`"
        );
    }
}
