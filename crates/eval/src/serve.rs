//! The networked service legs of the harness: `mvc-eval serve`,
//! `mvc-eval produce`, and the loopback-TCP throughput slot.
//!
//! `serve` binds a TCP listener, runs the [`mvc_net`] session server over a
//! sequential engine + memory recorder until the expected number of client
//! sessions has completed, and then executes the **networked-equals-batch
//! oracle** right there in the process: the recorded interleaving is
//! replayed through a fresh sequential engine under the server's own final
//! component map and compared bit for bit.  The JSON summary carries the
//! verdict (`"batch_equal"`), which is what CI gates on.
//!
//! `produce` generates a seeded synthetic workload and streams it to a
//! running server as one producer client, reporting how many events were
//! acknowledged and how many stamps came back.
//!
//! `time_one_net` is the throughput harness's loopback slot: one server +
//! N producer clients over `127.0.0.1`, memory sink, stamp return switched
//! off — the cost under measurement is framing + transport + ingest +
//! stamping, not the echo path.

use std::any::Any;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvc_core::{replay, MemoryRecorder, TimestampingEngine};
use mvc_net::{serve_tcp, ClientConfig, NetServer, ProducerClient, ServerConfig, TcpTransport};
use mvc_trace::{Computation, WorkloadBuilder, WorkloadKind};

/// Summary of one `mvc-eval serve` run, rendered as JSON for CI.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// The address the listener was bound to.
    pub addr: String,
    /// Completed client sessions.
    pub sessions: usize,
    /// Total events ingested across all sessions.
    pub events: usize,
    /// Final clock width (one component per registered object).
    pub clock_width: usize,
    /// Every session ran to a clean `Goodbye`.
    pub completed: bool,
    /// The networked-equals-batch oracle: the recorded interleaving replayed
    /// sequentially produces the identical stamp stream.
    pub batch_equal: bool,
    /// Registry snapshot delta covering the serve run — the `metrics`
    /// section of the JSON summary (see docs/OBSERVABILITY.md).
    pub metrics: mvc_obs::Snapshot,
}

/// Runs the session server on `listener` until `expected_clients` sessions
/// complete, then replays the recorded trace sequentially and compares.
///
/// The run executes with the global [`mvc_obs`] registry enabled; the
/// summary carries the snapshot delta it produced.  With `metrics_out` the
/// registry snapshot is also written there in the Prometheus text exposition
/// format — every 500 ms while the server runs, and once more on shutdown.
///
/// # Errors
///
/// Returns a rendered message when the server loop or the replay fails
/// (a failed metrics write is reported on stderr, never fatal: the
/// metrics file is advisory, the session data is not).
pub fn serve_with_metrics(
    listener: TcpListener,
    expected_clients: usize,
    metrics_out: Option<&Path>,
) -> Result<ServeSummary, String> {
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read listener address: {e}"))?
        .to_string();
    let registry = mvc_obs::global();
    registry.set_enabled(true);
    let before = registry.snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = metrics_out.map(|path| {
        let path = path.to_owned();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            loop {
                // Sleep first so a short-lived server still gets exactly
                // one final write below rather than a half-warm scrape.
                for _ in 0..5 {
                    if stop.load(Ordering::Acquire) {
                        return path;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                let text = mvc_obs::global().snapshot().to_prometheus();
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("mvc-eval serve: cannot write {}: {e}", path.display());
                }
            }
        })
    });
    let server = NetServer::new(
        TimestampingEngine::new(),
        Box::new(MemoryRecorder::new()),
        ServerConfig::default(),
    );
    let run = serve_tcp(listener, server, expected_clients);
    stop.store(true, Ordering::Release);
    if let Some(handle) = writer {
        if let Ok(path) = handle.join() {
            let text = mvc_obs::global().snapshot().to_prometheus();
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("mvc-eval serve: cannot write {}: {e}", path.display());
            }
        }
    }
    let metrics = registry.snapshot().delta(&before);
    let run = run.map_err(|e| e.to_string())?;
    let recorder = run
        .sink
        .as_any()
        .downcast_ref::<MemoryRecorder>()
        .expect("serve uses a memory recorder");
    let computation = recorder.computation();
    let mut engine = TimestampingEngine::with_components(run.report.components.clone());
    let batch = replay(&mut engine, computation)
        .map_err(|e| format!("batch replay of the merged trace failed: {e}"))?
        .timestamps;
    Ok(ServeSummary {
        addr,
        sessions: run.sessions.len(),
        events: computation.len(),
        clock_width: run.report.components.len(),
        completed: run.sessions.iter().all(|s| s.completed),
        batch_equal: batch.as_slice() == recorder.timestamps(),
        metrics,
    })
}

/// Renders a [`ServeSummary`] as the stable JSON object `mvc-eval serve`
/// prints.
pub fn render_serve_json(summary: &ServeSummary) -> String {
    format!(
        "{{\n  \"addr\": \"{}\",\n  \"sessions\": {},\n  \"events\": {},\n  \
         \"clock_width\": {},\n  \"completed\": {},\n  \"batch_equal\": {},\n  \
         \"metrics\": {}\n}}",
        summary.addr,
        summary.sessions,
        summary.events,
        summary.clock_width,
        summary.completed,
        summary.batch_equal,
        summary.metrics.to_json()
    )
}

/// Configuration for one `mvc-eval produce` client.
#[derive(Debug, Clone)]
pub struct ProduceConfig {
    /// Threads in the generated workload (all owned by this client).
    pub threads: usize,
    /// Objects in the generated workload.
    pub objects: usize,
    /// Operations to generate and stream.
    pub events: usize,
    /// The workload family.
    pub workload: WorkloadKind,
    /// Workload seed — give each concurrent producer its own.
    pub seed: u64,
    /// Whether to request the stamped results back.
    pub want_stamps: bool,
}

impl Default for ProduceConfig {
    fn default() -> Self {
        ProduceConfig {
            threads: 4,
            objects: 8,
            events: 10_000,
            workload: WorkloadKind::Uniform,
            seed: 42,
            want_stamps: true,
        }
    }
}

/// Summary of one `mvc-eval produce` run, rendered as JSON for CI.
#[derive(Debug, Clone)]
pub struct ProduceSummary {
    /// The session token the server assigned.
    pub token: u64,
    /// Events streamed and acknowledged.
    pub events: usize,
    /// Stamps received back (0 when stamps were not requested).
    pub stamps: usize,
    /// Reconnects performed (always 0 for this one-shot client).
    pub reconnects: usize,
    /// `Events`-frame send → completing-stamp arrival round trips measured
    /// (0 when stamps were not requested).
    pub rtt_count: u64,
    /// Median stamp round-trip latency, nanoseconds (bucketed: the value
    /// is the upper power-of-two edge of the quantile's bucket).
    pub rtt_p50_ns: u64,
    /// 95th-percentile stamp round-trip latency, nanoseconds.
    pub rtt_p95_ns: u64,
    /// 99th-percentile stamp round-trip latency, nanoseconds.
    pub rtt_p99_ns: u64,
}

/// Streams one seeded synthetic workload to the server at `addr` and blocks
/// until the session completes.
///
/// # Errors
///
/// Returns a rendered message when the connection or the session fails.
pub fn produce(addr: &str, config: &ProduceConfig) -> Result<ProduceSummary, String> {
    let computation = WorkloadBuilder::new(config.threads, config.objects)
        .operations(config.events)
        .kind(config.workload)
        .seed(config.seed)
        .build();
    let transport = TcpTransport::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    let threads = (0..config.threads).map(|t| format!("t{t}")).collect();
    let objects = (0..config.objects).map(|o| format!("o{o}")).collect();
    let mut client = ProducerClient::connect(
        transport,
        ClientConfig::new(threads, objects, config.want_stamps),
    )
    .map_err(|e| e.to_string())?;
    for e in computation.events() {
        client.record(e.thread.index(), e.object.index(), e.kind);
    }
    client.request_finish();
    let run = client.finish().map_err(|e| e.to_string())?;
    Ok(ProduceSummary {
        token: run.token,
        events: run.events as usize,
        stamps: run.stamps.len(),
        reconnects: run.reconnects as usize,
        rtt_count: run.stamp_rtt.count,
        rtt_p50_ns: run.stamp_rtt.quantile(0.50),
        rtt_p95_ns: run.stamp_rtt.quantile(0.95),
        rtt_p99_ns: run.stamp_rtt.quantile(0.99),
    })
}

/// Renders a [`ProduceSummary`] as the stable JSON object `mvc-eval produce`
/// prints.
pub fn render_produce_json(summary: &ProduceSummary) -> String {
    format!(
        "{{\n  \"token\": {},\n  \"events\": {},\n  \"stamps\": {},\n  \"reconnects\": {},\n  \
         \"rtt_count\": {},\n  \"rtt_p50_ns\": {},\n  \"rtt_p95_ns\": {},\n  \
         \"rtt_p99_ns\": {}\n}}",
        summary.token,
        summary.events,
        summary.stamps,
        summary.reconnects,
        summary.rtt_count,
        summary.rtt_p50_ns,
        summary.rtt_p95_ns,
        summary.rtt_p99_ns
    )
}

/// Times one pass of `computation` through the networked service over
/// loopback TCP: `clients` producer clients (the workload's threads
/// partitioned round-robin across them, every client registering every
/// object) against one thread-per-connection server with a sequential
/// engine and a memory sink.
///
/// Events are recorded into the clients' local logs untimed — mirroring
/// [`time_one_ingest`](crate::throughput)'s untimed staging — then the
/// clock covers connect-to-goodbye streaming: framing, transport, ingest,
/// stamping and sink delivery.
pub(crate) fn time_one_net(
    computation: &Computation,
    threads: usize,
    objects: usize,
    clients: usize,
) -> (u128, Box<dyn Any>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener address");

    // Partition the workload's threads round-robin; `local[t]` maps a
    // global thread to its owner client and local index there.
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); clients];
    for t in 0..threads {
        owned[t % clients].push(t);
    }
    let mut local = vec![(0usize, 0usize); threads];
    for (c, ts) in owned.iter().enumerate() {
        for (i, &t) in ts.iter().enumerate() {
            local[t] = (c, i);
        }
    }

    // Connecting before the accept loop runs is fine: the listener is
    // bound, so the kernel queues the handshakes.
    let object_names: Vec<String> = (0..objects).map(|o| format!("o{o}")).collect();
    let mut producers = Vec::new();
    for ts in &owned {
        let names: Vec<String> = ts.iter().map(|t| format!("t{t}")).collect();
        let transport = TcpTransport::connect(addr).expect("connect loopback client");
        let client = ProducerClient::connect(
            transport,
            ClientConfig::new(names, object_names.clone(), false),
        )
        .expect("client handshake");
        producers.push(client);
    }
    for e in computation.events() {
        let (c, lt) = local[e.thread.index()];
        producers[c].record(lt, e.object.index(), e.kind);
    }
    for p in &mut producers {
        p.request_finish();
    }

    let server = NetServer::new(
        TimestampingEngine::new(),
        Box::new(MemoryRecorder::new()),
        ServerConfig::default(),
    );
    let start = Instant::now();
    let mut server_run = None;
    std::thread::scope(|scope| {
        let srv = scope.spawn(|| serve_tcp(listener, server, clients));
        let drivers: Vec<_> = producers
            .into_iter()
            .map(|p| scope.spawn(move || p.finish().expect("producer session")))
            .collect();
        for d in drivers {
            d.join().expect("producer thread");
        }
        server_run = Some(srv.join().expect("server thread").expect("server run"));
    });
    let elapsed = start.elapsed().as_nanos();
    let run = server_run.expect("server run present");
    assert_eq!(run.report.events, computation.len());
    (elapsed, Box::new(run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn serve_and_produce_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = thread::spawn(move || serve_with_metrics(listener, 2, None));
        let producers: Vec<_> = (0..2)
            .map(|i| {
                let addr = addr.clone();
                thread::spawn(move || {
                    produce(
                        &addr,
                        &ProduceConfig {
                            threads: 2,
                            objects: 4,
                            events: 500,
                            seed: 7 + i,
                            ..ProduceConfig::default()
                        },
                    )
                })
            })
            .collect();
        let mut streamed = 0;
        for p in producers {
            let summary = p.join().unwrap().unwrap();
            assert_eq!(summary.events, 500);
            assert_eq!(summary.stamps, 500);
            assert_eq!(summary.reconnects, 0);
            assert!(summary.rtt_count > 0, "stamped session measures RTT");
            assert!(summary.rtt_p50_ns > 0);
            assert!(summary.rtt_p99_ns >= summary.rtt_p50_ns);
            streamed += summary.events;
        }
        let summary = server.join().unwrap().unwrap();
        assert_eq!(summary.sessions, 2);
        assert_eq!(summary.events, streamed);
        assert!(summary.completed);
        assert!(summary.batch_equal, "networked-equals-batch oracle");
        let opened = summary.metrics.counter("net.server.sessions_opened");
        assert!(opened >= Some(2), "serve run captures server metrics");
        let json = render_serve_json(&summary);
        assert!(json.contains("\"batch_equal\": true"));
        assert!(json.contains("\"sessions\": 2"));
        assert!(json.contains("\"metrics\": {"));
        assert!(json.contains("\"net.server.events_ingested\":"));
    }

    #[test]
    fn produce_fails_cleanly_when_nothing_listens() {
        let err = produce("127.0.0.1:1", &ProduceConfig::default()).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn net_slot_measures_a_multi_client_loopback_run() {
        let computation = WorkloadBuilder::new(8, 8)
            .operations(2_000)
            .kind(WorkloadKind::Uniform)
            .seed(5)
            .build();
        let (elapsed, run) = time_one_net(&computation, 8, 8, 2);
        assert!(elapsed > 0);
        let run = run.downcast::<mvc_net::ServerRun>().unwrap();
        assert_eq!(run.report.events, 2_000);
        assert_eq!(run.sessions.len(), 2);
        assert!(run.sessions.iter().all(|s| s.completed));
    }

    #[test]
    fn produce_json_is_stable() {
        let json = render_produce_json(&ProduceSummary {
            token: 3,
            events: 10,
            stamps: 10,
            reconnects: 0,
            rtt_count: 2,
            rtt_p50_ns: 1023,
            rtt_p95_ns: 2047,
            rtt_p99_ns: 2047,
        });
        assert_eq!(
            json,
            "{\n  \"token\": 3,\n  \"events\": 10,\n  \"stamps\": 10,\n  \"reconnects\": 0,\n  \
             \"rtt_count\": 2,\n  \"rtt_p50_ns\": 1023,\n  \"rtt_p95_ns\": 2047,\n  \
             \"rtt_p99_ns\": 2047\n}"
        );
    }

    #[test]
    fn serve_with_metrics_writes_a_prometheus_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "mvc-eval-metrics-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let metrics_path = path.clone();
        let server = thread::spawn(move || serve_with_metrics(listener, 1, Some(&metrics_path)));
        let summary = produce(
            &addr,
            &ProduceConfig {
                events: 200,
                ..ProduceConfig::default()
            },
        )
        .unwrap();
        assert_eq!(summary.events, 200);
        server.join().unwrap().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("# TYPE net_server_events_ingested counter"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
