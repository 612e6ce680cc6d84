//! Command-line entry point that regenerates the paper's figures.
//!
//! ```text
//! mvc-eval [fig4|fig5|fig6|fig7|adaptive|star|trajectory|all] [--trials N] [--csv DIR]
//! mvc-eval sweep [--mechanisms a,b,c] [--workload KIND] [--trials N] [--csv DIR]
//! mvc-eval trajectory [--mechanisms a,b,c] [--workload uniform|nonuniform] [--trials N] [--csv DIR]
//! mvc-eval throughput [--events N] [--threads N] [--objects N] [--shards 1,2,4,8]
//!                     [--workload KIND] [--sink mem|codec|stats|conflict|reach|competitive|tee]
//!                     [--net-clients N] [--csv DIR] [--out FILE]
//! mvc-eval serve [--addr HOST:PORT] [--clients N] [--out FILE] [--metrics-out FILE]
//! mvc-eval produce --addr HOST:PORT [--threads N] [--objects N] [--events N] [--seed N]
//! ```
//!
//! Each figure is printed as an aligned table; with `--csv DIR` the raw series
//! are additionally written as `DIR/<figure>.csv`.  The `sweep` command runs
//! arbitrary [`MechanismRegistry`] mechanisms — selected **by name**, never as
//! concrete types — over a synthetic workload family (`uniform`,
//! `nonuniform`, `producer-consumer`, `lock-striped`, `phased`, the
//! adversarial `star` and `matching` lower-bound streams, the
//! partition-churning `phase-shift`, or the community-local `clustered`).  The `trajectory` command reports the
//! per-reveal competitive trajectory (online size vs. the incrementally
//! maintained offline optimum of the revealed prefix).  The `throughput`
//! command times the sequential engine against the sharded engine at each
//! requested shard count — both as pure stamping and through the full
//! segmented-ingest pipeline with the `--sink`-selected egress backend —
//! and prints the result as **JSON** (written to `DIR/throughput.json` with
//! `--csv DIR`, or to an explicit path with `--out FILE`, e.g. the repo's
//! `BENCH_throughput.json` trajectory point), giving future changes a
//! mechanical bench trajectory to compare against; with `--net-clients N`
//! it also times the same workload streamed through the networked service
//! over loopback TCP.  The `serve` command runs the timestamping pipeline as
//! a multi-client TCP service until the expected number of producer sessions
//! completes and reports — as JSON — whether the merged networked result
//! equals a sequential batch replay (the oracle CI gates on); the `produce`
//! command is the matching workload-streaming client.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use mvc_eval::{
    adaptive_ablation, competitive_trajectory, fig4, fig5, fig6, fig7, measure_throughput, produce,
    registry_sweep, render_csv, render_produce_json, render_serve_json, render_table,
    render_throughput_json, serve_with_metrics, star_sweep, FigureData, ProduceConfig, SinkKind,
    SweepConfig, ThroughputConfig,
};
use mvc_graph::GraphScenario;
use mvc_online::MechanismRegistry;
use mvc_trace::WorkloadKind;

const DEFAULT_TRIALS: usize = 10;

#[derive(Debug, Clone)]
struct Options {
    figures: Vec<String>,
    trials: usize,
    csv_dir: Option<PathBuf>,
    mechanisms: Vec<String>,
    /// `--workload`, when given.  `sweep` defaults to the star stream,
    /// `trajectory` to the nonuniform graph scenario, `throughput` to
    /// uniform.
    workload: Option<WorkloadKind>,
    /// `--events`, used by `throughput`.
    events: Option<usize>,
    /// `--threads`, used by `throughput` (workload threads; default 64).
    threads: Option<usize>,
    /// `--objects`, used by `throughput` (workload objects; default 64).
    objects: Option<usize>,
    /// `--shards`, used by `throughput`.
    shards: Option<Vec<usize>>,
    /// `--sink`, used by `throughput` (default `mem`).
    sink: Option<SinkKind>,
    /// `--out`, used by `throughput`: write the JSON to this exact path.
    out: Option<PathBuf>,
    /// `--net-clients`, used by `throughput` (loopback producers; 0 skips).
    net_clients: Option<usize>,
    /// `--addr`, used by `serve` (bind address) and `produce` (server).
    addr: Option<String>,
    /// `--clients`, used by `serve`: sessions to expect before exiting.
    clients: Option<usize>,
    /// `--seed`, used by `produce` (workload seed).
    seed: Option<u64>,
    /// `--metrics-out`, used by `serve`: write the registry snapshot to
    /// this file (Prometheus text format) periodically and on shutdown.
    metrics_out: Option<PathBuf>,
}

fn parse_workload(name: &str) -> Result<WorkloadKind, String> {
    match name {
        "uniform" => Ok(WorkloadKind::Uniform),
        "nonuniform" => Ok(WorkloadKind::Nonuniform {
            hot_fraction: 0.2,
            hot_boost: 6.0,
        }),
        "producer-consumer" => Ok(WorkloadKind::ProducerConsumer { queues: 4 }),
        "lock-striped" => Ok(WorkloadKind::LockStriped {
            cross_stripe_prob: 0.1,
        }),
        "phased" => Ok(WorkloadKind::Phased { phases: 4 }),
        "star" => Ok(WorkloadKind::Star { hubs: 1 }),
        "matching" => Ok(WorkloadKind::Matching {
            rotation_period: 64,
        }),
        "phase-shift" => Ok(WorkloadKind::PhaseShift {
            period: 256,
            shift: 1,
        }),
        "clustered" => Ok(WorkloadKind::Clustered { clusters: 8 }),
        other => Err(format!(
            "unknown workload '{other}' (expected uniform|nonuniform|producer-consumer|\
             lock-striped|phased|star|matching|phase-shift|clustered)"
        )),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut figures = Vec::new();
    let mut trials = DEFAULT_TRIALS;
    let mut csv_dir = None;
    let mut mechanisms = Vec::new();
    let mut workload = None;
    let mut events = None;
    let mut threads = None;
    let mut objects = None;
    let mut shards = None;
    let mut sink = None;
    let mut out = None;
    let mut net_clients = None;
    let mut addr = None;
    let mut clients = None;
    let mut seed = None;
    let mut metrics_out = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trials" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--trials requires a value".to_string())?;
                trials = value
                    .parse()
                    .map_err(|_| format!("invalid trial count: {value}"))?;
                if trials == 0 {
                    return Err("trial count must be at least 1".into());
                }
            }
            "--csv" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--csv requires a directory".to_string())?;
                csv_dir = Some(PathBuf::from(value));
            }
            "--mechanisms" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--mechanisms requires a comma-separated list".to_string())?;
                let registry = MechanismRegistry::new();
                for name in value.split(',').filter(|n| !n.is_empty()) {
                    registry.from_name(name).map_err(|e| e.to_string())?;
                    mechanisms.push(name.to_string());
                }
                if mechanisms.is_empty() {
                    return Err("--mechanisms requires at least one name".into());
                }
            }
            "--workload" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--workload requires a family name".to_string())?;
                workload = Some(parse_workload(value)?);
            }
            "--events" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--events requires a value".to_string())?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid event count: {value}"))?;
                if parsed == 0 {
                    return Err("event count must be at least 1".into());
                }
                events = Some(parsed);
            }
            "--threads" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--threads requires a value".to_string())?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid thread count: {value}"))?;
                if parsed == 0 {
                    return Err("thread count must be at least 1".into());
                }
                threads = Some(parsed);
            }
            "--objects" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--objects requires a value".to_string())?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid object count: {value}"))?;
                if parsed == 0 {
                    return Err("object count must be at least 1".into());
                }
                objects = Some(parsed);
            }
            "--shards" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--shards requires a comma-separated list".to_string())?;
                let mut counts = Vec::new();
                for part in value.split(',').filter(|p| !p.is_empty()) {
                    let shard: usize = part
                        .parse()
                        .map_err(|_| format!("invalid shard count: {part}"))?;
                    if shard == 0 {
                        return Err("shard counts must be at least 1".into());
                    }
                    counts.push(shard);
                }
                if counts.is_empty() {
                    return Err("--shards requires at least one count".into());
                }
                shards = Some(counts);
            }
            "--sink" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--sink requires a backend name".to_string())?;
                sink = Some(SinkKind::parse(value)?);
            }
            "--out" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--out requires a file path".to_string())?;
                out = Some(PathBuf::from(value));
            }
            "--net-clients" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--net-clients requires a value".to_string())?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid client count: {value}"))?;
                net_clients = Some(parsed);
            }
            "--addr" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--addr requires HOST:PORT".to_string())?;
                addr = Some(value.clone());
            }
            "--clients" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--clients requires a value".to_string())?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid client count: {value}"))?;
                if parsed == 0 {
                    return Err("client count must be at least 1".into());
                }
                clients = Some(parsed);
            }
            "--seed" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--seed requires a value".to_string())?;
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid seed: {value}"))?;
                seed = Some(parsed);
            }
            "--metrics-out" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--metrics-out requires a file path".to_string())?;
                metrics_out = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: mvc-eval [fig4|fig5|fig6|fig7|adaptive|star|trajectory|all] \
                     [--trials N] [--csv DIR]\n       mvc-eval sweep|trajectory \
                     [--mechanisms a,b,c] [--workload KIND] [--trials N] [--csv DIR]\n       \
                     mvc-eval throughput [--events N] [--threads N] [--objects N] \
                     [--shards 1,2,4,8] [--workload KIND] \
                     [--sink mem|codec|stats|conflict|reach|competitive|tee] \
                     [--net-clients N] [--csv DIR] [--out FILE]\n       \
                     mvc-eval serve [--addr HOST:PORT] [--clients N] [--out FILE] \
                     [--metrics-out FILE]\n       \
                     mvc-eval produce --addr HOST:PORT [--threads N] [--objects N] \
                     [--events N] [--seed N] [--workload KIND]"
                        .into(),
                )
            }
            name => figures.push(name.to_string()),
        }
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }
    Ok(Options {
        figures,
        trials,
        csv_dir,
        mechanisms,
        workload,
        events,
        threads,
        objects,
        shards,
        sink,
        out,
        net_clients,
        addr,
        clients,
        seed,
        metrics_out,
    })
}

/// Default stamped events for `mvc-eval throughput`.
const DEFAULT_THROUGHPUT_EVENTS: usize = 200_000;

fn run_throughput(options: &Options) -> Result<String, String> {
    let mut config =
        ThroughputConfig::uniform_64x64(options.events.unwrap_or(DEFAULT_THROUGHPUT_EVENTS));
    if let Some(workload) = options.workload {
        config.workload = workload;
    }
    if let Some(threads) = options.threads {
        config.threads = threads;
    }
    if let Some(objects) = options.objects {
        config.objects = objects;
    }
    if let Some(shards) = &options.shards {
        config.shard_counts = shards.clone();
    }
    if let Some(sink) = options.sink {
        config.sink = sink;
    }
    if let Some(net_clients) = options.net_clients {
        config.net_clients = net_clients;
    }
    let report = measure_throughput(&config);
    Ok(render_throughput_json(&report))
}

/// `mvc-eval serve`: run the networked timestamping service until the
/// expected number of client sessions completes, then print the summary —
/// including the networked-equals-batch oracle verdict — as JSON.
fn run_serve(options: &Options) -> Result<String, String> {
    let addr = options.addr.as_deref().unwrap_or("127.0.0.1:0");
    let expected = options.clients.unwrap_or(1);
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    if let Ok(bound) = listener.local_addr() {
        // Stderr, so stdout stays pure JSON for scripts; lets callers
        // discover an ephemeral port when `--addr` ends in `:0`.
        eprintln!("mvc-eval serve: listening on {bound}, expecting {expected} client(s)");
    }
    serve_with_metrics(listener, expected, options.metrics_out.as_deref())
        .map(|summary| render_serve_json(&summary))
}

/// `mvc-eval produce`: stream one seeded synthetic workload to a running
/// server and print the session summary as JSON.
fn run_produce(options: &Options) -> Result<String, String> {
    let addr = options
        .addr
        .as_deref()
        .ok_or_else(|| "produce requires --addr HOST:PORT".to_string())?;
    let mut config = ProduceConfig::default();
    if let Some(workload) = options.workload {
        config.workload = workload;
    }
    if let Some(threads) = options.threads {
        config.threads = threads;
    }
    if let Some(objects) = options.objects {
        config.objects = objects;
    }
    if let Some(events) = options.events {
        config.events = events;
    }
    if let Some(seed) = options.seed {
        config.seed = seed;
    }
    produce(addr, &config).map(|summary| render_produce_json(&summary))
}

fn run_figure(name: &str, options: &Options) -> Result<Vec<FigureData>, String> {
    let trials = options.trials;
    match name {
        "fig4" => Ok(vec![fig4(trials)]),
        "fig5" => Ok(vec![fig5(trials)]),
        "fig6" => Ok(vec![fig6(trials)]),
        "fig7" => Ok(vec![fig7(trials)]),
        "adaptive" => Ok(vec![adaptive_ablation(trials)]),
        "star" => Ok(vec![star_sweep(trials)]),
        "trajectory" => {
            let names = if options.mechanisms.is_empty() {
                MechanismRegistry::names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            } else {
                options.mechanisms.clone()
            };
            // The trajectory sweeps random *graph* scenarios, so only the
            // workloads with a graph-scenario counterpart are accepted.
            let scenario = match options.workload {
                None => GraphScenario::default_nonuniform(),
                Some(WorkloadKind::Uniform) => GraphScenario::Uniform,
                Some(WorkloadKind::Nonuniform {
                    hot_fraction,
                    hot_boost,
                }) => GraphScenario::Nonuniform {
                    hot_fraction,
                    hot_boost,
                },
                Some(other) => {
                    return Err(format!(
                        "trajectory does not support --workload {} \
                         (expected uniform|nonuniform)",
                        other.name()
                    ))
                }
            };
            let cfg = SweepConfig::fifty_by_fifty(0.1, scenario, trials);
            competitive_trajectory(&names, &cfg)
                .map(|f| vec![f])
                .map_err(|e| e.to_string())
        }
        "sweep" => {
            let names = if options.mechanisms.is_empty() {
                MechanismRegistry::names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            } else {
                options.mechanisms.clone()
            };
            let workload = options.workload.unwrap_or(WorkloadKind::Star { hubs: 1 });
            registry_sweep(&names, workload, trials)
                .map(|f| vec![f])
                .map_err(|e| e.to_string())
        }
        "all" => {
            let mut figures = vec![
                fig4(trials),
                fig5(trials),
                fig6(trials),
                fig7(trials),
                adaptive_ablation(trials),
                star_sweep(trials),
            ];
            // `all` historically ignores `--workload` (it is a `sweep`/
            // `trajectory` refinement), so the trajectory leg always runs
            // with its default scenario rather than failing on a workload
            // the trajectory figure cannot represent.
            let mut defaults = options.clone();
            defaults.workload = None;
            figures.extend(run_figure("trajectory", &defaults)?);
            Ok(figures)
        }
        other => Err(format!(
            "unknown figure '{other}' (expected \
             fig4|fig5|fig6|fig7|adaptive|star|trajectory|sweep|throughput|serve|produce|all)"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    for name in &options.figures {
        if matches!(name.as_str(), "throughput" | "serve" | "produce") {
            let result = match name.as_str() {
                "throughput" => run_throughput(&options),
                "serve" => run_serve(&options),
                _ => run_produce(&options),
            };
            let json = match result {
                Ok(json) => json,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{json}");
            if let Some(dir) = &options.csv_dir {
                if let Err(e) = fs::create_dir_all(dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
                let path = dir.join(format!("{name}.json"));
                if let Err(e) = fs::write(&path, &json) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
            if let Some(path) = &options.out {
                if let Err(e) = fs::write(path, &json) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
            continue;
        }
        let figures = match run_figure(name, &options) {
            Ok(f) => f,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
        for figure in figures {
            println!("{}", render_table(&figure));
            if let Some(dir) = &options.csv_dir {
                if let Err(e) = fs::create_dir_all(dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
                let path = dir.join(format!("{}.csv", figure.id));
                if let Err(e) = fs::write(&path, render_csv(&figure)) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn opts(trials: usize) -> Options {
        Options {
            figures: vec![],
            trials,
            csv_dir: None,
            mechanisms: vec![],
            workload: None,
            events: None,
            threads: None,
            objects: None,
            shards: None,
            sink: None,
            out: None,
            net_clients: None,
            addr: None,
            clients: None,
            seed: None,
            metrics_out: None,
        }
    }

    #[test]
    fn default_options_run_everything() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.figures, vec!["all"]);
        assert_eq!(o.trials, DEFAULT_TRIALS);
        assert!(o.csv_dir.is_none());
        assert!(o.mechanisms.is_empty());
    }

    #[test]
    fn explicit_figure_and_trials() {
        let o = parse_args(&args(&["fig6", "--trials", "3", "--csv", "/tmp/out"])).unwrap();
        assert_eq!(o.figures, vec!["fig6"]);
        assert_eq!(o.trials, 3);
        assert_eq!(o.csv_dir.as_deref(), Some(std::path::Path::new("/tmp/out")));
    }

    #[test]
    fn sweep_options_validate_mechanisms_through_the_registry() {
        let o = parse_args(&args(&[
            "sweep",
            "--mechanisms",
            "popularity,adaptive",
            "--workload",
            "star",
        ]))
        .unwrap();
        assert_eq!(o.figures, vec!["sweep"]);
        assert_eq!(o.mechanisms, vec!["popularity", "adaptive"]);
        assert_eq!(o.workload, Some(WorkloadKind::Star { hubs: 1 }));

        let err = parse_args(&args(&["sweep", "--mechanisms", "quantum"])).unwrap_err();
        assert!(err.contains("unknown mechanism 'quantum'"));
        assert!(err.contains("popularity"), "error lists the candidates");
    }

    #[test]
    fn workload_names_parse() {
        for name in [
            "uniform",
            "nonuniform",
            "producer-consumer",
            "lock-striped",
            "phased",
            "star",
            "matching",
            "phase-shift",
            "clustered",
        ] {
            assert_eq!(parse_workload(name).unwrap().name(), name);
        }
        assert!(parse_workload("fractal").is_err());
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        assert!(parse_args(&args(&["--trials"])).is_err());
        assert!(parse_args(&args(&["--trials", "zero"])).is_err());
        assert!(parse_args(&args(&["--trials", "0"])).is_err());
        assert!(parse_args(&args(&["--csv"])).is_err());
        assert!(parse_args(&args(&["--mechanisms"])).is_err());
        assert!(parse_args(&args(&["--mechanisms", ""])).is_err());
        assert!(parse_args(&args(&["--workload"])).is_err());
        assert!(parse_args(&args(&["--events"])).is_err());
        assert!(parse_args(&args(&["--events", "0"])).is_err());
        assert!(parse_args(&args(&["--events", "many"])).is_err());
        assert!(parse_args(&args(&["--threads"])).is_err());
        assert!(parse_args(&args(&["--threads", "0"])).is_err());
        assert!(parse_args(&args(&["--objects"])).is_err());
        assert!(parse_args(&args(&["--objects", "0"])).is_err());
        assert!(parse_args(&args(&["--shards"])).is_err());
        assert!(parse_args(&args(&["--shards", ""])).is_err());
        assert!(parse_args(&args(&["--shards", "2,0"])).is_err());
        assert!(parse_args(&args(&["--shards", "two"])).is_err());
        assert!(parse_args(&args(&["--sink"])).is_err());
        assert!(parse_args(&args(&["--sink", "paper"])).is_err());
        assert!(parse_args(&args(&["--out"])).is_err());
        assert!(parse_args(&args(&["--help"])).is_err());
        assert!(run_figure("fig99", &opts(1)).is_err());
    }

    #[test]
    fn throughput_options_parse_and_run() {
        let o = parse_args(&args(&[
            "throughput",
            "--events",
            "2000",
            "--threads",
            "8",
            "--objects",
            "8",
            "--shards",
            "1,2",
            "--workload",
            "phase-shift",
            "--sink",
            "stats",
            "--net-clients",
            "0",
            "--out",
            "/tmp/bench.json",
        ]))
        .unwrap();
        assert_eq!(o.figures, vec!["throughput"]);
        assert_eq!(o.events, Some(2000));
        assert_eq!(o.threads, Some(8));
        assert_eq!(o.objects, Some(8));
        assert_eq!(o.shards, Some(vec![1, 2]));
        assert_eq!(o.sink, Some(SinkKind::Stats));
        assert_eq!(
            o.out.as_deref(),
            Some(std::path::Path::new("/tmp/bench.json"))
        );

        assert_eq!(o.net_clients, Some(0));
        let json = run_throughput(&o).unwrap();
        assert!(json.contains("\"workload\": \"phase-shift\""));
        assert!(json.contains("\"events\": 2000"));
        assert!(json.contains("\"threads\": 8"));
        assert!(json.contains("\"objects\": 8"));
        assert!(json.contains("\"sink\": \"stats\""));
        assert!(json.contains("\"ingest\": ["));
        assert!(json.contains("\"engine\": \"sharded\""));
        assert!(json.contains("\"ingest_baseline\": {"));
        assert!(json.contains("\"sink_relative_throughput\":"));
        assert!(
            json.contains("\"net\": null"),
            "--net-clients 0 skips the slot"
        );
    }

    #[test]
    fn serve_and_produce_options_parse() {
        let o = parse_args(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--clients",
            "2",
            "--metrics-out",
            "/tmp/metrics.prom",
        ]))
        .unwrap();
        assert_eq!(o.figures, vec!["serve"]);
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.clients, Some(2));
        assert_eq!(
            o.metrics_out.as_deref(),
            Some(std::path::Path::new("/tmp/metrics.prom"))
        );
        assert!(parse_args(&args(&["serve", "--metrics-out"])).is_err());

        let o = parse_args(&args(&["produce", "--addr", "127.0.0.1:9", "--seed", "11"])).unwrap();
        assert_eq!(o.figures, vec!["produce"]);
        assert_eq!(o.seed, Some(11));

        assert!(parse_args(&args(&["serve", "--clients", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "--clients"])).is_err());
        assert!(parse_args(&args(&["produce", "--seed", "x"])).is_err());
        assert!(parse_args(&args(&["throughput", "--net-clients", "x"])).is_err());
        assert!(run_produce(&opts(1)).unwrap_err().contains("--addr"));
    }

    #[test]
    fn throughput_measures_the_networked_service_when_asked() {
        let mut o = parse_args(&args(&[
            "throughput",
            "--events",
            "1500",
            "--threads",
            "4",
            "--objects",
            "4",
            "--shards",
            "1",
            "--net-clients",
            "2",
        ]))
        .unwrap();
        o.trials = 1;
        let json = run_throughput(&o).unwrap();
        assert!(json.contains("\"net\": {"), "{json}");
        assert!(json.contains("\"clients\": 2"), "{json}");
        assert!(json.contains("\"relative_to_ingest\":"), "{json}");
    }

    #[test]
    fn analysis_sink_names_are_accepted() {
        for name in ["conflict", "reach", "competitive"] {
            let o = parse_args(&args(&["throughput", "--sink", name])).unwrap();
            assert_eq!(o.sink.unwrap().name(), name);
        }
    }

    #[test]
    fn run_figure_dispatches_names() {
        assert_eq!(run_figure("fig4", &opts(1)).unwrap().len(), 1);
        assert_eq!(run_figure("adaptive", &opts(1)).unwrap().len(), 1);
        assert_eq!(run_figure("star", &opts(1)).unwrap().len(), 1);
        assert_eq!(run_figure("all", &opts(1)).unwrap().len(), 7);
    }

    #[test]
    fn trajectory_defaults_to_every_registry_mechanism() {
        let figures = run_figure("trajectory", &opts(1)).unwrap();
        assert_eq!(figures.len(), 1);
        assert_eq!(figures[0].id, "trajectory");
        assert_eq!(
            figures[0].series.len(),
            MechanismRegistry::names().len() + 1,
            "every registry mechanism plus the offline-optimal reference"
        );
    }

    #[test]
    fn trajectory_honors_the_workload_flag_where_it_can() {
        let mut options = opts(1);
        options.mechanisms = vec!["popularity".to_string()];
        options.workload = Some(WorkloadKind::Uniform);
        let figures = run_figure("trajectory", &options).unwrap();
        assert!(figures[0].title.contains("uniform"));

        options.workload = Some(WorkloadKind::Star { hubs: 1 });
        let err = run_figure("trajectory", &options).unwrap_err();
        assert!(
            err.contains("does not support --workload star"),
            "graph-less workloads must be rejected, not silently remapped: {err}"
        );

        // `all` ignores --workload for its trajectory leg instead of
        // failing after computing six figures.
        assert_eq!(run_figure("all", &options).unwrap().len(), 7);
    }

    #[test]
    fn sweep_defaults_to_every_registry_mechanism() {
        let figures = run_figure("sweep", &opts(1)).unwrap();
        assert_eq!(figures.len(), 1);
        // Every registry mechanism plus the offline-optimal reference.
        assert_eq!(
            figures[0].series.len(),
            MechanismRegistry::names().len() + 1
        );
    }
}
