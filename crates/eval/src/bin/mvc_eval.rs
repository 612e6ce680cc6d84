//! Command-line entry point that regenerates the paper's figures.
//!
//! `mvc-eval --help` prints the synopsis (`USAGE` below).
//!
//! Each figure is printed as an aligned table; with `--csv DIR` the raw series
//! are additionally written as `DIR/<figure>.csv`.  The `sweep` command runs
//! arbitrary [`MechanismRegistry`] mechanisms — selected **by name**, never as
//! concrete types — over a synthetic workload family (`uniform`,
//! `nonuniform`, `producer-consumer`, `lock-striped`, `phased`, the
//! adversarial `star` and `matching` lower-bound streams, the
//! partition-churning `phase-shift`, or the community-local `clustered`).  The
//! `trajectory` command reports the per-reveal competitive trajectory (online
//! size vs. the incrementally maintained offline optimum of the revealed
//! prefix).
//!
//! Three subcommands print one **JSON** object on stdout (and to `--out FILE`;
//! status lines go to stderr, so stdout pipes into `jq`): `throughput` times
//! one interleaved slot set and reports each slot's rate `relative` to plain
//! ingest — the ratios CI gates on, see [`mvc_eval::throughput`]; `serve` runs
//! the pipeline as a TCP service until the expected producer sessions complete
//! and reports whether the networked result equals a sequential batch replay
//! (the oracle CI gates on); `produce` is the matching workload-streaming client.

use std::env;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

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

const USAGE: &str = "\
usage: mvc-eval [fig4|fig5|fig6|fig7|adaptive|star|trajectory|all] [--trials N] [--csv DIR]
       mvc-eval sweep|trajectory [--mechanisms a,b,c] [--workload KIND] [--trials N] [--csv DIR]
       mvc-eval throughput [--events N] [--threads N] [--objects N] [--workload KIND] \
[--sink mem|codec|stats|conflict|reach|competitive|tee] [--net-clients N] [--out FILE]
       mvc-eval serve [--addr HOST:PORT] [--clients N] [--out FILE] [--metrics-out FILE]
       mvc-eval produce --addr HOST:PORT [--threads N] [--objects N] [--events N] [--seed N] \
[--workload KIND] [--out FILE]";

#[derive(Debug, Clone, Default)]
struct Options {
    /// `--help` / `-h` was given: print [`USAGE`] and do nothing else.
    help: bool,
    figures: Vec<String>,
    trials: usize,
    csv_dir: Option<PathBuf>,
    mechanisms: Vec<String>,
    /// `--workload`, when given.  `sweep` defaults to the star stream,
    /// `trajectory` to the nonuniform graph scenario, `throughput` to
    /// uniform.
    workload: Option<WorkloadKind>,
    /// `--events`, used by `throughput` and `produce`.
    events: Option<usize>,
    /// `--threads`, used by `throughput` (default 64) and `produce`.
    threads: Option<usize>,
    /// `--objects`, used by `throughput` (default 64) and `produce`.
    objects: Option<usize>,
    /// `--sink`, used by `throughput` (default `mem`).
    sink: Option<SinkKind>,
    /// `--out`, used by the JSON subcommands: also write the object here.
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

/// The value following `flag`, parsed as `T`.
fn value<T: FromStr>(flag: &str, iter: &mut std::slice::Iter<'_, String>) -> Result<T, String> {
    let raw = iter
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("invalid value for {flag}: {raw}"))
}

/// [`value`] for the counts that must be at least 1.
fn positive(flag: &str, iter: &mut std::slice::Iter<'_, String>) -> Result<usize, String> {
    match value(flag, iter)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        trials: DEFAULT_TRIALS,
        ..Options::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        match flag {
            "--trials" => o.trials = positive(flag, &mut iter)?,
            "--csv" => o.csv_dir = Some(value(flag, &mut iter)?),
            "--mechanisms" => {
                let list: String = value(flag, &mut iter)?;
                let registry = MechanismRegistry::new();
                for name in list.split(',').filter(|n| !n.is_empty()) {
                    registry.from_name(name).map_err(|e| e.to_string())?;
                    o.mechanisms.push(name.to_string());
                }
                if o.mechanisms.is_empty() {
                    return Err("--mechanisms requires at least one name".into());
                }
            }
            "--workload" => o.workload = Some(parse_workload(&value::<String>(flag, &mut iter)?)?),
            "--events" => o.events = Some(positive(flag, &mut iter)?),
            "--threads" => o.threads = Some(positive(flag, &mut iter)?),
            "--objects" => o.objects = Some(positive(flag, &mut iter)?),
            "--sink" => o.sink = Some(SinkKind::parse(&value::<String>(flag, &mut iter)?)?),
            "--out" => o.out = Some(value(flag, &mut iter)?),
            "--net-clients" => o.net_clients = Some(value(flag, &mut iter)?),
            "--addr" => o.addr = Some(value(flag, &mut iter)?),
            "--clients" => o.clients = Some(positive(flag, &mut iter)?),
            "--seed" => o.seed = Some(value(flag, &mut iter)?),
            "--metrics-out" => o.metrics_out = Some(value(flag, &mut iter)?),
            "--help" | "-h" => {
                o.help = true;
                return Ok(o);
            }
            name => o.figures.push(name.to_string()),
        }
    }
    if o.figures.is_empty() {
        o.figures.push("all".to_string());
    }
    Ok(o)
}

fn run_throughput(options: &Options) -> Result<String, String> {
    let defaults = ThroughputConfig::uniform_64x64(options.events.unwrap_or(200_000));
    let config = ThroughputConfig {
        workload: options.workload.unwrap_or(defaults.workload),
        threads: options.threads.unwrap_or(defaults.threads),
        objects: options.objects.unwrap_or(defaults.objects),
        sink: options.sink.unwrap_or(defaults.sink),
        net_clients: options.net_clients.unwrap_or(defaults.net_clients),
        ..defaults
    };
    Ok(render_throughput_json(&measure_throughput(&config)))
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
    let defaults = ProduceConfig::default();
    let config = ProduceConfig {
        workload: options.workload.unwrap_or(defaults.workload),
        threads: options.threads.unwrap_or(defaults.threads),
        objects: options.objects.unwrap_or(defaults.objects),
        events: options.events.unwrap_or(defaults.events),
        seed: options.seed.unwrap_or(defaults.seed),
        ..defaults
    };
    produce(addr, &config).map(|summary| render_produce_json(&summary))
}

fn run_figure(name: &str, options: &Options) -> Result<Vec<FigureData>, String> {
    let trials = options.trials;
    // `--mechanisms`, or every registry mechanism (`sweep` and `trajectory`).
    let names = if options.mechanisms.is_empty() {
        MechanismRegistry::names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        options.mechanisms.clone()
    };
    match name {
        "fig4" => Ok(vec![fig4(trials)]),
        "fig5" => Ok(vec![fig5(trials)]),
        "fig6" => Ok(vec![fig6(trials)]),
        "fig7" => Ok(vec![fig7(trials)]),
        "adaptive" => Ok(vec![adaptive_ablation(trials)]),
        "star" => Ok(vec![star_sweep(trials)]),
        "trajectory" => {
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
            let workload = options.workload.unwrap_or(WorkloadKind::Star { hubs: 1 });
            registry_sweep(&names, workload, trials)
                .map(|f| vec![f])
                .map_err(|e| e.to_string())
        }
        "all" => {
            // `all` historically ignores `--workload` (it is a `sweep`/
            // `trajectory` refinement), so the trajectory leg always runs
            // with its default scenario rather than failing on a workload
            // the trajectory figure cannot represent.
            let mut defaults = options.clone();
            defaults.workload = None;
            let mut figures = Vec::new();
            for part in [
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "adaptive",
                "star",
                "trajectory",
            ] {
                figures.extend(run_figure(part, &defaults)?);
            }
            Ok(figures)
        }
        other => Err(format!(
            "unknown figure '{other}' (expected \
             fig4|fig5|fig6|fig7|adaptive|star|trajectory|sweep|throughput|serve|produce|all)"
        )),
    }
}

/// Writes `contents` to `path` and reports it on `err` — never on stdout,
/// which carries only the tables or the JSON object.
fn write_file(path: &Path, contents: &str, err: &mut dyn Write) -> Result<(), String> {
    fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    writeln!(err, "wrote {}", path.display()).map_err(|e| e.to_string())
}

/// Everything `main` does, with the two output streams passed in so tests
/// can see what goes where.
fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), String> {
    let options = parse_args(args)?;
    let io_err = |e: io::Error| e.to_string();
    if options.help {
        return writeln!(out, "{USAGE}").map_err(io_err);
    }
    for name in &options.figures {
        let json = match name.as_str() {
            "throughput" => run_throughput(&options)?,
            "serve" => run_serve(&options)?,
            "produce" => run_produce(&options)?,
            _ => {
                for figure in run_figure(name, &options)? {
                    writeln!(out, "{}", render_table(&figure)).map_err(io_err)?;
                    if let Some(dir) = &options.csv_dir {
                        fs::create_dir_all(dir)
                            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
                        let path = dir.join(format!("{}.csv", figure.id));
                        write_file(&path, &render_csv(&figure), err)?;
                    }
                }
                continue;
            }
        };
        writeln!(out, "{json}").map_err(io_err)?;
        if let Some(path) = &options.out {
            write_file(path, &json, err)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args, &mut io::stdout().lock(), &mut io::stderr()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn opts(trials: usize) -> Options {
        Options {
            trials,
            ..Options::default()
        }
    }

    /// Runs the whole CLI in-process; returns (result, stdout, stderr).
    fn run_captured(line: &str) -> (Result<(), String>, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let result = run(&args(line), &mut out, &mut err);
        let text = |bytes| String::from_utf8(bytes).unwrap();
        (result, text(out), text(err))
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
        let o = parse_args(&args("fig6 --trials 3 --csv /tmp/out")).unwrap();
        assert_eq!(o.figures, vec!["fig6"]);
        assert_eq!(o.trials, 3);
        assert_eq!(o.csv_dir, Some(PathBuf::from("/tmp/out")));
    }

    #[test]
    fn sweep_options_validate_mechanisms_through_the_registry() {
        let o = parse_args(&args(
            "sweep --mechanisms popularity,adaptive --workload star",
        ))
        .unwrap();
        assert_eq!(o.figures, vec!["sweep"]);
        assert_eq!(o.mechanisms, vec!["popularity", "adaptive"]);
        assert_eq!(o.workload, Some(WorkloadKind::Star { hubs: 1 }));

        let err = parse_args(&args("sweep --mechanisms quantum")).unwrap_err();
        assert!(err.contains("unknown mechanism 'quantum'"));
        assert!(err.contains("popularity"), "error lists the candidates");
    }

    #[test]
    fn workload_names_parse() {
        let names = "uniform nonuniform producer-consumer lock-striped phased star matching \
                     phase-shift clustered";
        for name in names.split_whitespace() {
            assert_eq!(parse_workload(name).unwrap().name(), name);
        }
        assert!(parse_workload("fractal").is_err());
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let lines = "--trials|--trials zero|--trials 0|--csv|--mechanisms|--workload|--events|\
                     --events 0|--events many|--threads|--threads 0|--objects|--objects 0|\
                     --sink|--sink paper|--out";
        for line in lines.split('|') {
            assert!(parse_args(&args(line)).is_err(), "{line}");
        }
        assert!(parse_args(&["--mechanisms".to_string(), String::new()]).is_err());
        assert!(run_figure("fig99", &opts(1)).is_err());
    }

    #[test]
    fn throughput_options_parse_and_run() {
        let o = parse_args(&args(
            "throughput --events 2000 --threads 8 --objects 8 --workload phase-shift \
             --sink stats --net-clients 0 --out /tmp/bench.json",
        ))
        .unwrap();
        assert_eq!(o.figures, vec!["throughput"]);
        assert_eq!(o.events, Some(2000));
        assert_eq!(o.threads, Some(8));
        assert_eq!(o.objects, Some(8));
        assert_eq!(o.sink, Some(SinkKind::Stats));
        assert_eq!(o.out, Some(PathBuf::from("/tmp/bench.json")));
        assert_eq!(o.net_clients, Some(0));
        let json = run_throughput(&o).unwrap();
        let head = "{\n  \"workload\": \"phase-shift\",\n  \"threads\": 8,\n  \"objects\": 8,\n  \
                    \"events\": 2000,";
        assert!(json.starts_with(head), "{json}");
        assert!(json.contains("{\"name\": \"ingest\", "));
        assert!(json.contains("{\"name\": \"sink:stats\", "));
        assert!(json.contains("{\"name\": \"obs:enabled\", "));
        assert!(!json.contains("\"net:"), "--net-clients 0 skips the slot");
    }

    #[test]
    fn serve_and_produce_options_parse() {
        let o = parse_args(&args(
            "serve --addr 127.0.0.1:0 --clients 2 --metrics-out /tmp/metrics.prom",
        ))
        .unwrap();
        assert_eq!(o.figures, vec!["serve"]);
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.clients, Some(2));
        assert_eq!(o.metrics_out, Some(PathBuf::from("/tmp/metrics.prom")));
        assert!(parse_args(&args("serve --metrics-out")).is_err());

        let o = parse_args(&args("produce --addr 127.0.0.1:9 --seed 11")).unwrap();
        assert_eq!(o.figures, vec!["produce"]);
        assert_eq!(o.seed, Some(11));

        assert!(parse_args(&args("serve --clients 0")).is_err());
        assert!(parse_args(&args("serve --clients")).is_err());
        assert!(parse_args(&args("produce --seed x")).is_err());
        assert!(parse_args(&args("throughput --net-clients x")).is_err());
        assert!(run_produce(&opts(1)).unwrap_err().contains("--addr"));
    }

    #[test]
    fn throughput_measures_the_networked_service_when_asked() {
        let line = "throughput --events 1500 --threads 4 --objects 4 --net-clients 2";
        let json = run_throughput(&parse_args(&args(line)).unwrap()).unwrap();
        assert!(json.contains("{\"name\": \"net:2\", "), "{json}");
    }

    #[test]
    fn analysis_sink_names_are_accepted() {
        for name in ["conflict", "reach", "competitive"] {
            let o = parse_args(&args(&format!("throughput --sink {name}"))).unwrap();
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

    #[test]
    fn json_subcommands_keep_stdout_pure_json() {
        let path = env::temp_dir().join(format!("mvc-eval-out-{}.json", std::process::id()));
        let file = path.to_str().unwrap();
        let (result, out, err) = run_captured(&format!(
            "throughput --events 500 --threads 4 --objects 4 --net-clients 0 --out {file}"
        ));
        result.unwrap();
        assert!(out.starts_with("{\n") && out.ends_with("}\n"), "{out}");
        assert!(!out.contains("wrote"), "status line on stdout: {out}");
        assert_eq!(err, format!("wrote {file}\n"));
        assert_eq!(fs::read_to_string(&path).unwrap(), out.trim_end());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn help_prints_usage_on_stdout_and_succeeds() {
        for flag in ["--help", "-h"] {
            let (result, out, err) = run_captured(&format!("fig4 {flag} --trials 0"));
            assert_eq!(result, Ok(()), "help is not an error");
            assert_eq!(out, format!("{USAGE}\n"));
            assert!(err.is_empty(), "{err}");
        }
        // Errors before the flag still win, as they always did.
        let (result, out, _) = run_captured("--trials 0 --help");
        assert!(result.unwrap_err().contains("--trials"));
        assert!(out.is_empty());
    }
}
