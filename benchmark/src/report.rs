//! Result reporting: the table a person reads, the result file
//! `check.sh` reads, and the one-line JSON object the driver reads.

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::args::Args;
use crate::net::BATCH;
use crate::stats::Summary;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, exactly as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, exactly as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Median (the reported value), quartiles and sample count.
    pub summary: Summary,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Events (or edges) whose result was checked.
    pub attempted: u64,
    /// Of those, how many were missing or wrong.
    pub failed: u64,
    /// The metrics the workload measured, in reporting order.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the table's footer (what failed, and where).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric whose value is the median of `samples`.  A metric with
    /// no samples is a harness bug and is recorded as a failure.
    pub fn sampled(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        match Summary::of(samples) {
            Some(summary) => self.metrics.push(Metric {
                name,
                unit,
                summary,
            }),
            None => {
                self.fail(1, format!("metric {name} has no samples"));
                self.exact(name, unit, 0.0);
            }
        }
    }

    /// Adds a metric that is a single exact value.
    pub fn exact(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            unit,
            summary: Summary::exact(value),
        });
    }

    /// Adds the two end-to-end metrics every workload ends with:
    /// `peak_rss_mb`, read here, at exit, and `setup_s`, the median of the
    /// set-up's repetitions.
    pub fn memory_and_setup(&mut self, setups: &[f64]) {
        self.exact("peak_rss_mb", "MiB", peak_rss_mib());
        self.sampled("setup_s", "s", setups);
    }

    /// Records `count` failed operations with the reason.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count.max(1);
        self.notes.push(why);
    }

    /// Share of attempted operations that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order, with their
/// units.
const END_TO_END: [(&str, &str); 9] = [
    ("events_per_s", "events/s"),
    ("stamp_latency_p50_us", "us"),
    ("wire_bytes_per_event", "bytes"),
    ("clock_width", "components"),
    ("online_width_ratio", "ratio"),
    ("plan_ms", "ms"),
    ("tracked_edges_per_s", "edges/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// What the driver's line carries for an end-to-end metric the workload does
/// not have (README, "What the driver's format forces").  The driver wants
/// every key in every run, no zero, and no time that reads the same twice; so
/// a time is the time [`BATCH`] events take at the run's median
/// `events_per_s`, a rate is that `events_per_s`, and a count is 1.  A filler
/// measures nothing new and takes no measuring time.
fn filler(unit: &str, events_per_s: f64) -> f64 {
    let batch_s = BATCH as f64 / events_per_s;
    match unit {
        "us" => batch_s * 1e6,
        "ms" => batch_s * 1e3,
        "edges/s" => events_per_s,
        _ => 1.0,
    }
}

/// `nproc`, CPU model and compiler of the measuring host; every result file
/// carries it, because a number is only comparable on a like host.
pub fn host_fingerprint() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = std::env::var("MVC_BENCH_RUSTC").unwrap_or_else(|_| "unknown".to_owned());
    (nproc, cpu, rustc)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minor page faults and kernel-mode CPU time (seconds) of this process so
/// far, from `/proc/self/stat`.  With default malloc settings a freed stamp
/// window goes back to the kernel and is faulted in again, so these say how
/// much of a pass is the kernel's.
pub fn faults_and_sys_seconds() -> (u64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the parenthesised command name, which may itself
    // contain spaces: state is the first, minflt the 8th, stime the 13th.
    let rest = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let field = |n: usize| {
        rest.split_whitespace()
            .nth(n)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // stime counts clock ticks; Linux reports them at 100 per second.
    (field(7), field(12) as f64 / 100.0)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the outcome and returns the process exit code: 0 only when every
/// checked result was correct and every metric is a finite number.
pub fn emit(args: &Args, mut outcome: Outcome) -> ExitCode {
    let bad: Vec<&'static str> = outcome
        .metrics
        .iter()
        .filter(|m| !m.summary.median.is_finite())
        .map(|m| m.name)
        .collect();
    for name in bad {
        outcome.fail(1, format!("metric {name} is not a finite number"));
    }
    // Several checks can fail the same events; a share cannot exceed 1.
    outcome.attempted = outcome.attempted.max(1);
    outcome.failed = outcome.failed.min(outcome.attempted);
    let correct = outcome.failed == 0;
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "workload {}  seed {}  {:.1} s measured  {mode}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    println!(
        "{:<40} {:>16} {:>16} {:>16} {:>6}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for m in &outcome.metrics {
        let s = &m.summary;
        println!(
            "{:<40} {:>16.4} {:>16.4} {:>16.4} {:>6}  {}",
            m.name, s.median, s.q1, s.q3, s.n, m.unit
        );
    }
    println!(
        "{:<40} {:>16.6} {:>16} {:>16} {:>6}  ratio   ({} of {} failed)",
        "failed_share",
        outcome.failed_share(),
        "",
        "",
        1,
        outcome.failed,
        outcome.attempted
    );
    let mut notes: Vec<(&String, usize)> = Vec::new();
    for note in &outcome.notes {
        match notes.iter_mut().find(|(seen, _)| *seen == note) {
            Some((_, times)) => *times += 1,
            None => notes.push((note, 1)),
        }
    }
    for (note, times) in notes {
        println!("note: {note} (x{times})");
    }

    if let Some(dir) = &args.out {
        let (nproc, cpu, rustc) = host_fingerprint();
        let mut file = String::new();
        let _ = write!(
            file,
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"correct\": {correct}, \
             \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \
             \"host\": {{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}}}, \"metrics\": {{",
            json_string(args.workload.name()),
            args.seed,
            args.seconds,
            args.trace,
            outcome.attempted,
            outcome.failed,
            outcome.failed_share(),
            json_string(&cpu),
            json_string(&rustc),
        );
        for (i, m) in outcome.metrics.iter().enumerate() {
            let s = &m.summary;
            let _ = write!(
                file,
                "{}{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json_string(m.name),
                s.median,
                s.q1,
                s.q3,
                s.n,
                json_string(m.unit)
            );
        }
        file.push_str("}}\n");
        let path = dir.join(format!(
            "result-{}-seed{}-{mode}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, file)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    // The driver's line: last on stdout, exactly these four keys.  An
    // untraced run carries every end-to-end metric of `BENCHMARK.json`, the
    // ones this workload does not have as fillers.
    let measured = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.summary.median)
            .filter(|v| v.is_finite())
    };
    let cells: Vec<(&str, &str, f64)> = if args.trace {
        outcome
            .metrics
            .iter()
            .map(|m| (m.name, m.unit, measured(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        let events_per_s = measured("events_per_s").unwrap_or(0.0);
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = measured(name).unwrap_or_else(|| filler(unit, events_per_s));
                (name, unit, if value.is_finite() { value } else { 0.0 })
            })
            .collect()
    };
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, unit, value)) in cells.into_iter().enumerate() {
        let _ = write!(
            line,
            "{}{}: {{\"value\": {value}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_string(name),
            json_string(unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
