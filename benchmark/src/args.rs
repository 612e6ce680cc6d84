//! Command-line arguments shared by both binaries.

use std::path::PathBuf;

/// The four workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process pipeline, 64 × 64 uniform, storing sink.
    LiveNarrow,
    /// In-process pipeline, 2048 × 2048 clustered, width-4096 clock.
    LiveWide,
    /// Loopback TCP service, one client, stamps returned.
    NetEcho,
    /// Offline plans and online mechanisms on sparse graphs; no stamping.
    PlanSparse,
}

impl Workload {
    /// Every workload, in the order the full set runs them.
    pub const ALL: [Workload; 4] = [
        Workload::LiveNarrow,
        Workload::LiveWide,
        Workload::NetEcho,
        Workload::PlanSparse,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveNarrow => "live-narrow",
            Workload::LiveWide => "live-wide",
            Workload::NetEcho => "net-echo",
            Workload::PlanSparse => "plan-sparse",
        }
    }

    fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

/// A deliberate fault in the *reference*, to show that verification bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// Flip one component of one expected stamp (stamping workloads).
    Stamp,
    /// Drop one vertex from a computed cover (`plan-sparse`).
    Cover,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for the input generators; the system under test never sees it.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// `--trace 1`: the per-layer run (the `trace` binary).
    pub trace: bool,
    /// Smoke-test mode: a tenth of the measuring time, one set-up.
    pub quick: bool,
    /// Corrupt the reference before verifying.
    pub corrupt: Option<Corrupt>,
    /// Directory for result and span files (nothing is written without it).
    pub out: Option<PathBuf>,
}

impl Args {
    /// Parses `std::env::args()`.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut args = Args {
            workload: Workload::LiveNarrow,
            seed: 42,
            seconds: 22.0,
            trace: false,
            quick: false,
            corrupt: None,
            out: None,
        };
        while let Some(flag) = argv.next() {
            if flag == "--quick" {
                args.quick = true;
                continue;
            }
            let value = argv
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--corrupt" => {
                    args.corrupt = Some(match value.as_str() {
                        "stamp" => Corrupt::Stamp,
                        "cover" => Corrupt::Cover,
                        _ => return Err(bad("`stamp` or `cover`")),
                    })
                }
                "--out" => args.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        args.workload = workload.ok_or("`--workload <name>` is required")?;
        if args.quick {
            args.seconds /= 10.0;
        }
        Ok(args)
    }

    /// How many times set-up runs (its median is `setup_s`).
    pub fn setup_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }
}
