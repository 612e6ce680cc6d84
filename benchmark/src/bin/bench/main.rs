//! `bench`: the end-to-end run of one workload, tracing off.
//!
//! It constructs the system's engines, sinks, sessions and clients and calls
//! them; it implements none of the system's traits, so only a change to what
//! callers see can break it.  Metric definitions are in `../../../README.md`.

use std::process::ExitCode;

use mvc_benchmark::args::{Args, Workload};
use mvc_benchmark::report::emit;

mod live;
mod net;
mod plan;

fn main() -> ExitCode {
    let args = match Args::from_env() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        eprintln!("bench: `--trace 1` is the `trace` binary's run (run.sh picks it)");
        return ExitCode::from(2);
    }
    let outcome = match args.workload {
        Workload::LiveNarrow | Workload::LiveWide => live::run(&args),
        Workload::NetEcho => net::run(&args),
        Workload::PlanSparse => plan::run(&args),
    };
    match outcome {
        Ok(outcome) => emit(&args, outcome),
        Err(message) => {
            eprintln!("bench: {} failed: {message}", args.workload.name());
            ExitCode::from(2)
        }
    }
}
