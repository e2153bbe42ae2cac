//! The repo benchmark. See `benchmark/README.md` for the catalogue and
//! `BENCHMARK.json` at the repo root for the contract.
//!
//! One pass of one workload, as the driver runs it:
//!
//! ```text
//! inkbench --workload engine_trickle --seed 1 --seconds 10 --trace 0
//! ```
//!
//! prints `workload/metric value unit` lines and then, last, one JSON
//! object. Without `--trace` the program runs the timed and the traced pass
//! of every selected workload, each in a fresh process, and prints every
//! metric; `--check` does that at 1/20 length; `--aa N` is the A/A
//! self-check.

mod inproc;
mod probe;
mod report;
mod serve;
mod stream;
mod suite;
mod workloads;

use std::process::ExitCode;
use workloads::{Driver, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--check] [--aa N]";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    check: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        check: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--check" => args.check = true,
            "--aa" => {
                let n: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if n < 5 {
                    return Err("--aa needs at least 5 passes per set".into());
                }
                args.aa = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let ok = if let Some(n) = args.aa {
        suite::aa(&selected, args.seed, args.seconds, n)
    } else if let Some(trace) = args.trace {
        let Some(w) = args.workload else {
            eprintln!("--trace needs --workload\n{USAGE}");
            return ExitCode::from(2);
        };
        let trace_path = format!("benchmark/out/trace-{}.json", w.name);
        let trace_path = std::path::Path::new(&trace_path);
        let outcome = match (w.driver, trace) {
            (Driver::Serve, false) => serve::timed(w, args.seed, args.seconds),
            (Driver::Serve, true) => serve::traced(w, args.seed, args.seconds, trace_path),
            (_, false) => inproc::timed(w, args.seed, args.seconds),
            (_, true) => inproc::traced(w, args.seed, args.seconds, trace_path),
        };
        for (name, value, unit) in outcome.metrics.iter() {
            println!("{}/{name} {value} {unit}", w.name);
        }
        println!("{}/ops_attempted {} count", w.name, outcome.attempted);
        println!("{}/ops_failed {} count", w.name, outcome.failed);
        println!("{}", outcome.json_line());
        outcome.failed == 0
    } else if args.check {
        suite::catalogue_matches_contract()
            & suite::report(&selected, args.seed, args.seconds / 20.0)
    } else {
        suite::report(&selected, args.seed, args.seconds)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
