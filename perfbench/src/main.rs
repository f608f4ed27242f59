//! The repository's benchmark: out-of-core decomposition and durable TCP
//! serving, end to end (`--trace 0`) and per layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decompose|serve-update|serve-readwrite|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: inputs, data directories and the span
//! log go under `.bench_data/` there. For one workload, the last line of
//! standard output is one JSON object — `correct`, `attempted`, `failed`
//! and `metrics` — and the lines before it give the host, sample counts
//! and, when traced, the self-time breakdown; `all` runs the three in turn. When an output check fails the result line says
//! `"correct": false` and the exit code is 1. When the run cannot measure
//! (bad arguments, a serving workload on a tmpfs data directory, a failure
//! of the program outside the measured ops) it prints no result line and
//! exits with 2.

mod child;
mod client;
mod decompose;
mod host;
mod inputs;
mod layers;
mod ops;
mod report;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Why a run produced no result.
#[derive(Debug)]
pub enum Failure {
    /// The environment makes the measurement meaningless.
    Refused(String),
    /// Bad arguments, or the program failed before measuring.
    Setup(String),
}

/// The run's private directory under `.bench_data/`, removed on drop.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
    path: PathBuf,
}

impl WorkDir {
    fn new(name: &str) -> Result<WorkDir, Failure> {
        let root = PathBuf::from(".bench_data");
        let path = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| Failure::Setup(format!("creating {}: {e}", path.display())))?;
        Ok(WorkDir { root, path })
    }

    /// This run's directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `.bench_data/`, which outlives the run (span logs).
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    dir: Option<PathBuf>,
    deletes: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = Some(false);
    let mut dir = None;
    let mut deletes = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            "--deletes" => deletes = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        dir,
        deletes,
    })
}

const USAGE: &str = "usage: perfbench --workload <decompose|serve-update|serve-readwrite|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The workloads `--workload all` runs, in order.
const WORKLOADS: [&str; 3] = ["decompose", "serve-update", "serve-readwrite"];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The child processes' subcommands (see `child`), then the benchmark.
    let (child, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("prepare" | "time-decompositions" | "time-reopens" | "calibrate")) => {
            (Some(c), &argv[1..])
        }
        _ => (None, &argv[..]),
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(child) = child {
        let done = match (child, &args.dir) {
            ("calibrate", _) => child::calibrate_child(),
            (_, None) => Err("--dir is required".to_string()),
            ("prepare", Some(dir)) => match (&args.workload, args.seed) {
                (Some(workload), Some(seed)) => inputs::prepare_child(workload, seed, dir),
                _ => Err("--workload and --seed are required".to_string()),
            },
            ("time-decompositions", Some(dir)) => {
                child::time_decompositions_child(dir, Duration::from_secs_f64(args.seconds))
            }
            (_, Some(dir)) => child::time_reopens_child(
                dir,
                args.deletes.as_deref(),
                Duration::from_secs_f64(args.seconds),
            ),
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{child}: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (Some(workload), Some(seed)) = (args.workload.as_deref(), args.seed) else {
        eprintln!("--workload and --seed are required\n{USAGE}");
        return ExitCode::from(2);
    };

    if workload == "all" {
        // Every workload in turn, for people; the exit code is the worst.
        let worst = WORKLOADS
            .iter()
            .map(|w| {
                println!("### {w}");
                run(w, seed, &args)
            })
            .max()
            .unwrap_or(0);
        return ExitCode::from(worst);
    }
    ExitCode::from(run(workload, seed, &args))
}

/// Run one workload, print its metrics and result line, and return the
/// exit code.
fn run(workload: &str, seed: u64, args: &Args) -> u8 {
    let result = WorkDir::new(workload).and_then(|work| {
        let mix = |updates, queries| ops::Mix { updates, queries };
        match workload {
            "decompose" => decompose::run(seed, args.seconds, args.trace, &work),
            "serve-update" => serve::run(
                "serve-update",
                1,
                mix(3, 1),
                seed,
                args.seconds,
                args.trace,
                &work,
            ),
            "serve-readwrite" => serve::run(
                "serve-readwrite",
                2,
                mix(1, 1),
                seed,
                args.seconds,
                args.trace,
                &work,
            ),
            other => Err(Failure::Setup(format!(
                "unknown workload {other:?}\n{USAGE}"
            ))),
        }
    });
    match result {
        Ok(out) => {
            out.metrics.print_table(if args.trace {
                "per-layer metrics"
            } else {
                "end-to-end metrics"
            });
            println!("{}", out.result_line());
            if out.mismatches.is_empty() {
                0
            } else {
                1
            }
        }
        Err(Failure::Refused(why)) => {
            eprintln!("refusing to run: {why}");
            2
        }
        Err(Failure::Setup(why)) => {
            eprintln!("benchmark failed: {why}");
            2
        }
    }
}
