//! Work done in child processes of the benchmark, so the measuring
//! process's peak memory holds only what its workload needs: `prepare`
//! (see `inputs`), the timed decompositions and reopens a serving run
//! takes while its clients rest, and the host-speed calibration.
//!
//! The host runs in fast and slow spells of seconds to minutes whose
//! speeds differ by ~30% (see NOTES.md). A fixed piece of benchmark-owned
//! work, [`Calibration`], is timed next to every burst of decompositions,
//! reopens or restarts, and the burst's timings are reported at the
//! reference host speed: scaled by [`CALIBRATION_REFERENCE_S`] over the
//! calibration's time.
//!
//! * `perfbench time-decompositions --dir <input> --seconds <s>` decomposes
//!   the table `prepare` left in `<input>` at the serving pool budget,
//!   again and again for `<s>` seconds, and checks every decomposition
//!   against the oracle.
//! * `perfbench time-reopens --dir <data> [--deletes <file>] --seconds <s>`
//!   deletes the edges listed in `<file>` (`u v` a line) from the graph of
//!   the durable catalog in `<data>` (untimed), then recovers the catalog
//!   with `CoreService::open_catalog`, again and again for `<s>` seconds,
//!   and fingerprints the recovered cores.
//! * `perfbench calibrate` times [`Calibration`] once.
//!
//! Each prints one `key values...` line per result; the timing children
//! time the calibration just before and just after their burst.

use std::ffi::OsStr;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use kcore_suite::graphstore::{GraphPaths, StdVfs};
use kcore_suite::semicore::ScanExecutor;
use kcore_suite::{CoreService, DurableOptions};

use crate::client::GRAPH;
use crate::inputs::{file_len, read_u32s, serve_pool_budget};
use crate::ops::Rng;
use crate::report::mean;

/// Decompositions a `time-decompositions` child times at the least,
/// however short its window.
const MIN_DECOMPOSITIONS: usize = 2;

/// Reopens a `time-reopens` child times at the least, however slow
/// recovery gets.
const MIN_REOPENS: usize = 3;

/// Node ids of the calibration's permutation: 16 MiB of `u32`s, the size
/// of the serve workloads' pool and far beyond a core's own caches.
const CALIBRATION_IDS: usize = 1 << 22;

/// Steps of the calibration's random walk.
const CALIBRATION_STEPS: usize = 1 << 19;

/// About [`Calibration::time_s`] on the reference host (2 vCPUs of an
/// Intel Xeon with a 105 MiB last-level cache) in a fast spell: the scale
/// of timings reported at the reference host speed.
pub const CALIBRATION_REFERENCE_S: f64 = 0.07;

/// A fixed piece of work whose time stands for the host's speed: a random
/// walk along a single cycle through 16 MiB of ids, then a sequential sum
/// over them — the dependent, cache-missing loads of SemiCore*'s node
/// arrays and the streaming of its adjacency scans. It is the benchmark's
/// own code, so no change to the program moves it.
pub struct Calibration {
    next: Vec<u32>,
}

impl Calibration {
    /// Build the cycle (Sattolo's shuffle, from a fixed seed).
    pub fn new() -> Calibration {
        let mut next: Vec<u32> = (0..CALIBRATION_IDS as u32).collect();
        let mut rng = Rng::new(0xCA11_B4A7);
        for i in (1..next.len()).rev() {
            let j = rng.below(i as u64) as usize;
            next.swap(i, j);
        }
        Calibration { next }
    }

    /// Time the work once, in seconds.
    pub fn time_s(&self) -> f64 {
        let t = Instant::now();
        let mut at = 0u32;
        for _ in 0..CALIBRATION_STEPS {
            at = self.next[at as usize];
        }
        let sum: u64 = self.next.iter().map(|&v| u64::from(v)).sum();
        std::hint::black_box((at, sum));
        t.elapsed().as_secs_f64()
    }
}

/// `timings` at the reference host speed, the host's speed being given by
/// the calibration times taken around them.
pub fn at_reference_speed(timings: &[f64], calibration_s: &[f64]) -> Vec<f64> {
    let scale = CALIBRATION_REFERENCE_S / mean(calibration_s);
    timings.iter().map(|t| t * scale).collect()
}

/// Time [`Calibration`] in a child process (the parent's memory stays
/// untouched).
pub fn calibrate() -> Result<f64, String> {
    let stdout = run_child(&["calibrate".as_ref()])?;
    one(&stdout, "calibration_s ")
}

/// The child side of `calibrate`.
pub fn calibrate_child() -> Result<(), String> {
    println!("calibration_s {}", Calibration::new().time_s());
    Ok(())
}

/// Run this executable with `args` in a child process, wait for it, and
/// return its standard output.
pub fn run_child(args: &[&OsStr]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawning {:?}: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!(
            "{:?} failed ({}): {}",
            args[0],
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The numbers of a child's `key values...` output line.
pub fn field(stdout: &str, key: &str) -> Result<Vec<f64>, String> {
    raw_field(stdout, key)?
        .split_whitespace()
        .map(|w| w.parse::<f64>().map_err(|e| format!("{key}{w:?}: {e}")))
        .collect()
}

/// The one number of a child's `key value` output line.
fn one(stdout: &str, key: &str) -> Result<f64, String> {
    match field(stdout, key)?[..] {
        [v] => Ok(v),
        _ => Err(format!(
            "the child printed not one number for {key:?}: {stdout:?}"
        )),
    }
}

fn raw_field<'a>(stdout: &'a str, key: &str) -> Result<&'a str, String> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .ok_or_else(|| format!("the child printed no {key:?} line: {stdout:?}"))
}

/// Numbers as one space-separated line, every digit kept.
pub fn line(v: &[f64]) -> String {
    v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ")
}

/// Run a timing child on `dir` for `window`, with `extra` arguments.
fn timing_child(
    subcommand: &str,
    dir: &Path,
    window: Duration,
    extra: &[&OsStr],
) -> Result<String, String> {
    let seconds = window.as_secs_f64().to_string();
    let mut args: Vec<&OsStr> = vec![
        subcommand.as_ref(),
        "--dir".as_ref(),
        dir.as_os_str(),
        "--seconds".as_ref(),
        seconds.as_ref(),
    ];
    args.extend_from_slice(extra);
    run_child(&args)
}

/// What the parent learns from `time-decompositions`.
#[derive(Debug)]
pub struct Decompositions {
    /// Wall time of each decomposition.
    pub wall_s: Vec<f64>,
    /// Charged reads of each.
    pub read_ios: Vec<u64>,
    /// Every one of them matched the oracle.
    pub ok: bool,
    /// [`Calibration`] times just before and just after them.
    pub calibration_s: Vec<f64>,
}

impl Decompositions {
    /// The wall times at the reference host speed.
    pub fn at_reference_speed(&self) -> Vec<f64> {
        at_reference_speed(&self.wall_s, &self.calibration_s)
    }
}

/// Time decompositions of the prepared table in `dir` for `window`.
pub fn time_decompositions(dir: &Path, window: Duration) -> Result<Decompositions, String> {
    let stdout = timing_child("time-decompositions", dir, window, &[])?;
    Ok(Decompositions {
        wall_s: field(&stdout, "decompose_s ")?,
        read_ios: field(&stdout, "decompose_ios ")?
            .iter()
            .map(|&r| r as u64)
            .collect(),
        ok: raw_field(&stdout, "decompose_ok ")? == "1",
        calibration_s: field(&stdout, "calibration_s ")?,
    })
}

/// The child side of `time-decompositions`.
pub fn time_decompositions_child(dir: &Path, window: Duration) -> Result<(), String> {
    let base = dir.join("g");
    let oracle = read_u32s(&dir.join("oracle.bin"))?;
    let paths = GraphPaths::from_base(&base);
    let budget = serve_pool_budget(file_len(&paths.nodes)? + file_len(&paths.edges)?);
    let svc = CoreService::new(budget).map_err(|e| format!("service: {e}"))?;
    let calibration = Calibration::new();
    let before = calibration.time_s();
    let (mut times, mut ios, mut ok) = (Vec::new(), Vec::new(), true);
    let start = Instant::now();
    while times.len() < MIN_DECOMPOSITIONS || start.elapsed() < window {
        // `open` charges the graph's whole working set, as the durable
        // service's `open` does.
        svc.open("g", &base).map_err(|e| format!("open: {e}"))?;
        let (stats, same) = svc
            .with_graph("g", |idx| {
                Ok((idx.decompose_stats().clone(), idx.cores() == oracle))
            })
            .map_err(|e| e.to_string())?;
        svc.evict("g").map_err(|e| e.to_string())?;
        times.push(stats.wall_time.as_secs_f64());
        ios.push(stats.io.read_ios as f64);
        ok &= same;
    }
    println!("calibration_s {before} {}", calibration.time_s());
    println!("decompose_s {}", line(&times));
    println!("decompose_ios {}", line(&ios));
    println!("decompose_ok {}", u8::from(ok));
    Ok(())
}

/// What the parent learns from `time-reopens`.
#[derive(Debug)]
pub struct Reopens {
    /// Wall time of each `open_catalog`.
    pub wall_s: Vec<f64>,
    /// [`fingerprint`] of the recovered cores, or `None` when two reopens
    /// recovered different cores.
    pub cores: Option<u64>,
    /// [`Calibration`] times just before and just after the reopens.
    pub calibration_s: Vec<f64>,
}

impl Reopens {
    /// The wall times at the reference host speed.
    pub fn at_reference_speed(&self) -> Vec<f64> {
        at_reference_speed(&self.wall_s, &self.calibration_s)
    }
}

/// Time recoveries of the durable catalog in `dir` for `window`, after
/// deleting the edges listed in the `deletes` file from its graph.
/// Recovery writes nothing, so every one replays the same journal tail.
pub fn time_reopens(
    dir: &Path,
    deletes: Option<&Path>,
    window: Duration,
) -> Result<Reopens, String> {
    let extra: Vec<&OsStr> = match deletes {
        Some(file) => vec!["--deletes".as_ref(), file.as_os_str()],
        None => Vec::new(),
    };
    let stdout = timing_child("time-reopens", dir, window, &extra)?;
    let cores = raw_field(&stdout, "cores ")?;
    Ok(Reopens {
        wall_s: field(&stdout, "reopen_s ")?,
        cores: match cores {
            "differ" => None,
            h => Some(h.parse().map_err(|e| format!("cores {h:?}: {e}"))?),
        },
        calibration_s: field(&stdout, "calibration_s ")?,
    })
}

/// The child side of `time-reopens`. With `deletes`, the cores the
/// deletes left must be the ones every recovery restores.
pub fn time_reopens_child(
    dir: &Path,
    deletes: Option<&Path>,
    window: Duration,
) -> Result<(), String> {
    let open = || {
        CoreService::open_catalog_with_vfs(
            dir,
            ScanExecutor::Sequential,
            DurableOptions::default(),
            StdVfs::arc(),
        )
        .map_err(|e| format!("open_catalog: {e}"))
    };
    let cores_of = |svc: &CoreService| svc.cores(GRAPH).map_err(|e| e.to_string());
    let (mut times, mut cores) = (Vec::new(), Vec::new());
    if let Some(file) = deletes {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let svc = open()?;
        for l in text.lines() {
            let mut ids = l.split_whitespace().map(str::parse::<u32>);
            let (Some(Ok(u)), Some(Ok(v)), None) = (ids.next(), ids.next(), ids.next()) else {
                return Err(format!("{}: bad edge {l:?}", file.display()));
            };
            svc.delete_edge(GRAPH, u, v)
                .map_err(|e| format!("deleting ({u}, {v}): {e}"))?;
        }
        cores.push(fingerprint(&cores_of(&svc)?));
    }
    let calibration = Calibration::new();
    let before = calibration.time_s();
    let start = Instant::now();
    while times.len() < MIN_REOPENS || start.elapsed() < window {
        let t = Instant::now();
        let svc = open()?;
        times.push(t.elapsed().as_secs_f64());
        cores.push(fingerprint(&cores_of(&svc)?));
    }
    println!("calibration_s {before} {}", calibration.time_s());
    println!("reopen_s {}", line(&times));
    if cores.windows(2).all(|w| w[0] == w[1]) {
        println!("cores {}", cores[0]);
    } else {
        println!("cores differ");
    }
    Ok(())
}

/// FNV-1a over the little-endian bytes of `cores`.
pub fn fingerprint(cores: &[u32]) -> u64 {
    cores
        .iter()
        .flat_map(|c| c.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
}
