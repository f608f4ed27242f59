//! `decompose`: an RMAT web-like graph several times larger than the
//! memory the program may use, the paper's semi-external setting. A
//! non-durable `CoreService` whose pool budget and per-graph charge budget
//! are a tenth of the table bytes opens the graph (decomposing it with
//! SemiCore*) and evicts it, repetition after repetition; it applies the
//! paper's §VI maintenance stream in-process to the out-of-cache graph; and
//! it restarts, which for a non-durable service is a fresh open and
//! decomposition. An untraced run does the three in each of five rounds;
//! a traced run does each once, in turn.
//!
//! No WAL, fsync or TCP is on this path: it is the control for changes to
//! those layers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kcore_suite::graphstore::{EvictionPolicy, StdVfs, Vfs, DEFAULT_BLOCK_SIZE};
use kcore_suite::semicore::{RunStats, ScanExecutor};
use kcore_suite::CoreService;

use crate::child;
use crate::client::{run_phase, Phase, Transport, GRAPH};
use crate::host::{self, Host};
use crate::inputs::{self, Prepared};
use crate::layers::{self, TracedDecomposition};
use crate::ops::{ClientModel, Mix};
use crate::report::{median, ratio, Outcome};
use crate::trace::{Tracer, TracingVfs};
use crate::{Failure, WorkDir};

/// Decompositions timed at the least, however short the run.
const MIN_REPS: usize = 3;

/// Rounds of an untraced run: each times repetitions, drives a stretch of
/// the maintenance stream and restarts, so that every timing is spread
/// over the whole run.
const ROUNDS: u32 = 5;

/// Share of a round spent on repeated decompositions.
const DECOMPOSE_SHARE: f64 = 0.3;

/// Share of a round spent on the maintenance stream; the rest of the
/// round's time goes to opening the graph for it, reinserting its
/// deletions and restarting.
const MAINTAIN_SHARE: f64 = 0.4;

/// The maintenance stream's mix. Queries cost microseconds in-process, so
/// many per update give their tail percentile enough samples at almost no
/// cost to the run.
const MIX: Mix = Mix {
    updates: 1,
    queries: 8,
};

/// Run the decompose workload.
pub fn run(seed: u64, seconds: f64, traced: bool, work: &WorkDir) -> Result<Outcome, Failure> {
    let host = Host::describe(work.path());
    println!("host {}", host.to_json());
    let input =
        inputs::prepare("decompose", seed, &work.path().join("input")).map_err(Failure::Setup)?;
    let block = DEFAULT_BLOCK_SIZE as u64;
    let budget = (input.table_bytes / 10 / block).max(2) * block;
    println!(
        "graph: {} nodes, {} edges, {} table bytes; pool and charge budget {} bytes",
        input.num_nodes, input.num_edges, input.table_bytes, budget
    );
    let tracer = Tracer::new();
    let vfs: Arc<dyn Vfs> = if traced {
        TracingVfs::new(StdVfs::arc(), Arc::clone(&tracer))
    } else {
        StdVfs::arc()
    };
    let service = || {
        CoreService::with_config_vfs(
            DEFAULT_BLOCK_SIZE,
            budget,
            EvictionPolicy::ScanLifo,
            ScanExecutor::Sequential,
            Arc::clone(&vfs),
        )
        .map(Arc::new)
        .map_err(|e| Failure::Setup(format!("service: {e}")))
    };
    let mut service_s = Vec::new();
    let mut svc = None;
    for _ in 0..input.build_s.len() {
        let t = Instant::now();
        svc = Some(service()?);
        service_s.push(t.elapsed().as_secs_f64());
    }
    let svc = svc.expect("at least one set-up");
    let mut out = Outcome::default();

    // A warm-up repetition fixes the reference charge and cores.
    let (first, cores) = decompose_once(&svc, &input, budget, &mut out)?;
    out.check(cores == input.oracle, || {
        "SemiCore* cores differ from the IMCore oracle".to_string()
    });
    let reference = first.io.read_ios;

    let mut untraced: Vec<RunStats> = Vec::new();
    let mut restarts = Vec::new();
    // Untraced: the host's speed (see `child::Calibration`), and the
    // repetitions and restarts at the reference host speed.
    let mut calibration = Vec::new();
    let (mut decompose_s, mut reopen_s) = (Vec::new(), Vec::new());
    let mut blocks = Vec::new();
    let mut svc = svc;
    if traced {
        repetitions(
            &svc,
            &input,
            budget,
            reference,
            seconds / 3.0,
            MIN_REPS,
            &mut untraced,
            &mut out,
        )?;
        let mut traced_runs: Vec<TracedDecomposition> = Vec::new();
        let pool0 = svc.pool().stats();
        let vfs0 = tracer.vfs();
        tracer.enable(true);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / 3.0);
        while traced_runs.len() < MIN_REPS || Instant::now() < deadline {
            let d = layers::traced_decomposition(&input.base, svc.pool(), budget, &vfs, &tracer)
                .map_err(Failure::Setup)?;
            out.attempted += 1;
            out.check(
                d.cores == input.oracle && d.stats.io.read_ios == reference,
                || {
                    format!(
                        "traced decomposition differs: {} charged reads (untraced {reference})",
                        d.stats.io.read_ios
                    )
                },
            );
            traced_runs.push(d);
        }
        tracer.enable(false);
        let n = traced_runs.len() as f64;
        let m = &mut out.metrics;
        layers::decomposition_metrics(m, &traced_runs);
        let io = traced_runs
            .iter()
            .fold(Default::default(), |acc, r| layers::io_add(acc, r.stats.io));
        layers::io_metrics(m, io, n);
        layers::pool_metrics(m, layers::pool_delta(svc.pool().stats(), pool0), n);
        layers::vfs_metrics(m, &tracer.vfs().since(&vfs0), n);
        let residual = layers::print_decomposition_breakdown(&traced_runs);
        m.set("trace.residual_frac", residual, "ratio");
        let traced_s: Vec<f64> = traced_runs
            .iter()
            .map(|r| r.stats.wall_time.as_secs_f64())
            .collect();
        m.set(
            "trace.overhead_frac",
            median(&traced_s) / median(&wall_times(&untraced)) - 1.0,
            "ratio",
        );

        // Maintenance on the out-of-cache graph, in-process, then restarts.
        let model = ClientModel::new(&input.client_edges, input.num_nodes, 0, 1, MIX, seed);
        let (phase, _) = maintain(
            &svc,
            &input,
            model,
            seconds / 3.0,
            &tracer,
            true,
            1 << 60,
            &mut out,
        )?;
        blocks.push(phase);
        drop(svc);
        let vfs0 = tracer.vfs();
        for _ in 0..input.build_s.len() {
            let (_, s) = restart(&service, &input, budget, &tracer, true, &mut out)?;
            restarts.push(s);
        }
        let d = tracer.vfs().since(&vfs0);
        let n = restarts.len() as f64;
        let m = &mut out.metrics;
        m.set("reopen.vfs_read_s", d.read_ns() as f64 / 1e9 / n, "s");
        m.set(
            "reopen.self_s",
            median(&restarts) - d.busy_ns() as f64 / 1e9 / n,
            "s",
        );
    } else {
        // Rounds of repetitions, a stretch of the maintenance stream and a
        // restart, so that every timing is spread over the whole run.
        let round = seconds / f64::from(ROUNDS);
        let mut model = ClientModel::new(&input.client_edges, input.num_nodes, 0, 1, MIX, seed);
        let calibrate = || child::calibrate().map_err(Failure::Setup);
        for r in 0..ROUNDS {
            let min = MIN_REPS.div_ceil(ROUNDS as usize);
            let first = untraced.len();
            let before = calibrate()?;
            repetitions(
                &svc,
                &input,
                budget,
                reference,
                round * DECOMPOSE_SHARE,
                min,
                &mut untraced,
                &mut out,
            )?;
            let req = (1 << 60) | (u64::from(r) << 50);
            let (phase, m) = maintain(
                &svc,
                &input,
                model,
                round * MAINTAIN_SHARE,
                &tracer,
                false,
                req,
                &mut out,
            )?;
            model = m;
            blocks.push(phase);
            drop(svc);
            let (fresh, s) = restart(&service, &input, budget, &tracer, false, &mut out)?;
            svc = fresh;
            restarts.push(s);
            // The round's host speed: calibrations before its repetitions
            // and after its restart.
            let round_speed = [before, calibrate()?];
            decompose_s.extend(child::at_reference_speed(
                &wall_times(&untraced[first..]),
                &round_speed,
            ));
            reopen_s.extend(child::at_reference_speed(&[s], &round_speed));
            calibration.extend(round_speed);
        }
    }
    let peak_rss = host::peak_rss_mib();
    let phase = Phase::concat(blocks);
    let wall_s = wall_times(&untraced);

    let m = &mut out.metrics;
    if traced {
        // No server on this path.
        m.set("server.update_overhead_p50_us", 0.0, "us");
        m.set("server.query_overhead_p50_us", 0.0, "us");
        let spans = work.root().join(format!("spans-decompose-{seed}.jsonl"));
        match tracer.write_spans(&spans) {
            Ok(n) => println!(
                "spans: {n} written to {} ({} dropped)",
                spans.display(),
                tracer.dropped()
            ),
            Err(e) => eprintln!("spans: writing {} failed: {e}", spans.display()),
        }
    } else {
        let updates = phase.latencies_us(true);
        let queries = phase.latencies_us(false);
        println!(
            "samples: {} decompositions, {} updates, {} queries ({} attempted, {} failed, error_rate {} failed/attempted)",
            wall_s.len(),
            updates.len(),
            queries.len(),
            out.attempted,
            out.failed,
            ratio(out.failed as f64, out.attempted as f64)
        );
        println!(
            "as measured: decomposition median {} s, restart median {} s; calibration median {} s (reference {} s)",
            median(&wall_s),
            median(&restarts),
            median(&calibration),
            child::CALIBRATION_REFERENCE_S
        );
        m.set("setup_s", median(&input.build_s) + median(&service_s), "s");
        m.set("decompose_s", median(&decompose_s), "s");
        m.set("decompose_read_ios", reference as f64, "blocks");
        m.set(
            "bytes_per_edge",
            ratio(input.table_bytes as f64, input.num_edges as f64),
            "B",
        );
        m.set("peak_rss_mb", peak_rss, "MiB");
        m.set(
            "update_ops_per_s",
            ratio(updates.len() as f64, phase.wall_s),
            "ops/s",
        );
        m.set(
            "update_p50_us",
            phase.windowed_percentile_us(true, 0.5),
            "us",
        );
        m.set(
            "update_p99_us",
            phase.windowed_percentile_us(true, 0.99),
            "us",
        );
        m.set(
            "query_p50_us",
            phase.windowed_percentile_us(false, 0.5),
            "us",
        );
        m.set(
            "query_p99_us",
            phase.windowed_percentile_us(false, 0.99),
            "us",
        );
        m.set("reopen_s", median(&reopen_s), "s");
    }
    Ok(out)
}

/// Timed repetitions for `seconds`, and at least `min` of them, each
/// checked against the oracle and the `reference` charge.
#[allow(clippy::too_many_arguments)]
fn repetitions(
    svc: &CoreService,
    input: &Prepared,
    budget: u64,
    reference: u64,
    seconds: f64,
    min: usize,
    reps: &mut Vec<RunStats>,
    out: &mut Outcome,
) -> Result<(), Failure> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = 0;
    while done < min || Instant::now() < deadline {
        let (stats, cores) = decompose_once(svc, input, budget, out)?;
        out.check(
            cores == input.oracle && stats.io.read_ios == reference,
            || {
                format!(
                    "repetition {} differs: {} charged reads (first {reference})",
                    reps.len() + 1,
                    stats.io.read_ios
                )
            },
        );
        reps.push(stats);
        done += 1;
    }
    Ok(())
}

/// Wall times of decompositions, in seconds.
fn wall_times(runs: &[RunStats]) -> Vec<f64> {
    runs.iter().map(|s| s.wall_time.as_secs_f64()).collect()
}

/// Restart: a fresh non-durable service re-opens the graph, and so
/// re-decomposes it. Returns the service, its graph evicted, and the time
/// from creating it to the end of the open.
fn restart(
    service: &dyn Fn() -> Result<Arc<CoreService>, Failure>,
    input: &Prepared,
    budget: u64,
    tracer: &Tracer,
    traced: bool,
    out: &mut Outcome,
) -> Result<(Arc<CoreService>, f64), Failure> {
    tracer.enable(traced);
    let t = Instant::now();
    let fresh = service()?;
    fresh
        .open_with_charge(GRAPH, &input.base, budget)
        .map_err(|e| Failure::Setup(format!("reopen: {e}")))?;
    let s = t.elapsed().as_secs_f64();
    tracer.enable(false);
    out.attempted += 1;
    let cores = fresh
        .cores(GRAPH)
        .map_err(|e| Failure::Setup(e.to_string()))?;
    out.check(cores == input.oracle, || {
        "cores after restart differ from the IMCore oracle".to_string()
    });
    fresh
        .evict(GRAPH)
        .map_err(|e| Failure::Setup(e.to_string()))?;
    Ok((fresh, s))
}

/// Open (and so decompose) the graph, read its statistics and cores, evict.
fn decompose_once(
    svc: &CoreService,
    input: &Prepared,
    budget: u64,
    out: &mut Outcome,
) -> Result<(RunStats, Vec<u32>), Failure> {
    out.attempted += 1;
    svc.open_with_charge(GRAPH, &input.base, budget)
        .map_err(|e| Failure::Setup(format!("open_with_charge: {e}")))?;
    let res = svc
        .with_graph(GRAPH, |idx| {
            Ok((idx.decompose_stats().clone(), idx.cores().to_vec()))
        })
        .map_err(|e| Failure::Setup(e.to_string()))?;
    svc.evict(GRAPH)
        .map_err(|e| Failure::Setup(e.to_string()))?;
    Ok(res)
}

/// The maintenance stream of `model` for `seconds`, then reinserts of
/// every edge still deleted, so the graph ends where it began. Returns the
/// phase and the model, to continue the stream from.
#[allow(clippy::too_many_arguments)]
fn maintain(
    svc: &Arc<CoreService>,
    input: &Prepared,
    model: ClientModel,
    seconds: f64,
    tracer: &Arc<Tracer>,
    traced: bool,
    req_base: u64,
    out: &mut Outcome,
) -> Result<(Phase, ClientModel), Failure> {
    // The charge budget equals the pool budget, as in the repetitions.
    svc.open_with_charge(GRAPH, &input.base, svc.pool().budget_bytes())
        .map_err(|e| Failure::Setup(format!("open_with_charge: {e}")))?;
    let local = Transport::InProcess(Arc::clone(svc), Arc::clone(tracer));
    let vfs0 = tracer.vfs();
    tracer.enable(traced);
    let mut phase = run_phase(
        &local,
        vec![model],
        Duration::from_secs_f64(seconds),
        req_base,
    );
    tracer.enable(false);
    let (a, f) = phase.attempts();
    out.attempted += a;
    out.failed += f;
    if traced {
        let d = tracer.vfs().since(&vfs0);
        layers::service_metrics(&mut out.metrics, &phase, &d);
        println!("(maintenance phase)");
        layers::print_op_breakdown(&phase, &d);
    }
    let mut model = phase.take_models().pop().expect("one client");
    for (u, v) in model.drain() {
        out.attempted += 1;
        if let Err(e) = svc.insert_edge(GRAPH, u, v) {
            eprintln!("reinsert ({u}, {v}) failed: {e}");
            out.failed += 1;
        }
    }
    let cores = svc
        .cores(GRAPH)
        .map_err(|e| Failure::Setup(e.to_string()))?;
    out.check(cores == input.oracle, || {
        "cores after the maintenance stream and its reinserts differ from the oracle".to_string()
    });
    out.check(matches!(svc.verify(GRAPH), Ok(true)), || {
        "the Theorem 4.1 certificate does not hold after maintenance".to_string()
    });
    svc.evict(GRAPH)
        .map_err(|e| Failure::Setup(e.to_string()))?;
    Ok((phase, model))
}
