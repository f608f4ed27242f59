//! `serve-update` and `serve-readwrite`: a durable `CoreService` with
//! default `DurableOptions`, serving a graph that fits its pool through the
//! program's `Server` on 127.0.0.1, driven by closed-loop TCP clients. The
//! run ends with a graceful `Server::shutdown`.
//!
//! The untraced run serves in stretches. After each one the clients rest
//! while child processes time decompositions of the table at the serving
//! pool budget and recoveries (`CoreService::open_catalog`) of a copy of
//! the data directory — of the directory itself after the shutdown. The
//! serving process's memory and the served graph are left as they are.
//!
//! The traced run spends a third of `--seconds` on TCP clients with
//! tracing off (the latency users see), then drives the same op stream
//! in-process, alternating blocks with tracing off and on (the per-layer
//! breakdown, and the tracing overhead).

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kcore_suite::graphstore::{
    self, CacheStats, EvictionPolicy, IoSnapshot, MemGraph, StdVfs, Vfs, DEFAULT_BLOCK_SIZE,
};
use kcore_suite::semicore::{imcore, InMemoryCores, ScanExecutor};
use kcore_suite::{CoreService, DurableOptions, Server, ServerOptions};

use crate::child::{self, Decompositions, Reopens};
use crate::client::{run_phase, Phase, Transport, GRAPH};
use crate::host::{self, Host};
use crate::inputs;
use crate::layers;
use crate::ops::{ClientModel, Mix, Op};
use crate::report::{median, ratio, Outcome};
use crate::trace::{Tracer, TracingVfs};
use crate::{Failure, WorkDir};

/// Journal records (deletes) left for the timed reopens to replay.
const REOPEN_TAIL: u64 = 32;

/// Stretches of the untraced serving phase, each followed by a rest in
/// which decompositions and reopens are timed, so that those timings are
/// spread over the whole run.
const STRETCHES: u32 = 5;

/// Child processes timing decompositions in each rest. A decomposition's
/// time depends on the process it runs in, by up to 30% (where its memory
/// lands), while the ones in one process agree within a few percent: many
/// short children average that out.
const DECOMPOSE_CHILDREN: usize = 2;

/// Wall time of each child's decompositions (one takes ~0.15 s).
const DECOMPOSE_BURST: Duration = Duration::from_millis(500);

/// Wall time of the reopens timed in each rest (one takes ~4 ms).
const REOPEN_BURST: Duration = Duration::from_millis(300);

/// Reopens a traced run times at the least, however slow recovery gets.
const MIN_REOPENS: usize = 3;

/// Alternating untraced/traced in-process block pairs in a traced run.
const INTERLEAVE: u32 = 8;

/// Run a serving workload.
pub fn run(
    workload: &str,
    clients: usize,
    mix: Mix,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &WorkDir,
) -> Result<Outcome, Failure> {
    let host = Host::describe(work.path());
    println!("host {}", host.to_json());
    if host.fsync_is_free() {
        return Err(Failure::Refused(format!(
            "the data directory {} is on {}, where fsync is free; a durable serving \
             measurement there would be meaningless. Run from a checkout on a disk-backed \
             filesystem.",
            work.path().display(),
            host.data_dir_fs
        )));
    }
    let input =
        inputs::prepare(workload, seed, &work.path().join("input")).map_err(Failure::Setup)?;
    println!(
        "graph: {} nodes, {} edges, {} table bytes",
        input.num_nodes, input.num_edges, input.table_bytes
    );
    let tracer = Tracer::new();
    let vfs: Arc<dyn Vfs> = if traced {
        TracingVfs::new(StdVfs::arc(), Arc::clone(&tracer))
    } else {
        StdVfs::arc()
    };
    let mut out = Outcome::default();

    // Set-up, once per table write: durable service, open (decompose, first
    // checkpoint, catalog), server. The last one serves the run.
    let budget = inputs::serve_pool_budget(input.table_bytes);
    let mut setup_s = Vec::new();
    let mut decompose_ios = Vec::new();
    let mut live: Option<(Server, Arc<CoreService>, std::path::PathBuf)> = None;
    for i in 0..input.build_s.len() {
        let dir = work.path().join(format!("data{i}"));
        let t = Instant::now();
        let svc = CoreService::create_durable_with_vfs(
            &dir,
            DEFAULT_BLOCK_SIZE,
            budget,
            EvictionPolicy::ScanLifo,
            ScanExecutor::Sequential,
            DurableOptions::default(),
            Arc::clone(&vfs),
        )
        .and_then(|svc| svc.open(GRAPH, &input.base).map(|()| Arc::new(svc)))
        .map_err(|e| Failure::Setup(format!("durable service: {e}")))?;
        let server = Server::start(Arc::clone(&svc), "127.0.0.1:0", ServerOptions::default())
            .map_err(|e| Failure::Setup(format!("server: {e}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
        let stats = svc
            .with_graph(GRAPH, |idx| Ok(idx.decompose_stats().clone()))
            .map_err(|e| Failure::Setup(e.to_string()))?;
        decompose_ios.push(stats.io.read_ios);
        if let Some((mut server, svc, dir)) = live.replace((server, svc, dir)) {
            server.shutdown();
            drop(server);
            drop(svc);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let (mut server, svc, data_dir) = live.expect("at least one set-up");
    let addr = server.local_addr();
    out.check(decompose_ios.windows(2).all(|w| w[0] == w[1]), || {
        format!("charged reads differ across set-up decompositions: {decompose_ios:?}")
    });
    let served = svc
        .cores(GRAPH)
        .map_err(|e| Failure::Setup(e.to_string()))?;
    out.check(served == input.oracle, || {
        "decomposition at open differs from the IMCore oracle".to_string()
    });

    let models: Vec<ClientModel> = (0..clients)
        .map(|i| ClientModel::new(&input.client_edges, input.num_nodes, i, clients, mix, seed))
        .collect();
    let tcp = Transport::Tcp(addr);
    let local = Transport::InProcess(Arc::clone(&svc), Arc::clone(&tracer));
    let mut acked: Vec<Vec<Op>> = vec![Vec::new(); clients];
    // Timed in the rests of an untraced run: decompositions, reopens (in a
    // traced run, in-process after the shutdown) and the host's speed.
    let (mut decompositions, mut reopen_s) = (Vec::new(), Vec::new());
    let (mut calibration, mut reopens_at_reference) = (Vec::new(), Vec::new());

    let (tcp_phase, traced_phase, models) = if traced {
        let third = Duration::from_secs_f64(seconds / 3.0);
        let a = run_phase(&tcp, models, third, 1 << 60);
        absorb(&a, &mut acked, &mut out);
        // Untraced and traced in-process blocks alternate, so the overhead
        // estimate compares like periods of the run.
        let block = third / INTERLEAVE;
        let mut models = a.models();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let (mut pool_d, mut io_d) = (CacheStats::default(), IoSnapshot::default());
        let vfs0 = tracer.vfs();
        for k in 0..u64::from(INTERLEAVE) {
            let b = run_phase(&local, models, block, (2 << 60) | (k << 50));
            absorb(&b, &mut acked, &mut out);
            let pool0 = svc.pool().stats();
            let io0 = svc.io(GRAPH).map_err(|e| Failure::Setup(e.to_string()))?;
            tracer.enable(true);
            let c = run_phase(&local, b.models(), block, (3 << 60) | (k << 50));
            tracer.enable(false);
            absorb(&c, &mut acked, &mut out);
            pool_d = layers::pool_add(pool_d, layers::pool_delta(svc.pool().stats(), pool0));
            let io1 = svc.io(GRAPH).map_err(|e| Failure::Setup(e.to_string()))?;
            io_d = layers::io_add(io_d, io1.since(&io0));
            models = c.models();
            plain.push(b);
            traced.push(c);
        }
        let (b, c) = (Phase::concat(plain), Phase::concat(traced));
        // The tracer counts Vfs operations only while on: this delta is the
        // traced blocks'.
        let vfs_d = tracer.vfs().since(&vfs0);
        let per_op = |p: &Phase| ratio(p.client_wall_ns() as f64, p.attempts().0 as f64);
        let untraced_per_op = per_op(&b);
        let ops = c.traced().count() as f64;
        let m = &mut out.metrics;
        layers::service_metrics(m, &c, &vfs_d);
        layers::vfs_metrics(m, &vfs_d, ops);
        layers::pool_metrics(m, pool_d, ops);
        layers::io_metrics(m, io_d, ops);
        let residual = layers::print_op_breakdown(&c, &vfs_d);
        m.set("trace.residual_frac", residual, "ratio");
        m.set(
            "trace.overhead_frac",
            ratio(per_op(&c), untraced_per_op) - 1.0,
            "ratio",
        );
        (a, Some(c), models)
    } else {
        let stretch = Duration::from_secs_f64(seconds / f64::from(STRETCHES));
        let mut models = models;
        let mut stretches = Vec::new();
        for k in 0..STRETCHES {
            let mut a = run_phase(&tcp, models, stretch, (1 << 60) | (u64::from(k) << 50));
            absorb(&a, &mut acked, &mut out);
            models = a.take_models();
            stretches.push(a);
            if k + 1 < STRETCHES {
                // The last rest comes after the shutdown, below. The tail
                // goes to the copy; the served graph stays as it is.
                let copy = work.path().join("data-copy");
                let tail = work.path().join("tail.txt");
                let lines: String = tail_deletes(&models[0], &acked)
                    .iter()
                    .map(|(u, v)| format!("{u} {v}\n"))
                    .collect();
                let written = copy_dir(&data_dir, &copy)
                    .and_then(|()| std::fs::write(&tail, lines))
                    .map_err(|e| Failure::Setup(format!("copying the data directory: {e}")));
                let rest = written.and_then(|()| time_rest(&copy, Some(&tail), &input.base));
                let _ = std::fs::remove_dir_all(&copy);
                let (d, r) = rest?;
                out.check(r.cores.is_some(), || {
                    "recoveries of a copy of the data directory differ".to_string()
                });
                calibration.extend(d.iter().flat_map(|d| d.calibration_s.clone()));
                calibration.extend(&r.calibration_s);
                reopens_at_reference.extend(r.at_reference_speed());
                decompositions.extend(d);
                reopen_s.extend(r.wall_s);
            }
        }
        (Phase::concat(stretches), None, models)
    };
    let peak_rss = host::peak_rss_mib();

    for (u, v) in tail_deletes(&models[0], &acked) {
        out.attempted += 1;
        match svc.delete_edge(GRAPH, u, v) {
            Ok(_) => acked[0].push(Op::Delete(u, v)),
            Err(e) => {
                eprintln!("journal top-up: deleting ({u}, {v}) failed: {e}");
                out.failed += 1;
            }
        }
    }

    // Output checks: served cores against an in-memory replay of the
    // acknowledged op stream, and the Theorem 4.1 certificate.
    let served = svc
        .cores(GRAPH)
        .map_err(|e| Failure::Setup(e.to_string()))?;
    let expected = expected_cores(&input.client_edges, input.num_nodes, &acked, &mut out)?;
    out.check(served == expected, || {
        "served cores differ from the replay of the acknowledged ops".to_string()
    });
    out.check(matches!(svc.verify(GRAPH), Ok(true)), || {
        "the Theorem 4.1 certificate does not hold on the served graph".to_string()
    });
    let bytes_per_edge = ratio(
        (inputs::dir_bytes(&data_dir) + input.table_bytes) as f64,
        input.num_edges as f64,
    );

    if let Some(traced_phase) = &traced_phase {
        // Decomposition layers, measured on the served graph's table with
        // the traced storage stack (outside the timed phases).
        tracer.enable(true);
        let charge = graphstore::pool::working_set_charge_budget(&input.base, DEFAULT_BLOCK_SIZE)
            .map_err(|e| Failure::Setup(e.to_string()))?;
        let d = layers::traced_decomposition(&input.base, svc.pool(), charge, &vfs, &tracer)
            .map_err(Failure::Setup)?;
        tracer.enable(false);
        out.check(
            d.cores == input.oracle && d.stats.io.read_ios == decompose_ios[0],
            || "traced decomposition differs from the service's".to_string(),
        );
        let m = &mut out.metrics;
        layers::decomposition_metrics(m, std::slice::from_ref(&d));
        let overhead = |update: bool| {
            let tcp_p50 = tcp_phase.windowed_percentile_us(update, 0.5);
            let calls: Vec<f64> = traced_phase
                .traced()
                .filter(|o| o.op.is_update() == update)
                .map(|o| o.service_ns as f64 / 1e3)
                .collect();
            let call_p50 = median(&calls);
            tcp_p50 - call_p50
        };
        m.set("server.update_overhead_p50_us", overhead(true), "us");
        m.set("server.query_overhead_p50_us", overhead(false), "us");
    }

    // Graceful shutdown, then recoveries of the whole catalog: in-process
    // and traced in a traced run, else in the last rest. Recovery writes
    // nothing, so each one replays the same tail.
    server.shutdown();
    drop(server);
    drop(tcp);
    drop(local);
    let before = served;
    drop(svc);
    let vfs0 = tracer.vfs();
    if traced {
        let start = Instant::now();
        while reopen_s.len() < MIN_REOPENS || start.elapsed() < REOPEN_BURST {
            tracer.enable(true);
            let t = Instant::now();
            let reopened = CoreService::open_catalog_with_vfs(
                &data_dir,
                ScanExecutor::Sequential,
                DurableOptions::default(),
                Arc::clone(&vfs),
            )
            .map_err(|e| Failure::Setup(format!("open_catalog: {e}")))?;
            reopen_s.push(t.elapsed().as_secs_f64());
            tracer.enable(false);
            let after = reopened
                .cores(GRAPH)
                .map_err(|e| Failure::Setup(e.to_string()))?;
            out.check(after == before, || {
                "cores after reopen differ from those before shutdown".to_string()
            });
        }
    } else {
        let (d, r) = time_rest(&data_dir, None, &input.base)?;
        out.check(r.cores == Some(child::fingerprint(&before)), || {
            "cores after reopen differ from those before shutdown".to_string()
        });
        calibration.extend(d.iter().flat_map(|d| d.calibration_s.clone()));
        calibration.extend(&r.calibration_s);
        reopens_at_reference.extend(r.at_reference_speed());
        decompositions.extend(d);
        reopen_s.extend(r.wall_s);
        let ios: Vec<u64> = decompositions
            .iter()
            .flat_map(|d| d.read_ios.clone())
            .collect();
        out.check(ios.iter().all(|&r| r == decompose_ios[0]), || {
            format!(
                "charged reads of the timed decompositions differ from set-up's {}: {ios:?}",
                decompose_ios[0]
            )
        });
        out.check(decompositions.iter().all(|d| d.ok), || {
            "a timed decomposition differs from the IMCore oracle".to_string()
        });
    }

    let m = &mut out.metrics;
    if traced {
        let d = tracer.vfs().since(&vfs0);
        let n = reopen_s.len() as f64;
        m.set("reopen.vfs_read_s", d.read_ns() as f64 / 1e9 / n, "s");
        m.set(
            "reopen.self_s",
            median(&reopen_s) - d.busy_ns() as f64 / 1e9 / n,
            "s",
        );
        let spans = work.root().join(format!("spans-{workload}-{seed}.jsonl"));
        match tracer.write_spans(&spans) {
            Ok(n) => println!(
                "spans: {n} written to {} ({} dropped)",
                spans.display(),
                tracer.dropped()
            ),
            Err(e) => eprintln!("spans: writing {} failed: {e}", spans.display()),
        }
    } else {
        let updates = tcp_phase.latencies_us(true);
        let queries = tcp_phase.latencies_us(false);
        println!(
            "samples: {} updates, {} queries over {:.3} s ({} attempted, {} failed, error_rate {} failed/attempted)",
            updates.len(),
            queries.len(),
            tcp_phase.wall_s,
            out.attempted,
            out.failed,
            ratio(out.failed as f64, out.attempted as f64)
        );
        m.set("setup_s", median(&input.build_s) + median(&setup_s), "s");
        let decompose_s: Vec<f64> = decompositions
            .iter()
            .flat_map(|d| d.wall_s.iter().copied())
            .collect();
        println!(
            "rests, as measured: {} decompositions, median {} s; {} reopens, median {} s; calibration median {} s (reference {} s)",
            decompose_s.len(),
            median(&decompose_s),
            reopen_s.len(),
            median(&reopen_s),
            median(&calibration),
            child::CALIBRATION_REFERENCE_S
        );
        let at_reference: Vec<f64> = decompositions
            .iter()
            .flat_map(Decompositions::at_reference_speed)
            .collect();
        m.set("decompose_s", median(&at_reference), "s");
        m.set("decompose_read_ios", decompose_ios[0] as f64, "blocks");
        m.set("bytes_per_edge", bytes_per_edge, "B");
        m.set("peak_rss_mb", peak_rss, "MiB");
        m.set(
            "update_ops_per_s",
            ratio(updates.len() as f64, tcp_phase.wall_s),
            "ops/s",
        );
        m.set(
            "update_p50_us",
            tcp_phase.windowed_percentile_us(true, 0.5),
            "us",
        );
        m.set(
            "update_p99_us",
            tcp_phase.windowed_percentile_us(true, 0.99),
            "us",
        );
        m.set(
            "query_p50_us",
            tcp_phase.windowed_percentile_us(false, 0.5),
            "us",
        );
        m.set(
            "query_p99_us",
            tcp_phase.windowed_percentile_us(false, 0.99),
            "us",
        );
        m.set("reopen_s", median(&reopens_at_reference), "s");
    }
    Ok(out)
}

/// Fold a phase's attempts and acknowledged updates into the run's.
fn absorb(phase: &Phase, acked: &mut [Vec<Op>], out: &mut Outcome) {
    let (a, f) = phase.attempts();
    out.attempted += a;
    out.failed += f;
    for (mine, theirs) in acked.iter_mut().zip(phase.acked()) {
        mine.extend(theirs);
    }
}

/// The deletes that leave the journal a fixed tail, so every timed reopen
/// replays the same work: recovery cost grows with the tail, and where the
/// clock stopped the clients would otherwise decide it. The first ones
/// finish the current checkpoint interval (every acknowledged update
/// advanced the sequence number by one since the seq-0 checkpoint), then
/// [`REOPEN_TAIL`] more, whose replay cost varies little from edge to
/// edge, form the tail. The edges are ones client 0's `model` holds.
fn tail_deletes(model: &ClientModel, acked: &[Vec<Op>]) -> Vec<(u32, u32)> {
    let every = DurableOptions::default().checkpoint_every;
    let seq: u64 = acked.iter().map(|a| a.len() as u64).sum();
    let to_boundary = (every - seq % every) % every;
    model
        .present_tail((to_boundary + REOPEN_TAIL) as usize)
        .to_vec()
}

/// A rest between stretches: time recoveries of the catalog in `data_dir`,
/// after deleting the edges listed in `tail` from it if given, then
/// decompositions of the table at `base`, in child processes.
fn time_rest(
    data_dir: &Path,
    tail: Option<&Path>,
    base: &Path,
) -> Result<(Vec<Decompositions>, Reopens), Failure> {
    let reopens = child::time_reopens(data_dir, tail, REOPEN_BURST).map_err(Failure::Setup)?;
    let input_dir = base
        .parent()
        .expect("the table lies in the input directory");
    let decompositions = (0..DECOMPOSE_CHILDREN)
        .map(|_| child::time_decompositions(input_dir, DECOMPOSE_BURST))
        .collect::<Result<_, _>>()
        .map_err(Failure::Setup)?;
    Ok((decompositions, reopens))
}

/// Copy the regular files under `from` to `to`, recursively.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Core numbers after the clients' acknowledged updates, twice over: an
/// in-memory replay (`InMemoryCores`) of the stream's net effect on the
/// input graph, and IMCore's peeling of the final edge set, which shares no
/// code with the maintenance kernels. Both must agree with each other.
///
/// Every client deletes only edges of the input graph and reinserts only
/// its own deletions, so an edge is absent at the end exactly when its last
/// acknowledged op was a delete; clients own disjoint edges, so their
/// interleaving does not matter. Replaying the net effect keeps the check's
/// cost independent of how many ops the server acknowledged.
fn expected_cores(
    edges: &[(u32, u32)],
    num_nodes: u32,
    acked: &[Vec<Op>],
    out: &mut Outcome,
) -> Result<Vec<u32>, Failure> {
    let mut last: HashMap<(u32, u32), bool> = HashMap::new();
    for op in acked.iter().flatten() {
        match *op {
            Op::Insert(u, v) => last.insert((u, v), true),
            Op::Delete(u, v) => last.insert((u, v), false),
            Op::Core(_) | Op::Kmax => None,
        };
    }
    let mut deleted: Vec<(u32, u32)> = last
        .into_iter()
        .filter_map(|(e, present)| (!present).then_some(e))
        .collect();
    deleted.sort_unstable();
    let g = MemGraph::from_edges(edges.iter().copied(), num_nodes);
    let mut replay = InMemoryCores::new(&g).map_err(|e| Failure::Setup(e.to_string()))?;
    for &(u, v) in &deleted {
        replay
            .delete_edge(u, v)
            .map_err(|e| Failure::Setup(format!("replaying delete ({u}, {v}): {e}")))?;
    }
    let gone: HashSet<(u32, u32)> = deleted.into_iter().collect();
    let rest = edges.iter().copied().filter(|e| !gone.contains(e));
    let peeled = imcore(&MemGraph::from_edges(rest, num_nodes)).core;
    out.check(peeled == replay.cores(), || {
        "the in-memory replay disagrees with IMCore on the final edge set".to_string()
    });
    Ok(peeled)
}
