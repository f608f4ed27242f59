//! Multi-client serving load: sustained throughput, latency and journal
//! fsyncs for `N` concurrent clients mixing maintenance and queries on
//! **one shared durable graph**, at 1, 2 and `--clients` clients.
//!
//! Every durable graph journals through one group-commit journal: an
//! update is appended under the graph lock, and its fsync runs after the
//! lock is released, covering every update journaled before it starts (no
//! gather window). An `Ok` is only returned once the op's journal record
//! is on disk. The shared graph is the hard case on purpose: every update
//! serializes on the same graph lock, so shared fsyncs are the *only*
//! available win.
//!
//! Each client owns a disjoint slice of the node-pair space (pair `(u,v)`
//! belongs to client `(u + v) mod N`), so its toggles stay valid under
//! any interleaving and the final state is schedule-independent.
//!
//! The binary is also the journal-batching regression gate: it **fails
//! loudly** (non-zero exit) if, at the multi-client point, the journal
//! issues no fewer fsyncs than acknowledged updates. Throughput is not
//! gated here; the tracked benchmark (`perfbench`, `serve-readwrite`)
//! bounds it.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin serve_load \
//!     [-- --clients 4 --ops 200 --smoke --json BENCH_serve.json]
//! ```

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use graphstore::{EvictionPolicy, FaultPlan, FaultVfs, TempDir, Vfs, DEFAULT_BLOCK_SIZE};
use kcore_bench::harness::{fmt_count, Args, Table};
use kcore_suite::{CoreService, DurableOptions};
use semicore::ScanExecutor;

const GRAPH: &str = "shared";
const NODES: u32 = 48;

/// The client's toggle schedule over its own pair slice, valid by
/// construction: pair `(u,v)` starts in `base` or not, and alternates.
fn client_toggles(c: usize, clients: usize, ops: usize) -> Vec<(u32, u32)> {
    let mut mine = Vec::new();
    for u in 0..NODES {
        for v in (u + 1)..NODES {
            if (u + v) as usize % clients == c {
                mine.push((u, v));
            }
        }
    }
    // Walk the slice round-robin with a stride so consecutive ops touch
    // different regions of the adjacency table.
    (0..ops).map(|i| mine[(i * 7 + c) % mine.len()]).collect()
}

struct LoadResult {
    ops_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    fsyncs: u64,
}

/// Run the full fleet once.
fn run_load(clients: usize, ops: usize) -> graphstore::Result<LoadResult> {
    let dir = TempDir::new("serve-load")?;
    let fault = FaultVfs::new(FaultPlan::default());
    let svc = Arc::new(CoreService::create_durable_with_vfs(
        &dir.path().join("data"),
        DEFAULT_BLOCK_SIZE,
        16 << 20,
        EvictionPolicy::ScanLifo,
        ScanExecutor::Sequential,
        DurableOptions {
            checkpoint_every: u64::MAX, // isolate journal batching from checkpoints
            ..Default::default()
        },
        Arc::clone(&fault) as Arc<dyn Vfs>,
    )?);
    // Base graph: a ring, so no client pair collides with a base edge
    // except its own (0 strides handle presence via the local set anyway).
    let base: Vec<(u32, u32)> = (0..NODES).map(|u| (u, (u + 1) % NODES)).collect();
    svc.create(GRAPH, &dir.path().join("base"), base.iter().copied(), NODES)?;
    let base_set: std::collections::BTreeSet<(u32, u32)> =
        base.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();

    let before = fault.sync_events();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let svc = Arc::clone(&svc);
            let toggles = client_toggles(c, clients, ops);
            let mut present: std::collections::BTreeSet<(u32, u32)> = base_set
                .iter()
                .copied()
                .filter(|&(u, v)| (u + v) as usize % clients == c)
                .collect();
            std::thread::spawn(move || -> graphstore::Result<Vec<u64>> {
                let mut lat = Vec::with_capacity(toggles.len());
                for (i, &e) in toggles.iter().enumerate() {
                    let t = Instant::now();
                    if present.remove(&e) {
                        svc.delete_edge(GRAPH, e.0, e.1)?;
                    } else {
                        present.insert(e);
                        svc.insert_edge(GRAPH, e.0, e.1)?;
                    }
                    lat.push(t.elapsed().as_micros() as u64);
                    // Mixed load: every few updates, a query rides along
                    // (answered from memory, no fsync).
                    if i % 4 == 0 {
                        let _ = svc.kmax(GRAPH)?;
                    }
                }
                Ok(lat)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(clients * ops);
    for h in handles {
        latencies.extend(h.join().expect("client thread")?);
    }
    let elapsed = t0.elapsed();
    let fsyncs = fault.sync_events() - before;

    latencies.sort_unstable();
    Ok(LoadResult {
        ops_per_sec: (clients * ops) as f64 / elapsed.as_secs_f64(),
        p50_us: latencies[latencies.len() / 2],
        p99_us: latencies[(latencies.len() * 99) / 100 - 1],
        fsyncs,
    })
}

fn main() -> graphstore::Result<()> {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let clients: usize = args.get_num("clients", 4);
    let ops: usize = args.get_num("ops", if smoke { 60 } else { 200 });
    let json_path = args.get("json", "");

    println!(
        "Serving load — up to {clients} clients × {ops} updates on one shared graph\n\
         (queries ride along 1:4)\n"
    );

    let mut t = Table::new(&[
        "clients",
        "ops/sec",
        "p50 latency",
        "p99 latency",
        "fsyncs",
        "updates",
    ]);
    let mut json = String::new();
    let mut counts: Vec<usize> = vec![1, 2, clients];
    counts.retain(|&n| n > 0 && n <= clients);
    counts.dedup();
    let mut last = None;
    for &n in &counts {
        let r = run_load(n, ops)?;
        let updates = (n * ops) as u64;
        t.row(vec![
            n.to_string(),
            format!("{:.0}", r.ops_per_sec),
            format!("{} µs", fmt_count(r.p50_us)),
            format!("{} µs", fmt_count(r.p99_us)),
            fmt_count(r.fsyncs),
            fmt_count(updates),
        ]);
        json.push_str(&format!(
            "{{\"bench\":\"serve_load\",\"clients\":{n},\"ops\":{ops},\"ops_per_sec\":{:.1},\"p50_us\":{},\"p99_us\":{},\"fsyncs\":{},\"updates\":{updates}}}\n",
            r.ops_per_sec, r.p50_us, r.p99_us, r.fsyncs
        ));
        last = Some((n, r.fsyncs, updates));
    }
    t.print();

    if !json_path.is_empty() {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&json_path)?;
        f.write_all(json.as_bytes())?;
        println!("results appended to {json_path}");
    }

    // Regression gate at the multi-client point: concurrent updates must
    // share journal fsyncs — otherwise the barrier protocol is not
    // batching at all.
    let (n, fsyncs, updates) = last.expect("at least one client count ran");
    println!("\nat {n} clients: {fsyncs} fsyncs for {updates} acknowledged updates");
    if n >= 2 && fsyncs >= updates {
        eprintln!("JOURNAL BATCHING REGRESSION: {fsyncs} fsyncs >= {updates} updates");
        std::process::exit(1);
    }
    Ok(())
}
