//! Recovery cost — reopening a maintained catalog vs re-decomposing.
//!
//! The durable serving layer's promise: after a restart (clean or
//! `SIGKILL`), `CoreService::open_catalog` restores a graph's maintained
//! core numbers from its checkpoint plus a journal-tail replay, instead of
//! re-running the multi-pass decomposition. This bench prices the promise
//! in the paper's currency — charged read I/Os — across three restart
//! scenarios on a web-like R-MAT graph:
//!
//! * **decompose** — the baseline: opening the graph fresh (what a
//!   non-durable restart must pay);
//! * **reopen (clean)** — restart after a checkpoint: one sequential
//!   checkpoint scan, empty journal;
//! * **reopen (tail)** — restart after a kill mid-stream: checkpoint scan
//!   plus replay of the journal tail (bounded by `checkpoint_every`).
//!
//! Run with `--json BENCH_recovery.json` to append machine-readable lines.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin recovery \
//!     [-- --edges 60000 --ops 40 --json BENCH_recovery.json]
//! ```

use std::io::Write as _;
use std::time::Instant;

use graphstore::{EvictionPolicy, TempDir, DEFAULT_BLOCK_SIZE};
use kcore_bench::harness::{fmt_count, graph_standin, Args, Table};
use kcore_suite::{CoreService, DurableOptions};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use semicore::ScanExecutor;

fn main() -> graphstore::Result<()> {
    let args = Args::parse();
    let edges: u64 = args.get_num("edges", 60_000);
    let ops: u64 = args.get_num("ops", 40);
    let checkpoint_every: u64 = args.get_num("checkpoint-every", 16);
    let json_path = args.get("json", "");
    let dir = TempDir::new("recovery-bench")?;

    let g = graph_standin("rmat", edges, 16);
    let base = dir.path().join("g");
    let data = dir.path().join("data");
    let n = g.num_nodes();

    // Build + decompose once through the durable service; its decompose
    // stats are the baseline a restart would otherwise re-pay.
    let svc = CoreService::create_durable_with(
        &data,
        DEFAULT_BLOCK_SIZE,
        64 << 20,
        EvictionPolicy::ScanLifo,
        ScanExecutor::Sequential,
        DurableOptions {
            checkpoint_every,
            ..Default::default()
        },
    )?;
    let t0 = Instant::now();
    svc.create("g", &base, g.edges(), n)?;
    let decompose_wall_ns = t0.elapsed().as_nanos();
    let decompose_ios = svc.with_graph("g", |idx| Ok(idx.decompose_stats().io.read_ios))?;

    // A seeded maintenance stream; threshold checkpoints fire along the way.
    let mut rng = SmallRng::seed_from_u64(0x5EC0);
    let mut mirror = graphstore::DynGraph::from_mem(&g);
    let mut applied = 0u64;
    while applied < ops {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a == b {
            continue;
        }
        if mirror.has_edge(a, b) {
            svc.delete_edge("g", a, b)?;
            mirror.delete_edge(a, b)?;
        } else {
            svc.insert_edge("g", a, b)?;
            mirror.insert_edge(a, b)?;
        }
        applied += 1;
    }
    let kmax = svc.kmax("g")?;

    // Scenario: kill mid-stream (no save) — journal tail replayed.
    drop(svc);
    let t0 = Instant::now();
    let svc = CoreService::open_catalog(&data)?;
    let tail_wall_ns = t0.elapsed().as_nanos();
    let tail_ios = svc.io("g")?.read_ios;
    assert_eq!(svc.kmax("g")?, kmax, "tail reopen must restore exact state");

    // Scenario: clean shutdown — checkpoint scan only.
    svc.save_all()?;
    drop(svc);
    let t0 = Instant::now();
    let svc = CoreService::open_catalog(&data)?;
    let clean_wall_ns = t0.elapsed().as_nanos();
    let clean_ios = svc.io("g")?.read_ios;
    assert_eq!(
        svc.kmax("g")?,
        kmax,
        "clean reopen must restore exact state"
    );
    assert!(
        clean_ios < decompose_ios && tail_ios < decompose_ios,
        "reopen ({clean_ios} clean / {tail_ios} tail read I/Os) must charge \
         strictly below re-decomposition ({decompose_ios})"
    );

    println!(
        "Recovery cost — {} nodes, {} edges, {} maintenance ops, checkpoint every {}\n",
        fmt_count(n as u64),
        fmt_count(mirror.num_edges()),
        fmt_count(ops),
        checkpoint_every,
    );
    let mut t = Table::new(&["scenario", "charged read I/Os", "vs decompose", "wall (ms)"]);
    let mut json = String::new();
    for (scenario, ios, wall_ns) in [
        ("decompose (fresh open)", decompose_ios, decompose_wall_ns),
        ("reopen (journal tail)", tail_ios, tail_wall_ns),
        ("reopen (clean save)", clean_ios, clean_wall_ns),
    ] {
        t.row(vec![
            scenario.to_string(),
            fmt_count(ios),
            format!("{:.1}%", 100.0 * ios as f64 / decompose_ios.max(1) as f64),
            format!("{:.2}", wall_ns as f64 / 1e6),
        ]);
        json.push_str(&format!(
            "{{\"bench\":\"recovery\",\"scenario\":\"{scenario}\",\"edges\":{edges},\"ops\":{ops},\"read_ios\":{ios},\"decompose_read_ios\":{decompose_ios},\"wall_ns\":{wall_ns}}}\n",
        ));
    }
    t.print();
    println!(
        "\nExpected shape: both reopen rows strictly below the decompose row\n\
         (asserted). The clean reopen is the steady-state restart — one\n\
         checkpoint scan; the tail reopen adds the replay of at most\n\
         checkpoint_every journaled ops."
    );

    if !json_path.is_empty() {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&json_path)?;
        f.write_all(json.as_bytes())?;
        println!("\nresults appended to {json_path}");
    }
    Ok(())
}
