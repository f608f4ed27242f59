//! Compaction dividend — durable footprint and recovery cost, before vs
//! after folding buffered edits into a fresh table generation.
//!
//! A durable graph that only journals and checkpoints carries its whole
//! maintenance history forever: the checkpoint's buffered-edit list and
//! the journal tail both grow with the stream, and every restart re-pays
//! their replay in charged read I/Os. `CoreService::compact` bakes the
//! edits into a new generation of table files and truncates both. This
//! bench prices that on the paper's charged-block model:
//!
//! * **before** — kill mid-stream, reopen: checkpoint scan (edit list
//!   included) plus journal-tail replay;
//! * **after** — compact, kill, reopen: fresh tables, empty edit list,
//!   empty journal — nothing to replay.
//!
//! The binary is the compaction regression gate: it exits non-zero if the
//! compacted reopen does not charge strictly fewer read I/Os, or if the
//! data directory (checkpoint + journal) does not shrink strictly.
//!
//! Run with `--json BENCH_compact.json` to append machine-readable lines.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin compaction \
//!     [-- --edges 60000 --ops 200 --json BENCH_compact.json]
//! ```

use std::io::Write as _;
use std::time::Instant;

use graphstore::{EvictionPolicy, TempDir, DEFAULT_BLOCK_SIZE};
use kcore_bench::harness::{fmt_count, graph_standin, Args, Table};
use kcore_suite::{CoreService, DurableOptions};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use semicore::ScanExecutor;

/// Bytes currently held by the durable data directory — catalog,
/// checkpoints and journals; the bound compaction is supposed to enforce.
fn dir_bytes(dir: &std::path::Path) -> graphstore::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

fn main() -> graphstore::Result<()> {
    let args = Args::parse();
    let edges: u64 = args.get_num("edges", 60_000);
    let ops: u64 = args.get_num("ops", 200);
    let checkpoint_every: u64 = args.get_num("checkpoint-every", 16);
    let json_path = args.get("json", "");
    let dir = TempDir::new("compaction-bench")?;

    let g = graph_standin("rmat", edges, 16);
    let base = dir.path().join("g");
    let data = dir.path().join("data");
    let n = g.num_nodes();

    let svc = CoreService::create_durable_with(
        &data,
        DEFAULT_BLOCK_SIZE,
        64 << 20,
        EvictionPolicy::ScanLifo,
        ScanExecutor::Sequential,
        DurableOptions {
            checkpoint_every,
            // The bench forces its one compaction explicitly; the
            // threshold must not fire on its own mid-stream.
            ..Default::default()
        },
    )?;
    svc.create("g", &base, g.edges(), n)?;

    // A seeded maintenance stream; threshold checkpoints fire along the
    // way, so the pre-compaction checkpoint carries a real edit list.
    let mut rng = SmallRng::seed_from_u64(0xC0DE);
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

    // Before: kill mid-stream, reopen — checkpoint edit list plus journal
    // tail, all replayed.
    drop(svc);
    let before_bytes = dir_bytes(&data)?;
    let t0 = Instant::now();
    let svc = CoreService::open_catalog(&data)?;
    let before_wall_ns = t0.elapsed().as_nanos();
    let before_ios = svc.io("g")?.read_ios;
    assert_eq!(svc.kmax("g")?, kmax, "pre-compaction reopen must be exact");

    // Compact, kill again, reopen — nothing left to replay.
    let generation = svc.compact("g")?;
    drop(svc);
    let after_bytes = dir_bytes(&data)?;
    let t0 = Instant::now();
    let svc = CoreService::open_catalog(&data)?;
    let after_wall_ns = t0.elapsed().as_nanos();
    let after_ios = svc.io("g")?.read_ios;
    assert_eq!(svc.kmax("g")?, kmax, "post-compaction reopen must be exact");
    let pending = svc.with_graph("g", |idx| Ok(idx.graph_mut().pending_edits()))?;
    assert_eq!(pending, 0, "compacted graph must reopen with no edits");

    // The regression gate: compaction must strictly shrink both the
    // durable footprint and the recovery charge.
    assert!(
        after_ios < before_ios,
        "compacted reopen charged {after_ios} read I/Os, replay charged \
         {before_ios}: compaction must make recovery strictly cheaper"
    );
    assert!(
        after_bytes < before_bytes,
        "data dir grew across compaction ({before_bytes} -> {after_bytes} B): \
         checkpoint + journal must shrink"
    );

    println!(
        "Compaction dividend — {} nodes, {} edges, {} maintenance ops, \
         checkpoint every {}, now generation {}\n",
        fmt_count(n as u64),
        fmt_count(mirror.num_edges()),
        fmt_count(ops),
        checkpoint_every,
        generation,
    );
    let mut t = Table::new(&[
        "scenario",
        "data dir (B)",
        "reopen charged read I/Os",
        "reopen wall (ms)",
    ]);
    let mut json = String::new();
    for (scenario, bytes, ios, wall_ns) in [
        (
            "before (ckpt + journal replay)",
            before_bytes,
            before_ios,
            before_wall_ns,
        ),
        (
            "after (compacted, gen tables)",
            after_bytes,
            after_ios,
            after_wall_ns,
        ),
    ] {
        t.row(vec![
            scenario.to_string(),
            fmt_count(bytes),
            fmt_count(ios),
            format!("{:.2}", wall_ns as f64 / 1e6),
        ]);
        json.push_str(&format!(
            "{{\"bench\":\"compaction\",\"scenario\":\"{scenario}\",\"edges\":{edges},\"ops\":{ops},\"durable_bytes\":{bytes},\"read_ios\":{ios},\"wall_ns\":{wall_ns},\"generation\":{generation}}}\n",
        ));
    }
    t.print();
    println!(
        "\nExpected shape: the after row strictly below the before row in\n\
         both bytes and charged reads (asserted) — the edit list and the\n\
         journal are gone, baked into the generation-{generation} tables."
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
