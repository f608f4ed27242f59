//! Format-v1 vs format-v2 differential suite.
//!
//! The compressed edge table must be invisible to every algorithm: the same
//! graph built in both formats yields **bit-identical** cores and Eq. 2
//! counters — decomposition and maintenance alike, under either eviction
//! policy, pooled or durable — while v2's charged
//! `read_ios` is **strictly lower** at equal cache budget (fewer edge-table
//! blocks exist to read).

use graphstore::{
    write_mem_graph_with, DiskGraph, EvictionPolicy, FormatVersion, GraphPaths, IoCounter,
    MemGraph, TempDir, DEFAULT_BLOCK_SIZE,
};
use kcore_suite::semicore::{
    semicore, semicore_plus, semicore_star, semicore_star_state, DecomposeOptions,
};
use kcore_suite::{CoreIndex, CoreService};
use testutil::{fixtures, oracle_cores, random_mem_graph, Lcg};

/// Write `g` in both formats under `dir`, returning the `(v1, v2)` bases.
fn write_pair(dir: &TempDir, g: &MemGraph, tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let b1 = dir.path().join(format!("{tag}-v1"));
    let b2 = dir.path().join(format!("{tag}-v2"));
    write_mem_graph_with(
        &b1,
        g,
        IoCounter::new(DEFAULT_BLOCK_SIZE),
        FormatVersion::V1,
    )
    .unwrap();
    write_mem_graph_with(
        &b2,
        g,
        IoCounter::new(DEFAULT_BLOCK_SIZE),
        FormatVersion::V2,
    )
    .unwrap();
    (b1, b2)
}

fn edge_table_len(base: &std::path::Path) -> u64 {
    std::fs::metadata(GraphPaths::from_base(base).edges)
        .unwrap()
        .len()
}

#[test]
fn decomposition_bit_identical_and_v2_charges_strictly_less() {
    let dir = TempDir::new("fmtdiff").unwrap();
    let opts = DecomposeOptions::default();
    type Algo = (
        &'static str,
        fn(&mut DiskGraph, &DecomposeOptions) -> graphstore::Result<Vec<u32>>,
    );
    let algos: Vec<Algo> = vec![
        ("semicore", |g, o| Ok(semicore(g, o)?.core)),
        ("semicore+", |g, o| Ok(semicore_plus(g, o)?.core)),
        ("semicore*", |g, o| Ok(semicore_star(g, o)?.core)),
    ];

    for (family, g) in fixtures() {
        let (b1, b2) = write_pair(&dir, &g, family);
        // Equal budgets for both formats: 10% of the *v1* edge table (the
        // acceptance workload's regime) and the v1 whole working set.
        let budgets = [
            edge_table_len(&b1) / 10,
            edge_table_len(&b1) + 64 * DEFAULT_BLOCK_SIZE as u64,
        ];
        for policy in [EvictionPolicy::Lru, EvictionPolicy::ScanLifo] {
            for &budget in &budgets {
                for (name, run) in &algos {
                    let tag = format!("{family}/{name}/{policy:?}/M={budget}");
                    let mut d1 = DiskGraph::open_with_cache_policy(
                        &b1,
                        IoCounter::new(DEFAULT_BLOCK_SIZE),
                        budget,
                        policy,
                    )
                    .unwrap();
                    let mut d2 = DiskGraph::open_with_cache_policy(
                        &b2,
                        IoCounter::new(DEFAULT_BLOCK_SIZE),
                        budget,
                        policy,
                    )
                    .unwrap();
                    let c1 = run(&mut d1, &opts).unwrap();
                    let c2 = run(&mut d2, &opts).unwrap();
                    assert_eq!(c1, c2, "{tag}: cores must be bit-identical");
                    assert_eq!(c1, oracle_cores(&g), "{tag}: oracle");
                    let (r1, r2) = (d1.io().read_ios, d2.io().read_ios);
                    assert!(
                        r2 < r1,
                        "{tag}: v2 must charge strictly fewer read I/Os ({r2} vs {r1})"
                    );
                }
            }
        }

        // The Eq. 2 counters the maintained state carries must match too.
        let mut d1 = DiskGraph::open(&b1, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        let mut d2 = DiskGraph::open(&b2, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        let (s1, _) = semicore_star_state(&mut d1, &opts).unwrap();
        let (s2, _) = semicore_star_state(&mut d2, &opts).unwrap();
        assert_eq!(s1.core, s2.core, "{family}: state cores");
        assert_eq!(s1.cnt, s2.cnt, "{family}: Eq. 2 counters");
    }
}

#[test]
fn maintenance_stream_bit_identical_across_formats() {
    let dir = TempDir::new("fmtdiff-maint").unwrap();
    let mut rng = Lcg::new(0xC0DEC);
    for round in 0..4 {
        let g = random_mem_graph(&mut rng, 12, 60, 3);
        let (b1, b2) = write_pair(&dir, &g, &format!("m{round}"));
        let mut i1 = CoreIndex::open_with_cache(&b1, 1 << 20).unwrap();
        let mut i2 = CoreIndex::open_with_cache(&b2, 1 << 20).unwrap();
        assert_eq!(i1.cores(), i2.cores(), "round {round}: initial cores");
        assert_eq!(
            i1.maintained_state().cnt,
            i2.maintained_state().cnt,
            "round {round}: initial cnt"
        );

        let mut mirror = graphstore::DynGraph::from_mem(&g);
        let n = g.num_nodes();
        for step in 0..120 {
            let (u, v) = (rng.below(n), rng.below(n));
            if u == v {
                continue;
            }
            let (s1, s2) = if mirror.has_edge(u, v) {
                graphstore::DynamicGraph::delete_edge(&mut mirror, u, v).unwrap();
                (i1.delete_edge(u, v).unwrap(), i2.delete_edge(u, v).unwrap())
            } else {
                graphstore::DynamicGraph::insert_edge(&mut mirror, u, v).unwrap();
                (i1.insert_edge(u, v).unwrap(), i2.insert_edge(u, v).unwrap())
            };
            // Same algorithm over the same merged adjacency: the whole
            // execution trace must agree, not just the end state.
            assert_eq!(s1.algorithm, s2.algorithm, "round {round} step {step}");
            assert_eq!(
                s1.node_computations, s2.node_computations,
                "round {round} step {step}: node computations"
            );
            assert_eq!(
                i1.cores(),
                i2.cores(),
                "round {round} step {step}: cores diverged"
            );
            assert_eq!(
                i1.maintained_state().cnt,
                i2.maintained_state().cnt,
                "round {round} step {step}: cnt diverged"
            );
        }
        let mem = graphstore::snapshot_mem(&mut mirror).unwrap();
        assert_eq!(
            i2.cores(),
            oracle_cores(&mem),
            "round {round}: final oracle"
        );
        assert!(i1.verify().unwrap() && i2.verify().unwrap());
    }
}

#[test]
fn durable_kill_reopen_cycle_is_format_transparent() {
    let dir = TempDir::new("fmtdiff-durable").unwrap();
    let g = {
        let mut rng = Lcg::new(77);
        random_mem_graph(&mut rng, 40, 40, 4)
    };
    let (b1, b2) = write_pair(&dir, &g, "dur");

    // Two durable services, one per format, fed the identical op stream;
    // both are dropped *without* an explicit save, so recovery replays the
    // journal tail — the kill window the WAL exists for.
    let mut toggles = Vec::new();
    {
        let mut rng = Lcg::new(4242);
        let mut mirror = graphstore::DynGraph::from_mem(&g);
        for _ in 0..40 {
            let (u, v) = (rng.below(g.num_nodes()), rng.below(g.num_nodes()));
            if u == v {
                continue;
            }
            let insert = !mirror.has_edge(u, v);
            if insert {
                graphstore::DynamicGraph::insert_edge(&mut mirror, u, v).unwrap();
            } else {
                graphstore::DynamicGraph::delete_edge(&mut mirror, u, v).unwrap();
            }
            toggles.push((u, v, insert));
        }
    }
    let data1 = dir.path().join("data-v1");
    let data2 = dir.path().join("data-v2");
    for (data, base) in [(&data1, &b1), (&data2, &b2)] {
        let svc = CoreService::create_durable(data, 1 << 20).unwrap();
        svc.open("g", base).unwrap();
        for &(u, v, insert) in &toggles {
            if insert {
                svc.insert_edge("g", u, v).unwrap();
            } else {
                svc.delete_edge("g", u, v).unwrap();
            }
        }
        // Dropped here: simulated kill with a journal tail outstanding.
    }

    let s1 = CoreService::open_catalog(&data1).unwrap();
    let s2 = CoreService::open_catalog(&data2).unwrap();
    assert_eq!(s1.format_version("g").unwrap(), FormatVersion::V1);
    assert_eq!(s2.format_version("g").unwrap(), FormatVersion::V2);
    assert_eq!(
        s1.cores("g").unwrap(),
        s2.cores("g").unwrap(),
        "recovered cores must be format-independent"
    );
    assert!(s1.verify("g").unwrap() && s2.verify("g").unwrap());
    let (r1, r2) = (s1.io("g").unwrap().read_ios, s2.io("g").unwrap().read_ios);
    assert!(
        r2 <= r1,
        "v2 recovery must not charge more than v1 ({r2} vs {r1})"
    );
    // Both survive further traffic after recovery.
    s2.insert_edge("g", 0, g.num_nodes() - 1).ok();
}

#[test]
fn recovery_rejects_base_tables_swapped_to_another_format() {
    let dir = TempDir::new("fmtdiff-swap").unwrap();
    let g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 4);
    let base = dir.path().join("g");
    write_mem_graph_with(
        &base,
        &g,
        IoCounter::new(DEFAULT_BLOCK_SIZE),
        FormatVersion::V2,
    )
    .unwrap();
    let data = dir.path().join("data");
    {
        let svc = CoreService::create_durable(&data, 1 << 20).unwrap();
        svc.open("g", &base).unwrap();
        svc.insert_edge("g", 1, 3).unwrap();
    }
    // Swap the base tables for a v1 encoding of the *original* graph: the
    // checkpointed state no longer matches what is on disk, and the
    // catalogued format flag is how recovery notices.
    write_mem_graph_with(
        &base,
        &g,
        IoCounter::new(DEFAULT_BLOCK_SIZE),
        FormatVersion::V1,
    )
    .unwrap();
    let err = CoreService::open_catalog(&data).unwrap_err();
    assert!(err.is_corrupt(), "{err}");
    assert!(err.to_string().contains("format"), "{err}");
}
