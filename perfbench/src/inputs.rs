//! Seeded inputs, built in a child process so the measured process's peak
//! memory holds only what the workload itself needs.
//!
//! `perfbench prepare` generates the graph with `graphgen`'s R-MAT, writes
//! it with the program's default table writer once per set-up repetition
//! (each write is timed: it is the table half of the set-up time), computes
//! the IMCore oracle, prints the timings, and leaves three files in the
//! input directory:
//!
//! * `g.nodes` / `g.edges` — the graph table;
//! * `edges.bin` — the undirected edges the clients may update (`u < v`,
//!   little-endian `u32` pairs);
//! * `oracle.bin` — the oracle core number of every node.

use std::path::{Path, PathBuf};
use std::time::Instant;

use kcore_suite::graphgen::rmat::{rmat_stream, Rmat};
use kcore_suite::graphstore::{self, GraphPaths, IoCounter, MemGraph, DEFAULT_BLOCK_SIZE};
use kcore_suite::semicore::imcore;

use crate::child::{field, line, run_child};
use crate::ops::Rng;

/// Edges the decompose workload's maintenance clients sample from.
const DECOMPOSE_CLIENT_EDGES: usize = 1 << 16;

/// The graph is a disjoint union of this many independent R-MAT
/// communities, each from its own seed. A single R-MAT graph's SemiCore*
/// pass count and maintenance cost swing by 10-15% from seed to seed; the
/// union averages them, so a run's figures move with the program rather
/// than with the draw.
const COMMUNITIES: u32 = 4;

/// Graph shape of a workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// R-MAT scale of one community: `2^scale` node ids each.
    scale: u32,
    /// Edge samples per community, before duplicates and self-loops are
    /// dropped.
    samples: u64,
    /// Hand every edge to the clients (serving) or only a sample.
    all_edges_to_clients: bool,
    /// Set-ups per run (table writes, service start-ups); set-up time is
    /// their median.
    setup_reps: usize,
}

fn shape(workload: &str) -> Option<Shape> {
    match workload {
        // ~131k nodes / ~4.9M edges: a v1 table of ~40 MB against a pool
        // of a tenth of that.
        "decompose" => Some(Shape {
            scale: 15,
            samples: 1_700_000,
            all_edges_to_clients: false,
            setup_reps: 3,
        }),
        // ~65k nodes / ~1M edges, small enough for the pool to hold.
        "serve-update" | "serve-readwrite" => Some(Shape {
            scale: 14,
            samples: 315_000,
            all_edges_to_clients: true,
            setup_reps: 7,
        }),
        _ => None,
    }
}

/// Edge samples of the whole graph: community `j` takes node ids
/// `j * 2^scale ..` and its own seed derived from `seed`.
fn generate(shape: Shape, seed: u64) -> (Vec<(u32, u32)>, u32) {
    let params = Rmat::web(shape.scale);
    let mut edges = Vec::with_capacity((shape.samples * u64::from(COMMUNITIES)) as usize);
    let mut seeds = Rng::new(seed);
    for j in 0..COMMUNITIES {
        let offset = j * params.num_nodes();
        rmat_stream(params, shape.samples, seeds.next_u64(), |u, v| {
            edges.push((u + offset, v + offset))
        });
    }
    (edges, COMMUNITIES * params.num_nodes())
}

/// What the parent learns from `prepare`.
#[derive(Debug)]
pub struct Prepared {
    /// Graph base path (`<base>.nodes` / `<base>.edges`).
    pub base: PathBuf,
    /// Wall time of each table write, one per set-up repetition.
    pub build_s: Vec<f64>,
    /// Nodes.
    pub num_nodes: u32,
    /// Undirected edges.
    pub num_edges: u64,
    /// Bytes of both table files.
    pub table_bytes: u64,
    /// Edges the clients may update.
    pub client_edges: Vec<(u32, u32)>,
    /// Oracle core numbers.
    pub oracle: Vec<u32>,
}

/// Pool budget of the serving workloads: the whole table twice over, so
/// the graph fits with room for its update buffer's reads.
pub fn serve_pool_budget(table_bytes: u64) -> u64 {
    let block = DEFAULT_BLOCK_SIZE as u64;
    (2 * table_bytes).div_ceil(block) * block + (1 << 20)
}

/// Run `prepare` in a child process and load what it wrote.
pub fn prepare(workload: &str, seed: u64, dir: &Path) -> Result<Prepared, String> {
    let seed = seed.to_string();
    let stdout = run_child(&[
        "prepare".as_ref(),
        "--workload".as_ref(),
        workload.as_ref(),
        "--seed".as_ref(),
        seed.as_ref(),
        "--dir".as_ref(),
        dir.as_os_str(),
    ])?;
    let graph = field(&stdout, "graph ")?;
    if graph.len() != 2 {
        return Err(format!("unexpected prepare output: {stdout:?}"));
    }
    let base = dir.join("g");
    let paths = GraphPaths::from_base(&base);
    let table_bytes = file_len(&paths.nodes)? + file_len(&paths.edges)?;
    let pairs = read_u32s(&dir.join("edges.bin"))?;
    Ok(Prepared {
        base,
        build_s: field(&stdout, "build_s ")?,
        num_nodes: graph[0] as u32,
        num_edges: graph[1] as u64,
        table_bytes,
        client_edges: pairs.chunks_exact(2).map(|p| (p[0], p[1])).collect(),
        oracle: read_u32s(&dir.join("oracle.bin"))?,
    })
}

/// The child side of `prepare`: build the inputs and print one
/// `key values...` line per result.
pub fn prepare_child(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let shape = shape(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (edges, num_nodes) = generate(shape, seed);
    let base = dir.join("g");
    let mut build_s = Vec::with_capacity(shape.setup_reps);
    let mut mem = None;
    for _ in 0..shape.setup_reps {
        drop(mem.take());
        let t = Instant::now();
        let g = MemGraph::from_edges(edges.iter().copied(), num_nodes);
        graphstore::write_mem_graph(&base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE))
            .map_err(|e| format!("writing the table: {e}"))?;
        build_s.push(t.elapsed().as_secs_f64());
        mem = Some(g);
    }
    drop(edges);
    let g = mem.expect("every shape sets up at least once");
    let mut client: Vec<(u32, u32)> = g.edges().collect();
    if !shape.all_edges_to_clients && client.len() > DECOMPOSE_CLIENT_EDGES {
        let mut rng = Rng::new(seed ^ 0x5EED_ED6E);
        for i in 0..DECOMPOSE_CLIENT_EDGES {
            let j = i + rng.below((client.len() - i) as u64) as usize;
            client.swap(i, j);
        }
        client.truncate(DECOMPOSE_CLIENT_EDGES);
    }
    write_u32s(
        &dir.join("edges.bin"),
        client.iter().flat_map(|&(u, v)| [u, v]),
    )?;
    let oracle = imcore(&g).core;
    write_u32s(&dir.join("oracle.bin"), oracle.iter().copied())?;
    println!("graph {} {}", g.num_nodes(), g.num_edges());
    println!("build_s {}", line(&build_s));
    Ok(())
}

/// Length of the file at `p`.
pub fn file_len(p: &Path) -> Result<u64, String> {
    std::fs::metadata(p)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", p.display()))
}

fn write_u32s(path: &Path, values: impl Iterator<Item = u32>) -> Result<(), String> {
    let bytes: Vec<u8> = values.flat_map(u32::to_le_bytes).collect();
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// The little-endian `u32`s of the file at `path`.
pub fn read_u32s(path: &Path) -> Result<Vec<u32>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
