//! Shared test scaffolding for the k-core suite.
//!
//! Before this crate existed, every suite that needed "a seeded random
//! graph checked against recomputation from scratch" grew its own copy of
//! the same three ingredients: an inline LCG, an ad-hoc random edge-list
//! builder, and an `imcore` oracle call. This crate is the single home for
//! that scaffolding — a **dev-dependency only** (it sits above `semicore`
//! in the build graph, which Cargo permits for dev-dependencies), so it can
//! never leak into shipped code.
//!
//! What lives here:
//!
//! * [`Lcg`] — the deterministic generator every seeded test uses;
//! * [`random_mem_graph`] / [`random_edges`] — the seeded multigraph
//!   builders behind the maintenance stream tests;
//! * [`oracle_cores`] — recompute-from-scratch core numbers (the IMCore
//!   oracle);
//! * [`fixtures`] — the ER/BA/RMAT generator-family trio at test size;
//! * [`arb_graph`] / [`arb_toggle_stream`] — the proptest strategies shared
//!   by the cross-validation and maintenance property suites.
//! * [`SyncGateVfs`] — a real-filesystem [`Vfs`] whose fsyncs on one kind
//!   of file block while a gate is closed, for tests that must catch an
//!   operation *inside* its fsync.

#![deny(missing_docs)]

use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use graphstore::{MemGraph, StdVfs, Vfs, VfsFile, DEFAULT_BLOCK_SIZE};
use proptest::prelude::*;

/// The suite's standard deterministic generator (a 64-bit LCG with the
/// Knuth multiplier, emitting the high bits). Same stream as the inline
/// closures it replaces.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// A generator seeded with `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> Lcg {
        Lcg { state: seed }
    }

    /// Next 31 random bits, as the `u32` the tests consume.
    pub fn next_u32(&mut self) -> u32 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 33) as u32
    }

    /// Uniform-ish draw from `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "cannot sample an empty range");
        self.next_u32() % bound
    }
}

/// `count` random (possibly duplicate, possibly self-loop) node pairs over
/// `0..n` — the raw material of a seeded multigraph.
pub fn random_edges(rng: &mut Lcg, n: u32, count: u32) -> Vec<(u32, u32)> {
    (0..count).map(|_| (rng.below(n), rng.below(n))).collect()
}

/// A seeded random multigraph: `min_nodes + below(node_span)` nodes and
/// roughly `density` times as many candidate edges as nodes (self-loops and
/// duplicates dropped by [`MemGraph::from_edges`]). This is the shape every
/// maintenance suite draws its starting graphs from.
pub fn random_mem_graph(rng: &mut Lcg, min_nodes: u32, node_span: u32, density: u32) -> MemGraph {
    let n = min_nodes + rng.below(node_span.max(1));
    let m = n + rng.below((density * n).max(1));
    MemGraph::from_edges(random_edges(rng, n, m), n)
}

/// Core numbers recomputed from scratch by the in-memory oracle (IMCore) —
/// the ground truth every incremental or external result is checked
/// against.
pub fn oracle_cores(g: &MemGraph) -> Vec<u32> {
    semicore::imcore(g).core
}

/// The three generator-family fixtures the equivalence and bench suites
/// share, at test size: ER (`gnm`), BA (preferential attachment) and R-MAT
/// (web-like skew).
pub fn fixtures() -> Vec<(&'static str, MemGraph)> {
    let er = MemGraph::from_edges(graphgen::gnm(600, 2400, 11), 600);
    let ba = MemGraph::from_edges(graphgen::preferential_attachment(500, 4, 22), 500);
    let rmat_params = graphgen::Rmat::web(9);
    let rmat = MemGraph::from_edges(
        graphgen::rmat_edges(rmat_params, 3000, 33),
        rmat_params.num_nodes(),
    );
    vec![("ER", er), ("BA", ba), ("RMAT", rmat)]
}

/// The working-set charge/cache budget of the graph stored at `base`, at
/// the default block size — a panicking test-side wrapper over the one
/// canonical formula, [`graphstore::working_set_charge_budget`].
pub fn working_set_budget(base: &std::path::Path) -> u64 {
    graphstore::working_set_charge_budget(base, DEFAULT_BLOCK_SIZE).unwrap()
}

/// Strategy: an arbitrary small multigraph (edge list plus node count) —
/// the input shape of the cross-validation property suites.
pub fn arb_graph() -> impl Strategy<Value = MemGraph> {
    arb_graph_with(2, 120, 400)
}

/// [`arb_graph`] with explicit bounds: `min_nodes..max_nodes` nodes and up
/// to `max_edges` candidate edges.
pub fn arb_graph_with(
    min_nodes: u32,
    max_nodes: u32,
    max_edges: usize,
) -> impl Strategy<Value = MemGraph> {
    (min_nodes..max_nodes, 0usize..max_edges).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m)
            .prop_map(move |edges| MemGraph::from_edges(edges, n))
    })
}

/// Strategy: a starting multigraph plus a stream of node-pair *toggles*
/// (insert the edge when absent, delete it when present) — the input shape
/// of the maintenance property suites.
pub fn arb_toggle_stream() -> impl Strategy<Value = (MemGraph, Vec<(u32, u32)>)> {
    (3u32..60, 0usize..150).prop_flat_map(|(n, m)| {
        let edges = proptest::collection::vec((0..n, 0..n), m);
        let ops = proptest::collection::vec((0..n, 0..n), 0usize..40);
        (edges, ops).prop_map(move |(e, o)| (MemGraph::from_edges(e, n), o))
    })
}

/// A [`Vfs`] over the real filesystem whose `sync_all` on files with one
/// extension (say `wal`) blocks while the gate is closed. Every fsync on
/// such a file is counted as it reaches the gate, so a test can wait until
/// an operation is provably inside its fsync, check what still runs
/// meanwhile, then release it. The gate starts open.
#[derive(Debug)]
pub struct SyncGateVfs {
    ext: &'static str,
    gate: Arc<Gate>,
}

#[derive(Debug, Default)]
struct Gate {
    /// (closed, fsyncs that reached the gate)
    state: Mutex<(bool, u64)>,
    cv: Condvar,
}

impl Gate {
    fn lock(&self) -> MutexGuard<'_, (bool, u64)> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl SyncGateVfs {
    /// Gate the fsyncs of files whose extension is `ext`.
    pub fn new(ext: &'static str) -> Arc<SyncGateVfs> {
        Arc::new(SyncGateVfs {
            ext,
            gate: Arc::default(),
        })
    }

    /// Close (`true`) or open the gate; opening releases every blocked
    /// fsync.
    pub fn set_closed(&self, closed: bool) {
        self.gate.lock().0 = closed;
        self.gate.cv.notify_all();
    }

    /// Gated fsyncs that have reached the gate so far.
    pub fn entered(&self) -> u64 {
        self.gate.lock().1
    }

    /// Wait up to `within` until `n` gated fsyncs have reached the gate;
    /// false on timeout.
    pub fn await_entered(&self, n: u64, within: Duration) -> bool {
        let st = self.gate.lock();
        let (_st, wait) = self
            .gate
            .cv
            .wait_timeout_while(st, within, |st| st.1 < n)
            .unwrap_or_else(|p| p.into_inner());
        !wait.timed_out()
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        if path.extension().is_some_and(|e| e == self.ext) {
            Box::new(GatedFile {
                inner: file,
                gate: Arc::clone(&self.gate),
            })
        } else {
            file
        }
    }
}

#[derive(Debug)]
struct GatedFile {
    inner: Box<dyn VfsFile>,
    gate: Arc<Gate>,
}

impl VfsFile for GatedFile {
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact_at(offset, out)
    }
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        self.inner.write_all(data)
    }
    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.inner.seek_to(offset)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let mut st = self.gate.lock();
        st.1 += 1;
        self.gate.cv.notify_all();
        while st.0 {
            st = self.gate.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        drop(st);
        self.inner.sync_all()
    }
    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl Vfs for SyncGateVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, StdVfs.open_read(path)?))
    }
    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, StdVfs.open_read_write(path)?))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, StdVfs.create(path)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove_file(path)
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        StdVfs.sync_parent_dir(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_matches_the_inline_closures_it_replaced() {
        // The exact constants and shift the suite's tests used inline.
        let mut seed = 13u64;
        let mut inline = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut lcg = Lcg::new(13);
        for _ in 0..100 {
            assert_eq!(lcg.next_u32(), inline());
        }
    }

    #[test]
    fn random_graph_is_deterministic_per_seed() {
        let a = random_mem_graph(&mut Lcg::new(42), 3, 50, 3);
        let b = random_mem_graph(&mut Lcg::new(42), 3, 50, 3);
        assert_eq!(a, b);
        let c = random_mem_graph(&mut Lcg::new(43), 3, 50, 3);
        assert!(a != c || a.num_edges() == 0);
    }

    #[test]
    fn oracle_matches_known_structure() {
        let clique4: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|u| ((u + 1)..4).map(move |v| (u, v)))
            .collect();
        let g = MemGraph::from_edges(clique4, 5);
        assert_eq!(oracle_cores(&g), vec![3, 3, 3, 3, 0]);
    }

    #[test]
    fn fixtures_are_nonempty_and_distinct() {
        let fx = fixtures();
        assert_eq!(fx.len(), 3);
        for (name, g) in &fx {
            assert!(g.num_edges() > 0, "{name} must have edges");
        }
    }
}
