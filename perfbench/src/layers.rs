//! Per-layer metrics of the traced run, named after the program's modules,
//! and the self-time breakdown that accounts for a workload's time.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kcore_suite::graphstore::{
    CacheStats, DiskGraph, IoCounter, IoSnapshot, SharedPool, Vfs, DEFAULT_BLOCK_SIZE,
};
use kcore_suite::semicore::{semicore_star_state, DecomposeOptions, MaintainStats, RunStats};

use crate::client::{Phase, TracedOp};
use crate::ops::Op;
use crate::report::{mean, percentile, ratio, sorted, Metrics};
use crate::trace::{self, StorageCounters, TracedGraph, Tracer, VfsSnapshot, CLASSES};

/// One decomposition through the traced storage stack.
#[derive(Debug, Clone)]
pub struct TracedDecomposition {
    /// Open plus decomposition.
    pub wall_ns: u64,
    /// `DiskGraph::open_pooled`.
    pub open_ns: u64,
    /// Vfs time inside the open.
    pub open_vfs_ns: u64,
    /// `semicore_star_state`.
    pub kernel_ns: u64,
    /// Storage side of the kernel's graph accesses.
    pub storage: StorageCounters,
    /// The kernel's own statistics.
    pub stats: RunStats,
    /// Core numbers.
    pub cores: Vec<u32>,
}

impl TracedDecomposition {
    /// Kernel time outside graph accesses.
    pub fn kernel_self_ns(&self) -> u64 {
        self.kernel_ns
            .saturating_sub(self.storage.adjacency_ns + self.storage.degrees_ns)
    }

    /// Storage time (open, degrees, adjacency) outside the Vfs.
    pub fn storage_self_ns(&self) -> u64 {
        (self.open_ns + self.storage.adjacency_ns + self.storage.degrees_ns)
            .saturating_sub(self.open_vfs_ns + self.storage.vfs_ns)
    }

    /// Vfs time of the whole decomposition.
    pub fn vfs_ns(&self) -> u64 {
        self.open_vfs_ns + self.storage.vfs_ns
    }

    /// Time covered by no layer.
    pub fn residual_ns(&self) -> i64 {
        self.wall_ns as i64
            - (self.kernel_self_ns() + self.storage_self_ns() + self.vfs_ns()) as i64
    }
}

/// Open `base` against `pool` with a charge budget of `charge_bytes` and
/// decompose it with SemiCore* through a [`TracedGraph`] — the path
/// `CoreService::open_with_charge` takes, with each layer timed.
pub fn traced_decomposition(
    base: &Path,
    pool: &SharedPool,
    charge_bytes: u64,
    vfs: &Arc<dyn Vfs>,
    tracer: &Arc<Tracer>,
) -> Result<TracedDecomposition, String> {
    let _root = tracer.enter("decompose");
    let t0 = Instant::now();
    let v0 = trace::thread_vfs_ns();
    let disk = {
        let _s = tracer.enter("storage.open");
        let counter = IoCounter::with_vfs(DEFAULT_BLOCK_SIZE, Arc::clone(vfs));
        DiskGraph::open_pooled(base, counter, pool, charge_bytes)
            .map_err(|e| format!("open_pooled: {e}"))?
    };
    let open_ns = t0.elapsed().as_nanos() as u64;
    let open_vfs_ns = trace::thread_vfs_ns() - v0;
    let mut g = TracedGraph::new(disk);
    let t1 = Instant::now();
    let (state, stats) = {
        let _s = tracer.enter("decomp.semicore_star");
        semicore_star_state(&mut g, &DecomposeOptions::default())
            .map_err(|e| format!("semicore_star_state: {e}"))?
    };
    let kernel_ns = t1.elapsed().as_nanos() as u64;
    let storage = g.counters();
    drop(g);
    Ok(TracedDecomposition {
        wall_ns: t0.elapsed().as_nanos() as u64,
        open_ns,
        open_vfs_ns,
        kernel_ns,
        storage,
        stats,
        cores: state.core,
    })
}

/// Pool counters `after - before`.
pub fn pool_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
    }
}

/// Pool counters `a + b`.
pub fn pool_add(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
    }
}

/// I/O counters `a + b`.
pub fn io_add(a: IoSnapshot, b: IoSnapshot) -> IoSnapshot {
    IoSnapshot {
        read_ios: a.read_ios + b.read_ios,
        physical_reads: a.physical_reads + b.physical_reads,
        write_ios: a.write_ios + b.write_ios,
        read_bytes: a.read_bytes + b.read_bytes,
        write_bytes: a.write_bytes + b.write_bytes,
        seeks: a.seeks + b.seeks,
    }
}

/// `decomp.*` and `storage.*`, averaged over traced decompositions.
pub fn decomposition_metrics(m: &mut Metrics, runs: &[TracedDecomposition]) {
    let avg =
        |f: &dyn Fn(&TracedDecomposition) -> f64| mean(&runs.iter().map(f).collect::<Vec<_>>());
    m.set(
        "decomp.passes",
        avg(&|r| r.stats.iterations as f64),
        "count",
    );
    m.set(
        "decomp.node_computations",
        avg(&|r| r.stats.node_computations as f64),
        "count",
    );
    m.set(
        "decomp.kernel_self_s",
        avg(&|r| r.kernel_self_ns() as f64 / 1e9),
        "s",
    );
    m.set(
        "storage.adjacency_calls",
        avg(&|r| r.storage.adjacency_calls as f64),
        "count",
    );
    m.set(
        "storage.adjacency_s",
        avg(&|r| r.storage.adjacency_ns as f64 / 1e9),
        "s",
    );
    m.set(
        "storage.ids_per_s",
        avg(&|r| ratio(r.storage.ids as f64, r.storage.adjacency_ns as f64 / 1e9)),
        "1/s",
    );
}

/// `io.*` for a counter delta spread over `units` units of work.
pub fn io_metrics(m: &mut Metrics, io: IoSnapshot, units: f64) {
    m.set("io.read_ios", ratio(io.read_ios as f64, units), "blocks");
    m.set(
        "io.physical_reads",
        ratio(io.physical_reads as f64, units),
        "blocks",
    );
    m.set("io.seeks", ratio(io.seeks as f64, units), "count");
}

/// `pool.*` for a counter delta spread over `units` units of work.
pub fn pool_metrics(m: &mut Metrics, d: CacheStats, units: f64) {
    m.set("pool.hits", ratio(d.hits as f64, units), "count");
    m.set("pool.misses", ratio(d.misses as f64, units), "count");
    m.set("pool.evictions", ratio(d.evictions as f64, units), "count");
    m.set(
        "pool.hit_ratio",
        ratio(d.hits as f64, (d.hits + d.misses) as f64),
        "ratio",
    );
}

/// `vfs.*` for a counter delta spread over `units` units of work.
pub fn vfs_metrics(m: &mut Metrics, d: &VfsSnapshot, units: f64) {
    let per = |v: u64| ratio(v as f64, units);
    let secs = |ns: u64| ratio(ns as f64 / 1e9, units);
    for (i, name) in CLASSES.iter().take(4).enumerate() {
        let c = &d.class[i];
        m.set(&format!("vfs.{name}.reads"), per(c.reads), "count");
        m.set(&format!("vfs.{name}.read_bytes"), per(c.read_bytes), "B");
        m.set(&format!("vfs.{name}.read_s"), secs(c.read_ns), "s");
        m.set(&format!("vfs.{name}.writes"), per(c.writes), "count");
        m.set(&format!("vfs.{name}.write_bytes"), per(c.write_bytes), "B");
        m.set(&format!("vfs.{name}.write_s"), secs(c.write_ns), "s");
        m.set(&format!("vfs.{name}.syncs"), per(c.syncs), "count");
        m.set(&format!("vfs.{name}.sync_s"), secs(c.sync_ns), "s");
    }
    m.set("vfs.renames", per(d.renames), "count");
    m.set("vfs.dir_syncs", per(d.dir_syncs), "count");
    m.set("vfs.dir_sync_s", secs(d.dir_sync_ns), "s");
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Maintenance kernel wall time of an op (0 for queries).
fn kernel_ns(o: &TracedOp) -> u64 {
    o.stats
        .as_ref()
        .map_or(0, |s| s.wall_time.as_nanos() as u64)
}

/// Kernel time outside the Vfs. Table reads are attributed to the kernel:
/// the pool misses of a maintenance op come from its adjacency scans, while
/// the service's validating read almost always hits the pool.
fn kernel_self_ns(o: &TracedOp) -> u64 {
    kernel_ns(o).saturating_sub(o.table_read_ns)
}

/// Service time outside the kernel and the Vfs: admission, graph-lock
/// wait, validation, journal and checkpoint encoding.
fn service_self_ns(o: &TracedOp) -> u64 {
    o.service_ns
        .saturating_sub(kernel_ns(o) + o.vfs_ns - o.table_read_ns)
}

/// `service.*`, `maintain.*` and `wal.*` from a traced in-process phase
/// whose Vfs counters moved by `vfs`.
pub fn service_metrics(m: &mut Metrics, traced: &Phase, vfs: &VfsSnapshot) {
    let ops: Vec<&TracedOp> = traced.traced().collect();
    let updates: Vec<&TracedOp> = ops.iter().copied().filter(|o| o.op.is_update()).collect();
    let sorted_us = |v: &[&TracedOp], f: &dyn Fn(&TracedOp) -> u64| {
        sorted(&v.iter().map(|o| us(f(o))).collect::<Vec<_>>())
    };
    let queries: Vec<&TracedOp> = ops.iter().copied().filter(|o| !o.op.is_update()).collect();
    let query_us = sorted_us(&queries, &|o| o.service_ns);
    m.set(
        "service.update_us",
        percentile(&sorted_us(&updates, &|o| o.service_ns), 0.5),
        "us",
    );
    m.set(
        "service.update_self_us",
        percentile(&sorted_us(&updates, &service_self_ns), 0.5),
        "us",
    );
    m.set("service.query_us", percentile(&query_us, 0.5), "us");
    m.set("service.query_p99_us", percentile(&query_us, 0.99), "us");
    let (ck, plain): (Vec<&TracedOp>, Vec<&TracedOp>) =
        updates.iter().partition(|o| o.checkpointed);
    let mean_ms = |v: &[&TracedOp]| {
        mean(
            &v.iter()
                .map(|o| o.service_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    m.set("service.checkpoints", ck.len() as f64, "count");
    m.set(
        "service.checkpoint_ms",
        if ck.is_empty() {
            0.0
        } else {
            mean_ms(&ck) - mean_ms(&plain)
        },
        "ms",
    );

    let (inserts, deletes): (Vec<&TracedOp>, Vec<&TracedOp>) =
        updates.iter().partition(|o| matches!(o.op, Op::Insert(..)));
    m.set(
        "maintain.insert_kernel_us",
        percentile(&sorted_us(&inserts, &kernel_ns), 0.5),
        "us",
    );
    m.set(
        "maintain.delete_kernel_us",
        percentile(&sorted_us(&deletes, &kernel_ns), 0.5),
        "us",
    );
    let stat_mean = |v: &[&TracedOp], f: &dyn Fn(&MaintainStats) -> u64| {
        mean(
            &v.iter()
                .filter_map(|o| o.stats.as_ref())
                .map(|s| f(s) as f64)
                .collect::<Vec<_>>(),
        )
    };
    m.set(
        "maintain.node_computations_per_update",
        stat_mean(&updates, &|s| s.node_computations),
        "count",
    );
    m.set(
        "maintain.candidates_per_insert",
        stat_mean(&inserts, &|s| s.candidates),
        "count",
    );
    m.set(
        "maintain.read_ios_per_update",
        stat_mean(&updates, &|s| s.io.read_ios),
        "blocks",
    );
    let n = updates.len() as f64;
    m.set(
        "wal.syncs_per_update",
        ratio(vfs.class[1].syncs as f64, n),
        "count",
    );
    m.set(
        "wal.bytes_per_update",
        ratio(vfs.class[1].write_bytes as f64, n),
        "B",
    );
}

/// Print the self-time breakdown of a traced in-process phase: the
/// service's own time, the maintenance kernel, the Vfs per class, and the
/// client loop outside the calls (the residual). Returns the residual as a
/// share of the phase's client time.
pub fn print_op_breakdown(traced: &Phase, vfs: &VfsSnapshot) -> f64 {
    let total = traced.client_wall_ns();
    let sum = |f: &dyn Fn(&TracedOp) -> u64| traced.traced().map(f).sum::<u64>();
    let service_self = sum(&service_self_ns);
    let kernel_self = sum(&kernel_self_ns);
    let vfs_in_ops = sum(&|o| o.vfs_ns);
    let residual = total as i64 - (service_self + kernel_self + vfs_in_ops) as i64;
    println!(
        "== self time of the traced op phase ({} client-seconds)",
        total as f64 / 1e9
    );
    let row = |name: &str, ns: i64| {
        println!(
            "  {name:<28} {:>10.4} s {:>7.2}%",
            ns as f64 / 1e9,
            100.0 * ratio(ns as f64, total as f64)
        )
    };
    row("service (self)", service_self as i64);
    row("maintain (kernel self)", kernel_self as i64);
    for (i, name) in CLASSES.iter().enumerate() {
        let c = &vfs.class[i];
        if c.busy_ns() > 0 {
            row(&format!("vfs.{name}"), c.busy_ns() as i64);
        }
    }
    row(
        "vfs.rename+dir_sync",
        (vfs.rename_ns + vfs.dir_sync_ns) as i64,
    );
    row("residual (client loop)", residual);
    ratio(residual as f64, total as f64)
}

/// Print the self-time breakdown of traced decompositions; returns the
/// residual as a share of their wall time.
pub fn print_decomposition_breakdown(runs: &[TracedDecomposition]) -> f64 {
    let sum = |f: &dyn Fn(&TracedDecomposition) -> i64| runs.iter().map(f).sum::<i64>();
    let total = sum(&|r| r.wall_ns as i64);
    println!(
        "== self time of {} traced decompositions ({} s)",
        runs.len(),
        total as f64 / 1e9
    );
    let row = |name: &str, ns: i64| {
        println!(
            "  {name:<28} {:>10.4} s {:>7.2}%",
            ns as f64 / 1e9,
            100.0 * ratio(ns as f64, total as f64)
        )
    };
    row("decomp (kernel self)", sum(&|r| r.kernel_self_ns() as i64));
    row(
        "storage (pool, decode)",
        sum(&|r| r.storage_self_ns() as i64),
    );
    row("vfs.table", sum(&|r| r.vfs_ns() as i64));
    let residual = sum(&|r| r.residual_ns());
    row("residual", residual);
    ratio(residual as f64, total as f64)
}
