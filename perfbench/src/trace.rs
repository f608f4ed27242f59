//! The traced run's instrumentation, timed from outside the program:
//!
//! * [`Tracer`] keeps spans (name, start, end, parent, request id) in
//!   memory and writes them out at the end;
//! * [`TracingVfs`] wraps the program's `Vfs` seam and tags every file by
//!   class (`table`, `wal`, `ckpt`, `catalog`) when it is opened, so each
//!   read, write and fsync is counted and timed per class;
//! * [`TracedGraph`] wraps an `AdjacencyRead` and splits each adjacency
//!   call into storage time (fetch + decode) and the caller's compute.
//!
//! Hot per-call events (positional table reads, adjacency calls) are
//! aggregated into counters; everything else becomes a span. Nothing here
//! changes what the program reads or charges.

use std::cell::{Cell, RefCell};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kcore_suite::graphstore::{AdjacencyRead, IoSnapshot, Result, Vfs, VfsFile};

/// File classes, in reporting order. `other` catches anything unexpected.
pub const CLASSES: [&str; 5] = ["table", "wal", "ckpt", "catalog", "other"];
const OTHER: usize = 4;

/// Bound on recorded spans; later ones are counted as dropped.
const MAX_SPANS: usize = 2_000_000;

/// One timed interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `service.insert` or `vfs.wal.sync`.
    pub name: &'static str,
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Request id of the client op this span belongs to (0: none).
    pub req: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Per-class Vfs counters.
#[derive(Debug, Default)]
struct ClassCounters {
    /// Positional reads plus whole-file reads.
    reads: AtomicU64,
    /// Bytes read.
    read_bytes: AtomicU64,
    /// Time in reads.
    read_ns: AtomicU64,
    /// `write_all` calls.
    writes: AtomicU64,
    /// Bytes written.
    write_bytes: AtomicU64,
    /// Time in writes.
    write_ns: AtomicU64,
    /// `sync_all` calls.
    syncs: AtomicU64,
    /// Time in fsync.
    sync_ns: AtomicU64,
}

/// A point-in-time copy of [`ClassCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassSnapshot {
    pub reads: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
}

impl ClassSnapshot {
    /// `self - earlier`.
    pub fn since(&self, e: &ClassSnapshot) -> ClassSnapshot {
        ClassSnapshot {
            reads: self.reads - e.reads,
            read_bytes: self.read_bytes - e.read_bytes,
            read_ns: self.read_ns - e.read_ns,
            writes: self.writes - e.writes,
            write_bytes: self.write_bytes - e.write_bytes,
            write_ns: self.write_ns - e.write_ns,
            syncs: self.syncs - e.syncs,
            sync_ns: self.sync_ns - e.sync_ns,
        }
    }

    /// Time spent in this class's reads, writes and syncs.
    pub fn busy_ns(&self) -> u64 {
        self.read_ns + self.write_ns + self.sync_ns
    }
}

/// Counters of every class plus the directory-level operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct VfsSnapshot {
    pub class: [ClassSnapshot; 5],
    pub renames: u64,
    pub rename_ns: u64,
    pub dir_syncs: u64,
    pub dir_sync_ns: u64,
}

impl VfsSnapshot {
    /// `self - earlier`.
    pub fn since(&self, e: &VfsSnapshot) -> VfsSnapshot {
        let mut class = [ClassSnapshot::default(); 5];
        for (i, c) in class.iter_mut().enumerate() {
            *c = self.class[i].since(&e.class[i]);
        }
        VfsSnapshot {
            class,
            renames: self.renames - e.renames,
            rename_ns: self.rename_ns - e.rename_ns,
            dir_syncs: self.dir_syncs - e.dir_syncs,
            dir_sync_ns: self.dir_sync_ns - e.dir_sync_ns,
        }
    }

    /// All time spent in the Vfs.
    pub fn busy_ns(&self) -> u64 {
        self.class.iter().map(ClassSnapshot::busy_ns).sum::<u64>()
            + self.rename_ns
            + self.dir_sync_ns
    }

    /// All read time.
    pub fn read_ns(&self) -> u64 {
        self.class.iter().map(|c| c.read_ns).sum()
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Request id of the op this thread is serving.
    static REQ: Cell<u64> = const { Cell::new(0) };
    /// Vfs time spent on this thread while tracing was on.
    static VFS_NS: Cell<u64> = const { Cell::new(0) };
    /// Table-read part of `VFS_NS`.
    static VFS_TABLE_READ_NS: Cell<u64> = const { Cell::new(0) };
    /// Checkpoint files this thread created while tracing was on.
    static CKPT_CREATES: Cell<u64> = const { Cell::new(0) };
}

/// Table-read nanoseconds spent on the calling thread (tracing on only).
pub fn thread_table_read_ns() -> u64 {
    VFS_TABLE_READ_NS.with(Cell::get)
}

/// Checkpoint files the calling thread has created (tracing on only).
pub fn thread_ckpt_creates() -> u64 {
    CKPT_CREATES.with(Cell::get)
}

/// Vfs nanoseconds spent on the calling thread so far (tracing on only).
pub fn thread_vfs_ns() -> u64 {
    VFS_NS.with(Cell::get)
}

/// Tag the calling thread's next spans with request id `req`.
pub fn set_request(req: u64) {
    REQ.with(|r| r.set(req));
}

/// The span store and the Vfs counters. Off until [`Tracer::enable`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    classes: [ClassCounters; 5],
    renames: AtomicU64,
    rename_ns: AtomicU64,
    dir_syncs: AtomicU64,
    dir_sync_ns: AtomicU64,
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            classes: Default::default(),
            renames: AtomicU64::new(0),
            rename_ns: AtomicU64::new(0),
            dir_syncs: AtomicU64::new(0),
            dir_sync_ns: AtomicU64::new(0),
        })
    }

    /// Turn recording on or off.
    pub fn enable(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// True while recording.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that closes when the guard drops (a no-op when off).
    pub fn enter(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        SpanGuard {
            open: Some((Arc::clone(self), name, id, parent, self.now_ns())),
        }
    }

    fn record(&self, span: Span) {
        // Called from `SpanGuard::drop`, which must not panic; a push
        // leaves the store valid at every step, so a poisoned guard is
        // safe to take back.
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a leaf span that already ended (used by the Vfs wrapper).
    fn leaf(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        self.record(Span {
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req: REQ.with(Cell::get),
            start_ns,
            end_ns,
        });
    }

    /// Current Vfs counters.
    pub fn vfs(&self) -> VfsSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut class = [ClassSnapshot::default(); 5];
        for (i, c) in class.iter_mut().enumerate() {
            let k = &self.classes[i];
            *c = ClassSnapshot {
                reads: ld(&k.reads),
                read_bytes: ld(&k.read_bytes),
                read_ns: ld(&k.read_ns),
                writes: ld(&k.writes),
                write_bytes: ld(&k.write_bytes),
                write_ns: ld(&k.write_ns),
                syncs: ld(&k.syncs),
                sync_ns: ld(&k.sync_ns),
            };
        }
        VfsSnapshot {
            class,
            renames: ld(&self.renames),
            rename_ns: ld(&self.rename_ns),
            dir_syncs: ld(&self.dir_syncs),
            dir_sync_ns: ld(&self.dir_sync_ns),
        }
    }

    /// Write every span as one JSON line to `path`; returns the count.
    pub fn write_spans(&self, path: &Path) -> io::Result<usize> {
        let spans = self.spans.lock().expect("span store lock poisoned");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }

    /// Spans that did not fit in memory.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Time `f` as one Vfs operation on `class`; `kind` picks the counter.
    fn vfs_op<T>(
        &self,
        class: usize,
        kind: VfsKind,
        bytes: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        if !self.enabled() {
            return f();
        }
        let start = self.now_ns();
        let res = f();
        let end = self.now_ns();
        let ns = end - start;
        VFS_NS.with(|c| c.set(c.get() + ns));
        if class == 0 && matches!(kind, VfsKind::ReadAt | VfsKind::ReadFile) {
            VFS_TABLE_READ_NS.with(|c| c.set(c.get() + ns));
        }
        let add = |a: &AtomicU64, v: u64| {
            a.fetch_add(v, Ordering::Relaxed);
        };
        let k = &self.classes[class];
        let n = res.as_ref().map_or(0, bytes);
        match kind {
            VfsKind::ReadAt | VfsKind::ReadFile => {
                add(&k.reads, 1);
                add(&k.read_bytes, n);
                add(&k.read_ns, ns);
                // Positional reads are the hot path: counted, not spanned.
                if matches!(kind, VfsKind::ReadFile) {
                    self.leaf(SPAN_NAMES[class][0], start, end);
                }
            }
            VfsKind::Write => {
                add(&k.writes, 1);
                add(&k.write_bytes, n);
                add(&k.write_ns, ns);
                self.leaf(SPAN_NAMES[class][1], start, end);
            }
            VfsKind::Sync => {
                add(&k.syncs, 1);
                add(&k.sync_ns, ns);
                self.leaf(SPAN_NAMES[class][2], start, end);
            }
            VfsKind::Rename => {
                add(&self.renames, 1);
                add(&self.rename_ns, ns);
                self.leaf("vfs.rename", start, end);
            }
            VfsKind::DirSync => {
                add(&self.dir_syncs, 1);
                add(&self.dir_sync_ns, ns);
                self.leaf("vfs.dir_sync", start, end);
            }
        }
        res
    }
}

#[derive(Debug, Clone, Copy)]
enum VfsKind {
    ReadAt,
    ReadFile,
    Write,
    Sync,
    Rename,
    DirSync,
}

const SPAN_NAMES: [[&str; 3]; 5] = [
    ["vfs.table.read", "vfs.table.write", "vfs.table.sync"],
    ["vfs.wal.read", "vfs.wal.write", "vfs.wal.sync"],
    ["vfs.ckpt.read", "vfs.ckpt.write", "vfs.ckpt.sync"],
    ["vfs.catalog.read", "vfs.catalog.write", "vfs.catalog.sync"],
    ["vfs.other.read", "vfs.other.write", "vfs.other.sync"],
];

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<(Arc<Tracer>, &'static str, u64, u64, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((tracer, name, id, parent, start_ns)) = self.open.take() {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.last() == Some(&id) {
                    s.pop();
                }
            });
            let end_ns = tracer.now_ns();
            tracer.record(Span {
                name,
                id,
                parent,
                req: REQ.with(Cell::get),
                start_ns,
                end_ns,
            });
        }
    }
}

/// File class from a path's name; temp files (`*.tmp`) take the class of
/// the file they will be renamed over.
pub fn classify(path: &Path) -> usize {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let name = name.strip_suffix(".tmp").unwrap_or(name);
    if name.ends_with(".nodes") || name.ends_with(".edges") {
        0
    } else if name.ends_with(".wal") {
        1
    } else if name.ends_with(".ckpt") {
        2
    } else if name == kcore_suite::graphstore::catalog::CATALOG_FILE {
        3
    } else {
        OTHER
    }
}

/// A [`Vfs`] that counts and times every operation per file class.
#[derive(Debug)]
pub struct TracingVfs {
    inner: Arc<dyn Vfs>,
    tracer: Arc<Tracer>,
}

impl TracingVfs {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn Vfs>, tracer: Arc<Tracer>) -> Arc<TracingVfs> {
        Arc::new(TracingVfs { inner, tracer })
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(TracedFile {
            inner: file,
            class: classify(path),
            tracer: Arc::clone(&self.tracer),
        })
    }
}

impl Vfs for TracingVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open_read(path)?))
    }
    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open_read_write(path)?))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.tracer.enabled() && classify(path) == 2 {
            CKPT_CREATES.with(|c| c.set(c.get() + 1));
        }
        Ok(self.wrap(path, self.inner.create(path)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.tracer.vfs_op(
            classify(to),
            VfsKind::Rename,
            |_| 0,
            || self.inner.rename(from, to),
        )
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.tracer.vfs_op(
            classify(path),
            VfsKind::DirSync,
            |_| 0,
            || self.inner.sync_parent_dir(path),
        )
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.tracer.vfs_op(
            classify(path),
            VfsKind::ReadFile,
            |b: &Vec<u8>| b.len() as u64,
            || self.inner.read(path),
        )
    }
}

#[derive(Debug)]
struct TracedFile {
    inner: Box<dyn VfsFile>,
    class: usize,
    tracer: Arc<Tracer>,
}

impl VfsFile for TracedFile {
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        let n = out.len() as u64;
        let inner = &mut self.inner;
        self.tracer.vfs_op(
            self.class,
            VfsKind::ReadAt,
            |_| n,
            || inner.read_exact_at(offset, out),
        )
    }
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        let n = data.len() as u64;
        let inner = &mut self.inner;
        self.tracer
            .vfs_op(self.class, VfsKind::Write, |_| n, || inner.write_all(data))
    }
    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.inner.seek_to(offset)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .vfs_op(self.class, VfsKind::Sync, |_| 0, || inner.sync_all())
    }
    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

/// Storage-side counters of a [`TracedGraph`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageCounters {
    /// `adjacency`/`with_adjacency` calls.
    pub adjacency_calls: u64,
    /// Neighbour ids handed to the caller.
    pub ids: u64,
    /// Time inside adjacency calls, excluding the caller's closure.
    pub adjacency_ns: u64,
    /// Time inside `read_degrees`.
    pub degrees_ns: u64,
    /// Vfs time spent inside the two above.
    pub vfs_ns: u64,
}

/// An [`AdjacencyRead`] that times the storage side of every call. For
/// `with_adjacency` the caller's closure — the kernel's per-neighbour
/// compute — is excluded from storage time.
#[derive(Debug)]
pub struct TracedGraph<G> {
    inner: G,
    counters: StorageCounters,
}

impl<G: AdjacencyRead> TracedGraph<G> {
    /// Wrap `inner`.
    pub fn new(inner: G) -> TracedGraph<G> {
        TracedGraph {
            inner,
            counters: StorageCounters::default(),
        }
    }

    /// Counters so far.
    pub fn counters(&self) -> StorageCounters {
        self.counters
    }
}

impl<G: AdjacencyRead> AdjacencyRead for TracedGraph<G> {
    fn num_nodes(&self) -> u32 {
        self.inner.num_nodes()
    }

    fn degree_sum(&self) -> u64 {
        self.inner.degree_sum()
    }

    fn read_degrees(&mut self) -> Result<Vec<u32>> {
        let (t, v) = (Instant::now(), thread_vfs_ns());
        let res = self.inner.read_degrees();
        self.counters.degrees_ns += t.elapsed().as_nanos() as u64;
        self.counters.vfs_ns += thread_vfs_ns() - v;
        res
    }

    fn adjacency(&mut self, v: u32, buf: &mut Vec<u32>) -> Result<()> {
        let (t, vfs) = (Instant::now(), thread_vfs_ns());
        let res = self.inner.adjacency(v, buf);
        self.counters.adjacency_ns += t.elapsed().as_nanos() as u64;
        self.counters.vfs_ns += thread_vfs_ns() - vfs;
        self.counters.adjacency_calls += 1;
        self.counters.ids += buf.len() as u64;
        res
    }

    fn with_adjacency<R>(&mut self, v: u32, f: impl FnOnce(&[u32]) -> R) -> Result<R>
    where
        Self: Sized,
    {
        let (t0, vfs) = (Instant::now(), thread_vfs_ns());
        let mut closure = None;
        let mut ids = 0u64;
        let res = self.inner.with_adjacency(v, |s| {
            ids = s.len() as u64;
            let t1 = Instant::now();
            let r = f(s);
            closure = Some((t1, Instant::now()));
            r
        });
        let t3 = Instant::now();
        let busy = match closure {
            Some((t1, t2)) => (t1 - t0) + (t3 - t2),
            None => t3 - t0,
        };
        self.counters.adjacency_ns += busy.as_nanos() as u64;
        self.counters.vfs_ns += thread_vfs_ns() - vfs;
        self.counters.adjacency_calls += 1;
        self.counters.ids += ids;
        res
    }

    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn classes_follow_file_names() {
        let c = |s: &str| CLASSES[classify(&PathBuf::from(s))];
        assert_eq!(c("d/g.nodes"), "table");
        assert_eq!(c("d/g.g3.edges"), "table");
        assert_eq!(c("d/g.wal"), "wal");
        assert_eq!(c("d/g.g1.ckpt.tmp"), "ckpt");
        assert_eq!(c("d/catalog.kc.tmp"), "catalog");
        assert_eq!(c("d/notes.txt"), "other");
    }

    #[test]
    fn spans_nest_and_stay_off_until_enabled() {
        let t = Tracer::new();
        drop(t.enter("ignored"));
        assert!(t.spans.lock().unwrap().is_empty());
        t.enable(true);
        {
            let _outer = t.enter("outer");
            let _inner = t.enter("inner");
        }
        let spans = t.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
    }
}
