//! Multi-graph serving: many [`CoreIndex`]es against one memory budget,
//! optionally durable across restarts.
//!
//! The paper prices everything against a single memory budget `M`;
//! [`CoreService`] makes that budget a *process-wide* resource. It owns one
//! [`SharedPool`] and a registry of named graphs, each opened through
//! [`CoreIndex::open_pooled`]: the pool arbitrates the global byte budget
//! across whichever graphs are busy, while every graph keeps a private
//! deterministic charge cache so its charged `read_ios` is bit-identical
//! whether it is served alone or alongside `K` contending graphs — only
//! [`physical_reads`](graphstore::IoSnapshot::physical_reads) move with
//! contention (see [`graphstore::pool`] for the accounting contract).
//!
//! Concurrency: the registry lock is held only to look names up; each graph
//! sits behind its own mutex, so operations on *different* graphs proceed
//! in parallel while operations on the same graph serialize. Evicting a
//! graph drops it from the registry; its pool frames are invalidated when
//! the last in-flight operation on it finishes (invalidate-on-drop via the
//! graph's [`PoolLease`](graphstore::PoolLease)).
//!
//! ## Durability
//!
//! A service built with [`CoreService::create_durable`] (or reopened with
//! [`CoreService::open_catalog`]) journals every maintenance operation and
//! survives restarts — including `SIGKILL` — without re-decomposing:
//!
//! * the **catalog** ([`graphstore::catalog::Catalog`], `catalog.kc`)
//!   records the pool configuration and every served graph's name, base
//!   path and charge budget;
//! * each graph has a **checkpoint** (`<name>.ckpt`): its maintained
//!   cores + `cnt` and pending update-buffer edits at a journal sequence
//!   number, replaced atomically;
//! * and a **write-ahead journal** (`<name>.wal`): every applied
//!   [`MaintainOp`], appended *before* it is applied and fsynced before it
//!   is acknowledged.
//!
//! [`CoreService::apply_batch`] is the single journaling mutation path
//! (append → apply → checkpoint once `checkpoint_every` ops accumulate →
//! truncate the journal → release the graph lock → fsync barrier);
//! [`CoreService::apply`] is a batch of one. Recovery loads the checkpoint
//! in one sequential scan and replays the journal tail through the very
//! same [`CoreIndex::apply`] dispatch. Durable graphs never rewrite their tables *in place*: a
//! table file is immutable from creation to deletion while edits
//! accumulate in the (checkpointed) update buffer, which is what makes
//! recovery exact at any kill point. What bounds that accumulation is
//! **generational compaction** ([`CoreService::compact`], triggered
//! automatically at [`DurableOptions::compact_after_edits`]): tables plus
//! buffered edits are rewritten into a fresh generation of files and the
//! catalog manifest's bumped generation number is the single commit
//! point, after which buffer and journal are truncated. The full
//! crash-window analysis lives in ARCHITECTURE.md ("Durability" and
//! "Compaction").
//!
//! ## Failure containment and self-healing
//!
//! The service is multi-tenant, so one graph's failure must never take the
//! others down. Every fallible path returns a typed
//! [`graphstore::Error`] — nothing in this module panics on I/O failure —
//! and each served graph carries a four-state health machine
//! ([`HealthStatus`]):
//!
//! * **Healthy → Quarantined**: an operation failing with an I/O or
//!   corruption error (or a mutex poisoned by a panicking thread) seals
//!   the graph — its slot stays in the registry but every further
//!   operation is rejected with [`graphstore::Error::Quarantined`], while
//!   all other graphs keep serving. After a mid-mutation failure the
//!   in-memory cores/`cnt` can no longer be trusted; the on-disk
//!   journal/checkpoint protocol is what makes recovery safe.
//! * **Healthy → ReadOnly**: a *disk-full* failure on a (rolled-back)
//!   journal append or a checkpoint write damages nothing — it only stops
//!   writers — so the graph degrades instead of sealing: queries keep
//!   serving the last committed state, mutations are refused with
//!   [`graphstore::Error::ReadOnly`], and the graph is promoted back once
//!   a probe ([`CoreService::probe_read_only`]) proves space returned. A
//!   *journal fsync* that fails — disk-full included — quarantines: its
//!   batch is applied in memory but reported failed, and the probe's
//!   checkpoint would make it durable.
//! * **Quarantined → Repairing → Healthy**: [`CoreService::repair`]
//!   rebuilds a quarantined graph *online* — fsck tail-repair of its
//!   durable artefacts, the same recovery path a restart uses, and the
//!   Theorem 4.1 fixpoint certificate as the re-admission gate — without
//!   disturbing any other tenant.
//!
//! The [`start_self_heal`] supervisor automates all three transitions
//! (bounded repair retries with exponential backoff, read-only probing,
//! and a rate-limited background scrub through the fsck invariants);
//! every reason along the way is kept in a bounded per-graph history so
//! [`CoreService::health`] can show the full causal chain.
//! [`CoreService::evict`] (which bypasses quarantine) followed by a
//! re-open remains the manual big hammer. All file I/O flows through a
//! [`graphstore::Vfs`], so the crash-point torture tests inject faults
//! here without touching production code paths.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use graphstore::{
    working_set_charge_budget, AdmissionController, AdmissionPermit, Catalog, CatalogEntry,
    DiskGraph, EvictionPolicy, FormatVersion, GroupCommitWal, IoCounter, IoSnapshot, QosConfig,
    Result, SharedPool, StateCheckpoint, StdVfs, ThrottledVfs, Vfs, Wal, DEFAULT_BLOCK_SIZE,
};
use semicore::{CoreState, MaintainOp, MaintainStats, ScanExecutor};

use crate::fsck::{
    check_generation_debris, check_journal, check_tables_and_checkpoint, FsckReport,
};
use crate::CoreIndex;

/// Update-buffer capacity for durable graphs: self-flush is disabled (a
/// buffer-triggered flush would rewrite the base tables behind the
/// checkpoint protocol's back and double-apply edits on recovery). The
/// *actual* memory bound comes from the service instead: once a graph's
/// pending edits reach [`DurableOptions::compact_after_edits`] the apply
/// path runs a generational compaction, which rewrites the tables
/// *through* the commit protocol and empties the buffer.
const DURABLE_BUFFER_CAPACITY: usize = usize::MAX;

/// Default [`DurableOptions::compact_after_edits`]: one million buffered
/// edit entries (~16 MiB of buffer) before the apply path compacts.
pub const DEFAULT_COMPACT_AFTER_EDITS: usize = 1 << 20;

/// Durability knobs for [`CoreService::create_durable_with`] /
/// [`CoreService::open_catalog_with`].
///
/// The journal itself takes no options: every durable graph journals
/// through a [`GroupCommitWal`] — ops are appended under the graph's lock,
/// and one fsync barrier, run after the lock is released, covers every op
/// appended before it starts (no gather window). An op is acknowledged
/// only once a barrier covers it.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Checkpoint (and truncate the journal) after this many maintenance
    /// ops per graph. Smaller values bound the replay tail; larger values
    /// amortise the `O(n)` checkpoint write. Clamped to at least 1.
    pub checkpoint_every: u64,
    /// Compact a graph once its update buffer holds this many edit
    /// entries (an undirected edge op buffers two entries, one per
    /// endpoint). This is the durable path's **memory bound**: without
    /// it the buffer — and with it every checkpoint and every recovery
    /// replay — grows without limit, because durable graphs never
    /// self-flush. Each buffered entry costs a few tens of bytes
    /// (hash-map node + `u32` id), so the per-graph buffer ceiling is
    /// `O(compact_after_edits)`. Clamped to at least 2 (one edge op).
    pub compact_after_edits: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            checkpoint_every: 64,
            compact_after_edits: DEFAULT_COMPACT_AFTER_EDITS,
        }
    }
}

/// The journal fsync a commit still owes once the graph lock is released:
/// the graph's journal and the LSN of the commit's last record.
type Barrier = (Arc<GroupCommitWal>, u64);

/// Wire encoding of one journal record: sequence number, then the op.
fn encode_record(seq: u64, op: MaintainOp) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + semicore::MAINTAIN_OP_LEN);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&op.encode());
    payload
}

/// One served graph: its index plus the journaling state of the durable
/// apply path. The whole struct sits behind the graph's mutex, so sequence
/// numbers never race with the ops they number.
#[derive(Debug)]
struct Served {
    index: CoreIndex,
    /// The graph's journal (durable services only).
    wal: Option<Arc<GroupCommitWal>>,
    /// Sequence number of the last applied op.
    seq: u64,
    /// Sequence number of the last completed checkpoint.
    ck_seq: u64,
}

/// Catalog bookkeeping of a durable service.
#[derive(Debug)]
struct Durable {
    dir: PathBuf,
    checkpoint_every: u64,
    /// Compaction threshold in buffered edit entries (see
    /// [`DurableOptions::compact_after_edits`]).
    compact_after_edits: usize,
    entries: Mutex<HashMap<String, DurableEntry>>,
}

#[derive(Debug, Clone)]
struct DurableEntry {
    base: PathBuf,
    charge_bytes: u64,
    checkpoint_seq: u64,
    format: FormatVersion,
    /// Table generation: 0 reads the registered base verbatim, g > 0
    /// reads `<base>.g<g>` (see [`graphstore::generation_base`]).
    generation: u64,
}

/// Checkpoint path for a graph at a given table generation. Generation 0
/// keeps the historical `<name>.ckpt` name (so pre-generation catalogs
/// recover unchanged); generation `g > 0` uses `<name>.g<g>.ckpt`.
///
/// Keying the checkpoint by generation is what makes the catalog rewrite
/// the *single* commit point of a compaction: the bumped manifest entry
/// atomically switches both the tables **and** the checkpoint that
/// describes them. A shared checkpoint path could not be ordered safely —
/// written before the catalog commit, a crash between the two would pair
/// the old tables with an empty-edits checkpoint (edits lost); written
/// after, a crash would pair the new tables (edits baked in) with the old
/// checkpoint (edits re-applied twice).
fn ckpt_path(dir: &Path, name: &str, generation: u64) -> PathBuf {
    if generation == 0 {
        dir.join(format!("{name}.ckpt"))
    } else {
        dir.join(format!("{name}.g{generation}.ckpt"))
    }
}

fn wal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.wal"))
}

/// Durable graph names become file names; restrict them so they can never
/// traverse out of the data directory.
fn validate_durable_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(graphstore::Error::InvalidArgument(format!(
            "durable graph name {name:?} must match [A-Za-z0-9_-]+ (it names on-disk files)"
        )))
    }
}

/// A process-wide k-core serving layer: open, decompose, maintain, query
/// and evict many disk-resident graphs concurrently against **one** global
/// byte budget — with optional on-disk durability of the whole registry.
///
/// ```
/// use graphstore::TempDir;
/// use kcore_suite::CoreService;
///
/// let dir = TempDir::new("doc-service").unwrap();
/// let service = CoreService::new(1 << 20).unwrap(); // 1 MiB for everyone
/// service
///     .create("tri", &dir.path().join("tri"), [(0, 1), (1, 2), (0, 2)], 3)
///     .unwrap();
/// service
///     .create("path", &dir.path().join("path"), [(0, 1), (1, 2)], 3)
///     .unwrap();
/// assert_eq!(service.kmax("tri").unwrap(), 2);
/// assert_eq!(service.kmax("path").unwrap(), 1);
/// service.insert_edge("path", 0, 2).unwrap(); // now a triangle too
/// assert_eq!(service.kmax("path").unwrap(), 2);
/// service.evict("tri").unwrap(); // frames return to the pool
/// assert_eq!(service.graph_names(), vec!["path".to_string()]);
/// ```
///
/// The durable variant survives a restart with its maintained state:
///
/// ```
/// use graphstore::TempDir;
/// use kcore_suite::CoreService;
///
/// let dir = TempDir::new("doc-durable").unwrap();
/// let data = dir.path().join("data");
/// {
///     let svc = CoreService::create_durable(&data, 1 << 20).unwrap();
///     svc.create("g", &dir.path().join("g"), [(0, 1), (1, 2)], 3).unwrap();
///     svc.insert_edge("g", 0, 2).unwrap(); // journaled, then applied
/// } // process "dies" here
/// let svc = CoreService::open_catalog(&data).unwrap();
/// assert_eq!(svc.kmax("g").unwrap(), 2); // restored without re-decomposing
/// ```
#[derive(Debug)]
pub struct CoreService {
    pool: SharedPool,
    graphs: Mutex<HashMap<String, Slot>>,
    durable: Option<Durable>,
    /// Filesystem seam every counter (and the catalog writer) goes
    /// through; [`StdVfs`] in production, a fault-injecting
    /// [`graphstore::FaultVfs`] under the torture tests.
    vfs: Arc<dyn Vfs>,
    /// Per-tenant admission control over the charge budget (`None` admits
    /// everything). Installed by [`CoreService::set_qos`]; every serving
    /// entry point takes a permit sized by the graph's working set before
    /// touching its lock.
    qos: Mutex<Option<Arc<AdmissionController>>>,
    /// Per-operation deadline (`None` runs unlimited). Installed by
    /// [`CoreService::set_op_timeout`]; armed on the graph's I/O counter
    /// for the cancellable stretch of each operation.
    op_timeout: Mutex<Option<Duration>>,
}

/// Bound on a graph's degradation-reason history: enough to show a causal
/// chain (first failure → scrub finding → failed repairs) without letting
/// a crash-looping graph grow it without limit.
const MAX_HEALTH_REASONS: usize = 8;

/// Bound on a graph's repair/promotion event log.
const MAX_REPAIR_LOG: usize = 16;

/// Default physical-read pacing of the online scrubber, bytes per second.
pub const DEFAULT_SCRUB_RATE: u64 = 8 << 20;

/// Serving state of one graph (see the module docs, "Failure containment
/// and self-healing").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Serving reads and writes.
    Healthy,
    /// Serving the last committed state read-only: a recoverable
    /// durability failure (a full disk) stopped the journal and
    /// checkpoint writers. Mutations are refused with
    /// [`graphstore::Error::ReadOnly`]; the supervisor probes for space
    /// and promotes the graph back automatically.
    ReadOnly,
    /// An online repair is rebuilding the graph from its durable state;
    /// operations are refused until it finishes.
    Repairing,
    /// Untrusted after an I/O failure, corruption or a panicked
    /// operation; every operation is refused with
    /// [`graphstore::Error::Quarantined`] until the repair supervisor (or
    /// an explicit [`CoreService::repair`]) brings the graph back, or
    /// [`CoreService::evict`] clears the slot.
    Quarantined,
}

impl HealthStatus {
    /// Stable lowercase tag (`healthy`, `read-only`, `repairing`,
    /// `quarantined`) used by the wire protocol's `health` verb.
    pub fn tag(&self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::ReadOnly => "read-only",
            HealthStatus::Repairing => "repairing",
            HealthStatus::Quarantined => "quarantined",
        }
    }
}

/// Mutable health record of one served graph. Lives behind its own mutex,
/// shared out of the registry slot, so a failing operation can update it
/// after the registry lock is gone.
#[derive(Debug)]
struct HealthState {
    status: HealthStatus,
    /// Causal chain of degradations, oldest first (bounded; see
    /// [`HealthState::push_reason`]).
    reasons: Vec<String>,
    /// How many reasons the bound dropped from the middle of the chain.
    dropped_reasons: u64,
    /// Failed repair attempts since the graph was last healthy.
    repair_attempts: u32,
    /// Set by the supervisor once its retries are spent; sticky graphs
    /// are left alone by the supervisor (a manual [`CoreService::repair`]
    /// still works and clears the flag on success).
    sticky: bool,
    /// Supervisor backoff: no automatic repair before this instant.
    next_attempt_at: Option<Instant>,
    /// Bounded log of repair/promotion events, oldest first.
    repair_log: Vec<String>,
}

impl HealthState {
    fn new() -> HealthState {
        HealthState {
            status: HealthStatus::Healthy,
            reasons: Vec::new(),
            dropped_reasons: 0,
            repair_attempts: 0,
            sticky: false,
            next_attempt_at: None,
            repair_log: Vec::new(),
        }
    }

    /// Append to the reason chain. Every distinct failure is kept — not
    /// just the first — bounded by dropping the *second* entry when full,
    /// so the root cause and the freshest failures both survive. An exact
    /// repeat of the newest reason (a retry loop hitting one failure) is
    /// recorded once.
    fn push_reason(&mut self, reason: &str) {
        if self.reasons.last().is_some_and(|last| last == reason) {
            return;
        }
        if self.reasons.len() >= MAX_HEALTH_REASONS {
            self.reasons.remove(1);
            self.dropped_reasons += 1;
        }
        self.reasons.push(reason.to_string());
    }

    fn push_log(&mut self, line: String) {
        if self.repair_log.len() >= MAX_REPAIR_LOG {
            self.repair_log.remove(0);
        }
        self.repair_log.push(line);
    }

    fn last_reason(&self) -> String {
        self.reasons
            .last()
            .cloned()
            .unwrap_or_else(|| "unrecorded failure".to_string())
    }
}

/// Point-in-time snapshot of one graph's health, as returned by
/// [`CoreService::health`] (and rendered by the server's `health` verb).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Current serving state.
    pub status: HealthStatus,
    /// Causal chain of degradation reasons, oldest first (bounded — see
    /// `dropped_reasons`).
    pub reasons: Vec<String>,
    /// Reasons the bound dropped from the middle of the chain.
    pub dropped_reasons: u64,
    /// Failed repair attempts since the graph was last healthy.
    pub repair_attempts: u32,
    /// True once the supervisor exhausted its retries; the graph stays
    /// quarantined until repaired manually or evicted.
    pub sticky: bool,
    /// Repair/promotion event log, oldest first (bounded).
    pub repair_log: Vec<String>,
}

/// Registry slot: the graph's lock plus metadata readable without it.
#[derive(Debug)]
struct Slot {
    handle: Arc<Mutex<Served>>,
    /// Edge-table encoding, fixed at open. Listing/diagnostic commands
    /// read it under the registry lock alone, so they never stall behind
    /// a graph that is mid-scan or mid-maintenance.
    format: FormatVersion,
    /// The graph's charge budget — also the working-set size its
    /// operations are admitted at when QoS is enabled.
    charge_bytes: u64,
    /// Registered base path of the graph's generation-0 tables — what a
    /// repair of a *non-durable* graph re-opens and re-decomposes.
    base: PathBuf,
    /// The graph's health record. Shared (not inline in the slot) so a
    /// failing operation can update it after the registry lock has been
    /// released, without re-entering the registry.
    health: Arc<Mutex<HealthState>>,
}

impl Slot {
    fn new(
        handle: Arc<Mutex<Served>>,
        format: FormatVersion,
        charge_bytes: u64,
        base: &Path,
    ) -> Slot {
        Slot {
            handle,
            format,
            charge_bytes,
            base: base.to_path_buf(),
            health: Arc::new(Mutex::new(HealthState::new())),
        }
    }
}

/// Lock a metadata mutex, recovering from poison. Safe for the registry,
/// health and catalog-entry maps: they hold plain lookup data that is
/// updated in single assignments, so a panicking holder cannot leave them
/// half-written the way a mid-maintenance graph can be.
fn lock_meta<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Record a failure and escalate the graph to quarantine. Every reason is
/// kept in the bounded chain — not just the first — so the `health` verb
/// and the repair log can show the full causal history.
fn set_quarantine(health: &Mutex<HealthState>, reason: &str) {
    let mut h = lock_meta(health);
    h.push_reason(reason);
    h.status = HealthStatus::Quarantined;
}

/// Record a recoverable durability failure and degrade the graph to
/// read-only. Never *downgrades* a quarantine or an in-flight repair:
/// a full disk hit while a graph is already sealed must not re-admit
/// queries against untrusted state.
fn set_read_only(health: &Mutex<HealthState>, reason: &str) {
    let mut h = lock_meta(health);
    h.push_reason(reason);
    if matches!(h.status, HealthStatus::Healthy | HealthStatus::ReadOnly) {
        h.status = HealthStatus::ReadOnly;
    }
}

/// Route an operation failure into the health machine: disk-full degrades
/// to read-only (a full disk damages nothing, it only stops writers), any
/// other I/O failure or corruption quarantines (the in-memory state can
/// no longer be trusted), and validation/range/timeout errors leave the
/// graph untouched — they are the caller's fault, or a deadline expiring
/// at a safe point.
fn fail_graph(health: &Mutex<HealthState>, e: &graphstore::Error, what: &str) {
    if e.is_disk_full() {
        set_read_only(health, &format!("{what}: {e}"));
    } else if matches!(
        e,
        graphstore::Error::Io(_) | graphstore::Error::Corrupt { .. }
    ) {
        set_quarantine(health, &format!("{what}: {e}"));
    }
}

/// Route a compaction failure: before the catalog commit point nothing
/// has switched, so a full disk only degrades the graph to read-only (the
/// old generation keeps serving, new-generation debris is swept by fsck);
/// after the commit — or on any non-space failure — the artefacts may sit
/// between states, so the graph is sealed and the committed manifest
/// decides on re-open.
fn compact_failure(health: &Mutex<HealthState>, e: &graphstore::Error, committed: bool) {
    if !committed && e.is_disk_full() {
        set_read_only(
            health,
            &format!("compaction ran out of disk space before its commit point: {e}"),
        );
    } else if matches!(
        e,
        graphstore::Error::Io(_) | graphstore::Error::Corrupt { .. }
    ) {
        set_quarantine(health, &format!("compaction failed: {e}"));
    }
}

/// RAII per-op deadline on a graph's I/O counter: armed at construction,
/// disarmed on drop whatever path the operation exits through.
struct DeadlineGuard {
    counter: Option<Arc<IoCounter>>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        if let Some(c) = &self.counter {
            c.set_deadline(None);
        }
    }
}

impl CoreService {
    /// A service arbitrating `budget_bytes` across all served graphs, with
    /// the default block size and the scan-resistant eviction policy.
    /// Errors when the budget holds fewer than two
    /// blocks. Nothing is persisted — see [`CoreService::create_durable`].
    pub fn new(budget_bytes: u64) -> Result<CoreService> {
        Self::with_config(
            DEFAULT_BLOCK_SIZE,
            budget_bytes,
            EvictionPolicy::ScanLifo,
            ScanExecutor::Sequential,
        )
    }

    /// [`CoreService::new`] with every knob explicit: block size `B`,
    /// global budget and pool eviction policy (also used by each graph's
    /// charge cache). The [`ScanExecutor`] is ignored: every decomposition
    /// runs the paper's sequential schedule.
    pub fn with_config(
        block_size: usize,
        budget_bytes: u64,
        policy: EvictionPolicy,
        exec: ScanExecutor,
    ) -> Result<CoreService> {
        Self::with_config_vfs(block_size, budget_bytes, policy, exec, StdVfs::arc())
    }

    /// [`CoreService::with_config`] with an explicit filesystem seam. Every
    /// I/O counter the service creates routes through `vfs`, so a
    /// [`graphstore::FaultVfs`] here puts the whole serving stack under
    /// fault injection.
    pub fn with_config_vfs(
        block_size: usize,
        budget_bytes: u64,
        policy: EvictionPolicy,
        _exec: ScanExecutor,
        vfs: Arc<dyn Vfs>,
    ) -> Result<CoreService> {
        Ok(CoreService {
            pool: SharedPool::with_policy(block_size, budget_bytes, policy)?,
            graphs: Mutex::new(HashMap::new()),
            durable: None,
            vfs,
            qos: Mutex::new(None),
            op_timeout: Mutex::new(None),
        })
    }

    /// A durable service persisting its registry under `dir` (created if
    /// absent), with the default block size, policy and checkpoint
    /// cadence. Errors if `dir` already holds a catalog —
    /// reopen an existing one with [`CoreService::open_catalog`].
    pub fn create_durable(dir: &Path, budget_bytes: u64) -> Result<CoreService> {
        Self::create_durable_with(
            dir,
            DEFAULT_BLOCK_SIZE,
            budget_bytes,
            EvictionPolicy::ScanLifo,
            ScanExecutor::Sequential,
            DurableOptions::default(),
        )
    }

    /// [`CoreService::create_durable`] with every knob explicit. The pool
    /// configuration (block size, budget, policy) is written into the
    /// catalog and restored by [`CoreService::open_catalog`]; the checkpoint
    /// cadence is a runtime choice and is not. The [`ScanExecutor`] is
    /// ignored (see [`CoreService::with_config`]).
    pub fn create_durable_with(
        dir: &Path,
        block_size: usize,
        budget_bytes: u64,
        policy: EvictionPolicy,
        exec: ScanExecutor,
        opts: DurableOptions,
    ) -> Result<CoreService> {
        Self::create_durable_with_vfs(
            dir,
            block_size,
            budget_bytes,
            policy,
            exec,
            opts,
            StdVfs::arc(),
        )
    }

    /// [`CoreService::create_durable_with`] with an explicit filesystem
    /// seam (see [`CoreService::with_config_vfs`]).
    pub fn create_durable_with_vfs(
        dir: &Path,
        block_size: usize,
        budget_bytes: u64,
        policy: EvictionPolicy,
        _exec: ScanExecutor,
        opts: DurableOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<CoreService> {
        std::fs::create_dir_all(dir)?;
        if Catalog::exists_in(dir) {
            return Err(graphstore::Error::InvalidArgument(format!(
                "{} already holds a catalog; reopen it with open_catalog",
                dir.display()
            )));
        }
        let svc = CoreService {
            pool: SharedPool::with_policy(block_size, budget_bytes, policy)?,
            graphs: Mutex::new(HashMap::new()),
            durable: Some(Durable {
                dir: dir.to_path_buf(),
                checkpoint_every: opts.checkpoint_every.max(1),
                compact_after_edits: opts.compact_after_edits.max(2),
                entries: Mutex::new(HashMap::new()),
            }),
            vfs,
            qos: Mutex::new(None),
            op_timeout: Mutex::new(None),
        };
        svc.rewrite_catalog()?;
        Ok(svc)
    }

    /// Reopen the durable service persisted under `dir`: load the manifest,
    /// rebuild the pool it describes, and restore every catalogued graph —
    /// checkpoint first (one sequential scan, **no** re-decomposition),
    /// then the journal tail replayed through the same typed-op path live
    /// traffic uses. See [`CoreService::open_catalog_with`] for the
    /// durability options.
    pub fn open_catalog(dir: &Path) -> Result<CoreService> {
        Self::open_catalog_with(dir, ScanExecutor::Sequential, DurableOptions::default())
    }

    /// [`CoreService::open_catalog`] with explicit durability options. The
    /// [`ScanExecutor`] is ignored (see [`CoreService::with_config`]).
    pub fn open_catalog_with(
        dir: &Path,
        exec: ScanExecutor,
        opts: DurableOptions,
    ) -> Result<CoreService> {
        Self::open_catalog_with_vfs(dir, exec, opts, StdVfs::arc())
    }

    /// [`CoreService::open_catalog_with`] with an explicit filesystem seam
    /// (see [`CoreService::with_config_vfs`]). Recovery itself — catalog,
    /// checkpoint and journal reads — goes through `vfs` too.
    pub fn open_catalog_with_vfs(
        dir: &Path,
        _exec: ScanExecutor,
        opts: DurableOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<CoreService> {
        let catalog = Catalog::read_with(dir, vfs.as_ref())?;
        let svc = CoreService {
            pool: SharedPool::with_policy(
                catalog.block_size,
                catalog.budget_bytes,
                catalog.policy,
            )?,
            graphs: Mutex::new(HashMap::new()),
            durable: Some(Durable {
                dir: dir.to_path_buf(),
                checkpoint_every: opts.checkpoint_every.max(1),
                compact_after_edits: opts.compact_after_edits.max(2),
                entries: Mutex::new(HashMap::new()),
            }),
            vfs,
            qos: Mutex::new(None),
            op_timeout: Mutex::new(None),
        };
        for entry in &catalog.entries {
            svc.recover_entry(entry)?;
        }
        Ok(svc)
    }

    /// The data directory of a durable service (`None` when nothing is
    /// persisted).
    pub fn data_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// The shared pool, for budget/occupancy/hit-rate introspection.
    pub fn pool(&self) -> &SharedPool {
        &self.pool
    }

    /// Install (or, with `None`, remove) per-tenant admission control.
    /// With QoS enabled, every query/maintenance entry point first admits
    /// the graph's working set against [`QosConfig::capacity_bytes`]:
    /// concurrent ops on one graph share a single admission (they share a
    /// working set), distinct graphs queue in weighted-fair order, and
    /// requests that cannot be queued are shed with
    /// [`graphstore::Error::Overloaded`]. Replacing the controller drops
    /// the old queue's bookkeeping once its in-flight permits finish.
    pub fn set_qos(&self, config: Option<QosConfig>) {
        *lock_meta(&self.qos) = config.map(AdmissionController::new);
    }

    /// The live admission controller, for introspection (`None` when QoS
    /// is off).
    pub fn qos(&self) -> Option<Arc<AdmissionController>> {
        lock_meta(&self.qos).clone()
    }

    /// Set a tenant's QoS weight (see
    /// [`AdmissionController::set_weight`]). Errors when QoS is off.
    pub fn set_tenant_weight(&self, name: &str, weight: u32) -> Result<()> {
        let ctl = self.qos().ok_or_else(|| {
            graphstore::Error::InvalidArgument("no QoS configured; set a budget first".to_string())
        })?;
        ctl.set_weight(name, weight);
        Ok(())
    }

    /// Take an admission permit for one operation on `name` (a no-op
    /// `None` when QoS is off). Called *before* the graph lock so a
    /// queued request never blocks the graph it is waiting to use.
    fn admit(&self, name: &str) -> Result<Option<AdmissionPermit>> {
        let Some(ctl) = self.qos() else {
            return Ok(None);
        };
        let bytes = self
            .registry()
            .get(name)
            .map(|s| s.charge_bytes)
            .ok_or_else(|| not_serving(name))?;
        ctl.admit(name, bytes).map(Some)
    }

    /// Names of the graphs currently being served, sorted.
    pub fn graph_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.registry().keys().cloned().collect();
        names.sort();
        names
    }

    /// True when `name` is currently being served.
    pub fn contains(&self, name: &str) -> bool {
        self.registry().contains_key(name)
    }

    /// Open the graph stored at `<base>.nodes/.edges` and serve it as
    /// `name`, decomposing it on the way in. The charge budget defaults to
    /// the graph's whole working set (both tables plus headroom), which
    /// makes its charged `read_ios` equal *distinct blocks touched*,
    /// however the shared pool is contended.
    pub fn open(&self, name: &str, base: &Path) -> Result<()> {
        let charge = working_set_charge_budget(base, self.pool.block_size())?;
        self.open_with_charge(name, base, charge)
    }

    /// [`CoreService::open`] with an explicit per-graph charge budget (the
    /// model `M` this graph's `read_ios` is priced against). Budgets below
    /// two blocks charge per shared-pool miss instead — honest, but
    /// dependent on the other graphs' traffic.
    ///
    /// On a durable service this also registers the graph in the catalog,
    /// writes its initial checkpoint and creates its journal, so a restart
    /// restores it.
    pub fn open_with_charge(&self, name: &str, base: &Path, charge_bytes: u64) -> Result<()> {
        if self.durable.is_some() {
            validate_durable_name(name)?;
        }
        if self.contains(name) {
            return Err(already_serving(name));
        }
        // Decompose outside the registry lock: other graphs keep serving.
        let counter = IoCounter::with_vfs(self.pool.block_size(), Arc::clone(&self.vfs));
        let disk = DiskGraph::open_pooled(base, counter, &self.pool, charge_bytes)?;
        let format = disk.format_version();
        let capacity = if self.durable.is_some() {
            DURABLE_BUFFER_CAPACITY
        } else {
            graphstore::DEFAULT_BUFFER_CAPACITY
        };
        let index = CoreIndex::from_disk_graph(disk, capacity)?;

        // Win the name *before* touching any on-disk sidecar: a losing
        // racer must never overwrite the winner's checkpoint or truncate a
        // journal the winner is already appending to. The graph's own lock
        // is held across the sidecar writes so no apply can slip in while
        // `wal` is still `None` (which would skip journaling on a durable
        // service). Lock order (graph, then catalog entries) matches
        // `checkpoint_locked`; nothing locks a graph while holding the
        // registry lock, so holding the graph lock across the registry
        // insert below cannot deadlock.
        let handle = Arc::new(Mutex::new(Served {
            index,
            wal: None,
            seq: 0,
            ck_seq: 0,
        }));
        // Freshly created mutex: nothing else holds it, so locking cannot
        // observe poison — but recover anyway rather than assert.
        let mut served = lock_meta(&handle);
        {
            let mut graphs = self.registry();
            if graphs.contains_key(name) {
                // A racing open beat us; the loser's lease frees its frames.
                return Err(already_serving(name));
            }
            graphs.insert(
                name.to_string(),
                Slot::new(Arc::clone(&handle), format, charge_bytes, base),
            );
        }
        if let Some(d) = &self.durable {
            let publish = (|| -> Result<()> {
                // The seq-0 checkpoint: same writer as every later one
                // (`served.wal` is still None, so no journal to truncate,
                // and the entry map has nothing to refresh yet).
                self.checkpoint_locked(name, &mut served)?;
                let counter = served.index.graph_mut().disk().counter().clone();
                let wal = Wal::create(&wal_path(&d.dir, name), counter)?;
                served.wal = Some(Arc::new(GroupCommitWal::wrap(wal)?));
                lock_meta(&d.entries).insert(
                    name.to_string(),
                    DurableEntry {
                        base: base.to_path_buf(),
                        charge_bytes,
                        checkpoint_seq: 0,
                        format,
                        generation: 0,
                    },
                );
                self.rewrite_catalog()
            })();
            if let Err(e) = publish {
                // Roll the registration back rather than serve a graph the
                // catalog will not restore.
                self.registry().remove(name);
                lock_meta(&d.entries).remove(name);
                let _ = self.vfs.remove_file(&ckpt_path(&d.dir, name, 0));
                let _ = self.vfs.remove_file(&wal_path(&d.dir, name));
                return Err(e);
            }
        }
        Ok(())
    }

    /// Build a graph from `edges` at `<base>.nodes/.edges`, then serve it
    /// as `name` (see [`CoreIndex::create`] for the edge-list semantics).
    pub fn create(
        &self,
        name: &str,
        base: &Path,
        edges: impl IntoIterator<Item = (u32, u32)>,
        min_nodes: u32,
    ) -> Result<()> {
        if self.contains(name) {
            return Err(already_serving(name));
        }
        let mem = graphstore::MemGraph::from_edges(edges, min_nodes);
        let counter = IoCounter::with_vfs(self.pool.block_size(), Arc::clone(&self.vfs));
        graphstore::write_mem_graph(base, &mem, counter)?;
        self.open(name, base)
    }

    /// Stop serving `name`. In-flight operations on the graph finish
    /// normally; its pool frames are invalidated when the last one drops
    /// its handle. On a durable service the graph also leaves the catalog
    /// and its checkpoint/journal files are removed — the base tables are
    /// untouched, so it can be re-opened (and re-decomposed) later.
    ///
    /// Eviction deliberately **bypasses quarantine**: removing a poisoned
    /// or corrupted graph is how an operator clears it for re-open.
    pub fn evict(&self, name: &str) -> Result<()> {
        self.registry()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| not_serving(name))?;
        if let Some(d) = &self.durable {
            let entry = lock_meta(&d.entries).remove(name);
            self.rewrite_catalog()?;
            // Sidecars of an uncatalogued graph are dead weight; failures
            // here are harmless (recovery never reads uncatalogued files).
            let generation = entry.as_ref().map_or(0, |e| e.generation);
            let _ = self.vfs.remove_file(&ckpt_path(&d.dir, name, generation));
            let _ = self.vfs.remove_file(&wal_path(&d.dir, name));
            // Generation > 0 tables are service-created (compaction
            // output); unlike the user's registered base they go too.
            if let Some(e) = entry.filter(|e| e.generation > 0) {
                let paths = graphstore::GraphPaths::from_base(&graphstore::generation_base(
                    &e.base,
                    e.generation,
                ));
                let _ = self.vfs.remove_file(&paths.nodes);
                let _ = self.vfs.remove_file(&paths.edges);
            }
        }
        Ok(())
    }

    /// Run `f` against the named graph's [`CoreIndex`], holding that
    /// graph's lock (and no other) for the duration. This is the generic
    /// access path every convenience *query* goes through. On a durable
    /// service, mutate only via [`CoreService::apply`] (or its wrappers):
    /// edits made directly through `f` bypass the journal and will not
    /// survive a restart.
    ///
    /// A quarantined graph rejects `f` outright; an `f` that fails with an
    /// I/O or corruption error quarantines the graph, a disk-full failure
    /// degrades it to read-only (see the module docs, "Failure containment
    /// and self-healing"). A read-only graph still runs `f` — this is the
    /// query path; durable mutations go through [`CoreService::apply`],
    /// which is gated.
    pub fn with_graph<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut CoreIndex) -> Result<R>,
    ) -> Result<R> {
        let _permit = self.admit(name)?;
        let (handle, health) = self.served_for(name, false)?;
        // The registry lock is released; only this graph serializes.
        let mut served = lock_served(name, &handle, &health)?;
        let _deadline = self.arm_deadline(&mut served);
        let res = f(&mut served.index);
        if let Err(e) = &res {
            fail_graph(&health, e, "operation failed");
        }
        res
    }

    /// Why the named graph is quarantined (`None` while it is serving —
    /// healthy, read-only or under repair). Kept as the stable one-line
    /// answer; the full state machine is exposed by
    /// [`CoreService::health`]. Errors when `name` is not being served at
    /// all.
    pub fn quarantine_reason(&self, name: &str) -> Result<Option<String>> {
        let registry = self.registry();
        let slot = registry.get(name).ok_or_else(|| not_serving(name))?;
        let h = lock_meta(&slot.health);
        Ok(match h.status {
            HealthStatus::Quarantined => Some(h.last_reason()),
            _ => None,
        })
    }

    /// Point-in-time health snapshot of the named graph: its status, the
    /// bounded causal chain of degradation reasons, the repair-attempt
    /// counters and the repair log. Reads slot metadata only — never
    /// blocks on the graph's own lock, so an operator can inspect a graph
    /// that is wedged mid-operation.
    pub fn health(&self, name: &str) -> Result<HealthReport> {
        let registry = self.registry();
        let slot = registry.get(name).ok_or_else(|| not_serving(name))?;
        let h = lock_meta(&slot.health);
        Ok(HealthReport {
            status: h.status,
            reasons: h.reasons.clone(),
            dropped_reasons: h.dropped_reasons,
            repair_attempts: h.repair_attempts,
            sticky: h.sticky,
            repair_log: h.repair_log.clone(),
        })
    }

    /// Install (or with `None`, remove) a **per-operation deadline**:
    /// charged block reads check it and abort the operation with
    /// [`graphstore::Error::Timeout`] once it expires. Queries are
    /// cancellable at any read; mutations only during their *validation*
    /// read — once an op is journaled it always runs to completion, so a
    /// deadline can never leave maintenance half-applied. Timeouts never
    /// quarantine, and the admission claim is released like any other
    /// return.
    pub fn set_op_timeout(&self, timeout: Option<Duration>) {
        *lock_meta(&self.op_timeout) = timeout;
    }

    /// The current per-operation deadline (`None` when unlimited).
    pub fn op_timeout(&self) -> Option<Duration> {
        *lock_meta(&self.op_timeout)
    }

    /// Arm the configured per-op deadline on the graph's I/O counter (a
    /// no-op guard when no timeout is set). The graph's lock is held by
    /// the caller, so exactly one operation owns the counter's deadline
    /// at a time.
    fn arm_deadline(&self, served: &mut Served) -> DeadlineGuard {
        let Some(budget) = *lock_meta(&self.op_timeout) else {
            return DeadlineGuard { counter: None };
        };
        let counter = served.index.graph_mut().disk().counter().clone();
        counter.set_deadline(Some((Instant::now() + budget, budget)));
        DeadlineGuard {
            counter: Some(counter),
        }
    }

    /// All core numbers of the named graph.
    pub fn cores(&self, name: &str) -> Result<Vec<u32>> {
        self.with_graph(name, |idx| Ok(idx.cores().to_vec()))
    }

    /// Core number of node `v` in the named graph. Unlike
    /// [`CoreIndex::core`], an out-of-range node is an error, not a panic —
    /// a serving layer must survive bad queries.
    pub fn core(&self, name: &str, v: u32) -> Result<u32> {
        self.with_graph(name, |idx| {
            if v >= idx.num_nodes() {
                return Err(graphstore::Error::NodeOutOfRange {
                    node: v,
                    num_nodes: idx.num_nodes(),
                });
            }
            Ok(idx.core(v))
        })
    }

    /// Degeneracy `kmax` of the named graph.
    pub fn kmax(&self, name: &str) -> Result<u32> {
        self.with_graph(name, |idx| Ok(idx.kmax()))
    }

    /// Apply one typed maintenance operation to the named graph: a batch
    /// of one through [`CoreService::apply_batch`], the single mutation
    /// path. [`CoreService::insert_edge`] / [`CoreService::delete_edge`]
    /// are thin wrappers over it.
    ///
    /// Unlike [`CoreIndex::apply`] — which trusts its caller and silently
    /// corrupts state on a duplicate insert or absent delete — this path is
    /// fed raw user input and validates first (one adjacency read). On a
    /// durable service the validated op is then appended to the graph's
    /// journal *before* it is applied, and acknowledged only once a journal
    /// fsync covers it — an fsync taken after the graph's lock is released,
    /// so queries and other appliers never wait on it. A crash at any
    /// instant loses at most an op whose success was never reported; every
    /// `checkpoint_every` ops the maintained state is checkpointed and the
    /// journal truncated.
    ///
    /// Failure containment: a quarantined graph rejects the op; a read-only
    /// graph refuses it. An I/O or corruption error in the validating read
    /// or the dispatch quarantines the graph, because after a mid-mutation
    /// failure the in-memory state can no longer be trusted. A journal
    /// append that fails is rolled back: proven clean, a full disk degrades
    /// the graph to read-only and any other I/O error quarantines it;
    /// unproven, it quarantines. A failed fsync always quarantines — the op
    /// is applied in memory but its durability is unknown. Validation
    /// rejections (duplicate insert, absent delete, bad node) leave the
    /// graph serving.
    pub fn apply(&self, name: &str, op: MaintainOp) -> Result<MaintainStats> {
        let mut stats = self.apply_batch(name, std::slice::from_ref(&op))?;
        Ok(stats.pop().unwrap_or_default())
    }

    /// Apply a batch of ops to the named graph, sharing one journal fsync:
    /// every op is validated, journaled and applied in order under the
    /// graph's lock, then the lock is released and one barrier makes the
    /// batch durable (it may also coalesce with other appliers' batches).
    ///
    /// Error semantics: ops are applied in order until the first failure;
    /// the already-applied prefix *stays* applied and is made durable
    /// before the error is returned (a batch is a convenience, not a
    /// transaction). Failures are contained exactly as described on
    /// [`CoreService::apply`]; a failed barrier outranks an in-lock error.
    pub fn apply_batch(&self, name: &str, ops: &[MaintainOp]) -> Result<Vec<MaintainStats>> {
        let _permit = self.admit(name)?;
        let (handle, health) = self.served_for(name, true)?;
        let mut served = lock_served(name, &handle, &health)?;
        let (res, barrier) = self.commit_locked(name, &mut served, ops, &health);
        // The fsync barrier is crossed *after* the graph lock is gone: the
        // next applier can validate, journal and apply, and queries can
        // read, while this batch is being synced.
        drop(served);
        if let Some((journal, lsn)) = barrier {
            if let Err(e) = journal.wait_durable(lsn) {
                set_quarantine(&health, &format!("maintenance failed: {e}"));
                return Err(e);
            }
        }
        if let Err(e) = &res {
            fail_graph(&health, e, "maintenance failed");
        }
        res
    }

    /// Validate `op` against the graph's current edges (one adjacency
    /// read): duplicate inserts and absent deletes are rejected before
    /// anything is journaled.
    fn validate_op(served: &mut Served, op: MaintainOp) -> Result<()> {
        let (u, v) = op.endpoints();
        if op.is_insert() {
            if served.index.has_edge(u, v)? {
                return Err(graphstore::Error::InvalidArgument(format!(
                    "edge ({u}, {v}) already present"
                )));
            }
        } else if !served.index.has_edge(u, v)? {
            return Err(graphstore::Error::InvalidArgument(format!(
                "edge ({u}, {v}) not present"
            )));
        }
        Ok(())
    }

    /// [`CoreService::apply_batch`] under the graph lock: validate,
    /// journal and apply each op until the first failure, then checkpoint
    /// or compact at their thresholds. Returns the outcome plus the
    /// barrier the caller must wait on once the lock is released — even on
    /// error, so the applied prefix is made durable before it is reported.
    fn commit_locked(
        &self,
        name: &str,
        served: &mut Served,
        ops: &[MaintainOp],
        health: &Mutex<HealthState>,
    ) -> (Result<Vec<MaintainStats>>, Option<Barrier>) {
        let mut all = Vec::with_capacity(ops.len());
        let mut last_lsn = None;
        let mut outcome = Ok(());
        for &op in ops {
            match self.commit_op(served, op, health) {
                Ok((stats, lsn)) => {
                    all.push(stats);
                    last_lsn = lsn.or(last_lsn);
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        if outcome.is_ok() {
            if let Some(d) = &self.durable {
                if served.seq - served.ck_seq >= d.checkpoint_every {
                    // The ops are journaled and applied — durable either
                    // way — so a failed threshold checkpoint must not turn
                    // their acknowledgement into an error (the caller would
                    // retry ops that actually happened). `ck_seq` stays
                    // put, the next batch retries the checkpoint, and the
                    // journal simply grows until one succeeds. A *full
                    // disk*, though, is actionable now: degrade to
                    // read-only so later mutations get the typed refusal
                    // instead of failing their appends one by one.
                    if let Err(e) = self.checkpoint_locked(name, served) {
                        if e.is_disk_full() {
                            set_read_only(
                                health,
                                &format!("threshold checkpoint hit a full disk: {e}"),
                            );
                        }
                    }
                }
                self.maybe_compact_locked(name, served, health);
            }
        }
        let barrier = last_lsn.zip(served.wal.clone()).map(|(lsn, j)| (j, lsn));
        (outcome.map(|()| all), barrier)
    }

    /// One op of [`CoreService::commit_locked`]: validate, journal (no
    /// fsync), apply. Returns the stats and the op's journal LSN.
    fn commit_op(
        &self,
        served: &mut Served,
        op: MaintainOp,
        health: &Mutex<HealthState>,
    ) -> Result<(MaintainStats, Option<u64>)> {
        {
            // The validation read is the only cancellable stretch of a
            // mutation: nothing is journaled or applied yet, so a
            // deadline expiry here is a clean typed rejection.
            let _deadline = self.arm_deadline(served);
            Self::validate_op(served, op)?;
        }
        let seq = served.seq + 1;
        let mut record = None;
        if let Some(journal) = &served.wal {
            let mark = journal.mark();
            match journal.submit(&encode_record(seq, op)) {
                Ok(lsn) => record = Some((mark, lsn)),
                Err(e) => {
                    // The journal already tried to clean its own partial
                    // record up; retry via rollback (idempotent) to *prove*
                    // it clean. Proven, the caller classifies the error;
                    // unproven, a record whose failure we report might
                    // replay after a crash — seal the graph here.
                    if journal.rollback_to(mark).is_err() {
                        set_quarantine(
                            health,
                            &format!("journal append failed and its rollback failed too: {e}"),
                        );
                    }
                    return Err(e);
                }
            }
        }
        match served.index.apply(op) {
            Ok(stats) => {
                served.seq = seq;
                Ok((stats, record.map(|(_, lsn)| lsn)))
            }
            Err(e) => {
                // The op failed after it was journaled: undo the append so
                // the journal never records an op whose failure we report
                // (replaying it would diverge from the acknowledged
                // history). If even the rollback fails, the record stays —
                // then the op *is* recorded, so consume its sequence
                // number rather than let the next op reuse it and poison
                // the journal's gap check. (A rolled-back record's LSN
                // stays consumed too — the barrier can still advance past
                // it, it just vouches for nothing.)
                if let (Some(journal), Some((mark, _))) = (&served.wal, record) {
                    if journal.rollback_to(mark).is_err() {
                        served.seq = seq;
                    }
                }
                Err(e)
            }
        }
    }

    /// Insert an edge into the named graph, maintaining its cores
    /// (SemiInsert\*). Equivalent to [`CoreService::apply`] with
    /// [`MaintainOp::Insert`]; inserting a present edge is an error.
    pub fn insert_edge(&self, name: &str, u: u32, v: u32) -> Result<MaintainStats> {
        self.apply(name, MaintainOp::Insert(u, v))
    }

    /// Delete an edge from the named graph, maintaining its cores
    /// (SemiDelete\*). Equivalent to [`CoreService::apply`] with
    /// [`MaintainOp::Delete`]; deleting an absent edge is an error.
    pub fn delete_edge(&self, name: &str, u: u32, v: u32) -> Result<MaintainStats> {
        self.apply(name, MaintainOp::Delete(u, v))
    }

    /// Checkpoint the named graph now — maintained state to `<name>.ckpt`,
    /// journal truncated — regardless of the `checkpoint_every` cadence.
    /// Errors on a non-durable service.
    pub fn save(&self, name: &str) -> Result<()> {
        if self.durable.is_none() {
            return Err(graphstore::Error::InvalidArgument(
                "service has no data directory; nothing to save".into(),
            ));
        }
        let _permit = self.admit(name)?;
        let (handle, health) = self.served_for(name, true)?;
        let mut served = lock_served(name, &handle, &health)?;
        let res = self.checkpoint_locked(name, &mut served);
        if let Err(e) = &res {
            fail_graph(&health, e, "checkpoint failed");
        }
        res
    }

    /// [`CoreService::save`] for every served graph.
    pub fn save_all(&self) -> Result<()> {
        for name in self.graph_names() {
            self.save(&name)?;
        }
        Ok(())
    }

    /// Compact the named graph **now**, regardless of the
    /// [`DurableOptions::compact_after_edits`] threshold: rewrite its
    /// current tables plus every buffered edit into a fresh *generation*
    /// of table files (same encoding), commit the bumped generation in
    /// the catalog manifest, then truncate the update buffer and the
    /// journal. Afterwards the graph's checkpoint carries an empty edit
    /// list, so recovery is one sequential table scan with nothing to
    /// replay. Returns the new generation number.
    ///
    /// Errors on a non-durable service. A compaction that fails with an
    /// I/O or corruption error **quarantines** the graph: unlike a
    /// best-effort threshold checkpoint it may have died anywhere inside
    /// the multi-file commit protocol, and re-opening from the committed
    /// manifest is the safe way back (it recovers exactly the pre- or
    /// post-compaction state, never a third).
    pub fn compact(&self, name: &str) -> Result<u64> {
        self.compact_with(name, None)
    }

    /// [`CoreService::compact`] that additionally migrates the graph to
    /// the delta-varint edge encoding (format v2): the new generation's
    /// tables are written compressed whatever the current encoding, and
    /// the catalog entry's format switches at the same commit point as
    /// its generation. Existing v2 graphs just compact. Returns the new
    /// generation number.
    pub fn recompress(&self, name: &str) -> Result<u64> {
        self.compact_with(name, Some(FormatVersion::V2))
    }

    /// [`CoreService::recompress`] with an explicit target encoding —
    /// e.g. [`FormatVersion::V3`] for the stream-vbyte group layout whose
    /// decode is vectorized, or [`FormatVersion::V1`] to migrate back to
    /// raw `u32` runs. Graphs already in the target format just compact.
    /// Returns the new generation number.
    pub fn recompress_to(&self, name: &str, format: FormatVersion) -> Result<u64> {
        self.compact_with(name, Some(format))
    }

    fn compact_with(&self, name: &str, format: Option<FormatVersion>) -> Result<u64> {
        if self.durable.is_none() {
            return Err(graphstore::Error::InvalidArgument(
                "service has no data directory; nothing to compact".into(),
            ));
        }
        let _permit = self.admit(name)?;
        let (handle, health) = self.served_for(name, true)?;
        let mut served = lock_served(name, &handle, &health)?;
        let mut committed = false;
        let res = self.compact_locked_with(name, &mut served, format, &mut committed);
        if let Err(e) = &res {
            compact_failure(&health, e, committed);
        }
        res
    }

    /// The named graph's current table generation (0 until its first
    /// compaction). Errors on a non-durable service or an unknown name.
    pub fn generation(&self, name: &str) -> Result<u64> {
        let Some(d) = &self.durable else {
            return Err(graphstore::Error::InvalidArgument(
                "service has no data directory; graphs have no generations".into(),
            ));
        };
        lock_meta(&d.entries)
            .get(name)
            .map(|e| e.generation)
            .ok_or_else(|| not_serving(name))
    }

    /// Threshold-triggered compaction on the apply path. The triggering
    /// op is journaled, applied and about to be acknowledged — its fate
    /// must not ride on the compaction — so the error is swallowed here;
    /// but a compaction that failed mid-protocol may have left the
    /// on-disk artefacts between states, so the graph is sealed
    /// (quarantined) and the committed manifest decides on re-open. The
    /// exception is running out of disk *before* the commit point, which
    /// only degrades the graph to read-only.
    fn maybe_compact_locked(&self, name: &str, served: &mut Served, health: &Mutex<HealthState>) {
        let Some(d) = &self.durable else {
            return;
        };
        if served.index.graph_mut().pending_edits() < d.compact_after_edits {
            return;
        }
        let mut committed = false;
        if let Err(e) = self.compact_locked_with(name, served, None, &mut committed) {
            compact_failure(health, &e, committed);
        }
    }

    /// The generational compaction protocol, with the graph lock held.
    /// Sync-point order (each a crash window the torture suite walks):
    ///
    /// 1. rewrite base ∪ buffered edits into `<base>.g<G>` tables — the
    ///    generation suffix *is* the temp name until the catalog points
    ///    at it (3 sync events in the table writer);
    /// 2. write the new generation's checkpoint (`served.seq`, **empty**
    ///    edits — they are baked into the new tables) at its
    ///    generation-keyed path, leaving the old checkpoint untouched
    ///    (3 sync events, atomic replace);
    /// 3. rewrite the catalog manifest with the bumped generation — THE
    ///    commit point: one rename atomically switches which tables and
    ///    which checkpoint recovery reads (3 sync events);
    /// 4. truncate the journal — safe on either side of a crash, every
    ///    journaled record is `<= served.seq` and the committed
    ///    checkpoint sits exactly at `served.seq`, so recovery skips
    ///    them by sequence number whether or not the truncate landed;
    /// 5. swap the live index onto the new tables and drop the old
    ///    generation's files (plain unlinks: no sync points, no new
    ///    crash windows; failures leave orphans for fsck to sweep). The
    ///    registered generation-0 base is the user's file and is never
    ///    deleted; compaction output (g > 0) is service-owned.
    fn compact_locked_with(
        &self,
        name: &str,
        served: &mut Served,
        format_override: Option<FormatVersion>,
        committed: &mut bool,
    ) -> Result<u64> {
        let Some(d) = &self.durable else {
            return Err(graphstore::Error::InvalidArgument(
                "compaction on a service with no data directory".into(),
            ));
        };
        let (base, old_gen, charge_bytes, old_format) = {
            let guard = lock_meta(&d.entries);
            let e = guard.get(name).ok_or_else(|| not_serving(name))?;
            (e.base.clone(), e.generation, e.charge_bytes, e.format)
        };
        let format = format_override.unwrap_or(old_format);
        let new_gen = old_gen + 1;
        let new_base = graphstore::generation_base(&base, new_gen);
        served.index.graph_mut().rewrite_to(&new_base, format)?;
        let counter = served.index.graph_mut().disk().counter().clone();
        let state = served.index.maintained_state().clone();
        StateCheckpoint::write_parts(
            &ckpt_path(&d.dir, name, new_gen),
            &counter,
            served.seq,
            &state.core,
            &state.cnt,
            &[],
        )?;
        {
            let mut guard = lock_meta(&d.entries);
            if let Some(e) = guard.get_mut(name) {
                e.generation = new_gen;
                e.checkpoint_seq = served.seq;
                e.format = format;
            }
        }
        if let Err(e) = self.rewrite_catalog() {
            // Both generations' files exist on disk, so whichever
            // manifest actually survived is self-consistent; the
            // in-memory entry just must match what a re-open would pick
            // if the old manifest won.
            if let Some(en) = lock_meta(&d.entries).get_mut(name) {
                en.generation = old_gen;
                en.format = old_format;
            }
            return Err(e);
        }
        // The catalog rename landed: failures past this point leave the
        // artefacts between states, which the caller's classification
        // treats as seal-worthy whatever the error kind.
        *committed = true;
        if let Some(wal) = &served.wal {
            wal.truncate_satisfy()?;
        }
        served.ck_seq = served.seq;
        let disk = DiskGraph::open_pooled(&new_base, counter, &self.pool, charge_bytes)?;
        served.index = CoreIndex::restore(disk, DURABLE_BUFFER_CAPACITY, state)?;
        if let Some(slot) = self.registry().get_mut(name) {
            slot.format = format;
        }
        if old_gen > 0 {
            let paths =
                graphstore::GraphPaths::from_base(&graphstore::generation_base(&base, old_gen));
            let _ = self.vfs.remove_file(&paths.nodes);
            let _ = self.vfs.remove_file(&paths.edges);
        }
        let _ = self.vfs.remove_file(&ckpt_path(&d.dir, name, old_gen));
        Ok(new_gen)
    }

    /// Cumulative I/O charged to the named graph (its own counter: charged
    /// reads are contention-independent, physical reads are not). On a
    /// recovered graph this starts at the recovery cost — checkpoint scan
    /// plus journal-tail replay — the number the restart differential
    /// suite compares against a fresh decomposition.
    pub fn io(&self, name: &str) -> Result<IoSnapshot> {
        self.with_graph(name, |idx| Ok(idx.io()))
    }

    /// Check the Theorem 4.1 fixpoint certificate on the named graph.
    pub fn verify(&self, name: &str) -> Result<bool> {
        self.with_graph(name, |idx| idx.verify())
    }

    /// Attempt an **online repair** of a quarantined graph: drop its live
    /// index, run the single-graph fsck tail-repair over its durable
    /// artefacts ([`crate::fsck::fsck_graph`]), rebuild it through the
    /// same recovery path a restart uses, and gate re-admission on the
    /// Theorem 4.1 fixpoint certificate. On success the graph returns to
    /// [`HealthStatus::Healthy`] with its repair counters (and any sticky
    /// flag) reset; on failure it goes back to quarantine with the
    /// failure appended to its reason chain. Other graphs keep serving
    /// throughout.
    ///
    /// On a non-durable service nothing journaled survives, but the
    /// immutable base tables do: repair re-opens and re-decomposes them.
    ///
    /// Errors when the graph is not quarantined (there is nothing to
    /// repair), when a repair is already running, or when the repair
    /// itself fails. The graph's lock is held for the duration and the
    /// `Repairing` status refuses new operations at the gate.
    pub fn repair(&self, name: &str) -> Result<()> {
        let (handle, health) = self.slot_parts(name)?;
        let attempt = {
            let mut h = lock_meta(&health);
            match h.status {
                HealthStatus::Quarantined => {}
                HealthStatus::Repairing => {
                    return Err(graphstore::Error::InvalidArgument(format!(
                        "a repair of {name:?} is already in progress"
                    )));
                }
                status => {
                    return Err(graphstore::Error::InvalidArgument(format!(
                        "graph {name:?} is {}; repair applies to quarantined graphs",
                        status.tag()
                    )));
                }
            }
            h.status = HealthStatus::Repairing;
            let attempt = h.repair_attempts + 1;
            h.push_log(format!("repair attempt {attempt} started"));
            attempt
        };
        // A poisoned lock is exactly what repair exists for: take it
        // through the poison and clear the flag — the old state is about
        // to be dropped wholesale, never recovered into.
        let mut served = match handle.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                handle.clear_poison();
                poisoned.into_inner()
            }
        };
        let res = self.repair_locked(name, &mut served);
        drop(served);
        let mut h = lock_meta(&health);
        match &res {
            Ok(()) => {
                h.status = HealthStatus::Healthy;
                h.repair_attempts = 0;
                h.sticky = false;
                h.next_attempt_at = None;
                h.push_log(format!(
                    "repair attempt {attempt} succeeded; graph re-admitted"
                ));
            }
            Err(e) => {
                h.status = HealthStatus::Quarantined;
                h.repair_attempts = attempt;
                h.push_reason(&format!("repair attempt {attempt} failed: {e}"));
                h.push_log(format!("repair attempt {attempt} failed: {e}"));
            }
        }
        res
    }

    /// The rebuild inside [`CoreService::repair`], with the graph's lock
    /// held.
    fn repair_locked(&self, name: &str, served: &mut Served) -> Result<()> {
        let mut new_served = if let Some(d) = &self.durable {
            // 1. Repair the durable artefacts — journal-tail truncation,
            //    generation-debris sweep — through the same checks `kcore
            //    fsck` runs offline. Damage fsck refuses to repair (live
            //    tables, checkpoint, catalog) fails the attempt.
            let report = crate::fsck::fsck_graph_with(&d.dir, name, true, Arc::clone(&self.vfs))?;
            if report.unrepaired() > 0 {
                let problems: Vec<String> = report
                    .findings
                    .iter()
                    .filter(|f| !f.repaired)
                    .map(|f| f.problem.clone())
                    .collect();
                return Err(graphstore::Error::Corrupt {
                    reason: format!(
                        "{} problem(s) fsck cannot repair: {}",
                        problems.len(),
                        problems.join("; ")
                    ),
                });
            }
            // 2. Rebuild from the repaired artefacts through the same
            //    path a restart would use.
            let entry = self.catalog_entry_snapshot(name)?;
            self.rebuild_served(&entry)?
        } else {
            let (base, charge_bytes) = {
                let registry = self.registry();
                let slot = registry.get(name).ok_or_else(|| not_serving(name))?;
                (slot.base.clone(), slot.charge_bytes)
            };
            let counter = IoCounter::with_vfs(self.pool.block_size(), Arc::clone(&self.vfs));
            let disk = DiskGraph::open_pooled(&base, counter, &self.pool, charge_bytes)?;
            let index = CoreIndex::from_disk_graph(disk, graphstore::DEFAULT_BUFFER_CAPACITY)?;
            Served {
                index,
                wal: None,
                seq: 0,
                ck_seq: 0,
            }
        };
        // 3. The fixpoint certificate gates re-admission: a rebuild that
        //    recovered structurally valid but *wrong* state must not
        //    serve.
        if !new_served.index.verify()? {
            return Err(graphstore::Error::Corrupt {
                reason: "fixpoint certificate failed after rebuild".to_string(),
            });
        }
        // 4. Swap. The old index — and its pool lease — drops here; the
        //    overlap with the new lease during the rebuild is fine, the
        //    pool keys leases by id, not path.
        *served = new_served;
        Ok(())
    }

    /// The in-memory catalog entry for `name`, as a [`CatalogEntry`] the
    /// fsck/recovery helpers consume.
    fn catalog_entry_snapshot(&self, name: &str) -> Result<CatalogEntry> {
        let Some(d) = &self.durable else {
            return Err(graphstore::Error::InvalidArgument(
                "service has no data directory; no catalog entries".into(),
            ));
        };
        let guard = lock_meta(&d.entries);
        let e = guard.get(name).ok_or_else(|| not_serving(name))?;
        Ok(CatalogEntry {
            name: name.to_string(),
            base: e.base.clone(),
            charge_bytes: e.charge_bytes,
            checkpoint_seq: e.checkpoint_seq,
            format: e.format,
            generation: e.generation,
        })
    }

    /// Run the **online integrity scrubber** over the named graph without
    /// taking it out of service: the current-generation tables and the
    /// checkpoint are walked lock-free (they are immutable between
    /// compactions, and a checkpoint replace is an atomic rename), then
    /// the journal scan and generation-debris sweep run under the graph's
    /// lock (a live append mid-scan would read as a torn tail). Physical
    /// reads are paced by a token bucket at `bytes_per_sec`
    /// ([`graphstore::ThrottledVfs`]); the scrub runs on a scratch I/O
    /// counter, so the graph's own charged `read_ios` stays bit-identical
    /// with and without scrubbing.
    ///
    /// Findings quarantine the graph — routing it into the repair
    /// supervisor — and the report is returned either way. If a
    /// compaction swaps the table generation mid-scrub, the stale
    /// findings are discarded and an empty report returned; the next pass
    /// rechecks the new generation. Errors on a non-durable service.
    pub fn scrub_with_rate(&self, name: &str, bytes_per_sec: u64) -> Result<FsckReport> {
        let Some(d) = &self.durable else {
            return Err(graphstore::Error::InvalidArgument(
                "service has no data directory; nothing to scrub".into(),
            ));
        };
        let (handle, health) = self.slot_parts(name)?;
        let entry = self.catalog_entry_snapshot(name)?;
        let vfs: Arc<dyn Vfs> = if bytes_per_sec == u64::MAX {
            Arc::clone(&self.vfs)
        } else {
            ThrottledVfs::new(Arc::clone(&self.vfs), bytes_per_sec)
        };
        let mut report = FsckReport {
            graphs_checked: 1,
            ..FsckReport::default()
        };
        let mut probe =
            check_tables_and_checkpoint(&d.dir, &entry, self.pool.block_size(), &vfs, &mut report);
        {
            let served = lock_served(name, &handle, &health)?;
            let generation_now = lock_meta(&d.entries).get(name).map(|e| e.generation);
            if generation_now != Some(entry.generation) {
                // A compaction swapped the tables mid-scrub: every
                // unlocked finding is about files that are no longer
                // live.
                return Ok(FsckReport {
                    graphs_checked: 1,
                    ..FsckReport::default()
                });
            }
            // The live `ck_seq` is the truth the journal must extend —
            // the unlocked checkpoint read may predate a checkpoint that
            // truncated the journal since.
            probe.ck_seq = Some(served.ck_seq);
            check_journal(
                &d.dir,
                &entry,
                probe,
                self.pool.block_size(),
                false,
                &vfs,
                &mut report,
            );
            check_generation_debris(&d.dir, &entry, false, &vfs, &mut report);
        }
        if report.unrepaired() > 0 {
            let first = report
                .findings
                .iter()
                .find(|f| !f.repaired)
                .map(|f| f.problem.clone())
                .unwrap_or_default();
            set_quarantine(
                &health,
                &format!(
                    "scrub found {} problem(s), first: {first}",
                    report.unrepaired()
                ),
            );
        }
        Ok(report)
    }

    /// [`CoreService::scrub_with_rate`] at [`DEFAULT_SCRUB_RATE`].
    pub fn scrub(&self, name: &str) -> Result<FsckReport> {
        self.scrub_with_rate(name, DEFAULT_SCRUB_RATE)
    }

    /// Probe a read-only graph for recovery by attempting a real
    /// checkpoint — the cheapest write that proves both the checkpoint
    /// and journal paths have space again. On success the graph is
    /// promoted back to [`HealthStatus::Healthy`]; the checkpoint also
    /// truncated its journal, so the next mutation starts on a clean log.
    /// A still-full disk returns `Ok(false)` quietly; any other failure
    /// routes through the normal quarantine classification. A graph that
    /// is not read-only returns `Ok(false)` untouched.
    pub fn probe_read_only(&self, name: &str) -> Result<bool> {
        let (handle, health) = self.slot_parts(name)?;
        if lock_meta(&health).status != HealthStatus::ReadOnly {
            return Ok(false);
        }
        let mut served = lock_served(name, &handle, &health)?;
        let res = self.checkpoint_locked(name, &mut served);
        drop(served);
        match res {
            Ok(()) => {
                let mut h = lock_meta(&health);
                if h.status == HealthStatus::ReadOnly {
                    h.status = HealthStatus::Healthy;
                    h.push_log("disk space returned; promoted back to read-write".to_string());
                }
                Ok(true)
            }
            Err(e) if e.is_disk_full() => Ok(false),
            Err(e) => {
                set_quarantine(&health, &format!("read-only probe failed: {e}"));
                Err(e)
            }
        }
    }

    /// Supervisor poll: `(status, repair_attempts, sticky,
    /// next_attempt_at)` of a graph, or `None` once it left the registry.
    fn health_brief(&self, name: &str) -> Option<(HealthStatus, u32, bool, Option<Instant>)> {
        let registry = self.registry();
        let slot = registry.get(name)?;
        let h = lock_meta(&slot.health);
        Some((h.status, h.repair_attempts, h.sticky, h.next_attempt_at))
    }

    /// Mark a quarantine sticky after the supervisor exhausted its
    /// retries, recording the escalation in the repair log.
    fn escalate_sticky(&self, name: &str) {
        if let Ok((_, health)) = self.slot_parts(name) {
            let mut h = lock_meta(&health);
            if h.status == HealthStatus::Quarantined && !h.sticky {
                h.sticky = true;
                let attempts = h.repair_attempts;
                h.push_log(format!(
                    "automatic repair gave up after {attempts} attempt(s); \
                     quarantine is sticky until repaired manually or evicted"
                ));
            }
        }
    }

    /// Supervisor backoff: delay the next automatic repair attempt.
    fn set_next_attempt(&self, name: &str, at: Instant) {
        if let Ok((_, health)) = self.slot_parts(name) {
            lock_meta(&health).next_attempt_at = Some(at);
        }
    }

    /// Edge-table encoding of the named graph's base tables (v1 raw
    /// `u32`s or v2 delta-varints). Reads registry metadata only — never
    /// blocks on the graph's own lock, so listings stay responsive while
    /// a graph is mid-scan.
    pub fn format_version(&self, name: &str) -> Result<FormatVersion> {
        self.registry()
            .get(name)
            .map(|s| s.format)
            .ok_or_else(|| not_serving(name))
    }

    /// Write the current catalog manifest (atomic replace). Caller must
    /// have already updated the entry map. The entries lock is held across
    /// the write: snapshot-then-write-unlocked would let two racing
    /// registry changes rename their manifests in either order, and the
    /// stale one could land last — durably resurrecting an evicted graph
    /// whose sidecars are already gone.
    fn rewrite_catalog(&self) -> Result<()> {
        let Some(d) = self.durable.as_ref() else {
            return Err(graphstore::Error::InvalidArgument(
                "catalog rewrite on a service with no data directory".into(),
            ));
        };
        let guard = lock_meta(&d.entries);
        let mut entries: Vec<CatalogEntry> = guard
            .iter()
            .map(|(name, e)| CatalogEntry {
                name: name.clone(),
                base: e.base.clone(),
                charge_bytes: e.charge_bytes,
                checkpoint_seq: e.checkpoint_seq,
                format: e.format,
                generation: e.generation,
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Catalog {
            block_size: self.pool.block_size(),
            budget_bytes: self.pool.budget_bytes(),
            policy: self.pool.policy(),
            entries,
        }
        .write_with(&d.dir, self.vfs.as_ref())
        // `guard` drops here, after the manifest is durably in place.
    }

    /// Checkpoint `served` (whose lock the caller holds): atomically
    /// replace `<name>.ckpt` with the maintained state at `served.seq`,
    /// then truncate the journal. The checkpoint rename is the commit
    /// point — a crash before it replays the old checkpoint plus the full
    /// journal, a crash after it skips the already-covered records by
    /// sequence number.
    fn checkpoint_locked(&self, name: &str, served: &mut Served) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        // The checkpoint file is keyed by the graph's current table
        // generation (0 while the entry map has nothing yet, i.e. the
        // seq-0 checkpoint written during publication).
        let generation = lock_meta(&d.entries).get(name).map_or(0, |e| e.generation);
        let edits = served.index.graph_mut().pending_net_edits();
        let counter = served.index.graph_mut().disk().counter().clone();
        let state = served.index.maintained_state();
        StateCheckpoint::write_parts(
            &ckpt_path(&d.dir, name, generation),
            &counter,
            served.seq,
            &state.core,
            &state.cnt,
            &edits,
        )?;
        // Emptying the journal also satisfies any applier still waiting on
        // its barrier: the checkpoint just made its op durable.
        if let Some(wal) = &served.wal {
            wal.truncate_satisfy()?;
        }
        served.ck_seq = served.seq;
        // Refresh the in-memory entry so the *next* registry-shape rewrite
        // carries a current value, but do not rewrite the manifest here:
        // `checkpoint_seq` is advisory (the checkpoint file's own sequence
        // number is what recovery trusts), and three fsyncs per checkpoint
        // on the hot apply path would buy nothing.
        if let Some(e) = lock_meta(&d.entries).get_mut(name) {
            e.checkpoint_seq = served.seq;
        }
        Ok(())
    }

    /// Restore one catalogued graph and serve it.
    fn recover_entry(&self, entry: &CatalogEntry) -> Result<()> {
        let Some(d) = self.durable.as_ref() else {
            return Err(graphstore::Error::InvalidArgument(
                "recovery on a service with no data directory".into(),
            ));
        };
        if self.contains(&entry.name) {
            return Err(graphstore::Error::Corrupt {
                reason: format!("catalog lists {:?} twice", entry.name),
            });
        }
        let served = self.rebuild_served(entry)?;
        let ck_seq = served.ck_seq;
        let handle = Arc::new(Mutex::new(served));
        self.registry().insert(
            entry.name.clone(),
            Slot::new(handle, entry.format, entry.charge_bytes, &entry.base),
        );
        lock_meta(&d.entries).insert(
            entry.name.clone(),
            DurableEntry {
                base: entry.base.clone(),
                charge_bytes: entry.charge_bytes,
                checkpoint_seq: ck_seq,
                format: entry.format,
                generation: entry.generation,
            },
        );
        Ok(())
    }

    /// Rebuild a served graph from its durable artefacts — the shared
    /// core of restart recovery ([`CoreService::recover_entry`]) and
    /// online repair ([`CoreService::repair`]): open the
    /// current-generation tables against the pool, load the checkpoint,
    /// re-inject the buffered edits, and replay the journal tail through
    /// [`CoreIndex::apply`].
    fn rebuild_served(&self, entry: &CatalogEntry) -> Result<Served> {
        let Some(d) = self.durable.as_ref() else {
            return Err(graphstore::Error::InvalidArgument(
                "recovery on a service with no data directory".into(),
            ));
        };
        let counter = IoCounter::with_vfs(self.pool.block_size(), Arc::clone(&self.vfs));
        // Open the entry's *current generation* tables: the registered
        // base for generation 0, `<base>.g<g>` after `g` compactions.
        let disk = DiskGraph::open_pooled(
            &entry.table_base(),
            counter.clone(),
            &self.pool,
            entry.charge_bytes,
        )?;
        // The tables a durable graph references are immutable between
        // compactions: finding them in a different encoding than
        // catalogued means someone replaced them behind the catalog's
        // back — the checkpointed state could then belong to a different
        // graph entirely.
        if disk.format_version() != entry.format {
            return Err(graphstore::Error::Corrupt {
                reason: format!(
                    "catalog records {:?} as format {} but its base tables are {}",
                    entry.name,
                    entry.format.tag(),
                    disk.format_version().tag()
                ),
            });
        }
        let ck =
            StateCheckpoint::read(&ckpt_path(&d.dir, &entry.name, entry.generation), &counter)?;
        let mut index = CoreIndex::restore(
            disk,
            DURABLE_BUFFER_CAPACITY,
            CoreState {
                core: ck.cores,
                cnt: ck.cnt,
            },
        )?;
        // A flush interrupted by a crash can leave `.rewrite` temp tables
        // next to the graph; they are dead (the rename never happened) and
        // would collide with the next rewrite, so sweep them on the way in.
        index.graph_mut().clean_stale_temps()?;
        // The checkpointed update-buffer edits: graph mutations only — the
        // restored cores/cnt already reflect them. The checked variants
        // cross-validate each edit against the merged view: a checkpoint
        // whose edits are already present in the tables (or vice versa)
        // is a protocol violation, not a state to silently absorb.
        for (u, v, inserted) in ck.edits {
            let res = if inserted {
                index.graph_mut().insert_edge_checked(u, v)
            } else {
                index.graph_mut().delete_edge_checked(u, v)
            };
            res.map_err(|e| match e {
                graphstore::Error::InvalidArgument(msg) => graphstore::Error::Corrupt {
                    reason: format!(
                        "checkpointed edit for {:?} contradicts its tables: {msg}",
                        entry.name
                    ),
                },
                other => other,
            })?;
        }
        // Replay the journal tail through the same typed-op dispatch used
        // live. Records at or below the checkpoint sequence are already in
        // the checkpoint (the crash landed between its commit and the
        // journal truncation); anything else must be gap-free.
        let (wal, records) = Wal::open(&wal_path(&d.dir, &entry.name), counter)?;
        let mut seq = ck.seq;
        for record in records {
            if record.len() < 8 {
                return Err(graphstore::Error::Corrupt {
                    reason: format!("undersized journal record for {:?}", entry.name),
                });
            }
            let mut seq_bytes = [0u8; 8];
            seq_bytes.copy_from_slice(&record[..8]);
            let rseq = u64::from_le_bytes(seq_bytes);
            let op = MaintainOp::decode(&record[8..])?;
            if rseq <= ck.seq {
                continue;
            }
            if rseq != seq + 1 {
                return Err(graphstore::Error::Corrupt {
                    reason: format!(
                        "journal gap for {:?}: record {rseq} after {seq}",
                        entry.name
                    ),
                });
            }
            index.apply(op)?;
            seq = rseq;
        }
        Ok(Served {
            index,
            wal: Some(Arc::new(GroupCommitWal::wrap(wal)?)),
            seq,
            ck_seq: ck.seq,
        })
    }

    /// Look the graph up without any health gate, returning its handle
    /// plus the shared health record (so a failing caller can update it
    /// after this registry guard is gone). The repair/scrub/probe paths
    /// use this directly — they exist to operate on unhealthy graphs.
    #[allow(clippy::type_complexity)]
    fn slot_parts(&self, name: &str) -> Result<(Arc<Mutex<Served>>, Arc<Mutex<HealthState>>)> {
        let registry = self.registry();
        let slot = registry.get(name).ok_or_else(|| not_serving(name))?;
        Ok((Arc::clone(&slot.handle), Arc::clone(&slot.health)))
    }

    /// [`CoreService::slot_parts`] behind the health gate: quarantined and
    /// under-repair graphs refuse everything; read-only graphs refuse
    /// mutating entry points (`write`) with the typed
    /// [`graphstore::Error::ReadOnly`] but keep serving queries.
    #[allow(clippy::type_complexity)]
    fn served_for(
        &self,
        name: &str,
        write: bool,
    ) -> Result<(Arc<Mutex<Served>>, Arc<Mutex<HealthState>>)> {
        let (handle, health) = self.slot_parts(name)?;
        {
            let h = lock_meta(&health);
            match h.status {
                HealthStatus::Healthy => {}
                HealthStatus::ReadOnly => {
                    if write {
                        return Err(graphstore::Error::ReadOnly {
                            graph: name.to_string(),
                            reason: h.last_reason(),
                        });
                    }
                }
                HealthStatus::Repairing => {
                    return Err(graphstore::Error::Quarantined {
                        graph: name.to_string(),
                        reason: "an online repair is rebuilding this graph".to_string(),
                    });
                }
                HealthStatus::Quarantined => {
                    return Err(graphstore::Error::Quarantined {
                        graph: name.to_string(),
                        reason: h.last_reason(),
                    });
                }
            }
        }
        Ok((handle, health))
    }

    fn registry(&self) -> MutexGuard<'_, HashMap<String, Slot>> {
        lock_meta(&self.graphs)
    }
}

/// Lock a served graph, converting a poisoned mutex into quarantine. A
/// panicking holder may have left the index mid-mutation, so — unlike the
/// metadata maps — the state must **not** be recovered into; it is sealed
/// off and rebuilt from durable state by the repair path instead.
fn lock_served<'a>(
    name: &str,
    handle: &'a Mutex<Served>,
    health: &Mutex<HealthState>,
) -> Result<MutexGuard<'a, Served>> {
    match handle.lock() {
        Ok(guard) => Ok(guard),
        Err(_) => {
            let reason =
                "a thread panicked while operating on this graph; in-memory state is untrusted"
                    .to_string();
            set_quarantine(health, &reason);
            Err(graphstore::Error::Quarantined {
                graph: name.to_string(),
                reason,
            })
        }
    }
}

fn already_serving(name: &str) -> graphstore::Error {
    graphstore::Error::InvalidArgument(format!("a graph named {name:?} is already being served"))
}

fn not_serving(name: &str) -> graphstore::Error {
    graphstore::Error::InvalidArgument(format!("no graph named {name:?} is being served"))
}

/// Tuning knobs for the self-heal supervisor ([`start_self_heal`]).
#[derive(Debug, Clone)]
pub struct SelfHealOptions {
    /// How often each healthy graph is scrubbed; `None` disables the
    /// scrubber (quarantine repair and read-only probing still run).
    pub scrub_interval: Option<Duration>,
    /// Automatic repair attempts per quarantine episode before the
    /// quarantine is escalated to sticky.
    pub repair_retries: u32,
    /// Base delay of the exponential backoff between repair attempts:
    /// attempt `n` waits `backoff_base * 2^n`.
    pub backoff_base: Duration,
    /// Scrubber read-rate ceiling in bytes per second
    /// ([`CoreService::scrub_with_rate`]).
    pub scrub_rate: u64,
    /// How often the supervisor wakes up to look at graph health.
    pub poll_interval: Duration,
}

impl Default for SelfHealOptions {
    fn default() -> Self {
        SelfHealOptions {
            scrub_interval: None,
            repair_retries: 3,
            backoff_base: Duration::from_millis(50),
            scrub_rate: DEFAULT_SCRUB_RATE,
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// Handle to a running self-heal supervisor. Dropping it (or calling
/// [`SelfHealHandle::stop`]) signals the worker and joins it.
pub struct SelfHealHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SelfHealHandle {
    /// Stop the supervisor and wait for its thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SelfHealHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start the **self-heal supervisor**: a background worker that, on every
/// poll tick,
///
/// * attempts an online [`CoreService::repair`] of each non-sticky
///   quarantined graph, with exponential backoff between attempts and
///   escalation to sticky quarantine once `repair_retries` attempts have
///   failed;
/// * probes each read-only graph for returned disk space
///   ([`CoreService::probe_read_only`]) and promotes it back to
///   read-write when a checkpoint succeeds;
/// * scrubs each healthy graph's durable artefacts on `scrub_interval`
///   ([`CoreService::scrub_with_rate`]), routing findings into the
///   quarantine → repair pipeline.
///
/// The returned handle owns the worker; drop it to stop.
pub fn start_self_heal(svc: &Arc<CoreService>, opts: SelfHealOptions) -> SelfHealHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let svc = Arc::clone(svc);
    let flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("kcore-self-heal".to_string())
        .spawn(move || {
            let mut last_scrub: HashMap<String, Instant> = HashMap::new();
            while !flag.load(Ordering::Acquire) {
                heal_tick(&svc, &opts, &mut last_scrub);
                std::thread::sleep(opts.poll_interval);
            }
        })
        .ok();
    SelfHealHandle { stop, thread }
}

/// One supervisor pass over every served graph.
fn heal_tick(svc: &CoreService, opts: &SelfHealOptions, last_scrub: &mut HashMap<String, Instant>) {
    for name in svc.graph_names() {
        let Some((status, attempts, sticky, next_at)) = svc.health_brief(&name) else {
            last_scrub.remove(&name);
            continue;
        };
        match status {
            HealthStatus::Quarantined if !sticky => {
                if attempts >= opts.repair_retries {
                    svc.escalate_sticky(&name);
                } else if next_at.is_none_or(|t| Instant::now() >= t) && svc.repair(&name).is_err()
                {
                    // `repair` bumped `repair_attempts`; schedule the
                    // next try with exponential backoff.
                    let backoff = opts.backoff_base * 2u32.saturating_pow(attempts.min(16));
                    svc.set_next_attempt(&name, Instant::now() + backoff);
                }
            }
            HealthStatus::ReadOnly => {
                let _ = svc.probe_read_only(&name);
            }
            HealthStatus::Healthy => {
                if let Some(interval) = opts.scrub_interval {
                    let due = last_scrub
                        .get(&name)
                        .is_none_or(|t| t.elapsed() >= interval);
                    if due {
                        last_scrub.insert(name.clone(), Instant::now());
                        let _ = svc.scrub_with_rate(&name, opts.scrub_rate);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::TempDir;

    fn triangle_plus_tail() -> Vec<(u32, u32)> {
        vec![(0, 1), (1, 2), (0, 2), (2, 3)]
    }

    #[test]
    fn serve_two_graphs_and_evict() {
        let dir = TempDir::new("svc").unwrap();
        let svc = CoreService::new(1 << 20).unwrap();
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        svc.create("b", &dir.path().join("b"), [(0u32, 1u32), (1, 2)], 3)
            .unwrap();
        assert_eq!(svc.graph_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(svc.pool().registered_graphs(), 2);
        assert_eq!(svc.cores("a").unwrap(), vec![2, 2, 2, 1]);
        assert_eq!(svc.kmax("b").unwrap(), 1);
        assert!(svc.verify("a").unwrap());

        svc.evict("a").unwrap();
        assert!(!svc.contains("a"));
        assert_eq!(svc.pool().registered_graphs(), 1);
        assert!(svc.cores("a").is_err());
        // b is untouched by a's teardown.
        assert_eq!(svc.kmax("b").unwrap(), 1);
    }

    #[test]
    fn maintenance_is_per_graph() {
        let dir = TempDir::new("svc").unwrap();
        let svc = CoreService::new(1 << 20).unwrap();
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        svc.create("b", &dir.path().join("b"), triangle_plus_tail(), 4)
            .unwrap();
        svc.insert_edge("a", 1, 3).unwrap();
        svc.insert_edge("a", 0, 3).unwrap(); // a is now K4
        assert_eq!(svc.kmax("a").unwrap(), 3);
        assert_eq!(svc.kmax("b").unwrap(), 2, "b must not see a's updates");
        svc.delete_edge("a", 0, 1).unwrap();
        assert_eq!(svc.kmax("a").unwrap(), 2);
        assert!(svc.verify("a").unwrap() && svc.verify("b").unwrap());
    }

    #[test]
    fn duplicate_and_missing_names_are_errors() {
        let dir = TempDir::new("svc").unwrap();
        let svc = CoreService::new(1 << 20).unwrap();
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        assert!(svc
            .create("a", &dir.path().join("a2"), triangle_plus_tail(), 4)
            .is_err());
        assert!(svc.evict("ghost").is_err());
        assert!(svc.insert_edge("ghost", 0, 1).is_err());
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_errors_not_corruption() {
        let dir = TempDir::new("svc").unwrap();
        let svc = CoreService::new(1 << 20).unwrap();
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        let edges_before = svc.with_graph("a", |idx| Ok(idx.num_edges())).unwrap();
        assert!(svc.insert_edge("a", 0, 1).is_err(), "edge already present");
        assert!(svc.delete_edge("a", 1, 3).is_err(), "edge absent");
        assert!(svc.delete_edge("a", 1, 3).is_err(), "still absent");
        assert_eq!(
            svc.with_graph("a", |idx| Ok(idx.num_edges())).unwrap(),
            edges_before,
            "rejected updates must not drift the edge count"
        );
        assert!(svc.verify("a").unwrap(), "state untouched by bad updates");
    }

    #[test]
    fn out_of_range_queries_error_instead_of_panicking() {
        let dir = TempDir::new("svc").unwrap();
        let svc = CoreService::new(1 << 20).unwrap();
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        assert!(matches!(
            svc.core("a", 99),
            Err(graphstore::Error::NodeOutOfRange { node: 99, .. })
        ));
        assert!(svc.insert_edge("a", 0, 99).is_err());
        assert_eq!(svc.core("a", 3).unwrap(), 1);
    }

    #[test]
    fn save_without_data_dir_is_an_error() {
        let dir = TempDir::new("svc").unwrap();
        let svc = CoreService::new(1 << 20).unwrap();
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        assert!(svc.data_dir().is_none());
        assert!(svc.save("a").is_err());
    }

    #[test]
    fn durable_restart_restores_registry_and_state() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        {
            let svc = CoreService::create_durable(&data, 1 << 20).unwrap();
            assert_eq!(svc.data_dir(), Some(data.as_path()));
            svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
                .unwrap();
            svc.create("b", &dir.path().join("b"), [(0u32, 1u32), (1, 2)], 3)
                .unwrap();
            svc.insert_edge("a", 1, 3).unwrap();
            svc.insert_edge("a", 0, 3).unwrap(); // K4
            svc.delete_edge("b", 0, 1).unwrap();
            // No save: the journal alone must carry the tail.
        }
        let svc = CoreService::open_catalog(&data).unwrap();
        assert_eq!(svc.graph_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(svc.kmax("a").unwrap(), 3);
        assert_eq!(svc.cores("b").unwrap(), vec![0, 1, 1]);
        assert!(svc.verify("a").unwrap() && svc.verify("b").unwrap());
        // The restored graph keeps serving updates durably.
        svc.delete_edge("a", 0, 1).unwrap();
        assert_eq!(svc.kmax("a").unwrap(), 2);
    }

    #[test]
    fn durable_restart_after_explicit_save_replays_nothing() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        {
            let svc = CoreService::create_durable(&data, 1 << 20).unwrap();
            svc.create("g", &dir.path().join("g"), triangle_plus_tail(), 4)
                .unwrap();
            svc.insert_edge("g", 1, 3).unwrap();
            svc.save("g").unwrap();
        }
        // After save, the journal is empty: recovery is checkpoint-only.
        let wal_len = std::fs::metadata(data.join("g.wal")).unwrap().len();
        assert_eq!(wal_len, 8, "journal truncated to its header by save");
        let svc = CoreService::open_catalog(&data).unwrap();
        assert_eq!(svc.kmax("g").unwrap(), 2);
        assert!(svc.verify("g").unwrap());
    }

    #[test]
    fn checkpoint_threshold_truncates_journal_mid_stream() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        let svc = CoreService::create_durable_with(
            &data,
            DEFAULT_BLOCK_SIZE,
            1 << 20,
            EvictionPolicy::ScanLifo,
            ScanExecutor::Sequential,
            DurableOptions {
                checkpoint_every: 2,
                ..Default::default()
            },
        )
        .unwrap();
        svc.create("g", &dir.path().join("g"), [(0u32, 1u32)], 6)
            .unwrap();
        svc.insert_edge("g", 1, 2).unwrap();
        svc.insert_edge("g", 2, 3).unwrap(); // threshold: checkpoint + truncate
        let wal_len = std::fs::metadata(data.join("g.wal")).unwrap().len();
        assert_eq!(wal_len, 8, "threshold checkpoint must truncate the journal");
        svc.insert_edge("g", 3, 4).unwrap(); // journaled on the fresh log
        drop(svc);
        let svc = CoreService::open_catalog(&data).unwrap();
        assert_eq!(svc.cores("g").unwrap(), vec![1, 1, 1, 1, 1, 0]);
        assert!(svc.verify("g").unwrap());
    }

    #[test]
    fn explicit_compact_commits_a_new_generation_and_survives_restart() {
        let dir = TempDir::new("svc-compact").unwrap();
        let data = dir.path().join("data");
        let base = dir.path().join("g");
        {
            let svc = CoreService::create_durable(&data, 1 << 20).unwrap();
            svc.create("g", &base, triangle_plus_tail(), 5).unwrap();
            svc.insert_edge("g", 1, 3).unwrap();
            svc.insert_edge("g", 3, 4).unwrap();
            let cores_before = svc.cores("g").unwrap();
            assert_eq!(svc.generation("g").unwrap(), 0);

            assert_eq!(svc.compact("g").unwrap(), 1);
            assert_eq!(svc.generation("g").unwrap(), 1);
            // New generation tables + checkpoint, old checkpoint gone,
            // journal truncated to its header, buffer empty.
            assert!(dir.path().join("g.g1.nodes").exists());
            assert!(dir.path().join("g.g1.edges").exists());
            assert!(data.join("g.g1.ckpt").exists());
            assert!(!data.join("g.ckpt").exists());
            assert_eq!(std::fs::metadata(data.join("g.wal")).unwrap().len(), 8);
            let pending = svc
                .with_graph("g", |idx| Ok(idx.graph_mut().pending_edits()))
                .unwrap();
            assert_eq!(pending, 0, "compaction must empty the update buffer");
            // The user's registered base is never deleted.
            assert!(base.with_extension("nodes").exists());
            // State is preserved bit-for-bit and keeps serving.
            assert_eq!(svc.cores("g").unwrap(), cores_before);
            assert!(svc.verify("g").unwrap());
            svc.insert_edge("g", 0, 3).unwrap();

            // A second compaction supersedes (and removes) the first.
            assert_eq!(svc.compact("g").unwrap(), 2);
            assert!(!dir.path().join("g.g1.nodes").exists());
            assert!(!data.join("g.g1.ckpt").exists());
            assert!(dir.path().join("g.g2.nodes").exists());
        }
        let svc = CoreService::open_catalog(&data).unwrap();
        assert_eq!(svc.generation("g").unwrap(), 2);
        assert_eq!(svc.kmax("g").unwrap(), 3, "0-1-2-3 is a K4 after (0,3)");
        assert!(svc.verify("g").unwrap());
        // Compacted graphs keep taking durable updates.
        svc.delete_edge("g", 0, 3).unwrap();
        assert!(svc.verify("g").unwrap());
    }

    #[test]
    fn compaction_threshold_bounds_buffer_and_journal_on_the_apply_path() {
        let dir = TempDir::new("svc-compact").unwrap();
        let data = dir.path().join("data");
        let svc = CoreService::create_durable_with(
            &data,
            DEFAULT_BLOCK_SIZE,
            1 << 20,
            EvictionPolicy::ScanLifo,
            ScanExecutor::Sequential,
            DurableOptions {
                // Checkpoints alone would let the buffer grow without
                // bound; the compaction threshold is the memory bound.
                checkpoint_every: 1000,
                compact_after_edits: 4,
            },
        )
        .unwrap();
        svc.create("g", &dir.path().join("g"), [(0u32, 1u32)], 8)
            .unwrap();
        for (u, v) in [(1u32, 2u32), (2, 3), (3, 4), (4, 5), (5, 6)] {
            svc.insert_edge("g", u, v).unwrap();
            let pending = svc
                .with_graph("g", |idx| Ok(idx.graph_mut().pending_edits()))
                .unwrap();
            assert!(
                pending < 4,
                "apply path must compact at the threshold (pending = {pending})"
            );
        }
        assert!(
            svc.generation("g").unwrap() >= 2,
            "five ops over a 2-op threshold compact more than once"
        );
        drop(svc);
        let svc = CoreService::open_catalog(&data).unwrap();
        assert_eq!(svc.cores("g").unwrap(), vec![1, 1, 1, 1, 1, 1, 1, 0]);
        assert!(svc.verify("g").unwrap());
    }

    #[test]
    fn recompress_migrates_a_v1_graph_to_v2_at_the_commit_point() {
        let dir = TempDir::new("svc-recompress").unwrap();
        let data = dir.path().join("data");
        // A graph big enough that delta-varint actually shrinks the table.
        let edges: Vec<(u32, u32)> = (0..300u32).map(|v| (v, v + 1)).collect();
        {
            let svc = CoreService::create_durable(&data, 1 << 20).unwrap();
            svc.create("g", &dir.path().join("g"), edges, 301).unwrap();
            assert_eq!(svc.format_version("g").unwrap(), FormatVersion::V1);
            let cores = svc.cores("g").unwrap();

            assert_eq!(svc.recompress("g").unwrap(), 1);
            assert_eq!(svc.format_version("g").unwrap(), FormatVersion::V2);
            assert_eq!(svc.cores("g").unwrap(), cores);
            assert!(svc.verify("g").unwrap());
            // The compressed generation's edge table is strictly smaller
            // than the raw-u32 original.
            let v1_len = std::fs::metadata(dir.path().join("g.edges")).unwrap().len();
            let v2_len = std::fs::metadata(dir.path().join("g.g1.edges"))
                .unwrap()
                .len();
            assert!(v2_len < v1_len, "v2 {v2_len} B !< v1 {v1_len} B");
        }
        // The migrated format survives a restart (catalog + tables agree).
        let svc = CoreService::open_catalog(&data).unwrap();
        assert_eq!(svc.format_version("g").unwrap(), FormatVersion::V2);
        assert!(svc.verify("g").unwrap());
        svc.insert_edge("g", 0, 2).unwrap();
        assert!(svc.verify("g").unwrap());
    }

    #[test]
    fn compact_without_data_dir_is_an_error() {
        let dir = TempDir::new("svc").unwrap();
        let svc = CoreService::new(1 << 20).unwrap();
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        assert!(svc.compact("a").is_err());
        assert!(svc.generation("a").is_err());
    }

    #[test]
    fn durable_evict_removes_catalog_entry_and_sidecars() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        let svc = CoreService::create_durable(&data, 1 << 20).unwrap();
        svc.create("gone", &dir.path().join("gone"), triangle_plus_tail(), 4)
            .unwrap();
        svc.create("kept", &dir.path().join("kept"), triangle_plus_tail(), 4)
            .unwrap();
        svc.evict("gone").unwrap();
        assert!(!data.join("gone.ckpt").exists());
        assert!(!data.join("gone.wal").exists());
        drop(svc);
        let svc = CoreService::open_catalog(&data).unwrap();
        assert_eq!(svc.graph_names(), vec!["kept".to_string()]);
    }

    #[test]
    fn durable_names_are_restricted_to_safe_characters() {
        let dir = TempDir::new("svc-durable").unwrap();
        let svc = CoreService::create_durable(&dir.path().join("data"), 1 << 20).unwrap();
        for bad in ["", "../escape", "a/b", "dot.dot", "sp ace"] {
            assert!(
                svc.create(bad, &dir.path().join("g"), triangle_plus_tail(), 4)
                    .is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn io_failure_quarantines_only_the_failing_graph() {
        let dir = TempDir::new("svc-quarantine").unwrap();
        let svc = CoreService::new(1 << 20).unwrap();
        svc.create("sick", &dir.path().join("sick"), triangle_plus_tail(), 4)
            .unwrap();
        svc.create("well", &dir.path().join("well"), triangle_plus_tail(), 4)
            .unwrap();
        assert_eq!(svc.quarantine_reason("sick").unwrap(), None);

        // An operation that fails with an I/O error trips quarantine…
        let err = svc
            .with_graph("sick", |_idx| -> Result<()> {
                Err(graphstore::Error::Io(std::io::Error::other("injected")))
            })
            .unwrap_err();
        assert!(
            matches!(err, graphstore::Error::Io(_)),
            "first failure surfaces as-is"
        );

        // …so every further operation is rejected with the typed error.
        assert!(svc.kmax("sick").unwrap_err().is_quarantined());
        assert!(svc.insert_edge("sick", 1, 3).unwrap_err().is_quarantined());
        assert!(svc.quarantine_reason("sick").unwrap().is_some());

        // Other tenants are untouched.
        assert_eq!(svc.kmax("well").unwrap(), 2);
        assert!(svc.verify("well").unwrap());

        // Eviction bypasses quarantine and clears the slot for re-open.
        svc.evict("sick").unwrap();
        svc.open("sick", &dir.path().join("sick")).unwrap();
        assert_eq!(svc.kmax("sick").unwrap(), 2);
    }

    #[test]
    fn validation_errors_do_not_quarantine() {
        let dir = TempDir::new("svc-quarantine").unwrap();
        let svc = CoreService::new(1 << 20).unwrap();
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        assert!(svc.insert_edge("a", 0, 1).is_err()); // duplicate
        assert!(svc.core("a", 99).is_err()); // out of range
        assert_eq!(svc.quarantine_reason("a").unwrap(), None);
        assert_eq!(svc.kmax("a").unwrap(), 2, "graph keeps serving");
    }

    #[test]
    fn poisoned_graph_lock_becomes_quarantine_not_a_crash() {
        let dir = TempDir::new("svc-poison").unwrap();
        let svc = Arc::new(CoreService::new(1 << 20).unwrap());
        svc.create("p", &dir.path().join("p"), triangle_plus_tail(), 4)
            .unwrap();
        svc.create("q", &dir.path().join("q"), triangle_plus_tail(), 4)
            .unwrap();
        let svc2 = Arc::clone(&svc);
        let panicked = std::thread::spawn(move || {
            let _ = svc2.with_graph("p", |_idx| -> Result<()> {
                panic!("simulated crash mid-operation");
            });
        })
        .join();
        assert!(panicked.is_err(), "the worker thread must have panicked");

        // The poisoned graph is quarantined, not `.expect(...)`-fatal…
        let err = svc.kmax("p").unwrap_err();
        assert!(err.is_quarantined(), "got {err}");
        // …the registry (locked by graph_names) recovered fine, and the
        // other tenant still serves.
        assert_eq!(svc.graph_names().len(), 2);
        assert_eq!(svc.kmax("q").unwrap(), 2);
        svc.evict("p").unwrap();
        assert!(!svc.contains("p"));
    }

    #[test]
    fn create_durable_refuses_an_existing_catalog() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        drop(CoreService::create_durable(&data, 1 << 20).unwrap());
        assert!(CoreService::create_durable(&data, 1 << 20).is_err());
        assert!(CoreService::open_catalog(&data).is_ok());
    }
}
