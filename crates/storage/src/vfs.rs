//! Virtual filesystem seam: every byte this crate persists or reads back
//! flows through a [`Vfs`], so tests can inject disk misbehaviour —
//! failed fsyncs, short writes, a full disk, bit rot, crash-stop — at the
//! exact syscall where a real deployment would meet it.
//!
//! Production code uses [`StdVfs`], a zero-cost passthrough to `std::fs`.
//! Tests build a [`FaultVfs`] around it with a [`FaultPlan`] describing
//! *which* operation misbehaves, deterministically: "fail the 3rd fsync",
//! "persist only 7 bytes of the 5th write", "report `ENOSPC` after 4096
//! bytes", "flip one bit in the 2nd read", "crash-stop before the 6th
//! sync point". Determinism is what turns the crash-recovery argument in
//! ARCHITECTURE.md ("Failure model") from prose into a matrix the test
//! suite enumerates.
//!
//! ## The crash model
//!
//! [`FaultVfs`] models *crash-stop with completed syscalls persisted*:
//! every operation that returned `Ok` before the crash point is on disk,
//! nothing after it happens, and every subsequent operation fails with a
//! distinctive "simulated crash" error. *Sync events* — file `sync_all`,
//! `rename`, `sync_parent_dir` — are the crash schedule's clock, because
//! those are the only points at which this crate's durability protocol
//! claims anything; `crash_before_sync: Some(k)` stops the world just
//! before the `k`-th such event fires. A counting pass with a fault-free
//! plan ([`FaultVfs::sync_events`]) tells the harness how many crash
//! points a workload has.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An open file handle behind the [`Vfs`] seam.
///
/// Methods take `&mut self` (handles are owned by single readers/writers
/// throughout this crate), and positional reads never disturb the write
/// cursor used by [`VfsFile::write_all`] / [`VfsFile::seek_to`].
// `len` is fallible and takes `&mut self`; an `is_empty` counterpart would
// be dead API weight for a seam nothing iterates over.
#[allow(clippy::len_without_is_empty)]
pub trait VfsFile: Send + fmt::Debug {
    /// Read exactly `out.len()` bytes starting at absolute `offset`.
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()>;
    /// Append/overwrite `data` at the current write cursor.
    fn write_all(&mut self, data: &[u8]) -> io::Result<()>;
    /// Move the write cursor to absolute `offset`.
    fn seek_to(&mut self, offset: u64) -> io::Result<()>;
    /// Truncate (or extend) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Flush file contents and metadata to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Current length of the file in bytes.
    fn len(&mut self) -> io::Result<u64>;
}

/// The filesystem operations this crate's storage layer performs, as a
/// seam. All durability-relevant syscalls are here; see the module docs.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Open an existing file read-only.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open an existing file read+write (no truncation).
    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Create (truncating if present) a file read+write.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically rename `from` over `to`. A sync event.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsync the directory containing `path`, making a just-created or
    /// just-renamed entry durable. A sync event.
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
    /// Read a whole file into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
}

/// The production [`Vfs`]: a passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl StdVfs {
    /// A shared handle to the passthrough vfs.
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

/// [`VfsFile`] over a real [`File`].
#[derive(Debug)]
pub struct StdFile {
    file: File,
}

impl StdFile {
    /// Wrap an already-open [`File`] (write cursor wherever it is).
    pub fn new(file: File) -> Self {
        StdFile { file }
    }
}

impl VfsFile for StdFile {
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        // A positional read must not move the write cursor: remember and
        // restore it around the seek+read pair.
        let cur = self.file.stream_position()?;
        self.file.seek(SeekFrom::Start(offset))?;
        let res = self.file.read_exact(out);
        self.file.seek(SeekFrom::Start(cur))?;
        res
    }
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.write_all(data)
    }
    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset)).map(|_| ())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
    fn len(&mut self) -> io::Result<u64> {
        self.file.metadata().map(|m| m.len())
    }
}

impl Vfs for StdVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile::new(File::open(path)?)))
    }
    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile::new(
            OpenOptions::new().read(true).write(true).open(path)?,
        )))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile::new(
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)?,
        )))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            File::open(parent)?.sync_all()?;
        }
        Ok(())
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
}

/// A deterministic fault schedule for [`FaultVfs`]. All counters are
/// 1-based and count operations *after the plan was armed*
/// ([`FaultVfs::set_plan`] resets them). The default plan injects nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Fail the Nth `sync_all` with `EIO` (once; later syncs succeed).
    pub fail_fsync: Option<u64>,
    /// Fail the Nth `sync_all` with `ENOSPC` (once), as a filesystem that
    /// allocates at writeback reports a full disk. Never armed by
    /// [`FaultPlan::from_seed`], so seeded plans replay unchanged.
    pub enospc_fsync: Option<u64>,
    /// On the Nth file write, persist only the first `K` bytes, then fail.
    pub short_write: Option<(u64, usize)>,
    /// Report `ENOSPC` once the cumulative written bytes would exceed this
    /// budget; the write persists up to the budget, the rest is lost.
    pub enospc_after: Option<u64>,
    /// Flip one bit (selected by the second field) in the Nth read.
    pub bit_flip_read: Option<(u64, u64)>,
    /// Crash-stop immediately *before* the Nth sync event (file sync,
    /// rename, or parent-dir sync). Every operation after the crash fails.
    pub crash_before_sync: Option<u64>,
}

impl FaultPlan {
    /// A pseudorandom single-fault plan derived from `seed` — the
    /// property-test entry point. The fault kind and its trigger ordinal
    /// are both seed-determined, so a failing case replays exactly.
    pub fn from_seed(seed: u64) -> FaultPlan {
        // SplitMix64: cheap, well-mixed, and dependency-free.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::default();
        match next() % 4 {
            0 => plan.fail_fsync = Some(1 + next() % 4),
            1 => plan.short_write = Some((1 + next() % 4, (next() % 16) as usize)),
            2 => plan.enospc_after = Some(next() % 256),
            _ => plan.crash_before_sync = Some(1 + next() % 6),
        }
        plan
    }
}

/// Mutable fault-injection state shared by a [`FaultVfs`] and every file
/// handle it has opened.
#[derive(Debug, Default)]
struct FaultState {
    plan: FaultPlan,
    fsyncs: u64,
    writes: u64,
    reads: u64,
    written_bytes: u64,
    sync_events: u64,
    crashed: bool,
}

/// The distinctive error every operation returns once the simulated
/// machine has crash-stopped.
pub const CRASH_MSG: &str = "simulated crash (crash-stop)";

fn crash_err() -> io::Error {
    io::Error::other(CRASH_MSG)
}

impl FaultState {
    /// Fail if the machine has already crash-stopped.
    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(crash_err())
        } else {
            Ok(())
        }
    }

    /// Record a sync event (file sync / rename / dir sync), crashing
    /// first when the plan schedules it at this ordinal.
    fn sync_event(&mut self) -> io::Result<()> {
        self.check_alive()?;
        if self.plan.crash_before_sync == Some(self.sync_events + 1) {
            self.crashed = true;
            return Err(crash_err());
        }
        self.sync_events += 1;
        Ok(())
    }
}

/// A fault-injecting [`Vfs`] wrapping [`StdVfs`], driven by a
/// [`FaultPlan`]. See the module docs for the crash model.
#[derive(Debug)]
pub struct FaultVfs {
    inner: StdVfs,
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// A fault vfs armed with `plan`.
    pub fn new(plan: FaultPlan) -> Arc<FaultVfs> {
        Arc::new(FaultVfs {
            inner: StdVfs,
            state: Arc::new(Mutex::new(FaultState {
                plan,
                ..FaultState::default()
            })),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // A panic while holding this lock can only come from the harness
        // itself; recovering the guard keeps the injector usable.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Re-arm with a new plan, resetting all ordinals and the crash flag.
    /// This lets one test set a scenario up fault-free, then schedule a
    /// fault relative to *now* ("fail the next read").
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut st = self.state();
        *st = FaultState {
            plan,
            ..FaultState::default()
        };
    }

    /// Sync events (file syncs + renames + parent-dir syncs) observed
    /// since the plan was armed — the crash schedule's clock.
    pub fn sync_events(&self) -> u64 {
        self.state().sync_events
    }

    /// True once a scheduled crash-stop has fired.
    pub fn crashed(&self) -> bool {
        self.state().crashed
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(FaultFile {
            inner: file,
            state: Arc::clone(&self.state),
        })
    }
}

/// Run a plain (non-sync) vfs operation: crash check only.
fn plain_op<T>(state: &Arc<Mutex<FaultState>>, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
    state
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .check_alive()?;
    f()
}

impl Vfs for FaultVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        plain_op(&self.state, || self.inner.open_read(path)).map(|f| self.wrap(f))
    }
    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        plain_op(&self.state, || self.inner.open_read_write(path)).map(|f| self.wrap(f))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        plain_op(&self.state, || self.inner.create(path)).map(|f| self.wrap(f))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.state().sync_event()?;
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        plain_op(&self.state, || self.inner.remove_file(path))
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.state().sync_event()?;
        self.inner.sync_parent_dir(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = plain_op(&self.state, || self.inner.read(path))?;
        self.state().maybe_flip(&mut bytes);
        Ok(bytes)
    }
}

impl FaultState {
    /// Apply the bit-flip fault to a completed read's bytes, if this read
    /// is the scheduled one.
    fn maybe_flip(&mut self, bytes: &mut [u8]) {
        self.reads += 1;
        if let Some((nth, pick)) = self.plan.bit_flip_read {
            if self.reads == nth && !bytes.is_empty() {
                let i = (pick % bytes.len() as u64) as usize;
                bytes[i] ^= 1 << (pick % 8);
            }
        }
    }

    /// Gate one write of `len` bytes: returns how many bytes to persist,
    /// and the error to report afterwards (if any).
    fn gate_write(&mut self, len: usize) -> io::Result<(usize, Option<io::Error>)> {
        self.check_alive()?;
        self.writes += 1;
        let mut persist = len;
        let mut err = None;
        if let Some((nth, k)) = self.plan.short_write {
            if self.writes == nth {
                persist = persist.min(k);
                err = Some(io::Error::other(format!(
                    "injected short write ({persist} of {len} bytes persisted)"
                )));
            }
        }
        if let Some(budget) = self.plan.enospc_after {
            let room = budget.saturating_sub(self.written_bytes) as usize;
            if room < persist {
                persist = room;
                err = Some(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected disk full (ENOSPC)",
                ));
            }
        }
        self.written_bytes += persist as u64;
        Ok((persist, err))
    }
}

/// A fault-injecting file handle produced by [`FaultVfs`].
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<Mutex<FaultState>>,
}

impl FaultFile {
    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl VfsFile for FaultFile {
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        self.state().check_alive()?;
        self.inner.read_exact_at(offset, out)?;
        self.state().maybe_flip(out);
        Ok(())
    }

    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        let (persist, err) = self.state().gate_write(data.len())?;
        self.inner.write_all(&data[..persist])?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.state().check_alive()?;
        self.inner.seek_to(offset)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.state().check_alive()?;
        self.inner.set_len(len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        {
            let mut st = self.state();
            st.sync_event()?;
            st.fsyncs += 1;
            if st.plan.fail_fsync == Some(st.fsyncs) {
                return Err(io::Error::other("injected fsync failure (EIO)"));
            }
            if st.plan.enospc_fsync == Some(st.fsyncs) {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected fsync failure (ENOSPC)",
                ));
            }
        }
        self.inner.sync_all()
    }

    fn len(&mut self) -> io::Result<u64> {
        self.state().check_alive()?;
        self.inner.len()
    }
}

/// A read-bandwidth-limited [`Vfs`] wrapper: every byte delivered by
/// [`VfsFile::read_exact_at`] or [`Vfs::read`] drains a shared token
/// bucket refilled at `bytes_per_sec`, and a caller that outruns the
/// bucket sleeps off its debt before the next read proceeds. This is the
/// integrity scrubber's read path: scrub traffic is pinned below a
/// bandwidth ceiling so it cannot starve foreground queries of disk,
/// while writes (repairs) pass through unthrottled.
///
/// The bucket allows a burst of up to one second's budget, carries debt
/// (a single oversized read completes, then pays for itself), and a rate
/// of `u64::MAX` disables throttling entirely.
#[derive(Debug)]
pub struct ThrottledVfs {
    inner: Arc<dyn Vfs>,
    bucket: Arc<Mutex<TokenBucket>>,
}

#[derive(Debug)]
struct TokenBucket {
    /// Refill rate in bytes per second; `f64` for sub-byte carry.
    rate: f64,
    /// Current balance in bytes. Negative = debt to sleep off.
    tokens: f64,
    last_refill: std::time::Instant,
    throttled_bytes: u64,
}

impl ThrottledVfs {
    /// Wrap `inner`, limiting read bandwidth to `bytes_per_sec`.
    pub fn new(inner: Arc<dyn Vfs>, bytes_per_sec: u64) -> Arc<ThrottledVfs> {
        Arc::new(ThrottledVfs {
            inner,
            bucket: Arc::new(Mutex::new(TokenBucket {
                rate: bytes_per_sec as f64,
                tokens: bytes_per_sec as f64,
                last_refill: std::time::Instant::now(),
                throttled_bytes: 0,
            })),
        })
    }

    /// Total bytes that have drained the bucket since creation.
    pub fn throttled_bytes(&self) -> u64 {
        self.bucket
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .throttled_bytes
    }
}

/// Drain `n` bytes from the bucket, sleeping off any debt *outside* the
/// lock so concurrent readers are paced, not serialized.
fn acquire(bucket: &Arc<Mutex<TokenBucket>>, n: u64) {
    let wait = {
        let mut b = bucket.lock().unwrap_or_else(|p| p.into_inner());
        if b.rate >= u64::MAX as f64 {
            return;
        }
        let now = std::time::Instant::now();
        let refill = now.duration_since(b.last_refill).as_secs_f64() * b.rate;
        // Burst capacity: at most one second's budget banks up.
        b.tokens = (b.tokens + refill).min(b.rate);
        b.last_refill = now;
        b.tokens -= n as f64;
        b.throttled_bytes += n;
        if b.tokens < 0.0 {
            std::time::Duration::from_secs_f64(-b.tokens / b.rate)
        } else {
            return;
        }
    };
    std::thread::sleep(wait);
}

impl Vfs for ThrottledVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(ThrottledFile {
            inner: self.inner.open_read(path)?,
            bucket: Arc::clone(&self.bucket),
        }))
    }
    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(ThrottledFile {
            inner: self.inner.open_read_write(path)?,
            bucket: Arc::clone(&self.bucket),
        }))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        // Writes pass through unthrottled; only reads are paced.
        self.inner.create(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_parent_dir(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.inner.read(path)?;
        acquire(&self.bucket, bytes.len() as u64);
        Ok(bytes)
    }
}

/// A rate-limited read handle produced by [`ThrottledVfs`].
#[derive(Debug)]
struct ThrottledFile {
    inner: Box<dyn VfsFile>,
    bucket: Arc<Mutex<TokenBucket>>,
}

impl VfsFile for ThrottledFile {
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        acquire(&self.bucket, out.len() as u64);
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
        self.inner.sync_all()
    }
    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn setup() -> (TempDir, std::path::PathBuf) {
        let dir = TempDir::new("vfstest").unwrap();
        let path = dir.path().join("f.bin");
        (dir, path)
    }

    #[test]
    fn std_vfs_round_trips_and_positional_read_keeps_cursor() {
        let (_d, path) = setup();
        let vfs = StdVfs;
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"hello ").unwrap();
        let mut head = [0u8; 3];
        f.read_exact_at(0, &mut head).unwrap();
        assert_eq!(&head, b"hel");
        // The positional read must not have moved the append cursor.
        f.write_all(b"world").unwrap();
        f.sync_all().unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        assert_eq!(f.len().unwrap(), 11);
    }

    #[test]
    fn nth_fsync_fails_once() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan {
            fail_fsync: Some(2),
            ..FaultPlan::default()
        });
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_all().unwrap();
        assert!(f.sync_all().is_err());
        f.sync_all().unwrap();
    }

    #[test]
    fn short_write_persists_prefix_then_errors() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan {
            short_write: Some((2, 3)),
            ..FaultPlan::default()
        });
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"aaaa").unwrap();
        assert!(f.write_all(b"bbbb").is_err());
        drop(f);
        assert_eq!(StdVfs.read(&path).unwrap(), b"aaaabbb");
    }

    #[test]
    fn enospc_after_budget() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan {
            enospc_after: Some(6),
            ..FaultPlan::default()
        });
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"aaaa").unwrap();
        let err = f.write_all(b"bbbb").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        drop(f);
        assert_eq!(StdVfs.read(&path).unwrap(), b"aaaabb");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_read() {
        let (_d, path) = setup();
        std::fs::write(&path, [0u8; 16]).unwrap();
        let vfs = FaultVfs::new(FaultPlan {
            bit_flip_read: Some((2, 5)),
            ..FaultPlan::default()
        });
        let mut f = vfs.open_read(&path).unwrap();
        let mut buf = [0u8; 16];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 1);
        assert_eq!(buf[5], 1 << 5);
    }

    #[test]
    fn crash_before_sync_stops_the_world() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan {
            crash_before_sync: Some(2),
            ..FaultPlan::default()
        });
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"v1").unwrap();
        f.sync_all().unwrap(); // sync event 1
        f.write_all(b"v2").unwrap();
        let err = f.sync_all().unwrap_err(); // would be event 2: crash
        assert_eq!(err.to_string(), CRASH_MSG);
        assert!(vfs.crashed());
        // Everything after the crash fails, including plain ops.
        assert!(f.write_all(b"v3").is_err());
        assert!(vfs.create(&path).is_err());
        assert_eq!(vfs.sync_events(), 1);
        // Completed writes persisted; nothing after the crash did.
        assert_eq!(StdVfs.read(&path).unwrap(), b"v1v2");
    }

    #[test]
    fn renames_and_dir_syncs_are_sync_events() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan::default());
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_all().unwrap();
        drop(f);
        let dst = path.with_extension("renamed");
        vfs.rename(&path, &dst).unwrap();
        vfs.sync_parent_dir(&dst).unwrap();
        assert_eq!(vfs.sync_events(), 3);
    }

    #[test]
    fn set_plan_rearms_relative_to_now() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan::default());
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_all().unwrap();
        vfs.set_plan(FaultPlan {
            fail_fsync: Some(1),
            ..FaultPlan::default()
        });
        assert_eq!(vfs.sync_events(), 0);
        assert!(f.sync_all().is_err());
        f.sync_all().unwrap();
    }

    #[test]
    fn throttled_vfs_paces_reads_and_counts_bytes() {
        let (_d, path) = setup();
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        // 8 KiB/s with a 8 KiB burst: the first 8 KiB is free, the next
        // 4 KiB must wait ~half a second.
        let vfs = ThrottledVfs::new(StdVfs::arc(), 8 * 1024);
        let mut f = vfs.open_read(&path).unwrap();
        let mut buf = vec![0u8; 4096];
        let start = std::time::Instant::now();
        f.read_exact_at(0, &mut buf).unwrap();
        f.read_exact_at(0, &mut buf).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_millis(200));
        f.read_exact_at(0, &mut buf).unwrap();
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(400),
            "third read should have slept off ~0.5s of bucket debt"
        );
        assert_eq!(vfs.throttled_bytes(), 3 * 4096);
        assert_eq!(buf, vec![7u8; 4096]);
    }

    #[test]
    fn throttled_vfs_max_rate_is_a_passthrough() {
        let (_d, path) = setup();
        std::fs::write(&path, vec![1u8; 64 * 1024]).unwrap();
        let vfs = ThrottledVfs::new(StdVfs::arc(), u64::MAX);
        let start = std::time::Instant::now();
        for _ in 0..64 {
            assert_eq!(vfs.read(&path).unwrap().len(), 64 * 1024);
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn from_seed_is_deterministic_and_always_arms_something() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert!(
                a.fail_fsync.is_some()
                    || a.short_write.is_some()
                    || a.enospc_after.is_some()
                    || a.crash_before_sync.is_some()
            );
        }
    }
}
