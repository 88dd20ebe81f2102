//! Fault injection for the signature repository's filesystem seam.
//!
//! PR 5 taught the harness to corrupt *trace bytes*; this module points
//! the same adversarial-timing mindset at the store itself. A
//! [`FaultStoreIo`] wraps the production [`RealIo`] and makes the nth
//! operation of a chosen kind misbehave — a write that tears partway
//! through, a read that comes up short, a rename or fsync that fails, or
//! an operation that blocks until a gate file appears. Everything is
//! counted, so a soak test can assert *exactly* which faults fired, and
//! everything is deterministic in the plan: no clocks, no randomness,
//! just 1-indexed operation counters.
//!
//! The store's durability contract under these faults is the acceptance
//! criterion of the chaos harness: a failed write must surface a
//! classified `StoreError` (never a silent tear), and the recovery pass
//! at the next open must evict anything the tear left behind.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pas2p_store::{RealIo, StoreIo};
use serde::{Deserialize, Serialize};

/// Which I/O operation family a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreOp {
    /// `StoreIo::write` — object and index publishes.
    Write,
    /// `StoreIo::read_to_string` — object and index loads.
    Read,
    /// `StoreIo::rename` — the atomic publish step.
    Rename,
    /// `StoreIo::sync_file` / `sync_dir` — the durability barrier.
    Sync,
}

impl StoreOp {
    /// Short stable label for logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            StoreOp::Write => "write",
            StoreOp::Read => "read",
            StoreOp::Rename => "rename",
            StoreOp::Sync => "sync",
        }
    }
}

/// One injected store-I/O failure mode. Counters are 1-indexed per
/// operation family: `on_op: 3` fires on the third write (read, …)
/// the store performs after the injector is installed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoreFaultKind {
    /// The nth write persists only the first `keep_per_mille`/1000 of
    /// its bytes and then fails — a process killed mid-`write(2)`.
    TornWrite {
        /// 1-indexed write this fires on.
        on_op: u64,
        /// Surviving prefix in per-mille of the payload.
        keep_per_mille: u32,
    },
    /// The nth read *succeeds* but returns only a prefix — a torn page
    /// or a filesystem that lied. The caller must catch this by
    /// checksum, not by `Err`.
    ShortRead {
        /// 1-indexed read this fires on.
        on_op: u64,
        /// Surviving prefix in per-mille of the content.
        keep_per_mille: u32,
    },
    /// The nth rename fails — the publish step itself dies.
    RenameFail {
        /// 1-indexed rename this fires on.
        on_op: u64,
    },
    /// The nth fsync (file or directory) fails — the durability barrier
    /// reports an error, as real disks occasionally do.
    FsyncFail {
        /// 1-indexed sync this fires on.
        on_op: u64,
    },
    /// Every operation of `op` from the `on_op`th onward blocks until
    /// the `gate` file exists (or the cancel check trips). This is the
    /// deterministic stand-in for "a slow disk": tests use it to hold a
    /// worker mid-request and observe queue depth, shedding and
    /// deadlines without racing wall-clock sleeps.
    BlockOnGate {
        /// Operation family to stall.
        op: StoreOp,
        /// 1-indexed operation the stall starts at.
        on_op: u64,
        /// Path whose existence releases the stall.
        gate: String,
    },
}

impl StoreFaultKind {
    /// Short stable label for logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            StoreFaultKind::TornWrite { .. } => "torn-write",
            StoreFaultKind::ShortRead { .. } => "short-read",
            StoreFaultKind::RenameFail { .. } => "rename-fail",
            StoreFaultKind::FsyncFail { .. } => "fsync-fail",
            StoreFaultKind::BlockOnGate { .. } => "block-on-gate",
        }
    }
}

/// Shared operation/fault counters. The store owns its `StoreIo` as a
/// `Box`, so tests keep an `Arc` of this to observe what fired.
#[derive(Debug, Default)]
pub struct StoreFaultStats {
    /// Total writes attempted.
    pub writes: AtomicU64,
    /// Total reads attempted.
    pub reads: AtomicU64,
    /// Total renames attempted.
    pub renames: AtomicU64,
    /// Total syncs (file + dir) attempted.
    pub syncs: AtomicU64,
    /// Writes that tore.
    pub torn_writes: AtomicU64,
    /// Reads that returned short content.
    pub short_reads: AtomicU64,
    /// Renames that failed.
    pub failed_renames: AtomicU64,
    /// Syncs that failed.
    pub failed_syncs: AtomicU64,
    /// Operations that blocked on a gate (and were later released or
    /// cancelled).
    pub gated_ops: AtomicU64,
}

impl StoreFaultStats {
    /// Faults fired so far, all kinds.
    pub fn faults_fired(&self) -> u64 {
        self.torn_writes.load(Ordering::SeqCst)
            + self.short_reads.load(Ordering::SeqCst)
            + self.failed_renames.load(Ordering::SeqCst)
            + self.failed_syncs.load(Ordering::SeqCst)
    }

    /// One deterministic summary line.
    pub fn render(&self) -> String {
        format!(
            "ops(w/r/mv/sync)={}/{}/{}/{} torn={} short={} mv-fail={} sync-fail={} gated={}",
            self.writes.load(Ordering::SeqCst),
            self.reads.load(Ordering::SeqCst),
            self.renames.load(Ordering::SeqCst),
            self.syncs.load(Ordering::SeqCst),
            self.torn_writes.load(Ordering::SeqCst),
            self.short_reads.load(Ordering::SeqCst),
            self.failed_renames.load(Ordering::SeqCst),
            self.failed_syncs.load(Ordering::SeqCst),
            self.gated_ops.load(Ordering::SeqCst),
        )
    }
}

/// Callback polled while an operation is gate-blocked; returning `true`
/// aborts the wait with an `Interrupted` error so a request past its
/// deadline fails classified instead of holding its permit forever.
pub type CancelCheck = Box<dyn Fn() -> bool + Send + Sync>;

/// A [`StoreIo`] that injects the faults of a plan into a wrapped
/// [`RealIo`], deterministically by operation index.
pub struct FaultStoreIo {
    inner: RealIo,
    faults: Vec<StoreFaultKind>,
    stats: Arc<StoreFaultStats>,
    cancel_check: Option<CancelCheck>,
}

impl std::fmt::Debug for FaultStoreIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultStoreIo")
            .field("faults", &self.faults)
            .field("stats", &self.stats)
            .finish()
    }
}

fn keep_len(len: usize, keep_per_mille: u32) -> usize {
    ((len as u64) * u64::from(keep_per_mille.min(1000)) / 1000) as usize
}

impl FaultStoreIo {
    /// An injector applying `faults` around a fresh [`RealIo`].
    pub fn new(faults: Vec<StoreFaultKind>) -> FaultStoreIo {
        FaultStoreIo {
            inner: RealIo,
            faults,
            stats: Arc::new(StoreFaultStats::default()),
            cancel_check: None,
        }
    }

    /// Handle to the shared counters; clone before boxing the injector
    /// into a store.
    pub fn stats(&self) -> Arc<StoreFaultStats> {
        Arc::clone(&self.stats)
    }

    /// Install a cancellation probe for gate-blocked operations.
    pub fn with_cancel_check(mut self, check: CancelCheck) -> FaultStoreIo {
        self.cancel_check = Some(check);
        self
    }

    /// Block while a matching [`StoreFaultKind::BlockOnGate`] holds
    /// `op`'s `index`th call. Polls the gate path (and the cancel
    /// check) every 2ms; a tripped cancel check surfaces as
    /// `ErrorKind::Interrupted`.
    fn gate(&self, op: StoreOp, index: u64) -> io::Result<()> {
        for fault in &self.faults {
            let (fop, on_op, gate) = match fault {
                StoreFaultKind::BlockOnGate { op, on_op, gate } => (*op, *on_op, gate),
                _ => continue,
            };
            if fop != op || index < on_op {
                continue;
            }
            let gate = PathBuf::from(gate);
            if !gate.exists() {
                self.stats.gated_ops.fetch_add(1, Ordering::SeqCst);
            }
            while !gate.exists() {
                if let Some(check) = &self.cancel_check {
                    if check() {
                        return Err(io::Error::new(
                            io::ErrorKind::Interrupted,
                            format!("gated {} cancelled before release", op.label()),
                        ));
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }

    /// The first non-gate fault armed for (`op`, `index`), if any.
    fn armed(&self, op: StoreOp, index: u64) -> Option<&StoreFaultKind> {
        self.faults.iter().find(|f| match f {
            StoreFaultKind::TornWrite { on_op, .. } => op == StoreOp::Write && *on_op == index,
            StoreFaultKind::ShortRead { on_op, .. } => op == StoreOp::Read && *on_op == index,
            StoreFaultKind::RenameFail { on_op } => op == StoreOp::Rename && *on_op == index,
            StoreFaultKind::FsyncFail { on_op } => op == StoreOp::Sync && *on_op == index,
            StoreFaultKind::BlockOnGate { .. } => false,
        })
    }
}

impl StoreIo for FaultStoreIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let index = self.stats.reads.fetch_add(1, Ordering::SeqCst) + 1;
        self.gate(StoreOp::Read, index)?;
        let content = self.inner.read_to_string(path)?;
        if let Some(StoreFaultKind::ShortRead { keep_per_mille, .. }) =
            self.armed(StoreOp::Read, index)
        {
            self.stats.short_reads.fetch_add(1, Ordering::SeqCst);
            let keep = keep_len(content.len(), *keep_per_mille);
            let mut short = content;
            // Truncate on a char boundary so the result is still UTF-8.
            let mut cut = keep;
            while cut > 0 && !short.is_char_boundary(cut) {
                cut -= 1;
            }
            short.truncate(cut);
            return Ok(short);
        }
        Ok(content)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let index = self.stats.writes.fetch_add(1, Ordering::SeqCst) + 1;
        self.gate(StoreOp::Write, index)?;
        if let Some(StoreFaultKind::TornWrite { keep_per_mille, .. }) =
            self.armed(StoreOp::Write, index)
        {
            self.stats.torn_writes.fetch_add(1, Ordering::SeqCst);
            let keep = keep_len(bytes.len(), *keep_per_mille);
            self.inner.write(path, &bytes[..keep])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!(
                    "injected torn write: {keep}/{} bytes persisted",
                    bytes.len()
                ),
            ));
        }
        self.inner.write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let index = self.stats.syncs.fetch_add(1, Ordering::SeqCst) + 1;
        self.gate(StoreOp::Sync, index)?;
        if self.armed(StoreOp::Sync, index).is_some() {
            self.stats.failed_syncs.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let index = self.stats.syncs.fetch_add(1, Ordering::SeqCst) + 1;
        self.gate(StoreOp::Sync, index)?;
        if self.armed(StoreOp::Sync, index).is_some() {
            self.stats.failed_syncs.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("injected directory fsync failure"));
        }
        self.inner.sync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let index = self.stats.renames.fetch_add(1, Ordering::SeqCst) + 1;
        self.gate(StoreOp::Rename, index)?;
        if self.armed(StoreOp::Rename, index).is_some() {
            self.stats.failed_renames.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("injected rename failure"));
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pas2p-faultio-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn torn_write_persists_a_prefix_and_errors() {
        let dir = tmp_dir("torn");
        let io = FaultStoreIo::new(vec![StoreFaultKind::TornWrite {
            on_op: 2,
            keep_per_mille: 500,
        }]);
        let stats = io.stats();
        let a = dir.join("a");
        let b = dir.join("b");
        io.write(&a, b"0123456789").expect("first write clean");
        let err = io.write(&b, b"0123456789").expect_err("second write tears");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(std::fs::read_to_string(&b).expect("prefix"), "01234");
        assert_eq!(stats.torn_writes.load(Ordering::SeqCst), 1);
        assert_eq!(stats.writes.load(Ordering::SeqCst), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_read_returns_ok_with_truncated_content() {
        let dir = tmp_dir("short");
        let io = FaultStoreIo::new(vec![StoreFaultKind::ShortRead {
            on_op: 1,
            keep_per_mille: 300,
        }]);
        let p = dir.join("p");
        io.write(&p, b"0123456789").expect("write");
        assert_eq!(io.read_to_string(&p).expect("short but Ok"), "012");
        assert_eq!(
            io.read_to_string(&p).expect("second read clean"),
            "0123456789"
        );
        assert_eq!(io.stats().short_reads.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_and_fsync_faults_fire_on_their_index_only() {
        let dir = tmp_dir("mv");
        let io = FaultStoreIo::new(vec![
            StoreFaultKind::RenameFail { on_op: 1 },
            StoreFaultKind::FsyncFail { on_op: 2 },
        ]);
        let a = dir.join("a");
        io.write(&a, b"x").expect("write");
        assert!(io.rename(&a, &dir.join("b")).is_err(), "first rename fails");
        io.rename(&a, &dir.join("b")).expect("second rename clean");
        io.sync_file(&dir.join("b")).expect("first sync clean");
        assert!(io.sync_dir(&dir).is_err(), "second sync fails");
        assert_eq!(io.stats().faults_fired(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gated_op_blocks_until_gate_file_exists() {
        let dir = tmp_dir("gate");
        let gate = dir.join("open-sesame");
        let io = FaultStoreIo::new(vec![StoreFaultKind::BlockOnGate {
            op: StoreOp::Write,
            on_op: 1,
            gate: gate.to_string_lossy().into_owned(),
        }]);
        let stats = io.stats();
        let target = dir.join("t");
        std::thread::scope(|scope| {
            let io = &io;
            let target = &target;
            scope.spawn(move || {
                io.write(target, b"released").expect("write after release");
            });
            while stats.gated_ops.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(!target.exists(), "write held by gate");
            std::fs::write(&gate, b"").expect("open gate");
        });
        assert_eq!(std::fs::read_to_string(&target).expect("read"), "released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gated_op_cancel_check_aborts_with_interrupted() {
        let dir = tmp_dir("gate-cancel");
        let gate = dir.join("never-opened");
        let io = FaultStoreIo::new(vec![StoreFaultKind::BlockOnGate {
            op: StoreOp::Read,
            on_op: 1,
            gate: gate.to_string_lossy().into_owned(),
        }])
        .with_cancel_check(Box::new(|| true));
        let err = io
            .read_to_string(&dir.join("missing"))
            .expect_err("cancel check trips");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
