//! A [`StoreIo`] that counts what the store asks of the filesystem,
//! passed to the public `SignatureStore::open_with_io` seam.

use pas2p_store::{RealIo, StoreIo};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Operation counts, shared with the store's boxed I/O object.
#[derive(Debug, Default)]
pub struct IoCounts {
    pub reads: AtomicU64,
    pub bytes_written: AtomicU64,
    /// `sync_file` + `sync_dir`.
    pub fsyncs: AtomicU64,
}

/// A point-in-time copy of [`IoCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub reads: u64,
    pub bytes_written: u64,
    pub fsyncs: u64,
}

impl IoCounts {
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }
}

impl IoSnapshot {
    /// Operations since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            bytes_written: self.bytes_written - earlier.bytes_written,
            fsyncs: self.fsyncs - earlier.fsyncs,
        }
    }
}

/// Real filesystem access, counted; with `durable` off the two fsync
/// calls are counted and skipped, which is how the ledger inflates a
/// store to thousands of entries in the time it has.
pub struct CountingIo {
    counts: Arc<IoCounts>,
    durable: bool,
}

impl CountingIo {
    pub fn new(durable: bool) -> (CountingIo, Arc<IoCounts>) {
        let counts = Arc::new(IoCounts::default());
        (
            CountingIo {
                counts: Arc::clone(&counts),
                durable,
            },
            counts,
        )
    }

    fn fsync(&self, real: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        if self.durable {
            real()
        } else {
            Ok(())
        }
    }
}

impl StoreIo for CountingIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        RealIo.read_to_string(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.counts
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        RealIo.write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.fsync(|| RealIo.sync_file(path))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.fsync(|| RealIo.sync_dir(dir))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealIo.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealIo.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealIo.create_dir_all(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealIo.list_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_store::{ArtifactKind, IndexEntry, SignatureStore, StoreKey, STORE_FORMAT_VERSION};

    fn entry() -> IndexEntry {
        IndexEntry {
            kind: ArtifactKind::Prediction,
            format_version: STORE_FORMAT_VERSION,
            fingerprint: "f".to_string(),
            app: "app".to_string(),
            workload: "w".to_string(),
            nprocs: 4,
            base: "cluster-A".to_string(),
            target: Some("cluster-B".to_string()),
        }
    }

    #[test]
    fn a_put_and_a_get_are_counted_through_the_store() {
        let root = std::env::temp_dir().join(format!("pas2p-benchmark-io-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (io, counts) = CountingIo::new(true);
        let mut store = SignatureStore::open_with_io(&root, Box::new(io)).expect("open");
        let key = StoreKey {
            digest: "d".repeat(64),
            fingerprint: "f".to_string(),
        };
        let before = counts.snapshot();
        store
            .put_prediction_json(&key, entry(), r#"{"pet":1.0}"#)
            .expect("put");
        let put = counts.snapshot().since(&before);
        // An object and the index, each written to a temporary name,
        // fsynced and renamed into place.
        assert_eq!(
            put.fsyncs, 4,
            "two files and, after each rename, their directory"
        );
        assert!(put.bytes_written > 0);
        assert_eq!(put.reads, 0);

        let before = counts.snapshot();
        assert_eq!(
            store.get_prediction_json(&key).as_deref(),
            Some(r#"{"pet":1.0}"#)
        );
        let get = counts.snapshot().since(&before);
        assert_eq!((get.reads, get.bytes_written, get.fsyncs), (1, 0, 0));

        // With durability off the fsyncs are still counted.
        let (io, counts) = CountingIo::new(false);
        let mut store = SignatureStore::open_with_io(&root, Box::new(io)).expect("reopen");
        let other = StoreKey {
            digest: "e".repeat(64),
            ..key
        };
        store
            .put_prediction_json(&other, entry(), "{}")
            .expect("put");
        assert_eq!(counts.snapshot().fsyncs, put.fsyncs);
        let _ = std::fs::remove_dir_all(&root);
    }
}
