//! Store durability under injected filesystem faults, driven through
//! the prediction service: a torn write, a failed rename, or a failed
//! fsync surfaces as a classified error (never a silent success, never
//! a torn object on disk), the next attempt recomputes and publishes
//! cleanly, and a store whose index was mangled rebuilds itself from
//! the object files on reopen.

use pas2p::{Pas2p, PredictionService};
use pas2p_faults::{FaultStoreIo, StoreFaultKind, StoreFaultStats};
use pas2p_store::{signature_alias, SignatureStore, StoreKey};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The obs registry is process-global; serialize with the other suites.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_root(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pas2p-durability-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn clean_service(root: &Path) -> PredictionService {
    let store = SignatureStore::open(root).expect("open store");
    PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name))
}

fn faulty_service(
    root: &Path,
    faults: Vec<StoreFaultKind>,
) -> (PredictionService, Arc<StoreFaultStats>) {
    let io = FaultStoreIo::new(faults);
    let stats = io.stats();
    let store = SignatureStore::open_with_io(root, Box::new(io)).expect("open store");
    let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name));
    (svc, stats)
}

/// Every published (non-temp) object in `root/objects` must be a
/// well-formed store object: JSON with a payload whose embedded
/// checksum verifies. Returns `(published, well_formed)`.
fn scan_objects(root: &Path) -> (usize, usize) {
    let dir = root.join("objects");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return (0, 0);
    };
    let mut published = 0;
    let mut well_formed = 0;
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue; // stale temps are the recovery pass's business
        }
        published += 1;
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(value) = serde_json::from_str::<serde_json::Value>(&text) else {
            continue;
        };
        let (Some(payload), Some(checksum)) =
            (value["payload"].as_str(), value["checksum"].as_str())
        else {
            continue;
        };
        if pas2p_store::sha256_hex(payload.as_bytes()) == checksum {
            well_formed += 1;
        }
    }
    (published, well_formed)
}

/// A write torn mid-stream surfaces as a classified error and never
/// publishes a torn object; the retry recomputes and publishes cleanly,
/// and a fresh service then serves the artifact byte-identically.
#[test]
fn torn_write_is_classified_and_the_retry_recovers() {
    let _serial = serial();
    let root = temp_root("torn");
    let (svc, stats) = faulty_service(
        &root,
        vec![StoreFaultKind::TornWrite {
            on_op: 1,
            keep_per_mille: 500,
        }],
    );

    let err = svc
        .submit("cg", 4, "A")
        .expect_err("torn write must fail the submit");
    assert!(!err.is_empty(), "failure carries a message");
    assert!(stats.faults_fired() >= 1, "the fault actually fired");
    let (published, well_formed) = scan_objects(&root);
    assert_eq!(published, well_formed, "no torn object was ever published");

    // Same service, next attempt: writes 2+ are clean.
    let retry = svc.submit("cg", 4, "A").expect("retry succeeds");
    assert!(!retry.cached, "the failed submit cached nothing");
    let (published, well_formed) = scan_objects(&root);
    assert!(published >= 1, "retry published the signature");
    assert_eq!(published, well_formed);
    let cold = svc.predict("cg", 4, "A", "B").expect("predict");
    drop(svc);

    // A fresh, fault-free service sees a healthy store and identical bytes.
    let svc = clean_service(&root);
    assert_eq!(svc.store_report().evicted_corrupt, 0, "nothing to evict");
    let warm = svc.predict("cg", 4, "A", "B").expect("warm predict");
    assert!(warm.cached, "served from the store");
    assert_eq!(warm.prediction_json, cold.prediction_json);
    let _ = std::fs::remove_dir_all(&root);
}

/// A failed rename (the publish step itself) leaves nothing published:
/// the object either exists completely or not at all.
#[test]
fn rename_failure_never_publishes_a_partial_object() {
    let _serial = serial();
    let root = temp_root("rename");
    let (svc, stats) = faulty_service(&root, vec![StoreFaultKind::RenameFail { on_op: 1 }]);

    let err = svc
        .submit("ft", 4, "A")
        .expect_err("failed publish must fail the submit");
    assert!(
        err.contains("publishing"),
        "classified as a publish failure: {err}"
    );
    assert_eq!(stats.faults_fired(), 1);
    let (published, _) = scan_objects(&root);
    assert_eq!(published, 0, "nothing may appear without its rename");

    let retry = svc.submit("ft", 4, "A").expect("retry succeeds");
    assert!(!retry.cached);
    let (published, well_formed) = scan_objects(&root);
    assert!(published >= 1);
    assert_eq!(published, well_formed);
    let _ = std::fs::remove_dir_all(&root);
}

/// A failed fsync is surfaced, not swallowed: an acknowledged write is
/// durable, so a write whose durability barrier failed must error.
#[test]
fn fsync_failure_is_surfaced_not_swallowed() {
    let _serial = serial();
    let root = temp_root("fsync");
    let (svc, stats) = faulty_service(&root, vec![StoreFaultKind::FsyncFail { on_op: 1 }]);

    let err = svc
        .submit("cg", 4, "A")
        .expect_err("failed fsync must fail the submit");
    assert!(
        err.contains("fsync"),
        "classified as an fsync failure: {err}"
    );
    assert_eq!(stats.faults_fired(), 1);

    let retry = svc.submit("cg", 4, "A").expect("retry succeeds");
    assert!(!retry.cached);
    let _ = std::fs::remove_dir_all(&root);
}

/// A short read of the index on open (a torn page, a filesystem that
/// lied) does not lose the store: the index is rebuilt from the object
/// files, aliases included, and warm predictions still match the cold
/// bytes.
#[test]
fn short_index_read_rebuilds_from_objects() {
    let _serial = serial();
    let root = temp_root("shortread");
    let svc = clean_service(&root);
    let cold = svc.predict("cg", 4, "A", "B").expect("cold predict");
    let entries = svc.store_len();
    assert!(entries >= 2, "signature + prediction stored");
    drop(svc);

    // Reopen through an io whose *first* read (index.json) is truncated.
    let (svc, stats) = faulty_service(
        &root,
        vec![StoreFaultKind::ShortRead {
            on_op: 1,
            keep_per_mille: 300,
        }],
    );
    assert_eq!(stats.faults_fired(), 1, "the truncated read fired on open");
    assert!(
        svc.store_report().index_rebuilt,
        "a mangled index is rebuilt, not trusted: {:?}",
        svc.store_report()
    );
    assert_eq!(svc.store_len(), entries, "no entry was lost in the rebuild");
    let warm = svc.predict("cg", 4, "A", "B").expect("warm predict");
    assert!(warm.cached, "rebuilt aliases still route to the signature");
    assert_eq!(warm.prediction_json, cold.prediction_json);
    let _ = std::fs::remove_dir_all(&root);
}

/// An alias names only what is published. A second traced run of the
/// same (app, workload, nprocs, base, config) has another content
/// address; when its publish fails, the alias must still answer the
/// first signature — registered before the write, it would point at a
/// digest with no entry, and the next request would recompute Stage A
/// beside a perfectly good object.
#[test]
fn failed_put_leaves_the_alias_on_the_published_signature() {
    let _serial = serial();
    let root = temp_root("alias");
    let svc = clean_service(&root);
    let key = StoreKey {
        digest: svc.submit("cg", 4, "A").expect("submit").digest,
        fingerprint: svc.fingerprint(),
    };
    drop(svc);

    // Reopening a clean store renames nothing: the first rename is the
    // publish of the second put's object.
    let io = FaultStoreIo::new(vec![StoreFaultKind::RenameFail { on_op: 1 }]);
    let mut store = SignatureStore::open_with_io(&root, Box::new(io)).expect("reopen");
    let (payload, sidecar) = store.get_signature(&key).expect("published signature");
    let alias = signature_alias(
        &payload.app_name,
        &payload.workload,
        payload.nprocs,
        &payload.base_machine,
        &key.fingerprint,
    );
    assert_eq!(store.lookup_alias(&alias).as_ref(), Some(&key));

    let other = StoreKey {
        digest: pas2p_store::sha256_hex(b"another traced run of the same tuple"),
        fingerprint: key.fingerprint.clone(),
    };
    let err = store
        .put_signature(&other, &payload, sidecar)
        .expect_err("failed publish must fail the put");
    assert!(err.to_string().contains("publishing"), "{err}");
    assert!(store.entry(&other).is_none(), "nothing was published");
    assert_eq!(
        store.lookup_alias(&alias).as_ref(),
        Some(&key),
        "the alias still names the signature that is there"
    );
    assert!(
        store.get_signature(&key).is_some(),
        "and the store serves it"
    );
    let _ = std::fs::remove_dir_all(&root);
}
