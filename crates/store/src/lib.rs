//! `pas2p-store`: a content-addressed, versioned signature repository.
//!
//! PAS2P's economics rest on the construction/execution split (paper
//! §IV): a signature is built **once** from an instrumented run on the
//! base machine, then executed cheaply on any number of target machines.
//! This crate is the "once": it persists what Stage B and the replies
//! read of what Stage A + construction produced — the signature, with its
//! phase table, checkpoints and confidence flag, and a metrics snapshot
//! beside it — keyed by
//! `digest(trace bytes ‖ base machine ‖ config fingerprint ‖ format
//! version)`, plus canonical predictions keyed by
//! `digest(signature ‖ target machine ‖ mapping policy)`.
//!
//! Properties the tests pin:
//!
//! * **Content addressing** — the key is derived from inputs, not
//!   names; re-analyzing identical inputs lands on the same entry, and
//!   execution knobs (worker counts) don't move the address.
//! * **Byte stability** — payloads exclude host wall-clock values, so
//!   two runs at different parallelism store identical payload bytes.
//! * **Incremental invalidation** — config changes move the key
//!   (old entries become unreachable; [`SignatureStore::evict_stale_configs`]
//!   reclaims them), and format-version bumps evict at open.
//! * **Corruption tolerance** — a damaged index is rebuilt from object
//!   files; a damaged object fails its checksum, is evicted, and the
//!   caller recomputes — all reported via [`StoreReport`] and `STORE-*`
//!   diagnostics (the `IngestReport` pattern, one layer up).
//! * **Crash durability** — writes go to per-write unique temp files
//!   that are fsynced (file and parent directory) around an atomic
//!   rename, and opening runs a recovery pass that sweeps stale temps
//!   and evicts torn objects; all filesystem access is routed through
//!   the [`StoreIo`] seam so these guarantees are provable under
//!   injected faults.
//!
//! Observability: the `store.hit` ([`HITS`], which the service also
//! counts) / `store.miss` / `store.evict` / `store.put` counters and a
//! `store.entries` gauge, recorded while [`pas2p_obs::enabled`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
pub mod io;
mod key;
mod report;
mod store;

pub use digest::{sha256_hex, Sha256};
pub use io::{RealIo, StoreIo};
pub use key::{
    config_fingerprint, prediction_key, signature_alias, signature_key, StoreKey,
    STORE_FORMAT_VERSION,
};
pub use report::StoreReport;
pub use store::HITS;
pub use store::{ArtifactKind, IndexEntry, Sidecar, SignatureStore, StoreError, StoredSignature};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A unique, throwaway store root per test.
    fn temp_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pas2p-store-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pred_entry(app: &str, target: &str) -> IndexEntry {
        IndexEntry {
            kind: ArtifactKind::Prediction,
            format_version: STORE_FORMAT_VERSION,
            fingerprint: "fp".into(),
            app: app.into(),
            workload: "w".into(),
            nprocs: 8,
            base: "A".into(),
            target: Some(target.into()),
        }
    }

    fn pred_key(n: u8) -> StoreKey {
        StoreKey {
            digest: sha256_hex(&[n]),
            fingerprint: "fp".into(),
        }
    }

    #[test]
    fn put_get_roundtrip_is_byte_identical() {
        let root = temp_root("roundtrip");
        let mut store = SignatureStore::open(&root).expect("open");
        assert!(store.is_empty());
        assert!(store.report().is_clean());

        let key = pred_key(1);
        let json = r#"{"app":"cg","pet":1.25}"#;
        assert!(store.get_prediction_json(&key).is_none(), "cold miss");
        store
            .put_prediction_json(&key, pred_entry("cg", "B"), json)
            .expect("put");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get_prediction_json(&key).as_deref(), Some(json));

        // A fresh handle over the same directory serves the same bytes.
        let mut reopened = SignatureStore::open(&root).expect("reopen");
        assert!(reopened.report().is_clean());
        assert_eq!(reopened.get_prediction_json(&key).as_deref(), Some(json));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_object_is_evicted_and_reported() {
        let root = temp_root("corrupt");
        let mut store = SignatureStore::open(&root).expect("open");
        let key = pred_key(2);
        store
            .put_prediction_json(&key, pred_entry("cg", "B"), r#"{"pet":1.0}"#)
            .expect("put");

        // Flip payload bytes behind the store's back.
        let obj_path = root.join("objects").join(format!("{}.json", key.digest));
        let text = std::fs::read_to_string(&obj_path).expect("object file");
        std::fs::write(&obj_path, text.replace("1.0", "9.9")).expect("tamper");

        let mut store = SignatureStore::open(&root).expect("reopen");
        assert!(
            store.get_prediction_json(&key).is_none(),
            "checksum mismatch must read as a miss"
        );
        assert_eq!(store.report().evicted_corrupt, 1);
        assert!(store
            .diagnostics()
            .iter()
            .any(|d| d.code == "STORE-CORRUPT-001"));
        assert_eq!(store.len(), 0, "the corrupt entry is gone");
        assert!(!obj_path.exists(), "the corrupt object file is deleted");

        // Recompute path: a fresh put over the same key works.
        store
            .put_prediction_json(&key, pred_entry("cg", "B"), r#"{"pet":1.0}"#)
            .expect("re-put");
        assert!(store.get_prediction_json(&key).is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_object_file_is_evicted_and_reported() {
        let root = temp_root("missing");
        let mut store = SignatureStore::open(&root).expect("open");
        let key = pred_key(3);
        store
            .put_prediction_json(&key, pred_entry("cg", "C"), "{}")
            .expect("put");
        std::fs::remove_file(root.join("objects").join(format!("{}.json", key.digest)))
            .expect("delete object");
        assert!(store.get_prediction_json(&key).is_none());
        assert_eq!(store.report().evicted_missing, 1);
        assert!(store
            .diagnostics()
            .iter()
            .any(|d| d.code == "STORE-OBJ-001"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unreadable_index_is_rebuilt_from_objects() {
        let root = temp_root("rebuild");
        let mut store = SignatureStore::open(&root).expect("open");
        let key = pred_key(4);
        let json = r#"{"pet":2.5}"#;
        store
            .put_prediction_json(&key, pred_entry("lu", "D"), json)
            .expect("put");
        std::fs::write(root.join("index.json"), b"not json at all {{{").expect("clobber index");

        let mut store = SignatureStore::open(&root).expect("reopen");
        assert!(store.report().index_rebuilt);
        assert!(store
            .diagnostics()
            .iter()
            .any(|d| d.code == "STORE-IDX-001"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get_prediction_json(&key).as_deref(), Some(json));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn format_version_bump_evicts_at_open() {
        let root = temp_root("version");
        let mut store = SignatureStore::open(&root).expect("open");
        let key = pred_key(5);
        store
            .put_prediction_json(&key, pred_entry("ft", "B"), "{}")
            .expect("put");
        drop(store);

        // Rewrite the entry as if an older release had produced it.
        let index_path = root.join("index.json");
        let text = std::fs::read_to_string(&index_path).expect("index");
        let mut value: serde_json::Value = serde_json::from_str(&text).expect("index json");
        value["entries"][key.digest.as_str()]["format_version"] = serde_json::json!(0);
        std::fs::write(&index_path, serde_json::to_string(&value).expect("encode"))
            .expect("rewrite index");

        let mut store = SignatureStore::open(&root).expect("reopen");
        assert_eq!(store.report().evicted_version, 1);
        assert!(store
            .diagnostics()
            .iter()
            .any(|d| d.code == "STORE-VER-001"));
        assert!(store.get_prediction_json(&key).is_none());
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn evict_stale_configs_keeps_the_pinned_fingerprint() {
        let root = temp_root("stale");
        let mut store = SignatureStore::open(&root).expect("open");
        let keep = pred_key(6);
        let mut drop_key = pred_key(7);
        drop_key.fingerprint = "old-fp".into();
        let mut old_entry = pred_entry("cg", "B");
        old_entry.fingerprint = "old-fp".into();
        store
            .put_prediction_json(&keep, pred_entry("cg", "B"), "{}")
            .expect("put");
        store
            .put_prediction_json(&drop_key, old_entry, "{}")
            .expect("put");
        assert_eq!(store.len(), 2);
        assert_eq!(store.evict_stale_configs("fp"), 1);
        assert_eq!(store.len(), 1);
        assert!(store.get_prediction_json(&keep).is_some());
        assert!(store.get_prediction_json(&drop_key).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_kind_is_a_miss_not_a_panic() {
        let root = temp_root("kind");
        let mut store = SignatureStore::open(&root).expect("open");
        let key = pred_key(8);
        store
            .put_prediction_json(&key, pred_entry("cg", "B"), "{}")
            .expect("put");
        assert!(store.get_signature(&key).is_none());
        // The entry survives: kind mismatch is the caller's confusion,
        // not corruption.
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The crash-recovery contract: a kill mid-write leaves a torn
    /// object and a stale temp file on disk; reopening the store must
    /// sweep the temp, evict the torn object with a `STORE-*`
    /// diagnostic, and keep serving intact entries byte-identically.
    #[test]
    fn kill_mid_write_recovers_on_reopen() {
        let root = temp_root("crash");
        let mut store = SignatureStore::open(&root).expect("open");
        let intact = pred_key(10);
        let torn = pred_key(11);
        let intact_json = r#"{"app":"cg","pet":1.25}"#;
        store
            .put_prediction_json(&intact, pred_entry("cg", "B"), intact_json)
            .expect("put intact");
        store
            .put_prediction_json(&torn, pred_entry("lu", "B"), r#"{"app":"lu","pet":3.5}"#)
            .expect("put torn-to-be");
        drop(store);

        // Simulate the kill: the second object's bytes are half-written
        // (as if the page cache never made it out), and a stale temp
        // file from the interrupted write is still lying around.
        let objects = root.join("objects");
        let torn_path = objects.join(format!("{}.json", torn.digest));
        let text = std::fs::read_to_string(&torn_path).expect("object");
        std::fs::write(&torn_path, &text.as_bytes()[..text.len() / 2]).expect("tear");
        std::fs::write(
            objects.join("deadbeef.json.0123456789abcdef-99-7.tmp"),
            b"partial temp garbage",
        )
        .expect("stale temp");

        let mut store = SignatureStore::open(&root).expect("reopen");
        let report = store.report().clone();
        assert_eq!(report.temps_removed, 1, "stale temp swept: {report:?}");
        assert_eq!(report.evicted_corrupt, 1, "torn object evicted at open");
        assert!(!report.is_clean());
        let codes: Vec<String> = store.diagnostics().iter().map(|d| d.code.clone()).collect();
        let codes: Vec<&str> = codes.iter().map(String::as_str).collect();
        assert!(codes.contains(&"STORE-CORRUPT-001"), "codes: {codes:?}");
        assert!(codes.contains(&"STORE-TMP-001"), "codes: {codes:?}");
        assert!(
            report
                .eviction_log
                .iter()
                .any(|l| l.contains("startup recovery")),
            "eviction log names the recovery pass: {:?}",
            report.eviction_log
        );

        // The torn entry reads as a miss (recompute path); the intact
        // entry still serves byte-identical payloads; no temp remains.
        assert!(store.get_prediction_json(&torn).is_none());
        assert_eq!(
            store.get_prediction_json(&intact).as_deref(),
            Some(intact_json)
        );
        for file in std::fs::read_dir(&objects).expect("objects") {
            let path = file.expect("entry").path();
            assert_ne!(path.extension().and_then(|e| e.to_str()), Some("tmp"));
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    fn object_file(root: &Path, key: &StoreKey) -> PathBuf {
        root.join("objects").join(format!("{}.json", key.digest))
    }

    /// No function spells the format any more — the struct declarations
    /// do — so the bytes are pinned here: a reordered or renamed field of
    /// `StoredObject`, `IndexEntry`, `Sidecar` or `StoreIndex` fails this.
    #[test]
    fn a_put_writes_exactly_these_bytes() {
        let root = temp_root("bytes");
        let mut store = SignatureStore::open(&root).expect("open");
        let key = pred_key(1);
        store
            .put_prediction_json(&key, pred_entry("cg", "B"), r#"{"app":"cg","pet":1.25}"#)
            .expect("put");
        let object = std::fs::read_to_string(object_file(&root, &key)).expect("object file");
        assert_eq!(
            object,
            concat!(
                r#"{"checksum":"d9b62c3e33fa05eae66e8bc98289a1fda773f4e9c88cde918de7d81646b1b0e9","#,
                r#""digest":"4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a","#,
                r#""entry":{"app":"cg","base":"A","fingerprint":"fp","format_version":3,"#,
                r#""kind":"prediction","nprocs":8,"target":"B","workload":"w"},"#,
                r#""payload":"{\"app\":\"cg\",\"pet\":1.25}","#,
                r#""sidecar":{"metrics":null,"tfat_seconds":0.0}}"#,
            )
        );
        let index = std::fs::read_to_string(store.index_path()).expect("index file");
        assert_eq!(
            index,
            concat!(
                r#"{"aliases":{},"entries":{"#,
                r#""4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a":"#,
                r#"{"app":"cg","base":"A","fingerprint":"fp","format_version":3,"#,
                r#""kind":"prediction","nprocs":8,"target":"B","workload":"w"}},"#,
                r#""format_version":3}"#,
            )
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A one-rank signature whose two entries resume from one checkpoint.
    fn small_signature() -> StoredSignature {
        use pas2p_phases::{MeasureWindow, PhaseAnalysis, PhaseRow, PhaseTable};
        use pas2p_signature::{CheckpointData, RankState, Signature, SignatureEntry};
        let row = |phase_id, at: u64| PhaseRow {
            phase_id,
            weight: 2,
            phase_et_base: 0.5,
            ckpt_counts: vec![3],
            windows: vec![MeasureWindow {
                start_counts: vec![at],
                end_counts: vec![at + 1],
            }],
        };
        let table = PhaseTable {
            nprocs: 1,
            aet_base: 2.0,
            total_phases: 2,
            relevance_threshold: 0.01,
            rows: vec![row(0, 3), row(1, 4)],
        };
        let entry = |row| SignatureEntry {
            row,
            checkpoint: Some(0),
        };
        StoredSignature {
            app_name: "ring".into(),
            workload: "w".into(),
            nprocs: 1,
            base_machine: "A".into(),
            trace_bytes: 96,
            trace_events: 4,
            aet_instrumented: 2.25,
            confidence: Default::default(),
            analysis: PhaseAnalysis {
                nprocs: 1,
                phases: vec![],
                aet: 2.0,
                analysis_seconds: 0.0,
                negative_spans: 0,
            },
            table: table.clone(),
            signature: Signature {
                app_name: "ring".into(),
                workload: "w".into(),
                nprocs: 1,
                base_machine: "A".into(),
                isa: pas2p_machine::IsaKind::X86_64,
                entries: table.rows.iter().cloned().map(entry).collect(),
                checkpoints: vec![CheckpointData {
                    step: 1,
                    base_counts: vec![3],
                    clock_offsets: vec![0.0],
                    states: vec![RankState(vec![0x0a, 0xfe])],
                }],
                table,
                config: Default::default(),
                confidence: Default::default(),
            },
        }
    }

    /// A signature payload is the signature and three numbers of the
    /// traced run: no phase analysis, and no table or names beside the
    /// signature's. It holds each checkpoint once and each rank's state as
    /// one lowercase hex string.
    #[test]
    fn a_signature_payload_is_exactly_this_text() {
        let root = temp_root("signature-bytes");
        let mut store = SignatureStore::open(&root).expect("open");
        let key = pred_key(2);
        let stored = small_signature();
        store
            .put_signature(&key, &stored, Sidecar::default())
            .expect("put");
        let object = std::fs::read_to_string(object_file(&root, &key)).expect("object file");
        let object: serde_json::Value = serde_json::from_str(&object).expect("object JSON");
        macro_rules! row {
            ($id:literal, $at:literal, $end:literal) => {
                concat!(
                    r#"{"phase_id":"#,
                    $id,
                    r#","weight":2,"phase_et_base":0.5,"ckpt_counts":[3],"#,
                    r#""windows":[{"start_counts":["#,
                    $at,
                    r#"],"end_counts":["#,
                    $end,
                    "]}]}",
                )
            };
        }
        macro_rules! table {
            () => {
                concat!(
                    r#"{"nprocs":1,"aet_base":2.0,"total_phases":2,"relevance_threshold":0.01,"#,
                    r#""rows":["#,
                    row!(0, 3, 4),
                    ",",
                    row!(1, 4, 5),
                    "]}",
                )
            };
        }
        let payload = concat!(
            r#"{"aet_instrumented":2.25,"#,
            r#""signature":{"app_name":"ring","workload":"w","nprocs":1,"base_machine":"A","#,
            r#""isa":"X86_64","table":"#,
            table!(),
            ",",
            r#""entries":[{"row":"#,
            row!(0, 3, 4),
            r#","checkpoint":0},"#,
            r#"{"row":"#,
            row!(1, 4, 5),
            r#","checkpoint":0}],"#,
            r#""checkpoints":[{"step":1,"base_counts":[3],"clock_offsets":[0.0],"states":["0afe"]}],"#,
            r#""config":{"relevance_threshold":0.01,"warmup_occurrences":1,"measure_occurrences":24,"#,
            r#""disk_bandwidth":200000000.0,"ckpt_latency":0.08,"restart_latency":0.12},"#,
            r#""confidence":"Full"},"#,
            r#""trace_bytes":96,"trace_events":4}"#,
        );
        assert_eq!(object["payload"].as_str(), Some(payload));
        // A read rebuilds the rest from the signature.
        let (back, _) = store.get_signature(&key).expect("served");
        assert_eq!(back.signature, stored.signature);
        assert_eq!(back.table, stored.table);
        assert_eq!(
            (
                &back.app_name,
                &back.workload,
                back.nprocs,
                &back.base_machine
            ),
            (&stored.app_name, &stored.workload, 1, &stored.base_machine)
        );
        assert_eq!(back.confidence, stored.confidence);
        assert_eq!((back.trace_bytes, back.trace_events), (96, 4));
        assert_eq!(back.aet_instrumented, 2.25);
        assert!(back.analysis.phases.is_empty());
        assert_eq!(back.analysis.aet, back.table.aet_base);
        assert_eq!(serde_json::to_string(&back).expect("encodes"), payload);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Rewrite one object file through `edit` and reopen the store.
    fn reopen_with_object(
        root: &Path,
        key: &StoreKey,
        edit: impl Fn(&str) -> String,
    ) -> SignatureStore {
        let path = object_file(root, key);
        let text = std::fs::read_to_string(&path).expect("object file");
        let edited = edit(&text);
        assert_ne!(edited, text, "the edit must apply");
        std::fs::write(&path, edited).expect("rewrite object");
        SignatureStore::open(root).expect("reopen")
    }

    #[test]
    fn optional_and_unknown_keys_still_read() {
        let root = temp_root("lenient");
        let mut store = SignatureStore::open(&root).expect("open");
        let key = pred_key(12);
        let mut entry = pred_entry("cg", "B");
        entry.target = None;
        store
            .put_prediction_json(&key, entry, r#"{"pet":1.0}"#)
            .expect("put");
        let object = std::fs::read_to_string(object_file(&root, &key)).expect("object file");
        assert!(
            !object.contains("target"),
            "an absent target is not written: {object}"
        );
        drop(store);

        // No sidecar, and a key this version does not know.
        let mut store = reopen_with_object(&root, &key, |text| {
            text.replace(
                r#","sidecar":{"metrics":null,"tfat_seconds":0.0}}"#,
                r#","written_by":"a later release"}"#,
            )
        });
        assert!(store.report().is_clean(), "{:?}", store.report());
        assert_eq!(
            store.get_prediction_json(&key).as_deref(),
            Some(r#"{"pet":1.0}"#)
        );
        assert_eq!(store.entry(&key).expect("entry").target, None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_sidecar_of_the_wrong_shape_is_corruption() {
        let root = temp_root("sidecar");
        let mut store = SignatureStore::open(&root).expect("open");
        let key = pred_key(13);
        store
            .put_prediction_json(&key, pred_entry("cg", "B"), "{}")
            .expect("put");
        drop(store);

        let mut store = reopen_with_object(&root, &key, |text| {
            text.replace(r#""metrics":null"#, r#""metrics":"not a snapshot""#)
        });
        assert_eq!(store.report().evicted_corrupt, 1);
        assert!(
            store
                .report()
                .eviction_log
                .iter()
                .any(|l| l.contains("object did not parse")),
            "{:?}",
            store.report().eviction_log
        );
        assert!(store
            .diagnostics()
            .iter()
            .any(|d| d.code == "STORE-CORRUPT-001"));
        assert!(store.get_prediction_json(&key).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }
}
