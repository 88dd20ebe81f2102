//! The signature repository's end-to-end contracts, exercised through
//! the prediction service: content addresses are execution-knob
//! invariant, warm predictions do no Stage-A work (pinned via obs
//! counters and stage profiles), corrupted entries recover by
//! recomputation, and the serve loop's cache hits are byte-identical
//! to cold computes.

use pas2p::{Pas2p, PredictionService};
use pas2p_store::SignatureStore;
use std::io::Cursor;
use std::path::{Path, PathBuf};

/// The obs registry is process-global; tests that enable it serialize
/// on this lock so concurrent tests don't pollute each other's
/// counters.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_root(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pas2p-store-it-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_with(pas2p: Pas2p, root: &Path) -> PredictionService {
    let store = SignatureStore::open(root).expect("open store");
    PredictionService::new(pas2p, store, Box::new(pas2p_apps::by_name))
}

fn service(root: &Path) -> PredictionService {
    service_with(Pas2p::default(), root)
}

/// The store key is derived from what the signature *is* (trace bytes,
/// machine, config thresholds), never from how it was computed: the
/// extraction worker count must not move the address, and the stored
/// payload + checksum must be byte-identical across worker counts.
#[test]
fn digest_and_payload_are_stable_across_worker_counts() {
    let _serial = serial();
    let roots: Vec<PathBuf> = [1usize, 4]
        .iter()
        .map(|&parallelism| {
            let root = temp_root(&format!("par{parallelism}"));
            let mut pas2p = Pas2p::default();
            pas2p.similarity.parallelism = Some(parallelism);
            let svc = service_with(pas2p, &root);
            let outcome = svc.submit("cg", 4, "A").expect("submit");
            assert!(!outcome.cached);
            root
        })
        .collect();

    let objects: Vec<(String, serde_json::Value)> = roots
        .iter()
        .map(|root| {
            let objects_dir = root.join("objects");
            let mut files: Vec<_> = std::fs::read_dir(&objects_dir)
                .expect("objects dir")
                .map(|e| e.expect("entry").path())
                .collect();
            assert_eq!(files.len(), 1, "exactly one signature object");
            files.sort();
            let name = files[0].file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&files[0]).expect("object file");
            (name, serde_json::from_str(&text).expect("object json"))
        })
        .collect();

    let (name_a, obj_a) = &objects[0];
    let (name_b, obj_b) = &objects[1];
    assert_eq!(name_a, name_b, "same content address at any worker count");
    assert_eq!(
        obj_a["payload"], obj_b["payload"],
        "stored payload must be byte-identical across worker counts"
    );
    assert_eq!(obj_a["checksum"], obj_b["checksum"]);
    for root in roots {
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// The acceptance contract: a second predict for the same
/// (trace, machine, config) is served from the store — `store.hit`
/// grows, phase extraction does not run again (no new `extract_phases`
/// run in the stage profiles, no new similarity comparisons), and the
/// prediction JSON is byte-identical to the cold run's. A third is the
/// service's kept reply: `store.hit` grows again and no file is read.
#[test]
fn warm_predict_does_no_stage_a_work_and_matches_cold_bytes() {
    let _serial = serial();
    let root = temp_root("warm");
    pas2p_obs::global().reset();
    pas2p_obs::set_enabled(true);

    let io = pas2p_faults::FaultStoreIo::new(Vec::new());
    let reads = io.stats();
    let store = SignatureStore::open_with_io(&root, Box::new(io)).expect("open store");
    let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name));
    let cold = svc.predict("cg", 4, "A", "B").expect("cold predict");
    assert!(!cold.cached);
    let before = pas2p_obs::global().snapshot();

    let warm = svc.predict("cg", 4, "A", "B").expect("warm predict");
    let after = pas2p_obs::global().snapshot();
    let read = reads.reads.load(std::sync::atomic::Ordering::SeqCst);
    let kept = svc.predict("cg", 4, "A", "B").expect("kept reply");
    let last = pas2p_obs::global().snapshot();
    pas2p_obs::set_enabled(false);
    pas2p_obs::global().reset();
    assert_eq!(
        reads.reads.load(std::sync::atomic::Ordering::SeqCst),
        read,
        "the kept reply reads no file"
    );
    assert!(kept.cached);
    assert_eq!(kept.prediction_json, cold.prediction_json);

    assert!(warm.cached, "second predict must be a store hit");
    assert_eq!(
        warm.prediction_json, cold.prediction_json,
        "cache hit must be byte-identical to the cold compute"
    );

    let hits = |s: &pas2p_obs::MetricsSnapshot| s.counters.get("store.hit").copied().unwrap_or(0);
    assert!(
        hits(&after) > hits(&before),
        "store.hit must grow on the warm predict ({} -> {})",
        hits(&before),
        hits(&after)
    );
    assert!(
        hits(&last) > hits(&after),
        "store.hit must grow on the kept reply ({} -> {})",
        hits(&after),
        hits(&last)
    );

    // The registry keeps one profile per stage name: count runs, not
    // entries.
    let extracts = |s: &pas2p_obs::MetricsSnapshot| {
        s.stages
            .iter()
            .filter(|p| p.name == "extract_phases")
            .map(|p| p.calls)
            .sum::<u64>()
    };
    assert!(extracts(&before) > 0, "the cold predict extracts phases");
    assert_eq!(
        extracts(&last),
        extracts(&before),
        "no phase extraction may run on the warm path"
    );
    let comparisons = |s: &pas2p_obs::MetricsSnapshot| {
        s.counters
            .get("phases.similarity_comparisons")
            .copied()
            .unwrap_or(0)
    };
    assert_eq!(
        comparisons(&last),
        comparisons(&before),
        "no similarity comparisons may run on the warm path"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Corruption recovery through the service: a tampered object fails its
/// checksum on load, is evicted and reported, and the service
/// transparently recomputes — ending with a healthy cache again.
#[test]
fn corrupted_signature_recovers_by_recomputation() {
    let _serial = serial();
    let root = temp_root("corrupt");
    let svc = service(&root);
    let cold = svc.predict("ft", 4, "A", "B").expect("cold predict");
    drop(svc);

    // Tamper with every stored object: flip payload content behind the
    // store's back.
    let objects_dir = root.join("objects");
    for entry in std::fs::read_dir(&objects_dir).expect("objects dir") {
        let path = entry.expect("entry").path();
        let text = std::fs::read_to_string(&path).expect("object");
        std::fs::write(&path, text.replace("payload\":\"{", "payload\":\"{ ")).expect("tamper");
    }

    let svc = service(&root);
    let recomputed = svc.predict("ft", 4, "A", "B").expect("recomputed predict");
    assert!(
        !recomputed.cached,
        "tampered entries must not serve as cache hits"
    );
    assert_eq!(
        recomputed.prediction_json, cold.prediction_json,
        "recomputation reproduces the original canonical artifact"
    );
    assert!(svc.store_report().evicted_corrupt > 0);
    assert!(svc
        .store_diagnostics()
        .iter()
        .any(|d| d.code == "STORE-CORRUPT-001"));

    let warm = svc.predict("ft", 4, "A", "B").expect("warm predict");
    assert!(warm.cached, "the cache is healthy again after recompute");
    let _ = std::fs::remove_dir_all(&root);
}

/// Serve-loop smoke over 2 apps x 2 machines: cold round computes, warm
/// round hits, and the warm prediction values equal the cold ones.
#[test]
fn serve_loop_two_apps_two_machines_end_to_end() {
    let _serial = serial();
    let root = temp_root("e2e");
    let svc = service(&root);

    let mut input = String::new();
    for _round in 0..2 {
        for app in ["cg", "ft"] {
            for target in ["B", "C"] {
                input.push_str(&format!(
                    "{{\"op\":\"predict\",\"app\":\"{app}\",\"nprocs\":4,\"target\":\"{target}\"}}\n"
                ));
            }
        }
    }
    input.push_str("{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n");

    let mut out = Vec::new();
    svc.serve(Cursor::new(input.as_str()), &mut out)
        .expect("serve");
    let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("response json"))
        .collect();
    assert_eq!(lines.len(), 10, "8 predicts + stats + shutdown");

    let (cold, rest) = lines.split_at(4);
    let warm = &rest[..4];
    for (c, w) in cold.iter().zip(warm) {
        assert_eq!(c["ok"], serde_json::json!(true), "cold: {c}");
        assert_eq!(w["ok"], serde_json::json!(true), "warm: {w}");
        assert_eq!(c["result"]["cached"], serde_json::json!(false));
        assert_eq!(w["result"]["cached"], serde_json::json!(true));
        assert_eq!(
            c["result"]["prediction"], w["result"]["prediction"],
            "warm prediction must equal the cold one"
        );
        assert!(c["result"]["prediction"]["pet"].as_f64().unwrap() > 0.0);
    }
    let stats = &lines[8];
    // 2 signatures + 4 predictions.
    assert_eq!(stats["result"]["entries"], serde_json::json!(6));
    assert_eq!(lines[9]["result"]["stopping"], serde_json::json!(true));
    let _ = std::fs::remove_dir_all(&root);
}
