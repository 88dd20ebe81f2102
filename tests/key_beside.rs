//! A cold `submit` hashes its content key beside Stage A: the `key`
//! stage runs once on the farm's worker, the calling thread waits for
//! it in a `key.wait` stage of its own (so the time Stage A did not
//! hide has a checkpoint-gap name), and the digest is the one the
//! stepwise record → encode → `signature_key` gives.
//!
//! One test in a file of its own: the obs registry is process-global.

use pas2p::{Pas2p, PredictionService};
use pas2p_machine::{cluster_a, MappingPolicy};
use pas2p_store::{signature_key, SignatureStore};
use std::time::Duration;

const GAP: &str = "cancel.checkpoint_gap_us.";

#[test]
fn a_cold_submit_waits_for_its_key_in_a_stage_of_its_own() {
    let root = std::env::temp_dir().join(format!("pas2p-key-beside-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let pas2p = Pas2p::default();
    let store = SignatureStore::open(&root).expect("open store");
    let svc = PredictionService::new(pas2p, store, Box::new(pas2p_apps::by_name))
        .with_deadline(Some(Duration::from_secs(3600)));

    pas2p_obs::set_enabled(true);
    pas2p_obs::global().reset();
    let (response, _) = svc.handle_line(r#"{"op":"submit","app":"cg","nprocs":8,"base":"A"}"#);
    let snapshot = pas2p_obs::global().snapshot();
    pas2p_obs::set_enabled(false);
    let reply: serde_json::Value =
        serde_json::from_str(&response.render()).expect("a reply is JSON");
    assert_eq!(reply["ok"], true, "{reply}");
    assert_eq!(reply["result"]["cached"], false, "{reply}");

    for stage in ["key", "key.wait"] {
        let calls = snapshot
            .stages
            .iter()
            .find(|s| s.name == stage)
            .map_or(0, |s| s.calls);
        assert_eq!(calls, 1, "`{stage}` runs once per cold submit");
    }
    let waits = snapshot
        .histograms
        .get(&format!("{GAP}key.wait"))
        .map_or(0, |h| h.count);
    assert!(waits >= 1, "no checkpoint gap recorded for `key.wait`");
    for name in snapshot.histograms.keys() {
        if let Some(stage) = name.strip_prefix(GAP) {
            assert!(
                snapshot.stages.iter().any(|s| s.name == stage),
                "`{name}` names no stage of the snapshot"
            );
        }
    }

    let app = pas2p_apps::by_name("cg", 8).expect("catalog app");
    let trace = pas2p.record(app.as_ref(), &cluster_a(), MappingPolicy::Block);
    let inline = signature_key(
        &pas2p_trace::format::encode(&trace),
        &cluster_a(),
        &pas2p.fingerprint(),
    );
    assert_eq!(reply["result"]["digest"], inline.digest.as_str());
    let _ = std::fs::remove_dir_all(&root);
}
