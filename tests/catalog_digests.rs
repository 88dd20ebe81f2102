//! The catalog's content addresses, pinned: every (app, nprocs) tuple
//! submitted on base A must land on the digest, message count, payload
//! byte count and trace event count recorded in
//! `tests/golden/catalog_digests.txt`. A change that moves a digest
//! changed what the traced run *is* — event sizes, order, times — and
//! needs a reason, not a regenerated file.

use pas2p::{Pas2p, PredictionService};
use pas2p_apps::CATALOG;
use pas2p_machine::{cluster_a, MappingPolicy};
use pas2p_signature::run_plain;
use pas2p_store::{SignatureStore, StoreKey};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/catalog_digests.txt"
);

#[test]
fn catalog_submits_land_on_the_golden_content_addresses() {
    let root = std::env::temp_dir().join(format!("pas2p-catalog-digests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let base = cluster_a();

    // Submit everything first; the store is read back afterwards, when
    // the service no longer holds it.
    let store = SignatureStore::open(&root).expect("open store");
    let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name));
    let fingerprint = svc.fingerprint();
    let mut digests = Vec::new();
    for app in CATALOG {
        for nprocs in [4u32, 8] {
            let outcome = svc.submit(app, nprocs, "A").expect("submit");
            assert!(!outcome.cached, "{app}/{nprocs}: fresh store");
            digests.push((app, nprocs, outcome.digest));
        }
    }
    drop(svc);

    let mut store = SignatureStore::open(&root).expect("reopen store");
    let mut actual = String::from("# app nprocs base digest total_msgs total_bytes trace_events\n");
    for (app, nprocs, digest) in digests {
        let key = StoreKey {
            digest: digest.clone(),
            fingerprint: fingerprint.clone(),
        };
        let (stored, _sidecar) = store.get_signature(&key).expect("stored signature");
        let program = pas2p_apps::by_name(app, nprocs).expect("catalog app");
        let report = run_plain(program.as_ref(), &base, MappingPolicy::Block);
        actual.push_str(&format!(
            "{app} {nprocs} A {digest} {} {} {}\n",
            report.total_msgs, report.total_bytes, stored.trace_events
        ));
    }
    let _ = std::fs::remove_dir_all(&root);

    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual != golden {
        let out =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("catalog_digests.actual.txt");
        std::fs::write(&out, &actual).expect("write actual");
        for (a, g) in actual.lines().zip(golden.lines()) {
            assert_eq!(
                a,
                g,
                "first differing line (full output in {})",
                out.display()
            );
        }
        panic!(
            "{} lines, golden has {} (full output in {})",
            actual.lines().count(),
            golden.lines().count(),
            out.display()
        );
    }
}
