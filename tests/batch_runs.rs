//! A `batch` request simulates each missing application exactly twice —
//! the paper's two runs: the traced run Stage A analyzes (whose trace
//! also yields the content address) and the checkpointing re-run that
//! builds the signature. A third run per application, made only to
//! re-derive the address, is what this pins out.
//!
//! One test in a file of its own: the obs registry is process-global.

use pas2p::{Pas2p, PredictionService};
use pas2p_store::SignatureStore;

#[test]
fn batch_simulates_each_missing_app_exactly_twice() {
    let root = std::env::temp_dir().join(format!("pas2p-batch-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = SignatureStore::open(&root).expect("open store");
    let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name));
    let apps: Vec<String> = ["cg", "ft", "moldy", "masterworker"]
        .map(String::from)
        .to_vec();

    pas2p_obs::set_enabled(true);
    pas2p_obs::global().reset();
    // No targets: Stage B (one restarted run per phase) stays out of the count.
    let reply = svc
        .batch(&apps, 4, "A", &[], Some(2), None, None)
        .expect("batch");
    let runs = pas2p_obs::counter("mpisim.runs").get();
    let again = svc
        .batch(&apps, 4, "A", &[], Some(2), None, None)
        .expect("batch");
    let runs_again = pas2p_obs::counter("mpisim.runs").get() - runs;
    pas2p_obs::set_enabled(false);

    for app in &apps {
        assert_eq!(reply["jobs"][app.as_str()], "ok", "{reply}");
        assert_eq!(again["jobs"][app.as_str()], "cached", "{again}");
    }
    assert_eq!(
        runs,
        2 * apps.len() as u64,
        "two simulated runs per missing app"
    );
    assert_eq!(runs_again, 0, "a stored app is not run at all");
    let _ = std::fs::remove_dir_all(&root);
}
