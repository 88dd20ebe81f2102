//! No catalog application materialises a payload: every message and
//! collective block it sends is a length, so `RunReport::bytes_copied`
//! and its obs mirror `mpisim.bytes_copied` stay 0 while
//! `total_bytes` / `mpisim.bytes` keep counting the logical bytes. A
//! data-carrying `send` counts exactly its length.
//!
//! One test in a file of its own: the obs registry is process-global.

use pas2p::prelude::*;
use pas2p_apps::{by_name, CATALOG};

#[test]
fn no_payload_is_materialised_by_a_catalog_app() {
    let base = cluster_a();
    pas2p_obs::set_enabled(true);
    pas2p_obs::global().reset();
    let mut logical = 0;
    for name in CATALOG {
        for nprocs in [4u32, 8] {
            let app = by_name(name, nprocs).expect("catalog app");
            let plain = run_plain(app.as_ref(), &base, MappingPolicy::Block);
            assert_eq!(plain.bytes_copied, 0, "{name}/{nprocs} run_plain");
            let (_trace, traced) = run_traced(
                app.as_ref(),
                &base,
                MappingPolicy::Block,
                InstrumentationModel::default(),
            );
            assert_eq!(traced.bytes_copied, 0, "{name}/{nprocs} run_traced");
            assert_eq!(traced.total_bytes, plain.total_bytes);
            logical += plain.total_bytes + traced.total_bytes;
        }
    }
    assert!(
        logical > 1 << 30,
        "the catalog moves gigabytes of logical payload"
    );
    let counters = pas2p_obs::global().snapshot().counters;
    assert_eq!(counters["mpisim.bytes"], logical);
    assert_eq!(counters["mpisim.bytes_copied"], 0);

    // The data-carrying constructor is counted by what it copies.
    let cfg = SimConfig::new(base, 2, MappingPolicy::Block);
    let report = run_app(&cfg, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 0, &[9u8; 4096]);
            ctx.send_sized(1, 0, 1 << 20);
        } else {
            assert_eq!(ctx.recv(Some(0), Some(0)).bytes(), &[9u8; 4096]);
            assert_eq!(ctx.recv(Some(0), Some(0)).data.len(), 1 << 20);
        }
    });
    pas2p_obs::set_enabled(false);
    assert_eq!(report.total_bytes, 4096 + (1 << 20));
    assert_eq!(report.bytes_copied, 4096);
    let counters = pas2p_obs::global().snapshot().counters;
    assert_eq!(counters["mpisim.bytes_copied"], 4096);
}
