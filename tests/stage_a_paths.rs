//! Stage A has one body (`Pas2p::stage_a`, `crates/core/src/pipeline.rs`)
//! behind its two sources of a trace. What licenses that: a trace this
//! process just recorded and the same trace encoded and decoded back
//! say the same about the run — size, events, elapsed time, machine —
//! so the live path and the byte path produce the same analysis.

use pas2p::Pas2p;
use pas2p_apps::CATALOG;
use pas2p_machine::{cluster_a, MappingPolicy};
use pas2p_trace::format::encode;

#[test]
fn live_and_byte_paths_agree_over_the_catalog() {
    let pas2p = Pas2p::default();
    let base = cluster_a();
    for name in CATALOG {
        for nprocs in [4u32, 8] {
            let app = pas2p_apps::by_name(name, nprocs).expect("catalog app");
            let (live, trace, _logical) =
                pas2p.analyze_full(app.as_ref(), &base, MappingPolicy::Block);
            let bytes = pas2p
                .analyze_bytes(&live.app_name, &live.workload, &encode(&trace))
                .unwrap_or_else(|e| panic!("{name}/{nprocs}: {e}"));
            let at = format!("{name}/{nprocs}");
            assert_eq!(live.analysis.phases, bytes.analysis.phases, "{at}: phases");
            assert_eq!(live.table, bytes.table, "{at}: phase table");
            assert_eq!(live.trace_bytes, bytes.trace_bytes, "{at}: trace_bytes");
            assert_eq!(live.trace_events, bytes.trace_events, "{at}: trace_events");
            assert_eq!(
                live.aet_instrumented.to_bits(),
                bytes.aet_instrumented.to_bits(),
                "{at}: aet_instrumented"
            );
            assert_eq!(live.confidence, bytes.confidence, "{at}: confidence");
            assert_eq!(live.base_machine, bytes.base_machine, "{at}: base_machine");
            assert_eq!(live.nprocs, bytes.nprocs, "{at}: nprocs");
            // The one thing the sources differ in: the byte path went
            // through the decoder and says what it did.
            assert!(live.ingest.is_none() && bytes.ingest.is_some(), "{at}");
        }
    }
}
