//! The metric catalogue: the names and units `BENCHMARK.json` lists,
//! kept here so a run can refuse to report a different set.

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("latency_ms", "ms")];

/// Per-layer metrics, reported by the traced pass: name, unit, and
/// whether the figure is a count that must repeat bit-for-bit between
/// runs of one seed. The prefix is the crate or module it belongs to.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("batch.jobs_ok", "count", true),
    ("batch.par_speedup", "x", false),
    ("batch.run_ms_w1", "ms", false),
    ("batch.run_ms_wN", "ms", false),
    ("check.diagnostics", "count", true),
    ("check.par_speedup", "x", false),
    ("check.run_ms", "ms", false),
    ("model.events_per_s", "1/s", false),
    ("model.order_ms", "ms", false),
    ("model.ticks", "count", true),
    ("mpisim.bytes", "count", true),
    ("mpisim.messages", "count", true),
    ("mpisim.rank_threads", "count", true),
    ("mpisim.run_plain_ms", "ms", false),
    ("obs.enabled_overhead_pct", "%", false),
    ("phases.band_rejects", "count", true),
    ("phases.extract_ms", "ms", false),
    ("phases.full_compares", "count", true),
    ("phases.lsh_skipped", "count", true),
    ("phases.occurrences", "count", true),
    ("phases.table_ms", "ms", false),
    ("phases.unique", "count", true),
    ("phases.useful_compare_ratio", "ratio", true),
    ("pipeline.analyze_bytes_ms", "ms", false),
    ("pipeline.analyze_full_ms", "ms", false),
    ("pipeline.step_coverage_pct", "%", false),
    ("server.connect_ms", "ms", false),
    ("server.cpu_ms_per_op", "ms", false),
    ("server.dispatch_us", "us", false),
    ("server.peak_rss_mb", "MB", false),
    ("server.ping_rtt_us", "us", false),
    ("server.predict_warm_ops_per_s", "1/s", false),
    ("server.predict_warm_p999_ms", "ms", false),
    ("server.warm_interference_us", "us", false),
    ("service.deadline_hop_us", "us", false),
    ("service.fingerprint_us", "us", false),
    ("service.handle_warm_us", "us", false),
    ("service.parse_us", "us", false),
    ("service.render_us", "us", false),
    ("service.submit_inproc_ms", "ms", false),
    ("signature.checkpoint_bytes", "count", true),
    ("signature.checkpoints", "count", true),
    ("signature.construct_ms", "ms", false),
    ("signature.execute_ms", "ms", false),
    ("signature.pete_max_pct", "%", true),
    ("signature.phase_measurements", "count", true),
    ("store.bytes_per_entry", "B", true),
    ("store.bytes_written_per_put", "B", true),
    ("store.fsyncs_per_put", "count", true),
    ("store.get_prediction_us", "us", false),
    ("store.get_signature_ms", "ms", false),
    ("store.key_mb_per_s", "MB/s", false),
    ("store.key_ms", "ms", false),
    ("store.open_ms_at_1024", "ms", false),
    ("store.put_ms_at_1024", "ms", false),
    ("store.put_prediction_ms", "ms", false),
    ("store.put_signature_ms", "ms", false),
    ("store.reads_per_get", "count", true),
    ("trace.decode_ms", "ms", false),
    ("trace.encode_mb_per_s", "MB/s", false),
    ("trace.encode_ms", "ms", false),
    ("trace.encoded_bytes", "count", true),
    ("trace.events", "count", true),
    ("trace.record_overhead_ms", "ms", false),
    ("trace_overhead_pct", "%", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn listed(spec: &Value, section: &str) -> Vec<(String, String)> {
        spec[section]
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let spec: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let own = |entries: &[(&str, &str)]| -> Vec<(String, String)> {
            entries
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&spec, "end_to_end"), own(END_TO_END));
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(listed(&spec, "per_layer"), own(&per_layer));
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, crate::workload::WORKLOADS);
        assert_eq!(spec["paths"], serde_json::json!(["benchmark"]));
    }

    #[test]
    fn names_fit_the_contract() {
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        for (name, unit) in END_TO_END.iter().chain(&per_layer) {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END.iter().chain(&per_layer).map(|e| e.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used once"
        );
    }
}
