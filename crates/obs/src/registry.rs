//! Global metrics registry, stage profiler, and serializable snapshot.
//!
//! Metric collection is **disabled by default** (enable with
//! [`set_enabled`] or `PAS2P_OBS=1`). Hot call sites gate on
//! [`enabled()`] — one relaxed atomic load — and cache their
//! `Arc<Counter>`/`Arc<Histogram>` handles in `OnceLock` statics, so the
//! registry's `Mutex<BTreeMap>` is only touched on first registration
//! and at snapshot time. [`Registry::reset`] therefore zeroes metrics
//! *in place* rather than clearing the maps: cached handles must keep
//! pointing at live, registered instruments.
//!
//! A stage profile is recorded only by a finished [`StageGuard`]
//! ([`Registry::stage`]), the same guard that opens the stage's
//! `host.stage` timeline span, so every stage a snapshot lists is also
//! a span of a traced run. Entering the stage is the same boundary for
//! cancellation (`crate::cancel`): a stage is the one name shared by its
//! profile, its span and its `cancel.checkpoint_gap_us.<name>` histogram.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSummary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Process-wide instrument registry. Obtain it with [`global()`].
pub struct Registry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    stages: Mutex<Vec<StageProfile>>,
}

impl Registry {
    pub fn new(enabled: bool) -> Registry {
        Registry {
            enabled: AtomicBool::new(enabled),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            stages: Mutex::new(Vec::new()),
        }
    }

    fn from_env() -> Registry {
        let enabled = std::env::var("PAS2P_OBS")
            .map(|v| matches!(v.trim(), "1" | "true" | "on" | "yes"))
            .unwrap_or(false);
        Registry::new(enabled)
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Look up or create the named counter. Names should be
    /// `crate.metric` (e.g. `mpisim.messages`); they key the snapshot.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .unwrap()
                .entry(name)
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .unwrap()
                .entry(name)
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .unwrap()
                .entry(name)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Start timing a pipeline stage. The guard's `finish()` always
    /// returns the elapsed seconds (callers like `tfat_seconds` depend
    /// on it even with observability off); the profile is recorded into
    /// the registry only when enabled. When event tracing is on
    /// ([`crate::events::set_tracing`]) the guard additionally opens a
    /// `host.stage` timeline span, so every profiled stage shows up in
    /// the exported timeline with no extra call-site code.
    ///
    /// Entering a stage is also its cancellation boundary: on a thread
    /// running under a [`CancelToken`](crate::cancel::CancelToken) it is
    /// a checkpoint (an expired token unwinds here), and the gaps
    /// between checks from here on are recorded under
    /// `cancel.checkpoint_gap_us.<name>`.
    pub fn stage(&'static self, name: &'static str) -> StageGuard {
        crate::cancel::enter(name);
        let span = if crate::events::tracing_enabled() {
            Some(crate::events::trace_span("host.stage", name))
        } else {
            None
        };
        StageGuard {
            registry: self,
            name,
            start: Instant::now(),
            items: 0,
            span,
        }
    }

    /// Add one finished run of a stage to the aggregate kept under its
    /// name — one entry per name, and a name is a literal, so the list
    /// (a few dozen entries, scanned here) and every snapshot of it are
    /// bounded by the code, not by the uptime. Only
    /// [`StageGuard::finish`] ends here, so every stage in a snapshot
    /// also has its `host.stage` span in a traced timeline.
    fn record_stage(&self, name: &'static str, wall_seconds: f64, items: u64) {
        let mut stages = self.stages.lock().unwrap();
        let at = match stages.iter().position(|s| s.name == name) {
            Some(at) => at,
            None => {
                stages.push(StageProfile {
                    name: name.to_string(),
                    ..StageProfile::default()
                });
                stages.len() - 1
            }
        };
        let total = &mut stages[at];
        total.calls += 1;
        total.wall_seconds += wall_seconds;
        total.items += items;
        total.items_per_sec = if total.wall_seconds > 0.0 {
            total.items as f64 / total.wall_seconds
        } else {
            0.0
        };
    }

    /// Point-in-time copy of every registered instrument, in
    /// deterministic (name-sorted) order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: self.enabled(),
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.summary()))
                .collect(),
            stages: self.stages.lock().unwrap().clone(),
        }
    }

    /// Zero every instrument in place and clear recorded stages. Cached
    /// `Arc` handles held by hot call sites stay valid and registered.
    pub fn reset(&self) {
        for c in self.counters.lock().unwrap().values() {
            c.reset();
        }
        for g in self.gauges.lock().unwrap().values() {
            g.reset();
        }
        for h in self.histograms.lock().unwrap().values() {
            h.reset();
        }
        self.stages.lock().unwrap().clear();
    }
}

/// Wall-clock profile of one pipeline stage: the total over every run
/// of it since the registry was last reset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageProfile {
    pub name: String,
    /// Finished runs summed here (absent in snapshots written before
    /// the registry aggregated, which held one entry per run).
    #[serde(default)]
    pub calls: u64,
    pub wall_seconds: f64,
    pub items: u64,
    pub items_per_sec: f64,
}

/// Guard returned by [`stage()`]; see [`Registry::stage`].
pub struct StageGuard {
    registry: &'static Registry,
    name: &'static str,
    start: Instant,
    items: u64,
    span: Option<crate::events::EventSpan>,
}

impl StageGuard {
    /// Attach an item count (events processed, phases grown, ...) so the
    /// profile reports throughput alongside wall-clock.
    pub fn items(&mut self, n: u64) {
        self.items = n;
    }

    /// Stop the clock; returns elapsed seconds unconditionally and
    /// records a [`StageProfile`] when observability is enabled.
    pub fn finish(mut self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        if let Some(span) = self.span.take() {
            span.finish_with(vec![("items", self.items.to_string())]);
        }
        if self.registry.enabled() {
            self.registry.record_stage(self.name, wall, self.items);
        }
        wall
    }
}

/// Serializable point-in-time view of the registry, embedded into
/// `Analysis`/`Prediction` JSON and written by `pas2p-cli --metrics`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub enabled: bool,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
    pub stages: Vec<StageProfile>,
}

impl MetricsSnapshot {
    /// Human-readable rendering for the `pas2p-cli metrics` subcommand.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "metrics snapshot (collection {})\n",
            if self.enabled { "enabled" } else { "disabled" }
        ));
        if !self.stages.is_empty() {
            out.push_str("\nstages:\n");
            for s in &self.stages {
                out.push_str(&format!(
                    "  {:<24} {:>12.6}s  items={:<12} {:>14.1}/s  calls={}\n",
                    s.name, s.wall_seconds, s.items, s.items_per_sec, s.calls
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<40} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\ngauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<40} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\nhistograms:\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {:<40} count={} min={} max={} mean={:.1} p50={} p95={} p99={}\n",
                    k, h.count, h.min, h.max, h.mean, h.p50, h.p95, h.p99
                ));
            }
        }
        out
    }

    /// Prometheus text exposition format (`pas2p-cli metrics --format
    /// prom`), so the snapshot can be scraped or pushed without custom
    /// tooling: counters and gauges map directly, histograms become
    /// summaries (quantiles + `_sum`/`_count`), and stage profiles
    /// become `pas2p_stage_*{stage="…"}` gauges — one series per stage,
    /// as the registry keeps them.
    pub fn render_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 6);
            out.push_str("pas2p_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        fn label(value: &str) -> String {
            value
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = sanitize(k);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = sanitize(k);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let name = sanitize(k);
            let sum = h.mean * h.count as f64;
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{name}_sum {sum}\n{name}_count {}\n", h.count));
        }
        if !self.stages.is_empty() {
            out.push_str("# TYPE pas2p_stage_wall_seconds gauge\n");
            for s in &self.stages {
                out.push_str(&format!(
                    "pas2p_stage_wall_seconds{{stage=\"{}\"}} {}\n",
                    label(&s.name),
                    s.wall_seconds
                ));
            }
            out.push_str("# TYPE pas2p_stage_items gauge\n");
            for s in &self.stages {
                out.push_str(&format!(
                    "pas2p_stage_items{{stage=\"{}\"}} {}\n",
                    label(&s.name),
                    s.items
                ));
            }
        }
        out
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry (initialized from `PAS2P_OBS` on first use).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::from_env)
}

/// Is metric collection enabled? This is the hot-path gate: one
/// `OnceLock` read plus one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

pub fn counter(name: &'static str) -> Arc<Counter> {
    global().counter(name)
}

pub fn gauge(name: &'static str) -> Arc<Gauge> {
    global().gauge(name)
}

pub fn histogram(name: &'static str) -> Arc<Histogram> {
    global().histogram(name)
}

pub fn stage(name: &'static str) -> StageGuard {
    global().stage(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_snapshot_and_reset() {
        let _g = crate::events::test_guard();
        let reg = Box::leak(Box::new(Registry::new(true)));
        let c = reg.counter("t.count");
        c.add(7);
        reg.gauge("t.gauge").set(1.5);
        reg.histogram("t.hist").record(8);
        let mut g = reg.stage("t_stage");
        g.items(7);
        let wall = g.finish();
        assert!(wall >= 0.0);

        let snap = reg.snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.counters["t.count"], 7);
        assert_eq!(snap.gauges["t.gauge"], 1.5);
        assert_eq!(snap.histograms["t.hist"].count, 1);
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].name, "t_stage");
        assert_eq!(snap.stages[0].items, 7);

        reg.reset();
        // Handle obtained before the reset still points at the live,
        // registered counter.
        c.inc();
        let snap2 = reg.snapshot();
        assert_eq!(snap2.counters["t.count"], 1);
        assert_eq!(snap2.histograms["t.hist"].count, 0);
        assert!(snap2.stages.is_empty());
    }

    #[test]
    fn a_stage_is_one_entry_however_often_it_runs() {
        let _g = crate::events::test_guard();
        let reg = Box::leak(Box::new(Registry::new(true)));
        for _ in 0..10_000 {
            let mut g = reg.stage("hot");
            g.items(3);
            g.finish();
        }
        reg.stage("cold").finish();
        let stages = reg.snapshot().stages;
        assert_eq!(stages.len(), 2, "one entry per name, in first-seen order");
        assert_eq!((stages[0].name.as_str(), stages[0].calls), ("hot", 10_000));
        assert_eq!(stages[0].items, 30_000);
        assert_eq!(stages[0].items_per_sec, 30_000.0 / stages[0].wall_seconds);
        assert_eq!((stages[1].name.as_str(), stages[1].calls), ("cold", 1));
    }

    #[test]
    fn same_name_returns_same_instrument() {
        let reg = Registry::new(false);
        let a = reg.counter("dup");
        let b = reg.counter("dup");
        a.add(2);
        assert_eq!(b.get(), 2);
    }

    #[test]
    fn disabled_stage_still_times_but_records_nothing() {
        let _g = crate::events::test_guard();
        let reg = Box::leak(Box::new(Registry::new(false)));
        let wall = reg.stage("quiet").finish();
        assert!(wall >= 0.0);
        assert!(reg.snapshot().stages.is_empty());
    }

    #[test]
    fn snapshot_render_mentions_instruments() {
        let reg = Registry::new(true);
        reg.counter("render.count").add(3);
        reg.histogram("render.hist").record(10);
        let text = reg.snapshot().render();
        assert!(text.contains("render.count"));
        assert!(text.contains("render.hist"));
        assert!(text.contains("enabled"));
    }

    #[test]
    fn prometheus_exposition_covers_every_instrument_family() {
        let reg = Registry::new(true);
        reg.counter("prom.count").add(3);
        reg.gauge("prom.gauge").set(2.5);
        reg.histogram("prom.hist").record(100);
        reg.record_stage("prom_stage", 0.5, 10);
        reg.record_stage("prom_stage", 0.25, 5);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE pas2p_prom_count counter"));
        assert!(text.contains("pas2p_prom_count 3"));
        assert!(text.contains("# TYPE pas2p_prom_gauge gauge"));
        assert!(text.contains("pas2p_prom_gauge 2.5"));
        assert!(text.contains("# TYPE pas2p_prom_hist summary"));
        assert!(text.contains("pas2p_prom_hist{quantile=\"0.5\"}"));
        assert!(text.contains("pas2p_prom_hist_count 1"));
        // Two runs of one stage are one series.
        assert_eq!(
            text.matches("pas2p_stage_wall_seconds{stage=\"prom_stage\"}")
                .count(),
            1
        );
        assert!(text.contains("pas2p_stage_wall_seconds{stage=\"prom_stage\"} 0.75"));
        assert!(text.contains("pas2p_stage_items{stage=\"prom_stage\"} 15"));
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let reg = Registry::new(true);
        reg.counter("s.count").add(9);
        reg.gauge("s.gauge").set(0.25);
        reg.histogram("s.hist").record(100);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
