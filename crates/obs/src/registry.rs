//! The global registry, stage profiler, and serializable snapshot.
//!
//! The registry lists every instrument (`crate::metrics`) recorded
//! while collection was on, each added by its own first record, so its
//! mutex is taken once per instrument and at snapshot time;
//! [`Registry::reset`] zeroes them in place. A stage profile is
//! recorded only by a finished [`StageGuard`] ([`stage`]), the guard
//! that also opens the stage's `host.stage` timeline span; entering a
//! stage is its cancellation boundary (`crate::cancel`), so a stage's
//! profile, span and `cancel.checkpoint_gap_us.<name>` share one name.

use crate::metrics::{HistogramSummary, Instrument};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The process-wide registry. Obtain it with [`global()`].
pub struct Registry {
    instruments: Mutex<Vec<Instrument>>,
    stages: Mutex<Vec<StageProfile>>,
}

/// Whether collection is on (`ON`) or off (0); `UNSET` until first
/// read, which takes it from `PAS2P_OBS`.
static ENABLED: AtomicU8 = AtomicU8::new(UNSET);
const ON: u8 = 1;
const UNSET: u8 = 2;

#[cold]
fn enabled_from_env() -> bool {
    let on =
        std::env::var("PAS2P_OBS").is_ok_and(|v| matches!(v.trim(), "1" | "true" | "on" | "yes"));
    // An explicit `set_enabled` that raced this read wins.
    let _ = ENABLED.compare_exchange(UNSET, on as u8, Ordering::Relaxed, Ordering::Relaxed);
    ENABLED.load(Ordering::Relaxed) == ON
}

impl Registry {
    /// List `instrument` once, under the lock, unless its `listed` flag
    /// is set.
    #[cold]
    pub(crate) fn list(&self, listed: &AtomicBool, instrument: Instrument) {
        let mut instruments = self.instruments.lock().unwrap();
        if !listed.swap(true, Ordering::Relaxed) {
            instruments.push(instrument);
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
    /// deterministic (name-sorted) order. A name is one instrument; a
    /// second one is a bug.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            enabled: enabled(),
            stages: self.stages.lock().unwrap().clone(),
            ..MetricsSnapshot::default()
        };
        let instruments = self.instruments.lock().unwrap().clone();
        for instrument in instruments {
            let name = instrument.name();
            let fresh = match instrument {
                Instrument::Counter(c) => snap.counters.insert(name.into(), c.get()).is_none(),
                Instrument::Gauge(g) => snap.gauges.insert(name.into(), g.get()).is_none(),
                Instrument::Histogram(h) => {
                    snap.histograms.insert(name.into(), h.summary()).is_none()
                }
            };
            debug_assert!(fresh, "two instruments are named {name}");
        }
        snap
    }

    /// Zero every registered instrument in place and clear recorded
    /// stages; the instruments stay registered.
    pub fn reset(&self) {
        for instrument in self.instruments.lock().unwrap().iter() {
            instrument.reset();
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

/// Guard returned by [`stage()`].
pub struct StageGuard {
    name: &'static str,
    start: Instant,
    items: u64,
    span: crate::events::EventSpan,
}

impl StageGuard {
    /// Attach an item count (events processed, phases grown, ...) so the
    /// profile reports throughput alongside wall-clock.
    pub fn items(&mut self, n: u64) {
        self.items = n;
    }

    /// Stop the clock; returns elapsed seconds unconditionally and
    /// records a [`StageProfile`] when observability is enabled.
    pub fn finish(self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        self.span
            .finish_with(|| vec![("items", self.items.to_string())]);
        if enabled() {
            global().record_stage(self.name, wall, self.items);
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
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
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

static GLOBAL: Registry = Registry {
    instruments: Mutex::new(Vec::new()),
    stages: Mutex::new(Vec::new()),
};

/// The process-wide registry.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Is metric collection enabled? One relaxed atomic load (the first
/// call reads `PAS2P_OBS`). Every instrument asks it itself.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        UNSET => enabled_from_env(),
        state => state == ON,
    }
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on as u8, Ordering::Relaxed);
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
pub fn stage(name: &'static str) -> StageGuard {
    crate::cancel::enter(name);
    StageGuard {
        name,
        start: Instant::now(),
        items: 0,
        span: crate::events::trace_span("host.stage", name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Histogram};

    static COUNT: Counter = Counter::new("t.count");
    static GAUGE: Gauge = Gauge::new("t.gauge");
    static HIST: Histogram = Histogram::new("t.hist");

    /// Run `f` with collection on, serialized with every other test of
    /// the crate that touches the global switch, registry or sink.
    fn collecting<T>(f: impl FnOnce() -> T) -> T {
        let _g = crate::events::test_guard();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn registry_snapshot_and_reset() {
        let (snap, snap2) = collecting(|| {
            global().reset();
            COUNT.add(7);
            GAUGE.set(1.5);
            HIST.record(8);
            let mut g = stage("t_stage");
            g.items(7);
            assert!(g.finish() >= 0.0);
            let snap = global().snapshot();
            global().reset();
            // The reset instrument stays registered and counts on.
            COUNT.inc();
            (snap, global().snapshot())
        });
        assert!(snap.enabled);
        assert_eq!(snap.counters["t.count"], 7);
        assert_eq!(snap.gauges["t.gauge"], 1.5);
        assert_eq!(snap.histograms["t.hist"].count, 1);
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].name, "t_stage");
        assert_eq!(snap.stages[0].items, 7);

        assert_eq!(snap2.counters["t.count"], 1);
        assert_eq!(snap2.histograms["t.hist"].count, 0);
        assert!(snap2.stages.is_empty());
    }

    #[test]
    fn a_stage_is_one_entry_however_often_it_runs() {
        let stages = collecting(|| {
            global().reset();
            for _ in 0..10_000 {
                let mut g = stage("hot");
                g.items(3);
                g.finish();
            }
            stage("cold").finish();
            global().snapshot().stages
        });
        assert_eq!(stages.len(), 2, "one entry per name, in first-seen order");
        assert_eq!((stages[0].name.as_str(), stages[0].calls), ("hot", 10_000));
        assert_eq!(stages[0].items, 30_000);
        assert_eq!(stages[0].items_per_sec, 30_000.0 / stages[0].wall_seconds);
        assert_eq!((stages[1].name.as_str(), stages[1].calls), ("cold", 1));
    }

    #[test]
    fn disabled_stage_still_times_but_records_nothing() {
        let _g = crate::events::test_guard();
        set_enabled(false);
        let wall = stage("quiet").finish();
        assert!(wall >= 0.0);
        assert!(global().snapshot().stages.iter().all(|s| s.name != "quiet"));
    }

    #[test]
    fn snapshot_render_mentions_instruments() {
        static RENDERED: Counter = Counter::new("render.count");
        let text = collecting(|| {
            RENDERED.add(3);
            HIST.record(10);
            global().snapshot().render()
        });
        assert!(text.contains("render.count"));
        assert!(text.contains("t.hist"));
        assert!(text.contains("enabled"));
    }

    /// A summary's `_sum` is the exact sum of its samples: 29 over seven
    /// samples, which `mean * count` would print as 29.000000000000004.
    #[test]
    fn prometheus_exposition_covers_every_instrument_family() {
        static PROM_COUNT: Counter = Counter::new("prom.count");
        static PROM_GAUGE: Gauge = Gauge::new("prom.gauge");
        static PROM_HIST: Histogram = Histogram::new("prom.hist");
        static PROM_SUM: Histogram = Histogram::new("prom.sum");
        let text = collecting(|| {
            global().reset();
            PROM_COUNT.add(3);
            PROM_GAUGE.set(2.5);
            PROM_HIST.record(100);
            for v in [1, 2, 3, 4, 5, 6, 8] {
                PROM_SUM.record(v);
            }
            global().record_stage("prom_stage", 0.5, 10);
            global().record_stage("prom_stage", 0.25, 5);
            global().snapshot().render_prometheus()
        });
        assert!(text.contains("# TYPE pas2p_prom_count counter"));
        assert!(text.contains("pas2p_prom_count 3"));
        assert!(text.contains("# TYPE pas2p_prom_gauge gauge"));
        assert!(text.contains("pas2p_prom_gauge 2.5"));
        assert!(text.contains("# TYPE pas2p_prom_hist summary"));
        assert!(text.contains("pas2p_prom_hist{quantile=\"0.5\"}"));
        assert!(text.contains("pas2p_prom_hist_count 1"));
        assert!(text.contains("pas2p_prom_sum_sum 29\n"), "{text}");
        assert!(text.contains("pas2p_prom_sum_count 7\n"));
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
        let snap = collecting(|| {
            COUNT.add(9);
            GAUGE.set(0.25);
            HIST.record(100);
            global().snapshot()
        });
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
