//! Lock-free instruments, each a named `static` carrying its own gate:
//! while collection is off ([`crate::enabled`]) a record returns after
//! one relaxed load; on, the first record lists the instrument in the
//! registry, and every record is plain atomics. Histogram percentiles
//! are power-of-two bucket midpoints clamped to the exact `[min, max]`.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// List an instrument in the registry on its first record.
fn list_once(listed: &AtomicBool, instrument: impl FnOnce() -> Instrument) {
    if !listed.load(Ordering::Relaxed) {
        crate::registry::global().list(listed, instrument());
    }
}

/// Monotonic event counter.
pub struct Counter {
    name: &'static str,
    listed: AtomicBool,
    value: AtomicU64,
}

impl Counter {
    /// A counter reported under `name` (`crate.metric`, e.g.
    /// `mpisim.messages`), which keys the snapshot.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            listed: AtomicBool::new(false),
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        list_once(&self.listed, || Instrument::Counter(self));
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge (stored as f64 bit patterns).
pub struct Gauge {
    name: &'static str,
    listed: AtomicBool,
    bits: AtomicU64,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            listed: AtomicBool::new(false),
            bits: AtomicU64::new(0),
        }
    }

    pub fn set(&'static self, v: f64) {
        if !crate::enabled() {
            return;
        }
        list_once(&self.listed, || Instrument::Gauge(self));
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `b` (1..=64)
/// holds values whose highest set bit is `b-1`, i.e. `[2^(b-1), 2^b)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Midpoint of a bucket's value range, used to reconstruct percentiles.
fn bucket_midpoint(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        let lo = 1u64 << (b - 1);
        lo + lo / 2
    }
}

/// Streaming histogram over `u64` samples with exact count/sum/min/max
/// and approximate (log₂-bucketed) percentiles.
pub struct Histogram {
    name: &'static str,
    listed: AtomicBool,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            listed: AtomicBool::new(false),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    #[inline]
    pub fn record(&'static self, v: u64) {
        if !crate::enabled() {
            return;
        }
        list_once(&self.listed, || Instrument::Histogram(self));
        self.sample(v);
    }

    /// Add one sample, ungated.
    fn sample(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Percentile estimate for `q` in `[0, 1]`: the midpoint of the
    /// bucket containing the q-th sample, clamped to the exact observed
    /// `[min, max]`. Returns 0 when empty.
    fn percentile(&self, q: f64, count: u64, min: u64, max: u64) -> u64 {
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (b, slot) in self.buckets.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_midpoint(b).clamp(min, max);
            }
        }
        max
    }

    pub fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramSummary::default();
        }
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum,
            min,
            max,
            mean: sum as f64 / count as f64,
            p50: self.percentile(0.50, count, min, max),
            p95: self.percentile(0.95, count, min, max),
            p99: self.percentile(0.99, count, min, max),
        }
    }
}

/// A recorded instrument, as the registry lists it.
#[derive(Clone, Copy)]
pub(crate) enum Instrument {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Instrument {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Instrument::Counter(c) => c.name,
            Instrument::Gauge(g) => g.name,
            Instrument::Histogram(h) => h.name,
        }
    }

    /// Zero the instrument in place; it stays listed.
    pub(crate) fn reset(self) {
        match self {
            Instrument::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Instrument::Gauge(g) => g.bits.store(0, Ordering::Relaxed),
            Instrument::Histogram(h) => h.reset(),
        }
    }
}

/// Point-in-time summary of a [`Histogram`], as embedded in
/// [`crate::MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Off, a record is one load and registers nothing; on, the first
    /// record registers the instrument and every record counts.
    #[test]
    fn counter_and_gauge_basics() {
        static COUNT: Counter = Counter::new("t.basics.count");
        static GAUGE: Gauge = Gauge::new("t.basics.gauge");
        static HIST: Histogram = Histogram::new("t.basics.hist");
        let _g = crate::events::test_guard();
        crate::set_enabled(false);
        COUNT.add(5);
        GAUGE.set(2.5);
        HIST.record(3);
        assert_eq!(
            (COUNT.get(), GAUGE.get(), HIST.summary().count),
            (0, 0.0, 0)
        );
        let snap = crate::global().snapshot();
        assert!(!snap.counters.contains_key("t.basics.count"));
        assert!(!snap.gauges.contains_key("t.basics.gauge"));
        assert!(!snap.histograms.contains_key("t.basics.hist"));

        crate::set_enabled(true);
        COUNT.inc();
        COUNT.add(4);
        GAUGE.set(-1.0);
        HIST.record(3);
        let snap = crate::global().snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.counters["t.basics.count"], 5);
        assert_eq!(snap.gauges["t.basics.gauge"], -1.0);
        assert_eq!(snap.histograms["t.basics.hist"].sum, 3);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_midpoint(0), 0);
        assert_eq!(bucket_midpoint(1), 1);
        assert_eq!(bucket_midpoint(3), 6);
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let h = Histogram::new("t.hist");
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn single_value_summary() {
        let h = Histogram::new("t.hist");
        h.sample(42);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 42);
        assert_eq!(s.min, 42);
        assert_eq!(s.max, 42);
        assert_eq!(s.mean, 42.0);
        // A lone sample pins every percentile to it via the clamp.
        assert_eq!(s.p50, 42);
        assert_eq!(s.p99, 42);
    }

    #[test]
    fn all_zero_samples() {
        let h = Histogram::new("t.hist");
        for _ in 0..10 {
            h.sample(0);
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert_eq!((s.min, s.max, s.p50, s.p95, s.p99), (0, 0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let h = Histogram::new("t.hist");
        for v in 1..=1000u64 {
            h.sample(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p50 >= s.min && s.p99 <= s.max);
        // p50 of 1..=1000 must land in the bucket containing 500.
        assert!(s.p50 >= 256 && s.p50 < 1000);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new("t.hist");
        h.sample(7);
        h.reset();
        assert_eq!(h.summary(), HistogramSummary::default());
        h.sample(3);
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max), (1, 3, 3));
    }
}
