//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// two nearest ranks; `samples` must be sorted and non-empty.
pub fn quantile_sorted(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Sort in place (NaN-free input) and return the median.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    quantile_sorted(samples, 0.5)
}

/// Tail percentiles a report may use, highest first, each with the
/// share of samples beyond it as "one in".
const TAILS: [(f64, &str, usize); 4] = [
    (0.999, "p99.9", 1000),
    (0.99, "p99", 100),
    (0.9, "p90", 10),
    (0.75, "p75", 4),
];

/// The highest percentile that still has at least ten samples beyond
/// it, or `None` when even p75 has fewer (then only the median is
/// reported).
pub fn highest_supported_tail(samples: usize) -> Option<(f64, &'static str)> {
    TAILS
        .into_iter()
        .find(|(_, _, one_in)| samples / one_in >= 10)
        .map(|(q, label, _)| (q, label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(8), None, "8 samples: median only");
        assert_eq!(highest_supported_tail(39), None);
        assert_eq!(highest_supported_tail(40).map(|t| t.1), Some("p75"));
        assert_eq!(highest_supported_tail(99).map(|t| t.1), Some("p75"));
        assert_eq!(highest_supported_tail(100).map(|t| t.1), Some("p90"));
        assert_eq!(highest_supported_tail(176).map(|t| t.1), Some("p90"));
        assert_eq!(highest_supported_tail(1_000).map(|t| t.1), Some("p99"));
        assert_eq!(highest_supported_tail(9_999).map(|t| t.1), Some("p99"));
        assert_eq!(highest_supported_tail(10_000).map(|t| t.1), Some("p99.9"));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
    }
}
