//! Event signatures and the similarity criterion.

use pas2p_model::LogicalEvent;
use pas2p_trace::EventKind;
use serde::{Deserialize, Serialize};

/// The behavioural signature of one event cell in a phase pattern: what
/// PBB comparison looks at (paper §3.3 step 5b).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellSig {
    /// Communication type.
    pub kind: EventKind,
    /// Peer expressed as a rank *offset* (`peer − process`, wrapped), so
    /// that the same stencil exchanged by different ranks compares equal
    /// and the signature survives re-mapping.
    pub peer_offset: Option<i64>,
    /// Communication volume in bytes.
    pub size: u64,
    /// Computational time preceding the event (the PBB body), seconds on
    /// the base machine.
    pub compute_before: f64,
}

impl CellSig {
    /// Build the signature of a logical event.
    pub fn of(e: &LogicalEvent, nprocs: u32) -> CellSig {
        let peer_offset = e.peer.map(|p| {
            let n = nprocs as i64;
            let d = p as i64 - e.process as i64;
            d.rem_euclid(n)
        });
        CellSig {
            kind: e.kind,
            peer_offset,
            size: e.size,
            compute_before: e.compute_before,
        }
    }

    /// The *repetition key*: what "an event with the same type of
    /// communication" means for the phase-cutting rule (step 3/4). Volume
    /// is included so that, e.g., a boundary exchange and a bulk transpose
    /// to the same peer do not cut each other.
    pub fn repetition_key(&self) -> (EventKind, Option<i64>, u64) {
        (self.kind, self.peer_offset, self.size)
    }
}

/// Which implementation of the similarity criterion the merge loop of
/// `extract_phases` runs. Both produce byte-identical output — the
/// scalar walk is retained as the differential oracle the SoA kernel is
/// tested against (`tests/kernel_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum SimilarityKernel {
    /// The reference cell-by-cell walk over `Vec<Vec<Option<CellSig>>>`
    /// patterns — slow, obviously correct, kept as the oracle.
    Scalar,
    /// Structure-of-arrays columns with banded prefilters and tick-count
    /// bucketing (`crate::soa`) — the production kernel.
    #[default]
    Soa,
}

/// Thresholds of the similarity criterion.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SimilarityConfig {
    /// Two compute times are similar when `min/max ≥ compute_ratio`
    /// (paper: 85 %).
    pub compute_ratio: f64,
    /// Two volumes are similar when `min/max ≥ size_ratio`.
    pub size_ratio: f64,
    /// A phase is similar when at least this fraction of its events are
    /// similar (paper: 80 %, configurable).
    pub event_fraction: f64,
    /// Compute times below this floor (seconds) are treated as equal —
    /// they are noise, not PBB bodies.
    pub compute_floor: f64,
    /// Accepted and ignored: `extract_phases` matches candidates on the
    /// calling thread at every setting (splitting the scan across
    /// workers never beat the inline scan, EXPERIMENTS.md "PR 14"). The
    /// field stays so callers and serialized configs that set it keep
    /// working; it is excluded from the store fingerprint.
    #[serde(default)]
    pub parallelism: Option<usize>,
    /// Similarity-kernel implementation the merge loop runs. Excluded
    /// from the signature-store fingerprint (like `parallelism`): both
    /// kernels produce byte-identical output.
    #[serde(default)]
    pub kernel: SimilarityKernel,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            compute_ratio: 0.85,
            size_ratio: 0.85,
            event_fraction: 0.80,
            compute_floor: 1e-7,
            parallelism: None,
            kernel: SimilarityKernel::default(),
        }
    }
}

impl SimilarityConfig {
    pub(crate) fn ratio_similar(a: f64, b: f64, threshold: f64, floor: f64) -> bool {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if hi <= floor {
            return true;
        }
        lo / hi >= threshold
    }

    /// Integer volume similarity: `min/max ≥ threshold`, computed exactly.
    ///
    /// Volumes are `u64`, and `a.size as f64` is lossy above 2^53 — two
    /// sizes differing by a few bytes rounded to the *same* f64 and always
    /// compared similar. Equality is checked on the integers first (this
    /// also makes two zero-size events similar by identity instead of via
    /// the compute-noise floor, which has no meaning for byte counts); the
    /// sub-2^53 range keeps the historical f64 division bit-for-bit; above
    /// it the ratio test runs as an exact u128 cross-multiplication
    /// against the threshold's own binary representation m·2⁻ˢ.
    pub(crate) fn size_similar(a: u64, b: u64, threshold: f64) -> bool {
        if a == b {
            return true;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if threshold.is_nan() || threshold <= 0.0 {
            // Degenerate configs (0, negative, NaN) accept every pair,
            // matching the f64 path where lo/hi >= threshold always held.
            return true;
        }
        if threshold > 1.0 || lo == 0 {
            // lo < hi can never reach a ratio of 1, let alone above it.
            return false;
        }
        if hi < (1u64 << 53) {
            // Both sizes exact in f64: identical to the historical path.
            return lo as f64 / hi as f64 >= threshold;
        }
        // threshold = m · 2⁻ˢ with integer m < 2^53; for thresholds in
        // (0, 1], s ∈ [52, 1074]. Then lo/hi ≥ m·2⁻ˢ ⟺ lo·2ˢ ≥ m·hi,
        // decided exactly in u128 (m·hi < 2^117 always fits).
        let bits = threshold.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (m, s) = if exp == 0 {
            (frac, 1074u32)
        } else {
            (frac | (1u64 << 52), (1075 - exp) as u32)
        };
        let rhs = (m as u128) * (hi as u128);
        if s >= 118 {
            return true; // lo·2ˢ ≥ 2^118 > 2^117 > m·hi
        }
        let lo = lo as u128;
        if lo > (u128::MAX >> s) {
            return true; // lo·2ˢ overflows u128, so it exceeds m·hi
        }
        (lo << s) >= rhs
    }

    /// Event-pair similarity (step 5b): same communication type and
    /// similar volume, plus similar preceding compute time. An absent cell
    /// ("0" communication) is similar to anything (step 5b, third rule).
    pub fn cells_similar(&self, a: Option<&CellSig>, b: Option<&CellSig>) -> bool {
        match (a, b) {
            (None, _) | (_, None) => true,
            (Some(a), Some(b)) => {
                a.kind == b.kind
                    && a.peer_offset == b.peer_offset
                    && Self::size_similar(a.size, b.size, self.size_ratio)
                    && Self::ratio_similar(
                        a.compute_before,
                        b.compute_before,
                        self.compute_ratio,
                        self.compute_floor,
                    )
            }
        }
    }

    /// `(similar, total)` cell counts behind [`Self::phases_similar`],
    /// or `None` when the tick counts differ (the hard length gate).
    /// Exposed so the SoA kernel can be differential-tested against the
    /// exact counts, not just the boolean verdict.
    pub fn phase_similarity_score(
        &self,
        a: &[Vec<Option<CellSig>>],
        b: &[Vec<Option<CellSig>>],
    ) -> Option<(u64, u64)> {
        if a.len() != b.len() {
            return None;
        }
        let mut total = 0u64;
        let mut similar = 0u64;
        for (ra, rb) in a.iter().zip(b) {
            debug_assert_eq!(ra.len(), rb.len());
            for (ca, cb) in ra.iter().zip(rb) {
                if ca.is_none() && cb.is_none() {
                    continue; // empty cells on both sides are not events
                }
                total += 1;
                if self.cells_similar(ca.as_ref(), cb.as_ref()) {
                    similar += 1;
                }
            }
        }
        Some((similar, total))
    }

    /// Phase-level similarity (steps 5a + 5c): equal tick counts, and the
    /// fraction of similar event cells reaches `event_fraction`. Patterns
    /// are `[tick][process]` matrices.
    pub fn phases_similar(&self, a: &[Vec<Option<CellSig>>], b: &[Vec<Option<CellSig>>]) -> bool {
        match self.phase_similarity_score(a, b) {
            None => false,
            Some((_, 0)) => true, // two all-empty patterns of the same length
            Some((similar, total)) => similar as f64 / total as f64 >= self.event_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(kind: EventKind, peer: Option<i64>, size: u64, compute: f64) -> CellSig {
        CellSig {
            kind,
            peer_offset: peer,
            size,
            compute_before: compute,
        }
    }

    #[test]
    fn peer_offset_is_mapping_independent() {
        let mk = |process: u32, peer: u32| LogicalEvent {
            process,
            number: 0,
            kind: EventKind::Send,
            peer: Some(peer),
            size: 8,
            involved: 1,
            msg_id: 1,
            comm_id: 0,
            compute_before: 0.0,
            duration: 0.0,
            t_post: 0.0,
            t_complete: 0.0,
        };
        // rank 0 → 1 and rank 3 → 0 are both "next neighbour" in a ring of 4.
        assert_eq!(
            CellSig::of(&mk(0, 1), 4).peer_offset,
            CellSig::of(&mk(3, 0), 4).peer_offset
        );
    }

    #[test]
    fn identical_cells_are_similar() {
        let cfg = SimilarityConfig::default();
        let a = sig(EventKind::Send, Some(1), 100, 1.0);
        assert!(cfg.cells_similar(Some(&a), Some(&a)));
    }

    #[test]
    fn different_kind_is_dissimilar() {
        let cfg = SimilarityConfig::default();
        let a = sig(EventKind::Send, Some(1), 100, 1.0);
        let b = sig(EventKind::Recv, Some(1), 100, 1.0);
        assert!(!cfg.cells_similar(Some(&a), Some(&b)));
    }

    #[test]
    fn compute_time_within_85_percent_is_similar() {
        let cfg = SimilarityConfig::default();
        let a = sig(EventKind::Send, Some(1), 100, 1.0);
        let close = sig(EventKind::Send, Some(1), 100, 0.90);
        let far = sig(EventKind::Send, Some(1), 100, 0.5);
        assert!(cfg.cells_similar(Some(&a), Some(&close)));
        assert!(!cfg.cells_similar(Some(&a), Some(&far)));
    }

    #[test]
    fn absent_cell_is_similar_to_anything() {
        let cfg = SimilarityConfig::default();
        let a = sig(EventKind::Send, Some(1), 100, 1.0);
        assert!(cfg.cells_similar(None, Some(&a)));
        assert!(cfg.cells_similar(Some(&a), None));
        assert!(cfg.cells_similar(None, None));
    }

    #[test]
    fn tiny_compute_times_are_noise() {
        let cfg = SimilarityConfig::default();
        let a = sig(EventKind::Send, Some(1), 100, 1e-9);
        let b = sig(EventKind::Send, Some(1), 100, 5e-8);
        assert!(cfg.cells_similar(Some(&a), Some(&b)));
    }

    #[test]
    fn phase_similarity_requires_equal_length() {
        let cfg = SimilarityConfig::default();
        let row = vec![Some(sig(EventKind::Send, Some(1), 8, 0.1))];
        assert!(!cfg.phases_similar(std::slice::from_ref(&row), &[row.clone(), row.clone()]));
    }

    #[test]
    fn phase_similarity_counts_event_fraction() {
        let cfg = SimilarityConfig::default();
        let s = |c: f64| Some(sig(EventKind::Send, Some(1), 8, c));
        // 10 cells; 8 equal + 2 wildly different = 80% similar → similar.
        let a: Vec<Vec<Option<CellSig>>> = vec![(0..10).map(|_| s(1.0)).collect()];
        let mut b = a.clone();
        b[0][0] = s(100.0);
        b[0][1] = s(100.0);
        assert!(cfg.phases_similar(&a, &b));
        // 3 different of 10 = 70% similar → not similar.
        b[0][2] = s(100.0);
        assert!(!cfg.phases_similar(&a, &b));
    }

    #[test]
    fn zero_sizes_are_similar_by_identity() {
        let cfg = SimilarityConfig::default();
        let a = sig(EventKind::Send, Some(1), 0, 1.0);
        let b = sig(EventKind::Send, Some(1), 0, 1.0);
        assert!(cfg.cells_similar(Some(&a), Some(&b)));
        // A zero-size against a nonzero size is ratio 0: dissimilar. The
        // old 0.5-floor path happened to agree for size 1 but for the
        // wrong reason; pin the exact-comparison behaviour.
        let c = sig(EventKind::Send, Some(1), 1, 1.0);
        assert!(!cfg.cells_similar(Some(&a), Some(&c)));
    }

    #[test]
    fn u64_max_sizes_compare_exactly() {
        let cfg = SimilarityConfig::default();
        let a = sig(EventKind::Send, Some(1), u64::MAX, 1.0);
        assert!(cfg.cells_similar(Some(&a), Some(&a)));
        // Adjacent huge sizes are within any ratio threshold < 1.
        let b = sig(EventKind::Send, Some(1), u64::MAX - 1, 1.0);
        assert!(cfg.cells_similar(Some(&a), Some(&b)));
        // But a strict threshold of 1.0 must reject them: as f64 both
        // sizes round to the same value and the lossy path said similar.
        let strict = SimilarityConfig {
            size_ratio: 1.0,
            ..SimilarityConfig::default()
        };
        assert!(!strict.cells_similar(Some(&a), Some(&b)));
        assert!(strict.cells_similar(Some(&a), Some(&a)));
    }

    #[test]
    fn sizes_above_2_pow_53_keep_precision() {
        // 2^60 and 2^60 + 1 are indistinguishable in f64.
        let strict = SimilarityConfig {
            size_ratio: 1.0,
            ..SimilarityConfig::default()
        };
        let a = sig(EventKind::Send, Some(1), 1u64 << 60, 1.0);
        let b = sig(EventKind::Send, Some(1), (1u64 << 60) + 1, 1.0);
        assert!(!strict.cells_similar(Some(&a), Some(&b)));
        // At the default 85% threshold the exact path still admits a
        // genuine near-ratio (8/9 ≈ 0.889) and rejects a far one (1/2).
        let cfg = SimilarityConfig::default();
        let near = sig(EventKind::Send, Some(1), (1u64 << 60) + (1u64 << 57), 1.0);
        let far = sig(EventKind::Send, Some(1), 1u64 << 61, 1.0);
        assert!(cfg.cells_similar(Some(&a), Some(&near)));
        assert!(!cfg.cells_similar(Some(&a), Some(&far)));
    }

    #[test]
    fn size_similarity_below_2_pow_53_matches_f64_path() {
        // The fix must not disturb the historical in-range behaviour that
        // golden outputs depend on: spot-check the f64 division against
        // the integer entry point across the threshold boundary.
        let cfg = SimilarityConfig::default();
        let s = |n: u64| sig(EventKind::Send, Some(1), n, 1.0);
        for (a, b, expect) in [
            (100, 85, true),
            (100, 84, false),
            (1u64 << 52, (1u64 << 52) - 1, true),
            (7, 8, true),
            (1, 2, false),
        ] {
            assert_eq!(
                cfg.cells_similar(Some(&s(a)), Some(&s(b))),
                expect,
                "sizes {a} vs {b}"
            );
        }
    }

    #[test]
    fn empty_patterns_of_equal_length_are_similar() {
        let cfg = SimilarityConfig::default();
        let empty: Vec<Vec<Option<CellSig>>> = vec![vec![None, None]];
        assert!(cfg.phases_similar(&empty, &empty));
    }
}
