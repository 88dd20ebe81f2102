//! Structure-of-arrays similarity kernel: columnar phase patterns,
//! O(1)-summary banding, and bucketing by tick count.
//!
//! The scalar similarity walk ([`SimilarityConfig::phases_similar`])
//! chases `Vec<Vec<Option<CellSig>>>` pointers per cell. For the merge
//! loop of `extract_phases` — the TFAT hot loop — this module flattens a
//! pattern into parallel columns ([`SoaPattern`]) so the comparison is
//! straight slice arithmetic, and layers two *exact* skip mechanisms on
//! top:
//!
//! * **Banding** ([`SimilarityConfig::band_admits`]): per-pattern O(1)
//!   summaries ([`BandStats`]) give a necessary condition for a match.
//!   A candidate whose size/compute mass is too far from a known phase's
//!   is rejected before any per-cell work. The inequality is derived as
//!   a strict over-approximation of the similarity criterion (see
//!   DESIGN.md "Similarity kernel"), so a band rejection can never drop
//!   a pair the scalar walk would have matched.
//! * **Bucketing** ([`SoaIndex`]): known phases are bucketed by the
//!   only similarity-*invariant* feature a match requires — the tick
//!   count (`phases_similar` returns `false` outright on length
//!   mismatch, and *no* cell-derived feature is invariant, because a
//!   fully-populated pattern is similar to an all-empty one of the same
//!   length). Buckets neither merge different lengths nor split equal
//!   ones, and scanning one bucket in ascending insertion order
//!   reproduces the sequential first-match walk exactly. (The skip
//!   counter keeps its historical name, `extract.lsh.skipped`.)
//!
//! Both mechanisms preserve the kernel's output contract: the resulting
//! `PhaseTable` is byte-identical to the scalar oracle at any worker
//! count (`tests/kernel_equivalence.rs`).

use crate::extract::Pattern;
use crate::sig::{CellSig, SimilarityConfig};
use pas2p_model::LogicalTrace;
use pas2p_trace::EventKind;
use std::collections::HashMap;
use std::sync::Arc;

/// Bit set in [`SoaPattern::key`] when the cell's peer offset is present.
const KEY_PEER_PRESENT: u32 = 1 << 8;

/// Dense communication-kind code for the key column. `CollectiveKind`
/// is a fieldless enum, so its discriminant is stable within a build.
fn kind_code(kind: EventKind) -> u32 {
    match kind {
        EventKind::Send => 0,
        EventKind::Recv => 1,
        EventKind::Coll(c) => 2 + c as u32,
    }
}

/// O(1) per-pattern summaries backing the band prefilter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BandStats {
    /// Number of present (non-empty) cells.
    pub present: u64,
    /// Σ size over present cells (u128: no overflow for any trace).
    pub size_sum: u128,
    /// max size over present cells.
    pub size_max: u64,
    /// Σ compute_before over present cells.
    pub compute_sum: f64,
    /// max compute_before over present cells.
    pub compute_max: f64,
    /// All compute values are finite and non-negative — the compute band
    /// is only sound under this precondition and abstains otherwise.
    pub compute_ok: bool,
}

/// A phase pattern in structure-of-arrays layout: five parallel columns
/// of `ticks × width` cells (tick-major), plus precomputed band stats.
///
/// Comparisons require both sides to share the same `width` — always
/// true inside one extraction, where `width == nprocs`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaPattern {
    ticks: usize,
    width: usize,
    /// 1 where a cell holds an event, 0 where it is absent.
    mask: Vec<u8>,
    /// `kind_code | KEY_PEER_PRESENT?` — one equality test covers the
    /// scalar walk's kind and peer-presence checks.
    key: Vec<u32>,
    /// Peer rank offset (0 when absent; gated by the key bit).
    peer: Vec<i64>,
    /// Communication volume in bytes.
    size: Vec<u64>,
    /// Compute time preceding the event.
    compute: Vec<f64>,
    stats: BandStats,
}

impl SoaPattern {
    fn empty(ticks: usize, width: usize) -> SoaPattern {
        let n = ticks * width;
        SoaPattern {
            ticks,
            width,
            mask: vec![0; n],
            key: vec![0; n],
            peer: vec![0; n],
            size: vec![0; n],
            compute: vec![0.0; n],
            stats: BandStats {
                compute_ok: true,
                ..BandStats::default()
            },
        }
    }

    fn set(&mut self, cell: usize, sig: &CellSig) {
        self.mask[cell] = 1;
        self.key[cell] = kind_code(sig.kind)
            | if sig.peer_offset.is_some() {
                KEY_PEER_PRESENT
            } else {
                0
            };
        self.peer[cell] = sig.peer_offset.unwrap_or(0);
        self.size[cell] = sig.size;
        self.compute[cell] = sig.compute_before;
    }

    /// Recompute the band stats from the columns. Called once after the
    /// columns are filled.
    fn seal(&mut self) {
        let mut st = BandStats {
            compute_ok: true,
            ..BandStats::default()
        };
        for i in 0..self.mask.len() {
            if self.mask[i] == 0 {
                continue;
            }
            st.present += 1;
            st.size_sum += self.size[i] as u128;
            st.size_max = st.size_max.max(self.size[i]);
            let c = self.compute[i];
            st.compute_sum += c;
            st.compute_max = st.compute_max.max(c);
            st.compute_ok &= c.is_finite() && c >= 0.0;
        }
        self.stats = st;
    }

    /// Build the columnar pattern of the window `[s, e)` of a logical
    /// trace, with `width == nprocs`.
    pub fn from_ticks(lt: &LogicalTrace, s: usize, e: usize) -> SoaPattern {
        let width = lt.nprocs as usize;
        let mut p = SoaPattern::empty(e - s, width);
        for (r, tick) in lt.ticks[s..e].iter().enumerate() {
            for ev in &tick.events {
                p.set(r * width + ev.process as usize, &CellSig::of(ev, lt.nprocs));
            }
        }
        p.seal();
        p
    }

    /// Convert an array-of-structs pattern. Rows shorter than the widest
    /// row pad with absent cells, so only rectangular patterns — the only
    /// shape extraction produces — are faithful to the scalar walk.
    pub fn from_pattern(pattern: &Pattern) -> SoaPattern {
        let width = pattern.iter().map(|r| r.len()).max().unwrap_or(0);
        let mut p = SoaPattern::empty(pattern.len(), width);
        for (r, row) in pattern.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if let Some(sig) = cell {
                    p.set(r * width + c, sig);
                }
            }
        }
        p.seal();
        p
    }

    /// Phase length in ticks: the bucket key of [`SoaIndex`].
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Row width (process count).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The band-prefilter summaries.
    pub fn stats(&self) -> &BandStats {
        &self.stats
    }
}

impl SimilarityConfig {
    /// `(similar, total)` cell counts of the SoA comparison — the exact
    /// counts [`SimilarityConfig::phases_similar`] computes on the AoS
    /// representation. `None` when the tick counts differ (hard gate).
    pub fn soa_similarity_score(&self, a: &SoaPattern, b: &SoaPattern) -> Option<(u64, u64)> {
        if a.ticks != b.ticks {
            return None;
        }
        debug_assert_eq!(a.width, b.width, "SoA comparison requires equal widths");
        let n = a.mask.len().min(b.mask.len());
        let mut total = 0u64;
        let mut similar = 0u64;
        for i in 0..n {
            let (ma, mb) = (a.mask[i], b.mask[i]);
            if ma == 0 && mb == 0 {
                continue; // empty cells on both sides are not events
            }
            total += 1;
            if ma == 0 || mb == 0 {
                similar += 1; // absent is similar to anything
                continue;
            }
            if a.key[i] == b.key[i]
                && a.peer[i] == b.peer[i]
                && Self::size_similar(a.size[i], b.size[i], self.size_ratio)
                && Self::ratio_similar(
                    a.compute[i],
                    b.compute[i],
                    self.compute_ratio,
                    self.compute_floor,
                )
            {
                similar += 1;
            }
        }
        Some((similar, total))
    }

    /// Phase-level similarity on the SoA layout — semantically identical
    /// to [`SimilarityConfig::phases_similar`] on the AoS layout.
    pub fn soa_phases_similar(&self, a: &SoaPattern, b: &SoaPattern) -> bool {
        match self.soa_similarity_score(a, b) {
            None => false,
            Some((_, 0)) => true,
            Some((similar, total)) => similar as f64 / total as f64 >= self.event_fraction,
        }
    }

    /// Band prefilter: a *necessary* condition for `soa_phases_similar`,
    /// decided from [`BandStats`] alone. Returns `false` only when the
    /// pair provably cannot match; abstains (`true`) in every degenerate
    /// or unprovable case, so it never drops a true match.
    ///
    /// Derivation sketch (sizes; computes are analogous): let `i` be the
    /// number of cells present on both sides, `na`/`nb` the present
    /// counts. Then `i ∈ [i_min, i_max]` with
    /// `i_min = max(0, na + nb − ticks·width)` and `i_max = min(na, nb)`.
    /// Counted cells `total = na + nb − i ≤ total_max = na + nb − i_min`,
    /// and a match tolerates at most `D = (1 − f)·total_max` dissimilar
    /// cells (single-sided cells are always similar, so every dissimilar
    /// cell is a both-present pair). Bounding `|Σa − Σb|` pair by pair:
    /// a ratio-similar pair contributes `≤ (1 − r)(sa + sb)`, a
    /// dissimilar pair `≤ max(size_max)`, a single-sided cell its own
    /// size `≤ size_max` of its side, and there are at most
    /// `na − i_min` / `nb − i_min` of those. Exceeding the summed bound
    /// (with a relative slack for f64 rounding) refutes the match.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // a NaN must abstain, so `!(a > b)` is meant
    pub fn band_admits(&self, a: &SoaPattern, b: &SoaPattern) -> bool {
        if a.ticks != b.ticks {
            return false; // hard length gate: no match is possible
        }
        if a.width != b.width {
            return true; // out of contract — abstain
        }
        let f = self.event_fraction;
        if f <= 0.0 {
            return true; // every equal-length pair matches
        }
        if !(f <= 1.0) {
            // f > 1 or NaN: only zero-total pairs match.
            return a.stats.present == 0 && b.stats.present == 0;
        }
        let (na, nb) = (a.stats.present, b.stats.present);
        let ncells = (a.ticks * a.width) as u64;
        let i_min = (na + nb).saturating_sub(ncells);
        let i_max = na.min(nb);
        let total_max = na + nb - i_min;
        if total_max == 0 {
            return true; // two all-empty patterns always match
        }
        let budget = ((1.0 - f) * total_max as f64).max(0.0);
        // Relative-plus-absolute slack: the scalar criterion decides each
        // cell exactly, while the band sums in f64 — round towards admit.
        let admits = |lhs: f64, rhs: f64| !(lhs > rhs * (1.0 + 1e-9) + 1e-9);

        let r = self.size_ratio;
        let r = if r.is_nan() { 0.0 } else { r.clamp(0.0, 1.0) };
        let lhs = a.stats.size_sum.abs_diff(b.stats.size_sum) as f64;
        let rhs = (1.0 - r) * (a.stats.size_sum + b.stats.size_sum) as f64
            + budget * a.stats.size_max.max(b.stats.size_max) as f64
            + (na - i_min) as f64 * a.stats.size_max as f64
            + (nb - i_min) as f64 * b.stats.size_max as f64;
        if !admits(lhs, rhs) {
            return false;
        }

        if a.stats.compute_ok && b.stats.compute_ok {
            let c = self.compute_ratio;
            let c = if c.is_nan() { 0.0 } else { c.clamp(0.0, 1.0) };
            // Pairs similar via the noise floor differ by at most the
            // floor itself; at most i_max pairs can take that route.
            let floor = self.compute_floor.max(0.0); // NaN → 0 (abstains)
            let lhs = (a.stats.compute_sum - b.stats.compute_sum).abs();
            let rhs = (1.0 - c) * (a.stats.compute_sum + b.stats.compute_sum)
                + i_max as f64 * floor
                + budget * a.stats.compute_max.max(b.stats.compute_max)
                + (na - i_min) as f64 * a.stats.compute_max
                + (nb - i_min) as f64 * b.stats.compute_max;
            if !admits(lhs, rhs) {
                return false;
            }
        }
        true
    }
}

/// Counters of one bucket scan ([`SoaIndex::first_match`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MatchStats {
    /// Full SoA comparisons actually executed.
    pub compares: u64,
    /// Candidates rejected by the band prefilter before a full compare.
    pub band_rejects: u64,
    /// Known phases never looked at because they live in other buckets
    /// (other tick counts).
    pub lsh_skipped: u64,
}

/// The known-phase index of the SoA merge path: phases in discovery
/// order plus buckets keyed by tick count. Bucket entries are global
/// phase indices in ascending order (insertion order), so a bucket scan
/// visits candidates exactly as the sequential first-match walk would.
#[derive(Debug, Default)]
pub struct SoaIndex {
    known: Vec<Arc<SoaPattern>>,
    buckets: HashMap<usize, Vec<u32>>,
}

impl SoaIndex {
    pub fn new() -> SoaIndex {
        SoaIndex::default()
    }

    /// Number of known phases.
    pub fn len(&self) -> usize {
        self.known.len()
    }

    pub fn is_empty(&self) -> bool {
        self.known.is_empty()
    }

    /// The known phase at global index `i`.
    pub fn get(&self, i: usize) -> &Arc<SoaPattern> {
        &self.known[i]
    }

    /// Append a newly discovered phase; its global index is `len() − 1`.
    pub fn push(&mut self, pattern: Arc<SoaPattern>) {
        let idx = self.known.len() as u32;
        self.buckets.entry(pattern.ticks()).or_default().push(idx);
        self.known.push(pattern);
    }

    /// Global indices of the known phases `ticks` long, ascending.
    pub fn bucket(&self, ticks: usize) -> &[u32] {
        self.buckets.get(&ticks).map_or(&[], |v| v.as_slice())
    }

    /// First match of `candidate` among the known phases — the same
    /// index the sequential scalar walk returns, found by scanning only
    /// the candidate's bucket with the band prefilter in front.
    pub fn first_match(
        &self,
        cfg: &SimilarityConfig,
        candidate: &SoaPattern,
    ) -> (Option<usize>, MatchStats) {
        let bucket = self.bucket(candidate.ticks());
        let mut stats = MatchStats {
            lsh_skipped: (self.known.len() - bucket.len()) as u64,
            ..MatchStats::default()
        };
        for &i in bucket {
            let known = &self.known[i as usize];
            if !cfg.band_admits(known, candidate) {
                stats.band_rejects += 1;
                continue;
            }
            stats.compares += 1;
            if cfg.soa_phases_similar(known, candidate) {
                return (Some(i as usize), stats);
            }
        }
        (None, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(kind: EventKind, peer: Option<i64>, size: u64, compute: f64) -> Option<CellSig> {
        Some(CellSig {
            kind,
            peer_offset: peer,
            size,
            compute_before: compute,
        })
    }

    fn pattern(rows: &[Vec<Option<CellSig>>]) -> Pattern {
        rows.to_vec()
    }

    #[test]
    fn soa_round_trip_matches_scalar_similarity() {
        let cfg = SimilarityConfig::default();
        let a = pattern(&[
            vec![sig(EventKind::Send, Some(1), 100, 1.0), None],
            vec![None, sig(EventKind::Recv, Some(3), 64, 0.5)],
        ]);
        let mut b = a.clone();
        b[0][0] = sig(EventKind::Send, Some(1), 90, 0.95);
        let (sa, sb) = (SoaPattern::from_pattern(&a), SoaPattern::from_pattern(&b));
        assert_eq!(cfg.phases_similar(&a, &b), cfg.soa_phases_similar(&sa, &sb));
        assert_eq!(
            cfg.phase_similarity_score(&a, &b),
            cfg.soa_similarity_score(&sa, &sb)
        );
    }

    #[test]
    fn length_mismatch_is_a_hard_gate() {
        let cfg = SimilarityConfig::default();
        let row = vec![sig(EventKind::Send, Some(1), 8, 0.1)];
        let a = SoaPattern::from_pattern(&pattern(std::slice::from_ref(&row)));
        let b = SoaPattern::from_pattern(&pattern(&[row.clone(), row]));
        assert!(!cfg.soa_phases_similar(&a, &b));
        assert!(!cfg.band_admits(&a, &b));
        assert_ne!(a.ticks(), b.ticks(), "different buckets");
    }

    #[test]
    fn band_rejects_wildly_different_mass() {
        let cfg = SimilarityConfig::default();
        let small = pattern(&vec![vec![sig(EventKind::Send, Some(1), 8, 0.01); 4]; 4]);
        let large = pattern(&vec![
            vec![sig(EventKind::Send, Some(1), 1 << 30, 100.0); 4];
            4
        ]);
        let (sa, sb) = (
            SoaPattern::from_pattern(&small),
            SoaPattern::from_pattern(&large),
        );
        assert!(!cfg.soa_phases_similar(&sa, &sb));
        assert!(
            !cfg.band_admits(&sa, &sb),
            "uniform 2^27× mass gap must be refutable from the stats"
        );
    }

    #[test]
    fn band_admits_every_similar_pair() {
        let cfg = SimilarityConfig::default();
        // A fully-populated pattern and an all-empty one of the same
        // shape are similar (single-sided cells always are) but have
        // maximally different stats — the band must still admit.
        let full = pattern(&vec![
            vec![sig(EventKind::Send, Some(1), 1 << 20, 5.0); 3];
            2
        ]);
        let empty = pattern(&vec![vec![None; 3]; 2]);
        let (sf, se) = (
            SoaPattern::from_pattern(&full),
            SoaPattern::from_pattern(&empty),
        );
        assert!(cfg.soa_phases_similar(&sf, &se));
        assert!(cfg.band_admits(&sf, &se));
        assert!(cfg.band_admits(&sf, &sf));
        assert!(cfg.band_admits(&se, &se));
    }

    #[test]
    fn band_abstains_on_degenerate_configs() {
        let row = vec![sig(EventKind::Send, Some(1), 100, 1.0); 2];
        let a = SoaPattern::from_pattern(&pattern(std::slice::from_ref(&row)));
        let far = vec![sig(EventKind::Send, Some(1), 1 << 40, 1000.0); 2];
        let b = SoaPattern::from_pattern(&pattern(&[far]));
        for f in [0.0, -1.0, f64::NAN, 2.0] {
            let cfg = SimilarityConfig {
                event_fraction: f,
                ..SimilarityConfig::default()
            };
            // Whatever the verdict, a rejection must agree with the full
            // compare — on the far pair and on the reflexive ones.
            for (x, y) in [(&a, &b), (&a, &a), (&b, &b)] {
                if cfg.soa_phases_similar(x, y) {
                    assert!(cfg.band_admits(x, y), "event_fraction = {f}");
                }
            }
        }
    }

    #[test]
    fn index_first_match_is_sequential_first_match() {
        let cfg = SimilarityConfig::default();
        let mk = |size: u64, ticks: usize| {
            Arc::new(SoaPattern::from_pattern(&pattern(&vec![
                vec![sig(
                    EventKind::Send,
                    Some(1),
                    size,
                    1.0
                )];
                ticks
            ])))
        };
        let mut index = SoaIndex::new();
        let knowns = [mk(100, 1), mk(100, 2), mk(104, 2), mk(100, 3)];
        for k in &knowns {
            index.push(Arc::clone(k));
        }
        let cand = mk(102, 2);
        let (hit, stats) = index.first_match(&cfg, &cand);
        // Sequential walk: index 0 fails the length gate, index 1 is the
        // first length-2 match.
        assert_eq!(hit, Some(1));
        assert_eq!(stats.lsh_skipped, 2, "length-1 and length-3 never scanned");
        assert!(stats.compares >= 1);
    }

    /// The bucket is the tick count alone: patterns of one length but
    /// different populations (4, 4 and 2 events at two ticks) share it.
    #[test]
    fn bucket_entries_stay_ascending() {
        let mut index = SoaIndex::new();
        for (k, ticks) in [2usize, 3, 2, 2, 3].into_iter().enumerate() {
            let cell = sig(EventKind::Send, Some(1), 8, 0.1);
            let row = vec![cell, if k == 3 { None } else { cell }];
            index.push(Arc::new(SoaPattern::from_pattern(&vec![row; ticks])));
        }
        assert_eq!(index.bucket(2), &[0, 2, 3]);
        assert_eq!(index.bucket(3), &[1, 4]);
        assert_eq!(index.bucket(7), &[] as &[u32]);
    }
}
