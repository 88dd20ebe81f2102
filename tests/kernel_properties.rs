//! Property suite for the SoA similarity kernel: over arbitrary
//! rectangular patterns and similarity configurations (including
//! degenerate thresholds), the SoA comparison must agree with the
//! scalar walk cell for cell, the band prefilter must never reject a
//! true match, and the tick-count buckets must never split a matchable pair.
//! A final property pins whole-trace extraction: scalar and SoA kernels
//! produce identical `PhaseAnalysis` on randomly generated logical
//! traces, sequentially and on a worker pool.
//!
//! Patterns are generated rectangular (every row the same width) —
//! the only shape extraction produces (`width == nprocs`), and the
//! contract `SoaPattern` documents.

mod common;

use common::{cases, Gen};
use pas2p_machine::CollectiveKind;
use pas2p_model::{LogicalEvent, LogicalTrace, Tick};
use pas2p_phases::{
    extract_phases, CellSig, PhaseAnalysis, SimilarityConfig, SimilarityKernel, SoaIndex,
    SoaPattern,
};
use pas2p_trace::EventKind;
use std::ops::Range;
use std::sync::Arc;

/// Cases per property (the suite was declared with 48; there is no
/// shrinking to pay for, and the whole file runs in about a second). The
/// rare corners need the draws: an SoA comparison that skips the
/// peer-offset check is first caught at seed 512, a compute band without
/// its noise-floor allowance at seed 2154 (EXPERIMENTS.md "PR 21").
const CASES: u64 = 4096;
/// Seeds that once failed; every property of this file runs them first.
const REPLAY: &[u64] = &[];

type Pattern = Vec<Vec<Option<CellSig>>>;

const KINDS: [EventKind; 5] = [
    EventKind::Send,
    EventKind::Recv,
    EventKind::Coll(CollectiveKind::Barrier),
    EventKind::Coll(CollectiveKind::Allreduce),
    EventKind::Coll(CollectiveKind::Alltoall),
];

/// One of `corners` or, as often as any one of them, a float from
/// `dense` — the degenerate values beside the ordinary range.
fn corner_or(g: &mut Gen, corners: &[f64], dense: Range<f64>) -> f64 {
    match g.range(0..corners.len() as u64 + 1) as usize {
        i if i < corners.len() => corners[i],
        _ => g.float(dense),
    }
}

/// One pattern cell: absent one time in four, or an event drawn from a
/// pool of sizes and compute times dense enough that similar,
/// nearly-similar and wildly dissimilar pairs all occur.
fn cell(g: &mut Gen) -> Option<CellSig> {
    if g.weighted(&[1, 3]) == 0 {
        return None;
    }
    Some(CellSig {
        kind: g.pick(&KINDS),
        peer_offset: (g.range(0..2) == 1).then(|| g.range(0..4) as i64),
        size: match g.pick(&[
            Some(0),
            Some(8),
            Some(64),
            Some(100),
            Some(1u64 << 40),
            None,
        ]) {
            Some(size) => size,
            None => g.range(1..4096),
        },
        compute_before: corner_or(g, &[0.0, 1e-9, 0.01, 1.0], 0.0..2.0),
    })
}

/// A rectangular pattern: 1..=max_ticks rows of exactly `width` cells.
fn pattern(g: &mut Gen, width: usize, max_ticks: usize) -> Pattern {
    g.vec(1..max_ticks + 1, |g| g.vec(width..width + 1, cell))
}

/// Two patterns sharing one width, so the scalar walk and the SoA
/// comparison see the same cell grid.
fn pattern_pair(g: &mut Gen) -> (Pattern, Pattern) {
    let width = g.range(1..4) as usize;
    (pattern(g, width, 4), pattern(g, width, 4))
}

/// Similarity configurations including the paper defaults and the
/// degenerate corners (zero thresholds, exact-match thresholds, an
/// unsatisfiable event fraction, a large noise floor).
fn config(g: &mut Gen) -> SimilarityConfig {
    SimilarityConfig {
        compute_ratio: corner_or(g, &[0.85, 1.0, 0.5], 0.0..1.0),
        size_ratio: corner_or(g, &[0.85, 1.0, 0.0], 0.0..1.0),
        event_fraction: corner_or(g, &[0.80, 1.0, 0.0, 1.5], 0.0..1.0),
        compute_floor: g.pick(&[1e-7, 0.0, 0.5]),
        ..SimilarityConfig::default()
    }
}

/// Build a logical trace from (tick, process, kind, size, compute)
/// tuples — the same constructor the extraction unit tests use.
fn lt_of(nprocs: u32, cells: &[(usize, u32, EventKind, u64, f64)]) -> LogicalTrace {
    let max_tick = cells.iter().map(|c| c.0).max().unwrap_or(0);
    let mut ticks = vec![Tick::default(); max_tick + 1];
    let mut numbers = vec![0u64; nprocs as usize];
    let mut clock = 0.0;
    for &(t, p, kind, size, compute) in cells {
        clock += compute + 0.001;
        ticks[t].events.push(LogicalEvent {
            process: p,
            number: numbers[p as usize],
            kind,
            peer: Some((p + 1) % nprocs),
            size,
            involved: 1,
            msg_id: 0,
            comm_id: 0,
            compute_before: compute,
            duration: 0.001,
            t_post: clock - 0.001,
            t_complete: clock,
        });
        numbers[p as usize] += 1;
    }
    for t in &mut ticks {
        // Restore the logical-trace invariant: at most one event per
        // (tick, process), sorted by process.
        t.events.sort_by_key(|e| e.process);
        t.events.dedup_by_key(|e| e.process);
    }
    LogicalTrace { nprocs, ticks }
}

fn strip_timing(mut analysis: PhaseAnalysis) -> PhaseAnalysis {
    analysis.analysis_seconds = 0.0;
    analysis
}

/// SoA similarity == scalar similarity: the boolean verdict and the
/// exact (similar, total) score.
fn soa_equals_scalar(cfg: &SimilarityConfig, a: &Pattern, b: &Pattern) {
    let sa = SoaPattern::from_pattern(a);
    let sb = SoaPattern::from_pattern(b);
    assert_eq!(
        cfg.phases_similar(a, b),
        cfg.soa_phases_similar(&sa, &sb),
        "verdict diverged"
    );
    assert_eq!(
        cfg.phase_similarity_score(a, b),
        cfg.soa_similarity_score(&sa, &sb),
        "score diverged"
    );
}

/// The band prefilter is a necessary condition: it never rejects a
/// pair the full comparison would match, in either orientation.
fn band_keeps_a_true_match(cfg: &SimilarityConfig, a: &Pattern, b: &Pattern) {
    let sa = SoaPattern::from_pattern(a);
    let sb = SoaPattern::from_pattern(b);
    if cfg.soa_phases_similar(&sa, &sb) {
        assert!(cfg.band_admits(&sa, &sb), "band rejected a true match");
        assert!(cfg.band_admits(&sb, &sa), "band is orientation-sensitive");
    }
}

/// Buckets never split a matchable pair: the bucket key is the tick
/// count (the only similarity-invariant feature), which is the
/// pattern's length, and a matchable pair shares it.
fn lsh_keeps_a_matchable_pair(cfg: &SimilarityConfig, a: &Pattern, b: &Pattern) {
    let sa = SoaPattern::from_pattern(a);
    let sb = SoaPattern::from_pattern(b);
    assert_eq!((sa.ticks(), sb.ticks()), (a.len(), b.len()));
    if cfg.soa_phases_similar(&sa, &sb) {
        assert_eq!(sa.ticks(), sb.ticks(), "bucket split a matchable pair");
    }
}

#[test]
fn soa_similarity_equals_scalar() {
    cases(REPLAY, CASES, |g| {
        let (cfg, (a, b)) = (config(g), pattern_pair(g));
        soa_equals_scalar(&cfg, &a, &b);
    });
}

#[test]
fn banding_never_rejects_a_true_match() {
    cases(REPLAY, CASES, |g| {
        let (cfg, (a, b)) = (config(g), pattern_pair(g));
        band_keeps_a_true_match(&cfg, &a, &b);
    });
}

#[test]
fn lsh_buckets_never_split_matchable_patterns() {
    cases(REPLAY, CASES, |g| {
        let (cfg, (a, b)) = (config(g), pattern_pair(g));
        lsh_keeps_a_matchable_pair(&cfg, &a, &b);
    });
}

/// The three pair properties on one fixed pair: the shrunk cases the
/// property search once found, kept by value.
fn pair_properties_hold(cfg: &SimilarityConfig, a: &Pattern, b: &Pattern) {
    soa_equals_scalar(cfg, a, b);
    band_keeps_a_true_match(cfg, a, b);
    lsh_keeps_a_matchable_pair(cfg, a, b);
}

fn send(size: u64, compute_before: f64) -> Option<CellSig> {
    Some(CellSig {
        kind: EventKind::Send,
        peer_offset: Some(1),
        size,
        compute_before,
    })
}

/// An event fraction above 1 is unsatisfiable: a non-empty pattern is
/// not similar even to itself, under both kernels, and the band (which
/// abstains on degenerate fractions) must not turn that into a match.
#[test]
fn an_unsatisfiable_event_fraction_matches_no_reflexive_pair() {
    let cfg = SimilarityConfig {
        event_fraction: 1.5,
        ..SimilarityConfig::default()
    };
    let a = vec![vec![send(8, 0.01)]];
    pair_properties_hold(&cfg, &a, &a);
    assert!(!cfg.phases_similar(&a, &a));
    let sa = SoaPattern::from_pattern(&a);
    assert!(!cfg.band_admits(&sa, &sa), "only two empty patterns match");
}

/// With `size_ratio` 0 every size pair is similar, so 2⁴⁰ bytes against
/// 8 is a true match the size band has to admit at that magnitude.
#[test]
fn the_size_band_admits_a_match_at_extreme_magnitudes() {
    let cfg = SimilarityConfig {
        size_ratio: 0.0,
        ..SimilarityConfig::default()
    };
    let (a, b) = (vec![vec![send(1 << 40, 0.0)]], vec![vec![send(8, 0.0)]]);
    assert!(cfg.phases_similar(&a, &b));
    pair_properties_hold(&cfg, &a, &b);
}

/// One cell pair similar through the noise floor (0 against 0.5 under a
/// floor of 0.5) beside one similar through the ratio: the compute band
/// has to allow for both routes at once.
#[test]
fn the_compute_band_covers_the_floor_and_the_ratio_route_together() {
    let cfg = SimilarityConfig {
        compute_ratio: 1.0,
        event_fraction: 1.0,
        compute_floor: 0.5,
        ..SimilarityConfig::default()
    };
    let a = vec![vec![send(8, 0.0), send(8, 1.0)]];
    let b = vec![vec![send(8, 0.5), send(8, 1.0)]];
    assert!(cfg.phases_similar(&a, &b));
    pair_properties_hold(&cfg, &a, &b);
}

/// The bucketed index returns the same first match as the sequential
/// scalar walk over the known list.
#[test]
fn index_first_match_equals_sequential_scan() {
    cases(REPLAY, CASES, |g| {
        let cfg = config(g);
        let width = g.range(1..3) as usize;
        let known = g.vec(0..8, |g| pattern(g, width, 3));
        let candidate = pattern(g, width, 3);
        let scalar_hit = known.iter().position(|k| cfg.phases_similar(k, &candidate));
        let mut index = SoaIndex::new();
        for k in &known {
            index.push(Arc::new(SoaPattern::from_pattern(k)));
        }
        let (soa_hit, stats) = index.first_match(&cfg, &SoaPattern::from_pattern(&candidate));
        assert_eq!(scalar_hit, soa_hit);
        assert!(
            stats.compares + stats.band_rejects + stats.lsh_skipped <= known.len() as u64,
            "every known phase is compared, band-rejected, or bucket-skipped at most once"
        );
    });
}

/// Whole-trace extraction is kernel- and parallelism-invariant on
/// randomly generated logical traces.
#[test]
fn extraction_is_kernel_invariant_on_random_traces() {
    cases(REPLAY, CASES, |g| {
        let nprocs = g.range(1..4) as u32;
        let cells: Vec<(usize, u32, EventKind, u64, f64)> = g.vec(1..40, |g| {
            (
                g.range(0..12) as usize,
                g.range(0..4) as u32 % nprocs,
                g.pick(&KINDS),
                g.range(1..512),
                g.float(0.0..0.05),
            )
        });
        // Lay the block down one to three times, each copy with its
        // compute times scaled: drawn once, no window ever resembles
        // another, and a kernel that never matches would pass.
        let cells: Vec<_> = (0..g.range(1..4) as usize)
            .flat_map(|copy| {
                let scale = g.pick(&[1.0, 0.95, 0.5]);
                let shifted = move |&(t, p, k, s, c)| (t + 12 * copy, p, k, s, c * scale);
                cells.iter().map(shifted).collect::<Vec<_>>()
            })
            .collect();
        let lt = lt_of(nprocs, &cells);
        let run = |kernel: SimilarityKernel, parallelism: Option<usize>| {
            let cfg = SimilarityConfig {
                kernel,
                parallelism,
                ..SimilarityConfig::default()
            };
            strip_timing(extract_phases(&lt, &cfg))
        };
        let oracle = run(SimilarityKernel::Scalar, Some(1));
        assert_eq!(&oracle, &run(SimilarityKernel::Soa, Some(1)));
        assert_eq!(&oracle, &run(SimilarityKernel::Soa, Some(4)));
        assert_eq!(&oracle, &run(SimilarityKernel::Scalar, Some(4)));
    });
}
