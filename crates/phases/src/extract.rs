//! The phase-extraction algorithm (paper §3.3, Fig 6, Appendix B).
//!
//! Extraction runs in two stages. A sequential *repetition scan* cuts the
//! logical trace into candidate windows (steps 1–4). A *merge loop* then
//! dedupes each candidate against the known phases by similarity (step 5),
//! in discovery order. The candidate×known-phase comparisons inside the
//! merge are the TFAT hot loop (Table 8). There are two merge loops, one
//! per [`SimilarityKernel`]: the scalar walk — the differential oracle —
//! and the SoA loop, which scans only the candidate's tick-count
//! bucket. Both take the first match in discovery order and both run on
//! the calling thread: splitting a bucket scan across workers was
//! measured and beat the inline scan at no bucket length
//! (EXPERIMENTS.md "PR 14"), so
//! [`SimilarityConfig::parallelism`] is accepted and has no effect here.
//! Output is byte-identical for either kernel.

use crate::sig::{CellSig, SimilarityConfig, SimilarityKernel};
use crate::soa::{SoaIndex, SoaPattern};
use pas2p_model::LogicalTrace;
use pas2p_obs::Counter;
use pas2p_trace::EventKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

static TICKS_SCANNED: Counter = Counter::new("phases.ticks_scanned");
static UNIQUE: Counter = Counter::new("phases.unique");
static OCCURRENCES: Counter = Counter::new("phases.occurrences");
static SIMILARITY_COMPARISONS: Counter = Counter::new("phases.similarity_comparisons");
static DEDUPE_HITS: Counter = Counter::new("phases.dedupe_hits");
static BAND_REJECTS: Counter = Counter::new("extract.band.rejects");
static LSH_SKIPPED: Counter = Counter::new("extract.lsh.skipped");
static SOA_COMPARES: Counter = Counter::new("extract.soa.compares");
static NEGATIVE_SPAN: Counter = Counter::new("extract.negative_span");

/// A phase pattern: `pattern[tick][process]` cells.
pub type Pattern = Vec<Vec<Option<CellSig>>>;

/// One concrete occurrence of a phase in the logical trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Occurrence {
    /// First tick of the occurrence (inclusive).
    pub start_tick: usize,
    /// One past the last tick (exclusive).
    pub end_tick: usize,
    /// Global boundary time at the start (base-machine seconds).
    pub t_start: f64,
    /// Global boundary time at the end.
    pub t_end: f64,
    /// Per-process communication-event counts at the start boundary — the
    /// coordinates the phase table uses to locate the phase in a re-run
    /// (Fig 7's "number of sends where the phase occurs").
    pub start_counts: Vec<u64>,
    /// Per-process counts at the end boundary.
    pub end_counts: Vec<u64>,
}

impl Occurrence {
    /// Wall-clock span of this occurrence on the base machine. Negative
    /// spans (a boundary-ordering bug upstream) clamp to zero; the clamp
    /// is counted under `extract.negative_span` when one is constructed.
    pub fn duration(&self) -> f64 {
        (self.t_end - self.t_start).max(0.0)
    }
}

/// A unique phase: a representative tick×process pattern plus every
/// occurrence that matched it by similarity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase identifier (dense, in discovery order).
    pub id: u32,
    /// Representative pattern: `pattern[tick][process]`.
    pub pattern: Pattern,
    /// Repetition count — the paper's *weight*.
    pub weight: u64,
    /// All matched occurrences, in trace order.
    pub occurrences: Vec<Occurrence>,
}

impl Phase {
    /// Phase length in ticks.
    pub fn len_ticks(&self) -> usize {
        self.pattern.len()
    }

    /// Mean occurrence duration on the base machine — the PhaseET the
    /// analysis stage estimates before the signature measures it on a
    /// target.
    pub fn mean_duration(&self) -> f64 {
        if self.occurrences.is_empty() {
            return 0.0;
        }
        self.occurrences.iter().map(|o| o.duration()).sum::<f64>() / self.occurrences.len() as f64
    }

    /// `weight × mean duration`: this phase's share of the application
    /// execution time.
    pub fn contribution(&self) -> f64 {
        self.weight as f64 * self.mean_duration()
    }
}

/// Result of running phase extraction over a logical trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseAnalysis {
    /// Number of processes.
    pub nprocs: u32,
    /// All unique phases, in discovery order.
    pub phases: Vec<Phase>,
    /// Application execution time on the base machine (the last global
    /// boundary), seconds.
    pub aet: f64,
    /// Host wall-clock seconds the extraction took — a component of the
    /// paper's trace-file analysis time (TFAT, Table 8). Sourced from the
    /// obs stage profiler (`extract_phases` stage), so this value and the
    /// recorded stage profile cannot diverge.
    pub analysis_seconds: f64,
    /// Occurrences whose global span came out negative and were clamped
    /// to zero duration — evidence of clock trouble in the input. Also
    /// counted under `extract.negative_span`; `pas2p-check` raises
    /// `MODEL-SPAN-001` when nonzero.
    #[serde(default)]
    pub negative_spans: u64,
}

impl PhaseAnalysis {
    /// Total number of unique phases (Table 8's "Total Phases").
    pub fn total_phases(&self) -> usize {
        self.phases.len()
    }

    /// Phases whose contribution reaches `threshold` (paper: 0.01 = 1 %)
    /// of the application execution time — the signature constituents.
    pub fn relevant(&self, threshold: f64) -> Vec<&Phase> {
        self.phases
            .iter()
            .filter(|p| p.contribution() >= threshold * self.aet)
            .collect()
    }

    /// Σ weight × mean duration over all phases. Occurrences tile the
    /// trace, so this reconstructs the AET (up to duplicate-occurrence
    /// averaging inside a phase).
    pub fn reconstructed_aet(&self) -> f64 {
        self.phases.iter().map(|p| p.contribution()).sum()
    }

    /// Coverage of the relevant phases: which fraction of the AET the
    /// signature will represent.
    pub fn relevant_coverage(&self, threshold: f64) -> f64 {
        if self.aet <= 0.0 {
            return 0.0;
        }
        self.relevant(threshold)
            .iter()
            .map(|p| p.contribution())
            .sum::<f64>()
            / self.aet
    }
}

/// Extract phases from a logical trace (the paper's six-step algorithm).
pub fn extract_phases(lt: &LogicalTrace, cfg: &SimilarityConfig) -> PhaseAnalysis {
    let mut st = pas2p_obs::stage("extract_phases");
    let ticks = &lt.ticks;

    // Global boundary times: boundary[k] = latest completion among ticks
    // < k. Occurrences tile [boundary[s], boundary[e]).
    let mut boundary = Vec::with_capacity(ticks.len() + 1);
    boundary.push(0.0f64);
    for tick in ticks {
        let m = tick
            .events
            .iter()
            .map(|e| e.t_complete)
            .fold(*boundary.last().unwrap(), f64::max);
        boundary.push(m);
    }

    let windows = scan_windows(lt);

    let mut merger = Merger {
        lt,
        cfg,
        boundary,
        running_counts: vec![0u64; lt.nprocs as usize],
        phases: Vec::new(),
        comparisons: 0,
        dedupe_hits: 0,
        band_rejects: 0,
        lsh_skipped: 0,
        soa_compares: 0,
        negative_spans: 0,
    };

    match cfg.kernel {
        SimilarityKernel::Scalar => merger.merge_scalar(&windows),
        SimilarityKernel::Soa => merger.merge_soa(&windows),
    }

    let aet = *merger.boundary.last().unwrap();
    st.items(ticks.len() as u64);
    let analysis = PhaseAnalysis {
        nprocs: lt.nprocs,
        phases: merger.phases,
        aet,
        analysis_seconds: st.finish(),
        negative_spans: merger.negative_spans,
    };
    TICKS_SCANNED.add(ticks.len() as u64);
    UNIQUE.add(analysis.total_phases() as u64);
    OCCURRENCES.add(analysis.phases.iter().map(|p| p.weight).sum());
    SIMILARITY_COMPARISONS.add(merger.comparisons);
    DEDUPE_HITS.add(merger.dedupe_hits);
    if matches!(cfg.kernel, SimilarityKernel::Soa) {
        // Always registered (even at 0) so the SoA kernel's skip
        // behaviour is visible in every metrics snapshot.
        BAND_REJECTS.add(merger.band_rejects);
        LSH_SKIPPED.add(merger.lsh_skipped);
        SOA_COMPARES.add(merger.soa_compares);
    }
    if merger.negative_spans > 0 {
        NEGATIVE_SPAN.add(merger.negative_spans);
    }
    analysis
}

/// Steps 1–4: the sequential repetition scan. Grows a window from
/// `start`, cutting when a communication type repeats within a process,
/// and returns the candidate windows `[s, e)` in trace order.
fn scan_windows(lt: &LogicalTrace) -> Vec<(usize, usize)> {
    /// Repetition key of an event within the growing window (process plus
    /// the communication-type triple of `CellSig::repetition_key`).
    type RepKey = (u32, (EventKind, Option<i64>, u64));

    let ticks = &lt.ticks;
    let mut windows = Vec::new();
    let mut push = |s: usize, e: usize| {
        if s < e {
            windows.push((s, e));
        }
    };

    let mut start = 0usize;
    let mut seen: HashMap<RepKey, usize> = HashMap::new();
    #[allow(clippy::needless_range_loop)] // tick index doubles as boundary id
    for t in 0..ticks.len() {
        let mut first_rep: Option<usize> = None;
        for e in &ticks[t].events {
            let key = (e.process, CellSig::of(e, lt.nprocs).repetition_key());
            if let Some(&first) = seen.get(&key) {
                first_rep = Some(match first_rep {
                    None => first,
                    Some(f) => f.min(first),
                });
            }
        }
        if let Some(first) = first_rep {
            if first == start {
                // Step 4a: the repeated event's first occurrence sits at
                // the Startpoint — the candidate closes just before the
                // repetition.
                push(start, t);
            } else {
                // Step 4b: split into phase a and phase b.
                push(start, first);
                push(first, t);
            }
            start = t;
            seen.clear();
        }
        for e in &ticks[t].events {
            let key = (e.process, CellSig::of(e, lt.nprocs).repetition_key());
            seen.entry(key).or_insert(t);
        }
    }
    push(start, ticks.len());
    windows
}

/// Step 5: dedupe candidate windows into phases, in discovery order.
struct Merger<'a> {
    lt: &'a LogicalTrace,
    cfg: &'a SimilarityConfig,
    boundary: Vec<f64>,
    /// Per-process event counts at the current save boundary. Saves are
    /// contiguous, so this always equals the counts at the next start.
    running_counts: Vec<u64>,
    phases: Vec<Phase>,
    /// Similarity comparisons the scalar first-match walk performs
    /// (step 5 cost driver) — identical for both kernels.
    comparisons: u64,
    /// Candidate×known pairs the band prefilter rejected (SoA kernel).
    band_rejects: u64,
    /// Candidate×known pairs never examined because the known phase sits
    /// in a different tick-count bucket (SoA kernel).
    lsh_skipped: u64,
    /// Full SoA comparisons actually executed (after band + bucket skips).
    soa_compares: u64,
    /// Windows absorbed into an existing phase instead of creating one.
    dedupe_hits: u64,
    /// Occurrences constructed with `t_end < t_start`.
    negative_spans: u64,
}

impl Merger<'_> {
    /// Build the occurrence of the window `[s, e)`, advancing the running
    /// per-process event counts.
    fn occurrence_of(&mut self, s: usize, e: usize) -> Occurrence {
        let start_counts = self.running_counts.clone();
        for tick in &self.lt.ticks[s..e] {
            for ev in &tick.events {
                self.running_counts[ev.process as usize] += 1;
            }
        }
        let (t_start, t_end) = (self.boundary[s], self.boundary[e]);
        if t_end < t_start {
            self.negative_spans += 1;
        }
        Occurrence {
            start_tick: s,
            end_tick: e,
            t_start,
            t_end,
            start_counts,
            end_counts: self.running_counts.clone(),
        }
    }

    /// Fold a first-match result into the phase list; true when the
    /// window opened a new phase. `comparisons` advances by the scalar
    /// walk's count so the counter is identical whichever kernel
    /// produced `hit`. `pattern` builds the representative AoS
    /// pattern and is only called on a miss — dedupe hits (the common
    /// case) never materialize it on the SoA path.
    fn commit(
        &mut self,
        hit: Option<usize>,
        occurrence: Occurrence,
        pattern: impl FnOnce(&Self) -> Pattern,
    ) -> bool {
        self.comparisons += match hit {
            Some(i) => i as u64 + 1,
            None => self.phases.len() as u64,
        };
        match hit {
            Some(i) => {
                self.dedupe_hits += 1;
                let phase = &mut self.phases[i];
                phase.weight += 1;
                phase.occurrences.push(occurrence);
                false
            }
            None => {
                let pattern = pattern(self);
                self.phases.push(Phase {
                    id: self.phases.len() as u32,
                    pattern,
                    weight: 1,
                    occurrences: vec![occurrence],
                });
                true
            }
        }
    }

    /// Step 5 on the scalar kernel: the reference first-match walk over
    /// the known phases, cell by cell.
    fn merge_scalar(&mut self, windows: &[(usize, usize)]) {
        for &(s, e) in windows {
            pas2p_obs::cancel::checkpoint();
            let pattern = pattern_of(self.lt, s, e);
            let occurrence = self.occurrence_of(s, e);
            let hit = self
                .phases
                .iter()
                .position(|k| self.cfg.phases_similar(&k.pattern, &pattern));
            self.commit(hit, occurrence, |_| pattern);
        }
    }

    /// Step 5 on the SoA kernel: bucket lookup, band prefilter, columnar
    /// compare — same first match as the scalar walk. Only the
    /// candidate's tick-count bucket is ever scanned (other buckets cannot
    /// match).
    fn merge_soa(&mut self, windows: &[(usize, usize)]) {
        // The columnar mirror of `self.phases`.
        let mut index = SoaIndex::new();
        for &(s, e) in windows {
            pas2p_obs::cancel::checkpoint();
            let occurrence = self.occurrence_of(s, e);
            let candidate = SoaPattern::from_ticks(self.lt, s, e);
            let (hit, stats) = index.first_match(self.cfg, &candidate);
            self.soa_compares += stats.compares;
            self.band_rejects += stats.band_rejects;
            self.lsh_skipped += stats.lsh_skipped;
            if self.commit(hit, occurrence, |m| pattern_of(m.lt, s, e)) {
                index.push(Arc::new(candidate));
            }
        }
    }
}

/// The `[tick][process]` cell pattern of ticks `start..end` of `lt`:
/// what a phase keeps as its representative, and what the checker's
/// SIG-SIM-002 re-reads each occurrence as.
pub fn pattern_of(lt: &LogicalTrace, start: usize, end: usize) -> Pattern {
    lt.ticks[start..end]
        .iter()
        .map(|tick| {
            (0..lt.nprocs)
                .map(|p| tick.event_of(p).map(|e| CellSig::of(e, lt.nprocs)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_model::{LogicalEvent, LogicalTrace, Tick};

    /// Build a logical trace directly from (tick, process, kind, size,
    /// compute) tuples for precise algorithm tests.
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
            t.events.sort_by_key(|e| e.process);
        }
        LogicalTrace { nprocs, ticks }
    }

    #[test]
    fn repetition_at_startpoint_closes_phase() {
        // P0: Send, Recv, Send, Recv, ... — the second Send repeats the
        // type first seen at the startpoint, closing a 2-tick phase.
        let cells: Vec<_> = (0..8)
            .map(|i| {
                (
                    i,
                    0u32,
                    if i % 2 == 0 {
                        EventKind::Send
                    } else {
                        EventKind::Recv
                    },
                    64u64,
                    0.01f64,
                )
            })
            .collect();
        let analysis = extract_phases(&lt_of(1, &cells), &SimilarityConfig::default());
        assert_eq!(analysis.total_phases(), 1, "{:#?}", analysis.phases);
        let p = &analysis.phases[0];
        assert_eq!(p.len_ticks(), 2);
        assert_eq!(p.weight, 4);
    }

    #[test]
    fn repetition_mid_phase_splits_into_a_and_b() {
        // Prologue of unique events, then an iterative pattern: the split
        // rule must produce a prologue phase and an iteration phase.
        let mut cells = vec![
            (
                0,
                0,
                EventKind::Coll(pas2p_machine::CollectiveKind::Bcast),
                8,
                0.02,
            ),
            (1, 0, EventKind::Send, 999, 0.03),
        ];
        // Iterations: Send(64)/Recv(64) pairs.
        for i in 0..6 {
            cells.push((
                2 + i,
                0,
                if i % 2 == 0 {
                    EventKind::Send
                } else {
                    EventKind::Recv
                },
                64,
                0.01,
            ));
        }
        let analysis = extract_phases(&lt_of(1, &cells), &SimilarityConfig::default());
        // Expect: prologue phase (bcast + send999 [+ first iteration head])
        // and a repeated iteration phase with weight ≥ 2.
        assert!(analysis.total_phases() >= 2);
        let max_weight = analysis.phases.iter().map(|p| p.weight).max().unwrap();
        assert!(max_weight >= 2, "{:#?}", analysis.phases);
    }

    #[test]
    fn occurrences_tile_the_trace() {
        let cells: Vec<_> = (0..10)
            .map(|i| {
                (
                    i,
                    0u32,
                    if i % 2 == 0 {
                        EventKind::Send
                    } else {
                        EventKind::Recv
                    },
                    64u64,
                    0.01f64,
                )
            })
            .collect();
        let lt = lt_of(1, &cells);
        let analysis = extract_phases(&lt, &SimilarityConfig::default());
        let mut spans: Vec<(usize, usize)> = analysis
            .phases
            .iter()
            .flat_map(|p| p.occurrences.iter().map(|o| (o.start_tick, o.end_tick)))
            .collect();
        spans.sort_unstable();
        assert_eq!(spans.first().unwrap().0, 0);
        assert_eq!(spans.last().unwrap().1, lt.len());
        for w in spans.windows(2) {
            assert_eq!(w[0].1, w[1].0, "occurrences must be contiguous");
        }
        // Σ weight × meanET == AET for perfectly regular traces.
        assert!((analysis.reconstructed_aet() - analysis.aet).abs() < 1e-9);
    }

    #[test]
    fn event_counts_track_occurrence_boundaries() {
        let cells: Vec<_> = (0..6)
            .map(|i| {
                (
                    i,
                    0u32,
                    if i % 2 == 0 {
                        EventKind::Send
                    } else {
                        EventKind::Recv
                    },
                    64u64,
                    0.01f64,
                )
            })
            .collect();
        let analysis = extract_phases(&lt_of(1, &cells), &SimilarityConfig::default());
        let p = &analysis.phases[0];
        let occ = &p.occurrences[1];
        assert_eq!(occ.start_counts, vec![2]);
        assert_eq!(occ.end_counts, vec![4]);
    }

    #[test]
    fn single_shot_pattern_yields_one_phase_weight_one() {
        // The paper §6: an application with no communication
        // repetitiveness yields one phase of weight 1 covering everything.
        let cells = vec![
            (0, 0, EventKind::Send, 10, 0.01),
            (1, 0, EventKind::Send, 20, 0.01),
            (2, 0, EventKind::Send, 40, 0.01),
            (3, 0, EventKind::Recv, 80, 0.01),
        ];
        let analysis = extract_phases(&lt_of(1, &cells), &SimilarityConfig::default());
        assert_eq!(analysis.total_phases(), 1);
        assert_eq!(analysis.phases[0].weight, 1);
        assert!((analysis.phases[0].contribution() - analysis.aet).abs() < 1e-12);
    }

    #[test]
    fn relevant_filters_by_contribution() {
        // Iterative pattern dominating + a tiny unique prologue.
        let mut cells = vec![(0, 0, EventKind::Send, 999, 1e-6)];
        for i in 0..20 {
            cells.push((
                1 + i,
                0,
                if i % 2 == 0 {
                    EventKind::Send
                } else {
                    EventKind::Recv
                },
                64,
                0.05,
            ));
        }
        let analysis = extract_phases(&lt_of(1, &cells), &SimilarityConfig::default());
        let relevant = analysis.relevant(0.01);
        assert!(!relevant.is_empty());
        assert!(relevant.len() < analysis.total_phases() || analysis.total_phases() == 1);
        assert!(analysis.relevant_coverage(0.01) > 0.9);
    }

    #[test]
    fn multi_process_phases_span_processes() {
        // 2 processes alternating Send/Recv in lockstep.
        let mut cells = Vec::new();
        for i in 0..8 {
            let kind = if i % 2 == 0 {
                EventKind::Send
            } else {
                EventKind::Recv
            };
            cells.push((i, 0u32, kind, 64, 0.01));
            let kind2 = if i % 2 == 0 {
                EventKind::Recv
            } else {
                EventKind::Send
            };
            cells.push((i, 1u32, kind2, 64, 0.01));
        }
        let analysis = extract_phases(&lt_of(2, &cells), &SimilarityConfig::default());
        assert_eq!(analysis.nprocs, 2);
        let p = &analysis.phases[0];
        let events = p.pattern.iter().flatten().filter(|c| c.is_some()).count();
        assert_eq!(events, 4); // 2 ticks × 2 processes
    }

    #[test]
    fn empty_trace_has_no_phases() {
        let lt = LogicalTrace {
            nprocs: 2,
            ticks: vec![],
        };
        let analysis = extract_phases(&lt, &SimilarityConfig::default());
        assert_eq!(analysis.total_phases(), 0);
        assert_eq!(analysis.aet, 0.0);
        assert_eq!(analysis.reconstructed_aet(), 0.0);
    }

    /// A trace of `blocks` *distinct* phases of one length (so they all
    /// share one tick-count bucket), each occurring twice.
    fn varied_trace(blocks: u64) -> LogicalTrace {
        let mut cells = Vec::new();
        let mut t = 0;
        for rep in 0..blocks {
            // Each block: a Send/Recv pair whose size and compute time
            // are unique to the block (powers of two apart, far outside
            // the similarity ratios), repeated twice so every block
            // closes as its own phase.
            let size = 16 << (rep % 32);
            let compute = 1e-6 * 2f64.powi((rep / 32) as i32);
            for _ in 0..2 {
                cells.push((t, 0u32, EventKind::Send, size, compute));
                t += 1;
                cells.push((t, 0u32, EventKind::Recv, size, compute));
                t += 1;
            }
        }
        lt_of(1, &cells)
    }

    fn strip_timing(mut a: PhaseAnalysis) -> PhaseAnalysis {
        a.analysis_seconds = 0.0;
        a
    }

    fn extract_with(
        lt: &LogicalTrace,
        kernel: SimilarityKernel,
        parallelism: Option<usize>,
    ) -> PhaseAnalysis {
        let cfg = SimilarityConfig {
            parallelism,
            kernel,
            ..SimilarityConfig::default()
        };
        strip_timing(extract_phases(lt, &cfg))
    }

    #[test]
    fn soa_kernel_matches_scalar_oracle() {
        let lt = varied_trace(12);
        assert_eq!(
            extract_with(&lt, SimilarityKernel::Scalar, Some(1)),
            extract_with(&lt, SimilarityKernel::Soa, Some(1))
        );
    }

    /// `parallelism` is accepted for compatibility and read by nothing:
    /// every setting — unset, zero, many — extracts what one worker
    /// does, on both kernels.
    #[test]
    fn parallelism_has_no_effect_on_extraction() {
        let lt = varied_trace(12);
        for kernel in [SimilarityKernel::Scalar, SimilarityKernel::Soa] {
            let one = extract_with(&lt, kernel, Some(1));
            for parallelism in [None, Some(0), Some(8)] {
                assert_eq!(
                    extract_with(&lt, kernel, parallelism),
                    one,
                    "kernel = {kernel:?}, parallelism = {parallelism:?}"
                );
            }
        }
    }
}
