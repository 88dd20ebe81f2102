//! Pattern identification (paper §3.3) and the phase table (§3.4).
//!
//! Parallel applications are highly repetitive; PAS2P exploits this by
//! cutting the logical trace into *phases* — the longest tick ranges that
//! do not repeat a communication within any process — and deduplicating
//! them with a similarity criterion. Each unique phase accumulates a
//! *weight* (its repetition count); phases whose `weight × execution time`
//! reaches 1 % of the application runtime are *relevant* and become the
//! constituents of the signature.
//!
//! The extraction algorithm follows the paper's six steps (Fig 6):
//!
//! 1. a Startpoint opens a phase at a tick;
//! 2. the phase extends tick by tick;
//! 3. …until an event with the same communication type recurs in some
//!    process;
//! 4. if the first occurrence sits at the Startpoint the candidate phase
//!    closes there; otherwise the range splits into sub-phases *a* (before
//!    the first occurrence) and *b* (between the two occurrences);
//! 5. the candidate is looked up among the saved phases by similarity
//!    (equal tick count; per-event: same communication type and similar
//!    volume, compute time ≥ 85 % similar, absent-vs-anything counts as
//!    similar; the phase matches when ≥ 80 % of its events are similar) —
//!    a match increments the weight, otherwise a new phase is saved;
//! 6. a new Startpoint opens where the last saved phase ended.
//!
//! All thresholds live in [`SimilarityConfig`] (the 80 % value is
//! explicitly "configurable" in the paper; the ablation benches sweep
//! them).

#![forbid(unsafe_code)]

pub mod extract;
pub mod sig;
pub mod soa;
pub mod table;

pub use extract::{extract_phases, pattern_of, Occurrence, Pattern, Phase, PhaseAnalysis};
pub use sig::{CellSig, SimilarityConfig, SimilarityKernel};
pub use soa::{BandStats, MatchStats, SoaIndex, SoaPattern};
pub use table::{MeasureWindow, PhaseRow, PhaseTable};
