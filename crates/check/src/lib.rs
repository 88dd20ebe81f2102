//! `pas2p-check`: a static invariant checker and MPI communication
//! analyzer for the PAS2P pipeline.
//!
//! Every stage of the reproduction produces an artifact with hard
//! invariants behind it: the physical trace must pair sends with
//! receives (§3.1's event relation), the logical trace must respect the
//! ordering rules of §3.2 (causality, tick exclusivity, collective
//! alignment), and the phase analysis and table must keep the
//! bookkeeping that makes `PET = Σ PhaseETᵢ × Wᵢ` (§4) an identity
//! rather than an estimate. This crate checks all of them after the
//! fact, as a linter: artifacts in, a [`CheckReport`] of
//! [`Diagnostic`]s out.
//!
//! # Rule families
//!
//! [`CheckEngine::run`] calls the five families below in this order on
//! the calling thread, then sorts the findings canonically and drops
//! duplicates ([`engine`]); the set is closed, and a new rule joins a
//! family and the [`RULES`] table.
//!
//! * **Ingest** ([`ingest_rules`]) — `INGEST-FATAL-001` (unusable trace
//!   buffer), `INGEST-RANK-001` (a rank never appeared),
//!   `INGEST-TRUNC-001` (section truncated), `INGEST-REC-001` (records
//!   quarantined), `INGEST-DUP-001` (records renumbered) — what the
//!   recovering decoder had to do to the input.
//! * **Trace** ([`trace_rules`]) — `P2P-MATCH-001`/`P2P-MATCH-002` (a
//!   send or a receive without its partner), `P2P-MATCH-003`/
//!   `P2P-MATCH-004`/`P2P-MATCH-005` (a matched pair disagrees on size,
//!   endpoints or tag), `WILD-RECV-001` (wildcard-source receives
//!   posted: where to look when a race is reported), `WFG-CYCLE-001`
//!   (the traced order deadlocks under deterministic replay).
//! * **Happens-before** ([`race_rules`], on the vector clocks of
//!   [`hb`]) — `MSG-RACE-001` (a wildcard receive's race changes the
//!   recorded event structure), `MSG-RACE-002` (a wildcard can steal a
//!   deterministic receive's message), `WILD-RECV-002` (symmetric race:
//!   order-dependent match, stable structure), `DLK-POT-001` (an
//!   alternative wildcard matching wedges — a deadlock the committed
//!   replay cannot see), `SIG-STAB-001` (phase occurrences overlap a
//!   race window; the signature is order-sensitive).
//! * **Model** ([`model_rules`]) — `LT-RECV-001` (a receive placed
//!   before its send), `MODEL-TICK-001` (two events of one process in a
//!   tick), `LT-COLL-001` (a collective split across ticks),
//!   `MODEL-ORDER-001` (program order broken on the tick axis),
//!   `MODEL-CONS-001` (events lost or invented by the relayout),
//!   `MODEL-SPAN-001` (phase occurrences with negative global spans —
//!   clock trouble in the input).
//! * **Signature** ([`signature_rules`]) — `SIG-W-001` (weight ≠
//!   occurrence count), `SIG-OCC-001` (occurrences do not tile the
//!   trace), `SIG-SIM-001`/`SIG-SIM-002` (similarity bookkeeping),
//!   `SIG-REL-001` (table rows disagree with the analysis),
//!   `SIG-ROW-001` (a table row without a measure window),
//!   `SIG-COV-001` (low relevant coverage), `PET-EQ-001` (the PET
//!   reconstruction identity fails), `PET-EQ-002` (the AET is not
//!   positive: the identity is undefined).
//!
//! # Use
//!
//! ```
//! use pas2p_check::{Artifacts, CheckEngine};
//!
//! let engine = CheckEngine::with_default_rules();
//! let report = engine.run(&Artifacts::empty());
//! assert!(report.is_clean());
//! assert_eq!(report.exit_code(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod engine;
pub mod hb;
pub mod ingest_rules;
pub mod model_rules;
pub mod race_rules;
mod rules;
pub mod sarif;
pub mod signature_rules;
pub mod trace_rules;

pub use diag::{Diagnostic, Location, Severity};
pub use engine::{Artifacts, CheckEngine, CheckReport};
pub use hb::{HbAnalysis, VectorClock};
pub use rules::RULES;
pub use sarif::{apply_baseline, to_sarif, Baseline, BASELINE_VERSION, SARIF_VERSION};
