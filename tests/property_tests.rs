//! Property-based tests over the PAS2P core data structures and
//! invariants, driven by randomly generated (but deadlock-free) parallel
//! programs executed on the real runtime.

mod common;

use common::{cases, Gen};
use pas2p_machine::{cluster_a, JitterModel, MappingPolicy, Work};
use pas2p_model::{lamport_order, pas2p_order};
use pas2p_mpisim::{run_app, Mpi, ReduceOp, SimConfig};
use pas2p_phases::{extract_phases, CellSig, SimilarityConfig};
use pas2p_trace::{
    decode_recovering, format, EventKind, InstrumentationModel, Trace, TraceCollector, Traced,
};
use std::sync::Arc;

/// Cases per property (four times what the suite was declared with; a
/// case is a simulated run of at most a dozen rounds).
const CASES: u64 = 96;
/// Seeds that once failed; every property of this file runs them first.
const REPLAY: &[u64] = &[];

/// A deadlock-free communication round, randomly chosen.
#[derive(Debug, Clone)]
enum Round {
    /// Ring shift by `k`.
    Shift { k: u32, bytes: usize },
    /// Pairwise exchange with the rank XOR `mask`.
    Exchange { mask: u32, bytes: usize },
    /// World allreduce.
    Allreduce { len: usize },
    /// Barrier.
    Barrier,
    /// Gather to a root.
    Gather { root: u32 },
    /// Pure compute.
    Compute { flops: f64 },
}

/// One round drawn for a world of `n` ranks, each kind as likely as any.
fn round(g: &mut Gen, n: u32) -> Round {
    let mut below = |lo: u32, hi: u32| g.range(lo.into()..hi.into()) as u32;
    match below(0, 6) {
        0 => Round::Shift {
            k: below(1, n.max(2)),
            bytes: below(1, 2048) as usize,
        },
        1 => Round::Exchange {
            mask: 1 << below(0, ilog2(n).max(1)),
            bytes: below(1, 2048) as usize,
        },
        2 => Round::Allreduce {
            len: below(1, 16) as usize,
        },
        3 => Round::Barrier,
        4 => Round::Gather { root: below(0, n) },
        _ => Round::Compute {
            flops: g.float(1e5..1e8),
        },
    }
}

fn ilog2(n: u32) -> u32 {
    31 - n.leading_zeros()
}

fn run_rounds(n: u32, rounds: &[Round]) -> Trace {
    let mut machine = cluster_a();
    machine.jitter = JitterModel::none();
    let collector = Arc::new(TraceCollector::new(n, "prop", InstrumentationModel::free()));
    let cfg = SimConfig::new(machine, n, MappingPolicy::Block);
    let col = collector.clone();
    run_app(&cfg, move |ctx| {
        let rank = ctx.rank();
        let size = ctx.size();
        let mut t = Traced::new(ctx, &col);
        for (i, round) in rounds.iter().enumerate() {
            let tag = i as u32;
            match round {
                Round::Shift { k, bytes } => {
                    // The strategy draws shifts for the largest size;
                    // reduce into this run's world (0 = self-shift, fine).
                    let k = k % size;
                    let dest = (rank + k) % size;
                    let src = (rank + size - k) % size;
                    t.send(dest, tag, &vec![1u8; *bytes]);
                    t.recv(Some(src), Some(tag));
                }
                Round::Exchange { mask, bytes } => {
                    let peer = rank ^ mask;
                    if peer < size && peer != rank {
                        t.send(peer, tag, &vec![2u8; *bytes]);
                        t.recv(Some(peer), Some(tag));
                    }
                }
                Round::Allreduce { len } => {
                    t.allreduce_f64(&vec![1.0; *len], ReduceOp::Sum);
                }
                Round::Barrier => t.barrier(),
                Round::Gather { root } => {
                    // The strategy draws roots for the largest size; clamp
                    // into this run's world.
                    t.gather(*root % size, 1);
                }
                Round::Compute { flops } => t.compute(Work::flops(*flops)),
            }
        }
        t.finish();
    });
    Arc::into_inner(collector).unwrap().into_trace()
}

/// Any trace from a real execution orders into a valid logical trace
/// under both orderings, preserving every event.
fn ordering_invariants_hold(n: u32, rounds: &[Round]) {
    let trace = run_rounds(n, rounds);
    assert!(trace.validate().is_ok());

    for logical in [pas2p_order(&trace), lamport_order(&trace)] {
        assert!(logical.validate_against(&trace).is_ok());
        assert_eq!(logical.total_events(), trace.total_events());
        // Receives never precede their sends on the tick axis.
        let mut seen_sends = std::collections::HashSet::new();
        for tick in &logical.ticks {
            for e in &tick.events {
                if e.kind == EventKind::Recv {
                    assert!(
                        seen_sends.contains(&e.msg_id),
                        "recv of msg {} before its send",
                        e.msg_id
                    );
                }
            }
            for e in &tick.events {
                if e.kind == EventKind::Send {
                    seen_sends.insert(e.msg_id);
                }
            }
        }
    }
}

/// Phase occurrences always tile the logical trace contiguously and
/// reconstruct the AET.
fn phase_occurrences_tile(n: u32, rounds: &[Round]) {
    let trace = run_rounds(n, rounds);
    let logical = pas2p_order(&trace);
    let analysis = extract_phases(&logical, &SimilarityConfig::default());

    let mut spans: Vec<(usize, usize)> = analysis
        .phases
        .iter()
        .flat_map(|p| p.occurrences.iter().map(|o| (o.start_tick, o.end_tick)))
        .collect();
    spans.sort_unstable();
    if !logical.is_empty() {
        assert_eq!(spans.first().unwrap().0, 0);
        assert_eq!(spans.last().unwrap().1, logical.len());
        for w in spans.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        let err = (analysis.reconstructed_aet() - analysis.aet).abs();
        assert!(err <= 1e-6 * analysis.aet.max(1.0));
        // Weights sum to the number of occurrences.
        let occs: usize = analysis.phases.iter().map(|p| p.occurrences.len()).sum();
        let weights: u64 = analysis.phases.iter().map(|p| p.weight).sum();
        assert_eq!(occs as u64, weights);
    }
}

/// The trace binary codec round-trips arbitrary real traces.
fn trace_codec_roundtrips(n: u32, rounds: &[Round]) {
    let trace = run_rounds(n, rounds);
    let encoded = format::encode(&trace);
    assert_eq!(encoded.len() as u64, trace.size_bytes());
    let (decoded, report) = decode_recovering(&encoded);
    assert!(!report.is_degraded(), "{}", report.render());
    assert_eq!(decoded, Some(trace));
}

#[test]
fn ordering_invariants_hold_for_random_programs() {
    cases(REPLAY, CASES, |g| {
        let n = g.pick(&[2, 3, 4, 8]);
        ordering_invariants_hold(n, &g.vec(1..12, |g| round(g, 8)));
    });
}

#[test]
fn phase_occurrences_tile_random_traces() {
    cases(REPLAY, CASES, |g| {
        let n = g.pick(&[2, 4]);
        let rounds = g.vec(1..10, |g| round(g, 4));
        // Repeat the program to give the extractor something to merge.
        let repeats = g.range(1..6) as usize;
        let repeated: Vec<Round> = std::iter::repeat_n(rounds, repeats).flatten().collect();
        phase_occurrences_tile(n, &repeated);
    });
}

#[test]
fn trace_codec_roundtrips_random_traces() {
    cases(REPLAY, CASES, |g| {
        let n = g.pick(&[2, 4]);
        trace_codec_roundtrips(n, &g.vec(1..8, |g| round(g, 4)));
    });
}

/// Rounds are drawn for the largest world and run in a smaller one: the
/// two shrunk programs that once escaped theirs, under every property
/// that runs a program.
fn program_properties_hold(n: u32, rounds: &[Round]) {
    ordering_invariants_hold(n, rounds);
    phase_occurrences_tile(n, rounds);
    trace_codec_roundtrips(n, rounds);
}

#[test]
fn a_shift_wider_than_the_world_wraps_into_it() {
    program_properties_hold(2, &[Round::Shift { k: 3, bytes: 1 }]);
}

#[test]
fn a_gather_root_beyond_the_world_wraps_into_it() {
    program_properties_hold(2, &[Round::Gather { root: 2 }]);
}

/// Cell similarity is reflexive and symmetric for arbitrary cells.
#[test]
fn similarity_is_reflexive_and_symmetric() {
    cases(REPLAY, CASES, |g| {
        let cfg = SimilarityConfig::default();
        let mut cell = || CellSig {
            kind: g.pick(&[EventKind::Send, EventKind::Recv]),
            peer_offset: Some(1),
            size: g.range(1..1_000_000),
            compute_before: g.float(0.0..10.0),
        };
        let (a, b) = (cell(), cell());
        assert!(cfg.cells_similar(Some(&a), Some(&a)), "reflexive");
        assert_eq!(
            cfg.cells_similar(Some(&a), Some(&b)),
            cfg.cells_similar(Some(&b), Some(&a)),
            "symmetric"
        );
    });
}

/// The trace decoder never panics on arbitrary byte soup (failure
/// injection: corrupted tracefiles must produce reports, not crashes).
#[test]
fn trace_decoder_rejects_garbage_gracefully() {
    cases(REPLAY, CASES, |g| {
        let bytes = g.vec(0..512, |g| g.range(0..256) as u8);
        let _ = decode_recovering(&bytes); // a report, never a panic
    });
}

/// Flipping a single byte of a valid trace either decodes to *some*
/// trace or is fatal — never panics.
#[test]
fn trace_decoder_survives_single_byte_corruption() {
    let trace = run_rounds(2, &[Round::Allreduce { len: 2 }]);
    let clean = format::encode(&trace);
    cases(REPLAY, CASES, |g| {
        let mut buf = clean.clone();
        let pos = g.range(0..buf.len() as u64) as usize;
        buf[pos] = g.range(0..256) as u8;
        let _ = decode_recovering(&buf);
    });
}

/// Equation 1 is linear in the weights.
#[test]
fn prediction_is_linear_in_weights() {
    use pas2p_signature::{PhaseMeasurement, Prediction};
    cases(REPLAY, CASES, |g| {
        let ets = g.vec(1..8, |g| g.float(1e-6..10.0));
        let weights = g.vec(8..9, |g| g.range(1..100_000));
        let k = g.range(2..5);
        let mk = |scale: u64| -> f64 {
            let ms: Vec<PhaseMeasurement> = ets
                .iter()
                .zip(&weights)
                .map(|(&et, &w)| PhaseMeasurement {
                    phase_id: 0,
                    weight: w * scale,
                    phase_et: et,
                    measured_span: et,
                    restart_cost: 0.0,
                })
                .collect();
            Prediction::from_measurements("p".into(), "a".into(), "b".into(), 1, ms, 0.0).pet
        };
        let p1 = mk(1);
        let pk = mk(k);
        assert!((pk - k as f64 * p1).abs() < 1e-6 * pk.abs().max(1.0));
    });
}
