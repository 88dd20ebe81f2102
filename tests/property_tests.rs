//! Property-based tests over the PAS2P core data structures and
//! invariants, driven by randomly generated (but deadlock-free) parallel
//! programs executed on the real runtime.

use proptest::prelude::*;

use pas2p_machine::{cluster_a, JitterModel, MappingPolicy, Work};
use pas2p_model::{lamport_order, pas2p_order};
use pas2p_mpisim::{run_app, Mpi, ReduceOp, SimConfig};
use pas2p_phases::{extract_phases, CellSig, SimilarityConfig};
use pas2p_trace::{format, EventKind, InstrumentationModel, Trace, TraceCollector, Traced};
use std::sync::Arc;

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

fn round_strategy(n: u32) -> impl Strategy<Value = Round> {
    prop_oneof![
        (1..n.max(2), 1usize..2048).prop_map(|(k, bytes)| Round::Shift { k, bytes }),
        (0..ilog2(n).max(1), 1usize..2048)
            .prop_map(|(b, bytes)| Round::Exchange { mask: 1 << b, bytes }),
        (1usize..16).prop_map(|len| Round::Allreduce { len }),
        Just(Round::Barrier),
        (0..n).prop_map(|root| Round::Gather { root }),
        (1e5..1e8).prop_map(|flops| Round::Compute { flops }),
    ]
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
                    t.gather(*root % size, vec![rank as u8].into());
                }
                Round::Compute { flops } => t.compute(Work::flops(*flops)),
            }
        }
        t.finish();
    });
    Arc::into_inner(collector).unwrap().into_trace()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any trace from a real execution orders into a valid logical trace
    /// under both orderings, preserving every event.
    #[test]
    fn ordering_invariants_hold_for_random_programs(
        n in prop_oneof![Just(2u32), Just(3), Just(4), Just(8)],
        rounds in prop::collection::vec(round_strategy(8), 1..12),
    ) {
        let rounds: Vec<Round> = rounds;
        let trace = run_rounds(n, &rounds);
        prop_assert!(trace.validate().is_ok());

        for logical in [pas2p_order(&trace), lamport_order(&trace)] {
            prop_assert!(logical.validate_against(&trace).is_ok());
            prop_assert_eq!(logical.total_events(), trace.total_events());
            // Receives never precede their sends on the tick axis.
            let mut seen_sends = std::collections::HashSet::new();
            for tick in &logical.ticks {
                for e in &tick.events {
                    if e.kind == EventKind::Recv {
                        prop_assert!(
                            seen_sends.contains(&e.msg_id),
                            "recv of msg {} before its send", e.msg_id
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
    #[test]
    fn phase_occurrences_tile_random_traces(
        n in prop_oneof![Just(2u32), Just(4)],
        rounds in prop::collection::vec(round_strategy(4), 1..10),
        repeats in 1usize..6,
    ) {
        let rounds: Vec<Round> = rounds;
        // Repeat the program to give the extractor something to merge.
        let repeated: Vec<Round> =
            std::iter::repeat_n(rounds, repeats).flatten().collect();
        let trace = run_rounds(n, &repeated);
        let logical = pas2p_order(&trace);
        let analysis = extract_phases(&logical, &SimilarityConfig::default());

        let mut spans: Vec<(usize, usize)> = analysis
            .phases
            .iter()
            .flat_map(|p| p.occurrences.iter().map(|o| (o.start_tick, o.end_tick)))
            .collect();
        spans.sort_unstable();
        if !logical.is_empty() {
            prop_assert_eq!(spans.first().unwrap().0, 0);
            prop_assert_eq!(spans.last().unwrap().1, logical.len());
            for w in spans.windows(2) {
                prop_assert_eq!(w[0].1, w[1].0);
            }
            let err = (analysis.reconstructed_aet() - analysis.aet).abs();
            prop_assert!(err <= 1e-6 * analysis.aet.max(1.0));
            // Weights sum to the number of occurrences.
            let occs: usize = analysis.phases.iter().map(|p| p.occurrences.len()).sum();
            let weights: u64 = analysis.phases.iter().map(|p| p.weight).sum();
            prop_assert_eq!(occs as u64, weights);
        }
    }

    /// The trace binary codec round-trips arbitrary real traces.
    #[test]
    fn trace_codec_roundtrips_random_traces(
        n in prop_oneof![Just(2u32), Just(4)],
        rounds in prop::collection::vec(round_strategy(4), 1..8),
    ) {
        let rounds: Vec<Round> = rounds;
        let trace = run_rounds(n, &rounds);
        let encoded = format::encode(&trace);
        prop_assert_eq!(encoded.len() as u64, trace.size_bytes());
        let decoded = format::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, trace);
    }

    /// Cell similarity is reflexive and symmetric for arbitrary cells.
    #[test]
    fn similarity_is_reflexive_and_symmetric(
        size_a in 1u64..1_000_000,
        size_b in 1u64..1_000_000,
        ca in 0.0f64..10.0,
        cb in 0.0f64..10.0,
        kind_a in 0u8..2,
        kind_b in 0u8..2,
    ) {
        let cfg = SimilarityConfig::default();
        let mk = |k: u8, size, compute| CellSig {
            kind: if k == 0 { EventKind::Send } else { EventKind::Recv },
            peer_offset: Some(1),
            size,
            compute_before: compute,
        };
        let a = mk(kind_a, size_a, ca);
        let b = mk(kind_b, size_b, cb);
        prop_assert!(cfg.cells_similar(Some(&a), Some(&a)), "reflexive");
        prop_assert_eq!(
            cfg.cells_similar(Some(&a), Some(&b)),
            cfg.cells_similar(Some(&b), Some(&a)),
            "symmetric"
        );
    }

    /// The compressed codec round-trips arbitrary real traces up to
    /// nanosecond time quantization.
    #[test]
    fn compressed_codec_roundtrips_random_traces(
        n in prop_oneof![Just(2u32), Just(4)],
        rounds in prop::collection::vec(round_strategy(4), 1..8),
    ) {
        let rounds: Vec<Round> = rounds;
        let trace = run_rounds(n, &rounds);
        let packed = pas2p_trace::compress(&trace);
        let back = pas2p_trace::decompress(&packed).unwrap();
        prop_assert_eq!(back.nprocs, trace.nprocs);
        prop_assert_eq!(back.total_events(), trace.total_events());
        for (a, b) in trace.procs.iter().zip(&back.procs) {
            for (x, y) in a.events.iter().zip(&b.events) {
                prop_assert_eq!(x.kind, y.kind);
                prop_assert_eq!(x.peer, y.peer);
                prop_assert_eq!(x.size, y.size);
                prop_assert_eq!(x.msg_id, y.msg_id);
                prop_assert!((x.t_post - y.t_post).abs() < 1e-8);
                prop_assert!((x.t_complete - y.t_complete).abs() < 1e-8);
            }
        }
    }

    /// The compressed decoder never panics on garbage either.
    #[test]
    fn compressed_decoder_rejects_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = pas2p_trace::decompress(&bytes);
    }

    /// The trace decoder never panics on arbitrary byte soup (failure
    /// injection: corrupted tracefiles must produce errors, not crashes).
    #[test]
    fn trace_decoder_rejects_garbage_gracefully(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = format::decode(&bytes); // Ok or Err, never panic
    }

    /// Flipping a single byte of a valid trace either decodes to *some*
    /// trace or errors — never panics.
    #[test]
    fn trace_decoder_survives_single_byte_corruption(
        pos_frac in 0.0f64..1.0,
        val in any::<u8>(),
    ) {
        let trace = run_rounds(2, &[Round::Allreduce { len: 2 }]);
        let mut buf = format::encode(&trace);
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] = val;
        let _ = format::decode(&buf);
    }

    /// Equation 1 is linear in the weights.
    #[test]
    fn prediction_is_linear_in_weights(
        ets in prop::collection::vec(1e-6f64..10.0, 1..8),
        weights in prop::collection::vec(1u64..100_000, 8),
        k in 2u64..5,
    ) {
        use pas2p_signature::{PhaseMeasurement, Prediction};
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
            Prediction::from_measurements(
                "p".into(), "a".into(), "b".into(), 1, ms, 0.0,
            )
            .pet
        };
        let p1 = mk(1);
        let pk = mk(k);
        prop_assert!((pk - k as f64 * p1).abs() < 1e-6 * pk.abs().max(1.0));
    }
}
