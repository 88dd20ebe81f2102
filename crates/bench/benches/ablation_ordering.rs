//! Ablation: the PAS2P receive ordering vs plain Lamport ordering
//! (DESIGN.md ablation 1 — the paper's §3.2 motivation).
//!
//! "There is a non-deterministic ordering of receives": within one run, a
//! process that receives two messages sent from *different logical
//! depths* sees them in an order that varies with network timing. Under
//! happened-before (Lamport) the receive's logical time is
//! `max(local, send LT + 1)`, so the delivery order changes the tick
//! layout of otherwise-identical iterations — they stop merging and the
//! phase count explodes, degrading prediction ("the prediction quality
//! was falling"). The PAS2P rule fixes receptions at `send LT + 1` and
//! permutes receive LTs into ascending order, making the layout
//! delivery-invariant.
//!
//! We build the paper's exact scenario as a trace: an iterative exchange
//! where the producer's two messages per round depart from staggered
//! logical depths and the consumer's delivery order flips from round to
//! round (the network's nondeterminism), then extract phases under both
//! orderings.

use pas2p_bench::paper_reference;
use pas2p_model::{lamport_order, pas2p_order};
use pas2p_phases::{extract_phases, SimilarityConfig};
use pas2p_trace::{EventKind, ProcessTrace, Trace, TraceEvent};

fn ev(number: u64, process: u32, kind: EventKind, peer: u32, msg_id: u64, t: f64) -> TraceEvent {
    TraceEvent {
        number,
        process,
        t_post: t,
        t_complete: t + 0.002,
        kind,
        peer: Some(peer),
        tag: 0,
        size: 256,
        involved: 1,
        msg_id,
        comm_id: 0,
        wildcard: false,
    }
}

/// 2-process iterative exchange, `rounds` rounds. Each round P0 sends two
/// messages (from staggered logical depths: a filler send to itself sits
/// between them) and P1 receives both. On odd rounds the network delivers
/// them swapped.
fn noisy_trace(rounds: u64) -> Trace {
    let mut p0 = Vec::new();
    let mut p1 = Vec::new();
    let mut t = 0.0;
    for r in 0..rounds {
        let (a, b) = (10 * r + 1, 10 * r + 2);
        t += 0.01;
        p0.push(ev(p0.len() as u64, 0, EventKind::Send, 1, a, t));
        t += 0.01;
        // Filler: P0's second message departs one logical step deeper.
        p0.push(ev(p0.len() as u64, 0, EventKind::Send, 1, b, t));
        // P1 receives the pair; odd rounds deliver them swapped.
        let (first, second) = if r % 2 == 0 { (a, b) } else { (b, a) };
        t += 0.01;
        p1.push(ev(p1.len() as u64, 1, EventKind::Recv, 0, first, t));
        t += 0.01;
        p1.push(ev(p1.len() as u64, 1, EventKind::Recv, 0, second, t));
        // P1 acknowledges, closing the round.
        t += 0.01;
        p1.push(ev(p1.len() as u64, 1, EventKind::Send, 0, 10 * r + 3, t));
        t += 0.005;
        p0.push(ev(p0.len() as u64, 0, EventKind::Recv, 1, 10 * r + 3, t));
    }
    Trace {
        nprocs: 2,
        machine: "ablation".into(),
        procs: vec![
            ProcessTrace {
                process: 0,
                end_time: t,
                events: p0,
            },
            ProcessTrace {
                process: 1,
                end_time: t,
                events: p1,
            },
        ],
    }
}

fn main() {
    println!("================================================================");
    println!("Ablation: PAS2P ordering vs Lamport ordering");
    println!("================================================================");

    let trace = noisy_trace(40);
    let cfg = SimilarityConfig::default();

    let pas2p_analysis = extract_phases(&pas2p_order(&trace), &cfg);
    let lamport_analysis = extract_phases(&lamport_order(&trace), &cfg);

    let report = |name: &str, a: &pas2p_phases::PhaseAnalysis| {
        let max_w = a.phases.iter().map(|p| p.weight).max().unwrap_or(0);
        println!(
            "  {:<8}: {:>3} unique phases, dominant weight {:>3}, relevant {}",
            name,
            a.total_phases(),
            max_w,
            a.relevant(0.01).len()
        );
        max_w
    };
    println!("\n40 rounds, delivery order flipping every round:");
    let w_pas2p = report("PAS2P", &pas2p_analysis);
    let w_lamport = report("Lamport", &lamport_analysis);

    println!(
        "\nPAS2P phase weights  : {:?}",
        pas2p_analysis
            .phases
            .iter()
            .map(|p| p.weight)
            .collect::<Vec<_>>()
    );
    println!(
        "Lamport phase weights: {:?}",
        lamport_analysis
            .phases
            .iter()
            .map(|p| p.weight)
            .collect::<Vec<_>>()
    );
    println!(
        "\n=> Under PAS2P the dominant phase repeats exactly once per round\n\
         (weight {} = 40 rounds): the flipped deliveries collapse onto one\n\
         layout. Under Lamport the delivery order leaks into the logical\n\
         layout, so the cuts no longer align with the iteration structure\n\
         (dominant weight {} ≠ rounds) — the weights Equation 1 relies on\n\
         stop describing the application's real repetition.",
        w_pas2p, w_lamport
    );
    assert_eq!(
        w_pas2p, 40,
        "PAS2P's dominant phase must repeat once per round"
    );
    assert!(
        pas2p_analysis.phases.iter().any(|p| p.weight == 40),
        "PAS2P must find the per-round phase"
    );
    assert_ne!(
        w_lamport, 40,
        "Lamport's cuts should not align with the iteration structure here"
    );

    paper_reference(&[
        "§3.2: \"When we increased the number of processes, we found that the",
        "prediction quality was falling… this problem occurred because there",
        "is a non-deterministic ordering of receives\" — fixed by modeling a",
        "reception at LT+1 (\"and never afterwards\") plus the LTRecv",
        "permutation of Figs 4-5.",
    ]);
}
