//! Regenerates the paper's Table 1 / Figs 3–5: the queue-based logical
//! ordering walkthrough and the physical→logical trace transformation.

use pas2p_bench::paper_reference;
use pas2p_model::{pas2p_order, pas2p_order_logged};
use pas2p_trace::{EventKind, ProcessTrace, Trace, TraceEvent};

fn ev(
    number: u64,
    process: u32,
    kind: EventKind,
    peer: Option<u32>,
    msg_id: u64,
    t: f64,
) -> TraceEvent {
    TraceEvent {
        number,
        process,
        t_post: t,
        t_complete: t + 0.05,
        kind,
        peer,
        tag: 0,
        size: 64,
        involved: 1,
        msg_id,
        comm_id: 0,
        wildcard: false,
    }
}

/// The 4-process, 6-events-per-process example of Fig 4 (paper event ids
/// are `process*6 + number + 1`).
fn example_trace() -> Trace {
    let procs: Vec<Vec<TraceEvent>> = (0..4u32)
        .map(|p| {
            (0..6u64)
                .map(|i| {
                    // Alternate sends/recvs pairing neighbours in a ring:
                    // even events send to the next process, odd events
                    // receive from the previous one.
                    let next = (p + 1) % 4;
                    let prev = (p + 3) % 4;
                    if i % 2 == 0 {
                        let msg = (p as u64) * 10 + i / 2 + 1;
                        ev(
                            i,
                            p,
                            EventKind::Send,
                            Some(next),
                            msg,
                            i as f64 + p as f64 * 0.1,
                        )
                    } else {
                        let msg = (prev as u64) * 10 + i / 2 + 1;
                        ev(
                            i,
                            p,
                            EventKind::Recv,
                            Some(prev),
                            msg,
                            i as f64 + p as f64 * 0.1,
                        )
                    }
                })
                .collect()
        })
        .collect();
    Trace {
        nprocs: 4,
        machine: "example".into(),
        procs: procs
            .into_iter()
            .enumerate()
            .map(|(r, events)| ProcessTrace {
                process: r as u32,
                end_time: events.last().map(|e| e.t_complete).unwrap_or(0.0),
                events,
            })
            .collect(),
    }
}

fn main() {
    println!("================================================================");
    println!("Fig 3-5 / Table 1: physical -> logical trace (PAS2P ordering)");
    println!("================================================================");

    let trace = example_trace();
    let (logical, log) = pas2p_order_logged(&trace);

    println!("\nTable 1 analog - dequeue order (paper ids = 6*process+number+1):");
    println!("{:<6} {:<10} {:<10}", "step", "drop-off", "paper id");
    for (step, &(p, n)) in log.iter().enumerate().take(12) {
        println!(
            "{:<6} P{}#{:<7} {:<10}",
            step + 1,
            p,
            n,
            p as u64 * 6 + n + 1
        );
    }

    println!("\nFig 5 analog - final logical trace (one row per tick):");
    println!("{:<6} P0        P1        P2        P3", "tick");
    for (t, tick) in logical.ticks.iter().enumerate() {
        let mut cells = vec!["-".to_string(); 4];
        for e in &tick.events {
            cells[e.process as usize] = match e.kind {
                EventKind::Send => format!("S->{}", e.peer.unwrap()),
                EventKind::Recv => format!("R<-{}", e.peer.unwrap()),
                EventKind::Coll(_) => "COLL".to_string(),
            };
        }
        println!(
            "{:<6} {:<9} {:<9} {:<9} {:<9}",
            t, cells[0], cells[1], cells[2], cells[3]
        );
    }

    // Invariants the figures demonstrate.
    logical
        .validate_against(&trace)
        .expect("valid logical trace");
    let recv_after_send = logical.ticks.iter().enumerate().all(|(t, tick)| {
        tick.events
            .iter()
            .filter(|e| e.kind == EventKind::Recv)
            .all(|r| {
                logical.ticks[..t]
                    .iter()
                    .flat_map(|tk| tk.events.iter())
                    .any(|s| s.kind == EventKind::Send && s.msg_id == r.msg_id)
            })
    });
    println!(
        "\ninvariants: one-event-per-process-per-tick OK, receives follow sends: {}",
        recv_after_send
    );
    assert!(recv_after_send);

    // Determinism (the Fig 3 property).
    let again = pas2p_order(&trace);
    assert_eq!(again, logical);
    println!("re-ordering is bit-identical: true");

    paper_reference(&[
        "Table 1 first column (drop-off): 1, 7, 13, 19, 2, 8, 14, 20, 3, ...",
        "Fig 3: a message sent at LT arrives at LT+1, never afterwards",
        "Fig 5: after permutation+splitting each (process, tick) holds <= 1 event",
    ]);
}
