//! Property tests for decoder robustness: no sequence of byte mutations
//! applied to a valid trace buffer may panic the decoder, and a trace it
//! returns at all upholds `Trace::validate`.

mod common;

use common::{cases, Gen};
use pas2p_machine::CollectiveKind;
use pas2p_trace::{format, ingest, EventKind};
use pas2p_trace::{ProcessTrace, Trace, TraceEvent};

/// Cases per property (eight times what the suite was declared with:
/// without shrinking a case costs microseconds).
const CASES: u64 = 512;
/// Seeds that once failed; every property of this file runs them first.
const REPLAY: &[u64] = &[];

fn mk(number: u64, process: u32, kind: EventKind, nprocs: u32) -> TraceEvent {
    let coll = matches!(kind, EventKind::Coll(_));
    TraceEvent {
        number,
        process,
        t_post: number as f64,
        t_complete: number as f64 + 0.5,
        kind,
        peer: if coll {
            None
        } else {
            Some((process + 1) % nprocs)
        },
        tag: 2,
        size: 128,
        involved: if coll { nprocs } else { 1 },
        msg_id: number + 1,
        comm_id: if coll { 11 } else { 0 },
        wildcard: false,
    }
}

fn sample(nprocs: u32, events_per_rank: u64) -> Trace {
    Trace {
        nprocs,
        machine: "cluster-A".into(),
        procs: (0..nprocs)
            .map(|r| ProcessTrace {
                process: r,
                events: (0..events_per_rank)
                    .map(|i| {
                        mk(
                            i,
                            r,
                            match i % 3 {
                                0 => EventKind::Send,
                                1 => EventKind::Recv,
                                _ => EventKind::Coll(CollectiveKind::Allreduce),
                            },
                            nprocs,
                        )
                    })
                    .collect(),
                end_time: events_per_rank as f64,
            })
            .collect(),
    }
}

/// A small valid trace: 1, 2 or 4 ranks of 0..12 events each.
fn any_sample(g: &mut Gen) -> Trace {
    sample(g.pick(&[1, 2, 4]), g.range(0..12))
}

/// `buf` after up to 24 byte overwrites and a truncation to 0..=1000 ‰.
fn mutated(g: &mut Gen, mut buf: Vec<u8>) -> Vec<u8> {
    for _ in 0..g.range(0..24) {
        if !buf.is_empty() {
            let i = g.range(0..1 << 16) as usize % buf.len();
            buf[i] = g.range(0..256) as u8;
        }
    }
    buf.truncate(buf.len() * g.range(0..1001) as usize / 1000);
    buf
}

/// The recovering decoder never panics, and any trace it salvages
/// upholds the full `Trace::validate` contract no matter what the
/// mutations did.
#[test]
fn recovering_decode_salvages_valid_traces() {
    cases(REPLAY, CASES, |g| {
        let buf = format::encode(&any_sample(g));
        let buf = mutated(g, buf);
        let (trace, report) = ingest::decode_recovering(&buf);
        assert_eq!(report.bytes_total, buf.len() as u64);
        if let Some(t) = trace {
            assert!(t.validate().is_ok(), "salvaged trace violates invariants");
        } else {
            assert!(report.fatal.is_some());
        }
    });
}

/// An unmutated buffer always ingests losslessly at full confidence.
#[test]
fn clean_buffers_ingest_losslessly() {
    cases(REPLAY, CASES, |g| {
        let t = any_sample(g);
        let (got, report) = ingest::decode_recovering(&format::encode(&t));
        assert_eq!(got.as_ref(), Some(&t));
        assert!(!report.is_degraded());
    });
}
