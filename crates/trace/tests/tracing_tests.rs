//! End-to-end tests: trace real simulated runs through the interposition
//! layer.

use pas2p_machine::{cluster_a, JitterModel, MappingPolicy, Work};
use pas2p_mpisim::{run_app, Mpi, ReduceOp, SimConfig};
use pas2p_trace::{
    decode_recovering, format, EventKind, InstrumentationModel, Trace, TraceCollector, Traced,
};
use std::sync::Arc;

fn quiet_machine() -> pas2p_machine::MachineModel {
    let mut m = cluster_a();
    m.jitter = JitterModel::none();
    m
}

/// Run a 4-rank ring program under tracing and return the trace.
fn traced_ring(iters: usize, model: InstrumentationModel) -> Trace {
    let n = 4;
    let collector = Arc::new(TraceCollector::new(n, "cluster-A", model));
    let cfg = SimConfig::new(quiet_machine(), n, MappingPolicy::Block);
    let col = collector.clone();
    run_app(&cfg, move |ctx| {
        let n = ctx.size();
        let rank = ctx.rank();
        let mut t = Traced::new(ctx, &col);
        let next = (rank + 1) % n;
        let prev = (rank + n - 1) % n;
        for _ in 0..iters {
            t.compute(Work::flops(1e7));
            t.send(next, 1, &[0u8; 256]);
            t.recv(Some(prev), Some(1));
            t.allreduce_f64(&[1.0], ReduceOp::Sum);
        }
        t.finish();
    });
    Arc::into_inner(collector).unwrap().into_trace()
}

#[test]
fn events_recorded_per_rank() {
    let t = traced_ring(5, InstrumentationModel::free());
    assert_eq!(t.nprocs, 4);
    for p in &t.procs {
        // 5 iterations × (send + recv + allreduce)
        assert_eq!(p.events.len(), 15);
    }
    t.validate().unwrap();
}

#[test]
fn event_kinds_follow_program_order() {
    let t = traced_ring(2, InstrumentationModel::free());
    let kinds: Vec<_> = t.procs[0].events.iter().map(|e| e.kind).collect();
    use pas2p_machine::CollectiveKind;
    assert_eq!(kinds[0], EventKind::Send);
    // recv and send both precede the collective
    assert_eq!(kinds[2], EventKind::Coll(CollectiveKind::Allreduce));
    assert_eq!(kinds[3], EventKind::Send);
}

#[test]
fn send_recv_relation_links_messages() {
    let t = traced_ring(3, InstrumentationModel::free());
    // Every send's msg_id on rank 0 must appear as a recv msg_id on rank 1.
    let sent: Vec<u64> = t.procs[0]
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Send)
        .map(|e| e.msg_id)
        .collect();
    let received: Vec<u64> = t.procs[1]
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Recv)
        .map(|e| e.msg_id)
        .collect();
    assert_eq!(sent, received);
    assert!(sent.iter().all(|&id| id > 0));
}

#[test]
fn collective_involves_whole_group() {
    let t = traced_ring(1, InstrumentationModel::free());
    for p in &t.procs {
        let coll = p.events.iter().find(|e| e.kind.is_collective()).unwrap();
        assert_eq!(coll.involved, 4);
        assert_eq!(coll.peer, None);
    }
}

#[test]
fn instrumentation_overhead_inflates_elapsed_time() {
    let free = traced_ring(20, InstrumentationModel::free());
    let paid = traced_ring(
        20,
        InstrumentationModel {
            per_event_seconds: 1e-3,
        },
    );
    assert!(
        paid.elapsed() > free.elapsed() + 0.02,
        "paid {} vs free {}",
        paid.elapsed(),
        free.elapsed()
    );
}

#[test]
fn physical_times_are_monotonic_per_process() {
    let t = traced_ring(10, InstrumentationModel::default());
    for p in &t.procs {
        for w in p.events.windows(2) {
            assert!(w[1].t_post >= w[0].t_complete - 1e-9);
        }
    }
}

#[test]
fn trace_binary_roundtrip_of_real_run() {
    let t = traced_ring(4, InstrumentationModel::default());
    let buf = format::encode(&t);
    assert_eq!(buf.len() as u64, t.size_bytes());
    let (back, report) = decode_recovering(&buf);
    assert!(!report.is_degraded(), "{}", report.render());
    assert_eq!(back, Some(t));
}

#[test]
fn trace_size_grows_with_events() {
    let small = traced_ring(2, InstrumentationModel::free());
    let large = traced_ring(20, InstrumentationModel::free());
    assert!(large.size_bytes() > small.size_bytes());
    assert_eq!(
        large.size_bytes() - small.size_bytes(),
        // 18 extra iterations × 3 events × 4 ranks × 56 bytes
        18 * 3 * 4 * pas2p_trace::EVENT_RECORD_BYTES
    );
}

/// The recorded size of every collective, at the root (rank 2) and at a
/// non-root rank (rank 0) of 4. Each rank's blocks have lengths of their
/// own, so a rule that records the largest block where it should record
/// the rank's own one (or the reverse) reads a different number.
#[test]
fn sizes_recorded_in_bytes() {
    let t = traced_ring(1, InstrumentationModel::free());
    let send = t.procs[0]
        .events
        .iter()
        .find(|e| e.kind == EventKind::Send)
        .unwrap();
    assert_eq!(send.size, 256);

    let n = 4;
    let root = 2;
    let collector = Arc::new(TraceCollector::new(
        n,
        "cluster-A",
        InstrumentationModel::free(),
    ));
    let cfg = SimConfig::new(quiet_machine(), n, MappingPolicy::Block);
    let col = collector.clone();
    run_app(&cfg, move |ctx| {
        let rank = ctx.rank() as usize;
        let is_root = rank == root as usize;
        let mut t = Traced::new(ctx, &col);
        t.barrier();
        t.bcast(root, is_root.then_some(40));
        t.reduce_f64(root, &[1.0; 3], ReduceOp::Sum);
        t.allreduce_f64(&[1.0; 2], ReduceOp::Max);
        t.allgather(8 + rank);
        t.alltoall((0..n as usize).map(|i| 100 * (rank + 1) + i).collect());
        t.gather(root, 20 + rank);
        let blocks = (0..n as usize).map(|i| 50 + i).collect();
        t.scatter(root, is_root.then_some(blocks));
        t.finish();
    });
    let trace = Arc::into_inner(collector).unwrap().into_trace();
    // (kind, size at the root, size at rank 0)
    let expected = [
        ("Coll(Barrier)", 0, 0),
        ("Coll(Bcast)", 40, 40),      // sent at the root, received elsewhere
        ("Coll(Reduce)", 24, 24),     // three f64 contributed
        ("Coll(Allreduce)", 16, 16),  // two f64 contributed
        ("Coll(Allgather)", 10, 8),   // own block, not the largest (11)
        ("Coll(Alltoall)", 303, 103), // largest block sent, not the own one
        ("Coll(Gather)", 22, 20),     // own block, not what the root gets
        ("Coll(Scatter)", 53, 50),    // largest sent at the root, own received elsewhere
    ];
    for (rank, at_root) in [(root as usize, true), (0, false)] {
        let events = &trace.procs[rank].events;
        assert_eq!(events.len(), expected.len(), "rank {rank}");
        for (e, row) in events.iter().zip(&expected) {
            let size = if at_root { row.1 } else { row.2 };
            let got = (format!("{:?}", e.kind), e.size, e.involved);
            assert_eq!(got, (row.0.to_string(), size, n), "rank {rank}");
        }
    }
}
