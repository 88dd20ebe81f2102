//! Model tests against traces produced by real simulated runs.

use pas2p_machine::{cluster_a, JitterModel, MappingPolicy, Work};
use pas2p_model::{lamport_order, pas2p_order};
use pas2p_mpisim::{run_app, Mpi, ReduceOp, SimConfig};
use pas2p_trace::{EventKind, InstrumentationModel, Trace, TraceCollector, Traced};
use std::sync::Arc;

fn quiet_machine() -> pas2p_machine::MachineModel {
    let mut m = cluster_a();
    m.jitter = JitterModel::none();
    m
}

fn trace_program<F>(n: u32, f: F) -> Trace
where
    F: Fn(&mut Traced<'_, pas2p_mpisim::RankCtx>) + Send + Sync,
{
    let collector = Arc::new(TraceCollector::new(
        n,
        "cluster-A",
        InstrumentationModel::free(),
    ));
    let cfg = SimConfig::new(quiet_machine(), n, MappingPolicy::Block);
    let col = collector.clone();
    run_app(&cfg, move |ctx| {
        let mut t = Traced::new(ctx, &col);
        f(&mut t);
        t.finish();
    });
    Arc::into_inner(collector).unwrap().into_trace()
}

fn ring_trace(iters: usize) -> Trace {
    trace_program(4, move |t| {
        let n = t.size();
        let next = (t.rank() + 1) % n;
        let prev = (t.rank() + n - 1) % n;
        for _ in 0..iters {
            t.compute(Work::flops(1e7));
            t.send(next, 1, &[0u8; 128]);
            t.recv(Some(prev), Some(1));
            t.allreduce_f64(&[1.0], ReduceOp::Sum);
        }
    })
}

#[test]
fn ring_trace_orders_and_validates() {
    let trace = ring_trace(6);
    let logical = pas2p_order(&trace);
    logical.validate_against(&trace).unwrap();
    assert_eq!(logical.total_events(), trace.total_events());
}

#[test]
fn collectives_occupy_shared_ticks() {
    let trace = ring_trace(3);
    let logical = pas2p_order(&trace);
    let coll_ticks: Vec<usize> = logical
        .ticks
        .iter()
        .enumerate()
        .filter(|(_, tk)| tk.events.iter().any(|e| e.kind.is_collective()))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(coll_ticks.len(), 3, "one collective tick per iteration");
    for i in coll_ticks {
        assert_eq!(
            logical.ticks[i].events.len(),
            4,
            "all 4 ranks synchronize in the collective tick"
        );
    }
}

#[test]
fn logical_trace_is_machine_independent() {
    // Same program on two machines: physical times differ, logical shape
    // must be identical (the model strips machine effects).
    let shape = |trace: &Trace| -> Vec<Vec<(u32, EventKind)>> {
        pas2p_order(trace)
            .ticks
            .iter()
            .map(|tk| tk.events.iter().map(|e| (e.process, e.kind)).collect())
            .collect()
    };
    let prog = |t: &mut Traced<'_, pas2p_mpisim::RankCtx>| {
        let n = t.size();
        let next = (t.rank() + 1) % n;
        let prev = (t.rank() + n - 1) % n;
        for _ in 0..4 {
            t.compute(Work::flops(2e7));
            t.send(next, 1, &[0u8; 64]);
            t.recv(Some(prev), Some(1));
        }
        t.barrier();
    };

    let ta = {
        let collector = Arc::new(TraceCollector::new(4, "A", InstrumentationModel::free()));
        let cfg = SimConfig::new(quiet_machine(), 4, MappingPolicy::Block);
        let col = collector.clone();
        run_app(&cfg, move |ctx| {
            let mut t = Traced::new(ctx, &col);
            prog(&mut t);
            t.finish();
        });
        Arc::into_inner(collector).unwrap().into_trace()
    };
    let tc = {
        let mut m = pas2p_machine::cluster_c();
        m.jitter = JitterModel::none();
        let collector = Arc::new(TraceCollector::new(4, "C", InstrumentationModel::free()));
        let cfg = SimConfig::new(m, 4, MappingPolicy::Block);
        let col = collector.clone();
        run_app(&cfg, move |ctx| {
            let mut t = Traced::new(ctx, &col);
            prog(&mut t);
            t.finish();
        });
        Arc::into_inner(collector).unwrap().into_trace()
    };
    assert_eq!(shape(&ta), shape(&tc));
}

#[test]
fn lamport_also_validates_on_real_traces() {
    let trace = ring_trace(5);
    let logical = lamport_order(&trace);
    logical.validate_against(&trace).unwrap();
    assert_eq!(logical.total_events(), trace.total_events());
}

#[test]
fn master_worker_with_any_source_orders() {
    // Master receives with ANY_SOURCE — the nondeterministic pattern the
    // PAS2P ordering is designed for.
    let trace = trace_program(4, |t| {
        let n = t.size();
        if t.rank() == 0 {
            for _round in 0..3 {
                for _ in 1..n {
                    let m = t.recv(None, Some(1));
                    t.send(m.src, 2, b"task");
                }
            }
        } else {
            for _round in 0..3 {
                t.send(0, 1, b"ready");
                t.recv(Some(0), Some(2));
                t.compute(Work::flops(5e6));
            }
        }
    });
    let logical = pas2p_order(&trace);
    logical.validate_against(&trace).unwrap();
}

#[test]
fn ordering_is_deterministic() {
    let trace = ring_trace(4);
    assert_eq!(pas2p_order(&trace), pas2p_order(&trace));
}
