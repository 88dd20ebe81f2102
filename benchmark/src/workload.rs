//! Workload generation: everything the program under test receives is
//! produced here from `--seed`, as request lines or trace bytes.

use crate::rng::{SplitMix64, Zipf};
use pas2p_machine::{JitterModel, MachineModel, MappingPolicy, Work};
use pas2p_mpisim::{run_app, Mpi, ReduceOp, SimConfig};
use pas2p_trace::{InstrumentationModel, TraceCollector, Traced};
use std::sync::Arc;

/// The workloads `BENCHMARK.json` lists, by those names.
pub const WORKLOADS: [&str; 2] = ["submit_cold", "predict_warm"];

/// Workloads the harness also runs and `BENCHMARK.json` leaves out:
/// every gated workload is one more figure that a slow quarter of an
/// hour of a shared machine can push past its bound, so only the
/// service's two main paths are gated. See the README's *Demoted*.
pub const UNGATED: [&str; 3] = ["analyze_trace", "mixed", "batch_cold"];

/// The catalog, in `pas2p-cli list` order.
pub const APPS: [&str; 11] = [
    "cg",
    "bt",
    "sp",
    "lu",
    "ft",
    "sweep3d",
    "smg2000",
    "pop",
    "moldy",
    "gromacs",
    "masterworker",
];

/// `mpisim` spawns one OS thread per rank, so applications stay small.
pub const NPROCS: [u32; 2] = [4, 8];

/// One application instance on one base machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    pub app: &'static str,
    pub nprocs: u32,
    pub base: char,
}

/// Every (app, nprocs) on each of `bases`, in canonical order.
pub fn tuples(bases: &[char]) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(bases.len() * NPROCS.len() * APPS.len());
    for &base in bases {
        for nprocs in NPROCS {
            for app in APPS {
                out.push(Tuple { app, nprocs, base });
            }
        }
    }
    out
}

/// The other machines a signature built on `base` can execute on.
/// Cluster D is IA-64 and checkpoints restart only on their own ISA,
/// so D pairs with nothing but itself.
pub fn foreign_targets(base: char) -> &'static [char] {
    match base {
        'A' => &['B', 'C'],
        'B' => &['A', 'C'],
        'C' => &['A', 'B'],
        'D' => &['D'],
        other => panic!("no machine preset '{other}'"),
    }
}

pub fn submit_line(t: Tuple) -> String {
    format!(
        r#"{{"op":"submit","app":"{}","nprocs":{},"base":"{}"}}"#,
        t.app, t.nprocs, t.base
    )
}

pub fn predict_line(t: Tuple, target: char) -> String {
    format!(
        r#"{{"op":"predict","app":"{}","nprocs":{},"base":"{}","target":"{}"}}"#,
        t.app, t.nprocs, t.base, target
    )
}

/// One `batch` over the whole catalog.
pub fn batch_line(nprocs: u32, base: char, targets: &[char], workers: usize) -> String {
    let apps: Vec<String> = APPS.iter().map(|a| format!("\"{a}\"")).collect();
    let targets: Vec<String> = targets.iter().map(|t| format!("\"{t}\"")).collect();
    format!(
        r#"{{"op":"batch","apps":[{}],"nprocs":{},"base":"{}","targets":[{}],"workers":{}}}"#,
        apps.join(","),
        nprocs,
        base,
        targets.join(","),
        workers
    )
}

/// What a request is, for grouping latencies and choosing its check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// A `submit` the store has never seen: Stage A runs.
    SubmitCold,
    /// A `predict` whose prediction is stored: served from the store.
    PredictWarm,
    /// A `predict` on a stored signature and a new target: Stage B only.
    PredictStageB,
    /// A `batch` over the catalog on an empty store.
    Batch,
}

/// One request of a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub class: Class,
    pub line: String,
    /// What its latency is grouped under: requests of one kind cost
    /// the same on a quiet machine.
    pub kind: String,
    /// For `PredictWarm`: index into [`warm_keys`]; otherwise unused.
    pub key: usize,
    /// How many operations the request stands for (a batch is one
    /// request and eleven Stage-A jobs).
    pub weight: u64,
}

impl Op {
    /// A request that stands for one operation, a kind of its own.
    pub fn new(class: Class, line: String) -> Op {
        Op {
            class,
            kind: line.clone(),
            line,
            key: 0,
            weight: 1,
        }
    }

    /// A cold `submit` of `t`. The base machine changes the virtual
    /// clock and not the work, so the kind is the application and its
    /// process count.
    pub fn submit(t: Tuple) -> Op {
        Op {
            kind: format!("{}/{}", t.app, t.nprocs),
            ..Op::new(Class::SubmitCold, submit_line(t))
        }
    }

    /// A `predict` of stored signature `t` on a target it has no
    /// prediction for yet: Stage B only.
    pub fn stage_b(t: Tuple, target: char) -> Op {
        Op {
            kind: format!("{}/{}", t.app, t.nprocs),
            ..Op::new(Class::PredictStageB, predict_line(t, target))
        }
    }

    /// A `predict` of stored prediction `key` of `warm_keys()`, read
    /// with `line`. Warm predicts differ only in the size of the
    /// stored reply, so they are one kind.
    pub fn warm(key: usize, line: String) -> Op {
        Op {
            key,
            kind: "warm".to_string(),
            ..Op::new(Class::PredictWarm, line)
        }
    }
}

/// The 11 signatures the warm store holds: the catalog at 4 processes
/// on base A. Priming is timed several times per run, so it is small.
pub fn primed_tuples() -> Vec<Tuple> {
    let mut primed = tuples(&['A']);
    primed.retain(|t| t.nprocs == NPROCS[0]);
    primed
}

/// The 22 (signature, target) pairs the warm store holds predictions
/// for: each primed tuple on its two foreign targets. Fixed order; a
/// Zipf rank is an index into this list, so seeds differ in the order
/// of requests and not in which keys are hot.
pub fn warm_keys() -> Vec<(Tuple, char)> {
    primed_tuples()
        .into_iter()
        .flat_map(|t| {
            foreign_targets(t.base)
                .iter()
                .map(move |&target| (t, target))
        })
        .collect()
}

/// Every (app, nprocs) once, each on a base drawn from `bases`.
fn catalog_on_drawn_bases(rng: &mut SplitMix64, bases: &[char]) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(NPROCS.len() * APPS.len());
    for nprocs in NPROCS {
        for app in APPS {
            let base = bases[rng.below(bases.len())];
            out.push(Tuple { app, nprocs, base });
        }
    }
    out
}

/// `submit_cold`: the catalog at 4 and 8 processes once — 22 submits,
/// each on a seeded base — shuffled. A pass is short so that a window
/// holds many, and some of them fall in a quiet moment of the machine.
pub fn submit_cold_pass(seed: u64, pass: u64) -> Vec<Op> {
    let mut rng = SplitMix64::fork(seed, &format!("submit_cold/{pass}"));
    let mut ops: Vec<Op> = catalog_on_drawn_bases(&mut rng, &['A', 'B', 'C', 'D'])
        .into_iter()
        .map(Op::submit)
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// Warm predicts of one `predict_warm` pass.
pub const PREDICT_WARM_PER_PASS: usize = 2_000;

fn warm_ops(rng: &mut SplitMix64, count: usize) -> Vec<Op> {
    let keys = warm_keys();
    let zipf = Zipf::new(keys.len());
    (0..count)
        .map(|_| {
            let key = zipf.sample(rng);
            let (tuple, target) = keys[key];
            Op::warm(key, predict_line(tuple, target))
        })
        .collect()
}

/// `predict_warm`: Zipf(1) draws over the 22 stored predictions.
pub fn predict_warm_pass(seed: u64, pass: u64) -> Vec<Op> {
    let mut rng = SplitMix64::fork(seed, &format!("predict_warm/{pass}"));
    warm_ops(&mut rng, PREDICT_WARM_PER_PASS)
}

/// Warm predicts the readers of one `mixed` pass cycle through.
pub const MIXED_WARM_PER_PASS: usize = 2_000;

/// `mixed`, one pass: what the writer sends, in this order, and what
/// the readers send beside it, round and round until the writer is
/// done.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedPass {
    /// Stage-B-only predicts (primed signatures, each on its own base,
    /// which priming left out) and cold submits (on a seeded base of C
    /// and D), shuffled: 20 requests that write to the store. None
    /// appears twice, so a pass needs a fresh copy of the primed store.
    /// The applications run at 4 processes, which keeps a pass short
    /// enough for a window to hold a dozen; `masterworker` is left out,
    /// because its run waits on timers for a third of a second and the
    /// readers would have the server to themselves.
    pub cold: Vec<Op>,
    /// Zipf(1) draws over the 22 stored predictions.
    pub warm: Vec<Op>,
}

pub fn mixed_pass(seed: u64, pass: u64) -> MixedPass {
    let mut rng = SplitMix64::fork(seed, &format!("mixed/{pass}"));
    let warm = warm_ops(&mut rng, MIXED_WARM_PER_PASS);
    let busy = |t: &Tuple| t.app != "masterworker" && t.nprocs == NPROCS[0];
    let mut cold: Vec<Op> = primed_tuples()
        .into_iter()
        .filter(busy)
        .map(|t| Op::stage_b(t, t.base))
        .collect();
    cold.extend(
        catalog_on_drawn_bases(&mut rng, &['C', 'D'])
            .into_iter()
            .filter(busy)
            .map(Op::submit),
    );
    rng.shuffle(&mut cold);
    MixedPass { cold, warm }
}

/// `batch_cold`: one `batch` per (nprocs, base), shuffled; each asks
/// for the base's foreign targets (D: itself).
pub fn batch_cold_pass(seed: u64, pass: u64, workers: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for base in ['A', 'B', 'C', 'D'] {
        let targets = foreign_targets(base);
        for nprocs in NPROCS {
            ops.push(Op {
                weight: APPS.len() as u64,
                ..Op::new(Class::Batch, batch_line(nprocs, base, targets, workers))
            });
        }
    }
    SplitMix64::fork(seed, &format!("batch_cold/{pass}")).shuffle(&mut ops);
    ops
}

/// Predictions a `batch_cold` request must return.
pub fn batch_predictions_expected(line: &str) -> usize {
    let targets = if line.contains(r#""base":"D""#) { 1 } else { 2 };
    APPS.len() * targets
}

/// One phase-diverse ring trace of `analyze_trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct RingTrace {
    pub name: String,
    pub nprocs: u32,
    pub variants: usize,
    pub bytes: Vec<u8>,
}

/// Ring variants per trace: the known-phase list grows to this length.
pub const RING_VARIANTS: [usize; 3] = [48, 96, 144];

/// Each variant body recurs this often, so every phase has a weight.
const RING_REPS_PER_VARIANT: usize = 5;

/// A ring exchange whose repetitions cycle through `variants` bodies of
/// equal communication structure and different sizes and compute, in a
/// seeded order — the shape `pas2p-cli bench-report` times its kernel
/// on, because catalog apps never grow the known-phase list past 12.
pub fn ring_trace(seed: u64, nprocs: u32, variants: usize) -> RingTrace {
    let mut order: Vec<usize> = (0..variants).collect();
    SplitMix64::fork(seed, &format!("ring/{nprocs}/{variants}")).shuffle(&mut order);
    let name = format!("varied-ring-{variants}x{nprocs}");
    let mut machine: MachineModel = pas2p_machine::cluster_a();
    machine.jitter = JitterModel::none();
    let collector = Arc::new(TraceCollector::new(
        nprocs,
        name.clone(),
        InstrumentationModel::free(),
    ));
    let sim = SimConfig::new(machine, nprocs, MappingPolicy::Block);
    let col = Arc::clone(&collector);
    let order = &order;
    run_app(&sim, move |ctx| {
        let size = ctx.size();
        let rank = ctx.rank();
        let mut t = Traced::new(ctx, &col);
        let next = (rank + 1) % size;
        let prev = (rank + size - 1) % size;
        let payload = vec![0u8; (16 << 12) + 16 * 16];
        for rep in 0..variants * RING_REPS_PER_VARIANT {
            let v = order[rep % variants];
            let bytes = 16usize << (v % 12);
            // Distinct per-send sizes keep the repetition scan from
            // cutting a window mid-body; the compute block carries the
            // variant's identity on every cell.
            for s in 0..16u32 {
                t.compute(Work::flops(1e4 * 1.2f64.powi(v as i32)));
                t.send(next, s, &payload[..bytes + 16 * s as usize]);
                t.recv(Some(prev), Some(s));
            }
            t.allreduce_f64(&[1.0], ReduceOp::Sum);
        }
        t.finish();
    });
    let trace = Arc::into_inner(collector)
        .expect("every rank thread has joined")
        .into_trace();
    RingTrace {
        name,
        nprocs,
        variants,
        bytes: pas2p_trace::format::encode(&trace),
    }
}

/// `analyze_trace`: the six ring traces, in seeded order.
pub fn analyze_traces(seed: u64) -> Vec<RingTrace> {
    let mut shapes: Vec<(u32, usize)> = NPROCS
        .into_iter()
        .flat_map(|n| RING_VARIANTS.into_iter().map(move |v| (n, v)))
        .collect();
    SplitMix64::fork(seed, "analyze_trace/order").shuffle(&mut shapes);
    shapes
        .into_iter()
        .map(|(nprocs, variants)| ring_trace(seed, nprocs, variants))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(ops: &[Op]) -> Vec<&str> {
        ops.iter().map(|o| o.line.as_str()).collect()
    }

    fn sorted(ops: &[Op]) -> Vec<&str> {
        let mut l = lines(ops);
        l.sort_unstable();
        l
    }

    #[test]
    fn same_seed_same_request_lines() {
        for (a, b) in [
            (submit_cold_pass(5, 0), submit_cold_pass(5, 0)),
            (predict_warm_pass(5, 1), predict_warm_pass(5, 1)),
            (batch_cold_pass(5, 0, 2), batch_cold_pass(5, 0, 2)),
        ] {
            assert_eq!(a, b);
        }
        assert_eq!(mixed_pass(5, 0), mixed_pass(5, 0));
    }

    fn kinds(ops: &[Op]) -> Vec<&str> {
        let mut k: Vec<&str> = ops.iter().map(|o| o.kind.as_str()).collect();
        k.sort_unstable();
        k
    }

    #[test]
    fn another_seed_reorders_the_same_multiset() {
        let (a, b) = (batch_cold_pass(5, 0, 2), batch_cold_pass(6, 0, 2));
        assert_ne!(lines(&a), lines(&b), "order differs");
        assert_eq!(sorted(&a), sorted(&b), "multiset is the same");
        // Submits: every (app, nprocs) once, whatever the seed and the
        // pass; the seed draws the base and the order.
        for (a, b) in [
            (submit_cold_pass(5, 0), submit_cold_pass(6, 0)),
            (submit_cold_pass(5, 0), submit_cold_pass(5, 1)),
            (mixed_pass(5, 0).cold, mixed_pass(6, 0).cold),
        ] {
            assert_ne!(lines(&a), lines(&b));
            assert_eq!(kinds(&a), kinds(&b));
        }
        let pass = submit_cold_pass(5, 0);
        let mut once = kinds(&pass);
        once.dedup();
        assert_eq!(once.len(), 22);
        // Mixed: the Stage-B predicts are a fixed set, the warm ones a
        // seeded draw of fixed size.
        let stage_b = |ops: &[Op]| {
            let mut l: Vec<String> = ops
                .iter()
                .filter(|o| o.class == Class::PredictStageB)
                .map(|o| o.line.clone())
                .collect();
            l.sort_unstable();
            l
        };
        let (a, b) = (mixed_pass(5, 0), mixed_pass(6, 0));
        assert_eq!(stage_b(&a.cold), stage_b(&b.cold));
        assert_eq!(stage_b(&a.cold).len(), 10);
        assert_eq!(a.cold.len(), 20);
        assert_eq!(a.warm.len(), MIXED_WARM_PER_PASS);
        assert_ne!(lines(&a.warm), lines(&b.warm));
        assert!(a.warm.iter().all(|o| o.kind == "warm"));
    }

    #[test]
    fn workloads_have_the_documented_sizes() {
        assert_eq!(submit_cold_pass(1, 0).len(), 22);
        assert_eq!(warm_keys().len(), 22);
        assert_eq!(primed_tuples().len(), 11);
        let batch = batch_cold_pass(1, 0, 2);
        assert_eq!(batch.len(), 8);
        assert_eq!(batch.iter().map(|o| o.weight).sum::<u64>(), 88);
        assert_eq!(
            batch
                .iter()
                .map(|o| batch_predictions_expected(&o.line))
                .sum::<usize>(),
            154
        );
        let warm = predict_warm_pass(1, 0);
        assert_eq!(warm.len(), PREDICT_WARM_PER_PASS);
        assert!(warm
            .iter()
            .all(|o| o.key < 22 && o.class == Class::PredictWarm));
    }

    #[test]
    fn no_request_pairs_machines_of_different_isa() {
        for (t, target) in warm_keys() {
            assert!(t.base != 'D' && target != 'D' && target != t.base);
        }
        for base in ['A', 'B', 'C', 'D'] {
            for &target in foreign_targets(base) {
                let same_isa = (base == 'D') == (target == 'D');
                assert!(same_isa, "{base} -> {target}");
            }
        }
    }

    #[test]
    fn ring_traces_repeat_per_seed_and_differ_across_seeds() {
        let a = ring_trace(3, 4, 48);
        assert_eq!(a, ring_trace(3, 4, 48), "same seed, same bytes");
        let b = ring_trace(4, 4, 48);
        assert_ne!(a.bytes, b.bytes, "variant order is seeded");
        assert_eq!(a.bytes.len(), b.bytes.len(), "same events, other order");
    }
}
