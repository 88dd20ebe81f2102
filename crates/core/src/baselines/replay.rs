//! Dimemas-like trace replay (related work \[14\]).
//!
//! The recorded physical trace of a base-machine run is replayed against
//! a target machine model: per-process compute segments are rescaled by
//! the ratio of the two machines' compute rates, point-to-point messages
//! are re-timed with the target's latency/bandwidth through the message
//! *relation*, and collectives are re-costed with the target's collective
//! model. The result is a predicted makespan without executing anything
//! on the target. The events are walked by [`pas2p_trace::replay`], the
//! one replay the checker's deadlock and happens-before rules use too: a
//! receive runs once its send has departed, a collective once all its
//! members arrived.
//!
//! The structural weakness (and the paper's argument for signatures): the
//! compute rescale factor must be assumed. A replay cannot know each
//! segment's flop/byte mix, so it applies one global factor — biased
//! whenever base and target differ in their balance of compute and
//! memory bandwidth. The signature sidesteps this by running the real
//! code.

use pas2p_machine::{MachineModel, Mapping, MappingPolicy, Work};
use pas2p_trace::{replay, EventKind, Trace};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Outcome of a trace replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayPrediction {
    /// Predicted application execution time on the target, seconds.
    pub pet: f64,
    /// The global compute rescale factor applied (target seconds per base
    /// second of computation).
    pub compute_scale: f64,
    /// Events replayed.
    pub events: usize,
    /// Host seconds the replay took.
    pub wall_seconds: f64,
}

/// The flop/byte mixture assumed when deriving the global compute-scale
/// factor: a generic HPC kernel at ~0.25 flop per byte of memory traffic.
fn canonical_work() -> Work {
    Work::new(1.0e9, 4.0e9)
}

/// Compute-rescale factor between two machines for the canonical mixture.
pub fn compute_scale(base: &MachineModel, target: &MachineModel) -> f64 {
    let w = canonical_work();
    target.compute.time(w) / base.compute.time(w)
}

/// Replay `trace` (recorded on `base`) against `target` under `policy`.
pub fn predict_by_replay(
    trace: &Trace,
    base: &MachineModel,
    target: &MachineModel,
    policy: MappingPolicy,
) -> ReplayPrediction {
    let started = std::time::Instant::now();
    let mapping: Mapping = target.map(trace.nprocs, policy);
    let scale = compute_scale(base, target);

    // Send completions by relation id: msg_id → departure time on target.
    let mut departures: HashMap<u64, f64> = HashMap::new();
    let mut clock = vec![0.0f64; trace.procs.len()];
    let stop = replay(
        trace,
        &mut clock,
        |clock, p, i, e| {
            // Compute segment preceding the event, rescaled.
            let compute = trace.procs[p].compute_before(i) * scale;
            if e.kind == EventKind::Send {
                clock[p] += compute;
                clock[p] += target.network.per_msg_overhead;
                departures.insert(e.msg_id, clock[p]);
                return true;
            }
            let Some(&depart) = departures.get(&e.msg_id) else {
                return false; // sender not replayed yet
            };
            clock[p] += compute;
            let src = e.peer.unwrap_or(p as u32);
            let wire = target.p2p_cost(&mapping, src, p as u32, e.size);
            clock[p] = clock[p].max(depart + wire);
            true
        },
        |clock, members, pos| {
            // Everyone leaves when the last member arrives, plus the
            // target's cost of the collective.
            let mut arrived = 0.0f64;
            let mut bytes = 0;
            for &q in members {
                clock[q] += trace.procs[q].compute_before(pos[q]) * scale;
                arrived = arrived.max(clock[q]);
                bytes = bytes.max(trace.procs[q].events[pos[q]].size);
            }
            let EventKind::Coll(kind) = trace.procs[members[0]].events[pos[members[0]]].kind else {
                unreachable!("replay fires collectives only");
            };
            let ranks: Vec<u32> = members.iter().map(|&q| q as u32).collect();
            let out = arrived + target.collective_cost(&mapping, kind, &ranks, bytes);
            for &q in members {
                clock[q] = out;
            }
        },
    );
    let replayed: usize = stop.iter().sum();
    assert_eq!(
        replayed,
        trace.total_events(),
        "replay deadlocked: inconsistent trace (unmatched receive or split collective)"
    );

    ReplayPrediction {
        pet: clock.iter().cloned().fold(0.0, f64::max),
        compute_scale: scale,
        events: replayed,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, cluster_b, cluster_c, JitterModel};
    use pas2p_signature::{run_plain, run_traced, MpiApp};
    use pas2p_trace::InstrumentationModel;

    fn quiet(mut m: MachineModel) -> MachineModel {
        m.jitter = JitterModel::none();
        m
    }

    fn ring_app() -> impl MpiApp {
        struct A;
        struct R {
            rank: u32,
            n: u32,
        }
        impl MpiApp for A {
            fn name(&self) -> String {
                "replay-ring".into()
            }
            fn nprocs(&self) -> u32 {
                8
            }
            fn make_rank(&self, rank: u32) -> Box<dyn pas2p_signature::RankProgram> {
                Box::new(R { rank, n: 8 })
            }
        }
        impl pas2p_signature::RankProgram for R {
            fn prologue(&mut self, ctx: &mut dyn pas2p_mpisim::Mpi) {
                ctx.barrier();
            }
            fn steps(&self) -> u64 {
                20
            }
            fn step(&mut self, _s: u64, ctx: &mut dyn pas2p_mpisim::Mpi) {
                ctx.compute(Work::new(2e7, 8e7));
                let next = (self.rank + 1) % self.n;
                let prev = (self.rank + self.n - 1) % self.n;
                ctx.send_sized(next, 1, 4096);
                ctx.recv(Some(prev), Some(1));
                ctx.allreduce_f64(&[1.0], pas2p_mpisim::ReduceOp::Sum);
            }
            fn epilogue(&mut self, ctx: &mut dyn pas2p_mpisim::Mpi) {
                ctx.barrier();
            }
            fn snapshot(&self) -> Vec<u8> {
                Vec::new()
            }
            fn restore(&mut self, _b: &[u8]) {}
        }
        A
    }

    #[test]
    fn replay_on_same_machine_reproduces_aet() {
        let base = quiet(cluster_a());
        let app = ring_app();
        let (trace, report) = run_traced(
            &app,
            &base,
            MappingPolicy::Block,
            InstrumentationModel::free(),
        );
        let replay = predict_by_replay(&trace, &base, &base, MappingPolicy::Block);
        let err = (replay.pet - report.makespan).abs() / report.makespan;
        assert!(
            err < 0.02,
            "replay {} vs AET {}",
            replay.pet,
            report.makespan
        );
        assert!((replay.compute_scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replay_tracks_cross_machine_direction() {
        // Replay from A to B must move the prediction toward B's real AET.
        let base = quiet(cluster_a());
        let target = quiet(cluster_b());
        let app = ring_app();
        let (trace, _) = run_traced(
            &app,
            &base,
            MappingPolicy::Block,
            InstrumentationModel::free(),
        );
        let aet_target = run_plain(&app, &target, MappingPolicy::Block).makespan;
        let replay = predict_by_replay(&trace, &base, &target, MappingPolicy::Block);
        let err = (replay.pet - aet_target).abs() / aet_target;
        assert!(
            err < 0.25,
            "replay {} vs target AET {}",
            replay.pet,
            aet_target
        );
    }

    #[test]
    fn replay_bias_appears_when_machine_balance_differs() {
        // Cluster C's flop/byte balance differs sharply from A's; the
        // single global scale factor cannot be right for every kernel,
        // which is PAS2P's core argument. Here the kernel is memory-heavy
        // (1:4 flops:bytes like the canonical mixture), so the bias stays
        // moderate, but the factor itself must differ from the pure-flops
        // ratio.
        let base = quiet(cluster_a());
        let target = quiet(cluster_c());
        let flops_ratio = base.compute.flops_per_sec / target.compute.flops_per_sec;
        let scale = compute_scale(&base, &target);
        assert!((scale - flops_ratio).abs() > 0.05);
    }

    #[test]
    fn replay_counts_every_event() {
        let base = quiet(cluster_a());
        let app = ring_app();
        let (trace, _) = run_traced(
            &app,
            &base,
            MappingPolicy::Block,
            InstrumentationModel::free(),
        );
        let replay = predict_by_replay(&trace, &base, &base, MappingPolicy::Block);
        assert_eq!(replay.events, trace.total_events());
    }
}
