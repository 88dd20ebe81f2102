//! The application contract and plain/traced run drivers.
//!
//! PAS2P treats applications as black boxes reachable through MPI
//! interposition plus DMTCP process checkpoints. In the reproduction the
//! equivalent contract is explicit: an application factory ([`MpiApp`])
//! creates one [`RankProgram`] per rank; a rank program has a prologue,
//! a sequence of main-loop steps, and an epilogue, and can snapshot /
//! restore its state at step boundaries. Step boundaries must be
//! communication-quiescent (no in-flight point-to-point messages crossing
//! the boundary) — the coordinated-checkpoint consistency condition DMTCP
//! obtains by draining the network.

use pas2p_machine::{MachineModel, MappingPolicy};
use pas2p_mpisim::{run_app, Mpi, RunReport, SimConfig};
use pas2p_trace::{InstrumentationModel, Trace, TraceCollector, Traced};
use std::sync::Arc;

/// Factory describing a parallel application at a fixed workload and
/// process count.
pub trait MpiApp: Send + Sync {
    /// Application name, e.g. `"CG"`.
    fn name(&self) -> String;
    /// Number of processes the application runs with.
    fn nprocs(&self) -> u32;
    /// Workload description (the paper's Table 4/6 "Workload" column).
    fn workload(&self) -> String {
        String::new()
    }
    /// Create the rank-local program for `rank`.
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram>;
}

/// One rank's executable program with checkpointable state.
pub trait RankProgram: Send {
    /// Setup and initial exchanges (runs once, before step 0).
    fn prologue(&mut self, ctx: &mut dyn Mpi);
    /// Number of main-loop steps.
    fn steps(&self) -> u64;
    /// Execute main-loop step `step` (0-based).
    fn step(&mut self, step: u64, ctx: &mut dyn Mpi);
    /// Final reductions/output (runs once, after the last step).
    fn epilogue(&mut self, ctx: &mut dyn Mpi);
    /// Serialize rank-local state at a step boundary.
    fn snapshot(&self) -> Vec<u8>;
    /// Restore state captured by [`RankProgram::snapshot`].
    fn restore(&mut self, bytes: &[u8]);
}

/// Drive a full rank program: prologue, all steps, epilogue.
pub fn drive_full(prog: &mut dyn RankProgram, ctx: &mut dyn Mpi) {
    prog.prologue(ctx);
    for s in 0..prog.steps() {
        prog.step(s, ctx);
    }
    prog.epilogue(ctx);
}

/// Execute the application without instrumentation and return the run
/// report; `report.makespan` is the application execution time (AET) on
/// `machine`.
pub fn run_plain(app: &dyn MpiApp, machine: &MachineModel, policy: MappingPolicy) -> RunReport {
    let cfg = SimConfig::new(machine.clone(), app.nprocs(), policy);
    run_app(&cfg, |ctx| {
        let mut prog = app.make_rank(ctx.rank());
        drive_full(prog.as_mut(), ctx);
    })
}

/// Execute the application under the `libpas2p` interposition layer and
/// return the collected trace plus the run report (whose makespan is the
/// paper's AET_PAS2P — AET inflated by instrumentation overhead).
pub fn run_traced(
    app: &dyn MpiApp,
    machine: &MachineModel,
    policy: MappingPolicy,
    model: InstrumentationModel,
) -> (Trace, RunReport) {
    let collector = Arc::new(TraceCollector::new(
        app.nprocs(),
        machine.name.clone(),
        model,
    ));
    let cfg = SimConfig::new(machine.clone(), app.nprocs(), policy);
    let col = collector.clone();
    let report = run_app(&cfg, move |ctx| {
        let rank = ctx.rank();
        let mut prog = app.make_rank(rank);
        let mut traced = Traced::new(ctx, &col);
        drive_full(prog.as_mut(), &mut traced);
        traced.finish();
    });
    let trace = Arc::into_inner(collector)
        .expect("collector still shared after run")
        .into_trace();
    (trace, report)
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A small iterative test application shared by the signature tests:
    //! a ring exchange with an allreduce per step, a broadcast prologue
    //! and a reduce epilogue — the canonical shape PAS2P targets.

    use super::*;
    use pas2p_machine::Work;
    use pas2p_mpisim::ReduceOp;

    pub struct RingApp {
        pub nprocs: u32,
        pub iters: u64,
        pub flops_per_step: f64,
        pub msg_bytes: usize,
    }

    impl MpiApp for RingApp {
        fn name(&self) -> String {
            "test-ring".into()
        }
        fn nprocs(&self) -> u32 {
            self.nprocs
        }
        fn workload(&self) -> String {
            format!("{} iterations", self.iters)
        }
        fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
            Box::new(RingRank {
                rank,
                nprocs: self.nprocs,
                iters: self.iters,
                flops: self.flops_per_step,
                msg_bytes: self.msg_bytes,
                acc: 0.0,
                done_steps: 0,
            })
        }
    }

    pub struct RingRank {
        rank: u32,
        nprocs: u32,
        iters: u64,
        flops: f64,
        msg_bytes: usize,
        pub acc: f64,
        pub done_steps: u64,
    }

    impl RankProgram for RingRank {
        fn prologue(&mut self, ctx: &mut dyn Mpi) {
            // The state folds in every length received, so a restore
            // that replays the wrong messages shows in it.
            self.acc = ctx.bcast(0, (self.rank == 0).then_some(16)) as f64;
        }

        fn steps(&self) -> u64 {
            self.iters
        }

        fn step(&mut self, _step: u64, ctx: &mut dyn Mpi) {
            let next = (self.rank + 1) % self.nprocs;
            let prev = (self.rank + self.nprocs - 1) % self.nprocs;
            ctx.compute(Work::flops(self.flops));
            ctx.send_sized(next, 1, self.msg_bytes);
            self.acc += ctx.recv(Some(prev), Some(1)).len as f64;
            let s = ctx.allreduce_f64(&[self.acc], ReduceOp::Sum);
            self.acc = s[0] / self.nprocs as f64;
            self.done_steps += 1;
        }

        fn epilogue(&mut self, ctx: &mut dyn Mpi) {
            ctx.reduce_f64(0, &[self.acc], ReduceOp::Sum);
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut v = Vec::with_capacity(16);
            v.extend_from_slice(&self.acc.to_le_bytes());
            v.extend_from_slice(&self.done_steps.to_le_bytes());
            v
        }

        fn restore(&mut self, bytes: &[u8]) {
            self.acc = f64::from_le_bytes(bytes[0..8].try_into().unwrap());
            self.done_steps = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::RingApp;
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel};

    fn quiet() -> MachineModel {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        m
    }

    fn app() -> RingApp {
        RingApp {
            nprocs: 4,
            iters: 10,
            flops_per_step: 1e7,
            msg_bytes: 128,
        }
    }

    #[test]
    fn run_plain_executes_all_steps() {
        let r = run_plain(&app(), &quiet(), MappingPolicy::Block);
        assert_eq!(r.nprocs, 4);
        assert!(r.makespan > 0.0);
        assert!(!r.aborted);
        // 10 steps × 4 ranks × 1 p2p message
        assert_eq!(r.total_msgs, 40);
    }

    #[test]
    fn run_traced_collects_matching_event_counts() {
        let (trace, report) = run_traced(
            &app(),
            &quiet(),
            MappingPolicy::Block,
            InstrumentationModel::free(),
        );
        assert_eq!(trace.nprocs, 4);
        trace.validate().unwrap();
        // prologue bcast + 10×(send,recv,allreduce) + epilogue reduce
        for p in &trace.procs {
            assert_eq!(p.events.len(), 1 + 30 + 1);
        }
        assert!((trace.elapsed() - report.makespan).abs() < 1e-9);
    }

    #[test]
    fn snapshot_restore_roundtrips() {
        let a = app();
        let p = a.make_rank(2);
        let snap0 = p.snapshot();
        let mut q = a.make_rank(2);
        q.restore(&snap0);
        assert_eq!(q.snapshot(), snap0);
    }

    #[test]
    fn traced_run_is_slower_than_plain_with_overhead() {
        let plain = run_plain(&app(), &quiet(), MappingPolicy::Block);
        let (_, traced) = run_traced(
            &app(),
            &quiet(),
            MappingPolicy::Block,
            InstrumentationModel {
                per_event_seconds: 1e-3,
            },
        );
        assert!(traced.makespan > plain.makespan);
    }
}
