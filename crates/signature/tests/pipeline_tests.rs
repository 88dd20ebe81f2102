//! End-to-end pipeline tests: trace → model → phases → signature →
//! prediction, on a small iterative application.

use pas2p_machine::{
    cluster_a, cluster_b, cluster_d, JitterModel, MachineModel, MappingPolicy, Work,
};
use pas2p_model::pas2p_order;
use pas2p_mpisim::{Mpi, ReduceOp};
use pas2p_phases::{extract_phases, PhaseTable, SimilarityConfig};
use pas2p_signature::{
    construct_signature, execute_signature, predict, rebuild_signature, run_plain, run_traced,
    ExecError, MpiApp, RankProgram, SignatureConfig,
};
use pas2p_trace::InstrumentationModel;

/// The canonical PAS2P-shaped test app: bcast prologue, iterative ring
/// exchange + allreduce, reduce epilogue.
struct RingApp {
    nprocs: u32,
    iters: u64,
    flops: f64,
}

impl MpiApp for RingApp {
    fn name(&self) -> String {
        "ring".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        Box::new(RingRank {
            rank,
            n: self.nprocs,
            iters: self.iters,
            flops: self.flops,
            acc: 0.0,
        })
    }
}

struct RingRank {
    rank: u32,
    n: u32,
    iters: u64,
    flops: f64,
    acc: f64,
}

impl RankProgram for RingRank {
    fn prologue(&mut self, ctx: &mut dyn Mpi) {
        self.acc = ctx.bcast(0, (self.rank == 0).then_some(64)) as f64;
    }
    fn steps(&self) -> u64 {
        self.iters
    }
    fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
        let next = (self.rank + 1) % self.n;
        let prev = (self.rank + self.n - 1) % self.n;
        ctx.compute(Work::flops(self.flops));
        ctx.send_sized(next, 1, 512);
        self.acc += ctx.recv(Some(prev), Some(1)).len as f64;
        let s = ctx.allreduce_f64(&[self.acc], ReduceOp::Sum);
        self.acc = s[0] / self.n as f64;
    }
    fn epilogue(&mut self, ctx: &mut dyn Mpi) {
        ctx.reduce_f64(0, &[self.acc], ReduceOp::Sum);
    }
    fn snapshot(&self) -> Vec<u8> {
        self.acc.to_le_bytes().to_vec()
    }
    fn restore(&mut self, bytes: &[u8]) {
        self.acc = f64::from_le_bytes(bytes.try_into().unwrap());
    }
}

fn machine_quiet(mut m: MachineModel) -> MachineModel {
    m.jitter = JitterModel::none();
    m
}

fn app() -> RingApp {
    RingApp {
        nprocs: 4,
        iters: 40,
        flops: 5e7,
    }
}

/// Run analysis on the base machine and return the phase table.
fn analyze(app: &dyn MpiApp, base: &MachineModel) -> PhaseTable {
    let (trace, _) = run_traced(
        app,
        base,
        MappingPolicy::Block,
        InstrumentationModel::free(),
    );
    let logical = pas2p_order(&trace);
    let analysis = extract_phases(&logical, &SimilarityConfig::default());
    PhaseTable::from_analysis(&analysis, 0.01, 1, 24)
}

#[test]
fn analysis_finds_the_iterative_phase() {
    let base = machine_quiet(cluster_a());
    let a = app();
    let (trace, _) = run_traced(
        &a,
        &base,
        MappingPolicy::Block,
        InstrumentationModel::free(),
    );
    let logical = pas2p_order(&trace);
    let analysis = extract_phases(&logical, &SimilarityConfig::default());
    assert!(analysis.total_phases() >= 1);
    assert!(
        analysis.total_phases() <= 6,
        "{} phases",
        analysis.total_phases()
    );
    let dominant = analysis.phases.iter().max_by_key(|p| p.weight).unwrap();
    assert!(dominant.weight >= 35, "weight {}", dominant.weight);
    // Reconstructed AET tiles the trace.
    let err = (analysis.reconstructed_aet() - analysis.aet).abs() / analysis.aet;
    assert!(err < 0.05, "reconstruction error {}", err);
}

#[test]
fn construction_checkpoints_every_relevant_phase() {
    let base = machine_quiet(cluster_a());
    let a = app();
    let table = analyze(&a, &base);
    assert!(table.relevant_phases() >= 1);
    let (sig, stats) = construct_signature(
        &a,
        &table,
        &base,
        MappingPolicy::Block,
        SignatureConfig::default(),
    );
    assert_eq!(sig.phase_count(), table.relevant_phases());
    assert!(stats.sct > 0.0);
    assert!(sig.checkpoint_bytes() > 0 || sig.entries.is_empty());
    // Construction terminates early: its run must not exceed the full AET.
    let aet = run_plain(&a, &base, MappingPolicy::Block).makespan;
    assert!(
        stats.run_makespan <= aet * 1.05,
        "construction {} vs AET {}",
        stats.run_makespan,
        aet
    );
}

#[test]
fn signature_predicts_same_machine_accurately() {
    let base = machine_quiet(cluster_a());
    let a = app();
    let table = analyze(&a, &base);
    let (sig, _) = construct_signature(
        &a,
        &table,
        &base,
        MappingPolicy::Block,
        SignatureConfig::default(),
    );
    let report = predict::validate(&a, &sig, &base, MappingPolicy::Block).unwrap();
    assert!(
        report.pete_or_inf() < 10.0,
        "PETE {}% (PET {} vs AET {})",
        report.pete_or_inf(),
        report.prediction.pet,
        report.aet
    );
    assert!(report.prediction.set < report.aet, "SET must be << AET");
}

#[test]
fn signature_predicts_cross_machine() {
    // Build on cluster A, predict for cluster B — the Table 5 methodology.
    let base = machine_quiet(cluster_a());
    let target = machine_quiet(cluster_b());
    let a = app();
    let table = analyze(&a, &base);
    let (sig, _) = construct_signature(
        &a,
        &table,
        &base,
        MappingPolicy::Block,
        SignatureConfig::default(),
    );
    let report = predict::validate(&a, &sig, &target, MappingPolicy::Block).unwrap();
    assert!(
        report.pete_or_inf() < 10.0,
        "PETE {}% (PET {} vs AET {})",
        report.pete_or_inf(),
        report.prediction.pet,
        report.aet
    );
    // The two machines genuinely differ.
    let aet_base = run_plain(&a, &base, MappingPolicy::Block).makespan;
    assert!((report.aet - aet_base).abs() / aet_base > 0.02);
}

#[test]
fn prediction_tracks_machine_with_jitter() {
    // With realistic noise the error grows but stays within the paper's
    // band (average ~3%, worst 6.4%).
    let base = cluster_a();
    let target = cluster_b();
    let a = app();
    let table = analyze(&a, &base);
    let (sig, _) = construct_signature(
        &a,
        &table,
        &base,
        MappingPolicy::Block,
        SignatureConfig::default(),
    );
    let report = predict::validate(&a, &sig, &target, MappingPolicy::Block).unwrap();
    assert!(
        report.pete_or_inf() < 15.0,
        "PETE {}%",
        report.pete_or_inf()
    );
}

#[test]
fn set_is_a_small_fraction_of_aet() {
    let base = machine_quiet(cluster_a());
    let a = RingApp {
        nprocs: 4,
        iters: 300,
        flops: 5e7,
    };
    let table = analyze(&a, &base);
    let (sig, _) = construct_signature(
        &a,
        &table,
        &base,
        MappingPolicy::Block,
        SignatureConfig::default(),
    );
    let report = predict::validate(&a, &sig, &base, MappingPolicy::Block).unwrap();
    assert!(
        report.set_vs_aet_percent < 20.0,
        "SET/AET = {}%",
        report.set_vs_aet_percent
    );
}

#[test]
fn isa_mismatch_is_rejected_and_rebuild_works() {
    let base = machine_quiet(cluster_a()); // x86-64
    let itanium = machine_quiet(cluster_d()); // IA-64
    let a = app();
    let table = analyze(&a, &base);
    let (sig, _) = construct_signature(
        &a,
        &table,
        &base,
        MappingPolicy::Block,
        SignatureConfig::default(),
    );
    let err = execute_signature(&a, &sig, &itanium, MappingPolicy::Block).unwrap_err();
    assert!(matches!(err, ExecError::IsaMismatch { .. }));
    assert!(err.to_string().contains("Appendix E"));

    // Appendix E: rebuild on the new ISA from the ported phase table.
    let (sig_d, _) = rebuild_signature(&a, &sig, &itanium, MappingPolicy::Block);
    let report = predict::validate(&a, &sig_d, &itanium, MappingPolicy::Block).unwrap();
    assert!(
        report.pete_or_inf() < 10.0,
        "PETE {}%",
        report.pete_or_inf()
    );
}

#[test]
fn signature_serializes() {
    let base = machine_quiet(cluster_a());
    let a = app();
    let table = analyze(&a, &base);
    let (sig, _) = construct_signature(
        &a,
        &table,
        &base,
        MappingPolicy::Block,
        SignatureConfig::default(),
    );
    let json = serde_json::to_string(&sig).unwrap();
    let back: pas2p_signature::Signature = serde_json::from_str(&json).unwrap();
    assert_eq!(back.phase_count(), sig.phase_count());
    assert_eq!(back.nprocs, sig.nprocs);
}

#[test]
fn prediction_scales_with_weights() {
    // Doubling the iteration count should roughly double both AET and PET:
    // the signature measures the same phases, only the weights change.
    let base = machine_quiet(cluster_a());
    let short = RingApp {
        nprocs: 4,
        iters: 40,
        flops: 5e7,
    };
    let long = RingApp {
        nprocs: 4,
        iters: 80,
        flops: 5e7,
    };

    let pet_of = |a: &RingApp| {
        let table = analyze(a, &base);
        let (sig, _) = construct_signature(
            a,
            &table,
            &base,
            MappingPolicy::Block,
            SignatureConfig::default(),
        );
        execute_signature(a, &sig, &base, MappingPolicy::Block)
            .unwrap()
            .pet
    };
    let p1 = pet_of(&short);
    let p2 = pet_of(&long);
    let ratio = p2 / p1;
    assert!((1.6..2.4).contains(&ratio), "ratio {}", ratio);
}
