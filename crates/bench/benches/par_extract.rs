//! Phase-extraction time by similarity kernel (the Table 8 TFAT column):
//! the same logical trace extracted with the scalar reference walk and
//! with the SoA kernel. (The file is named after the worker-count sweep
//! it used to hold; extraction has been sequential since PR 14, when
//! its fan-out was measured, never won, and was deleted.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pas2p_machine::{cluster_a, JitterModel, MappingPolicy, Work};
use pas2p_model::pas2p_order;
use pas2p_mpisim::{run_app, Mpi, ReduceOp, SimConfig};
use pas2p_phases::{extract_phases, SimilarityConfig, SimilarityKernel};
use pas2p_trace::{InstrumentationModel, Trace, TraceCollector, Traced};
use std::sync::Arc;

/// A ring application whose variants all share one communication
/// *structure* (same tick count per iteration — the scalar walk's O(1)
/// length check never helps) but differ in message sizes and per-send
/// compute, so distinct variants stay distinct phases and the
/// candidate-vs-known comparisons walk full same-length grids. This is
/// the regime the SoA kernel's band prefilter targets; `pas2p-cli
/// bench-report` times the same shape into `BENCH_kernel.json`.
fn uniform_variants_trace(n: u32, reps: usize, variants: usize) -> Trace {
    let mut machine = cluster_a();
    machine.jitter = JitterModel::none();
    let collector = Arc::new(TraceCollector::new(
        n,
        "bench",
        InstrumentationModel::free(),
    ));
    let cfg = SimConfig::new(machine, n, MappingPolicy::Block);
    let col = collector.clone();
    run_app(&cfg, move |ctx| {
        let size = ctx.size();
        let rank = ctx.rank();
        let mut t = Traced::new(ctx, &col);
        let next = (rank + 1) % size;
        let prev = (rank + size - 1) % size;
        let payload = vec![0u8; (16 << 12) + 16 * 16];
        for rep in 0..reps {
            let v = rep % variants;
            let bytes = 16usize << (v % 12);
            for s in 0..16u32 {
                t.compute(Work::flops(1e4 * 1.2f64.powi(v as i32)));
                t.send(next, s, &payload[..bytes + 16 * s as usize]);
                t.recv(Some(prev), Some(s));
            }
            t.allreduce_f64(&[1.0], ReduceOp::Sum);
        }
        t.finish();
    });
    Arc::into_inner(collector).unwrap().into_trace()
}

fn bench_par_extract(c: &mut Criterion) {
    // Kernel ablation: the scalar reference walk vs the SoA kernel
    // (banded prefilters + LSH bucketing). Same byte-identical output,
    // different TFAT — this group is the speedup evidence
    // BENCH_kernel.json records from `pas2p-cli bench-report`.
    let kernel_trace = uniform_variants_trace(4, 720, 144);
    let kernel_logical = pas2p_order(&kernel_trace);
    let kernel_ticks = kernel_logical.len() as u64;
    let kernel_baseline = extract_phases(&kernel_logical, &SimilarityConfig::default());
    assert!(
        kernel_baseline.total_phases() >= 96,
        "kernel workload collapsed below the many-known-phases regime"
    );

    let mut g = c.benchmark_group("similarity_kernel");
    g.throughput(Throughput::Elements(kernel_ticks));
    for (label, kernel) in [
        ("scalar/seq", SimilarityKernel::Scalar),
        ("soa/seq", SimilarityKernel::Soa),
    ] {
        let cfg = SimilarityConfig {
            kernel,
            ..SimilarityConfig::default()
        };
        assert_eq!(
            kernel_baseline.total_phases(),
            extract_phases(&kernel_logical, &cfg).total_phases(),
            "{label} changed the analysis"
        );
        g.bench_with_input(BenchmarkId::new("kernel", label), &cfg, |b, cfg| {
            b.iter(|| extract_phases(&kernel_logical, cfg))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_par_extract);
criterion_main!(benches);
