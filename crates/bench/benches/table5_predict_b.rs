//! Regenerates Tables 4 + 5: signatures constructed on cluster A (base
//! machine) predicting the AET on cluster B at two core counts per
//! application — SET, SET/AET, PET, PETE, AET.

use pas2p::experiment::{prediction_row, PredictionRow};
use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::table4_apps;
use pas2p_bench::{banner, paper_reference, shrink};

fn main() {
    let base = cluster_a();
    let target = cluster_b();
    banner(
        "Table 5: predictions for cluster B (signatures built on cluster A)",
        &base,
        Some(&target),
    );

    let pas2p = Pas2p::default();
    let apps = table4_apps(shrink());

    println!("\nTable 4 workloads:");
    for app in &apps {
        println!(
            "  {:<10} {:>4} procs  {}",
            app.name(),
            app.nprocs(),
            app.workload()
        );
    }

    println!("\n{}", PredictionRow::header());
    let mut rows = Vec::new();
    for app in &apps {
        let analysis = pas2p.analyze(app.as_ref(), &base, MappingPolicy::Block);
        let (signature, _) =
            pas2p.build_signature(app.as_ref(), &analysis, &base, MappingPolicy::Block);
        for cores in [app.nprocs() / 2, app.nprocs()] {
            if cores == 0 || cores > target.total_cores() {
                continue;
            }
            let row = prediction_row(app.as_ref(), &signature, &target, cores);
            println!("{}", row);
            rows.push(row);
        }
    }

    let avg_pete = rows.iter().map(|r| r.pete).sum::<f64>() / rows.len() as f64;
    let avg_set = rows.iter().map(|r| r.set_vs_aet).sum::<f64>() / rows.len() as f64;
    println!(
        "\naverage prediction accuracy: {:.2}% | average SET/AET: {:.2}%",
        100.0 - avg_pete,
        avg_set
    );
    println!(
        "note: SET/AET scales with 1/weight — these scaled workloads run 13-60\n\
         iterations vs the paper's 10^4-10^5, so each restart+measurement is a\n\
         far larger fraction of the run (see summary_accuracy for the scaling\n\
         demonstration). No setting restores the paper's iteration counts:\n\
         PAS2P_BENCH_SHRINK divides process counts only, and does not bring\n\
         this ratio toward the paper's 1.74%."
    );
    assert!(
        100.0 - avg_pete > 90.0,
        "avg accuracy {:.2}%",
        100.0 - avg_pete
    );
    assert!(avg_set < 60.0, "avg SET/AET {:.2}%", avg_set);

    paper_reference(&[
        "CG-64   32: SET  8.42  0.29%  PET 2793.42  PETE 1.90  AET 2847.42",
        "CG-64   64: SET  4.87  0.32%  PET 1504.66  PETE 0.48  AET 1511.91",
        "BT-64   32: SET 13.47  0.80%  PET 1652.65  PETE 0.90  AET 1667.64",
        "BT-64   64: SET 10.19  0.77%  PET 1302.76  PETE 0.55  AET 1309.91",
        "SP-64   32: SET  2.04  0.24%  PET  808.76  PETE 1.28  AET  819.17",
        "SP-64   64: SET  2.08  0.51%  PET  388.37  PETE 3.05  AET  400.55",
        "SMG2k   32: SET 16.75  2.63%  PET  633.23  PETE 0.38  AET  635.61",
        "SMG2k   64: SET  8.37 10.15%  PET  162.87  PETE 2.32  AET  166.74",
        "Sweep3d 16: SET  4.32  0.17%  PET 2494.36  PETE 0.06  AET 2492.74",
        "Sweep3d 32: SET  3.01  0.22%  PET 1328.04  PETE 0.40  AET 1322.62",
        "POP-64  32: SET 22.79  1.41%  PET 1608.85  PETE 0.17  AET 1611.59",
        "POP-64  64: SET 18.36  1.79%  PET 1016.01  PETE 0.61  AET 1022.28",
        "=> signature ~1.74% of AET; accuracy > 97.55%",
    ]);
}
