//! Regenerates Tables 6 + 7: 256-process signatures constructed on
//! cluster C (InfiniBand) predicting the AET on cluster A (Gigabit
//! Ethernet, half the cores — two processes share each core).

use pas2p::experiment::{prediction_row, PredictionRow};
use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::table6_apps;
use pas2p_bench::{banner, paper_reference, shrink};

fn main() {
    let base = cluster_c();
    let target = cluster_a();
    banner(
        "Table 7: predictions for cluster A (signatures built on cluster C, oversubscribed)",
        &base,
        Some(&target),
    );

    let pas2p = Pas2p::default();
    let apps = table6_apps(shrink());
    let cores = 128 / shrink(); // half the processes: 2 procs/core on A

    println!("\nTable 6 workloads:");
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
        let row = prediction_row(app.as_ref(), &signature, &target, cores);
        println!("{}", row);
        rows.push(row);
    }

    let max_pete = rows.iter().map(|r| r.pete).fold(0.0f64, f64::max);
    let max_set = rows.iter().map(|r| r.set_vs_aet).fold(0.0f64, f64::max);
    println!(
        "\nmax PETE: {:.2}% (paper: 6.4%) | max SET/AET: {:.2}% (paper: < 8%)",
        max_pete, max_set
    );
    println!(
        "note: SET/AET is inflated at scaled iteration counts (13-60 vs the\n\
         paper's 10^4-10^5); see the summary_accuracy scaling demonstration."
    );
    assert!(max_pete < 10.0, "max PETE {:.2}%", max_pete);
    assert!(max_set < 120.0, "max SET/AET {:.2}%", max_set);

    paper_reference(&[
        "CG-256     128: SET  59.52  2.03%  PET 2971.10  PETE 1.6  AET 2922.24",
        "BT-256     128: SET  17.78  1.48%  PET 1182.67  PETE 1.5  AET 1200.85",
        "SP-256     128: SET  17.53  0.77%  PET 2411.35  PETE 6.4  AET 2265.40",
        "SMG2k-256  128: SET 120.17  1.75%  PET 6783.47  PETE 1.0  AET 6858.17",
        "Sweep3d-256 128: SET 82.28  7.62%  PET 1043.01  PETE 3.5  AET 1079.13",
        "=> oversubscribed target (2 procs/core), error stays low, SET/AET < 8%",
    ]);
}
