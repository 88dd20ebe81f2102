//! Regenerates the §5 summary claims: across all applications and
//! clusters, average prediction accuracy > 97 %, overall error ~3 %, and
//! the signature executing in ~1.74 % of the application execution time.

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::table4_apps;
use pas2p_bench::{banner, paper_reference, shrink};

fn main() {
    let base = cluster_a();
    banner(
        "§5 summary: accuracy and SET/AET across applications x clusters",
        &base,
        None,
    );

    let pas2p = Pas2p::default();
    let targets = [cluster_a(), cluster_b(), cluster_c()];
    let apps = table4_apps(shrink());

    let mut petes = Vec::new();
    let mut set_ratios = Vec::new();
    println!(
        "\n{:<10} {:<12} {:>9} {:>12}",
        "app", "target", "PETE(%)", "SET/AET(%)"
    );
    for app in &apps {
        let analysis = pas2p.analyze(app.as_ref(), &base, MappingPolicy::Block);
        let (signature, _) =
            pas2p.build_signature(app.as_ref(), &analysis, &base, MappingPolicy::Block);
        for target in &targets {
            let report = pas2p
                .validate(app.as_ref(), &signature, target, MappingPolicy::Block)
                .unwrap();
            println!(
                "{:<10} {:<12} {:>9.2} {:>12.2}",
                app.name(),
                target.name,
                report.pete_or_inf(),
                report.set_vs_aet_percent
            );
            petes.push(report.pete_or_inf());
            set_ratios.push(report.set_vs_aet_percent);
        }
    }

    let avg_pete = petes.iter().sum::<f64>() / petes.len() as f64;
    let avg_set = set_ratios.iter().sum::<f64>() / set_ratios.len() as f64;
    let max_pete = petes.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\n=> average accuracy {:.2}% (paper: > 97%)",
        100.0 - avg_pete
    );
    println!("=> average error {:.2}% (paper: ~3%)", avg_pete);
    println!("=> max error {:.2}% (paper: 6.4%)", max_pete);
    println!("=> average SET/AET {:.2}% (paper: 1.74%)", avg_set);

    assert!(
        100.0 - avg_pete > 95.0,
        "average accuracy {:.2}% below band",
        100.0 - avg_pete
    );

    // SET/AET scaling demonstration: the ratio falls toward the paper's
    // 1.74% as the weights grow, because the signature measures a fixed
    // number of occurrences regardless of the iteration count.
    println!("\nSET/AET scaling with workload length (Moldy, cluster A):");
    println!(
        "{:>8} {:>12} {:>11} {:>9}",
        "steps", "weight", "SET/AET(%)", "PETE(%)"
    );
    let mut ratios = Vec::new();
    for steps in [100u64, 400, 1600] {
        let app = pas2p_apps::MoldyApp {
            nprocs: 16,
            steps,
            rebuild_every: 10,
            atoms_per_proc: 1024,
        };
        let analysis = pas2p.analyze(&app, &base, MappingPolicy::Block);
        let (sig, _) = pas2p.build_signature(&app, &analysis, &base, MappingPolicy::Block);
        let report = pas2p
            .validate(&app, &sig, &base, MappingPolicy::Block)
            .unwrap();
        let max_weight = analysis
            .table
            .rows
            .iter()
            .map(|r| r.weight)
            .max()
            .unwrap_or(0);
        println!(
            "{:>8} {:>12} {:>11.2} {:>9.2}",
            steps,
            max_weight,
            report.set_vs_aet_percent,
            report.pete_or_inf()
        );
        ratios.push(report.set_vs_aet_percent);
        assert!(report.pete_or_inf() < 10.0);
    }
    assert!(
        ratios.windows(2).all(|w| w[1] < w[0]),
        "SET/AET must fall as weights grow: {:?}",
        ratios
    );
    assert!(
        ratios.last().unwrap() < &6.0,
        "at 1600 steps the ratio should approach the paper's regime: {:?}",
        ratios
    );

    paper_reference(&[
        "\"We were able to predict the execution time with an average",
        "accuracy of more than 97 percent\"; \"the signature execution time",
        "represents 1.74 percent of the total application execution time\";",
        "\"we obtained an overall prediction error of 3 percent\"",
        "(our scaled runs carry proportionally heavier restart overheads,",
        " so SET/AET is larger; only more iterations shrink it, as the Moldy",
        " curve above shows. PAS2P_BENCH_SHRINK divides process counts only,",
        " and at 1 the average SET/AET above is higher than at the default)",
    ]);
}
