//! Regenerates Table 8: performance of the PAS2P tool — tracefile size,
//! tracefile analysis time, total/relevant phases and signature
//! construction time, on cluster C (§6's experiment set: NPB class D,
//! Sweep3D sweep.150, SMG2000 with 128 processes).

use pas2p::experiment::{tool_experiment, ToolPerfRow};
use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::{BtApp, CgApp, FtApp, LuApp, Smg2000App, SpApp, Sweep3dApp};
use pas2p_bench::{banner, paper_reference, shrink};

fn main() {
    let machine = cluster_c();
    banner(
        "Table 8: PAS2P tool performance (cluster C)",
        &machine,
        None,
    );

    let pas2p = Pas2p::default();
    let k = shrink();
    let apps: Vec<Box<dyn MpiApp>> = vec![
        Box::new(CgApp::class_d(256 / k)),
        Box::new(BtApp::class_d(256 / k)),
        Box::new(SpApp::class_d(256 / k)),
        Box::new(LuApp::class_d(256 / k)),
        Box::new(FtApp::class_d(256 / k)),
        Box::new(Sweep3dApp::sweep150(128 / k)),
        Box::new(Smg2000App::n200(128 / k)),
    ];

    println!("\n{}", ToolPerfRow::header());
    let mut rows = Vec::new();
    for app in &apps {
        let (analysis, stats, _) = tool_experiment(&pas2p, app.as_ref(), &machine);
        let row = pas2p::experiment::tool_perf_row(&analysis, &stats);
        println!("{}", row);
        rows.push(row);
    }

    // Shape checks against the paper's profile: LU produces by far the
    // largest trace, FT by far the smallest.
    let by_name = |n: &str| rows.iter().find(|r| r.app == n).unwrap();
    let lu = by_name("LU");
    let ft = by_name("FT");
    assert!(
        lu.tf_bytes > 3 * ft.tf_bytes,
        "LU trace {} must dwarf FT trace {}",
        lu.tf_bytes,
        ft.tf_bytes
    );
    for r in &rows {
        assert!(r.relevant_phases <= r.total_phases);
        assert!(r.relevant_phases >= 1, "{} found no relevant phase", r.app);
    }
    println!("\nshape checks: LU trace >> FT trace OK; every app has relevant phases OK");

    paper_reference(&[
        "CG     : 593 MB  45.73s   7 phases / 5 relevant  SCT 130.42s",
        "BT     : 292 MB  22.82s  14 phases / 8 relevant  SCT 216.21s",
        "SP     : 617 MB  52.59s  16 phases / 10 relevant SCT 149.59s",
        "LU     : 5.2 GB 393.01s  25 phases / 2 relevant  SCT 142.24s",
        "FT     : 512 KB   0.76s   5 phases / 4 relevant  SCT 518.23s",
        "Sweep3d: 1.8 GB 105.64s  12 phases / 5 relevant  SCT  52.00s",
        "SMG2K  :  32 MB  10.27s   7 phases / 3 relevant  SCT  43.20s",
    ]);
}
