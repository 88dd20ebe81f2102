//! Workload kernels for the PAS2P reproduction.
//!
//! The paper evaluates PAS2P on CG, BT, SP, LU and FT from the NAS
//! Parallel Benchmarks, Sweep3D, SMG2000, the Parallel Ocean Program,
//! GROMACS and Moldy. Each kernel here reproduces the corresponding
//! application's *communication structure* (topology, collective mix,
//! message sizes, per-iteration repetitiveness, prologue/epilogue) and
//! carries real — scaled-down — numerics plus declared full-scale work so
//! the machine models charge realistic virtual time. All kernels
//! implement [`MpiApp`]/[`RankProgram`](pas2p_signature::RankProgram) and
//! are therefore traceable, checkpointable and signature-ready.

#![forbid(unsafe_code)]

pub mod gromacs;
pub mod master_worker;
pub mod moldy;
pub mod npb;
pub mod pop;
pub mod smg2000;
pub mod sweep3d;
pub mod util;

pub use gromacs::GromacsApp;
pub use master_worker::MasterWorkerApp;
pub use moldy::MoldyApp;
pub use npb::bt::BtApp;
pub use npb::cg::CgApp;
pub use npb::ft::FtApp;
pub use npb::lu::LuApp;
pub use npb::sp::SpApp;
pub use npb::Class;
pub use pop::PopApp;
pub use smg2000::Smg2000App;
pub use sweep3d::Sweep3dApp;

use pas2p_signature::MpiApp;

/// Instantiate an application by name at a given process count, using the
/// paper's workload presets (scaled). Names are case-insensitive;
/// [`CATALOG`] lists one per application.
pub fn by_name(name: &str, nprocs: u32) -> Option<Box<dyn MpiApp>> {
    Some(match name.to_ascii_lowercase().as_str() {
        "cg" => Box::new(CgApp::class_c(nprocs)),
        "bt" => Box::new(BtApp::class_c(nprocs)),
        "sp" => Box::new(SpApp::class_c(nprocs)),
        "lu" => Box::new(LuApp::class_c(nprocs)),
        "ft" => Box::new(FtApp::class_d(nprocs)),
        "sweep3d" => Box::new(Sweep3dApp::sweep250(nprocs)),
        "smg2000" | "smg2k" => Box::new(Smg2000App::n200(nprocs)),
        "pop" => Box::new(PopApp::synthetic(nprocs)),
        "moldy" => Box::new(MoldyApp::tip4p(nprocs)),
        "gromacs" => Box::new(GromacsApp::benchmark(nprocs)),
        "masterworker" | "master_worker" | "mw" => Box::new(MasterWorkerApp::one_shot(nprocs)),
        _ => return None,
    })
}

/// The catalog: every application [`by_name`] resolves, once each, in
/// the order `pas2p-cli list` shows them.
pub const CATALOG: [&str; 11] = [
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

/// The paper's Table 4 application set (base-machine cluster A analysis):
/// CG/BT/SP class C at 64 processes, Sweep3D sweep.250 at 32, SMG2000 at
/// 64, POP at 64 — scaled for CI, with process counts divided by
/// `shrink` (use `shrink = 1` for the paper's sizes).
pub fn table4_apps(shrink: u32) -> Vec<Box<dyn MpiApp>> {
    assert!(shrink >= 1);
    vec![
        Box::new(CgApp::class_c(64 / shrink)),
        Box::new(BtApp::class_c(64 / shrink)),
        Box::new(SpApp::class_c(64 / shrink)),
        Box::new(Smg2000App::n200(64 / shrink)),
        Box::new(Sweep3dApp::sweep250(32 / shrink)),
        Box::new(PopApp::synthetic(64 / shrink)),
    ]
}

/// The paper's Table 6 application set (base-machine cluster C, 256
/// processes): CG/BT/SP class D, SMG2000 long run, Sweep3D sweep.200.
pub fn table6_apps(shrink: u32) -> Vec<Box<dyn MpiApp>> {
    assert!(shrink >= 1);
    vec![
        Box::new(CgApp::class_d(256 / shrink)),
        Box::new(BtApp::class_d(256 / shrink)),
        Box::new(SpApp::class_d(256 / shrink)),
        Box::new(Smg2000App::n200_long(256 / shrink)),
        Box::new(Sweep3dApp::sweep200(256 / shrink)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_resolves_all_applications() {
        for n in [
            "CG",
            "bt",
            "SP",
            "lu",
            "FT",
            "Sweep3D",
            "SMG2000",
            "smg2k",
            "POP",
            "moldy",
            "GROMACS",
            "masterworker",
        ] {
            let app = by_name(n, 16).unwrap_or_else(|| panic!("{} missing", n));
            assert_eq!(app.nprocs(), 16);
        }
        assert!(by_name("nonesuch", 4).is_none());
    }

    #[test]
    fn catalog_names_resolve_and_are_distinct() {
        for (i, name) in CATALOG.iter().enumerate() {
            assert!(by_name(name, 4).is_some(), "{name} does not resolve");
            assert!(!CATALOG[..i].contains(name), "{name} listed twice");
        }
    }

    #[test]
    fn table_sets_match_paper_process_counts() {
        let t4 = table4_apps(1);
        assert_eq!(t4.len(), 6);
        assert_eq!(t4[0].nprocs(), 64);
        assert_eq!(t4[4].nprocs(), 32); // Sweep3D
        let t6 = table6_apps(1);
        assert_eq!(t6.len(), 5);
        assert!(t6.iter().all(|a| a.nprocs() == 256));
    }

    #[test]
    fn shrink_scales_process_counts() {
        let t4 = table4_apps(8);
        assert_eq!(t4[0].nprocs(), 8);
        assert_eq!(t4[4].nprocs(), 4);
    }
}
