//! Scheduler advisor: the paper's motivating use case (§1) — "accurate
//! performance estimations are instrumental in helping a system resource
//! scheduler efficiently schedule user jobs".
//!
//! Given one signature per queued job, the advisor predicts each job's
//! runtime on each cluster and at several core counts, then recommends a
//! placement. Predictions cost seconds (the SET), not the hours the full
//! applications would take.
//!
//! Run with: `cargo run --release --example scheduler_advisor`

use pas2p::experiment::{first_cores_mapping, prediction_row};
use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::{PopApp, Smg2000App};

struct Job {
    app: Box<dyn MpiApp>,
    label: &'static str,
}

fn main() {
    let pas2p = Pas2p::default();
    let base = cluster_a();
    let jobs = [
        Job {
            app: Box::new(PopApp {
                nprocs: 16,
                iters: 20,
                inner: 3,
            }),
            label: "ocean-16",
        },
        Job {
            app: Box::new(Smg2000App {
                nprocs: 16,
                n: 60,
                levels: 3,
                iters: 12,
            }),
            label: "multigrid-16",
        },
    ];
    let clusters = [cluster_a(), cluster_b(), cluster_c()];

    for job in &jobs {
        println!("== job {} ({} procs) ==", job.label, job.app.nprocs());
        let analysis = pas2p.analyze(job.app.as_ref(), &base, MappingPolicy::Block);
        let (signature, _) =
            pas2p.build_signature(job.app.as_ref(), &analysis, &base, MappingPolicy::Block);

        let mut best: Option<(String, u32, f64)> = None;
        println!("{}", pas2p::experiment::PredictionRow::header());
        for cluster in &clusters {
            for cores in [job.app.nprocs() / 2, job.app.nprocs()] {
                if cores == 0 || cores > cluster.total_cores() {
                    continue;
                }
                // Predict only — no full run needed for scheduling; the
                // row helper also validates so we can show the error the
                // scheduler would have eaten.
                let row = prediction_row(job.app.as_ref(), &signature, cluster, cores);
                println!("{}  on {}", row, cluster.name);
                let key = (cluster.name.clone(), cores, row.pet);
                if best.as_ref().map(|b| row.pet < b.2).unwrap_or(true) {
                    best = Some(key);
                }
            }
        }
        let (name, cores, pet) = best.unwrap();
        println!(
            "-> schedule on {} with {} cores (predicted {:.1}s)\n",
            name, cores, pet
        );
        // Demonstrate the mapping the scheduler would submit.
        let cluster = clusters.iter().find(|c| c.name == name).unwrap();
        let policy = first_cores_mapping(cluster, jobs[0].app.nprocs(), cores);
        let mapping = cluster.map(jobs[0].app.nprocs(), policy);
        println!("   (oversubscribed: {})\n", mapping.is_oversubscribed());
    }
}
