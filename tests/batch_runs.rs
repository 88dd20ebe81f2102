//! A `batch` request simulates each missing application exactly twice —
//! the paper's two runs: the traced run Stage A analyzes (whose trace
//! also yields the content address) and the checkpointing re-run that
//! builds the signature. A third run per application, made only to
//! re-derive the address, is what this pins out — also when four
//! batches of the same apps arrive at once: a job of a `batch` is a
//! `submit`, single-flighted with every other, under the same panic
//! boundary and deadline token.
//!
//! One test in a file of its own: the obs registry is process-global.

use pas2p::prelude::{Mpi, MpiApp, RankProgram};
use pas2p::{AppResolver, Pas2p, PredictionService};
use pas2p_store::SignatureStore;
use std::sync::Barrier;
use std::time::Duration;

/// A one-rank application whose only step is `misbehaviour`.
#[derive(Clone, Copy)]
struct Misbehaving {
    name: &'static str,
    misbehaviour: fn(),
}

impl RankProgram for Misbehaving {
    fn prologue(&mut self, _: &mut dyn Mpi) {}
    fn steps(&self) -> u64 {
        1
    }
    fn step(&mut self, _: u64, _: &mut dyn Mpi) {
        (self.misbehaviour)()
    }
    fn epilogue(&mut self, _: &mut dyn Mpi) {}
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore(&mut self, _: &[u8]) {}
}

impl MpiApp for Misbehaving {
    fn name(&self) -> String {
        self.name.into()
    }
    fn nprocs(&self) -> u32 {
        1
    }
    fn make_rank(&self, _: u32) -> Box<dyn RankProgram> {
        Box::new(*self)
    }
}

/// The catalog plus a `panicker` and a `sleeper` (400 ms a run).
fn with_misbehaving_apps() -> AppResolver {
    Box::new(|name, nprocs| {
        let app = match name {
            "panicker" => Misbehaving {
                name: "panicker",
                misbehaviour: || panic!("injected rank panic"),
            },
            "sleeper" => Misbehaving {
                name: "sleeper",
                misbehaviour: || std::thread::sleep(Duration::from_millis(400)),
            },
            _ => return pas2p_apps::by_name(name, nprocs),
        };
        Some(Box::new(app))
    })
}

/// Simulated runs so far, as `mpisim.runs` counts them.
fn simulated_runs() -> u64 {
    let counters = pas2p_obs::global().snapshot().counters;
    counters.get("mpisim.runs").copied().unwrap_or(0)
}

fn send(svc: &PredictionService, line: &str) -> serde_json::Value {
    let (response, _) = svc.handle_line(line);
    serde_json::from_str(&response.render()).expect("a reply is JSON")
}

#[test]
fn batch_simulates_each_missing_app_exactly_twice() {
    let root = std::env::temp_dir().join(format!("pas2p-batch-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = SignatureStore::open(&root).expect("open store");
    // The service deadline is for the last step only: a `submit` stuck
    // behind a leaked single-flight entry would answer `timeout`, not hang.
    let svc = PredictionService::new(Pas2p::default(), store, with_misbehaving_apps())
        .with_deadline(Some(Duration::from_secs(20)));
    let apps: Vec<String> = ["cg", "ft", "moldy", "masterworker"]
        .map(String::from)
        .to_vec();

    pas2p_obs::set_enabled(true);
    pas2p_obs::global().reset();
    // No targets: Stage B (one restarted run per phase) stays out of the count.
    let reply = svc.batch(&apps, 4, "A", &[], Some(2), None).expect("batch");
    let runs = simulated_runs();
    let again = svc.batch(&apps, 4, "A", &[], Some(2), None).expect("batch");
    let runs_again = simulated_runs() - runs;
    pas2p_obs::set_enabled(false);

    for app in &apps {
        assert_eq!(reply["jobs"][app.as_str()], "ok", "{reply}");
        assert_eq!(again["jobs"][app.as_str()], "cached", "{again}");
    }
    assert_eq!(
        runs,
        2 * apps.len() as u64,
        "two simulated runs per missing app"
    );
    assert_eq!(runs_again, 0, "a stored app is not run at all");

    // Four batches of the same four missing apps, started together: one
    // Stage A per app between them, whoever gets to it first.
    let missing = ["lu", "sp", "bt", "pop"];
    let line = r#"{"op":"batch","apps":["lu","sp","bt","pop"],"nprocs":4,"workers":2}"#;
    pas2p_obs::set_enabled(true);
    let before = simulated_runs();
    let barrier = Barrier::new(4);
    let replies: Vec<serde_json::Value> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    send(&svc, line)
                })
            })
            .collect();
        senders
            .into_iter()
            .map(|sender| sender.join().expect("a sender"))
            .collect()
    });
    let concurrent_runs = simulated_runs() - before;
    pas2p_obs::set_enabled(false);
    for reply in &replies {
        for app in missing {
            let status = reply["result"]["jobs"][app].as_str();
            assert!(matches!(status, Some("ok" | "cached")), "{app}: {reply}");
        }
    }
    assert_eq!(
        concurrent_runs,
        2 * missing.len() as u64,
        "two simulated runs per missing app, however many batches asked"
    );
    // What the four left on disk is what a lone submit leaves.
    let alone_root = root.with_extension("alone");
    let _ = std::fs::remove_dir_all(&alone_root);
    let alone = PredictionService::new(
        Pas2p::default(),
        SignatureStore::open(&alone_root).expect("open store"),
        Box::new(pas2p_apps::by_name),
    );
    for app in missing {
        let stored = svc.submit(app, 4, "A").expect("stored");
        assert!(stored.cached, "{app}");
        let digest = alone.submit(app, 4, "A").expect("lone submit").digest;
        assert_eq!(stored.digest, digest, "{app}");
        assert!(root.join(format!("objects/{digest}.json")).exists());
    }
    let _ = std::fs::remove_dir_all(&alone_root);

    // A job that panics and one that outlives the per-job deadline are
    // classified where they ran; the app beside them (listed twice: one
    // job) is analyzed, and nothing stays held.
    let mixed = send(
        &svc,
        r#"{"op":"batch","apps":["panicker","gromacs","sleeper","gromacs"],"nprocs":4,"workers":2,"deadline_ms":250}"#,
    );
    assert_eq!(mixed["ok"], true, "{mixed}");
    assert_eq!(mixed["result"]["jobs"]["panicker"], "failed", "{mixed}");
    assert_eq!(mixed["result"]["jobs"]["sleeper"], "timed-out", "{mixed}");
    assert_eq!(mixed["result"]["jobs"]["gromacs"], "ok", "{mixed}");
    let health = send(&svc, r#"{"op":"health"}"#);
    assert_eq!(health["result"]["inflight"], 0u64, "{health}");
    assert_eq!(health["result"]["timeouts"], 0u64, "a job is not a request");
    let panicker = send(&svc, r#"{"op":"submit","app":"panicker"}"#);
    assert_eq!(panicker["code"], "panic", "{panicker}");
    let sleeper = send(&svc, r#"{"op":"submit","app":"sleeper"}"#);
    assert_eq!(sleeper["result"]["cached"], false, "{sleeper}");
    let _ = std::fs::remove_dir_all(&root);
}
