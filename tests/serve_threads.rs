//! A request runs on the thread that read it: an idle server is one
//! acceptor thread whatever `workers` says, a connection adds one
//! thread, a compute request adds none — with or without a service
//! deadline — and a request that expires leaves none behind. (Threads
//! are counted for the whole process, so this test lives in a binary of
//! its own, as a single test.)

#![cfg(target_os = "linux")]

use pas2p::prelude::{MpiApp, RankProgram};
use pas2p::{serve_unix_with, AppResolver, Pas2p, PredictionService, ServeOptions};
use pas2p_store::SignatureStore;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Wait at most `patience` for threads that are starting or exiting
/// until the process has `expected` of them.
fn settle(expected: usize, patience: Duration, what: &str) {
    let polls = patience.as_millis() / 5;
    for _ in 0..polls {
        if threads() == expected {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), expected, "{what}");
}

const STARTUP: Duration = Duration::from_secs(5);

fn connect(socket: &Path) -> UnixStream {
    for _ in 0..500 {
        if let Ok(stream) = UnixStream::connect(socket) {
            return stream;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("connect {}", socket.display());
}

fn roundtrip(stream: &mut UnixStream, request: &str) -> serde_json::Value {
    writeln!(stream, "{request}").expect("write");
    let mut line = String::new();
    BufReader::new(&*stream).read_line(&mut line).expect("read");
    serde_json::from_str(&line).expect("response parses")
}

/// A server with eight permits over a fresh store, resolving apps
/// through `resolve`, and two connections to it, A and B.
struct Served {
    root: PathBuf,
    clients: [UnixStream; 2],
    server: JoinHandle<()>,
    /// Threads the process had before the server started.
    before: usize,
}

impl Served {
    fn start(tag: &str, deadline: Option<Duration>, resolve: AppResolver) -> Served {
        let root = std::env::temp_dir().join(format!("pas2p-threads-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("mkdir");
        let socket = root.join("pas2p.sock");
        let before = threads();
        let store = SignatureStore::open(root.join("store")).expect("open store");
        let svc = PredictionService::new(Pas2p::default(), store, resolve).with_deadline(deadline);
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || {
            let opts = ServeOptions {
                workers: 8,
                ..ServeOptions::default()
            };
            serve_unix_with(&svc, &server_socket, opts).expect("serve");
        });
        let clients = [connect(&socket), connect(&socket)];
        Served {
            root,
            clients,
            server,
            before,
        }
    }

    /// The acceptor and one thread per connection.
    fn idle(&self) -> usize {
        self.before + 3
    }

    fn stop(mut self) {
        roundtrip(&mut self.clients[0], r#"{"op":"shutdown"}"#);
        drop(self.clients);
        self.server.join().expect("server thread");
        settle(self.before, STARTUP, "after shutdown");
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

const SUBMIT: &str = r#"{"op":"submit","app":"cg","nprocs":4}"#;

/// For each compute request sent (on A, on B, on A again): the thread
/// the injected resolver ran on and how many threads the process had at
/// that moment beyond those it had before the server started.
fn observe(tag: &str, deadline: Option<Duration>) -> Vec<(ThreadId, usize)> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&seen);
    let resolve: AppResolver = Box::new(move |name, nprocs| {
        let here = (std::thread::current().id(), threads());
        record.lock().expect("seen").push(here);
        pas2p_apps::by_name(name, nprocs)
    });
    let mut served = Served::start(tag, deadline, resolve);
    let before = served.before;
    for client in [0, 1, 0] {
        settle(served.idle(), STARTUP, "idle");
        assert_eq!(roundtrip(&mut served.clients[client], SUBMIT)["ok"], true);
    }
    served.stop();
    let seen = seen.lock().expect("seen");
    seen.iter()
        .map(|&(id, count)| (id, count - before))
        .collect()
}

/// `cg`, except that rank 0 of every run starts `delay` late — after
/// its peers are already waiting for it inside the simulator.
struct LateRankZero {
    inner: Box<dyn MpiApp>,
    delay: Duration,
}

impl MpiApp for LateRankZero {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn nprocs(&self) -> u32 {
        self.inner.nprocs()
    }
    fn workload(&self) -> String {
        self.inner.workload()
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        if rank == 0 {
            std::thread::sleep(self.delay);
        }
        self.inner.make_rank(rank)
    }
}

/// Twenty requests that all expire while their rank threads are parked
/// in the simulator: every one answers `timeout`, and once it has, the
/// process is back at its idle thread count — the expired run was torn
/// down before the answer, not abandoned after it.
fn expiry_soak() {
    let deadline = Duration::from_millis(10);
    let resolve: AppResolver = Box::new(move |name, nprocs| {
        Some(Box::new(LateRankZero {
            inner: pas2p_apps::by_name(name, nprocs)?,
            delay: 3 * deadline,
        }))
    });
    let mut served = Served::start("expiry", Some(deadline), resolve);
    settle(served.idle(), STARTUP, "idle");
    for request in 0..20 {
        let answer = roundtrip(&mut served.clients[request % 2], SUBMIT);
        assert_eq!(answer["code"], "timeout", "request {request}: {answer}");
        // Joined rank threads may still be leaving the kernel's task
        // list: give them one request's worth of time, no more.
        settle(served.idle(), 3 * deadline, "after an expired request");
    }
    let health = roundtrip(&mut served.clients[1], r#"{"op":"health"}"#);
    assert_eq!(health["result"]["timeouts"], 20u64);
    assert_eq!(health["result"]["inflight"], 0u64);
    served.stop();
}

#[test]
fn a_request_runs_on_the_thread_that_read_it() {
    // The acceptor and the two connections: a request starts nothing,
    // and a deadline changes neither the count nor the thread.
    for (tag, deadline) in [("plain", None), ("deadline", Some(Duration::from_secs(60)))] {
        let seen = observe(tag, deadline);
        let counts: Vec<usize> = seen.iter().map(|s| s.1).collect();
        assert_eq!(counts, [3, 3, 3], "{tag}: no thread per request");
        assert_eq!(
            seen[0].0, seen[2].0,
            "{tag}: connection A's requests share A's thread"
        );
        assert_ne!(
            seen[0].0, seen[1].0,
            "{tag}: connection B's request runs elsewhere"
        );
    }
    expiry_soak();
}
