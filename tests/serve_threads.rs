//! A request runs on the thread that read it: an idle server is one
//! acceptor thread whatever `workers` says, a connection adds one
//! thread, a compute request adds none — and exactly one, the deadline
//! runner, when the service has a deadline. (Threads are counted for
//! the whole process, so this test lives in a binary of its own, as a
//! single test.)

#![cfg(target_os = "linux")]

use pas2p::{serve_unix_with, Pas2p, PredictionService, ServeOptions};
use pas2p_store::SignatureStore;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Wait for threads that are starting or exiting until the process has
/// `expected` of them.
fn settle(expected: usize, what: &str) {
    for _ in 0..1000 {
        if threads() == expected {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("{what}: {} threads, expected {expected}", threads());
}

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

/// Serve with eight permits and two connections, A and B; return, for
/// each compute request sent (on A, on B, on A again), the thread the
/// injected resolver ran on and how many threads the process had at that
/// moment beyond those it had before the server started.
fn observe(tag: &str, deadline: Option<Duration>) -> Vec<(ThreadId, usize)> {
    let root = std::env::temp_dir().join(format!("pas2p-threads-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir");
    let socket = root.join("pas2p.sock");
    let before = threads();

    let seen = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&seen);
    let store = SignatureStore::open(root.join("store")).expect("open store");
    let svc = PredictionService::new(
        Pas2p::default(),
        store,
        Box::new(move |name, nprocs| {
            let here = (std::thread::current().id(), threads() - before);
            record.lock().expect("seen").push(here);
            pas2p_apps::by_name(name, nprocs)
        }),
    )
    .with_deadline(deadline);
    let server_socket = socket.clone();
    let server = std::thread::spawn(move || {
        let opts = ServeOptions {
            workers: 8,
            ..ServeOptions::default()
        };
        serve_unix_with(&svc, &server_socket, opts).expect("serve");
    });

    let mut clients = [connect(&socket), connect(&socket)];
    let submit = r#"{"op":"submit","app":"cg","nprocs":4}"#;
    for client in [0, 1, 0] {
        settle(
            before + 3,
            "idle: the acceptor and one thread per connection",
        );
        assert_eq!(roundtrip(&mut clients[client], submit)["ok"], true);
    }
    roundtrip(&mut clients[0], r#"{"op":"shutdown"}"#);
    drop(clients);
    server.join().expect("server thread");
    settle(before, "after shutdown");
    let _ = std::fs::remove_dir_all(&root);
    let seen = seen.lock().expect("seen").clone();
    seen
}

#[test]
fn a_request_runs_on_the_thread_that_read_it() {
    // The acceptor and the two connections: a request starts nothing.
    let plain = observe("plain", None);
    let counts: Vec<usize> = plain.iter().map(|s| s.1).collect();
    assert_eq!(counts, [3, 3, 3], "no thread per request");
    assert_eq!(
        plain[0].0, plain[2].0,
        "connection A's requests share A's thread"
    );
    assert_ne!(
        plain[0].0, plain[1].0,
        "connection B's request runs elsewhere"
    );

    // With a deadline: the same, plus the one runner per request.
    let guarded = observe("deadline", Some(Duration::from_secs(60)));
    let counts: Vec<usize> = guarded.iter().map(|s| s.1).collect();
    assert_eq!(counts, [4, 4, 4], "one runner per deadline request");
    assert_ne!(guarded[0].0, guarded[2].0, "a fresh runner each time");
}
