//! A request still computing when shutdown's drain runs out is in the
//! timeline taken once `serve_unix_with` returns: an event is in the
//! process sink as soon as it is recorded, so the request's
//! `serve.submit` stage shows up as an `unfinished` slice instead of
//! waiting in its connection thread. (The tracing gate and the event
//! sink are process-global, so this test lives in a binary of its own.)

#![cfg(unix)]

use pas2p::{serve_unix_with, AppResolver, Pas2p, PredictionService, ServeOptions};
use pas2p_obs::{ChromeTrace, PID_HOST};
use pas2p_store::SignatureStore;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// `(entered, open)`: the resolver says it was entered, then waits
/// until the test opens the gate.
type Gate = Arc<(Mutex<(bool, bool)>, Condvar)>;

fn connect(socket: &Path) -> UnixStream {
    for _ in 0..500 {
        if let Ok(stream) = UnixStream::connect(socket) {
            return stream;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("connect {}", socket.display());
}

fn read_line(stream: &UnixStream) -> String {
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read");
    line
}

#[test]
fn a_request_running_past_the_drain_is_an_unfinished_slice() {
    let root = std::env::temp_dir().join(format!("pas2p-serve-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir");
    let socket = root.join("pas2p.sock");

    let gate: Gate = Arc::new((Mutex::new((false, false)), Condvar::new()));
    let held = Arc::clone(&gate);
    let resolve: AppResolver = Box::new(move |name, nprocs| {
        let (state, changed) = &*held;
        let mut state = state.lock().expect("gate");
        state.0 = true;
        changed.notify_all();
        while !state.1 {
            state = changed.wait(state).expect("gate");
        }
        pas2p_apps::by_name(name, nprocs)
    });
    let store = SignatureStore::open(root.join("store")).expect("open store");
    let svc = PredictionService::new(Pas2p::default(), store, resolve);

    pas2p_obs::set_tracing(true);
    pas2p_obs::events::clear();
    let server_socket = socket.clone();
    let server = std::thread::spawn(move || {
        let opts = ServeOptions {
            drain: Duration::from_millis(50),
            ..ServeOptions::default()
        };
        serve_unix_with(&svc, &server_socket, opts).expect("serve");
    });

    let mut blocked = connect(&socket);
    writeln!(blocked, r#"{{"op":"submit","app":"cg","nprocs":4}}"#).expect("write");
    {
        let (state, changed) = &*gate;
        let mut state = state.lock().expect("gate");
        while !state.0 {
            state = changed.wait(state).expect("gate");
        }
    }
    let mut stopper = connect(&socket);
    writeln!(stopper, r#"{{"op":"shutdown"}}"#).expect("write");
    assert!(read_line(&stopper).contains(r#""ok":true"#));
    server.join().expect("server thread");

    let events = pas2p_obs::events::take();
    pas2p_obs::set_tracing(false);
    let mut doc = ChromeTrace::new();
    doc.push_host_events(&events, PID_HOST);
    let unfinished = ("unfinished".to_string(), "true".to_string());
    assert!(
        doc.events
            .iter()
            .any(|e| e.name == "serve.submit" && e.args.contains(&unfinished)),
        "no unfinished serve.submit slice among {} host events",
        events.len()
    );

    let (state, changed) = &*gate;
    state.lock().expect("gate").1 = true;
    changed.notify_all();
    assert!(read_line(&blocked).contains(r#""ok":true"#));
    let _ = std::fs::remove_dir_all(&root);
}
