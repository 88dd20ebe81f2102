//! The chaos soak: the hardened prediction service under concurrent
//! clients, seeded connection misbehavior, and injected store faults.
//!
//! The acceptance bar, per the hardening issue:
//!
//! * ≥ 8 concurrent clients, half of them misbehaving (mid-request
//!   disconnects, slow-loris drips, garbage frames) per a seeded
//!   [`pas2p_faults::chaos_plan`];
//! * a store fault fired mid-soak surfaces as a classified error and
//!   the retry recovers — the store is never torn;
//! * warm predictions after the soak are byte-identical to the cold
//!   artifacts;
//! * every response is classified — `ok:true` or `ok:false` with a
//!   `code` — never a silent drop of an answered request;
//! * load-shedding and deadline expiry are deterministic for a fixed
//!   seed and gate sequence: exact `shed`/`timeout` counts, not "some".

#![cfg(unix)]

use pas2p::{serve_unix_with, Pas2p, PredictionService, ServeOptions};
use pas2p_faults::{chaos_plan, ChaosBehavior, FaultStoreIo, StoreFaultKind, StoreOp};
use pas2p_store::SignatureStore;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The obs registry is process-global; serialize with the other suites.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_root(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pas2p-chaos-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn connect(socket: &Path) -> UnixStream {
    let mut attempts = 0;
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return s,
            Err(_) if attempts < 500 => {
                attempts += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("connect {}: {e}", socket.display()),
        }
    }
}

/// Send one line, read one response line (riding out read-timeout
/// ticks), parse it. Panics if the peer closes without answering.
fn roundtrip(stream: &mut UnixStream, request: &str) -> serde_json::Value {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    writeln!(stream, "{request}").expect("write request");
    read_response(&mut reader)
}

fn read_response(reader: &mut BufReader<UnixStream>) -> serde_json::Value {
    let mut line = String::new();
    let mut ticks = 0;
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => panic!("peer closed before responding"),
            Ok(_) => break,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // One tick per read-timeout period; a service that
                // stays silent this long has violated the contract.
                ticks += 1;
                assert!(ticks < 5, "no response after {ticks} read-timeout periods");
            }
            Err(e) => panic!("read: {e}"),
        }
    }
    serde_json::from_str(&line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
}

/// Every response must be classified: `ok:true`, or `ok:false` with a
/// non-empty `code` and `error`.
fn assert_classified(response: &serde_json::Value) {
    if response["ok"] == serde_json::json!(true) {
        return;
    }
    assert_eq!(
        response["ok"],
        serde_json::json!(false),
        "bad frame: {response}"
    );
    let code = response["code"].as_str().unwrap_or_default();
    assert!(!code.is_empty(), "unclassified failure: {response}");
    assert!(
        response["error"]
            .as_str()
            .map(|e| !e.is_empty())
            .unwrap_or(false),
        "failure without message: {response}"
    );
}

/// The predict request a clean client with slot `i` sends.
fn clean_request(i: usize) -> String {
    let app = ["cg", "ft"][i % 2];
    let target = ["B", "C"][(i / 2) % 2];
    format!("{{\"op\":\"predict\",\"app\":\"{app}\",\"nprocs\":4,\"target\":\"{target}\"}}")
}

/// Send the clean request, retrying classified failures (a mid-soak
/// store fault fails exactly one attempt); returns the final `ok`
/// response. Never retries silently — every attempt must classify.
fn clean_client(socket: &Path, i: usize) -> serde_json::Value {
    let request = clean_request(i);
    for _attempt in 0..6 {
        let mut stream = connect(socket);
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let response = roundtrip(&mut stream, &request);
        assert_classified(&response);
        if response["ok"] == serde_json::json!(true) {
            return response;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("clean client {i} never succeeded");
}

/// Interpret one chaos behavior against the live socket.
fn chaos_client(socket: &Path, i: usize, behavior: &ChaosBehavior) -> Option<serde_json::Value> {
    match behavior {
        ChaosBehavior::Clean => Some(clean_client(socket, i)),
        ChaosBehavior::Disconnect { after_bytes } => {
            let mut stream = connect(socket);
            let request = clean_request(i);
            let cut = (*after_bytes).min(request.len());
            let _ = stream.write_all(&request.as_bytes()[..cut]);
            // Dropped here: a client killed mid-request.
            None
        }
        ChaosBehavior::SlowLoris { chunk, delay_ms } => {
            let mut stream = connect(socket);
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("read timeout");
            let mut line = clean_request(i);
            line.push('\n');
            for piece in line.as_bytes().chunks((*chunk).max(1)) {
                stream.write_all(piece).expect("drip");
                stream.flush().expect("flush");
                std::thread::sleep(Duration::from_millis(*delay_ms));
            }
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let response = read_response(&mut reader);
            assert_classified(&response);
            Some(response)
        }
        ChaosBehavior::Garbage { line } => {
            let mut stream = connect(socket);
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("read timeout");
            let response = roundtrip(&mut stream, line);
            assert_eq!(
                response["ok"],
                serde_json::json!(false),
                "garbage must fail"
            );
            assert_eq!(response["code"], serde_json::json!("invalid"));
            Some(response)
        }
    }
}

/// Every published object in the store must verify its checksum.
fn assert_store_untorn(store_root: &Path) {
    let dir = store_root.join("objects");
    let mut published = 0;
    for entry in std::fs::read_dir(&dir).expect("objects dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        published += 1;
        let text = std::fs::read_to_string(&path).expect("object readable");
        let value: serde_json::Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("torn object {path:?}: {e}"));
        let payload = value["payload"].as_str().expect("payload");
        let checksum = value["checksum"].as_str().expect("checksum");
        assert_eq!(
            pas2p_store::sha256_hex(payload.as_bytes()),
            checksum,
            "checksum mismatch in {path:?}"
        );
    }
    assert!(published > 0, "the soak must have published artifacts");
}

/// The full soak: 10 concurrent clients under the seeded chaos plan, a
/// torn store write injected mid-soak, then a warm verification round.
#[test]
fn soak_survives_chaos_clients_and_store_faults() {
    let _serial = serial();
    let root = temp_root("soak");
    let store_root = root.join("store");
    let socket = root.join("pas2p.sock");

    // The store's third write tears mid-stream: one unlucky request
    // gets a classified error and its retry must recover.
    let io = FaultStoreIo::new(vec![StoreFaultKind::TornWrite {
        on_op: 3,
        keep_per_mille: 400,
    }]);
    let fault_stats = io.stats();
    let store = SignatureStore::open_with_io(&store_root, Box::new(io)).expect("open store");
    let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name));

    let server_svc = svc.clone();
    let server_socket = socket.clone();
    let server = std::thread::spawn(move || {
        serve_unix_with(
            &server_svc,
            &server_socket,
            ServeOptions {
                workers: 4,
                queue_capacity: 32,
                max_connections: 32,
                drain: Duration::from_secs(5),
            },
        )
        .expect("serve");
    });

    let plan = chaos_plan(7, 10);
    let (clean, disconnect, loris, garbage) = plan.census();
    assert!(
        clean >= 5,
        "at least half the plan is clean: {}",
        plan.describe()
    );
    assert!(
        disconnect + loris + garbage >= 3,
        "the plan actually misbehaves: {}",
        plan.describe()
    );

    // The soak proper: all 10 clients at once.
    let outcomes: Vec<Option<serde_json::Value>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .clients
            .iter()
            .enumerate()
            .map(|(i, behavior)| {
                let socket = socket.clone();
                scope.spawn(move || chaos_client(&socket, i, behavior))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // The injected store fault fired, and the clean clients all
    // recovered from it (assert_classified ran inside each client).
    assert!(fault_stats.faults_fired() >= 1, "the torn write fired");
    let cold: Vec<(usize, serde_json::Value)> = plan
        .clients
        .iter()
        .enumerate()
        .zip(&outcomes)
        .filter(|((_, b), _)| matches!(b, ChaosBehavior::Clean | ChaosBehavior::SlowLoris { .. }))
        .map(|((i, _), o)| (i, o.clone().expect("request-bearing client answered")))
        .collect();
    for (_, response) in &cold {
        assert_eq!(response["ok"], serde_json::json!(true));
    }

    // Warm verification round: every request-bearing client's artifact
    // is served from the store, byte-identical.
    for (i, cold_response) in &cold {
        let warm = clean_client(&socket, *i);
        assert_eq!(
            warm["result"]["cached"],
            serde_json::json!(true),
            "warm: {warm}"
        );
        assert_eq!(
            warm["result"]["prediction"], cold_response["result"]["prediction"],
            "warm prediction must be byte-identical for client {i}"
        );
    }

    // Control plane after the storm, then a graceful shutdown.
    let mut admin = connect(&socket);
    admin
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let health = roundtrip(&mut admin, r#"{"op":"health"}"#);
    assert_eq!(health["result"]["accepting"], serde_json::json!(true));
    let stats = roundtrip(&mut admin, r#"{"op":"stats"}"#);
    assert!(stats["result"]["entries"].as_u64().unwrap() >= 4);
    let bye = roundtrip(&mut admin, r#"{"op":"shutdown"}"#);
    assert_eq!(bye["result"]["stopping"], serde_json::json!(true));
    server.join().expect("server thread");
    assert!(!socket.exists(), "socket removed on shutdown");

    assert_store_untorn(&store_root);

    // Optional CI artifact: one JSON line describing the soak.
    if let Ok(path) = std::env::var("PAS2P_SOAK_METRICS") {
        let mut summary = serde_json::json!({
            "plan": plan.describe(),
            "clients_clean": clean,
            "clients_disconnect": disconnect,
            "clients_slow_loris": loris,
            "clients_garbage": garbage,
            "store_faults_fired": fault_stats.faults_fired(),
            "shed": svc.serve_stats().shed(),
            "timeouts": svc.serve_stats().timeouts(),
            "entries": svc.store_len(),
        });
        summary["health"] = health["result"].clone();
        std::fs::write(&path, format!("{summary}\n")).expect("write soak metrics");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Load-shedding is deterministic, not probabilistic: with one worker
/// wedged behind a gated store write and a one-slot queue already
/// holding a request, the third request is shed with `code:"busy"` —
/// exactly one shed, every run.
#[test]
fn full_queue_sheds_exactly_one_request() {
    let _serial = serial();
    let root = temp_root("shed");
    let store_root = root.join("store");
    let socket = root.join("pas2p.sock");
    let gate = root.join("gate");

    // Every store write blocks until the gate file exists: the
    // deterministic stand-in for a slow disk.
    let io = FaultStoreIo::new(vec![StoreFaultKind::BlockOnGate {
        op: StoreOp::Write,
        on_op: 1,
        gate: gate.to_string_lossy().into_owned(),
    }]);
    let store = SignatureStore::open_with_io(&store_root, Box::new(io)).expect("open store");
    let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name));

    let server_svc = svc.clone();
    let server_socket = socket.clone();
    let server = std::thread::spawn(move || {
        serve_unix_with(
            &server_svc,
            &server_socket,
            ServeOptions {
                workers: 1,
                queue_capacity: 1,
                max_connections: 16,
                drain: Duration::from_secs(10),
            },
        )
        .expect("serve");
    });

    let poll_health = |probe: &mut UnixStream, want: &dyn Fn(&serde_json::Value) -> bool| {
        for _ in 0..1000 {
            let health = roundtrip(probe, r#"{"op":"health"}"#);
            if want(&health["result"]) {
                return health;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("health never reached the wanted state");
    };
    let mut probe = connect(&socket);
    probe
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");

    // Request 1 occupies the only worker (wedged at the gated write)...
    let first = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut s = connect(&socket);
            s.set_read_timeout(Some(Duration::from_secs(120)))
                .expect("timeout");
            roundtrip(&mut s, r#"{"op":"submit","app":"cg","nprocs":4}"#)
        }
    });
    poll_health(&mut probe, &|h| h["inflight"] == serde_json::json!(1));

    // ...request 2 fills the one queue slot...
    let second = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut s = connect(&socket);
            s.set_read_timeout(Some(Duration::from_secs(120)))
                .expect("timeout");
            roundtrip(
                &mut s,
                r#"{"op":"predict","app":"ft","nprocs":4,"target":"B"}"#,
            )
        }
    });
    poll_health(&mut probe, &|h| h["queue_depth"] == serde_json::json!(1));

    // ...and request 3 must be shed, immediately and classified.
    let mut third = connect(&socket);
    third
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let shed = roundtrip(&mut third, r#"{"op":"submit","app":"ft","nprocs":4}"#);
    assert_eq!(shed["ok"], serde_json::json!(false));
    assert_eq!(shed["code"], serde_json::json!("busy"), "shed: {shed}");
    assert_eq!(shed["op"], serde_json::json!("submit"));
    let health = poll_health(&mut probe, &|h| h["shed"] == serde_json::json!(1));
    assert_eq!(
        health["result"]["shed"],
        serde_json::json!(1),
        "exactly one shed"
    );

    // Open the gate: the wedged request and the queued one both finish.
    std::fs::write(&gate, b"open").expect("open gate");
    let first = first.join().expect("first client");
    assert_eq!(first["ok"], serde_json::json!(true), "first: {first}");
    let second = second.join().expect("second client");
    assert_eq!(second["ok"], serde_json::json!(true), "second: {second}");
    assert_eq!(svc.serve_stats().shed(), 1, "still exactly one shed");

    let bye = roundtrip(&mut probe, r#"{"op":"shutdown"}"#);
    assert_eq!(bye["ok"], serde_json::json!(true));
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&root);
}

/// Deadline expiry is deterministic and classified: a request wedged
/// behind a closed gate answers `code:"timeout"` once its deadline
/// expires, the abandoned runner unwinds through the cancel check, and
/// the worker is free for the next request.
#[test]
fn deadline_expiry_answers_timeout_and_frees_the_worker() {
    let _serial = serial();
    let root = temp_root("deadline");
    let store_root = root.join("store");
    let socket = root.join("pas2p.sock");
    let gate = root.join("slow-disk-gate");

    let io = FaultStoreIo::new(vec![StoreFaultKind::BlockOnGate {
        op: StoreOp::Write,
        on_op: 1,
        gate: gate.to_string_lossy().into_owned(),
    }])
    // The gate honors the service's cancel token, so an abandoned
    // runner unwinds instead of blocking forever.
    .with_cancel_check(Box::new(pas2p::cancelled));
    let store = SignatureStore::open_with_io(&store_root, Box::new(io)).expect("open store");
    let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name))
        .with_deadline(Some(Duration::from_millis(400)));

    let server_svc = svc.clone();
    let server_socket = socket.clone();
    let server = std::thread::spawn(move || {
        serve_unix_with(
            &server_svc,
            &server_socket,
            ServeOptions {
                workers: 1,
                queue_capacity: 4,
                max_connections: 16,
                drain: Duration::from_secs(10),
            },
        )
        .expect("serve");
    });

    let mut client = connect(&socket);
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let answer = roundtrip(&mut client, r#"{"op":"submit","app":"cg","nprocs":4}"#);
    assert_eq!(answer["ok"], serde_json::json!(false));
    assert_eq!(
        answer["code"],
        serde_json::json!("timeout"),
        "answer: {answer}"
    );
    assert_eq!(svc.serve_stats().timeouts(), 1, "exactly one timeout");

    // The worker is free again: the control plane answers, and a
    // health probe reports the timeout.
    let health = roundtrip(&mut client, r#"{"op":"health"}"#);
    assert_eq!(health["result"]["timeouts"], serde_json::json!(1));
    assert_eq!(health["result"]["deadline_ms"], serde_json::json!(400));
    // Open the gate before shutting down: the graceful shutdown's own
    // index flush is a store write and runs with no cancel token.
    std::fs::write(&gate, b"open for shutdown").expect("open gate");
    let bye = roundtrip(&mut client, r#"{"op":"shutdown"}"#);
    assert_eq!(bye["ok"], serde_json::json!(true));
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&root);
}
