//! The concurrent unix-socket front end of the prediction service.
//!
//! The server owns connections, not work: one acceptor, one thread per
//! connection, and every request runs on the thread that read it
//! (`PredictionService::respond` in `protocol.rs`, the line handler of
//! the stdin loop too). It stays deterministic enough to chaos-test:
//!
//! * **N simultaneous connections.** The acceptor blocks in `accept`
//!   and hands each connection to its own thread (bounded by
//!   `max_connections`; excess connections get a classified `busy`
//!   response and are closed). An idle server runs no other thread.
//! * **Bounded compute, bounded line.** `workers` and `queue_capacity`
//!   are the bounds of the service's admission (`admission.rs`): a compute op
//!   (`submit`/`predict`/`batch`/`stats`) takes one of `workers`
//!   permits on its connection thread, at most `queue_capacity` wait
//!   for one, and beyond that the request is *shed* — a `code:"busy"`
//!   response, a `serve.shed` counter tick — never unbounded memory.
//! * **Inline control plane.** `ping`, `health`, `shutdown` and
//!   malformed lines need no permit: the control plane stays responsive
//!   when the data plane is saturated (`health` takes no lock but the
//!   line probe's one lookup).
//! * **Graceful shutdown.** A `shutdown` request is acknowledged on its
//!   own connection first; that connection then sets the stop flag and
//!   connects to the socket once, which wakes the acceptor. It stops
//!   accepting, open connections get `drain` to finish what they are
//!   answering, the store index is flushed and the socket file removed
//!   — also when `accept` itself failed.
//!
//! Per-request deadlines are the service's own
//! ([`crate::service::PredictionService::with_deadline`]) and start
//! nothing here: the request checks its deadline where it runs, on its
//! connection's thread.
//!
//! Observability: `serve.shed` / `serve.timeout` counters and
//! `serve.inflight` / `serve.queue` gauges, all maintained by the
//! service and its admission, plus its per-request counters.

#![cfg(unix)]

use crate::protocol::read_bounded_line;
use crate::service::PredictionService;
use std::io::{BufReader, ErrorKind, Write};
use std::ops::ControlFlow;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs of the concurrent server. The defaults suit tests and small
/// deployments; the CLI exposes each as a flag.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Compute requests that may run at once (permits).
    pub workers: usize,
    /// Bound of the line waiting for a permit; a full line sheds.
    pub queue_capacity: usize,
    /// Maximum simultaneous connections; excess are answered `busy`
    /// and closed.
    pub max_connections: usize,
    /// How long shutdown waits for in-flight connections to finish
    /// before giving up on them.
    pub drain: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 4,
            queue_capacity: 64,
            max_connections: 64,
            drain: Duration::from_secs(5),
        }
    }
}

/// The stop flag, and the way to make a blocked acceptor look at it.
struct Stop {
    requested: AtomicBool,
    socket: PathBuf,
}

impl Stop {
    /// Called by the connection that acknowledged `shutdown`: the
    /// throwaway connection returns the acceptor from `accept`. If it
    /// cannot be made, the next client to connect has the same effect.
    fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        let _ = UnixStream::connect(&self.socket);
    }

    fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

/// Serve `service` on a unix socket at `socket_path` until a client
/// sends `shutdown`. See the module docs for the lifecycle.
pub fn serve_unix_with(
    service: &PredictionService,
    socket_path: &Path,
    opts: ServeOptions,
) -> std::io::Result<()> {
    let stats = service.serve_stats();
    let (workers, queue) = (opts.workers.max(1), opts.queue_capacity.max(1));
    stats.workers.store(workers as u64, Ordering::SeqCst);
    stats.queue_capacity.store(queue as u64, Ordering::SeqCst);

    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)?;
    stats.accepting.store(true, Ordering::SeqCst);
    let stop = Arc::new(Stop {
        requested: AtomicBool::new(false),
        socket: socket_path.to_path_buf(),
    });

    // The accept loop: one thread per connection, until a connection
    // requested shutdown (its wake-up connection, or a client racing
    // it, is dropped unanswered) or `accept` fails for good.
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let outcome = loop {
        let stream = match listener.accept() {
            Ok((stream, _addr)) => stream,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) =>
            {
                continue
            }
            Err(e) => break Err(e),
        };
        if stop.requested() {
            break Ok(());
        }
        if stats.connections.load(Ordering::SeqCst) >= opts.max_connections as u64 {
            // Shed the connection itself: classified, closed.
            let busy = stats.busy("busy", "connection limit reached");
            let _ = writeln!(&stream, "{}", busy.render());
            continue;
        }
        stats.connections.fetch_add(1, Ordering::SeqCst);
        let svc = service.clone();
        let stop = Arc::clone(&stop);
        connections.push(std::thread::spawn(move || {
            handle_connection(stream, &svc, &stop);
            svc.serve_stats().connections.fetch_sub(1, Ordering::SeqCst);
        }));
        connections.retain(|h| !h.is_finished());
    };

    // Graceful shutdown, on every way out of the loop: stop accepting
    // (drop the listener), give open connections `drain` to finish,
    // then seal the store.
    stats.accepting.store(false, Ordering::SeqCst);
    drop(listener);
    let deadline = Instant::now() + opts.drain;
    while stats.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    for handle in connections {
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
    service.flush_store();
    let _ = std::fs::remove_file(socket_path);
    outcome
}

/// One connection's read loop: every line goes through
/// `PredictionService::respond`; stop on EOF, socket error, server
/// stop, or a shutdown request from this client. Reads run under a
/// 100ms timeout so the loop notices the stop flag even while a
/// slow-loris client drips bytes.
fn handle_connection(stream: UnixStream, service: &PredictionService, stop: &Stop) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut writer = stream;
    let mut line = String::new();
    while read_line_patiently(&mut reader, &mut line, stop) {
        match service.respond(&line, &mut writer) {
            Ok(ControlFlow::Continue(())) => line.clear(),
            // Ack flushed; now stop the accept loop. The listener
            // drains the rest.
            Ok(ControlFlow::Break(true)) => {
                stop.request();
                return;
            }
            // An over-long line (answered), or a dead socket: hang up.
            Ok(ControlFlow::Break(false)) | Err(_) => return,
        }
    }
}

/// Read one line into `line`, riding out read-timeout ticks until data
/// arrives (`true`) or the peer closes, the socket fails or the server
/// stops (`false`). A tick leaves any partial line in `line`, so a
/// slow-loris client's bytes accumulate across ticks while the loop
/// keeps polling the stop flag; a final unterminated fragment at EOF is
/// surfaced as a line (it will parse — or classify — normally). So is
/// one that passed `MAX_LINE_BYTES` without a newline
/// ([`read_bounded_line`]).
fn read_line_patiently(reader: &mut BufReader<UnixStream>, line: &mut String, stop: &Stop) -> bool {
    loop {
        match read_bounded_line(reader, line) {
            Ok(0) => return !line.is_empty(),
            Ok(_) => return true,
            // Drain in progress: drop the partial line — the client
            // never finished the request.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.requested() {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pas2p;
    use crate::protocol::MAX_LINE_BYTES;
    use pas2p_store::SignatureStore;
    use std::io::BufRead;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    fn temp_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pas2p-server-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn service(root: &std::path::Path) -> PredictionService {
        let store = SignatureStore::open(root.join("store")).expect("open store");
        PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name))
    }

    fn connect(socket: &std::path::Path) -> UnixStream {
        let mut attempts = 0;
        loop {
            match UnixStream::connect(socket) {
                Ok(s) => return s,
                Err(_) if attempts < 200 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("connect {}: {e}", socket.display()),
            }
        }
    }

    fn roundtrip(stream: &mut UnixStream, request: &str) -> serde_json::Value {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        writeln!(stream, "{request}").expect("write");
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => panic!("peer closed before responding"),
                Ok(_) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("read: {e}"),
            }
        }
        serde_json::from_str(&line).expect("response parses")
    }

    #[test]
    fn concurrent_clients_are_served_simultaneously() {
        let root = temp_root("concurrent");
        let socket = root.join("pas2p.sock");
        let svc = service(&root);
        let server_svc = svc.clone();
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || {
            serve_unix_with(
                &server_svc,
                &server_socket,
                ServeOptions {
                    workers: 2,
                    ..ServeOptions::default()
                },
            )
            .expect("serve");
        });
        // Client A connects first but stays silent; client B must be
        // served anyway — the single-threaded server of PR 8 would
        // starve B behind A.
        let _idle = connect(&socket);
        let mut active = connect(&socket);
        let pong = roundtrip(&mut active, r#"{"op":"ping"}"#);
        assert_eq!(pong["ok"], serde_json::json!(true));
        assert_eq!(pong["result"]["pong"], serde_json::json!(true));
        let health = roundtrip(&mut active, r#"{"op":"health"}"#);
        assert_eq!(health["result"]["accepting"], serde_json::json!(true));
        assert_eq!(health["result"]["workers"], serde_json::json!(2));
        assert!(
            health["result"]["connections"].as_u64().unwrap() >= 2,
            "both connections visible: {health}"
        );
        let bye = roundtrip(&mut active, r#"{"op":"shutdown"}"#);
        assert_eq!(bye["result"]["stopping"], serde_json::json!(true));
        server.join().expect("server thread");
        assert!(!socket.exists(), "socket removed on clean exit");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Every answered line counts as one request, wherever it was
    /// decoded and answered: a malformed line and a control-plane op on
    /// the connection thread, a queued op on a worker.
    #[test]
    fn each_line_counts_as_one_request() {
        let root = temp_root("count");
        let socket = root.join("pas2p.sock");
        let svc = service(&root);
        let server_svc = svc.clone();
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || {
            serve_unix_with(&server_svc, &server_socket, ServeOptions::default()).expect("serve");
        });
        let mut client = connect(&socket);
        let invalid = roundtrip(&mut client, "not json");
        assert_eq!(invalid["op"], serde_json::json!("invalid"));
        roundtrip(&mut client, r#"{"op":"ping"}"#);
        let unknown = roundtrip(&mut client, r#"{"op":"predict","app":"nope","target":"B"}"#);
        assert_eq!(unknown["op"], serde_json::json!("predict"));
        assert_eq!(unknown["code"], serde_json::json!("error"));
        let stats = roundtrip(&mut client, r#"{"op":"stats"}"#);
        assert_eq!(stats["result"]["requests"], serde_json::json!(4));
        let health = roundtrip(&mut client, r#"{"op":"health"}"#);
        assert_eq!(health["result"]["requests"], serde_json::json!(5));
        roundtrip(&mut client, r#"{"op":"shutdown"}"#);
        server.join().expect("server thread");
        assert_eq!(svc.serve_stats().requests.load(Ordering::SeqCst), 6);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn garbage_and_disconnects_get_classified_answers_not_crashes() {
        let root = temp_root("garbage");
        let socket = root.join("pas2p.sock");
        let svc = service(&root);
        let server_svc = svc.clone();
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || {
            serve_unix_with(&server_svc, &server_socket, ServeOptions::default()).expect("serve");
        });
        // A client that sends garbage gets a classified invalid answer.
        let mut garbage = connect(&socket);
        let answer = roundtrip(&mut garbage, "this is not json");
        assert_eq!(answer["ok"], serde_json::json!(false));
        assert_eq!(answer["code"], serde_json::json!("invalid"));
        // A client that disconnects mid-request leaves no residue.
        {
            let mut rude = connect(&socket);
            rude.write_all(b"{\"op\":\"pred").expect("partial write");
            // dropped here — mid-request disconnect
        }
        // The service still answers.
        let mut polite = connect(&socket);
        let pong = roundtrip(&mut polite, r#"{"op":"ping"}"#);
        assert_eq!(pong["ok"], serde_json::json!(true));
        let bye = roundtrip(&mut polite, r#"{"op":"shutdown"}"#);
        assert_eq!(bye["ok"], serde_json::json!(true));
        server.join().expect("server thread");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A request line is bounded. One byte past the cap with no newline
    /// in sight is answered once, as a malformed line, and the
    /// connection is closed — there is no way to resynchronise. A line
    /// of exactly the cap is a request like any other, and the server
    /// goes on serving.
    #[test]
    fn an_overlong_line_gets_one_invalid_answer_and_is_hung_up_on() {
        let root = temp_root("overlong");
        let socket = root.join("pas2p.sock");
        let svc = service(&root);
        let server_svc = svc.clone();
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || {
            serve_unix_with(&server_svc, &server_socket, ServeOptions::default()).expect("serve");
        });
        let mut flood = connect(&socket);
        flood
            .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
            .expect("the server reads as fast as this writes");
        let mut reader = BufReader::new(flood);
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("one answer");
        let answer: serde_json::Value = serde_json::from_str(&answer).expect("answer parses");
        assert_eq!(answer["code"], serde_json::json!("invalid"));
        let error = answer["error"].as_str().expect("error text");
        assert!(error.contains(&MAX_LINE_BYTES.to_string()), "{error}");
        let mut rest = String::new();
        let closed = reader.read_line(&mut rest).expect("clean close");
        assert_eq!(closed, 0, "nothing after the one answer: {rest}");

        // `roundtrip` appends the newline that makes it exactly the cap.
        let mut polite = connect(&socket);
        let ping = r#"{"op":"ping"}"#;
        let padded = format!("{ping}{}", " ".repeat(MAX_LINE_BYTES - 1 - ping.len()));
        let pong = roundtrip(&mut polite, &padded);
        assert_eq!(pong["result"]["pong"], serde_json::json!(true));
        roundtrip(&mut polite, r#"{"op":"shutdown"}"#);
        server.join().expect("server thread");
        // The refused line counts like any malformed one.
        assert_eq!(svc.serve_stats().requests.load(Ordering::SeqCst), 3);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The stdin loop reads through the same bound: a line of exactly
    /// the cap is answered, one byte more gets the one `invalid` answer
    /// and ends the loop — what follows is never read, the store index
    /// is flushed on the way out.
    #[test]
    fn an_overlong_stdin_line_gets_one_invalid_answer_and_ends_the_loop() {
        let root = temp_root("overlong-stdin");
        let svc = service(&root);
        let ping = r#"{"op":"ping"}"#;
        let at_cap = format!("{ping}{}", " ".repeat(MAX_LINE_BYTES - 1 - ping.len()));
        let input = format!("{at_cap}\n{}\n{ping}\n", "x".repeat(MAX_LINE_BYTES));
        let mut output = Vec::new();
        svc.serve(std::io::Cursor::new(input), &mut output)
            .expect("serve");
        let answers: Vec<serde_json::Value> = String::from_utf8(output)
            .expect("utf8")
            .lines()
            .map(|l| serde_json::from_str(l).expect("answer parses"))
            .collect();
        assert_eq!(answers.len(), 2, "{answers:?}");
        assert_eq!(answers[0]["result"]["pong"], serde_json::json!(true));
        assert_eq!(answers[1]["code"], serde_json::json!("invalid"));
        let error = answers[1]["error"].as_str().expect("error text");
        assert!(error.contains(&MAX_LINE_BYTES.to_string()), "{error}");
        assert_eq!(svc.serve_stats().requests.load(Ordering::SeqCst), 2);
        assert!(
            root.join("store/index.json").exists(),
            "index flushed on the way out"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Admission: with two permits and six clients held inside the
    /// injected resolver, exactly two requests execute, four wait in
    /// line, and all six are answered once the gate opens.
    #[test]
    fn permits_bound_concurrent_compute() {
        use std::sync::atomic::AtomicU64;
        use std::sync::{Condvar, Mutex};

        let root = temp_root("permits");
        let socket = root.join("pas2p.sock");
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let active = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let store = SignatureStore::open(root.join("store")).expect("open store");
        let resolve = {
            let (gate, active, peak) = (gate.clone(), active.clone(), peak.clone());
            move |name: &str, nprocs: u32| {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let mut open = gate.0.lock().unwrap();
                while !*open {
                    open = gate.1.wait(open).unwrap();
                }
                drop(open);
                active.fetch_sub(1, Ordering::SeqCst);
                pas2p_apps::by_name(name, nprocs)
            }
        };
        let svc = PredictionService::new(Pas2p::default(), store, Box::new(resolve));
        let server_svc = svc.clone();
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || {
            let opts = ServeOptions {
                workers: 2,
                ..ServeOptions::default()
            };
            serve_unix_with(&server_svc, &server_socket, opts).expect("serve");
        });
        let mut probe = connect(&socket);
        let clients: Vec<_> = (0..6)
            .map(|_| {
                let socket = socket.clone();
                std::thread::spawn(move || {
                    let mut client = connect(&socket);
                    roundtrip(&mut client, r#"{"op":"submit","app":"cg","nprocs":4}"#)
                })
            })
            .collect();
        // Two hold permits (inside the resolver), four wait in line.
        let mut polls = 0;
        loop {
            let health = roundtrip(&mut probe, r#"{"op":"health"}"#);
            let inflight = health["result"]["inflight"].as_u64().unwrap();
            assert!(inflight <= 2, "inflight exceeds the permits: {health}");
            if inflight == 2 && health["result"]["queue_depth"] == serde_json::json!(4) {
                break;
            }
            polls += 1;
            assert!(
                polls < 2000,
                "never reached 2 in flight + 4 queued: {health}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(active.load(Ordering::SeqCst), 2);
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        while !clients.iter().all(|c| c.is_finished()) {
            let health = roundtrip(&mut probe, r#"{"op":"health"}"#);
            assert!(
                health["result"]["inflight"].as_u64().unwrap() <= 2,
                "{health}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        for client in clients {
            let answer = client.join().expect("client");
            assert_eq!(answer["ok"], serde_json::json!(true), "{answer}");
        }
        assert_eq!(
            peak.load(Ordering::SeqCst),
            2,
            "never more than two at once"
        );
        let health = roundtrip(&mut probe, r#"{"op":"health"}"#);
        assert_eq!(health["result"]["inflight"], serde_json::json!(0));
        assert_eq!(health["result"]["queue_depth"], serde_json::json!(0));
        assert_eq!(health["result"]["shed"], serde_json::json!(0));
        roundtrip(&mut probe, r#"{"op":"shutdown"}"#);
        server.join().expect("server thread");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The wire format, pinned byte for byte, and the same bytes from
    /// the stdin loop and from the socket (each over a fresh store, so
    /// the cold submit answers — digest included — must match too).
    #[test]
    fn stdin_and_socket_answer_with_identical_golden_bytes() {
        const PONG: &str = r#"{"ok":true,"op":"ping","result":{"pong":true}}"#;
        const INVALID: &str = concat!(
            r#"{"code":"invalid","error":"malformed request: unknown op 'nope'","#,
            r#""ok":false,"op":"invalid"}"#
        );
        const BUSY: &str = concat!(
            r#"{"code":"busy","error":"connection limit reached; retry later","#,
            r#""ok":false,"op":"busy"}"#
        );
        let requests = [
            r#"{"op":"ping"}"#,
            r#"{"op":"nope"}"#,
            r#"{"op":"submit","app":"cg","nprocs":4}"#,
        ];

        let stdin_root = temp_root("golden-stdin");
        let mut out = Vec::new();
        service(&stdin_root)
            .serve(std::io::Cursor::new(requests.join("\n\n")), &mut out)
            .expect("serve");
        let stdin_lines: Vec<String> = String::from_utf8(out)
            .expect("utf-8")
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(stdin_lines.len(), 3, "blank lines are skipped");
        assert_eq!(stdin_lines[0], PONG);
        assert_eq!(stdin_lines[1], INVALID);
        assert!(
            stdin_lines[2]
                .starts_with(r#"{"ok":true,"op":"submit","result":{"app":"CG","cached":false,"#),
            "{}",
            stdin_lines[2]
        );

        let root = temp_root("golden-socket");
        let socket = root.join("pas2p.sock");
        let svc = service(&root);
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || {
            let opts = ServeOptions {
                max_connections: 1,
                ..ServeOptions::default()
            };
            serve_unix_with(&svc, &server_socket, opts).expect("serve");
        });
        let read_raw = |stream: &UnixStream| {
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).expect("read");
            line
        };
        let mut client = connect(&socket);
        for (request, expected) in requests.iter().zip(&stdin_lines) {
            writeln!(client, "{request}\n").expect("write");
            assert_eq!(read_raw(&client), format!("{expected}\n"), "{request}");
        }
        // Over the connection cap: one classified line, then EOF.
        let refused = connect(&socket);
        assert_eq!(read_raw(&refused), format!("{BUSY}\n"));
        writeln!(client, r#"{{"op":"shutdown"}}"#).expect("write");
        assert_eq!(
            read_raw(&client),
            "{\"ok\":true,\"op\":\"shutdown\",\"result\":{\"stopping\":true}}\n"
        );
        server.join().expect("server thread");
        for root in [stdin_root, root] {
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// Nobody is connected and the acceptor sits in `accept` when the
    /// shutdown is acknowledged: the server must still return, well
    /// inside its drain budget, with the socket gone.
    #[test]
    fn shutdown_wakes_an_acceptor_blocked_in_accept() {
        let root = temp_root("wake");
        let socket = root.join("pas2p.sock");
        let svc = service(&root);
        let server_socket = socket.clone();
        let opts = ServeOptions::default();
        let server = std::thread::spawn(move || {
            serve_unix_with(&svc, &server_socket, opts).expect("serve");
        });
        let mut client = connect(&socket);
        let started = Instant::now();
        let bye = roundtrip(&mut client, r#"{"op":"shutdown"}"#);
        assert_eq!(bye["result"]["stopping"], serde_json::json!(true));
        server.join().expect("server thread");
        assert!(
            started.elapsed() < opts.drain,
            "shutdown took {:?}",
            started.elapsed()
        );
        assert!(!socket.exists(), "socket removed on clean exit");
        let _ = std::fs::remove_dir_all(&root);
    }
}
