//! The concurrent unix-socket front end of the prediction service.
//!
//! PR 8's `serve_unix` accepted one connection at a time: a stalled or
//! malicious client starved every other. This module replaces it with a
//! small, explicit server shaped for the ROADMAP's "heavy traffic"
//! north-star while staying deterministic enough to chaos-test:
//!
//! * **N simultaneous connections.** A nonblocking accept loop hands
//!   each connection to its own reader thread (bounded by
//!   `max_connections`; excess connections get a classified `busy`
//!   response and are closed).
//! * **Bounded worker pool, bounded queue.** Compute-bearing requests
//!   (`submit`/`predict`/`batch`/`stats`) travel through a
//!   `sync_channel` of capacity `queue_capacity` to `workers` worker
//!   threads. When the queue is full the request is *shed* — a
//!   `code:"busy"` response, a `serve.shed` counter tick — never
//!   unbounded memory.
//! * **Inline control plane.** `ping`, `health`, `shutdown` and
//!   malformed lines are answered by the connection thread itself,
//!   without consuming queue capacity: the control plane stays
//!   responsive when the data plane is saturated (`health` takes no
//!   lock at all).
//! * **Graceful shutdown.** A `shutdown` request is acknowledged on its
//!   own connection first; then the listener stops accepting, in-flight
//!   requests drain (bounded by `drain`), workers retire, the store
//!   index is flushed and the socket file removed.
//!
//! Per-request deadlines are the service's own
//! ([`crate::service::PredictionService::with_deadline`]); the server
//! adds the queueing, shedding and drain semantics around them.
//!
//! Observability: `serve.shed` / `serve.timeout` counters (the latter
//! from the service), `serve.inflight` / `serve.queue` gauges, plus the
//! per-request counters the service already maintains.

#![cfg(unix)]

use crate::service::{PredictionService, Request, Response, ServiceCore};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Knobs of the concurrent server. The defaults suit tests and small
/// deployments; the CLI exposes each as a flag.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads executing queued requests.
    pub workers: usize,
    /// Bound of the in-flight request queue; a full queue sheds.
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

/// One queued request, already decoded on its connection thread, plus
/// the channel its response rides back on (per-request, so responses
/// cannot cross connections).
struct Job {
    request: Request,
    reply: SyncSender<Response>,
}

fn set_queue_gauge(depth: u64) {
    if pas2p_obs::enabled() {
        pas2p_obs::gauge("serve.queue").set(depth as f64);
    }
}

fn set_inflight_gauge(n: u64) {
    if pas2p_obs::enabled() {
        pas2p_obs::gauge("serve.inflight").set(n as f64);
    }
}

/// Serve `service` on a unix socket at `socket_path` until a client
/// sends `shutdown`. See the module docs for the lifecycle.
pub fn serve_unix_with(
    service: &PredictionService,
    socket_path: &std::path::Path,
    opts: ServeOptions,
) -> std::io::Result<()> {
    let workers = opts.workers.max(1);
    let queue_capacity = opts.queue_capacity.max(1);
    let core = Arc::clone(service.core());
    core.stats.workers.store(workers as u64, Ordering::SeqCst);
    core.stats
        .queue_capacity
        .store(queue_capacity as u64, Ordering::SeqCst);
    core.stats.accepting.store(true, Ordering::SeqCst);

    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)?;
    listener.set_nonblocking(true)?;

    let stop = Arc::new(AtomicBool::new(false));
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(queue_capacity);
    let job_rx = Arc::new(Mutex::new(job_rx));

    // The worker pool: claim one job at a time from the shared
    // receiver, execute it through the service (deadline + panic
    // boundary included), send the response back to its connection.
    let mut worker_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let rx = Arc::clone(&job_rx);
        let svc = service.clone();
        worker_handles.push(std::thread::spawn(move || {
            loop {
                let job = {
                    let guard = rx.lock().expect("worker queue lock");
                    guard.recv()
                };
                let Ok(job) = job else {
                    // Every sender is gone: the server is draining.
                    break;
                };
                let core = svc.core();
                let depth = core.stats.queue_depth.fetch_sub(1, Ordering::SeqCst) - 1;
                set_queue_gauge(depth);
                let inflight = core.stats.inflight.fetch_add(1, Ordering::SeqCst) + 1;
                set_inflight_gauge(inflight);
                let (response, _stop) = svc.handle_request(job.request);
                let inflight = core.stats.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
                set_inflight_gauge(inflight);
                // The connection may have vanished; that is its problem.
                let _ = job.reply.send(response);
            }
            // Detached deadline runners may outlive the worker; events
            // buffered on this thread are handed over before it exits.
            pas2p_obs::events::flush();
        }));
    }

    // The accept loop: poll the (nonblocking) listener, spawn one
    // reader thread per connection, stop when a connection requested
    // shutdown.
    let mut conn_handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let open = core.stats.connections.load(Ordering::SeqCst);
                if open >= opts.max_connections as u64 {
                    // Shed the connection itself: classified, closed.
                    shed_connection(stream, &core);
                    continue;
                }
                core.stats.connections.fetch_add(1, Ordering::SeqCst);
                let svc = service.clone();
                let stop = Arc::clone(&stop);
                let job_tx = job_tx.clone();
                conn_handles.push(std::thread::spawn(move || {
                    handle_connection(stream, &svc, &stop, &job_tx);
                    svc.core()
                        .stats
                        .connections
                        .fetch_sub(1, Ordering::SeqCst);
                    pas2p_obs::events::flush();
                }));
                conn_handles.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }

    // Graceful shutdown: stop accepting (drop the listener), give
    // in-flight connections `drain` to finish (workers are still
    // serving the queue), then retire the pool and seal the store.
    core.stats.accepting.store(false, Ordering::SeqCst);
    drop(listener);
    let deadline = Instant::now() + opts.drain;
    while core.stats.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    for handle in conn_handles {
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
    // Dropping the last sender ends the workers' recv loops.
    drop(job_tx);
    for handle in worker_handles {
        let _ = handle.join();
    }
    core.flush_store();
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

/// Answer an over-limit connection with one classified `busy` line.
fn shed_connection(mut stream: UnixStream, core: &ServiceCore) {
    core.stats.shed.fetch_add(1, Ordering::SeqCst);
    if pas2p_obs::enabled() {
        pas2p_obs::counter("serve.shed").add(1);
    }
    let response = Response::failure_code(
        "busy",
        "busy",
        "connection limit reached; retry later".to_string(),
    );
    let _ = writeln!(stream, "{}", response.render());
}

/// One connection's read loop: decode each line once, answer
/// control-plane ops (`ping`, `health`, `shutdown`) and malformed lines
/// inline — the control plane must stay responsive when the data plane
/// is saturated, and a malformed line must not occupy a worker —
/// enqueue compute ops (shedding when the queue is full), stop on EOF,
/// socket error, server stop, or a shutdown request from this client.
/// Reads run under a 100ms timeout so the loop notices the stop flag
/// even while a slow-loris client drips bytes.
fn handle_connection(
    stream: UnixStream,
    service: &PredictionService,
    stop: &AtomicBool,
    job_tx: &SyncSender<Job>,
) {
    let core = service.core();
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        // `read_line` under a read timeout: a WouldBlock/TimedOut tick
        // leaves any partial line buffered in the BufReader, so a
        // slow-loris client's bytes accumulate across ticks while the
        // loop keeps polling the stop flag.
        match read_line_patiently(&mut reader, &mut line, stop) {
            ReadOutcome::Line => {}
            ReadOutcome::Closed => break,
        }
        if line.trim().is_empty() {
            continue;
        }
        let (response, request_stop) = match Request::from_line(&line) {
            Err(e) => (service.malformed(&e), false),
            Ok(request @ (Request::Ping | Request::Health | Request::Shutdown)) => {
                service.handle_request(request)
            }
            Ok(request) => match enqueue(core, job_tx, request) {
                Some(response) => (response, false),
                None => break,
            },
        };
        if writeln!(writer, "{}", response.render()).is_err() || writer.flush().is_err() {
            break;
        }
        if request_stop {
            // Ack flushed above; now stop the accept loop. The
            // listener drains the rest.
            stop.store(true, Ordering::SeqCst);
            break;
        }
    }
}

/// Hand a compute-bearing request to the worker pool and wait for its
/// answer, or shed it if the queue is full. `try_send` is the
/// load-shedding decision point — it never blocks, so a saturated
/// service answers `busy` fast instead of accumulating unbounded work.
/// `None` means the worker side is gone.
fn enqueue(core: &ServiceCore, job_tx: &SyncSender<Job>, request: Request) -> Option<Response> {
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Response>(1);
    let op = request.op();
    let job = Job {
        request,
        reply: reply_tx,
    };
    // Account the queue slot *before* handing the job over: the
    // worker decrements on dequeue, so incrementing only after a
    // successful `try_send` would race the decrement below zero.
    let depth = core.stats.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
    set_queue_gauge(depth);
    match job_tx.try_send(job) {
        // In-flight requests are drained even during shutdown, so this
        // blocks until the worker answers; the worker pool outlives
        // every connection thread's sender, so a RecvError means real
        // trouble.
        Ok(()) => reply_rx.recv().ok(),
        Err(TrySendError::Full(_)) => {
            let depth = core.stats.queue_depth.fetch_sub(1, Ordering::SeqCst) - 1;
            set_queue_gauge(depth);
            core.stats.shed.fetch_add(1, Ordering::SeqCst);
            if pas2p_obs::enabled() {
                pas2p_obs::counter("serve.shed").add(1);
            }
            Some(Response::failure_code(
                op,
                "busy",
                "request queue full; retry later".to_string(),
            ))
        }
        Err(TrySendError::Disconnected(_)) => {
            core.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
            None
        }
    }
}

enum ReadOutcome {
    Line,
    Closed,
}

/// Read one line, riding out read-timeout ticks until data arrives, the
/// peer closes, or the server stops. A final unterminated fragment at
/// EOF is surfaced as a line (it will parse — or classify — normally).
fn read_line_patiently(
    reader: &mut BufReader<UnixStream>,
    line: &mut String,
    stop: &AtomicBool,
) -> ReadOutcome {
    loop {
        match reader.read_line(line) {
            Ok(0) => {
                return if line.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Line
                };
            }
            Ok(_) => return ReadOutcome::Line,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    // Drain in progress: drop the partial line — the
                    // client never finished the request.
                    return ReadOutcome::Closed;
                }
            }
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pas2p;
    use pas2p_store::SignatureStore;
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
}
