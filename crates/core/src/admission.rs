//! Admission: the compute permits, the bounded line waiting for one, and
//! the counters `health` reads (DESIGN.md, "Permit, then run here").

use crate::protocol::Response;
use parking_lot::{Condvar, Mutex};
use pas2p_obs::{Counter, Gauge};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

static QUEUE: Gauge = Gauge::new("serve.queue");
static INFLIGHT: Gauge = Gauge::new("serve.inflight");
static REQUESTS: Counter = Counter::new("serve.requests");
static SHED: Counter = Counter::new("serve.shed");

/// Live serving counters, all atomic: `health` reads them without
/// taking any lock, so it stays answerable while every permit holder is
/// wedged behind a slow store. `inflight` and `queue_depth` are the
/// admission state itself (changed only under `gate`); the server
/// front end sets the bounds and counts connections.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests decoded (including invalid ones).
    pub(crate) requests: AtomicU64,
    /// Requests and connections refused with `code:"busy"`.
    pub(crate) shed: AtomicU64,
    /// Requests refused with `code:"timeout"` past their deadline.
    pub(crate) timeouts: AtomicU64,
    /// Compute requests holding a permit.
    pub(crate) inflight: AtomicU64,
    /// Compute requests waiting in line for a permit.
    pub(crate) queue_depth: AtomicU64,
    /// Connections currently open.
    pub(crate) connections: AtomicU64,
    /// Store entries (mirrored after every publish so health never
    /// takes the store lock).
    pub(crate) entries: AtomicU64,
    /// Whether new connections/requests are being accepted.
    pub(crate) accepting: AtomicBool,
    /// Permits: compute requests that may run at once (0 = unbounded:
    /// the stdin loop and in-process callers).
    pub(crate) workers: AtomicU64,
    /// Bound of the line waiting for a permit (0 with `workers` 0).
    pub(crate) queue_capacity: AtomicU64,
    /// Orders every change of `inflight` and `queue_depth`.
    gate: Mutex<()>,
    gate_cv: Condvar,
}

impl ServeStats {
    /// Requests shed with `code:"busy"` so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::SeqCst)
    }

    /// Requests expired with `code:"timeout"` so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::SeqCst)
    }

    /// Take a compute permit, waiting in line while all `workers` are
    /// out and the line is shorter than `queue_capacity`; a full line
    /// sheds at once, so a saturated service answers `busy` fast
    /// instead of accumulating unbounded work. The line is bounded, not
    /// ordered: whoever the condvar wakes goes next.
    pub(crate) fn admit(&self, op: &'static str) -> Result<Permit<'_>, Response> {
        let mut held = self.gate.lock();
        let full = || {
            let workers = self.workers.load(Ordering::SeqCst);
            workers > 0 && self.inflight.load(Ordering::SeqCst) >= workers
        };
        if full() {
            let capacity = self.queue_capacity.load(Ordering::SeqCst);
            if self.queue_depth.load(Ordering::SeqCst) >= capacity {
                return Err(self.busy(op, "request queue full"));
            }
            let depth = self.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
            QUEUE.set(depth as f64);
            while full() {
                self.gate_cv.wait(&mut held);
            }
            let depth = self.queue_depth.fetch_sub(1, Ordering::SeqCst) - 1;
            QUEUE.set(depth as f64);
        }
        let inflight = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        INFLIGHT.set(inflight as f64);
        Ok(Permit(self))
    }

    pub(crate) fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::SeqCst);
        REQUESTS.inc();
    }

    /// Count one malformed line and build its classified `invalid`
    /// answer.
    pub(crate) fn invalid(&self, why: &dyn std::fmt::Display) -> Response {
        self.count_request();
        Response::failure("invalid", "invalid", format!("malformed request: {why}"))
    }

    /// Count one refusal and build its classified `busy` answer.
    pub(crate) fn busy(&self, op: &'static str, why: &str) -> Response {
        self.shed.fetch_add(1, Ordering::SeqCst);
        SHED.inc();
        Response::failure(op, "busy", format!("{why}; retry later"))
    }

    /// `health`: serving state from atomics only — no lock on this path
    /// but the line probe's one lookup, so it answers even while every
    /// permit holder is wedged behind a gated store or a long Stage-A run.
    pub(crate) fn health(&self, deadline: Option<Duration>) -> Value {
        json!({
            "accepting": self.accepting.load(Ordering::SeqCst),
            "workers": self.workers.load(Ordering::SeqCst),
            "queue_capacity": self.queue_capacity.load(Ordering::SeqCst),
            "queue_depth": self.queue_depth.load(Ordering::SeqCst),
            "inflight": self.inflight.load(Ordering::SeqCst),
            "connections": self.connections.load(Ordering::SeqCst),
            "requests": self.requests.load(Ordering::SeqCst),
            "shed": self.shed.load(Ordering::SeqCst),
            "timeouts": self.timeouts.load(Ordering::SeqCst),
            "entries": self.entries.load(Ordering::SeqCst),
            "deadline_ms": deadline.map(|d| d.as_millis() as u64),
        })
    }
}

/// One compute permit; handed to the next in line on drop (a panic or
/// an expired deadline included).
pub(crate) struct Permit<'a>(&'a ServeStats);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let _gate = self.0.gate.lock();
        let inflight = self.0.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        INFLIGHT.set(inflight as f64);
        self.0.gate_cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stats with `workers` permits and a line of `queue_capacity`.
    fn bounded(workers: u64, queue_capacity: u64) -> ServeStats {
        let stats = ServeStats::default();
        stats.workers.store(workers, Ordering::SeqCst);
        stats.queue_capacity.store(queue_capacity, Ordering::SeqCst);
        stats
    }

    #[test]
    fn a_dropped_permit_gives_its_place_back() {
        let stats = bounded(1, 1);
        let permit = stats.admit("predict").expect("a free permit");
        assert_eq!(stats.inflight.load(Ordering::SeqCst), 1);
        drop(permit);
        assert_eq!(stats.inflight.load(Ordering::SeqCst), 0);
        // A panic unwinding past a permit gives it back too.
        let unwound = std::panic::catch_unwind(|| {
            let _permit = stats.admit("predict").expect("the permit came back");
            panic!("the request panicked");
        });
        assert!(unwound.is_err());
        assert_eq!(stats.inflight.load(Ordering::SeqCst), 0);
        assert_eq!(stats.shed(), 0);
    }

    /// With every permit out and `queue_capacity` requests in line, the
    /// next request is shed at once. It asks on a thread of its own, so
    /// that a bound off by one makes it wait in line, where the test
    /// sees it, instead of hanging the test.
    #[test]
    fn a_full_line_sheds_the_next_request_at_once() {
        let stats = &bounded(1, 2);
        let depth = || stats.queue_depth.load(Ordering::SeqCst);
        let permit = stats.admit("submit").expect("a free permit");
        let (first_in_line, extra) = std::thread::scope(|scope| {
            let wait = || scope.spawn(move || stats.admit("predict").map(drop).is_ok());
            let waiting = [wait(), wait()];
            let queued = until(|| depth() == 2);
            let extra = scope.spawn(move || stats.admit("predict").map(drop).err());
            let answered = queued && until(|| extra.is_finished() || depth() > 2);
            let in_line = depth();
            drop(permit);
            let waited = waiting.map(|w| w.join().expect("waiter"));
            assert!(queued, "two requests did not wait in line");
            assert!(answered, "the extra request neither waited nor returned");
            assert_eq!(waited, [true, true], "both waiters got a permit");
            (in_line, extra.join().expect("extra request"))
        });
        assert_eq!(first_in_line, 2, "the extra request waited in line");
        let busy = extra.expect("shed, not admitted");
        assert_eq!(busy.code, Some("busy"));
        assert_eq!(busy.op, "predict");
        assert_eq!((stats.shed(), depth()), (1, 0));
        assert_eq!(stats.inflight.load(Ordering::SeqCst), 0);
    }

    /// Whether `what` holds within 20 s, asked every 5 ms.
    fn until(what: impl Fn() -> bool) -> bool {
        (0..4000).any(|_| {
            what() || {
                std::thread::sleep(Duration::from_millis(5));
                false
            }
        })
    }
}
