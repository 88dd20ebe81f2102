//! Event tracing: timestamped spans, instants and flow arrows.
//!
//! Where [`crate::metrics`] answers *how much* and the stage profiler
//! answers *how long*, this module answers **when**: it records a stream
//! of timestamped [`Event`]s — span begin/end pairs with parent ids,
//! point-in-time instants, and flow arrows linking an emitter to a
//! consumer — that [`crate::export`] turns into a Chrome Trace Event /
//! Perfetto-compatible JSON timeline.
//!
//! # Recording path
//!
//! Each thread records into its own bounded buffer (a thread-local ring
//! of [`RING_CAP`] events): the hot path is one relaxed atomic load on
//! the tracing gate plus a thread-local `Vec` push — no locks, no
//! cross-thread traffic. A thread's buffer drains into the process-wide
//! sink when it fills (amortized, one mutex acquisition per
//! [`RING_CAP`] events), on an explicit [`flush()`], and when the
//! thread exits. Worker threads spawned under `std::thread::scope`
//! must call [`flush()`] as the last thing in their closure (the
//! workers of [`crate::farm`] do): the scope unblocks as soon as the
//! closure returns, *before* the thread's TLS destructors run, so the
//! exit-time drain races any subsequent [`take()`] on the spawning
//! thread. The `Drop` drain remains as a backstop for detached threads.
//! [`take()`] flushes the calling thread and drains the sink.
//!
//! Tracing is **disabled by default** and gated separately from metric
//! collection ([`set_tracing`] / `PAS2P_TRACE=1`): the disabled path is
//! a single relaxed atomic load, guarded by the same `obs_overhead`
//! bench as the metrics hooks. Virtual clocks are never touched —
//! timestamps here are host wall-clock nanoseconds since the first
//! event of the process; the *simulated* timeline is reconstructed from
//! the recorded trace's virtual times at export, not sampled live.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Capacity of a per-thread event buffer; filling it triggers a drain
/// into the global sink.
pub const RING_CAP: usize = 1 << 14;

/// What one [`Event`] marks on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// A span opened (paired with [`EventPhase::End`] by `id`).
    Begin,
    /// A span closed.
    End,
    /// A point in time with no duration.
    Instant,
    /// A flow arrow leaves this thread (paired by `id`).
    FlowStart,
    /// A flow arrow lands on this thread.
    FlowEnd,
}

/// One timestamped tracing event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Span or marker name (e.g. `"extract_phases"`, `"deadline expired"`).
    pub name: String,
    /// Dot-separated category; everything recorded live is under
    /// `host.*` (wall-clock domain), e.g. `host.stage`, `host.worker`.
    pub cat: &'static str,
    /// What this event marks.
    pub ph: EventPhase,
    /// Host nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Recording thread (stable per-thread ordinal, not the OS id).
    pub tid: u64,
    /// Span/flow pairing id (0 = none).
    pub id: u64,
    /// Enclosing span's id at record time (0 = top level).
    pub parent: u64,
    /// Free-form annotations rendered into the exporter's `args`.
    pub args: Vec<(&'static str, String)>,
}

/// Tracing gate plus the shared drain target.
struct TraceState {
    enabled: AtomicBool,
    sink: Mutex<Vec<Event>>,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    epoch: Instant,
}

static STATE: OnceLock<TraceState> = OnceLock::new();

fn state() -> &'static TraceState {
    STATE.get_or_init(|| {
        let enabled = std::env::var("PAS2P_TRACE")
            .map(|v| matches!(v.trim(), "1" | "true" | "on" | "yes"))
            .unwrap_or(false);
        TraceState {
            enabled: AtomicBool::new(enabled),
            sink: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    })
}

/// Is event tracing on? One `OnceLock` read plus one relaxed atomic
/// load — the hot-path gate mirroring [`crate::enabled`].
#[inline]
pub fn tracing_enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// Turn event tracing on or off (also via `PAS2P_TRACE=1`).
pub fn set_tracing(on: bool) {
    state().enabled.store(on, Ordering::Relaxed);
}

/// The shared sink. Nothing panics while holding it, and a poisoned
/// sink is still a whole `Vec`, so its lock is taken either way.
fn sink() -> MutexGuard<'static, Vec<Event>> {
    state().sink.lock().unwrap_or_else(PoisonError::into_inner)
}

fn now_ns() -> u64 {
    state().epoch.elapsed().as_nanos() as u64
}

fn next_id() -> u64 {
    state().next_id.fetch_add(1, Ordering::Relaxed)
}

/// Per-thread recording state: the bounded event buffer plus the open
/// span stack feeding parent ids. Drained into the sink on overflow and
/// on thread exit (the `Drop` impl).
struct ThreadRing {
    tid: u64,
    buf: Vec<Event>,
    open_spans: Vec<u64>,
}

impl ThreadRing {
    fn new() -> ThreadRing {
        ThreadRing {
            tid: state().next_tid.fetch_add(1, Ordering::Relaxed),
            buf: Vec::with_capacity(256),
            open_spans: Vec::new(),
        }
    }

    fn push(&mut self, ev: Event) {
        self.buf.push(ev);
        if self.buf.len() >= RING_CAP {
            self.drain();
        }
    }

    fn drain(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        sink().append(&mut self.buf);
    }
}

impl Drop for ThreadRing {
    fn drop(&mut self) {
        self.drain();
    }
}

thread_local! {
    static RING: RefCell<ThreadRing> = RefCell::new(ThreadRing::new());
}

fn record(
    name: String,
    cat: &'static str,
    ph: EventPhase,
    id: u64,
    args: Vec<(&'static str, String)>,
) {
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        let parent = *ring.open_spans.last().unwrap_or(&0);
        let ev = Event {
            name,
            cat,
            ph,
            ts_ns: now_ns(),
            tid: ring.tid,
            id,
            parent,
            args,
        };
        ring.push(ev);
    });
}

/// Record an instant event (a point marker on the current thread's
/// track). No-op when tracing is off.
pub fn instant(cat: &'static str, name: &str, args: Vec<(&'static str, String)>) {
    if tracing_enabled() {
        record(name.to_string(), cat, EventPhase::Instant, 0, args);
    }
}

/// Record the start of a flow arrow (work handed from this thread to
/// another); pair it with [`flow_end`] using the same id.
/// Returns the flow id (freshly allocated when `id` is `None`), or 0
/// when tracing is off.
pub fn flow_start(cat: &'static str, name: &str, id: Option<u64>) -> u64 {
    if !tracing_enabled() {
        return 0;
    }
    let id = id.unwrap_or_else(next_id);
    record(name.to_string(), cat, EventPhase::FlowStart, id, Vec::new());
    id
}

/// Record the landing end of a flow arrow started with [`flow_start`].
pub fn flow_end(cat: &'static str, name: &str, id: u64) {
    if tracing_enabled() && id != 0 {
        record(name.to_string(), cat, EventPhase::FlowEnd, id, Vec::new());
    }
}

/// Open a traced span on the current thread. The returned guard closes
/// the span when dropped; nested spans record their parent's id. When
/// tracing is off the guard is inert (one atomic load, no allocation).
pub fn trace_span(cat: &'static str, name: &str) -> EventSpan {
    if !tracing_enabled() {
        return EventSpan { id: 0, cat: "" };
    }
    let id = next_id();
    record(name.to_string(), cat, EventPhase::Begin, id, Vec::new());
    RING.with(|ring| ring.borrow_mut().open_spans.push(id));
    EventSpan { id, cat }
}

/// Guard for a span opened with [`trace_span`]; closing (dropping) it
/// emits the matching end event.
pub struct EventSpan {
    id: u64,
    cat: &'static str,
}

impl EventSpan {
    /// Attach annotations to the span's end event (e.g. item counts or
    /// an outcome classification known only at completion).
    pub fn finish_with(self, args: Vec<(&'static str, String)>) {
        self.close(args);
    }

    fn close(self, args: Vec<(&'static str, String)>) {
        if self.id == 0 {
            return;
        }
        RING.with(|ring| {
            let mut ring = ring.borrow_mut();
            // Pop through anything left open by a panic inside the span.
            while let Some(top) = ring.open_spans.pop() {
                if top == self.id {
                    break;
                }
            }
            let parent = *ring.open_spans.last().unwrap_or(&0);
            let ev = Event {
                name: String::new(),
                cat: self.cat,
                ph: EventPhase::End,
                ts_ns: now_ns(),
                tid: ring.tid,
                id: self.id,
                parent,
                args,
            };
            ring.push(ev);
        });
        std::mem::forget(self);
    }
}

impl Drop for EventSpan {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = EventSpan {
            id: self.id,
            cat: self.cat,
        };
        self.id = 0;
        span.close(Vec::new());
    }
}

/// Push the calling thread's buffered events into the process-wide
/// sink. Call this at the end of a scoped worker's closure — the scope
/// unblocks before TLS destructors run, so relying on the exit-time
/// drain would race a [`take()`] on the spawning thread.
pub fn flush() {
    RING.with(|ring| ring.borrow_mut().drain());
}

/// Flush the calling thread's buffer and drain every event recorded so
/// far (other live threads' ring contents arrive at their next
/// [`flush`], overflow or exit). Events are returned in timestamp
/// order.
pub fn take() -> Vec<Event> {
    flush();
    let mut events = std::mem::take(&mut *sink());
    events.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(a.tid.cmp(&b.tid)));
    events
}

/// Discard everything recorded so far (calling thread plus sink).
pub fn clear() {
    let _ = take();
}

/// The tracing gate and sink are process-global; every test of this
/// crate that records serializes on this lock.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _g = test_guard();
        set_tracing(false);
        clear();
        instant("host.test", "quiet", Vec::new());
        let s = trace_span("host.test", "quiet_span");
        drop(s);
        assert!(take().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_parents() {
        let _g = test_guard();
        set_tracing(true);
        clear();
        let outer = trace_span("host.test", "outer");
        let inner = trace_span("host.test", "inner");
        instant("host.test", "mark", vec![("k", "v".into())]);
        drop(inner);
        outer.finish_with(vec![("items", "3".into())]);
        set_tracing(false);

        let events = take();
        assert_eq!(events.len(), 5);
        let begin_outer = &events[0];
        let begin_inner = &events[1];
        let mark = &events[2];
        assert_eq!(begin_outer.ph, EventPhase::Begin);
        assert_eq!(begin_outer.parent, 0);
        assert_eq!(begin_inner.parent, begin_outer.id);
        assert_eq!(mark.ph, EventPhase::Instant);
        assert_eq!(mark.parent, begin_inner.id);
        let end_outer = events.last().unwrap();
        assert_eq!(end_outer.ph, EventPhase::End);
        assert_eq!(end_outer.id, begin_outer.id);
        assert_eq!(end_outer.args, vec![("items", "3".to_string())]);
    }

    #[test]
    fn scoped_worker_events_arrive_after_flush() {
        let _g = test_guard();
        set_tracing(true);
        clear();
        std::thread::scope(|s| {
            s.spawn(|| {
                let span = trace_span("host.worker", "w0");
                drop(span);
                flush();
            });
        });
        set_tracing(false);
        let events = take();
        assert_eq!(events.len(), 2, "flushed worker events must be in the sink");
        assert_eq!(events[0].cat, "host.worker");
    }

    #[test]
    fn joined_thread_events_arrive_via_exit_drain() {
        let _g = test_guard();
        set_tracing(true);
        clear();
        // A real join (unlike a scope) returns only after the thread has
        // fully exited, TLS destructors included — the Drop backstop is
        // reliable here.
        std::thread::spawn(|| {
            let span = trace_span("host.worker", "w1");
            drop(span);
        })
        .join()
        .expect("worker thread");
        set_tracing(false);
        let events = take();
        assert_eq!(events.len(), 2, "exit drain must land before join returns");
        assert_eq!(events[0].name, "w1");
    }

    /// A panic while the sink is held poisons its lock; the events that
    /// a later flush brings are still kept and taken, not dropped.
    #[test]
    fn a_poisoned_sink_keeps_the_events_flushed_into_it() {
        let _g = test_guard();
        set_tracing(true);
        clear();
        let poisoner = std::thread::spawn(|| {
            let _held = state().sink.lock();
            panic!("poison the sink");
        });
        assert!(poisoner.join().is_err());
        assert!(state().sink.is_poisoned());
        instant("host.test", "after the poison", Vec::new());
        flush();
        set_tracing(false);
        let events = take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "after the poison");
    }

    #[test]
    fn flows_pair_by_id() {
        let _g = test_guard();
        set_tracing(true);
        clear();
        let id = flow_start("host.batch", "handoff", None);
        assert_ne!(id, 0);
        flow_end("host.batch", "handoff", id);
        set_tracing(false);
        let events = take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ph, EventPhase::FlowStart);
        assert_eq!(events[1].ph, EventPhase::FlowEnd);
        assert_eq!(events[0].id, events[1].id);
    }

    #[test]
    fn ring_overflow_drains_to_sink() {
        let _g = test_guard();
        set_tracing(true);
        clear();
        for i in 0..(RING_CAP + 10) {
            instant("host.test", if i % 2 == 0 { "a" } else { "b" }, Vec::new());
        }
        set_tracing(false);
        let events = take();
        assert_eq!(events.len(), RING_CAP + 10);
    }
}
