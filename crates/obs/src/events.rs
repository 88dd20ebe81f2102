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
//! Every event goes into one process-wide sink, a `Mutex<Vec<Event>>`,
//! before the call that records it returns: an event recorded on any
//! thread, exited or still running, is in the next [`take()`]. A thread
//! keeps only its ordinal and its stack of open spans, which supplies
//! parent ids. The host timeline is small (a traced cg-8 `submit` and
//! `predict` through `pas2p-cli serve` make a 42-event timeline); the
//! simulated ranks' MPI events go through `pas2p-trace`'s recorder, not
//! here.
//!
//! Tracing is **disabled by default** and gated separately from metric
//! collection ([`set_tracing`] / `PAS2P_TRACE=1`). The gate lives here,
//! not at the call sites: with tracing off a recording call is one
//! relaxed atomic load — it formats no name and calls no args closure
//! (the unit test `the_disabled_path_formats_nothing` holds that). No
//! benchmark times the traced path: the benchmark harness clears
//! `PAS2P_TRACE` for the server it starts, and the ledger's
//! `obs.enabled_overhead_pct` switches metrics, not tracing. Virtual
//! clocks are never touched — timestamps here are host wall-clock
//! nanoseconds since the first event of the process; the *simulated*
//! timeline is reconstructed from the recorded trace's virtual times at
//! export, not sampled live.

use std::cell::RefCell;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

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

/// Annotations of an event or fields of a log record, built only when recorded.
pub(crate) type Args = Vec<(&'static str, String)>;

/// Tracing gate plus the sink every event goes into.
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
/// load.
#[inline]
fn tracing_enabled() -> bool {
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

/// What a thread keeps between its events: its ordinal and the stack
/// of spans it has open, which supplies parent ids.
struct Track {
    tid: u64,
    open_spans: Vec<u64>,
}

thread_local! {
    static TRACK: RefCell<Track> = RefCell::new(Track {
        tid: state().next_tid.fetch_add(1, Ordering::Relaxed),
        open_spans: Vec::new(),
    });
}

fn record(name: impl Display, cat: &'static str, ph: EventPhase, id: u64, args: Args) {
    let (tid, parent) = TRACK.with(|track| {
        let track = track.borrow();
        (track.tid, *track.open_spans.last().unwrap_or(&0))
    });
    let ev = Event {
        name: name.to_string(),
        cat,
        ph,
        ts_ns: now_ns(),
        tid,
        id,
        parent,
        args,
    };
    sink().push(ev);
}

/// Record an instant event (a point marker on the current thread's
/// track). No-op when tracing is off: `name` is not formatted and
/// `args` is not called.
pub fn instant(cat: &'static str, name: impl Display, args: impl FnOnce() -> Args) {
    if tracing_enabled() {
        record(name, cat, EventPhase::Instant, 0, args());
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
    record(name, cat, EventPhase::FlowStart, id, Vec::new());
    id
}

/// Record the landing end of a flow arrow started with [`flow_start`].
pub fn flow_end(cat: &'static str, name: &str, id: u64) {
    if tracing_enabled() && id != 0 {
        record(name, cat, EventPhase::FlowEnd, id, Vec::new());
    }
}

/// Open a traced span on the current thread. The returned guard closes
/// the span when dropped; nested spans record their parent's id. When
/// tracing is off the guard is inert and `name` is not formatted (one
/// atomic load, no allocation).
pub fn trace_span(cat: &'static str, name: impl Display) -> EventSpan {
    if !tracing_enabled() {
        return EventSpan { id: 0, cat };
    }
    let id = next_id();
    record(name, cat, EventPhase::Begin, id, Vec::new());
    TRACK.with(|track| track.borrow_mut().open_spans.push(id));
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
    /// an outcome classification known only at completion); `args` is
    /// called only when the span was recorded.
    pub fn finish_with(mut self, args: impl FnOnce() -> Args) {
        self.close(args);
    }

    /// Emit the end event, once: the id is taken on the first call.
    fn close(&mut self, args: impl FnOnce() -> Args) {
        let id = std::mem::take(&mut self.id);
        if id == 0 {
            return;
        }
        TRACK.with(|track| {
            let open = &mut track.borrow_mut().open_spans;
            // Pop through anything left open by a panic inside the span.
            while open.pop().is_some_and(|top| top != id) {}
        });
        record("", self.cat, EventPhase::End, id, args());
    }
}

impl Drop for EventSpan {
    fn drop(&mut self) {
        self.close(Vec::new);
    }
}

/// Drain every event recorded so far, on any thread, in timestamp
/// order.
pub fn take() -> Vec<Event> {
    let mut events = std::mem::take(&mut *sink());
    events.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(a.tid.cmp(&b.tid)));
    events
}

/// Discard everything recorded so far.
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
        instant("host.test", "quiet", Vec::new);
        let s = trace_span("host.test", "quiet_span");
        drop(s);
        assert!(take().is_empty());
    }

    /// With tracing off no name is formatted and no args closure runs,
    /// at any of the three gated calls.
    #[test]
    fn the_disabled_path_formats_nothing() {
        use std::cell::Cell;
        struct Counted<'a>(&'a Cell<u32>);
        impl Display for Counted<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str("counted")
            }
        }
        let _g = test_guard();
        set_tracing(false);
        clear();
        let (formatted, called) = (Cell::new(0), Cell::new(0));
        let args = || {
            called.set(called.get() + 1);
            vec![("k", "v".to_string())]
        };
        instant("host.test", Counted(&formatted), args);
        trace_span("host.test", Counted(&formatted)).finish_with(args);
        drop(trace_span("host.test", Counted(&formatted)));
        assert_eq!((formatted.get(), called.get()), (0, 0));
        assert!(take().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_parents() {
        let _g = test_guard();
        set_tracing(true);
        clear();
        let outer = trace_span("host.test", "outer");
        let inner = trace_span("host.test", format_args!("inner {}", 1));
        instant("host.test", "mark", || vec![("k", "v".into())]);
        drop(inner);
        outer.finish_with(|| vec![("items", "3".into())]);
        set_tracing(false);

        let events = take();
        assert_eq!(events.len(), 5);
        let begin_outer = &events[0];
        let begin_inner = &events[1];
        let mark = &events[2];
        assert_eq!(begin_outer.ph, EventPhase::Begin);
        assert_eq!(begin_outer.parent, 0);
        assert_eq!(begin_inner.name, "inner 1");
        assert_eq!(begin_inner.parent, begin_outer.id);
        assert_eq!(mark.ph, EventPhase::Instant);
        assert_eq!(mark.parent, begin_inner.id);
        let end_outer = events.last().unwrap();
        assert_eq!(end_outer.ph, EventPhase::End);
        assert_eq!(end_outer.id, begin_outer.id);
        assert_eq!(end_outer.args, vec![("items", "3".to_string())]);
    }

    /// A thread's events are in the sink as soon as they are recorded:
    /// `take()` finds them while the thread that recorded them still
    /// runs.
    #[test]
    fn a_live_threads_events_are_taken_without_waiting_for_it() {
        let _g = test_guard();
        set_tracing(true);
        clear();
        let closed = std::sync::Barrier::new(2);
        let taken = std::sync::Barrier::new(2);
        let events = std::thread::scope(|s| {
            s.spawn(|| {
                drop(trace_span("host.worker", "w0"));
                closed.wait();
                taken.wait();
            });
            closed.wait();
            let events = take();
            taken.wait();
            events
        });
        set_tracing(false);
        assert_eq!(events.len(), 2, "the live thread's span is in the sink");
        assert_eq!(events[0].cat, "host.worker");
    }

    #[test]
    fn joined_thread_events_arrive_via_exit_drain() {
        let _g = test_guard();
        set_tracing(true);
        clear();
        std::thread::spawn(|| {
            let span = trace_span("host.worker", "w1");
            drop(span);
        })
        .join()
        .expect("worker thread");
        set_tracing(false);
        let events = take();
        assert_eq!(events.len(), 2, "a joined thread's events are in the sink");
        assert_eq!(events[0].name, "w1");
    }

    /// A panic while the sink is held poisons its lock; the events
    /// recorded into it afterwards are still kept and taken, not dropped.
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
        instant("host.test", "after the poison", Vec::new);
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
}
