//! The farm: every fan-out in the workspace, and its two shapes.
//!
//! [`map`] applies one function to a list of tasks on up to `workers`
//! scoped threads and returns the results **in task order** — task order
//! in, task order out — so a caller's output cannot depend on the worker
//! count or on which worker finished first. Anything cleverer (the batch
//! digest) is a fold over that ordered vector on the calling thread.
//! [`beside`] runs two different closures at once: one on a worker, one
//! on the calling thread, which keeps its cancel token and stages.
//!
//! ```
//! use pas2p_obs::farm::{beside, map, workers};
//! let squares = map(workers(Some(4)), "demo worker", vec![1u64, 2, 3], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9]);
//! assert_eq!(beside("demo lane", || 2 + 2, || "here"), (4, "here"));
//! ```
//!
//! What lives here and nowhere else:
//!
//! * **Worker threads.** One `std::thread::scope` per call: at most
//!   `workers` threads, never more than there are tasks, plus one per
//!   task that calls [`beside`]; an idle worker claims the next task.
//!   Every task of a map runs on a worker thread, even with one worker
//!   or one task, so a task sees the same thread environment (a fresh
//!   thread under a worker lane, no span of the caller's around it) at
//!   any worker count — what keeps the batch driver's timelines
//!   worker-count invariant.
//! * **Worker lanes.** Each worker opens one [`CAT_HOST_WORKER`] span
//!   named `lane` for its lifetime (the worker index rides in the
//!   span's args, so spans nested under a lane name the same parent at
//!   any worker count).
//! * **Panics.** A panicking task is caught on its worker and the other
//!   tasks still run; afterwards the payload of the lowest-indexed
//!   panicking task is re-raised on the calling thread — the task's own
//!   payload, not "a scoped thread panicked".
//! * **"One worker per core"**: [`cores`] and [`workers`].

use crate::events;
use crate::export::CAT_HOST_WORKER;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

/// Cores available to this process, read once.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolve a worker-count setting: `None` means one worker per core, an
/// explicit count is clamped to at least 1.
pub fn workers(requested: Option<usize>) -> usize {
    requested.unwrap_or_else(cores).max(1)
}

/// Apply `work` to every task on worker threads; results come back in
/// task order.
pub fn map<T: Send, U: Send>(
    workers: usize,
    lane: &str,
    tasks: Vec<T>,
    work: impl Fn(T) -> U + Sync,
) -> Vec<U> {
    let n = tasks.len();
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let worker = |w: usize| {
        on_lane(lane, w, || {
            let mut done = Vec::new();
            loop {
                // The guard is a temporary: it is released before the task
                // runs, and no code that can panic runs under it.
                let next = queue.lock().expect("claiming cannot panic").next();
                let Some((index, task)) = next else { break };
                done.push((index, catch_unwind(AssertUnwindSafe(|| work(task)))));
            }
            let tasks = done.len();
            (done, tasks)
        })
    };
    let mut slots: Vec<_> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let worker = &worker;
        let lanes: Vec<_> = (0..workers.clamp(1, n.max(1)))
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        for lane in lanes {
            for (index, out) in lane.join().expect("task panics are caught") {
                slots[index] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot.expect("every task is claimed once") {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        })
        .collect()
}

/// Run `beside` on one worker thread (a lane named `lane`) while `here`
/// runs on the calling thread, and return both results once both have
/// finished. `here` keeps the calling thread's cancel token and stage
/// boundaries; `beside` has neither. A panic on either side waits for
/// the other side to finish and is then re-raised with its own
/// payload, `here`'s first.
pub fn beside<A: Send, B>(
    lane: &str,
    beside: impl FnOnce() -> A + Send,
    here: impl FnOnce() -> B,
) -> (A, B) {
    let (there, here) = std::thread::scope(|scope| {
        let worker =
            scope.spawn(|| on_lane(lane, 0, || (catch_unwind(AssertUnwindSafe(beside)), 1)));
        let here = catch_unwind(AssertUnwindSafe(here));
        (worker.join().expect("the task's panic is caught"), here)
    });
    match (there, here) {
        (_, Err(payload)) | (Err(payload), _) => resume_unwind(payload),
        (Ok(there), Ok(here)) => (there, here),
    }
}

/// One worker's life: a [`CAT_HOST_WORKER`] span named `lane` around
/// `work`, closed with the worker index and the tasks `work` ran.
fn on_lane<R>(lane: &str, worker: usize, work: impl FnOnce() -> (R, usize)) -> R {
    let span = events::trace_span(CAT_HOST_WORKER, lane);
    let (out, tasks) = work();
    span.finish_with(|| vec![("worker", worker.to_string()), ("tasks", tasks.to_string())]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventPhase;
    use std::time::Duration;

    /// Later tasks finish first: task `i` of `n` sleeps `n - i` ms.
    fn uneven(n: u64) -> impl Fn(u64) -> u64 + Sync {
        move |i| {
            std::thread::sleep(Duration::from_millis(n - i));
            i * 10
        }
    }

    #[test]
    fn results_come_back_in_task_order_at_any_worker_count() {
        let _g = events::test_guard();
        let expected: Vec<u64> = (0..12).map(|i| i * 10).collect();
        for workers in [1, 2, 3, 8] {
            let got = map(workers, "test worker", (0..12).collect(), uneven(12));
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn map_never_runs_on_the_calling_thread() {
        let _g = events::test_guard();
        let me = std::thread::current().id();
        let ids = map(1, "test worker", vec![0u8, 1, 2], |_| {
            std::thread::current().id()
        });
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|id| *id != me && *id == ids[0]));
        let ids = map(4, "test worker", vec![0u8], |_| std::thread::current().id());
        assert_ne!(ids, vec![me], "one task still runs on a worker");
    }

    #[test]
    fn a_panicking_task_re_raises_its_own_payload() {
        let _g = events::test_guard();
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map(3, "test worker", (0..6u32).collect(), |i| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i % 2 == 1 {
                    std::panic::panic_any(format!("task {i} failed"));
                }
                i
            })
        }));
        let payload = caught.expect_err("the panic crosses the farm");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("task 1 failed"),
            "the lowest-indexed panicking task's own payload"
        );
        assert_eq!(ran.into_inner(), 6, "the other tasks still ran");
    }

    #[test]
    fn each_worker_emits_one_lane_span_visible_straight_after_the_map() {
        const LANE: &str = "lane-span test worker";
        let _g = events::test_guard();
        events::set_tracing(true);
        events::clear();
        map(3, LANE, (0..6).collect(), uneven(6));
        let events = events::take();
        events::set_tracing(false);
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.name == LANE && e.ph == EventPhase::Begin)
            .collect();
        assert_eq!(begins.len(), 3, "one lane per worker");
        assert!(begins.iter().all(|e| e.cat == CAT_HOST_WORKER));
        let mut ends: Vec<String> = events
            .iter()
            .filter(|e| e.ph == EventPhase::End && begins.iter().any(|b| b.id == e.id))
            .map(|e| e.args[0].1.clone())
            .collect();
        ends.sort();
        assert_eq!(
            ends,
            ["0", "1", "2"],
            "every lane closed, one per worker index"
        );
    }

    #[test]
    fn beside_runs_here_on_the_calling_thread_and_beside_on_another() {
        let _g = events::test_guard();
        let me = std::thread::current().id();
        let (there, here) = beside(
            "test lane",
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(here, me);
        assert_ne!(there, me);
    }

    #[test]
    fn a_beside_panic_re_raises_its_own_payload_after_here_ran() {
        let _g = events::test_guard();
        let here_ran = std::sync::atomic::AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            beside(
                "test lane",
                || -> u8 { std::panic::panic_any(String::from("hash failed")) },
                || here_ran.store(true, std::sync::atomic::Ordering::SeqCst),
            )
        }));
        let payload = caught.expect_err("the panic crosses beside");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("hash failed")
        );
        assert!(here_ran.into_inner(), "here ran to its end");
    }

    /// When both sides panic, `here`'s payload is the one re-raised.
    /// (That `beside` has finished by then needs no test: the scope
    /// joins its worker before it returns or unwinds.)
    #[test]
    fn a_here_panic_wins_over_a_beside_panic() {
        let _g = events::test_guard();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            beside(
                "test lane",
                || -> u8 { std::panic::panic_any(String::from("hash failed")) },
                || -> u8 { std::panic::panic_any(crate::cancel::CANCELLED) },
            )
        }));
        let payload = caught.expect_err("the panic crosses beside");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&crate::cancel::CANCELLED),
            "here's own payload, not beside's"
        );
    }

    #[test]
    fn the_beside_lane_span_is_visible_straight_after_the_call() {
        const LANE: &str = "beside-span test lane";
        let _g = events::test_guard();
        events::set_tracing(true);
        events::clear();
        beside(LANE, || 1, || 2);
        let events = events::take();
        events::set_tracing(false);
        let begin = events
            .iter()
            .find(|e| e.name == LANE && e.ph == EventPhase::Begin)
            .expect("the lane opened");
        assert_eq!(begin.cat, CAT_HOST_WORKER);
        assert!(
            events
                .iter()
                .any(|e| e.ph == EventPhase::End && e.id == begin.id),
            "the lane closed before the call returned"
        );
    }
}
