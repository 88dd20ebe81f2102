//! The farm: the one ordered map behind every fan-out in the workspace.
//!
//! [`map`] applies one function to a list of tasks on up to `workers`
//! scoped threads and returns the results **in task order** — task order
//! in, task order out — so a caller's output cannot depend on the worker
//! count or on which worker finished first. Anything cleverer (the batch
//! digest) is a fold over that ordered vector on the calling thread.
//!
//! ```
//! use pas2p_obs::farm::{map, workers};
//! let squares = map(workers(Some(4)), "demo worker", vec![1u64, 2, 3], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9]);
//! ```
//!
//! What lives here and nowhere else:
//!
//! * **Worker threads.** One `std::thread::scope` per call: at most
//!   `workers` threads, never more than there are tasks; an idle worker
//!   claims the next task. Every task runs on a worker thread, even with
//!   one worker or one task, so a task sees the same thread environment
//!   (a fresh thread under a worker lane, no span of the caller's around
//!   it) at any worker count — what keeps the batch driver's timelines
//!   worker-count invariant.
//! * **Worker lanes.** Each worker opens one [`CAT_HOST_WORKER`] span
//!   named `lane` for its lifetime (the worker index rides in the
//!   span's args, so spans nested under a lane name the same parent at
//!   any worker count) and calls [`events::flush`] before it returns —
//!   `std::thread::scope` unblocks before TLS destructors run, so the
//!   exit-time drain would race a `take()` right after the map.
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
        let span = events::trace_span(CAT_HOST_WORKER, lane);
        let mut done = Vec::new();
        loop {
            // The guard is a temporary: it is released before the task
            // runs, and no code that can panic runs under it.
            let next = queue.lock().expect("claiming cannot panic").next();
            let Some((index, task)) = next else { break };
            done.push((index, catch_unwind(AssertUnwindSafe(|| work(task)))));
        }
        span.finish_with(vec![
            ("worker", w.to_string()),
            ("tasks", done.len().to_string()),
        ]);
        events::flush();
        done
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
}
