//! Bounded worker pool for host-parallel simulation runs.
//!
//! The suite binaries fan dozens of independent simulations out onto
//! host threads. Spawning one thread per run — and, worse, nesting
//! per-benchmark scopes inside per-suite scopes — exploded into
//! benchmarks × modes threads all runnable at once, oversubscribing the
//! host and distorting any timing measured alongside. This pool caps
//! the whole process at a fixed number of concurrently running workers
//! no matter how calls nest.
//!
//! Design:
//!
//! * One process-wide permit counter holds `bound - 1` permits, where
//!   `bound` is `BENCH_WORKERS` or [`available_parallelism`] — helper
//!   threads are spawned only when a permit is free.
//! * The calling thread always drains the task queue itself, so a
//!   `run_all` nested inside a task still makes progress when no
//!   permits are available: nesting can never deadlock, it just runs
//!   serially on the caller.
//! * Helpers are scoped threads; tasks may borrow from the caller's
//!   stack. Results come back in task order.
//!
//! [`available_parallelism`]: std::thread::available_parallelism

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

static BOUND: OnceLock<usize> = OnceLock::new();
static HELPER_PERMITS: OnceLock<AtomicUsize> = OnceLock::new();
static LIVE_HELPERS: AtomicUsize = AtomicUsize::new(0);
static PEAK_HELPERS: AtomicUsize = AtomicUsize::new(0);

/// The maximum number of threads that may run tasks at once (the
/// calling thread plus spawned helpers). Read once per process from
/// `BENCH_WORKERS`, falling back to the host's available parallelism.
pub fn worker_bound() -> usize {
    *BOUND.get_or_init(|| {
        crate::env::get::<usize>("BENCH_WORKERS")
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// High-water mark of concurrently live helper threads over the life of
/// the process. Always at most `worker_bound() - 1`: the calling thread
/// occupies the remaining slot.
pub fn peak_workers() -> usize {
    PEAK_HELPERS.load(Ordering::SeqCst)
}

fn permits() -> &'static AtomicUsize {
    HELPER_PERMITS.get_or_init(|| AtomicUsize::new(worker_bound().saturating_sub(1)))
}

fn try_acquire() -> bool {
    let p = permits();
    let mut cur = p.load(Ordering::Relaxed);
    while cur > 0 {
        match p.compare_exchange_weak(cur, cur - 1, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
    false
}

fn release() {
    permits().fetch_add(1, Ordering::Release);
}

/// Run every task, using at most `worker_bound()` threads process-wide,
/// and return the results in task order.
///
/// The calling thread participates in the work, so this is safe to call
/// from within a task running on the pool (the nested call degrades to
/// serial execution when all permits are taken). A panicking task
/// propagates out of `run_all` after the remaining workers finish their
/// current tasks.
pub fn run_all<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let queue: Mutex<VecDeque<(usize, F)>> = Mutex::new(tasks.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());

    let drain = || loop {
        let job = queue.lock().expect("pool queue poisoned").pop_front();
        match job {
            Some((idx, task)) => {
                let out = task();
                results.lock().expect("pool results poisoned")[idx] = Some(out);
            }
            None => break,
        }
    };

    std::thread::scope(|scope| {
        // One helper per task beyond the first, each gated by a global
        // permit; the calling thread covers the remainder.
        let mut helpers = 0;
        while helpers + 1 < n && try_acquire() {
            helpers += 1;
            scope.spawn(|| {
                let live = LIVE_HELPERS.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK_HELPERS.fetch_max(live, Ordering::SeqCst);
                drain();
                LIVE_HELPERS.fetch_sub(1, Ordering::SeqCst);
                release();
            });
        }
        drain();
    });

    results
        .into_inner()
        .expect("pool results poisoned")
        .into_iter()
        .map(|slot| slot.expect("every queued task ran"))
        .collect()
}

/// Render a panic payload the way the default hook would.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`run_all`], but a panicking task is isolated instead of tearing
/// down the pool: its slot comes back as `Err(panic message)` while every
/// other task still runs to completion and the pool's locks stay
/// unpoisoned for subsequent calls.
///
/// Long campaign drivers (the fuzz binary) use this so one
/// pathological case is *reported* rather than aborting hours of
/// remaining work.
pub fn run_all_caught<T, F>(tasks: Vec<F>) -> Vec<Result<T, String>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let wrapped: Vec<_> = tasks
        .into_iter()
        .map(|task| {
            move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).map_err(panic_message)
            }
        })
        .collect();
    run_all(wrapped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<_> = (0..32).map(|i| move || i * i).collect();
        let out = run_all(tasks);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out: Vec<u32> = run_all(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn tasks_may_borrow_the_callers_stack() {
        let data = vec![3u64, 1, 4, 1, 5];
        let slice = &data;
        let tasks: Vec<_> = (0..slice.len()).map(|i| move || slice[i] * 2).collect();
        assert_eq!(run_all(tasks), vec![6, 2, 8, 2, 10]);
    }

    #[test]
    fn panicking_job_is_isolated_and_pool_survives() {
        type Job = Box<dyn FnOnce() -> u64 + Send>;
        let tasks: Vec<Job> = vec![
            Box::new(|| 11),
            Box::new(|| panic!("boom at job 1")),
            Box::new(|| 33),
        ];
        let out = run_all_caught(tasks);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], Ok(11));
        let err = out[1].as_ref().unwrap_err();
        assert!(err.contains("boom at job 1"), "lost panic message: {err}");
        assert_eq!(out[2], Ok(33));
        // The pool must stay serviceable after a caught panic.
        let again: Vec<_> = (0..8u64).map(|i| move || i + 1).collect();
        assert_eq!(run_all(again), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn string_panic_payloads_are_preserved() {
        type Job = Box<dyn FnOnce() -> u8 + Send>;
        let msg = format!("formatted {} payload", 42);
        let tasks: Vec<Job> = vec![Box::new(move || panic!("{msg}"))];
        let out = run_all_caught(tasks);
        assert!(out[0]
            .as_ref()
            .unwrap_err()
            .contains("formatted 42 payload"));
    }
}
