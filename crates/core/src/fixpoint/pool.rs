//! The engine's one worker pool: [`run_tasks`], the solver's round
//! dispatch, and [`thread_count`], which sizes it.
//!
//! A caller hands over a slice of tasks (the branch evaluations of one
//! round, each reading the frozen catalog snapshot) plus a closure that
//! runs one task, and gets back one result per task **in task order** —
//! so the caller's merge and error choice stay deterministic for every
//! worker count. The pool knows nothing about what a task does; the
//! contract that makes this safe is the caller's: a task only reads
//! shared immutable state and folds its side effects into its own
//! return value (the effect log the solver replays single-threaded).
//!
//! # Dispatch modes
//!
//! * **Worker mode** (`threads > 1` and more than one task): up to
//!   `min(threads, tasks)` scoped workers take tasks striped by index
//!   (worker `w` runs tasks `w, w + P, …`). Each task runs behind its
//!   own `catch_unwind` and a [`Site::WorkerStart`] failpoint check, so
//!   a panicking or fault-injected task yields a per-task
//!   [`ExecError`] while its neighbours complete normally.
//! * **Inline mode** (`threads <= 1` or a single task): tasks run in
//!   order on the caller's thread with **no** failpoint check and
//!   **no** unwind catch — the exact sequential path, where panics
//!   propagate to the solver's own isolation boundary.

use std::panic::{self, AssertUnwindSafe};
use std::thread;

use dc_governor::fail::{self, Site};
use dc_governor::{envcfg, InjectedFault};

/// Upper bound on the resolved worker count. `std::thread::scope`'s
/// `spawn` panics when the OS refuses a thread, and the knob is
/// reachable from an environment variable — so it is bounded here,
/// well above any core count the engine's per-branch work can feed.
const MAX_WORKERS: usize = 64;

/// Resolve an effective worker-thread count from a configuration knob.
///
/// * `requested >= 1` — that count (`1` selects the sequential path);
///   an explicit knob wins over the environment so measurements (the
///   bench harness pins both sides) are reproducible.
/// * `requested == 0` — "auto": the `DC_THREADS` environment variable
///   if set to a positive integer, otherwise
///   [`std::thread::available_parallelism`] (falling back to `1` where
///   the platform cannot report it). An *invalid* `DC_THREADS` (empty,
///   zero, non-numeric) is parsed strictly: it warns once to stderr and
///   falls back to available parallelism — it is never silently
///   ignored.
///
/// Either way the result is capped at 64 workers; a larger request
/// warns once (naming the requested and the used value) and runs with
/// the cap.
pub(super) fn thread_count(requested: usize) -> usize {
    let wanted = if requested >= 1 {
        requested
    } else {
        env_threads().unwrap_or_else(|| {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    };
    if wanted > MAX_WORKERS {
        envcfg::warn_once(
            "DC_THREADS",
            &format!("{wanted} worker threads requested; using the maximum of {MAX_WORKERS}"),
        );
    }
    wanted.min(MAX_WORKERS)
}

/// `DC_THREADS`, strictly parsed; `None` when unset or invalid (the
/// latter warns once).
fn env_threads() -> Option<usize> {
    let v = std::env::var("DC_THREADS").ok()?;
    match envcfg::parse_positive(&v) {
        Ok(n) => Some(n),
        Err(reason) => {
            envcfg::warn_once(
                "DC_THREADS",
                &format!(
                    "ignoring DC_THREADS={v:?}: {reason}; \
                     falling back to available parallelism"
                ),
            );
            None
        }
    }
}

/// What the pool itself can do to a task: everything a task *returns*
/// (including its own errors) passes through untouched.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum ExecError {
    /// The task panicked; the panic was caught at the task boundary
    /// (the solver degrades the task to an inline sequential retry).
    WorkerPanic,
    /// The armed `worker_start` failpoint injected an error.
    FaultInjected(InjectedFault),
}

/// Run `tasks` with up to `threads` workers, returning one result per
/// task in task order (see the module docs for the dispatch modes). The
/// closure receives `(task_index, &task)` and its return value is
/// passed through untouched.
pub(super) fn run_tasks<T, R, F>(tasks: &[T], threads: usize, run: F) -> Vec<Result<R, ExecError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || tasks.len() <= 1 {
        return tasks
            .iter()
            .enumerate()
            .map(|(i, t)| Ok(run(i, t)))
            .collect();
    }
    let workers = threads.min(tasks.len());
    let mut slots: Vec<Option<Result<R, ExecError>>> = Vec::with_capacity(tasks.len());
    slots.resize_with(tasks.len(), || None);

    // Each worker returns its stripe's (index, result) pairs; the join
    // below scatters them back into task order.
    type Stripe<R> = Vec<(usize, Result<R, ExecError>)>;
    let joined: Vec<thread::Result<Stripe<R>>> = thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w..tasks.len())
                        .step_by(workers)
                        .map(|i| {
                            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                                fail::check(Site::WorkerStart).map_err(ExecError::FaultInjected)?;
                                Ok(run(i, &tasks[i]))
                            }));
                            (i, caught.unwrap_or(Err(ExecError::WorkerPanic)))
                        })
                        .collect::<Stripe<R>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    // A join error means a panic escaped the per-task catch; the
    // worker's unfilled stripe is marked failed rather than taking the
    // process down, like every other slot left empty.
    for (i, r) in joined.into_iter().flatten().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.unwrap_or(Err(ExecError::WorkerPanic)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_governor::FailpointsGuard;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Worker mode consults the process-global failpoint table, so every
    // test that reaches it holds a guard — disarmed ones included, or a
    // neighbour's armed `worker_start` leaks into them.

    #[test]
    fn thread_count_resolves_and_caps_requests() {
        assert_eq!(thread_count(4), 4);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(0) >= 1); // auto: env or hardware
        assert_eq!(thread_count(MAX_WORKERS), MAX_WORKERS);
        assert_eq!(thread_count(MAX_WORKERS + 1), MAX_WORKERS);
        assert_eq!(thread_count(1_000_000), MAX_WORKERS);
        assert_eq!(thread_count(usize::MAX), MAX_WORKERS);
        assert!(envcfg::has_warned("DC_THREADS"));
    }

    #[test]
    fn results_come_back_in_task_order_for_every_thread_count() {
        let _guard = FailpointsGuard::arm("");
        let tasks: Vec<usize> = (0..37).collect();
        let reference: Vec<usize> = tasks.iter().map(|n| n * 3 + 1).collect();
        for threads in [1usize, 2, 4, 7, 64] {
            let got: Vec<usize> = run_tasks(&tasks, threads, |_, n| n * 3 + 1)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let _guard = FailpointsGuard::arm("");
        let tasks: Vec<usize> = (0..100).collect();
        let counter = AtomicUsize::new(0);
        let results = run_tasks(&tasks, 4, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(results.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn a_panicking_task_fails_alone() {
        let _guard = FailpointsGuard::arm("");
        let tasks: Vec<usize> = (0..16).collect();
        let results = run_tasks(&tasks, 4, |_, n| {
            if *n == 5 {
                panic!("task five exploded");
            }
            *n
        });
        for (i, r) in results.into_iter().enumerate() {
            if i == 5 {
                assert_eq!(r, Err(ExecError::WorkerPanic));
            } else {
                assert_eq!(r.unwrap(), i);
            }
        }
    }

    #[test]
    fn inline_mode_propagates_panics_unchanged() {
        // threads=1 is the exact sequential path: no catch, no
        // failpoint check — the panic reaches the caller.
        let tasks = vec![0usize];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_tasks(&tasks, 1, |_, _| -> usize { panic!("inline panic") })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn worker_start_failpoint_fails_dispatched_tasks_only() {
        let _guard = FailpointsGuard::arm("worker_start=error");
        // Inline mode skips the failpoint entirely.
        let inline = run_tasks(&[1usize], 4, |_, n| *n);
        assert_eq!(inline.into_iter().next().unwrap().unwrap(), 1);
        // Worker mode hits it per task.
        let dispatched = run_tasks(&[1usize, 2], 2, |_, n| *n);
        for r in dispatched {
            assert!(matches!(r, Err(ExecError::FaultInjected(_))), "{r:?}");
        }
    }

    #[test]
    fn worker_start_panic_becomes_worker_panic_error() {
        let _guard = FailpointsGuard::arm("worker_start=panic");
        let results = run_tasks(&[1usize, 2, 3], 3, |_, n| *n);
        for r in results {
            assert_eq!(r, Err(ExecError::WorkerPanic));
        }
    }
}
