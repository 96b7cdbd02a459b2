//! The task scheduler: opaque tasks on a scoped worker pool.
//!
//! A caller hands over a slice of tasks (the solver: branch evaluations
//! of one semi-naive round; the evaluator: hash shards of one branch's
//! scan side) plus a closure that runs one task, and gets back one
//! result per task **in task order** — so the caller's merge and error
//! choice stay deterministic for every worker count.
//!
//! The scheduler knows nothing about what a task does. The contract
//! that makes this safe is the caller's: a task must only read shared
//! immutable state (the solver's frozen catalog snapshot, a branch's
//! compiled plan and read-only indexes) and fold its side effects into
//! its own return value (the effect log the solver replays
//! single-threaded at the commit site, a shard-local output relation).
//!
//! # Dispatch modes
//!
//! * **Worker mode** (`threads > 1` and more than one task): up to
//!   `min(threads, tasks)` scoped workers take tasks striped by index
//!   (worker `w` runs tasks `w, w + P, …`). Each task runs behind its
//!   own `catch_unwind` and a [`Site::WorkerStart`] failpoint check, so
//!   a panicking or fault-injected task yields a per-task
//!   [`ExecError`] while its neighbours complete normally.
//! * **Inline mode** (`threads <= 1` or a single task): tasks run
//!   in order on the caller's thread with **no** failpoint check and
//!   **no** unwind catch — the exact sequential path, where panics
//!   propagate to the solver's own isolation boundary.
//!
//! # Determinism
//!
//! Results are returned indexed by task, independent of completion
//! order; a caller that folds them left-to-right observes the same
//! merge order as a sequential loop. Which *worker* ran a task is
//! intentionally unobservable.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::thread;

use dc_governor::fail::{self, Site};
use dc_governor::InjectedFault;

/// What the scheduler itself can do to a task: everything a task
/// *returns* (including its own errors) passes through untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The task panicked; the panic was caught at the task boundary
    /// and converted into this deterministic error (callers degrade
    /// the task to an inline sequential retry on seeing it).
    WorkerPanic {
        /// The panic payload, rendered.
        message: String,
    },
    /// The armed `worker_start` failpoint injected an error
    /// (fault-injection testing).
    FaultInjected(InjectedFault),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorkerPanic { message } => write!(f, "worker panicked: {message}"),
            ExecError::FaultInjected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<InjectedFault> for ExecError {
    fn from(e: InjectedFault) -> ExecError {
        ExecError::FaultInjected(e)
    }
}

/// Render a caught panic payload (the conventional `&str`/`String`
/// forms; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `tasks` with up to `threads` workers, returning one result per
/// task in task order.
///
/// See the module docs above for the dispatch modes and the safety
/// contract. The closure receives `(task_index, &task)` and its return
/// value is passed through untouched; the scheduler only wraps panics
/// and injected worker faults into [`ExecError`]s.
///
/// ```
/// let squares = dc_exec::run_tasks(&[1u64, 2, 3, 4], 4, |_, n| n * n);
/// let squares: Vec<u64> = squares.into_iter().map(Result::unwrap).collect();
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn run_tasks<T, R, F>(tasks: &[T], threads: usize, run: F) -> Vec<Result<R, ExecError>>
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
    let joined: Vec<Result<Stripe<R>, String>> = thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut stripe: Stripe<R> = Vec::new();
                    let mut i = w;
                    while i < tasks.len() {
                        let caught =
                            panic::catch_unwind(AssertUnwindSafe(|| -> Result<R, ExecError> {
                                fail::check(Site::WorkerStart)?;
                                Ok(run(i, &tasks[i]))
                            }));
                        stripe.push((
                            i,
                            match caught {
                                Ok(r) => r,
                                Err(payload) => Err(ExecError::WorkerPanic {
                                    message: panic_message(payload.as_ref()),
                                }),
                            },
                        ));
                        i += workers;
                    }
                    stripe
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|p| panic_message(p.as_ref())))
            .collect()
    });

    for (w, res) in joined.into_iter().enumerate() {
        match res {
            Ok(stripe) => {
                for (i, r) in stripe {
                    slots[i] = Some(r);
                }
            }
            // A join error means a panic escaped the per-task catch
            // (catch_unwind machinery itself, or an abort-on-drop
            // edge). Mark the worker's whole unfilled stripe failed
            // rather than taking the process down.
            Err(message) => {
                let mut i = w;
                while i < tasks.len() {
                    if slots[i].is_none() {
                        slots[i] = Some(Err(ExecError::WorkerPanic {
                            message: message.clone(),
                        }));
                    }
                    i += workers;
                }
            }
        }
    }

    slots
        .into_iter()
        .map(|s| {
            s.unwrap_or_else(|| {
                Err(ExecError::WorkerPanic {
                    message: "task result missing from worker stripe".to_string(),
                })
            })
        })
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
                match r {
                    Err(ExecError::WorkerPanic { message }) => {
                        assert!(message.contains("task five"), "{message}");
                    }
                    other => panic!("expected WorkerPanic, got {other:?}"),
                }
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
            assert!(matches!(r, Err(ExecError::WorkerPanic { .. })), "{r:?}");
        }
    }
}
