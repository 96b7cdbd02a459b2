//! The engine's one worker pool: [`run_tasks`] and the knob that sizes
//! it, [`thread_count`].
//!
//! Every parallel path in the engine is "a slice of independent tasks
//! over shared immutable state, results back in task order": the
//! fixpoint solver's round tasks (branch evaluations reading a frozen
//! catalog snapshot) and the evaluator's scan shards (one set-former
//! branch whose scan side is split with
//! `dc_relation::Relation::hash_shards`, each shard run through the
//! ordinary operator loop). This crate knows nothing about what a task
//! does — it owns the scoped threads, the per-task panic isolation, and
//! the `worker_start` failpoint, so those exist in exactly one place.
//! See the [`run_tasks`] docs for the dispatch modes and the
//! determinism contract.

// A worker panic must become an error, never a process abort — so the
// library itself must not panic on user-shaped input. `unwrap`/`expect`
// are opt-in per site with a safety justification.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod schedule;

pub use schedule::{run_tasks, ExecError};

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
///
/// ```
/// assert_eq!(dc_exec::thread_count(4), 4);
/// assert_eq!(dc_exec::thread_count(1), 1);
/// assert!(dc_exec::thread_count(0) >= 1); // auto: env or hardware
/// assert_eq!(dc_exec::thread_count(1_000_000), 64); // capped
/// ```
pub fn thread_count(requested: usize) -> usize {
    let wanted = if requested >= 1 {
        requested
    } else {
        env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    };
    if wanted > MAX_WORKERS {
        dc_governor::envcfg::warn_once(
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
    match dc_governor::envcfg::parse_positive(&v) {
        Ok(n) => Some(n),
        Err(reason) => {
            dc_governor::envcfg::warn_once(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_requests_are_capped_and_warned() {
        assert_eq!(thread_count(MAX_WORKERS), MAX_WORKERS);
        assert_eq!(thread_count(MAX_WORKERS + 1), MAX_WORKERS);
        assert_eq!(thread_count(1_000_000), MAX_WORKERS);
        assert_eq!(thread_count(usize::MAX), MAX_WORKERS);
        assert!(dc_governor::envcfg::has_warned("DC_THREADS"));
    }
}
