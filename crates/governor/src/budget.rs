//! Budgets, meters, and cooperative cancellation.
//!
//! A [`Budget`] is *declarative*: it says what a solve may spend, not
//! when the clock started. Arming it with [`Budget::meter`] captures
//! `Instant::now()` and yields a [`Meter`] — a cheap, `Arc`-shared
//! gauge that every layer of one solve (evaluator branch loops on
//! whichever pool worker they run, decorrelated-entry builds,
//! semi-naive round commits) polls at its natural tick points. The
//! split matters: a budget stored in a long-lived configuration is
//! re-armed per solve, so a 10 ms deadline means 10 ms *per solve*, not
//! 10 ms since the configuration was built.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The wall clock is read once every this many [`Meter::tick`]s (the
/// cancellation flag and the check counter are still touched on every
/// tick). `Instant::now()` is a vDSO call but not free; striding it
/// keeps governance overhead out of the leaf-loop profile while
/// bounding deadline-detection latency to a few dozen tuples.
pub const DEADLINE_STRIDE: u64 = 64;

/// A shareable cooperative-cancellation flag.
///
/// Cloning shares the flag; any holder may [`CancelToken::cancel`] and
/// every [`Meter`] armed with the token observes it at its next tick.
/// Tokens form a tree via [`CancelToken::child`]: cancelling a parent
/// cancels every descendant, while a child cancels independently — the
/// serving layer hands each session a child of the server's shutdown
/// token so one cancelled query never touches its siblings.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, uncancelled root token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A child token: cancelled when either its own flag or any
    /// ancestor's flag is set. Cancelling the child leaves the parent
    /// (and the child's siblings) untouched.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }

    /// Request cancellation of this token (and its descendants).
    /// Idempotent; observed cooperatively at the next budget tick of
    /// any meter sharing this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested, here or on any ancestor?
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        self.parent
            .as_deref()
            .is_some_and(CancelToken::is_cancelled)
    }
}

/// A declarative resource envelope for one solve (or one top-level
/// query evaluation). All limits are optional; [`Budget::unlimited`]
/// (the `Default`) never trips but still counts, which is how
/// governance counters reach `FixpointStats` even on unbounded solves.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Duration>,
    max_tuples: Option<u64>,
    max_rounds: Option<u64>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits: ticks are counted, nothing ever trips.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Trip with [`Trip::Deadline`] once this much wall-clock time has
    /// elapsed since the budget was armed.
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Millisecond convenience form of [`Budget::with_deadline`].
    pub fn with_deadline_ms(self, ms: u64) -> Budget {
        self.with_deadline(Duration::from_millis(ms))
    }

    /// Trip with [`Trip::Tuples`] once more than `limit` tuples have
    /// been materialised by branch evaluation. This is a *work* bound:
    /// it counts every tuple the executors emit (across all equations,
    /// branches, and semi-naive rounds of one solve), not the size of
    /// the final result, so a runaway cross-product trips mid-round.
    pub fn with_max_tuples(mut self, limit: u64) -> Budget {
        self.max_tuples = Some(limit);
        self
    }

    /// Trip with [`Trip::Rounds`] (surfaced as [`SolveError::Diverged`])
    /// once `limit` fixpoint rounds have completed without convergence.
    ///
    /// [`SolveError::Diverged`]: crate::SolveError::Diverged
    pub fn with_max_rounds(mut self, limit: u64) -> Budget {
        self.max_rounds = Some(limit);
        self
    }

    /// Trip with [`Trip::Cancelled`] once `token` is cancelled.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Does this budget carry no limit at all?
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_tuples.is_none()
            && self.max_rounds.is_none()
            && self.cancel.is_none()
    }

    /// Arm the budget: capture the clock and return the shared gauge
    /// the execution stack polls.
    pub fn meter(&self) -> Meter {
        let started = Instant::now();
        Meter {
            inner: Arc::new(MeterInner {
                started,
                deadline: self.deadline.map(|d| started + d),
                limit_ms: self.deadline.map_or(0, |d| d.as_millis() as u64),
                max_tuples: self.max_tuples,
                max_rounds: self.max_rounds,
                cancel: self.cancel.clone(),
                checks: AtomicU64::new(0),
                tuples: AtomicU64::new(0),
                degraded: AtomicU64::new(0),
                retried: AtomicU64::new(0),
                parallel_branches: AtomicU64::new(0),
                sequential_branches: AtomicU64::new(0),
                parallel_equations: AtomicU64::new(0),
            }),
        }
    }
}

#[derive(Debug)]
struct MeterInner {
    started: Instant,
    deadline: Option<Instant>,
    limit_ms: u64,
    max_tuples: Option<u64>,
    max_rounds: Option<u64>,
    cancel: Option<CancelToken>,
    checks: AtomicU64,
    tuples: AtomicU64,
    degraded: AtomicU64,
    retried: AtomicU64,
    parallel_branches: AtomicU64,
    sequential_branches: AtomicU64,
    parallel_equations: AtomicU64,
}

/// An armed [`Budget`]: the shared gauge one solve polls.
///
/// Clones share state (an `Arc` bump), so the solver, its per-branch
/// evaluators, and every task on the worker pool (`dc_exec::run_tasks`)
/// observe one set of limits and feed one set of counters. `Meter` is
/// `Send + Sync`.
#[derive(Debug, Clone)]
pub struct Meter {
    inner: Arc<MeterInner>,
}

impl Meter {
    /// An armed meter with no limits — counts ticks, never trips.
    pub fn unlimited() -> Meter {
        Budget::unlimited().meter()
    }

    /// The cheap per-combination check for hot loops: one relaxed
    /// counter increment, one cancellation load, and — every
    /// [`DEADLINE_STRIDE`]th call — one wall-clock read.
    pub fn tick(&self) -> Result<(), Trip> {
        let n = self.inner.checks.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.inner.cancel {
            if c.is_cancelled() {
                return Err(Trip::Cancelled);
            }
        }
        if n.is_multiple_of(DEADLINE_STRIDE) {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Record `n` materialised tuples and trip if the ceiling is
    /// crossed.
    pub fn add_tuples(&self, n: u64) -> Result<(), Trip> {
        let produced = self.inner.tuples.fetch_add(n, Ordering::Relaxed) + n;
        match self.inner.max_tuples {
            Some(limit) if produced > limit => Err(Trip::Tuples { produced, limit }),
            _ => Ok(()),
        }
    }

    /// The round-boundary check: unconditional deadline and
    /// cancellation reads (round commits are rare, so no striding) plus
    /// the round ceiling. `completed` is the number of finished rounds.
    pub fn check_round(&self, completed: u64) -> Result<(), Trip> {
        self.inner.checks.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.inner.cancel {
            if c.is_cancelled() {
                return Err(Trip::Cancelled);
            }
        }
        self.check_deadline()?;
        match self.inner.max_rounds {
            Some(limit) if completed >= limit => Err(Trip::Rounds { completed, limit }),
            _ => Ok(()),
        }
    }

    fn check_deadline(&self) -> Result<(), Trip> {
        if let Some(deadline) = self.inner.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(Trip::Deadline {
                    elapsed_ms: now.duration_since(self.inner.started).as_millis() as u64,
                    limit_ms: self.inner.limit_ms,
                });
            }
        }
        Ok(())
    }

    /// Note that a parallel branch degraded to the sequential reference
    /// path and completed there.
    pub fn note_degraded(&self) {
        self.inner.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Note a branch retry (the attempt, whether or not it succeeds).
    pub fn note_retried(&self) {
        self.inner.retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` branch tasks dispatched to scheduler worker threads.
    pub fn add_parallel_branches(&self, n: u64) {
        self.inner.parallel_branches.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` branch tasks evaluated inline on the solver thread.
    pub fn add_sequential_branches(&self, n: u64) {
        self.inner
            .sequential_branches
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` distinct equations whose tasks ran concurrently
    /// within one scheduled round batch.
    pub fn add_parallel_equations(&self, n: u64) {
        self.inner
            .parallel_equations
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Budget checks performed so far (ticks + round checks).
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }

    /// Tuples recorded via [`Meter::add_tuples`] so far.
    pub fn tuples(&self) -> u64 {
        self.inner.tuples.load(Ordering::Relaxed)
    }

    /// Branches that completed on the sequential path after a parallel
    /// failure.
    pub fn degraded(&self) -> u64 {
        self.inner.degraded.load(Ordering::Relaxed)
    }

    /// Branch retry attempts.
    pub fn retried(&self) -> u64 {
        self.inner.retried.load(Ordering::Relaxed)
    }

    /// Branch tasks dispatched to scheduler worker threads.
    pub fn parallel_branches(&self) -> u64 {
        self.inner.parallel_branches.load(Ordering::Relaxed)
    }

    /// Branch tasks evaluated inline on the solver thread.
    pub fn sequential_branches(&self) -> u64 {
        self.inner.sequential_branches.load(Ordering::Relaxed)
    }

    /// Distinct equations that ran concurrently in scheduled batches.
    pub fn parallel_equations(&self) -> u64 {
        self.inner.parallel_equations.load(Ordering::Relaxed)
    }
}

/// Why a [`Meter`] check failed. Callers lift trips into the
/// [`SolveError`](crate::SolveError) taxonomy, attaching diagnostics as
/// the error propagates out of the solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trip {
    /// The wall-clock deadline passed.
    Deadline {
        /// Milliseconds elapsed since the budget was armed.
        elapsed_ms: u64,
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
    /// The tuple ceiling was crossed.
    Tuples {
        /// Tuples materialised when the trip fired.
        produced: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// The round ceiling was reached without convergence.
    Rounds {
        /// Rounds completed.
        completed: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// The cancel token was triggered.
    Cancelled,
}

impl fmt::Display for Trip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trip::Deadline {
                elapsed_ms,
                limit_ms,
            } => write!(
                f,
                "deadline exceeded ({elapsed_ms} ms elapsed, limit {limit_ms} ms)"
            ),
            Trip::Tuples { produced, limit } => {
                write!(
                    f,
                    "tuple budget exceeded ({produced} produced, limit {limit})"
                )
            }
            Trip::Rounds { completed, limit } => {
                write!(
                    f,
                    "round ceiling reached ({completed} rounds, limit {limit})"
                )
            }
            Trip::Cancelled => write!(f, "cancelled"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unlimited_never_trips_but_counts() {
        let m = Meter::unlimited();
        for _ in 0..1000 {
            m.tick().unwrap();
        }
        m.add_tuples(1_000_000).unwrap();
        m.check_round(1_000_000).unwrap();
        assert_eq!(m.checks(), 1001);
        assert_eq!(m.tuples(), 1_000_000);
    }

    #[test]
    fn tuple_ceiling_trips_at_boundary() {
        let m = Budget::unlimited().with_max_tuples(10).meter();
        m.add_tuples(10).unwrap();
        assert_eq!(
            m.add_tuples(1),
            Err(Trip::Tuples {
                produced: 11,
                limit: 10
            })
        );
    }

    #[test]
    fn round_ceiling_trips() {
        let m = Budget::unlimited().with_max_rounds(3).meter();
        m.check_round(2).unwrap();
        assert_eq!(
            m.check_round(3),
            Err(Trip::Rounds {
                completed: 3,
                limit: 3
            })
        );
    }

    #[test]
    fn zero_deadline_trips_at_first_stride_boundary() {
        let m = Budget::unlimited().with_deadline(Duration::ZERO).meter();
        // Tick 0 lands on the stride boundary, so the very first tick
        // observes the expired deadline.
        assert!(matches!(m.tick(), Err(Trip::Deadline { .. })));
        // Round checks are unconditional.
        assert!(matches!(m.check_round(0), Err(Trip::Deadline { .. })));
    }

    #[test]
    fn deadline_observed_within_one_stride() {
        let m = Budget::unlimited().with_deadline(Duration::ZERO).meter();
        let _ = m.tick(); // consume the boundary tick
        let mut tripped = 0;
        for _ in 0..DEADLINE_STRIDE {
            if m.tick().is_err() {
                tripped += 1;
            }
        }
        assert!(tripped >= 1, "deadline must fire within one stride");
    }

    #[test]
    fn cancellation_crosses_threads() {
        let token = CancelToken::new();
        let m = Budget::unlimited().with_cancel(token.clone()).meter();
        m.tick().unwrap();
        let handle = thread::spawn(move || token.cancel());
        handle.join().unwrap();
        assert_eq!(m.tick(), Err(Trip::Cancelled));
        assert_eq!(m.check_round(0), Err(Trip::Cancelled));
    }

    #[test]
    fn child_tokens_inherit_parent_cancellation() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        let grand = a.child();
        assert!(!a.is_cancelled() && !b.is_cancelled() && !grand.is_cancelled());
        // A child cancels alone; siblings and the parent stay live.
        a.cancel();
        assert!(a.is_cancelled() && grand.is_cancelled());
        assert!(!b.is_cancelled() && !root.is_cancelled());
        // The root cancels everything below it.
        root.cancel();
        assert!(b.is_cancelled());
        let late = root.child();
        assert!(late.is_cancelled(), "children born after cancel see it");
    }

    #[test]
    fn child_token_trips_meter_on_parent_cancel() {
        let shutdown = CancelToken::new();
        let m = Budget::unlimited().with_cancel(shutdown.child()).meter();
        m.tick().unwrap();
        shutdown.cancel();
        assert_eq!(m.tick(), Err(Trip::Cancelled));
    }

    #[test]
    fn clones_share_counters() {
        let m = Meter::unlimited();
        let m2 = m.clone();
        m.add_tuples(5).unwrap();
        m2.add_tuples(7).unwrap();
        assert_eq!(m.tuples(), 12);
        m2.note_degraded();
        m.note_retried();
        assert_eq!(m.degraded(), 1);
        assert_eq!(m2.retried(), 1);
    }

    #[test]
    fn parallelism_counters_accumulate_across_clones() {
        let m = Meter::unlimited();
        let m2 = m.clone();
        m.add_parallel_branches(3);
        m2.add_parallel_branches(2);
        m.add_sequential_branches(4);
        m2.add_parallel_equations(2);
        assert_eq!(m.parallel_branches(), 5);
        assert_eq!(m2.sequential_branches(), 4);
        assert_eq!(m.parallel_equations(), 2);
    }

    #[test]
    fn budget_is_rearmed_per_meter() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        let m1 = b.meter();
        let m2 = b.meter();
        assert!(m1.tick().is_ok() && m2.tick().is_ok());
        assert!(!b.is_unlimited());
        assert!(Budget::unlimited().is_unlimited());
    }
}
