//! The structured abort taxonomy and its diagnostics.

use std::fmt;

use crate::budget::Trip;

/// Diagnostics attached to every [`SolveError`]: enough to answer "what
/// was the solve doing when it died" without re-running it.
///
/// The deep layer that trips a limit fills what it knows (often nothing
/// beyond the trip itself); the solver enriches the diagnostics on the
/// way out — rounds completed, tuples produced, the offending
/// equation/branch, and any planner-trace notes the branch evaluator
/// had accumulated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SolveDiag {
    /// Fixpoint rounds completed before the abort.
    pub rounds: u64,
    /// Tuples materialised by branch evaluation before the abort.
    pub tuples: u64,
    /// Total size of the last committed round's deltas (semi-naive) or
    /// of the last full iterate (naive); `0` before the first commit.
    pub last_delta: u64,
    /// The equation/branch being evaluated when the limit tripped,
    /// e.g. `"equation 0 (ancestors), branch 1"`. Empty when the trip
    /// fired between equations (round boundaries).
    pub site: String,
    /// Planner-trace notes from the branch evaluator (access-path
    /// decisions, degradations), newest last.
    pub notes: Vec<String>,
}

impl fmt::Display for SolveDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "after {} round(s), {} tuple(s), last delta {}",
            self.rounds, self.tuples, self.last_delta
        )?;
        if !self.site.is_empty() {
            write!(f, ", at {}", self.site)?;
        }
        Ok(())
    }
}

/// Why a solve aborted. Every variant carries [`SolveDiag`]; aborts are
/// atomic (the database is left at its pre-solve snapshot), so the
/// diagnostics are the *only* trace the solve leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// Milliseconds elapsed when the trip was observed.
        elapsed_ms: u64,
        /// The configured deadline in milliseconds.
        limit_ms: u64,
        /// What the solve was doing.
        diag: SolveDiag,
    },
    /// The materialised-tuple ceiling was crossed.
    TupleBudgetExceeded {
        /// Tuples materialised when the trip fired.
        produced: u64,
        /// The configured ceiling.
        limit: u64,
        /// What the solve was doing.
        diag: SolveDiag,
    },
    /// The cooperative cancel token was triggered.
    Cancelled {
        /// What the solve was doing.
        diag: SolveDiag,
    },
    /// The fixpoint failed to converge within its round allowance
    /// (the solver's fixed round ceiling or a budget round ceiling).
    Diverged {
        /// What the solve was doing; `diag.rounds` is the allowance
        /// that was exhausted and `diag.last_delta` the last round's
        /// delta size — a growing delta is the signature of a
        /// genuinely divergent system rather than a slow convergent
        /// one.
        diag: SolveDiag,
    },
    /// The solve panicked; the panic was caught at the solve's
    /// isolation boundary and converted into this error.
    WorkerPanic {
        /// The panic payload, rendered.
        message: String,
        /// What the solve was doing.
        diag: SolveDiag,
    },
}

impl SolveError {
    /// Lift a budget [`Trip`] into the taxonomy with empty diagnostics
    /// (the propagation path fills them in via [`SolveError::diag_mut`]).
    pub fn from_trip(trip: Trip) -> SolveError {
        match trip {
            Trip::Deadline {
                elapsed_ms,
                limit_ms,
            } => SolveError::DeadlineExceeded {
                elapsed_ms,
                limit_ms,
                diag: SolveDiag::default(),
            },
            Trip::Tuples { produced, limit } => SolveError::TupleBudgetExceeded {
                produced,
                limit,
                diag: SolveDiag::default(),
            },
            Trip::Rounds { completed, limit } => SolveError::Diverged {
                diag: SolveDiag {
                    rounds: completed,
                    notes: vec![format!("budget round ceiling {limit} reached")],
                    ..SolveDiag::default()
                },
            },
            Trip::Cancelled => SolveError::Cancelled {
                diag: SolveDiag::default(),
            },
        }
    }

    /// A panic caught at an isolation boundary, as a `WorkerPanic`
    /// with empty diagnostics — the one decoding of a panic payload
    /// every boundary (solver entry, the serving layer's commit and
    /// refresh) shares.
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> SolveError {
        SolveError::WorkerPanic {
            message: panic_message(payload),
            diag: SolveDiag::default(),
        }
    }

    /// The attached diagnostics.
    pub fn diag(&self) -> &SolveDiag {
        match self {
            SolveError::DeadlineExceeded { diag, .. }
            | SolveError::TupleBudgetExceeded { diag, .. }
            | SolveError::Cancelled { diag }
            | SolveError::Diverged { diag }
            | SolveError::WorkerPanic { diag, .. } => diag,
        }
    }

    /// Mutable access for enrichment on the propagation path.
    pub fn diag_mut(&mut self) -> &mut SolveDiag {
        match self {
            SolveError::DeadlineExceeded { diag, .. }
            | SolveError::TupleBudgetExceeded { diag, .. }
            | SolveError::Cancelled { diag }
            | SolveError::Diverged { diag }
            | SolveError::WorkerPanic { diag, .. } => diag,
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::DeadlineExceeded {
                elapsed_ms,
                limit_ms,
                diag,
            } => write!(
                f,
                "solve deadline exceeded: {elapsed_ms} ms elapsed (limit {limit_ms} ms), {diag}"
            ),
            SolveError::TupleBudgetExceeded {
                produced,
                limit,
                diag,
            } => write!(
                f,
                "solve tuple budget exceeded: {produced} tuples materialised (limit {limit}), {diag}"
            ),
            SolveError::Cancelled { diag } => write!(f, "solve cancelled, {diag}"),
            SolveError::Diverged { diag } => {
                write!(f, "fixpoint diverged: no convergence {diag}")
            }
            SolveError::WorkerPanic { message, diag } => {
                write!(f, "solve panicked: {message}, {diag}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Render a caught panic payload: the conventional `&str`/`String`
/// forms verbatim, anything else as a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl From<Trip> for SolveError {
    fn from(trip: Trip) -> SolveError {
        SolveError::from_trip(trip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_lift_into_the_taxonomy() {
        assert!(matches!(
            SolveError::from_trip(Trip::Deadline {
                elapsed_ms: 12,
                limit_ms: 10
            }),
            SolveError::DeadlineExceeded {
                elapsed_ms: 12,
                limit_ms: 10,
                ..
            }
        ));
        assert!(matches!(
            SolveError::from_trip(Trip::Cancelled),
            SolveError::Cancelled { .. }
        ));
        // A round-ceiling trip is a divergence verdict, and it records
        // the exhausted allowance.
        let e = SolveError::from_trip(Trip::Rounds {
            completed: 7,
            limit: 7,
        });
        assert!(matches!(&e, SolveError::Diverged { diag } if diag.rounds == 7));
    }

    #[test]
    fn diag_enrichment_round_trips() {
        let mut e = SolveError::from_trip(Trip::Tuples {
            produced: 101,
            limit: 100,
        });
        e.diag_mut().rounds = 3;
        e.diag_mut().site = "equation 1 (closure), branch 0".into();
        assert_eq!(e.diag().rounds, 3);
        let shown = e.to_string();
        assert!(shown.contains("101 tuples"), "{shown}");
        assert!(shown.contains("equation 1 (closure)"), "{shown}");
    }
}
