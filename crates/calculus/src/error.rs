//! Evaluation and analysis errors for the calculus.

use std::fmt;

use dc_governor::{InjectedFault, SolveError};
use dc_relation::RelationError;
use dc_value::{TypeError, ValueError};

/// Errors raised during evaluation or static analysis of calculus
/// expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A relation name did not resolve in the catalog.
    UnknownRelation(String),
    /// A selector name did not resolve.
    UnknownSelector(String),
    /// A constructor name did not resolve.
    UnknownConstructor(String),
    /// A scalar parameter did not resolve.
    UnknownParam(String),
    /// A tuple variable was used without being bound.
    UnboundVariable(String),
    /// Scalar-level type error (attribute lookup, domain check).
    Type(TypeError),
    /// Scalar-level value error (arithmetic).
    Value(ValueError),
    /// Relation-level error (key violation, incompatible schemas).
    Relation(RelationError),
    /// Two values of different base types were compared.
    CrossTypeComparison {
        /// Left value rendered for the message.
        lhs: String,
        /// Right value rendered for the message.
        rhs: String,
    },
    /// A predicate position received a non-boolean, or similar.
    NotBoolean(String),
    /// Wrong number of arguments in a selector/constructor application.
    ArityMismatch {
        /// The applied name.
        name: String,
        /// Declared parameter count.
        expected: usize,
        /// Supplied argument count.
        actual: usize,
    },
    /// §3.3: a constructor violating the positivity constraint was
    /// submitted to the checked API. Carries a description of the first
    /// offending occurrence.
    PositivityViolation(String),
    /// The fixpoint iteration detected an oscillating (period-2)
    /// iterate — only reachable through the unchecked API (the paper's
    /// `nonsense` constructor, §3.3). Resource-exhaustion divergence is
    /// [`SolveError::Diverged`] instead.
    NonConvergent {
        /// Steps executed before giving up.
        steps: usize,
    },
    /// A governed solve aborted: deadline, tuple budget, cancellation,
    /// divergence, or an isolated worker panic. Carries the structured
    /// taxonomy with diagnostics; the abort is atomic (the catalog is
    /// left at its pre-solve state).
    Solve(SolveError),
    /// An armed failpoint injected an error (deterministic
    /// fault-injection testing; see `dc_governor::fail`).
    FaultInjected {
        /// The failpoint site that fired.
        site: String,
    },
    /// Anything else, with context.
    Other(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            EvalError::UnknownSelector(n) => write!(f, "unknown selector `{n}`"),
            EvalError::UnknownConstructor(n) => write!(f, "unknown constructor `{n}`"),
            EvalError::UnknownParam(n) => write!(f, "unknown parameter `{n}`"),
            EvalError::UnboundVariable(v) => write!(f, "unbound tuple variable `{v}`"),
            EvalError::Type(e) => write!(f, "{e}"),
            EvalError::Value(e) => write!(f, "{e}"),
            EvalError::Relation(e) => write!(f, "{e}"),
            EvalError::CrossTypeComparison { lhs, rhs } => {
                write!(f, "cannot compare {lhs} with {rhs}")
            }
            EvalError::NotBoolean(ctx) => write!(f, "non-boolean in predicate position: {ctx}"),
            EvalError::ArityMismatch {
                name,
                expected,
                actual,
            } => {
                write!(f, "`{name}` expects {expected} argument(s), got {actual}")
            }
            EvalError::PositivityViolation(d) => {
                write!(f, "positivity constraint violated: {d}")
            }
            EvalError::NonConvergent { steps } => {
                write!(f, "fixpoint iteration did not converge after {steps} steps")
            }
            EvalError::Solve(e) => write!(f, "{e}"),
            EvalError::FaultInjected { site } => {
                write!(f, "injected fault at failpoint `{site}`")
            }
            EvalError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<TypeError> for EvalError {
    fn from(e: TypeError) -> Self {
        EvalError::Type(e)
    }
}

impl From<ValueError> for EvalError {
    fn from(e: ValueError) -> Self {
        EvalError::Value(e)
    }
}

impl From<RelationError> for EvalError {
    fn from(e: RelationError) -> Self {
        EvalError::Relation(e)
    }
}

impl From<SolveError> for EvalError {
    fn from(e: SolveError) -> Self {
        EvalError::Solve(e)
    }
}

impl From<InjectedFault> for EvalError {
    fn from(e: InjectedFault) -> Self {
        EvalError::FaultInjected {
            site: e.site.to_string(),
        }
    }
}

/// A scheduler-level task failure ([`dc_exec::run_tasks`]) as the
/// evaluation error it stands for. Callers that degrade worker panics
/// to a sequential retry match `WorkerPanic` out first; what reaches
/// this conversion is a failure the retry did not absorb.
impl From<dc_exec::ExecError> for EvalError {
    fn from(e: dc_exec::ExecError) -> Self {
        match e {
            dc_exec::ExecError::WorkerPanic { message } => {
                EvalError::Solve(SolveError::WorkerPanic {
                    message,
                    diag: dc_governor::SolveDiag::default(),
                })
            }
            dc_exec::ExecError::FaultInjected(f) => EvalError::from(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EvalError::UnknownRelation("R".into())
            .to_string()
            .contains("`R`"));
        assert!(EvalError::NonConvergent { steps: 7 }
            .to_string()
            .contains('7'));
        assert!(EvalError::ArityMismatch {
            name: "ahead".into(),
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("ahead"));
    }

    #[test]
    fn conversions() {
        let e: EvalError = TypeError::ArityMismatch {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(matches!(e, EvalError::Type(_)));
        let e: EvalError = ValueError::DivisionByZero.into();
        assert!(matches!(e, EvalError::Value(_)));
    }
}
