//! The serving layer's error taxonomy.

use std::fmt;

use dc_calculus::EvalError;
use dc_governor::fail::InjectedFault;
use dc_relation::RelationError;

/// Errors surfaced by the serving layer: commit-path failures (which
/// are always *atomic* — the published snapshot chain is never
/// advanced by a failed commit) and session-side evaluation errors.
///
/// Non-exhaustive: the serving layer may grow failure modes; match with
/// a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// A name did not resolve against the snapshot's catalog.
    Unknown {
        /// `"relation"`, `"constructor"`, …
        kind: &'static str,
        /// The unresolved name.
        name: String,
    },
    /// A batch op violated a relation-level constraint (key violation,
    /// schema mismatch). The commit was rolled back.
    Relation(RelationError),
    /// An evaluation error from a session's query or solve — including
    /// structured [`dc_governor::SolveError`]s (budget trips,
    /// worker panics) and injected faults, both wrapped in
    /// [`EvalError`].
    Eval(EvalError),
    /// `commit_or_conflict` found the session's read set stale: a
    /// relation it read was modified by a commit after the session's
    /// begin-snapshot. The batch was not applied.
    Conflict {
        /// The read relation that went stale.
        relation: String,
        /// The epoch the rejected session had pinned.
        read_epoch: u64,
        /// The epoch whose commit modified the relation.
        committed_epoch: u64,
    },
    /// The server's shutdown token is cancelled; no new commits are
    /// accepted.
    ShuttingDown,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Unknown { kind, name } => write!(f, "unknown {kind} `{name}`"),
            ServerError::Relation(e) => write!(f, "{e}"),
            ServerError::Eval(e) => write!(f, "{e}"),
            ServerError::Conflict {
                relation,
                read_epoch,
                committed_epoch,
            } => write!(
                f,
                "write-write/read-write conflict on `{relation}`: read at epoch \
                 {read_epoch}, modified by commit of epoch {committed_epoch}"
            ),
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Relation(e) => Some(e),
            ServerError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for ServerError {
    fn from(e: RelationError) -> Self {
        ServerError::Relation(e)
    }
}

impl From<EvalError> for ServerError {
    fn from(e: EvalError) -> Self {
        ServerError::Eval(e)
    }
}

impl From<InjectedFault> for ServerError {
    fn from(e: InjectedFault) -> Self {
        ServerError::Eval(e.into())
    }
}
