//! Prepared queries: a checked expression and its read set.
//!
//! [`Server::prepare`](crate::Server::prepare) type-checks and rewrites
//! a query once ([`dc_core::compile::rewrite`]) against the frozen
//! definitions and computes its **read set**: the catalog relations the
//! result can depend on, found by the solver's own reachability walk
//! ([`dc_core::fixpoint::Reach`]), which chases selector predicates and
//! constructor bodies.
//! [`Server::prepare_solve`](crate::Server::prepare_solve) is the same
//! call on the application it names. The resulting [`PreparedQuery`] is
//! a cheap, clonable, `Send + Sync` handle:
//!
//! * [`Session::query`](crate::Session::query) accepts it (alongside a
//!   raw [`RangeExpr`]) and evaluates it against the session's pinned
//!   snapshot;
//! * [`Server::subscribe`](crate::Server::subscribe) accepts it and
//!   registers a standing query whose read set drives the O(1)
//!   disjoint-commit filter;
//! * [`PreparedQuery::explain`] renders its `EXPLAIN` tree.
//!
//! Whether a handle is a [`NamedApplication`](dc_core::NamedApplication)
//! — a constructor applied to catalog relations by name — decides the
//! rest: such a subscription is maintained warm, and its `EXPLAIN` is a
//! static plan preview. Every other query is evaluated.
//!
//! Definitions (selectors, constructors, schemas) are frozen for the
//! server's lifetime, so a prepared handle never goes stale — only the
//! *data* under it moves, which is exactly what the read set is for.

use std::collections::BTreeSet;
use std::sync::Arc;

use dc_calculus::ast::Name;
use dc_calculus::{Explanation, RangeExpr};

use crate::error::ServerError;
use crate::session::Session;

/// The shared, immutable compiled form behind [`PreparedQuery`].
pub(crate) struct Prepared {
    /// The type-checked, rewritten expression.
    pub(crate) ast: RangeExpr,
    /// The catalog relations the expression can read; `None` when a
    /// definition could not be resolved, so that it may read anything.
    pub(crate) reads: Option<BTreeSet<Name>>,
}

/// A compiled, reusable query handle.
///
/// Produced by [`Server::prepare`](crate::Server::prepare) or
/// [`Server::prepare_solve`](crate::Server::prepare_solve). Type
/// checking and the read-set walk are paid once, here; every execution
/// — [`Session::query`](crate::Session::query) on any session, or a
/// standing [`Server::subscribe`](crate::Server::subscribe) — reuses the
/// compiled form. Handles are `Send + Sync` and cheap to clone (one
/// `Arc` bump).
#[derive(Clone)]
pub struct PreparedQuery {
    pub(crate) inner: Arc<Prepared>,
}

impl PreparedQuery {
    /// The catalog relations the query's result depends on, sorted.
    /// Empty when the read set is unresolved (see
    /// [`PreparedQuery::is_resolved`]).
    pub fn reads(&self) -> Vec<&str> {
        self.inner
            .reads
            .iter()
            .flatten()
            .map(Name::as_str)
            .collect()
    }

    /// False when the read set could not be fully resolved (an unknown
    /// selector or constructor was encountered): the serving layer then
    /// treats the query as depending on *everything*, so a subscription
    /// on it refreshes on every commit.
    pub fn is_resolved(&self) -> bool {
        self.inner.reads.is_some()
    }

    /// This handle's `EXPLAIN` tree against `session`'s pinned snapshot:
    /// [`Session::explain`] of the prepared expression.
    pub fn explain(&self, session: &Session) -> Result<Explanation, ServerError> {
        session.explain(self)
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("query", &self.inner.ast.to_string())
            .field("reads", &self.inner.reads)
            .finish()
    }
}
