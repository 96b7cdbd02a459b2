//! Prepared queries: the single compiled entry point for ad-hoc
//! queries, solves, and standing-query subscriptions.
//!
//! [`Server::prepare`](crate::Server::prepare) and
//! [`Server::prepare_solve`](crate::Server::prepare_solve) type-check a
//! query once against the frozen catalog definitions and compute its
//! **read profile** — which base relations the result depends on, and
//! which of those occurrences are safe for delta-monotone maintenance
//! (`dc_calculus::joinplan::base_relations`). The resulting
//! [`PreparedQuery`] is a cheap, clonable, `Send + Sync` handle:
//!
//! * [`Session::query`](crate::Session::query) accepts it (alongside a
//!   raw [`RangeExpr`]) and evaluates against the session's pinned
//!   snapshot;
//! * [`Server::subscribe`](crate::Server::subscribe) accepts it and
//!   registers a standing query whose read profile drives the O(1)
//!   disjoint-commit filter and the warm/cold maintenance decision.
//!
//! Definitions (selectors, constructors, schemas) are frozen for the
//! server's lifetime, so a prepared handle never goes stale — only the
//! *data* under it moves, which is exactly what the profile is for.

use std::sync::Arc;

use dc_calculus::ast::{Formula, Name, ScalarExpr, SetFormer};
use dc_calculus::joinplan::{self, ReadProfile};
use dc_calculus::{rewrite, typeck, Explanation, PlanEvent, RangeExpr};
use dc_index::RelationStats;
use dc_value::{FxHashMap, Schema, Value};

use crate::error::ServerError;
use crate::session::Session;
use crate::snapshot::Defs;

/// Bridge the snapshot's frozen definitions into the calculus-level
/// [`DefLookup`](dc_calculus::joinplan::DefLookup) so read-profile
/// analysis can chase selector predicates and constructor bodies.
pub(crate) struct DefsLookup<'a>(pub(crate) &'a Defs);

impl dc_calculus::joinplan::DefLookup for DefsLookup<'_> {
    fn selector_body(&self, name: &str) -> Option<&Formula> {
        self.0.selectors.get(name).map(|s| &s.def().predicate)
    }

    fn constructor_parts(&self, name: &str) -> Option<(&SetFormer, Vec<Name>)> {
        self.0.constructors.get(name).map(|c| {
            let formals: Vec<Name> = std::iter::once(c.base_param.0.clone())
                .chain(c.rel_params.iter().map(|(n, _)| n.clone()))
                .collect();
            (&c.body, formals)
        })
    }
}

/// What a prepared handle executes.
pub(crate) enum PreparedKind {
    /// An arbitrary range expression, evaluated by the session's query
    /// evaluator.
    Query {
        /// The type-checked expression.
        ast: RangeExpr,
    },
    /// A constructor application `base{constructor(args; scalars)}`
    /// named by catalog relations — the shape standing queries can
    /// maintain incrementally (the names give the fixpoint its
    /// base-delta provenance).
    Solve {
        /// Base relation name.
        base: Name,
        /// Constructor name.
        constructor: Name,
        /// Relation argument names.
        args: Vec<Name>,
        /// Scalar argument values.
        scalar_args: Vec<Value>,
    },
}

/// The shared, immutable compiled form behind [`PreparedQuery`].
pub(crate) struct Prepared {
    pub(crate) kind: PreparedKind,
    pub(crate) profile: ReadProfile,
}

/// A compiled, reusable query handle.
///
/// Produced by [`Server::prepare`](crate::Server::prepare) (range
/// expressions) or [`Server::prepare_solve`](crate::Server::prepare_solve)
/// (constructor applications over named catalog relations). Type
/// checking and read-profile analysis are paid once, here; every
/// execution — [`Session::query`](crate::Session::query) on any
/// session, or a standing [`Server::subscribe`](crate::Server::subscribe)
/// — reuses the compiled form. Handles are `Send + Sync` and cheap to
/// clone (one `Arc` bump).
#[derive(Clone)]
pub struct PreparedQuery {
    pub(crate) inner: Arc<Prepared>,
}

impl PreparedQuery {
    /// The base relations the query's result depends on, sorted. Empty
    /// when the profile is unresolved (see
    /// [`PreparedQuery::is_resolved`]).
    pub fn reads(&self) -> Vec<&str> {
        self.inner.profile.reads.iter().map(Name::as_str).collect()
    }

    /// False when the read profile could not be fully resolved (an
    /// unknown selector or constructor was encountered): the serving
    /// layer then treats the query as depending on *everything*, so a
    /// subscription on it refreshes on every commit, always cold.
    pub fn is_resolved(&self) -> bool {
        !self.inner.profile.unresolved
    }

    /// The planner's typed decision trace for this prepared handle
    /// against `session`'s pinned snapshot, rendered as an `EXPLAIN`
    /// tree.
    ///
    /// Query-kind handles are evaluated (like [`Session::explain`]), so
    /// the trace is exactly what execution did — access paths chosen,
    /// demotions, refusals — plus the result cardinality. Solve-kind
    /// handles get a **static preview** instead: each branch of the
    /// constructor body is planned against the snapshot's current
    /// statistics (formals substituted by their actual catalog
    /// relations; recursive applications plan with their declared
    /// schema and no statistics), without running the fixpoint.
    pub fn explain(&self, session: &Session) -> Result<Explanation, ServerError> {
        match &self.inner.kind {
            PreparedKind::Query { ast } => session.explain(ast),
            PreparedKind::Solve {
                base,
                constructor,
                args,
                scalar_args,
            } => explain_solve(session, base, constructor, args, scalar_args),
        }
    }
}

/// Static plan preview of a prepared solve: plan every branch of the
/// constructor body against the pinned snapshot's statistics.
fn explain_solve(
    session: &Session,
    base: &Name,
    constructor: &Name,
    args: &[Name],
    scalar_args: &[Value],
) -> Result<Explanation, ServerError> {
    let snap = session.snapshot().clone();
    let ctor = snap
        .defs()
        .constructors
        .get(constructor)
        .cloned()
        .ok_or_else(|| ServerError::Unknown {
            kind: "constructor",
            name: constructor.clone(),
        })?;
    // Formal parameter names → the actual catalog relations of this
    // prepared application.
    let mut map: FxHashMap<Name, RangeExpr> = FxHashMap::default();
    map.insert(ctor.base_param.0.clone(), RangeExpr::rel(base.as_str()));
    for ((formal, _), actual) in ctor.rel_params.iter().zip(args) {
        map.insert(formal.clone(), RangeExpr::rel(actual.as_str()));
    }
    let mut events = Vec::new();
    for branch in &ctor.body.branches {
        if branch.bindings.is_empty() {
            continue;
        }
        let mut schemas: Vec<Schema> = Vec::with_capacity(branch.bindings.len());
        let mut stats: Vec<RelationStats> = Vec::with_capacity(branch.bindings.len());
        for (_, range) in &branch.bindings {
            let sub = rewrite::substitute_rel(range, &map);
            match &sub {
                // A named catalog relation: real schema, real (cached)
                // statistics.
                RangeExpr::Rel(name) if snap.relation(name).is_some() => {
                    // Guarded by the match arm; the snapshot is pinned.
                    let Some(rel) = snap.relation(name) else {
                        continue;
                    };
                    schemas.push(rel.schema().clone());
                    stats.push((*snap.access().stats(rel)).clone());
                }
                // Anything else (recursive application, nested
                // set-former): the checked result schema with no
                // statistics — the preview's honest "unknown".
                _ => {
                    let schema = typeck::check_range(&sub, session)?;
                    schemas.push(schema);
                    stats.push(RelationStats {
                        cardinality: 0,
                        distinct: Vec::new(),
                    });
                }
            }
        }
        let schema_refs: Vec<&Schema> = schemas.iter().collect();
        let (plan, rationale) = joinplan::plan_branch_traced(branch, &schema_refs, &stats);
        events.push(PlanEvent::access_path_for(
            branch,
            &plan,
            &rationale,
            &schema_refs,
            &stats,
        ));
    }
    // Header: the equivalent applied-constructor expression.
    let ast = RangeExpr::rel(base.as_str()).construct_with(
        constructor,
        args.iter().map(|n| RangeExpr::rel(n.as_str())).collect(),
        scalar_args.iter().cloned().map(ScalarExpr::Const).collect(),
    );
    Ok(Explanation::new(&ast.to_string(), None, events))
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.inner.kind {
            PreparedKind::Query { .. } => "query",
            PreparedKind::Solve { constructor, .. } => constructor.as_str(),
        };
        f.debug_struct("PreparedQuery")
            .field("kind", &kind)
            .field("reads", &self.inner.profile.reads)
            .finish()
    }
}
