//! Snapshot-isolated read sessions.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use dc_calculus::ast::{Name, SelectorDef};
use dc_calculus::typeck::{ConstructorSig, SchemaCatalog};
use dc_calculus::{AccessCache, Catalog, EvalError, Evaluator, Explanation, RangeExpr};
use dc_core::fixpoint::{self, AppKey, BaseDelta, FixpointConfig, SolvedSystem, WarmOutcome};
use dc_core::{compile, Defs, NamedApplication};
use dc_governor::{Budget, CancelToken};
use dc_relation::Relation;
use dc_trace::metrics::{Counter, Histogram};
use dc_trace::SpanKind;
use dc_value::{FxHashSet, Schema, Tuple, Value};

use crate::error::ServerError;
use crate::prepare::PreparedQuery;
use crate::snapshot::Snapshot;

/// A read session pinned to one snapshot.
///
/// Begun with [`Server::begin`](crate::Server::begin), a session serves
/// queries and solves against the epoch it pinned — with **zero
/// coordination between readers**: the only state shared with other
/// sessions is the snapshot's access cache and solved memo, read under
/// locks whose scopes are bounded by a map lookup. Concurrent commits
/// are invisible; every read inside one
/// session is mutually consistent, however many epochs the writer
/// publishes meanwhile.
///
/// The session records every relation it reads. Handing the session to
/// [`Server::commit_or_conflict`](crate::Server::commit_or_conflict)
/// turns that read set into an optimistic-concurrency check: the batch
/// commits only if nothing the session read has been modified since its
/// begin-snapshot.
///
/// Sessions are `Send` (movable to a worker thread) but intentionally
/// not `Sync` — one session is one isolation scope; run one per thread.
pub struct Session {
    snap: Arc<Snapshot>,
    budget: Budget,
    cancel: CancelToken,
    read_set: RefCell<FxHashSet<Name>>,
}

impl Session {
    pub(crate) fn new(snap: Arc<Snapshot>, template: &Budget, shutdown: &CancelToken) -> Session {
        // Each session's budget is drawn from the server-level
        // allowance (the template) and armed with a child of the
        // shutdown token: server shutdown cancels every in-flight
        // session at its next budget tick, while cancelling one
        // session leaves its siblings untouched.
        let cancel = shutdown.child();
        let budget = template.clone().with_cancel(cancel.clone());
        Session {
            snap,
            budget,
            cancel,
            read_set: RefCell::new(FxHashSet::default()),
        }
    }

    /// The epoch this session pinned at `begin()`.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snap
    }

    /// This session's cancellation token (a child of the server's
    /// shutdown token): cancel it to abort the session's in-flight
    /// evaluation at its next budget tick.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Read a relation's pinned value (recorded in the read set).
    pub fn read(&self, name: &str) -> Result<Relation, ServerError> {
        Ok(Catalog::relation(self, name)?)
    }

    /// Membership probe against the pinned snapshot (recorded in the
    /// read set).
    pub fn contains(&self, rel: &str, tuple: &Tuple) -> Result<bool, ServerError> {
        Ok(self.read(rel)?.contains(tuple))
    }

    /// The pinned content digest of a relation — O(1): snapshot
    /// publication pre-populated the memo (recorded in the read set).
    pub fn relation_digest(&self, name: &str) -> Result<u128, ServerError> {
        Ok(self.read(name)?.digest())
    }

    /// Relation names this session has read so far, sorted.
    pub fn read_set(&self) -> Vec<Name> {
        let mut v: Vec<Name> = self.read_set.borrow().iter().cloned().collect();
        v.sort_unstable();
        v
    }

    /// Evaluate a query against the pinned snapshot.
    ///
    /// Accepts either a raw [`RangeExpr`] (type-checked and rewritten
    /// by [`dc_core::compile::rewrite`] here, each call) or a
    /// [`PreparedQuery`] from [`Server::prepare`](crate::Server::prepare) /
    /// [`Server::prepare_solve`](crate::Server::prepare_solve), compiled
    /// once at prepare time and reusable across sessions and epochs.
    pub fn query<Q: Queryable + ?Sized>(&self, query: &Q) -> Result<Relation, ServerError> {
        let t0 = Instant::now();
        let mut span = dc_trace::span(SpanKind::SessionQuery);
        span.field("epoch", self.epoch());
        let out = query
            .compiled(self)
            .and_then(|q| Ok(self.evaluator().eval(&q)?));
        if let Some(m) = &self.defs().config.metrics {
            m.inc(Counter::Queries);
            m.observe_us(Histogram::QueryLatencyUs, t0.elapsed().as_micros() as u64);
        }
        if let Ok(rel) = &out {
            span.field("rows", rel.len());
        }
        out
    }

    /// The planner's typed decision trace for `query`, compiled as by
    /// [`Session::query`], against the pinned snapshot, rendered as an
    /// `EXPLAIN` tree: a static plan preview for a named application,
    /// the trace of its evaluation for any other query (see
    /// [`dc_core::explain`]).
    pub fn explain<Q: Queryable + ?Sized>(&self, query: &Q) -> Result<Explanation, ServerError> {
        let q = query.compiled(self)?;
        Ok(dc_core::explain(self.defs(), self, self.evaluator(), &q)?)
    }

    /// The frozen definitions the pinned snapshot shares.
    fn defs(&self) -> &Defs {
        self.snap.defs()
    }

    /// Solve `base{constructor(args…; scalar_args…)}` against the pinned
    /// snapshot: [`Session::query`] of that application.
    pub fn solve(
        &self,
        base: &str,
        constructor: &str,
        args: &[&str],
        scalar_args: Vec<Value>,
    ) -> Result<Relation, ServerError> {
        let app = NamedApplication {
            base,
            constructor,
            args: args.to_vec(),
            scalar_args,
        };
        self.query(&app.expr())
    }

    /// The pinned values of an application's named actuals (recorded in
    /// the read set).
    fn actuals(
        &self,
        app: &NamedApplication<'_>,
    ) -> Result<(Relation, Vec<Relation>), ServerError> {
        let b = self.read(app.base)?;
        let a = app
            .args
            .iter()
            .map(|n| self.read(n))
            .collect::<Result<_, _>>()?;
        Ok((b, a))
    }

    /// The fixpoint configuration a solve in this session runs under:
    /// the frozen catalog config, metered by the session budget.
    fn fixpoint_cfg(&self) -> FixpointConfig {
        FixpointConfig {
            budget: Some(self.budget.clone()),
            ..self.defs().config.clone()
        }
    }

    /// A standing query's from-scratch evaluation. A named application
    /// also captures the converged system, seeding future warm
    /// refreshes, and donates its value to the snapshot's memo.
    pub(crate) fn run_tracked(
        &self,
        query: &RangeExpr,
    ) -> Result<(Relation, Option<SolvedSystem>), ServerError> {
        let Some(app) = NamedApplication::of(query) else {
            return Ok((self.evaluator().eval(query)?, None));
        };
        let (b, a) = self.actuals(&app)?;
        let key = AppKey::new(app.constructor, &b, &a, &app.scalar_args);
        let cfg = self.fixpoint_cfg();
        let (defs, args) = (self.defs(), app.scalar_args);
        let system = fixpoint::solve(defs, self, app.constructor, b, a, args, &cfg)?;
        let value = self.snap.solved().insert(key, system.value().clone());
        Ok((value, Some(system)))
    }

    /// Warm re-solve of `app` from a previously captured system plus
    /// the net base deltas since.
    pub(crate) fn solve_warm(
        &self,
        app: &NamedApplication<'_>,
        prev: SolvedSystem,
        deltas: &[(Name, BaseDelta)],
    ) -> Result<WarmOutcome, ServerError> {
        let (b, a) = self.actuals(app)?;
        let scalar_args = app.scalar_args.clone();
        let key = AppKey::new(app.constructor, &b, &a, &scalar_args);
        let outcome = fixpoint::solve_warm(
            self.defs(),
            self,
            app.constructor,
            b,
            a,
            scalar_args,
            prev,
            deltas,
            &self.fixpoint_cfg(),
        )?;
        if let WarmOutcome::Solved { value, .. } = &outcome {
            self.snap.solved().insert(key, value.clone());
        }
        Ok(outcome)
    }

    /// An evaluator over the pinned snapshot honouring the frozen index
    /// configuration, metered by the session budget.
    fn evaluator(&self) -> Evaluator<'_> {
        self.defs()
            .config
            .evaluator(self, Some(self.budget.meter()))
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for dc_calculus::RangeExpr {}
    impl Sealed for crate::prepare::PreparedQuery {}
}

/// The query forms [`Session::query`] and [`Session::explain`] accept:
/// a raw [`RangeExpr`] (compiled per call) or a [`PreparedQuery`]
/// (compiled once at prepare time). Sealed — the set of forms is the
/// serving layer's to define.
pub trait Queryable: sealed::Sealed {
    /// The type-checked, rewritten expression to run against
    /// `session`'s pinned snapshot.
    #[doc(hidden)]
    fn compiled(&self, session: &Session) -> Result<Cow<'_, RangeExpr>, ServerError>;
}

impl Queryable for RangeExpr {
    fn compiled(&self, session: &Session) -> Result<Cow<'_, RangeExpr>, ServerError> {
        Ok(Cow::Owned(compile::rewrite(session.defs(), session, self)?))
    }
}

impl Queryable for PreparedQuery {
    /// Compiled at prepare time against the same frozen definitions
    /// every snapshot shares.
    fn compiled(&self, _: &Session) -> Result<Cow<'_, RangeExpr>, ServerError> {
        Ok(Cow::Borrowed(&self.inner.ast))
    }
}

impl Catalog for Session {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        let r = self
            .snap
            .relation(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        if !self.read_set.borrow().contains(name) {
            self.read_set.borrow_mut().insert(name.to_string());
        }
        Ok(r)
    }

    /// The pinned snapshot's cache: what this session builds, sibling
    /// sessions on the same epoch — and, for relations later commits
    /// leave alone, on later epochs — hit.
    fn access(&self) -> Option<&AccessCache> {
        Some(self.snap.access())
    }

    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.defs().selector(name)
    }

    /// Through the snapshot's memo, shared with every session of the
    /// epoch. The snapshot is immutable and the memo is written on
    /// success only: a failed solve (panics included — the solver
    /// catches them) leaves both as they were.
    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        let cfg = self.fixpoint_cfg();
        self.snap
            .solved()
            .apply(self.defs(), self, name, base, args, scalar_args, &cfg)
    }
}

impl SchemaCatalog for Session {
    fn relation_schema(&self, name: &str) -> Result<Schema, EvalError> {
        self.snap
            .relation(name)
            .map(|r| r.schema().clone())
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))
    }

    fn selector_def(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.defs().selector(name)
    }

    fn constructor_sig(&self, name: &str) -> Result<&ConstructorSig, EvalError> {
        self.defs().constructor_sig(name)
    }
}
