//! Snapshot-isolated read sessions.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use dc_calculus::ast::{Name, SelectorDef};
use dc_calculus::typeck::{self, ConstructorSig, SchemaCatalog};
use dc_calculus::{AccessCache, Catalog, EvalError, Evaluator, Explanation, RangeExpr};
use dc_core::fixpoint::{
    self, AppKey, BaseDelta, ConstructorSource, FixpointConfig, SolvedSystem, WarmOutcome,
};
use dc_core::Constructor;
use dc_governor::{Budget, CancelToken};
use dc_relation::Relation;
use dc_trace::metrics::{Counter, Histogram, MetricsRegistry};
use dc_trace::SpanKind;
use dc_value::{FxHashMap, FxHashSet, Schema, Tuple, Value};

use crate::error::ServerError;
use crate::prepare::{Prepared, PreparedKind, PreparedQuery};
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
    solved: RefCell<FxHashMap<AppKey, Relation>>,
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
            solved: RefCell::new(FxHashMap::default()),
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
    /// Accepts either a raw [`RangeExpr`] (type-checked here, each
    /// call) or a [`PreparedQuery`] from
    /// [`Server::prepare`](crate::Server::prepare) /
    /// [`Server::prepare_solve`](crate::Server::prepare_solve), whose
    /// checking was paid once at prepare time and which is reusable
    /// across sessions and epochs.
    pub fn query<Q: Queryable + ?Sized>(&self, query: &Q) -> Result<Relation, ServerError> {
        let t0 = Instant::now();
        let mut span = dc_trace::span(SpanKind::SessionQuery);
        span.field("epoch", self.epoch());
        let out = query.run(self);
        if let Some(m) = self.registry() {
            m.inc(Counter::Queries);
            m.observe_us(Histogram::QueryLatencyUs, t0.elapsed().as_micros() as u64);
        }
        if let Ok(rel) = &out {
            span.field("rows", rel.len());
        }
        out
    }

    /// Evaluate `query` against the pinned snapshot and return the
    /// planner's typed decision trace rendered as an `EXPLAIN` tree:
    /// the chosen access path per branch with the estimates behind
    /// it, quantifier-plan demotions, and correlated ranges left on the
    /// reference scan.
    pub fn explain(&self, query: &RangeExpr) -> Result<Explanation, ServerError> {
        typeck::check_range(query, self)?;
        let mut ev = self.evaluator();
        let rel = ev.eval(query)?;
        let events = ev.take_plan_events();
        Ok(Explanation::new(
            &query.to_string(),
            Some(rel.len()),
            events,
        ))
    }

    /// The serving layer's metrics registry, reached through the frozen
    /// snapshot config (always present under a `Server`).
    fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.snap.defs().config.metrics.as_ref()
    }

    /// Bump one counter on the serving registry (no-op without one).
    fn count(&self, c: Counter) {
        if let Some(m) = self.registry() {
            m.inc(c);
        }
    }

    /// Solve `base{constructor(args…)}` against the pinned snapshot: a
    /// convenience wrapper over the same fixpoint path queries take.
    pub fn solve(
        &self,
        base: &str,
        constructor: &str,
        args: &[&str],
        scalar_args: Vec<Value>,
    ) -> Result<Relation, ServerError> {
        let b = self.read(base)?;
        let a: Vec<Relation> = args
            .iter()
            .map(|n| self.read(n))
            .collect::<Result<_, _>>()?;
        Ok(Catalog::apply_constructor(
            self,
            b,
            constructor,
            a,
            scalar_args,
        )?)
    }

    /// Execute a compiled handle: the one entry point both
    /// [`Session::query`] (via [`Queryable`]) and the standing-query
    /// refresh path funnel through.
    pub(crate) fn run_prepared(&self, prepared: &Prepared) -> Result<Relation, ServerError> {
        match &prepared.kind {
            // Checked at prepare time against the same frozen
            // definitions every snapshot shares; evaluate directly.
            PreparedKind::Query { ast } => Ok(self.evaluator().eval(ast)?),
            PreparedKind::Solve {
                base,
                constructor,
                args,
                scalar_args,
            } => {
                let arg_refs: Vec<&str> = args.iter().map(Name::as_str).collect();
                self.solve(base, constructor, &arg_refs, scalar_args.clone())
            }
        }
    }

    /// The fixpoint configuration a solve in this session runs under:
    /// the frozen catalog config, metered by the session budget.
    fn fixpoint_cfg(&self) -> FixpointConfig {
        FixpointConfig {
            budget: Some(self.budget.clone()),
            ..self.snap.defs().config.clone()
        }
    }

    /// Cold solve that additionally captures the converged system's
    /// materialised state, seeding future warm refreshes. Standing
    /// queries use this for their initial evaluation and their cold
    /// fallback.
    pub(crate) fn solve_tracked(
        &self,
        base: &str,
        constructor: &str,
        args: &[Name],
        scalar_args: Vec<Value>,
    ) -> Result<(Relation, SolvedSystem), ServerError> {
        let b = self.read(base)?;
        let a: Vec<Relation> = args
            .iter()
            .map(|n| self.read(n))
            .collect::<Result<_, _>>()?;
        let key = AppKey::new(constructor, &b, &a, &scalar_args);
        let arg_refs: Vec<&str> = args.iter().map(Name::as_str).collect();
        let (value, system) = fixpoint::solve_tracked(
            self,
            constructor,
            b,
            a,
            scalar_args,
            base,
            &arg_refs,
            &self.fixpoint_cfg(),
        )?;
        self.snap.warm().donate_solved(key.clone(), value.clone());
        self.solved.borrow_mut().insert(key, value.clone());
        Ok((value, system))
    }

    /// Warm re-solve from a previously captured system plus the net
    /// base deltas since.
    pub(crate) fn solve_warm(
        &self,
        base: &str,
        constructor: &str,
        args: &[Name],
        scalar_args: Vec<Value>,
        prev: SolvedSystem,
        deltas: &[(Name, BaseDelta)],
    ) -> Result<WarmOutcome, ServerError> {
        let b = self.read(base)?;
        let a: Vec<Relation> = args
            .iter()
            .map(|n| self.read(n))
            .collect::<Result<_, _>>()?;
        let key = AppKey::new(constructor, &b, &a, &scalar_args);
        let arg_refs: Vec<&str> = args.iter().map(Name::as_str).collect();
        let outcome = fixpoint::solve_warm(
            self,
            constructor,
            b,
            a,
            scalar_args,
            base,
            &arg_refs,
            prev,
            deltas,
            &self.fixpoint_cfg(),
        )?;
        if let WarmOutcome::Solved { value, .. } = &outcome {
            self.snap.warm().donate_solved(key, value.clone());
        }
        Ok(outcome)
    }

    /// An evaluator over the pinned snapshot honouring the frozen index
    /// and parallel-execution configuration, metered by the session
    /// budget.
    fn evaluator(&self) -> Evaluator<'_> {
        let config = &self.snap.defs().config;
        let mut ev = Evaluator::new(self);
        ev = ev.with_meter(self.budget.meter());
        if let Some(m) = &config.metrics {
            ev = ev.with_metrics(m.clone());
        }
        if config.use_indexes {
            ev.with_threads(dc_exec::thread_count(config.threads))
                .with_parallel_threshold(config.parallel_threshold)
        } else {
            ev.force_nested_loop()
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for dc_calculus::RangeExpr {}
    impl Sealed for crate::prepare::PreparedQuery {}
}

/// The query forms [`Session::query`] accepts: a raw [`RangeExpr`]
/// (checked per call) or a compiled [`PreparedQuery`] (checked once at
/// prepare time). Sealed — the set of forms is the serving layer's to
/// define.
pub trait Queryable: sealed::Sealed {
    /// Execute against `session`'s pinned snapshot.
    #[doc(hidden)]
    fn run(&self, session: &Session) -> Result<Relation, ServerError>;
}

impl Queryable for RangeExpr {
    fn run(&self, session: &Session) -> Result<Relation, ServerError> {
        typeck::check_range(self, session)?;
        Ok(session.evaluator().eval(self)?)
    }
}

impl Queryable for PreparedQuery {
    fn run(&self, session: &Session) -> Result<Relation, ServerError> {
        session.run_prepared(&self.inner)
    }
}

impl ConstructorSource for Session {
    fn base_catalog(&self) -> &dyn Catalog {
        self
    }

    fn constructor_def(&self, name: &str) -> Result<Constructor, EvalError> {
        self.snap
            .defs()
            .constructors
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))
    }

    fn is_unchecked(&self, name: &str) -> bool {
        self.snap.defs().unchecked.contains(name)
    }
}

impl Catalog for Session {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        let r = self
            .snap
            .relation(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        self.read_set.borrow_mut().insert(name.to_string());
        Ok(r)
    }

    /// The pinned snapshot's cache: what this session builds, sibling
    /// sessions on the same epoch — and, for relations later commits
    /// leave alone, on later epochs — hit.
    fn access(&self) -> Option<&AccessCache> {
        Some(self.snap.access())
    }

    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.snap
            .defs()
            .selectors
            .get(name)
            .map(|s| s.def())
            .ok_or_else(|| EvalError::UnknownSelector(name.to_string()))
    }

    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        // The key is content-addressed (relation digests + scalar
        // args), so hits from the warm memo — including entries carried
        // over from earlier epochs — can never serve stale data.
        let key = AppKey::new(name, &base, &args, &scalar_args);
        if let Some(hit) = self.solved.borrow().get(&key) {
            return Ok(hit.clone());
        }
        if let Some(hit) = self.snap.warm().solved(&key) {
            self.count(Counter::WarmSolvedHits);
            self.solved.borrow_mut().insert(key, hit.clone());
            return Ok(hit);
        }
        self.count(Counter::WarmSolvedMisses);
        // The snapshot is immutable and the session caches are written
        // on success only: a failed solve (panics included — the solver
        // catches them) leaves the session as it was.
        let value = fixpoint::solve(self, name, base, args, scalar_args, &self.fixpoint_cfg())?;
        self.snap.warm().donate_solved(key.clone(), value.clone());
        self.solved.borrow_mut().insert(key, value.clone());
        Ok(value)
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
        self.snap
            .defs()
            .selectors
            .get(name)
            .map(|s| s.def())
            .ok_or_else(|| EvalError::UnknownSelector(name.to_string()))
    }

    fn constructor_sig(&self, name: &str) -> Result<&ConstructorSig, EvalError> {
        self.snap
            .defs()
            .signatures
            .get(name)
            .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))
    }
}

/// A session member check used by tests: does the pinned snapshot
/// contain `tuple` in `rel`? Avoids cloning a handle for membership
/// probes.
impl Session {
    /// Membership probe against the pinned snapshot (recorded in the
    /// read set).
    pub fn contains(&self, rel: &str, tuple: &Tuple) -> Result<bool, ServerError> {
        Ok(self.read(rel)?.contains(tuple))
    }
}
