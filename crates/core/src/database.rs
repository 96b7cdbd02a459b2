//! The database façade: a typed catalog of relations, selectors, and
//! constructors, implementing [`Catalog`] so that queries mixing base,
//! selected, and constructed relations evaluate transparently.
//!
//! This is the engine-level stand-in for the DBPL programming
//! environment of §2: relation variables with key constraints, selector
//! definitions with registration-time type checking, constructor
//! definitions with the §3.3 positivity check, and guarded assignment.

use std::cell::RefCell;
use std::sync::Arc;

use dc_calculus::ast::{Name, SelectorDef};
use dc_calculus::typeck::{self, ConstructorSig, SchemaCatalog};
use dc_calculus::{AccessCache, Catalog, EvalError, Evaluator, Explanation, RangeExpr};
use dc_governor::{Budget, SolveDiag, SolveError};
use dc_relation::Relation;
use dc_trace::metrics::MetricsRegistry;
use dc_value::{FxHashMap, FxHashSet, Schema, Tuple, Value};

use crate::constructor::Constructor;
use crate::error::CoreError;
use crate::fixpoint::{self, AppKey, ConstructorSource, FixpointConfig, FixpointStats, Strategy};
use crate::selector::Selector;

/// An in-memory deductive database: base relations + rules
/// (constructors) + constraints (selectors).
pub struct Database {
    relations: FxHashMap<Name, Relation>,
    selectors: FxHashMap<Name, Selector>,
    constructors: FxHashMap<Name, Constructor>,
    signatures: FxHashMap<Name, ConstructorSig>,
    /// Constructors registered through the unchecked API (§3.3's
    /// non-positive definitions); these force the naive strategy, since
    /// differential evaluation assumes monotonicity.
    unchecked: FxHashSet<Name>,
    config: FixpointConfig,
    /// Memo of solved applications. A body may read relations by name
    /// that its [`AppKey`] does not cover, so the memo is dropped
    /// whenever any relation changes (and when the strategy does).
    solved: RefCell<FxHashMap<AppKey, Relation>>,
    /// Indexes, statistics, and decorrelated ranges over the base
    /// relations, served to every evaluator through
    /// [`Catalog::access`]. Keyed by storage identity, so a changed
    /// relation simply misses; [`Database::mutate`] forgets the id it
    /// had before.
    access: AccessCache,
    /// Statistics of the most recent fixpoint run.
    last_stats: RefCell<Option<FixpointStats>>,
    /// The metrics registry every solve and query evaluation records
    /// into; also threaded through `config.metrics` so solver-spawned
    /// evaluators (on any thread) count planner decisions here.
    metrics: Arc<MetricsRegistry>,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// An empty database with the default (semi-naive) configuration.
    pub fn new() -> Database {
        let metrics = Arc::new(MetricsRegistry::new());
        let config = FixpointConfig {
            metrics: Some(metrics.clone()),
            ..FixpointConfig::default()
        };
        Database {
            relations: FxHashMap::default(),
            selectors: FxHashMap::default(),
            constructors: FxHashMap::default(),
            signatures: FxHashMap::default(),
            unchecked: FxHashSet::default(),
            config,
            solved: RefCell::new(FxHashMap::default()),
            access: AccessCache::new(Some(metrics.clone())),
            last_stats: RefCell::new(None),
            metrics,
        }
    }

    /// Set the fixpoint strategy (naive vs. semi-naive). The one
    /// setting that can change a result (of a non-monotone system), so
    /// the one that drops the solved memo.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.config.strategy = strategy;
        self.solved.borrow_mut().clear();
    }

    /// Enable or disable index-nested-loop join execution (on by
    /// default). Disabling forces the reference nested-loop evaluator
    /// end to end — the pre-optimization baseline, kept for
    /// differential tests and benchmark comparisons.
    pub fn set_use_indexes(&mut self, on: bool) {
        self.config.use_indexes = on;
    }

    /// Set the worker-thread count (round task dispatch inside a
    /// solve, scan sharding of one-shot query branches outside one):
    /// `0` (the default) resolves through `DC_THREADS` /
    /// available parallelism, `1` pins the exact sequential path, any
    /// other value is used as given (see
    /// [`FixpointConfig::threads`]). Results are identical for every
    /// setting; only wall-clock time changes.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// Attach (or, with `None`, remove) a resource budget governing
    /// every solve and top-level query evaluation: wall-clock deadline,
    /// materialised-tuple ceiling, round ceiling, and/or a cooperative
    /// [`dc_governor::CancelToken`]. The budget is armed (clock
    /// captured) per solve. A tripped budget aborts *atomically* — the
    /// database is left at its pre-solve state, and the structured
    /// [`dc_governor::SolveError`] carries the only trace of the
    /// aborted work.
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.config.budget = budget;
    }

    /// Current fixpoint configuration.
    pub fn config(&self) -> &FixpointConfig {
        &self.config
    }

    /// Mutable fixpoint configuration (drops the solved memo: the
    /// caller may change the strategy through it).
    pub fn config_mut(&mut self) -> &mut FixpointConfig {
        self.solved.borrow_mut().clear();
        &mut self.config
    }

    /// Drop the memo of solved constructor applications *and* every
    /// cached access structure. Mutations drop what they must by
    /// themselves; benchmarks call this to measure cold evaluations.
    pub fn clear_solved_cache(&self) {
        self.solved.borrow_mut().clear();
        self.access.retain(&[]);
    }

    /// Run a mutation on relation `rel`. Iff it changed the relation —
    /// the storage id moved; a duplicate insert or a rejected tuple
    /// leaves it alone — the structures cached about the old value are
    /// forgotten and the solved memo is dropped. Nothing else is ever
    /// invalidated by hand.
    fn mutate<T>(
        &mut self,
        rel: &str,
        f: impl FnOnce(&mut Relation) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let r = self
            .relations
            .get_mut(rel)
            .ok_or_else(|| CoreError::Unknown {
                kind: "relation",
                name: rel.to_string(),
            })?;
        let old = r.storage_id();
        let out = f(r);
        if r.storage_id() != old {
            self.access.forget(old);
            self.solved.borrow_mut().clear();
        }
        out
    }

    // ------------------------------------------------------------------
    // Relations
    // ------------------------------------------------------------------

    /// Declare a relation variable (`VAR Infront: infrontrel`).
    pub fn create_relation(
        &mut self,
        name: impl Into<Name>,
        schema: Schema,
    ) -> Result<(), CoreError> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(CoreError::Duplicate {
                kind: "relation",
                name,
            });
        }
        self.relations.insert(name, Relation::new(schema));
        Ok(())
    }

    /// Insert one tuple (schema- and key-checked).
    pub fn insert(&mut self, rel: &str, tuple: Tuple) -> Result<bool, CoreError> {
        self.mutate(rel, |r| Ok(r.insert(tuple)?))
    }

    /// Insert many tuples; returns how many were new. Tuples before a
    /// rejected one stay inserted.
    pub fn insert_all<I: IntoIterator<Item = Tuple>>(
        &mut self,
        rel: &str,
        tuples: I,
    ) -> Result<usize, CoreError> {
        self.mutate(rel, |r| {
            let mut n = 0;
            for t in tuples {
                if r.insert(t)? {
                    n += 1;
                }
            }
            Ok(n)
        })
    }

    /// Borrow a relation's current value.
    pub fn relation_ref(&self, name: &str) -> Result<&Relation, CoreError> {
        self.relations.get(name).ok_or_else(|| CoreError::Unknown {
            kind: "relation",
            name: name.to_string(),
        })
    }

    /// Whole-relation assignment (`rel := rex`, §2.2): key-checked.
    pub fn assign(&mut self, rel: &str, source: &Relation) -> Result<(), CoreError> {
        self.mutate(rel, |r| Ok(r.assign(source)?))
    }

    /// Assignment through a selected relation variable
    /// (`rel[selector(args)] := rex`, §2.3): raises
    /// [`CoreError::SelectorViolation`] if any source tuple fails the
    /// selector predicate, leaving the target untouched.
    pub fn assign_selected(
        &mut self,
        rel: &str,
        selector: &str,
        args: &[Value],
        source: &Relation,
    ) -> Result<(), CoreError> {
        let sel = self
            .selectors
            .get(selector)
            .ok_or_else(|| CoreError::Unknown {
                kind: "selector",
                name: selector.to_string(),
            })?
            .clone();
        // Guard against a missing target before evaluating.
        if !self.relations.contains_key(rel) {
            return Err(CoreError::Unknown {
                kind: "relation",
                name: rel.to_string(),
            });
        }
        let mut staged = Relation::new(self.relations[rel].schema().clone());
        sel.guard_assign(&mut staged, source, args, self)?;
        self.mutate(rel, |r| {
            *r = staged;
            Ok(())
        })
    }

    /// Names of all relations, sorted (deterministic listing).
    pub fn relation_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.relations.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    // ------------------------------------------------------------------
    // Selectors
    // ------------------------------------------------------------------

    /// Define a selector (type-checked at registration, §2.3).
    pub fn define_selector(
        &mut self,
        def: SelectorDef,
        for_schema: Schema,
    ) -> Result<(), CoreError> {
        if self.selectors.contains_key(&def.name) {
            return Err(CoreError::Duplicate {
                kind: "selector",
                name: def.name,
            });
        }
        let sel = Selector::new(def, for_schema, self)?;
        self.selectors.insert(sel.name().to_string(), sel);
        Ok(())
    }

    /// Look up a selector.
    pub fn selector_ref(&self, name: &str) -> Result<&Selector, CoreError> {
        self.selectors.get(name).ok_or_else(|| CoreError::Unknown {
            kind: "selector",
            name: name.to_string(),
        })
    }

    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Define a single constructor with the §3.3 positivity check.
    pub fn define_constructor(&mut self, c: Constructor) -> Result<(), CoreError> {
        self.define_constructor_group(vec![c], false)
    }

    /// Define a group of mutually recursive constructors: all
    /// signatures are registered before any body is validated, so the
    /// bodies may reference each other (§3.1's `ahead`/`above`).
    pub fn define_constructors(&mut self, cs: Vec<Constructor>) -> Result<(), CoreError> {
        self.define_constructor_group(cs, false)
    }

    /// Define a constructor *without* the positivity check — the
    /// paper's discussion path for `strange` (§3.3). Such constructors
    /// force the naive strategy and may fail at evaluation time with
    /// [`EvalError::NonConvergent`] (detected period-2 oscillation) or
    /// [`dc_governor::SolveError::Diverged`] (round allowance exhausted
    /// without convergence).
    pub fn define_constructor_unchecked(&mut self, c: Constructor) -> Result<(), CoreError> {
        let name = c.name.clone();
        self.define_constructor_group(vec![c], true)?;
        self.unchecked.insert(name);
        Ok(())
    }

    fn define_constructor_group(
        &mut self,
        cs: Vec<Constructor>,
        skip_positivity: bool,
    ) -> Result<(), CoreError> {
        for c in &cs {
            if self.constructors.contains_key(&c.name) {
                return Err(CoreError::Duplicate {
                    kind: "constructor",
                    name: c.name.clone(),
                });
            }
        }
        // Register all signatures first (mutual recursion), then
        // validate; roll back on failure.
        let names: Vec<Name> = cs.iter().map(|c| c.name.clone()).collect();
        for c in &cs {
            self.signatures.insert(c.name.clone(), c.signature());
        }
        for c in &cs {
            if let Err(e) = c.validate(self, skip_positivity) {
                for n in &names {
                    self.signatures.remove(n);
                }
                return Err(e);
            }
        }
        for c in cs {
            self.constructors.insert(c.name.clone(), c);
        }
        Ok(())
    }

    /// Look up a constructor definition.
    pub fn constructor_ref(&self, name: &str) -> Result<&Constructor, CoreError> {
        self.constructors
            .get(name)
            .ok_or_else(|| CoreError::Unknown {
                kind: "constructor",
                name: name.to_string(),
            })
    }

    /// Names of all constructors, sorted.
    pub fn constructor_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.constructors.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Type-check and evaluate a query expression.
    pub fn eval(&self, query: &RangeExpr) -> Result<Relation, CoreError> {
        typeck::check_range(query, self)?;
        Ok(self.evaluator().eval(query)?)
    }

    /// Evaluate without static checking (used by the optimizer's
    /// differential tests, where the expression is machine-generated).
    pub fn eval_unchecked(&self, query: &RangeExpr) -> Result<Relation, CoreError> {
        Ok(self.evaluator().eval(query)?)
    }

    /// An evaluator over this database honouring the index and
    /// parallel-execution configuration.
    pub fn evaluator(&self) -> Evaluator<'_> {
        let mut ev = Evaluator::new(self).with_metrics(self.metrics.clone());
        if let Some(budget) = &self.config.budget {
            // Top-level query governance: arm the configured budget for
            // this evaluation. (Constructor applications dispatched
            // through `apply_constructor` arm their own per-solve
            // meter, so a solve's deadline is never pre-aged by query
            // time spent before it.)
            ev = ev.with_meter(budget.meter());
        }
        if self.config.use_indexes {
            ev.with_threads(dc_exec::thread_count(self.config.threads))
                .with_parallel_threshold(self.config.parallel_threshold)
        } else {
            ev.force_nested_loop()
        }
    }

    /// Type-check and evaluate a query, returning the planner's typed
    /// decision trace rendered as an `EXPLAIN` tree instead of the
    /// result relation: the chosen access path per branch (probe vs.
    /// scan, with the statistics behind the ordering), quantifier-plan
    /// demotions, and decorrelation refusals, each with its reason.
    pub fn explain(&self, query: &RangeExpr) -> Result<Explanation, CoreError> {
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

    /// The database's metrics registry — counters for solves, rounds,
    /// delta tuples, and planner decisions, recorded across every query
    /// and solve since creation. Snapshot with
    /// [`dc_trace::metrics::MetricsRegistry::snapshot`].
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.metrics.clone()
    }

    /// Statistics of the most recent fixpoint run, if any.
    pub fn last_fixpoint_stats(&self) -> Option<FixpointStats> {
        self.last_stats.borrow().clone()
    }

    /// Decompose the database into its definition and data parts,
    /// dropping the solved memo and the access cache. This is the
    /// snapshot-publication hook the serving layer (`dc-server`) uses
    /// to take over a fully defined database: the parts are plain
    /// `Send + Sync` values from which the server builds its first
    /// immutable snapshot, which starts a cache of its own.
    pub fn into_parts(self) -> DatabaseParts {
        DatabaseParts {
            relations: self.relations,
            selectors: self.selectors,
            constructors: self.constructors,
            signatures: self.signatures,
            unchecked: self.unchecked,
            config: self.config,
        }
    }
}

/// The definition + data parts of a [`Database`], with the per-database
/// caches stripped (see [`Database::into_parts`]). All fields are plain
/// owned values: the serving layer moves them behind `Arc`s of its own.
pub struct DatabaseParts {
    /// Base relation variables and their current values.
    pub relations: FxHashMap<Name, Relation>,
    /// Registered selectors.
    pub selectors: FxHashMap<Name, Selector>,
    /// Registered constructors.
    pub constructors: FxHashMap<Name, Constructor>,
    /// Constructor signatures (for static checking).
    pub signatures: FxHashMap<Name, ConstructorSig>,
    /// Constructors registered through the unchecked API; they force
    /// the naive strategy.
    pub unchecked: FxHashSet<Name>,
    /// The fixpoint configuration the database was running with.
    pub config: FixpointConfig,
}

impl ConstructorSource for Database {
    fn base_catalog(&self) -> &dyn Catalog {
        self
    }

    fn constructor_def(&self, name: &str) -> Result<Constructor, EvalError> {
        self.constructors
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))
    }
}

impl Catalog for Database {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        self.relations
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))
    }

    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.selectors
            .get(name)
            .map(|s| s.def())
            .ok_or_else(|| EvalError::UnknownSelector(name.to_string()))
    }

    fn access(&self) -> Option<&AccessCache> {
        Some(&self.access)
    }

    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        let key = AppKey::new(name, &base, &args, &scalar_args);
        if let Some(hit) = self.solved.borrow().get(&key) {
            return Ok(hit.clone());
        }
        // Non-positive definitions require the (always sound) naive
        // strategy; differential evaluation assumes monotone growth.
        let mut cfg = self.config.clone();
        if self.unchecked.contains(name) {
            cfg.strategy = Strategy::Naive;
        }
        // The solve runs behind a panic-isolation boundary: a panic
        // anywhere inside (evaluator, planner, a bug in a body) becomes
        // a structured `WorkerPanic` instead of tearing the process
        // down. `AssertUnwindSafe` is sound here because the solve
        // never mutates `self.relations`, and the access structures it
        // builds go into a cache of its own. Together with the
        // success-only inserts below, this makes every abort atomic:
        // the database is observationally at its pre-solve snapshot.
        let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fixpoint::solve(self, name, base, args, scalar_args, &cfg)
        }));
        let (value, stats) = match solved {
            Ok(result) => result?,
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "opaque panic payload".to_string()
                };
                return Err(EvalError::Solve(SolveError::WorkerPanic {
                    message,
                    diag: SolveDiag::default(),
                }));
            }
        };
        *self.last_stats.borrow_mut() = Some(stats);
        self.solved.borrow_mut().insert(key, value.clone());
        Ok(value)
    }
}

impl SchemaCatalog for Database {
    fn relation_schema(&self, name: &str) -> Result<Schema, EvalError> {
        self.relations
            .get(name)
            .map(|r| r.schema().clone())
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))
    }

    fn selector_def(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.selectors
            .get(name)
            .map(|s| s.def())
            .ok_or_else(|| EvalError::UnknownSelector(name.to_string()))
    }

    fn constructor_sig(&self, name: &str) -> Result<&ConstructorSig, EvalError> {
        self.signatures
            .get(name)
            .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::ast::{Branch, SetFormer};
    use dc_calculus::builder::*;
    use dc_value::{tuple, Domain};

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn aheadrel() -> Schema {
        Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)])
    }

    fn ahead_ctor() -> Constructor {
        Constructor {
            name: "ahead".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: aheadrel(),
            body: SetFormer {
                branches: vec![
                    Branch::each("r", rel("Rel"), tru()),
                    Branch::projecting(
                        vec![attr("f", "front"), attr("b", "tail")],
                        vec![
                            ("f".into(), rel("Rel")),
                            ("b".into(), rel("Rel").construct("ahead", vec![])),
                        ],
                        eq(attr("f", "back"), attr("b", "head")),
                    ),
                ],
            },
        }
    }

    fn scene_db() -> Database {
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.insert_all(
            "Infront",
            vec![
                tuple!["vase", "table"],
                tuple!["table", "chair"],
                tuple!["chair", "wall"],
            ],
        )
        .unwrap();
        db.define_constructor(ahead_ctor()).unwrap();
        db
    }

    #[test]
    fn end_to_end_constructed_query() {
        let db = scene_db();
        // Infront{ahead}
        let out = db.eval(&rel("Infront").construct("ahead", vec![])).unwrap();
        // closure of a 3-chain: 3+2+1 = 6
        assert_eq!(out.len(), 6);
        assert!(out.contains(&tuple!["vase", "wall"]));
        let stats = db.last_fixpoint_stats().unwrap();
        assert_eq!(stats.equations, 1);
        assert!(stats.iterations >= 2);
    }

    #[test]
    fn selector_then_constructor_composition() {
        let mut db = scene_db();
        db.define_selector(
            SelectorDef {
                name: "hidden_by".into(),
                element_var: "r".into(),
                params: vec![("Obj".into(), Domain::Str)],
                predicate: eq(attr("r", "front"), param("Obj")),
            },
            infrontrel(),
        )
        .unwrap();
        // The paper's `Infront[hidden_by("table")]{ahead}`: all objects
        // behind the table.
        let q = rel("Infront")
            .select("hidden_by", vec![cnst("table")])
            .construct("ahead", vec![]);
        let out = db.eval(&q).unwrap();
        assert_eq!(out.sorted_tuples(), vec![tuple!["table", "chair"]]);
    }

    #[test]
    fn positivity_enforced_on_definition() {
        let mut db = Database::new();
        db.create_relation("R", infrontrel()).unwrap();
        let nonsense = Constructor {
            name: "nonsense".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: infrontrel(),
            body: SetFormer {
                branches: vec![Branch::each(
                    "r",
                    rel("Rel"),
                    not(member("r", rel("Rel").construct("nonsense", vec![]))),
                )],
            },
        };
        let err = db.define_constructor(nonsense.clone()).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Eval(EvalError::PositivityViolation(_))
        ));
        // Rolled back: the signature is gone too.
        assert!(db.constructor_sig("nonsense").is_err());
        // Unchecked registration is allowed.
        db.define_constructor_unchecked(nonsense).unwrap();
        assert!(db.constructor_ref("nonsense").is_ok());
    }

    #[test]
    fn unchecked_constructor_forces_naive_and_detects_oscillation() {
        let mut db = Database::new();
        db.set_strategy(Strategy::SemiNaive);
        let anyrel = Schema::of(&[("x", Domain::Int)]);
        db.create_relation("R", anyrel.clone()).unwrap();
        db.insert("R", tuple![1i64]).unwrap();
        let nonsense = Constructor {
            name: "nonsense".into(),
            base_param: ("Rel".into(), anyrel.clone()),
            rel_params: vec![],
            scalar_params: vec![],
            result: anyrel,
            body: SetFormer {
                branches: vec![Branch::each(
                    "r",
                    rel("Rel"),
                    not(member("r", rel("Rel").construct("nonsense", vec![]))),
                )],
            },
        };
        db.define_constructor_unchecked(nonsense).unwrap();
        let err = db
            .eval(&rel("R").construct("nonsense", vec![]))
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Eval(EvalError::NonConvergent { .. })
        ));
    }

    #[test]
    fn memoization_and_invalidation() {
        let mut db = scene_db();
        let q = rel("Infront").construct("ahead", vec![]);
        let a = db.eval(&q).unwrap();
        assert_eq!(db.solved.borrow().len(), 1);
        // Cached: same result.
        let b = db.eval(&q).unwrap();
        assert_eq!(a, b);
        // Mutation invalidates; new tuple extends the closure.
        db.insert("Infront", tuple!["wall", "window"]).unwrap();
        assert!(db.solved.borrow().is_empty());
        let c = db.eval(&q).unwrap();
        assert!(c.len() > b.len());
        assert!(c.contains(&tuple!["vase", "window"]));
    }

    #[test]
    fn only_effective_mutations_invalidate_and_only_what_changed() {
        let mut db = scene_db();
        db.create_relation("Other", infrontrel()).unwrap();
        db.insert("Other", tuple!["a", "b"]).unwrap();
        let index_of = |db: &Database, name: &str| {
            let r = db.relation_ref(name).unwrap();
            db.access.index(r, &[0]).unwrap()
        };
        let closure_q = rel("Infront").construct("ahead", vec![]);
        let two_hop = set_former(vec![Branch::projecting(
            vec![attr("f", "front"), attr("b", "back")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")),
        )]);
        let closure = db.eval(&closure_q).unwrap();
        assert_eq!(db.eval(&two_hop).unwrap().len(), 2);
        let (infront, other) = (index_of(&db, "Infront"), index_of(&db, "Other"));
        let runs = db.metrics().snapshot().solve_runs;
        // A duplicate tuple, a rejected tuple, an unknown relation, and
        // settings that cannot change a result invalidate nothing.
        assert!(!db.insert("Infront", tuple!["vase", "table"]).unwrap());
        assert!(db.insert("Infront", tuple!["vase"]).is_err());
        assert!(db.insert("Nowhere", tuple!["a", "b"]).is_err());
        db.set_threads(1);
        db.set_budget(None);
        db.set_use_indexes(true);
        assert_eq!(db.eval(&closure_q).unwrap(), closure);
        assert_eq!(db.metrics().snapshot().solve_runs, runs);
        assert!(Arc::ptr_eq(&infront, &index_of(&db, "Infront")));
        // An effective mutation of `Infront` leaves `Other`'s index
        // alone and gets `Infront` a new, correct one.
        assert!(db.insert("Infront", tuple!["wall", "window"]).unwrap());
        assert!(Arc::ptr_eq(&other, &index_of(&db, "Other")));
        let rebuilt = index_of(&db, "Infront");
        assert!(!Arc::ptr_eq(&infront, &rebuilt));
        assert_eq!(rebuilt.len(), 4);
        let (hops, grown) = (db.eval(&two_hop).unwrap(), db.eval(&closure_q).unwrap());
        assert_eq!(db.metrics().snapshot().solve_runs, runs + 1);
        db.set_use_indexes(false);
        db.clear_solved_cache();
        assert_eq!(db.eval(&two_hop).unwrap(), hops);
        assert_eq!(db.eval(&closure_q).unwrap(), grown);
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let mut db = scene_db();
        assert!(matches!(
            db.create_relation("Infront", infrontrel()),
            Err(CoreError::Duplicate { .. })
        ));
        assert!(matches!(
            db.define_constructor(ahead_ctor()),
            Err(CoreError::Duplicate { .. })
        ));
    }

    #[test]
    fn queries_are_type_checked() {
        let db = scene_db();
        let bad = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            eq(attr("r", "nosuch"), cnst("x")),
        )]);
        assert!(db.eval(&bad).is_err());
    }

    #[test]
    fn assignment_and_guarded_assignment() {
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.define_selector(
            SelectorDef {
                name: "from_table".into(),
                element_var: "r".into(),
                params: vec![],
                predicate: eq(attr("r", "front"), cnst("table")),
            },
            infrontrel(),
        )
        .unwrap();
        let good = Relation::from_tuples(infrontrel(), vec![tuple!["table", "chair"]]).unwrap();
        db.assign_selected("Infront", "from_table", &[], &good)
            .unwrap();
        assert_eq!(db.relation_ref("Infront").unwrap().len(), 1);

        let bad = Relation::from_tuples(infrontrel(), vec![tuple!["vase", "chair"]]).unwrap();
        let err = db
            .assign_selected("Infront", "from_table", &[], &bad)
            .unwrap_err();
        assert!(matches!(err, CoreError::SelectorViolation { .. }));
        // Target untouched by the failed assignment.
        assert_eq!(db.relation_ref("Infront").unwrap().len(), 1);

        // Plain assignment replaces.
        db.assign("Infront", &bad).unwrap();
        assert!(db
            .relation_ref("Infront")
            .unwrap()
            .contains(&tuple!["vase", "chair"]));
    }

    #[test]
    fn mutual_recursion_via_group_definition() {
        let ontoprel = Schema::of(&[("top", Domain::Str), ("base", Domain::Str)]);
        let aboverel = Schema::of(&[("high", Domain::Str), ("low", Domain::Str)]);
        let ahead_m = Constructor {
            name: "ahead".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![("Ontop".into(), ontoprel.clone())],
            scalar_params: vec![],
            result: aheadrel(),
            body: SetFormer {
                branches: vec![
                    Branch::each("r", rel("Rel"), tru()),
                    Branch::projecting(
                        vec![attr("r", "front"), attr("ah", "tail")],
                        vec![
                            ("r".into(), rel("Rel")),
                            (
                                "ah".into(),
                                rel("Rel").construct("ahead", vec![rel("Ontop")]),
                            ),
                        ],
                        eq(attr("r", "back"), attr("ah", "head")),
                    ),
                    Branch::projecting(
                        vec![attr("r", "front"), attr("ab", "low")],
                        vec![
                            ("r".into(), rel("Rel")),
                            (
                                "ab".into(),
                                rel("Ontop").construct("above", vec![rel("Rel")]),
                            ),
                        ],
                        eq(attr("r", "back"), attr("ab", "high")),
                    ),
                ],
            },
        };
        let above_m = Constructor {
            name: "above".into(),
            base_param: ("Rel".into(), ontoprel.clone()),
            rel_params: vec![("Infront".into(), infrontrel())],
            scalar_params: vec![],
            result: aboverel,
            body: SetFormer {
                branches: vec![
                    Branch::each("r", rel("Rel"), tru()),
                    Branch::projecting(
                        vec![attr("r", "top"), attr("ab", "low")],
                        vec![
                            ("r".into(), rel("Rel")),
                            (
                                "ab".into(),
                                rel("Rel").construct("above", vec![rel("Infront")]),
                            ),
                        ],
                        eq(attr("r", "base"), attr("ab", "high")),
                    ),
                    Branch::projecting(
                        vec![attr("r", "top"), attr("ah", "tail")],
                        vec![
                            ("r".into(), rel("Rel")),
                            (
                                "ah".into(),
                                rel("Infront").construct("ahead", vec![rel("Rel")]),
                            ),
                        ],
                        eq(attr("r", "base"), attr("ah", "head")),
                    ),
                ],
            },
        };
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.create_relation("Ontop", ontoprel).unwrap();
        db.insert("Infront", tuple!["table", "chair"]).unwrap();
        db.insert("Ontop", tuple!["vase", "table"]).unwrap();
        // Single definition of a mutually recursive constructor fails
        // (peer signature unknown)…
        assert!(db.define_constructor(ahead_m.clone()).is_err());
        // …but the group form succeeds.
        db.define_constructors(vec![ahead_m, above_m]).unwrap();

        // Ontop{above(Infront)} — the vase (on the table, which is in
        // front of the chair) ends up above/ahead of the chair.
        let out = db
            .eval(&rel("Ontop").construct("above", vec![rel("Infront")]))
            .unwrap();
        assert!(out.contains(&tuple!["vase", "chair"]));
        assert_eq!(db.last_fixpoint_stats().unwrap().equations, 2);
    }
}
