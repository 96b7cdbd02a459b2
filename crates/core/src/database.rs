//! The database façade: a typed catalog of relations, selectors, and
//! constructors, implementing [`Catalog`] so that queries mixing base,
//! selected, and constructed relations evaluate transparently.
//!
//! This is the engine-level stand-in for the DBPL programming
//! environment of §2: relation variables with key constraints, selector
//! definitions with registration-time type checking, constructor
//! definitions with the §3.3 positivity check, and guarded assignment.

use std::sync::Arc;

use dc_calculus::ast::{Name, SelectorDef};
use dc_calculus::typeck::{self, ConstructorSig, SchemaCatalog};
use dc_calculus::{AccessCache, Catalog, EvalError, Evaluator, Explanation, RangeExpr};
use dc_governor::Budget;
use dc_relation::Relation;
use dc_trace::metrics::{Gauge, MetricsRegistry};
use dc_value::{FxHashMap, Schema, Sym, Tuple, Value};

use crate::catalog::{self, Defs, SolvedMemo};
use crate::compile;
use crate::constructor::Constructor;
use crate::error::CoreError;
use crate::fixpoint::{FixpointConfig, Strategy};
use crate::selector::Selector;

/// An in-memory deductive database: base relations + rules
/// (constructors) + constraints (selectors).
pub struct Database {
    relations: FxHashMap<Name, Relation>,
    pub(crate) defs: Defs,
    /// Memo of solved applications over the current relations, dropped
    /// whenever any relation changes (and when the strategy does).
    solved: SolvedMemo,
    /// Indexes over the base relations, served to every evaluator through
    /// [`Catalog::access`]. Keyed by storage identity, so a changed
    /// relation simply misses; [`Database::mutate`] forgets the id it
    /// had before.
    access: AccessCache,
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
        let defs = Defs {
            config: FixpointConfig {
                metrics: Some(metrics.clone()),
                ..FixpointConfig::default()
            },
            ..Defs::default()
        };
        Database {
            relations: FxHashMap::default(),
            defs,
            solved: SolvedMemo::default(),
            access: AccessCache::new(Some(metrics.clone())),
            metrics,
        }
    }

    /// Set the reference strategy override. `Naive` runs every solve
    /// naive; `SemiNaive` (the default) leaves the choice to the
    /// solver, which runs a system naive exactly when it can reach a
    /// constructor registered through
    /// [`Database::define_constructor_unchecked`], and semi-naive
    /// otherwise. Drops the solved memo (benchmarks compare the two).
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.config_mut().strategy = strategy;
    }

    /// Enable or disable index-nested-loop join execution (on by
    /// default). Disabling forces the reference nested-loop evaluator
    /// end to end — the pre-optimization baseline, kept for
    /// differential tests and benchmark comparisons.
    pub fn set_use_indexes(&mut self, on: bool) {
        self.defs.config.use_indexes = on;
    }

    /// Set the worker-thread count for a solve's round task dispatch:
    /// `0` (the default) resolves through `DC_THREADS` /
    /// available parallelism, `1` pins the exact sequential path, any
    /// other value is used as given (see
    /// [`FixpointConfig::threads`]). Results are identical for every
    /// setting; only wall-clock time changes.
    pub fn set_threads(&mut self, threads: usize) {
        self.defs.config.threads = threads;
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
        self.defs.config.budget = budget;
    }

    /// Current fixpoint configuration.
    pub fn config(&self) -> &FixpointConfig {
        &self.defs.config
    }

    /// Mutable fixpoint configuration (drops the solved memo: the
    /// caller may change the strategy through it).
    pub fn config_mut(&mut self) -> &mut FixpointConfig {
        self.solved.clear();
        &mut self.defs.config
    }

    /// Drop the memo of solved constructor applications *and* every
    /// cached access structure. Mutations drop what they must by
    /// themselves; benchmarks call this to measure cold evaluations.
    pub fn clear_solved_cache(&self) {
        self.solved.clear();
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
            self.solved.clear();
        }
        record_interned(&self.metrics);
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
        let sel = self.selector_ref(selector)?.clone();
        // Guard against a missing target before evaluating.
        let mut staged = Relation::new(self.relation_ref(rel)?.schema().clone());
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
        if self.defs.selectors.contains_key(&def.name) {
            return Err(CoreError::Duplicate {
                kind: "selector",
                name: def.name,
            });
        }
        let sel = Selector::new(def, for_schema, self)?;
        self.defs.selectors.insert(sel.name().to_string(), sel);
        Ok(())
    }

    /// Look up a selector.
    pub fn selector_ref(&self, name: &str) -> Result<&Selector, CoreError> {
        self.defs
            .selectors
            .get(name)
            .ok_or_else(|| CoreError::Unknown {
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
    /// paper's discussion path for `strange` (§3.3). Every solve that
    /// can reach such a constructor — applied directly, or through any
    /// checked constructor or selector that ranges over it — runs
    /// naive, and may fail at evaluation time with
    /// [`EvalError::NonConvergent`] (detected period-2 oscillation) or
    /// [`dc_governor::SolveError::Diverged`] (round allowance exhausted
    /// without convergence).
    pub fn define_constructor_unchecked(&mut self, c: Constructor) -> Result<(), CoreError> {
        let name = c.name.clone();
        self.define_constructor_group(vec![c], true)?;
        self.defs.unchecked.insert(name);
        Ok(())
    }

    fn define_constructor_group(
        &mut self,
        cs: Vec<Constructor>,
        skip_positivity: bool,
    ) -> Result<(), CoreError> {
        for c in &cs {
            if self.defs.constructors.contains_key(&c.name) {
                return Err(CoreError::Duplicate {
                    kind: "constructor",
                    name: c.name.clone(),
                });
            }
        }
        // Register all signatures first (mutual recursion), then
        // validate; roll back on failure.
        for c in &cs {
            self.defs.signatures.insert(c.name.clone(), c.signature());
        }
        for c in &cs {
            if let Err(e) = c.validate(self, skip_positivity) {
                for c in &cs {
                    self.defs.signatures.remove(&c.name);
                }
                return Err(e);
            }
        }
        for c in cs {
            self.defs.constructors.insert(c.name.clone(), c);
        }
        Ok(())
    }

    /// Look up a constructor definition.
    pub fn constructor_ref(&self, name: &str) -> Result<&Constructor, CoreError> {
        self.defs
            .constructors
            .get(name)
            .ok_or_else(|| CoreError::Unknown {
                kind: "constructor",
                name: name.to_string(),
            })
    }

    /// Names of all constructors, sorted.
    pub fn constructor_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.defs.constructors.keys().map(String::as_str).collect();
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

    /// Evaluate without static checking (used by the §4 rewrites' unit
    /// tests, where the expression is machine-generated).
    pub fn eval_unchecked(&self, query: &RangeExpr) -> Result<Relation, CoreError> {
        Ok(self.evaluator().eval(query)?)
    }

    /// An evaluator over this database honouring the index
    /// configuration. A configured budget is armed
    /// for this evaluation; constructor applications it dispatches arm
    /// their own per-solve meter, so a solve's deadline is never
    /// pre-aged by query time spent before it.
    pub fn evaluator(&self) -> Evaluator<'_> {
        let config = &self.defs.config;
        config.evaluator(self, config.budget.as_ref().map(Budget::meter))
    }

    /// The planner's typed decision trace for `query`, rendered as an
    /// `EXPLAIN` tree: a static plan preview for a named application,
    /// the trace of its evaluation for any other query (see
    /// [`catalog::explain`]).
    pub fn explain(&self, query: &RangeExpr) -> Result<Explanation, CoreError> {
        Ok(catalog::explain(&self.defs, self, self.evaluator(), query)?)
    }

    /// §4's query compilation ([`compile`]): the bound-argument capture
    /// rule ([`compile::bind_first_attribute`]), defining the seeded
    /// constructor it names unless an earlier call did, then range
    /// nesting ([`compile::nest`]). The result is equivalent to `query`
    /// and is what to hand to [`Database::eval`] /
    /// [`Database::explain`].
    pub fn rewrite(&mut self, query: &RangeExpr) -> Result<RangeExpr, CoreError> {
        let query = match compile::bind_first_attribute(&self.defs, query) {
            Some((seeded, range)) => {
                if !self.defs.constructors.contains_key(&seeded.name) {
                    self.define_constructor(seeded)?;
                }
                range
            }
            None => query.clone(),
        };
        Ok(compile::nest(&self.defs, self, &query)?)
    }

    /// The database's metrics registry — counters for solves, rounds,
    /// delta tuples, solved-memo and index-cache traffic, and planner
    /// decisions, recorded across every query and solve since creation.
    /// Snapshot with
    /// [`dc_trace::metrics::MetricsRegistry::snapshot`].
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.metrics.clone()
    }

    /// Hand the definitions and the relations over, dropping the solved
    /// memo and the access cache: the hook through which the serving
    /// layer (`dc-server`) takes over a fully defined database and
    /// publishes its first snapshot, which starts caches of its own.
    pub fn into_parts(self) -> (Defs, FxHashMap<Name, Relation>) {
        (self.defs, self.relations)
    }
}

/// Publish the process-global string interner's size ([`Sym::interned`])
/// as the `interned_strings` / `interned_bytes` gauges of `metrics`.
/// Owners call it after each mutation, solve and commit publish.
pub fn record_interned(metrics: &MetricsRegistry) {
    let (strings, bytes) = Sym::interned();
    metrics.set_gauge(Gauge::InternedStrings, strings as u64);
    metrics.set_gauge(Gauge::InternedBytes, bytes as u64);
}

impl Catalog for Database {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        self.relations
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))
    }

    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.defs.selector(name)
    }

    fn access(&self) -> Option<&AccessCache> {
        Some(&self.access)
    }

    /// The solve never mutates `self.relations` and builds its access
    /// structures in a cache of its own; with the memo's success-only
    /// insert, every abort (panics included — the solver catches them)
    /// leaves the database at its pre-solve state.
    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        self.solved.apply(
            &self.defs,
            self,
            name,
            base,
            args,
            scalar_args,
            &self.defs.config,
        )
    }
}

impl SchemaCatalog for Database {
    fn relation_schema(&self, name: &str) -> Result<Schema, EvalError> {
        Ok(Catalog::relation(self, name)?.schema().clone())
    }

    fn selector_def(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.defs.selector(name)
    }

    fn constructor_sig(&self, name: &str) -> Result<&ConstructorSig, EvalError> {
        self.defs.constructor_sig(name)
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
        let m = db.metrics().snapshot();
        assert_eq!(m.solve_equations, 1);
        assert!(m.solve_rounds >= 2);
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
        assert_eq!(db.solved.len(), 1);
        // Cached: same result.
        let b = db.eval(&q).unwrap();
        assert_eq!(a, b);
        // Mutation invalidates; new tuple extends the closure.
        db.insert("Infront", tuple!["wall", "window"]).unwrap();
        assert!(db.solved.is_empty());
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
        assert_eq!(db.metrics().snapshot().solve_equations, 2);
    }
}
