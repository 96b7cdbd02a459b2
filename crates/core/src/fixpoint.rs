//! The least-fixpoint semantics of constructor application (§3.2).
//!
//! Given an application `Actrel{c(args)}`, the engine instantiates the
//! system of equations the paper describes: every (possibly mutually)
//! recursive constructor application reachable from it becomes one
//! equation variable `applyⱼ`, identified by its *actual values* —
//! constructor name, base relation value, relation-argument values, and
//! scalar-argument values ([`AppKey`]). All variables start at ∅ and the
//! system iterates
//!
//! ```text
//! applyᵢᵏ⁺¹ = gᵢ(apply₀ᵏ, …, applyₗᵏ)        (Jacobi / simultaneous)
//! ```
//!
//! until nothing changes — the paper's
//! `REPEAT Oldahead := Ahead; … UNTIL Ahead = Oldahead` generalised to
//! `m` equations, exactly as in the mutual-recursion loop of §3.1.
//!
//! Two strategies are provided:
//!
//! * [`Strategy::Naive`] — each round fully re-evaluates each body; the
//!   literal reading of the paper's loop.
//! * [`Strategy::SemiNaive`] — differential evaluation: branches whose
//!   recursive references occur only as whole binding ranges are
//!   re-evaluated with one recursive range restricted to the previous
//!   round's *delta* (per recursive position), which turns the O(n)
//!   redundant rediscovery of the naive loop into work proportional to
//!   new tuples. Branches with recursive references in other positions
//!   (e.g. under quantifiers) fall back to naive re-evaluation — the
//!   differential rewrite is applied only where it is sound.
//!
//! Convergence: positive (monotone) systems reach the LFP in finitely
//! many steps (§3.3 lemma + Tarski). For non-positive systems admitted
//! through the unchecked API the engine detects period-2 oscillation
//! (the paper's `nonsense`) and reports [`EvalError::NonConvergent`];
//! genuinely convergent non-monotone systems (the paper's `strange`)
//! simply converge.
//!
//! # Snapshot rounds
//!
//! The Jacobi update makes every round embarrassingly parallel: all
//! equation bodies of round `k+1` read only round-`k` state. The solver
//! exploits that by preparing each round's branch evaluations as
//! self-contained tasks, freezing an immutable catalog snapshot (the
//! private `snapshot` submodule), and
//! handing the tasks to [`dc_exec::run_tasks`] — cross-branch *and*
//! cross-equation parallelism, impure branches included (quantifier
//! probes, decorrelated builds: they only need the frozen snapshot).
//! This is the solve's only parallelism: a task never shards its own
//! scan. Each task returns its value plus the
//! constructor applications it met for the first time; the solver
//! replays those single-threaded at the commit site, so registration
//! and delta commits stay serialized and `threads = N` commits
//! relations identical to `threads = 1`. Indexes, statistics, and
//! decorrelated ranges live in the solve's one [`AccessCache`], keyed
//! by storage identity: tasks fill it directly from any thread, and
//! the commit site [`AccessCache::advance`]s each grown equation value.

use std::cell::RefCell;
use std::sync::Arc;

use dc_calculus::ast::{Branch, Formula, Name, RangeExpr, SetFormer};
use dc_calculus::env::Overlay;
use dc_calculus::rewrite;
use dc_calculus::{AccessCache, Catalog, EvalError, Evaluator};
use dc_governor::fail::{self, Site};
use dc_governor::{Budget, Meter, SolveDiag, SolveError};
use dc_relation::{algebra, Relation};
use dc_trace::metrics::{Counter, Histogram, MetricsRegistry};
use dc_trace::SpanKind;
use dc_value::{FxHashMap, FxHashSet, Value};

use crate::constructor::Constructor;

mod snapshot;

use snapshot::{capture_universe, Effect, EvalSnapshot, SnapshotCatalog, Universe};

/// Fixpoint evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Full re-evaluation per round (the paper's REPEAT loop).
    Naive,
    /// Differential (delta-driven) evaluation where sound.
    #[default]
    SemiNaive,
}

/// Configuration of a fixpoint run.
#[derive(Debug, Clone)]
pub struct FixpointConfig {
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// Hard bound on rounds, for non-convergent (unchecked) systems.
    pub max_iterations: usize,
    /// Execute equation bodies with index-nested-loop joins (default).
    /// `false` forces the reference nested-loop evaluator everywhere —
    /// the pre-optimization baseline, kept selectable for differential
    /// tests and benchmark comparisons.
    pub use_indexes: bool,
    /// Worker threads, resolved once per solve through
    /// [`dc_exec::thread_count`]: `0` (the default) means "auto" — the
    /// `DC_THREADS` environment variable if set, otherwise the
    /// machine's available parallelism; `1` is the exact sequential
    /// path; any other value is used as given (up to the pool's cap).
    /// Results are identical for every setting: a round's branch tasks
    /// run on workers against a frozen snapshot, while registration
    /// and delta commits (with the index/statistics maintenance they
    /// carry) stay on the solver thread. Outside a solve, the same
    /// knob sizes the scan shards of a one-shot query branch.
    pub threads: usize,
    /// Scan-side cardinality floor for parallel work (default
    /// [`dc_calculus::PARALLEL_SCAN_THRESHOLD`]): a round is dispatched
    /// to workers when at least two of its tasks clear it, and a
    /// one-shot query branch is sharded when its scan side does.
    /// Differential tests lower it to force the parallel paths on small
    /// inputs.
    pub parallel_threshold: usize,
    /// Resource envelope for each solve, if any. The budget is *armed*
    /// (clock captured) at the start of every solve, so a 10 ms
    /// deadline means 10 ms per solve, not 10 ms since configuration.
    /// A tripped budget aborts atomically with a structured
    /// [`dc_governor::SolveError`]; `None` means unlimited (counters
    /// are still kept and reported through [`FixpointStats`]).
    pub budget: Option<Budget>,
    /// Metrics registry solve-level counters (rounds, delta tuples,
    /// branch dispatch decisions, planner decisions) are recorded
    /// into, if the owner threads one through. `Database` and the
    /// serving layer each install their own; `None` keeps the solver
    /// metric-free (per-solve stats are still returned through
    /// [`FixpointStats`]).
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for FixpointConfig {
    fn default() -> FixpointConfig {
        FixpointConfig {
            strategy: Strategy::SemiNaive,
            max_iterations: 100_000,
            use_indexes: true,
            threads: 0,
            parallel_threshold: dc_calculus::PARALLEL_SCAN_THRESHOLD,
            budget: None,
            metrics: None,
        }
    }
}

/// Statistics of a completed fixpoint run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixpointStats {
    /// Strategy used.
    pub strategy: Strategy,
    /// Number of iteration rounds until convergence.
    pub iterations: usize,
    /// Number of equations in the instantiated system.
    pub equations: usize,
    /// Total tuples across all equation values at the fixpoint.
    pub total_tuples: usize,
    /// Number of hash indexes in the solve's [`AccessCache`] at
    /// convergence (over equation values — maintained incrementally —
    /// and over the base relations and actuals the bodies probed) —
    /// observability for the scan→probe architecture.
    pub maintained_indexes: usize,
    /// Budget checks performed (evaluator/worker ticks + round checks).
    /// Non-zero even on unbounded solves — the meter always counts.
    pub budget_checks: u64,
    /// Branches that completed on the sequential reference path after a
    /// parallel-execution failure (graceful degradation).
    pub degraded_branches: u64,
    /// Sequential retry attempts after parallel-execution failures
    /// (each attempt, whether or not it succeeded).
    pub retried_branches: u64,
    /// Branch tasks dispatched to the round scheduler's worker pool
    /// (summed over rounds that batch-dispatched).
    pub parallel_branches: u64,
    /// Branch tasks evaluated inline on the solver thread (rounds where
    /// batching could not pay: one task, or not enough work above the
    /// parallel threshold).
    pub sequential_branches: u64,
    /// Equations whose branch tasks ran concurrently with another
    /// equation's in the same round (summed per dispatched round) —
    /// non-zero means cross-equation parallel fixpoint rounds happened.
    pub parallel_equations: u64,
}

/// Where the solver finds constructor definitions and base data.
pub trait ConstructorSource {
    /// The catalog resolving base relations and selectors.
    fn base_catalog(&self) -> &dyn Catalog;
    /// Look up a constructor definition.
    fn constructor_def(&self, name: &str) -> Result<Constructor, EvalError>;
}

/// Content identity of one relation argument of an application:
/// cardinality plus the storage-memoised 128-bit digest
/// ([`Relation::digest`]). Equality is content equality (order- and
/// storage-independent) up to the ~2⁻¹²⁸ digest collision probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RelKey {
    len: usize,
    digest: u128,
}

impl RelKey {
    fn of(rel: &Relation) -> RelKey {
        RelKey {
            len: rel.len(),
            digest: rel.digest(),
        }
    }
}

/// Identity of an instantiated application: §3.2's `applyⱼ`, keyed by
/// actual values so that textually different but semantically identical
/// applications share one equation.
///
/// Relation actuals are identified by their [`Relation::digest`]
/// content digest rather than a sorted tuple vector: the digest is
/// memoised on the COW storage, so registering an application over a
/// relation whose storage was seen before (every repeated solve, every
/// shared handle) is O(1) instead of the former O(n log n)
/// sort-and-clone per registration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AppKey {
    constructor: Name,
    base: RelKey,
    args: Vec<RelKey>,
    scalar_args: Vec<Value>,
}

impl AppKey {
    /// Build a key from actual values (canonicalised by content
    /// digest).
    pub fn new(
        constructor: &str,
        base: &Relation,
        args: &[Relation],
        scalar_args: &[Value],
    ) -> AppKey {
        AppKey {
            constructor: constructor.to_string(),
            base: RelKey::of(base),
            args: args.iter().map(RelKey::of).collect(),
            scalar_args: scalar_args.to_vec(),
        }
    }

    /// The constructor name.
    pub fn constructor(&self) -> &str {
        &self.constructor
    }
}

/// How a branch participates in semi-naive evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BranchClass {
    /// No constructor application anywhere: evaluate once.
    Static,
    /// Constructor applications occur *only* as whole binding ranges
    /// (the listed positions), with application base/args themselves
    /// application-free: differential evaluation is sound.
    Linear(Vec<usize>),
    /// Anything else: re-evaluate naively each round.
    Fallback,
}

fn range_has_app(r: &RangeExpr) -> bool {
    !rewrite::collect_constructed(r).is_empty()
}

fn classify_branch(b: &Branch) -> BranchClass {
    // Applications in the predicate (or in selector args of binding
    // ranges) force fallback.
    let mut pred_apps = Vec::new();
    {
        // Wrap the predicate in a throwaway branch to reuse the
        // collector.
        let probe = RangeExpr::SetFormer(SetFormer {
            branches: vec![Branch {
                target: b.target.clone(),
                bindings: vec![],
                predicate: b.predicate.clone(),
            }],
        });
        pred_apps.extend(rewrite::collect_constructed(&probe));
    }
    if !pred_apps.is_empty() {
        return BranchClass::Fallback;
    }
    let mut recursive = Vec::new();
    for (i, (_, range)) in b.bindings.iter().enumerate() {
        match range {
            RangeExpr::Constructed { base, args, .. } => {
                if range_has_app(base) || args.iter().any(range_has_app) {
                    return BranchClass::Fallback;
                }
                recursive.push(i);
            }
            other => {
                if range_has_app(other) {
                    return BranchClass::Fallback;
                }
            }
        }
    }
    if recursive.is_empty() {
        BranchClass::Static
    } else {
        BranchClass::Linear(recursive)
    }
}

/// One instantiated equation of the system.
struct Equation {
    /// The application identity (diagnostics: trip sites name the
    /// offending equation by constructor).
    key: AppKey,
    /// Body with the constructor's scalar parameters substituted.
    /// Shared behind an `Arc` so per-round evaluation clones a pointer,
    /// not the AST.
    body: Arc<SetFormer>,
    /// Formal-name → actual-value overlay entries (base + rel params).
    /// `Arc`-shared for the same reason; the relations inside are COW,
    /// so even materialising overlay vectors from this is cheap.
    overrides: Arc<Vec<(Name, Relation)>>,
    /// Declared result schema (values are conformed to it).
    result: dc_value::Schema,
    /// Per-branch semi-naive classification.
    classes: Vec<BranchClass>,
    /// Has the Static-branch contribution been computed yet?
    initialized: bool,
    /// Cache: (branch index, recursive binding position) → equation
    /// index. The application keys of Linear positions are value-stable
    /// across rounds (their base/args derive from the static
    /// overrides), so they are resolved (and their `AppKey` sorted)
    /// exactly once.
    resolved_apps: FxHashMap<(usize, usize), usize>,
    /// Formal name → base-catalog relation name, when *every* formal of
    /// this equation was bound to a plain catalog relation (possibly
    /// forwarded through an enclosing equation's own provenance).
    /// `None` means at least one actual was a computed range: warm
    /// starts cannot tell whether a base delta flows into it, so they
    /// refuse the whole system. Registrations reached dynamically
    /// (value-dependent applications, effect replay) carry no
    /// provenance.
    provenance: Option<FxHashMap<Name, Name>>,
}

/// Mutable solver state shared with the evaluation catalog.
struct State {
    equations: Vec<Equation>,
    index: FxHashMap<AppKey, usize>,
    current: Vec<Relation>,
    delta: Vec<Relation>,
    /// The solve's access cache: every index, statistics entry, and
    /// decorrelated range any branch evaluation of this solve builds,
    /// keyed by the storage of the relation it describes — base
    /// relations and actuals (stable for the whole solve), equation
    /// values (advanced at commit), deltas (forgotten at commit).
    access: Arc<AccessCache>,
    /// The pre-resolved base-catalog slice frozen into every round
    /// snapshot — grown on the solver thread each time an equation
    /// registers, `Arc`-shared so a freeze is a pointer bump.
    universe: Arc<Universe>,
}

impl State {
    /// Register an application, returning its equation index (existing
    /// or new).
    fn register(
        &mut self,
        source: &dyn ConstructorSource,
        key: AppKey,
        base: Relation,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
        slots: Option<Vec<Option<Name>>>,
    ) -> Result<usize, EvalError> {
        if let Some(&i) = self.index.get(&key) {
            return Ok(i);
        }
        let ctor = source.constructor_def(&key.constructor)?;
        if args.len() != ctor.rel_params.len() {
            return Err(EvalError::ArityMismatch {
                name: ctor.name.clone(),
                expected: ctor.rel_params.len(),
                actual: args.len(),
            });
        }
        if scalar_args.len() != ctor.scalar_params.len() {
            return Err(EvalError::ArityMismatch {
                name: ctor.name.clone(),
                expected: ctor.scalar_params.len(),
                actual: scalar_args.len(),
            });
        }
        // Substitute scalar parameters into the body (§3.2: "replacing
        // all formal parameters by their actual values").
        let mut param_map = FxHashMap::default();
        for ((pname, pdom), v) in ctor.scalar_params.iter().zip(&scalar_args) {
            pdom.check(v)?;
            param_map.insert(pname.clone(), v.clone());
        }
        let body_range =
            rewrite::substitute_params_range(&RangeExpr::SetFormer(ctor.body.clone()), &param_map);
        let body = match body_range {
            RangeExpr::SetFormer(sf) => sf,
            _ => unreachable!("substitution preserves the set-former shape"),
        };
        let mut overrides = vec![(ctor.base_param.0.clone(), base)];
        for ((pname, _), actual) in ctor.rel_params.iter().zip(args) {
            overrides.push((pname.clone(), actual));
        }
        let classes = body.branches.iter().map(classify_branch).collect();
        // Provenance is all-or-nothing: one computed actual poisons the
        // equation (a base delta could flow in through a path the
        // per-formal map cannot name).
        let provenance = slots.and_then(|sl| {
            let formals = std::iter::once(&ctor.base_param.0)
                .chain(ctor.rel_params.iter().map(|(pname, _)| pname));
            let mut map = FxHashMap::default();
            for (formal, slot) in formals.zip(sl) {
                map.insert(formal.clone(), slot?);
            }
            Some(map)
        });
        // Pre-resolve every base-catalog name the body (and its
        // selector closure) can reach, so frozen branch evaluation
        // never needs the caller's catalog.
        capture_universe(&mut self.universe, source, &body);
        let i = self.equations.len();
        self.current.push(Relation::new(ctor.result.clone()));
        self.delta.push(Relation::new(ctor.result.clone()));
        self.equations.push(Equation {
            key: key.clone(),
            body: Arc::new(body),
            overrides: Arc::new(overrides),
            result: ctor.result,
            classes,
            initialized: false,
            resolved_apps: FxHashMap::default(),
            provenance,
        });
        self.index.insert(key, i);
        Ok(i)
    }

    /// Freeze the immutable view one round's branch tasks evaluate
    /// against. Cheap by construction: relations are COW handles, and
    /// the universe and the access cache are one `Arc` bump each.
    fn freeze(&self) -> Arc<EvalSnapshot> {
        Arc::new(EvalSnapshot {
            universe: self.universe.clone(),
            index: self.index.clone(),
            current: self.current.clone(),
            access: self.access.clone(),
        })
    }

    /// Replace equation `i`'s per-round delta; the outgoing one is
    /// never read again, so whatever was cached about it goes too.
    fn set_delta(&mut self, i: usize, delta: Relation) {
        self.access.forget(self.delta[i].storage_id());
        self.delta[i] = delta;
    }
}

/// The execution knobs every solver-spawned evaluator shares: index
/// usage, the (already resolved) parallel-dispatch configuration, and
/// the solve's armed budget meter.
#[derive(Debug, Clone)]
struct ExecKnobs {
    /// See [`FixpointConfig::use_indexes`].
    use_indexes: bool,
    /// Resolved worker count (`dc_exec::thread_count` applied to
    /// [`FixpointConfig::threads`] once per solve).
    threads: usize,
    /// See [`FixpointConfig::parallel_threshold`].
    parallel_threshold: usize,
    /// The armed budget gauge: one per solve, shared (clones share
    /// counters) by the solver loop and every branch evaluator, on
    /// whichever thread it runs. Always armed — an unlimited meter
    /// never trips but keeps the governance counters [`FixpointStats`]
    /// reports.
    budget: Meter,
    /// See [`FixpointConfig::metrics`] — handed to every evaluator so
    /// planner decisions are counted no matter which thread plans.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl ExecKnobs {
    fn of(cfg: &FixpointConfig) -> ExecKnobs {
        ExecKnobs {
            use_indexes: cfg.use_indexes,
            threads: dc_exec::thread_count(cfg.threads),
            parallel_threshold: cfg.parallel_threshold,
            budget: cfg.budget.clone().unwrap_or_default().meter(),
            metrics: cfg.metrics.clone(),
        }
    }
}

/// The catalog visible while evaluating equation bodies: formal names
/// resolve through per-equation overrides, and constructor applications
/// resolve to the *current iterate* (registering new equations on first
/// sight — dynamic instantiation of the §3.2 system).
struct SolverCatalog<'a> {
    source: &'a dyn ConstructorSource,
    state: &'a RefCell<State>,
    knobs: ExecKnobs,
    /// `State::access`, held outside the `RefCell` so it can be lent
    /// to evaluators.
    access: Arc<AccessCache>,
}

impl<'a> SolverCatalog<'a> {
    fn new(
        source: &'a dyn ConstructorSource,
        state: &'a RefCell<State>,
        knobs: ExecKnobs,
    ) -> SolverCatalog<'a> {
        let access = state.borrow().access.clone();
        SolverCatalog {
            source,
            state,
            knobs,
            access,
        }
    }
}

impl ExecKnobs {
    /// An evaluator honouring the solver's execution configuration.
    /// Always single-worker: inside a solve the only parallelism is the
    /// round's task dispatch — sharding a task's scan as well measured
    /// slower at every worker count (see ARCHITECTURE, "Parallel
    /// execution").
    fn evaluator<'e>(&self, catalog: &'e dyn Catalog) -> Evaluator<'e> {
        let mut ev = Evaluator::new(catalog).with_meter(self.budget.clone());
        if let Some(m) = &self.metrics {
            ev = ev.with_metrics(m.clone());
        }
        if self.use_indexes {
            ev
        } else {
            ev.force_nested_loop()
        }
    }
}

impl Catalog for SolverCatalog<'_> {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        self.source.base_catalog().relation(name)
    }

    fn selector(&self, name: &str) -> Result<&dc_calculus::ast::SelectorDef, EvalError> {
        self.source.base_catalog().selector(name)
    }

    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        let key = AppKey::new(name, &base, &args, &scalar_args);
        let existing = {
            let st = self.state.borrow();
            st.index.get(&key).copied()
        };
        if let Some(i) = existing {
            return Ok(self.state.borrow().current[i].clone());
        }
        let i = {
            let mut st = self.state.borrow_mut();
            st.register(self.source, key, base, args, scalar_args, None)?
        };
        // Eagerly instantiate the applications in the new body so that
        // mutually recursive peers exist from the first round (§3.2
        // instantiates the whole system up front).
        seed_equation(self.source, self.state, i, &self.knobs)?;
        Ok(self.state.borrow().current[i].clone())
    }

    fn scalar_param(&self, name: &str) -> Result<Value, EvalError> {
        self.source.base_catalog().scalar_param(name)
    }

    fn access(&self) -> Option<&AccessCache> {
        Some(&self.access)
    }
}

/// Conform a computed relation to the declared result schema (attribute
/// names of equation values must match the declared result type, since
/// other bodies reference them by name).
fn conform(rel: Relation, schema: &dc_value::Schema) -> Result<Relation, EvalError> {
    if rel.schema() == schema {
        // Already exactly conformed (the semi-naive accumulator path):
        // tuples were key-checked on insertion under this very schema.
        return Ok(rel);
    }
    if !rel.schema().union_compatible(schema) {
        return Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
            context: "constructor body value does not match declared result type".into(),
        }));
    }
    let mut out = Relation::new(schema.clone());
    for t in rel.iter() {
        out.insert_unchecked(t.clone())?;
    }
    Ok(out)
}

/// Internal marker name for delta injection; not expressible in DBPL
/// source, so it cannot clash with user names.
const DELTA_MARKER: &str = "\u{394}delta";

/// Internal marker name binding a peer equation's *accumulated* value
/// in differential rounds, so the executor sees it as a named relation
/// and probes the incrementally maintained indexes the solve's cache
/// holds under its storage id instead of rescanning.
const CURRENT_MARKER: &str = "\u{394}cur";

/// The base-catalog provenance of an actual bound to a formal: a plain
/// relation name resolves through the parent equation's own provenance
/// (formals forward), past the parent's formal names (a formal without
/// provenance stays untracked), to the catalog name itself. Computed
/// ranges have no provenance.
fn provenance_slot(
    range: &RangeExpr,
    parent_prov: Option<&FxHashMap<Name, Name>>,
    parent_overrides: &[(Name, Relation)],
) -> Option<Name> {
    let RangeExpr::Rel(n) = range else {
        return None;
    };
    if let Some(map) = parent_prov {
        if let Some(t) = map.get(n) {
            return Some(t.clone());
        }
    }
    if parent_overrides.iter().any(|(f, _)| f == n) {
        // Formal of the parent without provenance of its own.
        return None;
    }
    Some(n.clone())
}

/// Register every constructor application appearing in equation `i`'s
/// body whose base/args are themselves application-free — the up-front
/// instantiation of the §3.2 equation system. Recursive through
/// registration (idempotent by key, so mutual recursion terminates).
fn seed_equation(
    source: &dyn ConstructorSource,
    state: &RefCell<State>,
    i: usize,
    knobs: &ExecKnobs,
) -> Result<(), EvalError> {
    let (body, overrides) = {
        let st = state.borrow();
        (
            st.equations[i].body.clone(),
            st.equations[i].overrides.clone(),
        )
    };
    let catalog = SolverCatalog::new(source, state, knobs.clone());
    let apps = rewrite::collect_constructed(&RangeExpr::SetFormer((*body).clone()));
    for app in apps {
        let RangeExpr::Constructed {
            base,
            constructor,
            args,
            scalar_args,
        } = &app
        else {
            unreachable!("collect_constructed returns Constructed nodes");
        };
        if range_has_app(base) || args.iter().any(range_has_app) {
            // Value-dependent key; registers dynamically during
            // evaluation instead.
            continue;
        }
        let overlay = Overlay::new(&catalog, (*overrides).clone());
        let mut ev = catalog.knobs.evaluator(&overlay);
        let mut bindings = Vec::new();
        let base_val = ev.eval_range(base, &mut bindings)?;
        let mut arg_vals = Vec::with_capacity(args.len());
        for a in args {
            arg_vals.push(ev.eval_range(a, &mut bindings)?);
        }
        let mut scalar_vals = Vec::with_capacity(scalar_args.len());
        for s in scalar_args {
            scalar_vals.push(ev.eval_scalar(s, &bindings)?);
        }
        let key = AppKey::new(constructor, &base_val, &arg_vals, &scalar_vals);
        let slots = {
            let st = state.borrow();
            let parent_prov = st.equations[i].provenance.clone();
            std::iter::once(&**base)
                .chain(args.iter())
                .map(|r| provenance_slot(r, parent_prov.as_ref(), &overrides))
                .collect::<Vec<_>>()
        };
        let fresh = {
            let mut st = state.borrow_mut();
            if st.index.contains_key(&key) {
                None
            } else {
                Some(st.register(source, key, base_val, arg_vals, scalar_vals, Some(slots))?)
            }
        };
        if let Some(j) = fresh {
            seed_equation(source, state, j, knobs)?;
        }
    }
    Ok(())
}

/// One equation's captured end-of-solve state, for warm re-entry.
struct SolvedEquation {
    /// Constructor name (role check: warm re-entry must rebuild the
    /// same system shape).
    constructor: Name,
    /// Declared result schema.
    result: dc_value::Schema,
    /// The converged value.
    value: Relation,
}

/// The materialised state of a converged equation system, returned by
/// [`solve_tracked`] and consumed (and re-produced) by [`solve_warm`].
/// Opaque: callers hold it between solves; only the root value is
/// readable.
pub struct SolvedSystem {
    equations: Vec<SolvedEquation>,
    /// The solve's cache, cut down to the entries over the equation
    /// values: a warm refresh starts from a copy and probes the
    /// maintained indexes immediately instead of rebuilding O(|value|)
    /// structures per commit.
    access: Arc<AccessCache>,
}

impl SolvedSystem {
    /// The root application's converged value.
    pub fn value(&self) -> &Relation {
        &self.equations[0].value
    }

    /// Total tuples materialised across the system (diagnostics).
    pub fn total_tuples(&self) -> usize {
        self.equations.iter().map(|e| e.value.len()).sum()
    }
}

/// What a warm re-solve produced.
pub enum WarmOutcome {
    /// The warm start was sound and converged: the new root value, the
    /// exact tuples added relative to the previous system (warm starts
    /// are monotone, so nothing is ever removed), the re-captured
    /// system for the next refresh, and run statistics.
    Solved {
        /// New root value.
        value: Relation,
        /// Root tuples added relative to the previous system.
        added: Relation,
        /// Captured state for the next warm refresh.
        system: SolvedSystem,
        /// Run statistics.
        stats: FixpointStats,
    },
    /// The warm start could not be proven sound (non-monotone read of a
    /// touched relation, untracked provenance, changed system shape,
    /// …): the caller must fall back to a cold [`solve_tracked`].
    Refused {
        /// Human-readable refusal reason (diagnostics/logging).
        reason: String,
    },
}

/// What one full solve run produced (internal).
struct SolveRun {
    value: Relation,
    /// Root tuples added relative to the warm seed (warm runs only).
    added: Option<Relation>,
    /// Captured per-equation state (tracked runs only).
    system: Option<SolvedSystem>,
    stats: FixpointStats,
}

/// Solve the system rooted at `constructor(base, args, scalar_args)`;
/// returns the application value and run statistics.
pub fn solve(
    source: &dyn ConstructorSource,
    constructor: &str,
    base: Relation,
    args: Vec<Relation>,
    scalar_args: Vec<Value>,
    cfg: &FixpointConfig,
) -> Result<(Relation, FixpointStats), EvalError> {
    match solve_inner(
        source,
        constructor,
        base,
        args,
        scalar_args,
        None,
        None,
        cfg,
    )? {
        Ok(run) => Ok((run.value, run.stats)),
        Err(reason) => unreachable!("cold solve cannot be refused: {reason}"),
    }
}

/// [`solve`], additionally capturing the converged system's
/// materialised state (per-equation values and the access structures
/// maintained over them) so a later [`solve_warm`] can re-enter the
/// semi-naive rounds instead of starting over. `base_name`/`arg_names` name the
/// catalog relations the actuals came from — the provenance warm
/// starts use to route base deltas to formals.
#[allow(clippy::too_many_arguments)]
pub fn solve_tracked(
    source: &dyn ConstructorSource,
    constructor: &str,
    base: Relation,
    args: Vec<Relation>,
    scalar_args: Vec<Value>,
    base_name: &str,
    arg_names: &[&str],
    cfg: &FixpointConfig,
) -> Result<(Relation, SolvedSystem, FixpointStats), EvalError> {
    let names = root_slots(base_name, arg_names);
    match solve_inner(
        source,
        constructor,
        base,
        args,
        scalar_args,
        Some(names),
        None,
        cfg,
    )? {
        Ok(run) => match run.system {
            Some(system) => Ok((run.value, system, run.stats)),
            None => unreachable!("tracked solve always captures its system"),
        },
        Err(reason) => unreachable!("cold solve cannot be refused: {reason}"),
    }
}

/// Re-solve `constructor(base, args, scalar_args)` warm: seed every
/// equation from `prev` (the system captured by a previous
/// [`solve_tracked`]/[`solve_warm`] over the *same* system shape) and
/// run delta-restricted semi-naive rounds driven by `deltas` — the
/// tuples **inserted** into the named base relations since `prev` was
/// captured. The actuals (`base`/`args`) must be the *new* relation
/// values.
///
/// Soundness rests on monotonicity: the previous fixpoint is a subset
/// of the new one exactly when every touched relation is read only
/// through plain binding ranges (insertions can then only add result
/// tuples). The function re-derives that property from the registered
/// system itself — any touched relation reachable through a predicate,
/// selector body, computed constructor actual, or untracked formal
/// refuses the warm start ([`WarmOutcome::Refused`]), as do deletions
/// (the caller's contract: `deltas` are insert-only). A refusal is not
/// an error; the caller re-solves cold via [`solve_tracked`].
#[allow(clippy::too_many_arguments)]
pub fn solve_warm(
    source: &dyn ConstructorSource,
    constructor: &str,
    base: Relation,
    args: Vec<Relation>,
    scalar_args: Vec<Value>,
    base_name: &str,
    arg_names: &[&str],
    prev: &SolvedSystem,
    deltas: &[(Name, Relation)],
    cfg: &FixpointConfig,
) -> Result<WarmOutcome, EvalError> {
    let names = root_slots(base_name, arg_names);
    match solve_inner(
        source,
        constructor,
        base,
        args,
        scalar_args,
        Some(names),
        Some((prev, deltas)),
        cfg,
    )? {
        Ok(run) => match (run.added, run.system) {
            (Some(added), Some(system)) => Ok(WarmOutcome::Solved {
                value: run.value,
                added,
                system,
                stats: run.stats,
            }),
            _ => unreachable!("warm solve always tracks additions and its system"),
        },
        Err(reason) => Ok(WarmOutcome::Refused { reason }),
    }
}

/// Root provenance slots from caller-supplied names.
fn root_slots(base_name: &str, arg_names: &[&str]) -> Vec<Option<Name>> {
    std::iter::once(base_name)
        .chain(arg_names.iter().copied())
        .map(|n| Some(n.to_string()))
        .collect()
}

/// A `Phase` span for one of the round's four stages ("prep",
/// "freeze", "evaluate", "replay+commit").
fn phase_span(name: &'static str) -> dc_trace::Span {
    dc_trace::span(SpanKind::Phase).name_with(|| name.to_string())
}

/// The shared solve loop. `root_names` carries base-catalog provenance
/// for the root actuals; `warm` requests a warm start (`Err(reason)` in
/// the outer `Ok` = refused, caller falls back to cold). The system is
/// captured whenever `root_names` is supplied.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn solve_inner(
    source: &dyn ConstructorSource,
    constructor: &str,
    base: Relation,
    args: Vec<Relation>,
    scalar_args: Vec<Value>,
    root_names: Option<Vec<Option<Name>>>,
    warm: Option<(&SolvedSystem, &[(Name, Relation)])>,
    cfg: &FixpointConfig,
) -> Result<Result<SolveRun, String>, EvalError> {
    let track = root_names.is_some();
    let solve_t0 = std::time::Instant::now();
    // Open for the whole solve; rounds, phases, and branch tasks nest
    // under it (branch tasks via an explicit parent when dispatched).
    let mut solve_span = dc_trace::span(SpanKind::Solve).name_with(|| constructor.to_string());
    let state = RefCell::new(State {
        equations: Vec::new(),
        index: FxHashMap::default(),
        current: Vec::new(),
        delta: Vec::new(),
        // A warm start seeds the equation values from `prev`, storage
        // and all, so its entries are this solve's from the first round.
        access: Arc::new(match warm {
            Some((prev, _)) => AccessCache::clone(&prev.access),
            None => AccessCache::new(cfg.metrics.clone()),
        }),
        universe: Arc::new(Universe::default()),
    });
    let root_key = AppKey::new(constructor, &base, &args, &scalar_args);
    state.borrow_mut().register(
        source,
        root_key.clone(),
        base,
        args,
        scalar_args,
        root_names,
    )?;
    let knobs = ExecKnobs::of(cfg);
    let meter = knobs.budget.clone();
    seed_equation(source, &state, 0, &knobs)?;
    let catalog = SolverCatalog::new(source, &state, knobs);

    // Warm start: validate the registered system against the previous
    // capture, seed every equation's accumulated state from it, and
    // prepare the delta-restricted first round. A refusal abandons the
    // (still pristine) state — the caller re-solves cold.
    let mut warm_tasks: Option<Vec<BranchTask>> = None;
    let mut added_acc: Option<Relation> = None;
    if let Some((prev_sys, deltas)) = warm {
        match warm_prepare(&catalog, cfg, prev_sys, deltas)? {
            Ok(tasks) => {
                let root_schema = state.borrow().equations[0].result.clone();
                warm_tasks = Some(tasks);
                added_acc = Some(Relation::new(root_schema));
            }
            Err(reason) => return Ok(Err(reason)),
        }
    }

    let mut iterations = 0usize;
    let mut delta_tuples: u64 = 0;
    let mut prev: Option<Vec<Relation>> = None;
    let mut prev2: Option<Vec<Relation>> = None;

    loop {
        iterations += 1;
        if iterations > cfg.max_iterations {
            // Round-allowance exhaustion is a divergence verdict, with
            // enough diagnostics to distinguish a genuinely divergent
            // system (growing delta) from a slow convergent one.
            return Err(EvalError::Solve(SolveError::Diverged {
                diag: round_diag(
                    &state,
                    &meter,
                    iterations - 1,
                    vec![format!(
                        "max_iterations ({}) exhausted without convergence",
                        cfg.max_iterations
                    )],
                ),
            }));
        }
        let mut round_span = dc_trace::span(SpanKind::Round);
        round_span.field("round", iterations);
        let prep_span = phase_span("prep");
        let n = state.borrow().equations.len();
        // ---- Prep (solver thread). Snapshot each equation's
        // accumulated value and result schema, resolve recursive
        // applications, and rewrite Linear branches onto marker
        // relations — everything that may *register* or reads the
        // solver state happens here, before the freeze.
        let mut tasks: Vec<BranchTask> = Vec::new();
        let mut round_current: Vec<Relation> = Vec::with_capacity(n);
        let mut round_schemas: Vec<dc_value::Schema> = Vec::with_capacity(n);
        {
            let st = state.borrow();
            for i in 0..n {
                round_current.push(st.current[i].clone());
                round_schemas.push(st.equations[i].result.clone());
            }
        }
        if let Some(wt) = warm_tasks.take() {
            // Warm first round: the prepared delta-restricted tasks
            // stand in for the usual per-equation preparation (every
            // equation is already seeded and `initialized`).
            tasks = wt;
        } else {
            for i in 0..n {
                prepare_equation_tasks(&catalog, i, cfg.strategy, &mut tasks)
                    .map_err(|e| enrich_solve_error(e, &state, &meter, i, iterations - 1))?;
            }
        }
        drop(prep_span);
        // ---- Freeze. Everything a branch task reads, at one round;
        // equations registered during prep are visible (at ∅), exactly
        // as a mid-round registration is on the sequential path.
        let snap = {
            let _freeze_span = phase_span("freeze");
            state.borrow().freeze()
        };
        // ---- Dispatch. Batch the round's tasks onto workers when the
        // parallelism can pay — at least two tasks whose scan side
        // clears the parallel threshold — otherwise run them inline in
        // the same task order (Jacobi staging makes the task order
        // semantically irrelevant; keeping it fixes the error-witness
        // choice).
        let eligible = tasks
            .iter()
            .filter(|t| t.weight >= catalog.knobs.parallel_threshold)
            .count();
        let dispatch = catalog.knobs.threads > 1 && tasks.len() >= 2 && eligible >= 2;
        let eval_span = phase_span("evaluate");
        let eval_parent = eval_span.id();
        let results = if dispatch {
            meter.add_parallel_branches(tasks.len() as u64);
            let mut eqs: Vec<usize> = tasks.iter().map(|t| t.eq).collect();
            eqs.sort_unstable();
            eqs.dedup();
            if eqs.len() >= 2 {
                meter.add_parallel_equations(eqs.len() as u64);
            }
            dc_exec::run_tasks(&tasks, catalog.knobs.threads, |_, t| {
                run_task(&snap, &catalog.knobs, t, Some(eval_parent))
            })
        } else {
            meter.add_sequential_branches(tasks.len() as u64);
            dc_exec::run_tasks(&tasks, 1, |_, t| run_task(&snap, &catalog.knobs, t, None))
        };
        drop(eval_span);
        let commit_span = phase_span("replay+commit");
        // ---- Process (solver thread, task order — the sequential
        // evaluation order). Replay each task's registrations, then absorb
        // its value; a worker panic degrades that one task to an inline
        // sequential retry. Staged results keep the Jacobi simultaneous
        // update, matching the paper's Oldahead/Oldabove loop.
        let mut fresh: Vec<Relation> = round_schemas
            .iter()
            .map(|s| Relation::new(s.clone()))
            .collect();
        let mut staged_naive: Vec<RoundResult> = Vec::with_capacity(n);
        for (t_idx, res) in results.into_iter().enumerate() {
            let task = &tasks[t_idx];
            let outcome = match res {
                Ok(Ok(o)) => o,
                Ok(Err(e)) => {
                    return Err(enrich_solve_error(
                        e,
                        &state,
                        &meter,
                        task.eq,
                        iterations - 1,
                    ));
                }
                Err(dc_exec::ExecError::WorkerPanic { .. }) => {
                    meter.note_retried();
                    match run_task(&snap, &catalog.knobs, task, None) {
                        Ok(o) => {
                            meter.note_degraded();
                            o
                        }
                        Err(e) => {
                            return Err(enrich_solve_error(
                                e,
                                &state,
                                &meter,
                                task.eq,
                                iterations - 1,
                            ));
                        }
                    }
                }
                Err(other) => {
                    return Err(enrich_solve_error(
                        EvalError::from(other),
                        &state,
                        &meter,
                        task.eq,
                        iterations - 1,
                    ));
                }
            };
            let TaskOutcome { value, effects } = outcome;
            replay_effects(source, &state, &catalog.knobs, effects)
                .map_err(|e| enrich_solve_error(e, &state, &meter, task.eq, iterations - 1))?;
            match cfg.strategy {
                Strategy::SemiNaive => {
                    absorb(&round_current[task.eq], &mut fresh[task.eq], &value).map_err(|e| {
                        enrich_solve_error(e, &state, &meter, task.eq, iterations - 1)
                    })?;
                }
                Strategy::Naive => {
                    // Exactly one task per equation, in equation order.
                    // No-change short-circuit: once an equation
                    // stabilises, the wholesale replacement is a
                    // byte-identical copy — one length check plus a
                    // content digest detects that and skips the conform
                    // copy and the commit-side diff entirely.
                    let i = task.eq;
                    if value.len() == round_current[i].len()
                        && value.schema().union_compatible(&round_schemas[i])
                        && value.digest() == round_current[i].digest()
                    {
                        staged_naive.push(RoundResult::Unchanged);
                    } else {
                        let conformed = conform(value, &round_schemas[i]).map_err(|e| {
                            enrich_solve_error(e, &state, &meter, i, iterations - 1)
                        })?;
                        staged_naive.push(RoundResult::Full(conformed));
                    }
                }
            }
        }
        let staged: Vec<RoundResult> = match cfg.strategy {
            Strategy::SemiNaive => fresh.into_iter().map(RoundResult::Delta).collect(),
            Strategy::Naive => staged_naive,
        };
        // Release every handle into the frozen round state before the
        // commit: relations are copy-on-write, so the in-place
        // `union_into` below mutates each tuple store directly only
        // while its `Arc` is unshared — a surviving snapshot, task
        // override, or round clone would force a full store copy every
        // round.
        drop(tasks);
        drop(round_current);
        drop(snap);
        // Commit (with the `delta_commit` fault-injection site guarding
        // the atomic-abort property: an abort here must leave every
        // caller-visible relation untouched).
        fail::check(Site::DeltaCommit)?;
        let mut changed = false;
        {
            let mut st = state.borrow_mut();
            for (i, result) in staged.into_iter().enumerate() {
                match result {
                    RoundResult::Unchanged => {
                        // Nothing moved: the accumulated value and
                        // everything cached about it stand; only the
                        // per-round delta resets.
                        if !st.delta[i].is_empty() {
                            let empty = Relation::new(st.current[i].schema().clone());
                            st.set_delta(i, empty);
                        }
                    }
                    RoundResult::Full(new_val) => {
                        // Wholesale replacement (naive strategy):
                        // non-monotone (unchecked) systems can shrink as
                        // well as grow. Nothing is cached about the
                        // outgoing value — only differential rounds bind
                        // peers as named (marker) relations.
                        let added = algebra::difference(&new_val, &st.current[i])
                            .map_err(EvalError::from)?;
                        delta_tuples += added.len() as u64;
                        if st.current[i] != new_val {
                            changed = true;
                        }
                        st.set_delta(i, added);
                        st.current[i] = new_val;
                    }
                    RoundResult::Delta(added) => {
                        // Monotone growth (semi-naive): `added` is
                        // exactly the new tuples. The accumulated value
                        // absorbs them in place, and the indexes and
                        // statistics cached over it follow through
                        // `advance` — O(|delta|), no rebuild, no
                        // re-diff.
                        delta_tuples += added.len() as u64;
                        if i == 0 {
                            // Root additions accumulate across rounds:
                            // warm callers receive the exact output
                            // delta relative to their seed.
                            if let Some(acc) = added_acc.as_mut() {
                                algebra::union_into(acc, &added).map_err(EvalError::from)?;
                            }
                        }
                        if !added.is_empty() {
                            changed = true;
                            let old = st.current[i].storage_id();
                            algebra::union_into(&mut st.current[i], &added)
                                .map_err(EvalError::from)?;
                            st.access.advance(old, &st.current[i], &added);
                        }
                        st.set_delta(i, added);
                    }
                }
            }
        }
        drop(commit_span);
        let grew = state.borrow().equations.len() > n;
        if !changed && !grew {
            break;
        }
        // Round boundary: unconditional deadline/cancellation reads plus
        // the budget's round ceiling. Checked only when another round is
        // coming — a solve that just converged is a result, not a trip.
        meter.check_round(iterations as u64).map_err(|trip| {
            let mut se = SolveError::from_trip(trip);
            let extra_notes = std::mem::take(&mut se.diag_mut().notes);
            *se.diag_mut() = round_diag(&state, &meter, iterations, extra_notes);
            se.diag_mut().site = format!("round boundary after round {iterations}");
            EvalError::Solve(se)
        })?;
        // Oscillation detection for non-monotone systems (the paper's
        // `nonsense`): state equals the state two rounds ago but not the
        // previous one ⇒ period-2 cycle, no limit exists. Semi-naive
        // runs are monotone by construction, so the per-round snapshots
        // are only taken under the naive strategy.
        if cfg.strategy == Strategy::Naive {
            let snapshot = state.borrow().current.clone();
            if let (Some(p), Some(p2)) = (&prev, &prev2) {
                if &snapshot == p2 && &snapshot != p {
                    return Err(EvalError::NonConvergent { steps: iterations });
                }
            }
            prev2 = prev.take();
            prev = Some(snapshot);
        }
    }

    let st = state.into_inner();
    let root_idx = st.index[&root_key];
    let stats = FixpointStats {
        strategy: cfg.strategy,
        iterations,
        equations: st.equations.len(),
        total_tuples: st.current.iter().map(Relation::len).sum(),
        maintained_indexes: st.access.index_count(),
        budget_checks: meter.checks(),
        degraded_branches: meter.degraded(),
        retried_branches: meter.retried(),
        parallel_branches: meter.parallel_branches(),
        sequential_branches: meter.sequential_branches(),
        parallel_equations: meter.parallel_equations(),
    };
    if let Some(m) = &cfg.metrics {
        m.inc(Counter::SolveRuns);
        m.add(Counter::SolveRounds, iterations as u64);
        m.add(Counter::DeltaTuples, delta_tuples);
        m.add(Counter::ParallelBranches, stats.parallel_branches);
        m.add(Counter::SequentialBranches, stats.sequential_branches);
        m.add(Counter::DegradedBranches, stats.degraded_branches);
        m.observe_us(
            Histogram::SolveLatencyUs,
            solve_t0.elapsed().as_micros() as u64,
        );
    }
    if solve_span.recording() {
        solve_span.field("rounds", iterations);
        solve_span.field("equations", stats.equations);
        solve_span.field("tuples", stats.total_tuples);
    }
    let system = track.then(|| {
        let value_ids: Vec<u64> = st.current.iter().map(Relation::storage_id).collect();
        st.access.retain(&value_ids);
        SolvedSystem {
            equations: st
                .equations
                .iter()
                .enumerate()
                .map(|(i, eq)| SolvedEquation {
                    constructor: eq.key.constructor().to_string(),
                    result: eq.result.clone(),
                    value: st.current[i].clone(),
                })
                .collect(),
            access: st.access.clone(),
        }
    });
    Ok(Ok(SolveRun {
        value: st.current[root_idx].clone(),
        added: added_acc,
        system,
        stats,
    }))
}

/// Snapshot the solve's progress for a [`SolveDiag`]: rounds completed,
/// tuples materialised so far, and the total size of the last committed
/// deltas.
fn round_diag(
    state: &RefCell<State>,
    meter: &Meter,
    rounds: usize,
    notes: Vec<String>,
) -> SolveDiag {
    let st = state.borrow();
    SolveDiag {
        rounds: rounds as u64,
        tuples: meter.tuples(),
        last_delta: st.delta.iter().map(Relation::len).sum::<usize>() as u64,
        site: String::new(),
        notes,
    }
}

/// Enrich a [`SolveError`] escaping equation evaluation with what the
/// solver knows: the offending equation (index and constructor name),
/// rounds completed, tuples materialised, and the last committed delta
/// size. Non-governance errors pass through untouched.
fn enrich_solve_error(
    e: EvalError,
    state: &RefCell<State>,
    meter: &Meter,
    eq_idx: usize,
    completed_rounds: usize,
) -> EvalError {
    let EvalError::Solve(mut se) = e else {
        return e;
    };
    {
        let st = state.borrow();
        let d = se.diag_mut();
        d.rounds = completed_rounds as u64;
        d.tuples = meter.tuples();
        d.last_delta = st.delta.iter().map(Relation::len).sum::<usize>() as u64;
        let here = format!(
            "equation {eq_idx} (`{}`)",
            st.equations[eq_idx].key.constructor()
        );
        d.site = if d.site.is_empty() {
            here
        } else {
            format!("{here}, {}", d.site)
        };
    }
    EvalError::Solve(se)
}

/// One equation's contribution to a round.
enum RoundResult {
    /// The full new value (naive strategy — wholesale replacement).
    Full(Relation),
    /// Only the genuinely new tuples (semi-naive strategy — the
    /// accumulated value is grown in place at commit, never copied).
    Delta(Relation),
    /// The naive round reproduced the accumulated value exactly
    /// (decided by a length + content-digest check, the same
    /// probabilistic identity [`AppKey`] rests on): the commit skips
    /// the conform copy, the O(n) diff, and the set-equality test —
    /// the converged tail of a naive run touches nothing.
    Unchanged,
}

/// One unit of round work: a single branch evaluation (or, under the
/// naive strategy, one whole equation body), fully prepared on the
/// solver thread so a worker only reads the frozen snapshot.
struct BranchTask {
    /// Owning equation index.
    eq: usize,
    /// Branch index within the body (`None` = whole body, naive
    /// strategy).
    branch_idx: Option<usize>,
    /// The (possibly marker-rewritten) body to evaluate.
    body: SetFormer,
    /// Formal- and marker-name overrides for the evaluation overlay.
    overrides: Vec<(Name, Relation)>,
    /// Scan-side cardinality estimate (delta size for Linear tasks,
    /// override sizes otherwise), for the dispatch decision.
    weight: usize,
}

/// What a branch task returns: the computed value plus what the solver
/// must replay — the snapshot catalog's logged registrations.
struct TaskOutcome {
    value: Relation,
    effects: Vec<Effect>,
}

/// Prepare equation `i`'s tasks for the coming round (appending to
/// `tasks` in branch order — the sequential evaluation order). Linear
/// rewrites resolve their recursive applications here, on the solver
/// thread, so registration stays serialized.
fn prepare_equation_tasks(
    catalog: &SolverCatalog<'_>,
    i: usize,
    strategy: Strategy,
    tasks: &mut Vec<BranchTask>,
) -> Result<(), EvalError> {
    // Clone out what preparation needs (all pointer bumps: the body and
    // overrides are `Arc`-shared).
    let (body, overrides, classes, initialized) = {
        let st = catalog.state.borrow();
        let eq = &st.equations[i];
        (
            eq.body.clone(),
            eq.overrides.clone(),
            eq.classes.clone(),
            eq.initialized,
        )
    };
    let base_weight: usize = overrides.iter().map(|(_, r)| r.len()).sum();
    match strategy {
        Strategy::Naive => {
            let weight = base_weight + catalog.state.borrow().current[i].len();
            tasks.push(BranchTask {
                eq: i,
                branch_idx: None,
                body: (*body).clone(),
                overrides: (*overrides).clone(),
                weight,
            });
        }
        Strategy::SemiNaive => {
            for (b_idx, branch) in body.branches.iter().enumerate() {
                match &classes[b_idx] {
                    // A Static branch contributes exactly once.
                    BranchClass::Static if initialized => {}
                    BranchClass::Static | BranchClass::Fallback => {
                        tasks.push(BranchTask {
                            eq: i,
                            branch_idx: Some(b_idx),
                            body: SetFormer {
                                branches: vec![branch.clone()],
                            },
                            overrides: (*overrides).clone(),
                            weight: base_weight,
                        });
                    }
                    BranchClass::Linear(positions) => {
                        // An equation's first differential round reads
                        // the peers' *full* current values — equations
                        // registered after their peers would otherwise
                        // miss deltas emitted before they existed.
                        for &pos in positions {
                            let app =
                                resolve_recursive_app(catalog, i, b_idx, &overrides, branch, pos)?;
                            let st = catalog.state.borrow();
                            let scan = if initialized {
                                st.delta[app].clone()
                            } else {
                                st.current[app].clone()
                            };
                            drop(st);
                            tasks.push(delta_task(
                                catalog,
                                i,
                                b_idx,
                                &overrides,
                                branch,
                                positions,
                                pos,
                                (format!("{DELTA_MARKER}{pos}"), scan),
                            )?);
                        }
                    }
                }
            }
            catalog.state.borrow_mut().equations[i].initialized = true;
        }
    }
    Ok(())
}

/// Record every tuple of `part` not in the accumulated value into
/// `fresh` (the round's delta), without touching the accumulator. Union
/// compatibility and the key constraint within the delta are enforced
/// here; key conflicts between the delta and the accumulated value
/// surface when the commit phase unions the delta in.
fn absorb(current: &Relation, fresh: &mut Relation, part: &Relation) -> Result<(), EvalError> {
    if !current.schema().union_compatible(part.schema()) {
        return Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
            context: "constructor body value does not match declared result type".into(),
        }));
    }
    for t in part.iter() {
        if !current.contains(t) {
            fresh.insert_unchecked(t.clone()).map_err(EvalError::from)?;
        }
    }
    Ok(())
}

/// Prepare one differential task over `branch`: `delta` — an internal
/// marker name and the relation to scan under it — is bound at
/// `delta_pos`, and every other recursive position at its peer's
/// accumulated current value, also as a named (marker) relation, so the
/// executor finds the maintained indexes and statistics in the solve's
/// cache under the value's storage id. Other binding positions stay as
/// written (the overlay resolves them to their full values).
#[allow(clippy::too_many_arguments)]
fn delta_task(
    catalog: &SolverCatalog<'_>,
    eq_idx: usize,
    branch_idx: usize,
    overrides: &[(Name, Relation)],
    branch: &Branch,
    rec_positions: &[usize],
    delta_pos: usize,
    delta: (Name, Relation),
) -> Result<BranchTask, EvalError> {
    let mut branch = branch.clone();
    let mut all_overrides = overrides.to_vec();
    // The delta side is the branch's scan side.
    let weight = delta.1.len();
    for &pos in rec_positions.iter().filter(|&&p| p != delta_pos) {
        let app = resolve_recursive_app(catalog, eq_idx, branch_idx, overrides, &branch, pos)?;
        let marker = format!("{CURRENT_MARKER}{pos}");
        branch.bindings[pos].1 = RangeExpr::Rel(marker.clone());
        all_overrides.push((marker, catalog.state.borrow().current[app].clone()));
    }
    branch.bindings[delta_pos].1 = RangeExpr::Rel(delta.0.clone());
    all_overrides.push(delta);
    Ok(BranchTask {
        eq: eq_idx,
        branch_idx: Some(branch_idx),
        body: SetFormer {
            branches: vec![branch],
        },
        overrides: all_overrides,
        weight,
    })
}

/// Transitive relation-name reachability for the warm-start safety
/// check: every relation name a formula or range can read, chasing
/// selector predicates and constructor bodies through the source.
/// Constructor-body formals are collected as if they were catalog
/// names — a false positive there only costs a (sound) refusal.
struct Reach<'a> {
    source: &'a dyn ConstructorSource,
    names: FxHashSet<Name>,
    /// False when a selector/constructor definition was unresolvable —
    /// the reach set is then a lower bound and the caller must refuse.
    complete: bool,
    selectors_seen: FxHashSet<Name>,
    constructors_seen: FxHashSet<Name>,
}

impl<'a> Reach<'a> {
    fn new(source: &'a dyn ConstructorSource) -> Reach<'a> {
        Reach {
            source,
            names: FxHashSet::default(),
            complete: true,
            selectors_seen: FxHashSet::default(),
            constructors_seen: FxHashSet::default(),
        }
    }

    /// Does the reach set intersect `local` (delta-mapped local names)
    /// or `touched` (raw base-catalog names)? Incomplete reach counts
    /// as intersecting (conservative).
    fn hits(&self, local: &FxHashMap<Name, Relation>, touched: &[(Name, Relation)]) -> bool {
        !self.complete
            || self
                .names
                .iter()
                .any(|n| local.contains_key(n) || touched.iter().any(|(t, _)| t == n))
    }

    fn range(&mut self, r: &RangeExpr) {
        match r {
            RangeExpr::Rel(n) => {
                self.names.insert(n.clone());
            }
            RangeExpr::Selected { base, selector, .. } => {
                self.range(base);
                self.selector(selector);
            }
            RangeExpr::Constructed {
                base,
                constructor,
                args,
                ..
            } => {
                self.range(base);
                for a in args {
                    self.range(a);
                }
                self.constructor(constructor);
            }
            RangeExpr::SetFormer(sf) => self.set_former(sf),
        }
    }

    fn set_former(&mut self, sf: &SetFormer) {
        for b in &sf.branches {
            for (_, range) in &b.bindings {
                self.range(range);
            }
            self.formula(&b.predicate);
        }
    }

    fn formula(&mut self, f: &Formula) {
        match f {
            Formula::True | Formula::False | Formula::Cmp(..) => {}
            Formula::And(a, b) | Formula::Or(a, b) => {
                self.formula(a);
                self.formula(b);
            }
            Formula::Not(inner) => self.formula(inner),
            Formula::Some(_, r, body) | Formula::All(_, r, body) => {
                self.range(r);
                self.formula(body);
            }
            Formula::Member(_, r) | Formula::TupleIn(_, r) => self.range(r),
        }
    }

    fn selector(&mut self, name: &Name) {
        if !self.selectors_seen.insert(name.clone()) {
            return;
        }
        match self.source.base_catalog().selector(name) {
            Ok(def) => {
                let pred = def.predicate.clone();
                self.formula(&pred);
            }
            Err(_) => self.complete = false,
        }
    }

    fn constructor(&mut self, name: &Name) {
        if !self.constructors_seen.insert(name.clone()) {
            return;
        }
        match self.source.constructor_def(name) {
            Ok(def) => self.set_former(&def.body),
            Err(_) => self.complete = false,
        }
    }
}

/// Validate a warm start against the previous capture and, if sound,
/// seed the solver state from it and build the delta-restricted first
/// round. The outer `Err` is a real evaluation error; the inner `Err`
/// is a refusal reason (caller falls back to a cold solve).
fn warm_prepare(
    catalog: &SolverCatalog<'_>,
    cfg: &FixpointConfig,
    prev: &SolvedSystem,
    deltas: &[(Name, Relation)],
) -> Result<Result<Vec<BranchTask>, String>, EvalError> {
    if cfg.strategy != Strategy::SemiNaive {
        return Ok(Err("warm start requires the semi-naive strategy".into()));
    }
    // ---- Shape validation: the freshly registered system must be the
    // previous system, equation for equation (registration order is
    // deterministic, so index-wise comparison is exact).
    let n = catalog.state.borrow().equations.len();
    if n != prev.equations.len() {
        return Ok(Err(format!(
            "system shape changed: {} equations, previously {}",
            n,
            prev.equations.len()
        )));
    }
    {
        let st = catalog.state.borrow();
        for (i, (eq, prev_eq)) in st.equations.iter().zip(&prev.equations).enumerate() {
            if eq.key.constructor() != prev_eq.constructor {
                return Ok(Err(format!(
                    "equation {i} constructor changed (`{}` → `{}`)",
                    prev_eq.constructor,
                    eq.key.constructor()
                )));
            }
            if eq.result != prev_eq.result {
                return Ok(Err(format!("equation {i} result schema changed")));
            }
            if eq.provenance.is_none() {
                return Ok(Err(format!(
                    "equation {i} (`{}`) has untracked relation provenance",
                    eq.key.constructor()
                )));
            }
            if eq
                .classes
                .iter()
                .any(|c| matches!(c, BranchClass::Fallback))
            {
                return Ok(Err(format!(
                    "equation {i} (`{}`) has a fallback branch",
                    eq.key.constructor()
                )));
            }
        }
    }
    // ---- Safety analysis + first-round task synthesis. For each
    // equation, map touched base relations onto the local names its
    // body reads them through (formals shadow catalog names), then
    // require every touched occurrence to be a plain binding range —
    // those become delta positions; anything else (predicates,
    // selector bodies, computed constructor actuals) refuses.
    // (equation, branch count, delta positions, seeded (slot, delta)).
    type PlannedEq = (usize, usize, Vec<usize>, Vec<(usize, Relation)>);
    let mut planned: Vec<PlannedEq> = Vec::new();
    {
        let st = catalog.state.borrow();
        for i in 0..n {
            let eq = &st.equations[i];
            let Some(prov) = eq.provenance.as_ref() else {
                unreachable!("validated above");
            };
            // Local name → the touched relation's insert delta.
            let mut local: FxHashMap<Name, Relation> = FxHashMap::default();
            for (t, d) in deltas {
                local.insert(t.clone(), d.clone());
            }
            for (formal, _) in eq.overrides.iter() {
                // Formals shadow catalog names in the overlay.
                local.remove(formal);
                if let Some(t) = prov.get(formal) {
                    if let Some((_, d)) = deltas.iter().find(|(n, _)| n == t) {
                        local.insert(formal.clone(), d.clone());
                    }
                }
            }
            for (b_idx, branch) in eq.body.branches.iter().enumerate() {
                let rec_positions: Vec<usize> = match &eq.classes[b_idx] {
                    BranchClass::Linear(p) => p.clone(),
                    BranchClass::Static => Vec::new(),
                    BranchClass::Fallback => unreachable!("validated above"),
                };
                // Predicate: any touched relation reachable through it
                // (including selector bodies and constructor bodies)
                // makes the branch non-monotone in that relation.
                let mut reach = Reach::new(catalog.source);
                reach.formula(&branch.predicate);
                if reach.hits(&local, deltas) {
                    return Ok(Err(format!(
                        "equation {i} branch {b_idx}: predicate reads a touched relation"
                    )));
                }
                let mut delta_positions: Vec<(usize, Relation)> = Vec::new();
                for (p, (_, range)) in branch.bindings.iter().enumerate() {
                    match range {
                        RangeExpr::Rel(m) => {
                            if let Some(d) = local.get(m) {
                                delta_positions.push((p, d.clone()));
                            }
                        }
                        RangeExpr::Constructed { base, args, .. } => {
                            // Recursive position: plain-`Rel` actuals
                            // forward provenance into the child
                            // equation (validated there); computed
                            // actuals must not read touched state.
                            for actual in std::iter::once(&**base).chain(args.iter()) {
                                if matches!(actual, RangeExpr::Rel(_)) {
                                    continue;
                                }
                                let mut reach = Reach::new(catalog.source);
                                reach.range(actual);
                                if reach.hits(&local, deltas) {
                                    return Ok(Err(format!(
                                        "equation {i} branch {b_idx}: computed constructor \
                                         actual reads a touched relation"
                                    )));
                                }
                            }
                        }
                        other => {
                            // Selected / nested set-former binding
                            // range: untouched reads keep their value;
                            // touched reads are outside the delta
                            // rules.
                            let mut reach = Reach::new(catalog.source);
                            reach.range(other);
                            if reach.hits(&local, deltas) {
                                return Ok(Err(format!(
                                    "equation {i} branch {b_idx}: non-plain binding range \
                                     reads a touched relation"
                                )));
                            }
                        }
                    }
                }
                for (p, d) in delta_positions {
                    planned.push((i, b_idx, rec_positions.clone(), vec![(p, d)]));
                }
            }
        }
    }
    // ---- Seed: every equation re-enters at its previous fixpoint —
    // the same storage, so the indexes and statistics this solve's
    // cache copied from `prev` describe it (the whole point — no
    // O(|value|) rebuild per refresh).
    {
        let mut st = catalog.state.borrow_mut();
        for i in 0..n {
            st.current[i] = prev.equations[i].value.clone();
            st.delta[i] = Relation::new(prev.equations[i].value.schema().clone());
            st.equations[i].initialized = true;
        }
    }
    // ---- First-round tasks: one per (branch, delta position), with
    // the touched relation's insert delta bound at the delta position
    // (a plain binding position; the full *new* values at the others
    // plus one delta position per task cover every new combination,
    // and overlap between tasks deduplicates at absorb) and peer
    // equations bound at their seeded accumulated values. Branches with
    // no touched binding are skipped entirely: their static
    // contributions are already in the seed, and recursive deltas are
    // empty until round one commits.
    let mut tasks: Vec<BranchTask> = Vec::new();
    for (i, b_idx, rec_positions, delta_positions) in planned {
        let (branch, overrides) = {
            let st = catalog.state.borrow();
            let eq = &st.equations[i];
            (eq.body.branches[b_idx].clone(), eq.overrides.clone())
        };
        for (p, d) in delta_positions {
            // Distinct marker namespace (`Δdelta` + `b` + position) so
            // a warm task can never collide with the round-loop's
            // recursive-delta markers.
            tasks.push(delta_task(
                catalog,
                i,
                b_idx,
                &overrides,
                &branch,
                &rec_positions,
                p,
                (format!("{DELTA_MARKER}b{p}"), d),
            )?);
        }
    }
    Ok(Ok(tasks))
}

/// Evaluate one prepared task against the frozen snapshot. Runs on a
/// worker thread when the round batch-dispatches, inline on the solver
/// thread otherwise — identical code either way, which is what keeps
/// `threads = N` relation-identical to `threads = 1`.
fn run_task(
    snap: &Arc<EvalSnapshot>,
    knobs: &ExecKnobs,
    task: &BranchTask,
    parent: Option<dc_trace::SpanId>,
) -> Result<TaskOutcome, EvalError> {
    // Dispatched tasks run on worker threads where the solver's span
    // stack is invisible, so the dispatch site passes the evaluate
    // phase's id explicitly; inline runs (and panic retries) parent
    // off this thread's stack.
    let mut task_span = match parent {
        Some(p) => dc_trace::span_under(p, SpanKind::BranchTask),
        None => dc_trace::span(SpanKind::BranchTask),
    };
    if task_span.recording() {
        task_span.field("eq", task.eq);
        if let Some(b) = task.branch_idx {
            task_span.field("branch", b);
        }
        task_span.field("weight", task.weight);
    }
    let cat = SnapshotCatalog::new(snap.clone());
    let overlay = Overlay::new(&cat, task.overrides.clone());
    let mut ev = knobs.evaluator(&overlay);
    let out = ev.eval(&RangeExpr::SetFormer(task.body.clone()));
    // A governed abort names the branch and carries the evaluator's
    // planner trace (access-path decisions, degradations) out with it —
    // aborts are atomic, so this is the only trace the solve leaves.
    let value = out.map_err(|mut e| {
        if let (Some(b), EvalError::Solve(se)) = (task.branch_idx, &mut e) {
            let d = se.diag_mut();
            if d.site.is_empty() {
                d.site = format!("branch {b}");
            }
            d.notes.extend(ev.plan_notes().iter().cloned());
        }
        e
    })?;
    drop(ev);
    drop(overlay);
    Ok(TaskOutcome {
        value,
        effects: cat.into_effects(),
    })
}

/// Replay one task's effect log into solver state — single-threaded, at
/// the commit site, in log order. Registration replays through the same
/// `register` + `seed_equation` pair the sequential path uses
/// (idempotent by [`AppKey`]), so two tasks discovering the same
/// application converge deterministically.
fn replay_effects(
    source: &dyn ConstructorSource,
    state: &RefCell<State>,
    knobs: &ExecKnobs,
    effects: Vec<Effect>,
) -> Result<(), EvalError> {
    for effect in effects {
        match effect {
            Effect::Register {
                constructor,
                base,
                args,
                scalar_args,
            } => {
                let key = AppKey::new(&constructor, &base, &args, &scalar_args);
                let fresh = {
                    let mut st = state.borrow_mut();
                    if st.index.contains_key(&key) {
                        None
                    } else {
                        Some(st.register(source, key, base, args, scalar_args, None)?)
                    }
                };
                if let Some(j) = fresh {
                    seed_equation(source, state, j, knobs)?;
                }
            }
        }
    }
    Ok(())
}

/// Resolve the constructor application bound at `pos` to its equation
/// index, registering it on first sighting.
fn resolve_recursive_app(
    catalog: &SolverCatalog<'_>,
    eq_idx: usize,
    branch_idx: usize,
    overrides: &[(Name, Relation)],
    branch: &Branch,
    pos: usize,
) -> Result<usize, EvalError> {
    if let Some(&hit) = catalog.state.borrow().equations[eq_idx]
        .resolved_apps
        .get(&(branch_idx, pos))
    {
        return Ok(hit);
    }
    let (_, range) = &branch.bindings[pos];
    let RangeExpr::Constructed {
        base,
        constructor,
        args,
        scalar_args,
    } = range
    else {
        unreachable!("Linear classification guarantees a Constructed range");
    };
    // Evaluate base/args (application-free by classification) under the
    // equation overlay.
    let overlay = Overlay::new(catalog, overrides.to_vec());
    let mut ev = catalog.knobs.evaluator(&overlay);
    let mut bindings = Vec::new();
    let base_val = ev.eval_range(base, &mut bindings)?;
    let mut arg_vals = Vec::with_capacity(args.len());
    for a in args {
        arg_vals.push(ev.eval_range(a, &mut bindings)?);
    }
    let mut scalar_vals = Vec::with_capacity(scalar_args.len());
    for s in scalar_args {
        scalar_vals.push(ev.eval_scalar(s, &bindings)?);
    }
    let key = AppKey::new(constructor, &base_val, &arg_vals, &scalar_vals);
    let mut st = catalog.state.borrow_mut();
    let resolved = match st.index.get(&key) {
        Some(&idx) => idx,
        None => {
            let parent_prov = st.equations[eq_idx].provenance.clone();
            let slots = std::iter::once(&**base)
                .chain(args.iter())
                .map(|r| provenance_slot(r, parent_prov.as_ref(), overrides))
                .collect::<Vec<_>>();
            st.register(
                catalog.source,
                key,
                base_val,
                arg_vals,
                scalar_vals,
                Some(slots),
            )?
        }
    };
    st.equations[eq_idx]
        .resolved_apps
        .insert((branch_idx, pos), resolved);
    Ok(resolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::builder::*;
    use dc_calculus::env::MapCatalog;
    use dc_value::{tuple, Domain, Schema};

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn aheadrel() -> Schema {
        Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)])
    }

    fn chain(n: usize) -> Relation {
        Relation::from_tuples(
            infrontrel(),
            (0..n).map(|i| tuple![format!("o{i}"), format!("o{}", i + 1)]),
        )
        .unwrap()
    }

    /// `ahead` exactly as in §3.1.
    fn ahead() -> Constructor {
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

    struct TestSource {
        catalog: MapCatalog,
        ctors: Vec<Constructor>,
    }

    impl ConstructorSource for TestSource {
        fn base_catalog(&self) -> &dyn Catalog {
            &self.catalog
        }
        fn constructor_def(&self, name: &str) -> Result<Constructor, EvalError> {
            self.ctors
                .iter()
                .find(|c| c.name == name)
                .cloned()
                .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))
        }
    }

    fn cfg(strategy: Strategy) -> FixpointConfig {
        FixpointConfig {
            strategy,
            max_iterations: 10_000,
            ..FixpointConfig::default()
        }
    }

    #[test]
    fn transitive_closure_naive_and_seminaive_agree() {
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead()],
        };
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let (out, stats) =
                solve(&src, "ahead", chain(5), vec![], vec![], &cfg(strategy)).unwrap();
            // closure of a 5-edge chain: 5+4+3+2+1 = 15 pairs
            assert_eq!(out.len(), 15, "{strategy:?}");
            assert!(out.contains(&tuple!["o0", "o5"]));
            assert_eq!(stats.equations, 1);
        }
    }

    #[test]
    fn result_schema_attribute_names_conformed() {
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead()],
        };
        let (out, _) = solve(
            &src,
            "ahead",
            chain(2),
            vec![],
            vec![],
            &cfg(Strategy::SemiNaive),
        )
        .unwrap();
        let names: Vec<&str> = out
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["head", "tail"]);
    }

    #[test]
    fn empty_base_converges_immediately() {
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead()],
        };
        let (out, stats) = solve(
            &src,
            "ahead",
            Relation::new(infrontrel()),
            vec![],
            vec![],
            &cfg(Strategy::SemiNaive),
        )
        .unwrap();
        assert!(out.is_empty());
        assert!(stats.iterations <= 2);
    }

    #[test]
    fn iteration_counts_scale_with_longest_path() {
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead()],
        };
        let (_, s8) = solve(
            &src,
            "ahead",
            chain(8),
            vec![],
            vec![],
            &cfg(Strategy::Naive),
        )
        .unwrap();
        let (_, s16) = solve(
            &src,
            "ahead",
            chain(16),
            vec![],
            vec![],
            &cfg(Strategy::Naive),
        )
        .unwrap();
        assert!(s16.iterations > s8.iterations);
        // Naive TC with the right-linear rule closes a chain of n edges
        // in ~n rounds.
        assert!(
            s8.iterations >= 8 && s8.iterations <= 10,
            "{}",
            s8.iterations
        );
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut edges = chain(4);
        edges.insert(tuple!["o4", "o0"]).unwrap(); // close the cycle
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead()],
        };
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let (out, _) =
                solve(&src, "ahead", edges.clone(), vec![], vec![], &cfg(strategy)).unwrap();
            // Complete closure of a 5-cycle: 25 pairs.
            assert_eq!(out.len(), 25, "{strategy:?}");
        }
    }

    /// The paper's `strange` example (§3.3): non-monotone but
    /// convergent. Rel = {0,…,6} ⇒ limit {0,2,4,6}. Only the naive
    /// strategy is sound for non-monotone bodies.
    #[test]
    fn strange_converges_to_even_numbers() {
        let cardrel = Schema::of(&[("number", Domain::Card)]);
        let strange = Constructor {
            name: "strange".into(),
            base_param: ("Baserel".into(), cardrel.clone()),
            rel_params: vec![],
            scalar_params: vec![],
            result: cardrel.clone(),
            body: SetFormer {
                branches: vec![Branch::each(
                    "r",
                    rel("Baserel"),
                    not(some(
                        "s",
                        rel("Baserel").construct("strange", vec![]),
                        eq(attr("r", "number"), add(attr("s", "number"), cnst(1u64))),
                    )),
                )],
            },
        };
        let base = Relation::from_tuples(cardrel, (0u64..=6).map(|i| tuple![i])).unwrap();
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![strange],
        };
        let (out, _) = solve(&src, "strange", base, vec![], vec![], &cfg(Strategy::Naive)).unwrap();
        let nums: Vec<u64> = out
            .sorted_tuples()
            .iter()
            .map(|t| t.get(0).as_card().unwrap())
            .collect();
        assert_eq!(nums, vec![0, 2, 4, 6]);
    }

    /// The paper's `nonsense` example (§3.3): the iteration oscillates
    /// `∅, Rel, ∅, Rel, …` and has no limit — detected as
    /// non-convergent.
    #[test]
    fn nonsense_detected_as_non_convergent() {
        let anyrel = Schema::of(&[("x", Domain::Int)]);
        let nonsense = Constructor {
            name: "nonsense".into(),
            base_param: ("Rel".into(), anyrel.clone()),
            rel_params: vec![],
            scalar_params: vec![],
            result: anyrel.clone(),
            body: SetFormer {
                branches: vec![Branch::each(
                    "r",
                    rel("Rel"),
                    not(member("r", rel("Rel").construct("nonsense", vec![]))),
                )],
            },
        };
        let base = Relation::from_tuples(anyrel, vec![tuple![1i64], tuple![2i64]]).unwrap();
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![nonsense],
        };
        let err = solve(
            &src,
            "nonsense",
            base,
            vec![],
            vec![],
            &cfg(Strategy::Naive),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::NonConvergent { .. }));
    }

    /// Mutual recursion exactly as §3.1: `ahead` and `above` defined
    /// over Infront and Ontop.
    #[test]
    fn mutual_recursion_ahead_above() {
        let ontoprel = Schema::of(&[("top", Domain::Str), ("base", Domain::Str)]);
        let aboverel = Schema::of(&[("high", Domain::Str), ("low", Domain::Str)]);

        // CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel
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
        // CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel
        let above_m = Constructor {
            name: "above".into(),
            base_param: ("Rel".into(), ontoprel.clone()),
            rel_params: vec![("Infront".into(), infrontrel())],
            scalar_params: vec![],
            result: aboverel.clone(),
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

        // Scene: vase on table; table in front of chair; lamp in front
        // of the vase.
        let infront = Relation::from_tuples(
            infrontrel(),
            vec![tuple!["table", "chair"], tuple!["lamp", "vase"]],
        )
        .unwrap();
        let ontop = Relation::from_tuples(ontoprel, vec![tuple!["vase", "table"]]).unwrap();

        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead_m, above_m],
        };
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            // Ontop{above(Infront)}: the vase (on the table, which is in
            // front of the chair) is above/ahead of the chair — the
            // paper's motivating example.
            let (above_out, stats) = solve(
                &src,
                "above",
                ontop.clone(),
                vec![infront.clone()],
                vec![],
                &cfg(strategy),
            )
            .unwrap();
            assert!(above_out.contains(&tuple!["vase", "table"]), "{strategy:?}");
            assert!(above_out.contains(&tuple!["vase", "chair"]), "{strategy:?}");
            assert_eq!(stats.equations, 2, "{strategy:?}");

            // Infront{ahead(Ontop)}: the lamp (in front of the vase,
            // which is above the chair) is ahead of the chair — needs
            // the `above` equation, i.e. genuine mutual recursion.
            let (ahead_out, stats) = solve(
                &src,
                "ahead",
                infront.clone(),
                vec![ontop.clone()],
                vec![],
                &cfg(strategy),
            )
            .unwrap();
            assert!(
                ahead_out.contains(&tuple!["table", "chair"]),
                "{strategy:?}"
            );
            assert!(ahead_out.contains(&tuple!["lamp", "table"]), "{strategy:?}");
            assert!(ahead_out.contains(&tuple!["lamp", "chair"]), "{strategy:?}");
            assert!(
                !ahead_out.contains(&tuple!["vase", "chair"]),
                "{strategy:?}"
            );
            assert_eq!(stats.equations, 2, "{strategy:?}");
        }
    }

    /// Scalar parameters: bounded closure `ahead_k` via a CARDINAL
    /// step-count encoded as constant in the body.
    #[test]
    fn scalar_params_partial_evaluated() {
        let numrel = Schema::of(&[("n", Domain::Int)]);
        // CONSTRUCTOR below(K: INTEGER) FOR Rel: numrel: numrel
        //   EACH r IN Rel: r.n < K
        let below = Constructor {
            name: "below".into(),
            base_param: ("Rel".into(), numrel.clone()),
            rel_params: vec![],
            scalar_params: vec![("K".into(), Domain::Int)],
            result: numrel.clone(),
            body: SetFormer {
                branches: vec![Branch::each(
                    "r",
                    rel("Rel"),
                    lt(attr("r", "n"), param("K")),
                )],
            },
        };
        let base = Relation::from_tuples(numrel, (0..10).map(|i| tuple![i as i64])).unwrap();
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![below],
        };
        let (out, _) = solve(
            &src,
            "below",
            base.clone(),
            vec![],
            vec![Value::Int(4)],
            &cfg(Strategy::SemiNaive),
        )
        .unwrap();
        assert_eq!(out.len(), 4);
        // Different scalar args are different applications.
        let (out7, _) = solve(
            &src,
            "below",
            base,
            vec![],
            vec![Value::Int(7)],
            &cfg(Strategy::SemiNaive),
        )
        .unwrap();
        assert_eq!(out7.len(), 7);
    }

    #[test]
    fn scalar_param_domain_checked() {
        let numrel = Schema::of(&[("n", Domain::Int)]);
        let below = Constructor {
            name: "below".into(),
            base_param: ("Rel".into(), numrel.clone()),
            rel_params: vec![],
            scalar_params: vec![("K".into(), Domain::Int)],
            result: numrel.clone(),
            body: SetFormer {
                branches: vec![Branch::each(
                    "r",
                    rel("Rel"),
                    lt(attr("r", "n"), param("K")),
                )],
            },
        };
        let base = Relation::new(numrel);
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![below],
        };
        let err = solve(
            &src,
            "below",
            base,
            vec![],
            vec![Value::str("oops")],
            &cfg(Strategy::SemiNaive),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Type(_)));
    }

    #[test]
    fn arity_mismatches_rejected() {
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead()],
        };
        // `ahead` takes no relation args.
        let err = solve(
            &src,
            "ahead",
            chain(2),
            vec![chain(1)],
            vec![],
            &cfg(Strategy::Naive),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_constructor_errors() {
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![],
        };
        let err = solve(
            &src,
            "ghost",
            chain(1),
            vec![],
            vec![],
            &cfg(Strategy::Naive),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::UnknownConstructor(_)));
    }

    #[test]
    fn semi_naive_fewer_or_equal_iterations_than_naive() {
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead()],
        };
        let (out_n, s_n) = solve(
            &src,
            "ahead",
            chain(12),
            vec![],
            vec![],
            &cfg(Strategy::Naive),
        )
        .unwrap();
        let (out_s, s_s) = solve(
            &src,
            "ahead",
            chain(12),
            vec![],
            vec![],
            &cfg(Strategy::SemiNaive),
        )
        .unwrap();
        assert_eq!(out_n, out_s);
        assert!(s_s.iterations <= s_n.iterations + 1);
    }

    #[test]
    fn branch_classification() {
        let a = ahead();
        assert_eq!(classify_branch(&a.body.branches[0]), BranchClass::Static);
        assert_eq!(
            classify_branch(&a.body.branches[1]),
            BranchClass::Linear(vec![1])
        );
        // Application under a quantifier ⇒ fallback.
        let fb = Branch::each(
            "r",
            rel("Rel"),
            some("x", rel("Rel").construct("c", vec![]), tru()),
        );
        assert_eq!(classify_branch(&fb), BranchClass::Fallback);
    }

    #[test]
    fn app_key_order_independent() {
        let r1 =
            Relation::from_tuples(infrontrel(), vec![tuple!["a", "b"], tuple!["b", "c"]]).unwrap();
        let mut r2 = Relation::new(infrontrel());
        r2.insert(tuple!["b", "c"]).unwrap();
        r2.insert(tuple!["a", "b"]).unwrap();
        assert_eq!(
            AppKey::new("c", &r1, &[], &[]),
            AppKey::new("c", &r2, &[], &[])
        );
    }

    /// One edge as an insert delta.
    fn edge(a: &str, b: &str) -> Relation {
        Relation::from_tuples(infrontrel(), vec![tuple![a, b]]).unwrap()
    }

    #[test]
    fn warm_start_matches_cold_resolve() {
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead()],
        };
        let cfg = cfg(Strategy::SemiNaive);
        let (v0, sys, _) = solve_tracked(
            &src,
            "ahead",
            chain(12),
            vec![],
            vec![],
            "Infront",
            &[],
            &cfg,
        )
        .unwrap();
        assert_eq!(v0.len(), 12 * 13 / 2);

        // Extend the chain by one edge at the tail.
        let mut base = chain(12);
        base.insert(tuple!["o12", "o13"]).unwrap();
        let deltas = vec![("Infront".to_string(), edge("o12", "o13"))];
        let outcome = solve_warm(
            &src,
            "ahead",
            base.clone(),
            vec![],
            vec![],
            "Infront",
            &[],
            &sys,
            &deltas,
            &cfg,
        )
        .unwrap();
        let WarmOutcome::Solved {
            value,
            added,
            system,
            ..
        } = outcome
        else {
            panic!("warm start unexpectedly refused");
        };
        let (cold, _) = solve(&src, "ahead", base, vec![], vec![], &cfg).unwrap();
        assert_eq!(value, cold);
        // The exact output delta: every (oi, o13).
        assert_eq!(added.len(), 13);
        assert_eq!(
            algebra::union(&v0, &added).unwrap(),
            value,
            "prev ∪ added reconstructs the new result"
        );
        assert_eq!(system.value(), &value);
    }

    #[test]
    fn warm_start_chains_across_commits() {
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead()],
        };
        let cfg = cfg(Strategy::SemiNaive);
        let mut base = chain(4);
        let (mut val, mut sys, _) = solve_tracked(
            &src,
            "ahead",
            base.clone(),
            vec![],
            vec![],
            "Infront",
            &[],
            &cfg,
        )
        .unwrap();
        // Grow the chain one edge per "commit", warm each time.
        for k in 5..12 {
            let e = edge(&format!("o{}", k - 1), &format!("o{k}"));
            base.insert(tuple![format!("o{}", k - 1), format!("o{k}")])
                .unwrap();
            let outcome = solve_warm(
                &src,
                "ahead",
                base.clone(),
                vec![],
                vec![],
                "Infront",
                &[],
                &sys,
                &[("Infront".to_string(), e)],
                &cfg,
            )
            .unwrap();
            let WarmOutcome::Solved {
                value,
                added,
                system,
                ..
            } = outcome
            else {
                panic!("refused at k={k}");
            };
            assert_eq!(algebra::union(&val, &added).unwrap(), value);
            val = value;
            sys = system;
        }
        let (cold, _) = solve(&src, "ahead", base, vec![], vec![], &cfg).unwrap();
        assert_eq!(val, cold);
        assert_eq!(val.len(), 11 * 12 / 2);
    }

    #[test]
    fn warm_start_refuses_naive_strategy_and_shape_changes() {
        let src = TestSource {
            catalog: MapCatalog::new(),
            ctors: vec![ahead()],
        };
        let semi = cfg(Strategy::SemiNaive);
        let (_, sys, _) = solve_tracked(
            &src,
            "ahead",
            chain(3),
            vec![],
            vec![],
            "Infront",
            &[],
            &semi,
        )
        .unwrap();
        let outcome = solve_warm(
            &src,
            "ahead",
            chain(4),
            vec![],
            vec![],
            "Infront",
            &[],
            &sys,
            &[("Infront".to_string(), edge("o3", "o4"))],
            &cfg(Strategy::Naive),
        )
        .unwrap();
        assert!(matches!(outcome, WarmOutcome::Refused { .. }));
    }

    #[test]
    fn warm_start_refuses_touched_predicate_relation() {
        // ahead-with-filter: the join predicate also requires the pair
        // NOT to be in `Blocked` — non-monotone in `Blocked`.
        let filtered = Constructor {
            name: "ahead_ok".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: aheadrel(),
            body: SetFormer {
                branches: vec![Branch::each(
                    "r",
                    rel("Rel"),
                    not(member("r", rel("Blocked"))),
                )],
            },
        };
        let blocked = Relation::new(infrontrel());
        let src = TestSource {
            catalog: MapCatalog::new().with_relation("Blocked", blocked),
            ctors: vec![filtered],
        };
        let cfg = cfg(Strategy::SemiNaive);
        let (_, sys, _) = solve_tracked(
            &src,
            "ahead_ok",
            chain(3),
            vec![],
            vec![],
            "Infront",
            &[],
            &cfg,
        )
        .unwrap();
        // Touching only the base is warm-safe (the predicate reads
        // `Blocked`, which is untouched).
        let mut base = chain(3);
        base.insert(tuple!["o3", "o4"]).unwrap();
        let ok = solve_warm(
            &src,
            "ahead_ok",
            base.clone(),
            vec![],
            vec![],
            "Infront",
            &[],
            &sys,
            &[("Infront".to_string(), edge("o3", "o4"))],
            &cfg,
        )
        .unwrap();
        assert!(matches!(ok, WarmOutcome::Solved { .. }));
        // Touching `Blocked` is not.
        let refused = solve_warm(
            &src,
            "ahead_ok",
            base,
            vec![],
            vec![],
            "Infront",
            &[],
            &sys,
            &[("Blocked".to_string(), edge("o0", "o1"))],
            &cfg,
        )
        .unwrap();
        assert!(matches!(refused, WarmOutcome::Refused { .. }));
    }
}
