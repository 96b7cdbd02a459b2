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
//! # How the solver picks a strategy
//!
//! Once per solve, before the first round, the solver walks every
//! constructor reachable from the root's definition (through bodies and
//! selector predicates) and decides:
//!
//! * **Semi-naive** for positive systems — differential evaluation:
//!   branches whose recursive references occur only as whole binding
//!   ranges are re-evaluated with one recursive range restricted to the
//!   previous round's *delta* (per recursive position), and each
//!   equation's value grows in place by the round's new tuples. That
//!   turns the O(n) redundant rediscovery of the naive loop into work
//!   proportional to new tuples. Branches with recursive references in
//!   other positions (e.g. under quantifiers) are re-evaluated whole —
//!   the differential rewrite is applied only where it is sound.
//! * **Naive** when any reachable constructor was admitted without the
//!   §3.3 positivity check ([`Defs::is_unchecked`]) — delta
//!   evaluation needs monotone rules — or when
//!   [`FixpointConfig::strategy`] asks for it as the reference: every
//!   branch is re-evaluated whole each round and the union *replaces*
//!   the equation's value, the literal reading of the paper's loop.
//!
//! Both run the same per-branch round tasks; they differ in which tasks
//! a round prepares and in how the commit applies their results.
//!
//! Convergence: positive (monotone) systems reach the LFP in finitely
//! many steps (§3.3 lemma + Tarski). For non-positive systems the naive
//! loop detects period-2 oscillation (the paper's `nonsense`) and
//! reports [`EvalError::NonConvergent`]; genuinely convergent
//! non-monotone systems (the paper's `strange`) simply converge.
//!
//! # Rounds
//!
//! A solve runs on the thread that calls it, one round after another,
//! and each round in three stages — the fields `prep_us`,
//! `evaluate_us` and `commit_us` of its one `round` trace record:
//!
//! * **Prep** reads solver state and builds the round's branch tasks:
//!   one prepared task shape each — built when its equation is seeded
//!   (a warm phase's on first use): the branch, its equality atoms, its
//!   schema and leaf — and the relations the task is supplied by
//!   binding position this round: a peer's delta, or a warm phase's
//!   base tuples or over-deleted set, at the shape's own positions, and
//!   the peers' current values at the other recursive positions.
//! * **Evaluate** runs the tasks in task order (equation-ascending,
//!   then branch order) with the round loop's one evaluator, each task's
//!   formals bound over the solver's own catalog while it runs and its
//!   relations supplied in place of their positions' ranges, and stages
//!   each output under its equation. Base names
//!   resolve in the solve's universe, applications to the current
//!   iterate; an application met for the first time registers there
//!   and then, through the one instantiation path, and reads ∅ until its
//!   equation's first commit. Each task's `branch_task` span nests
//!   under the round; the round emits a task's access path when its
//!   branch is first planned and when the path's steps change, and each
//!   distinct correlated range left unnested once per solve.
//! * **Commit** applies every equation's staged output at once, the
//!   Jacobi update: `current` moves only here. Indexes live in the
//!   solve's one [`AccessCache`], keyed by storage identity — a
//!   supplied relation's as a named one's — and the commit
//!   [`AccessCache::advance`]s each grown equation value.
//!
//! A panic anywhere inside a solve is caught at the solver's entry and
//! returned as a structured [`SolveError::WorkerPanic`].

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use dc_calculus::ast::{
    CmpOp, Formula, Name, RangeExpr, ScalarExpr, SelectorDef, SetFormer, Target,
};
use dc_calculus::eval::PreparedBranch;
use dc_calculus::rewrite;
use dc_calculus::{AccessCache, Catalog, EvalError, Evaluator, PlanEvent};
use dc_governor::fail::{self, Site};
use dc_governor::{Budget, Meter, SolveDiag, SolveError};
use dc_relation::{algebra, Relation, RelationError};
use dc_trace::metrics::{Counter, Histogram, MetricsRegistry};
use dc_trace::SpanKind;
use dc_value::{FxHashMap, Value};

use crate::catalog::Defs;

mod reach;

pub use reach::Reach;
use reach::Universe;

/// Fixpoint evaluation strategy — see the [module docs](self) for how
/// the solver picks one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Full re-evaluation per round (the paper's REPEAT loop).
    Naive,
    /// Differential (delta-driven) evaluation where sound.
    #[default]
    SemiNaive,
}

/// The round ceiling of every solve: a system still changing after this
/// many rounds is reported [`SolveError::Diverged`]. A budget's round
/// ceiling ([`Budget::with_max_rounds`]) can set a lower one; it is
/// kept for budgets too, since a budget need set none.
const MAX_ROUNDS: usize = 100_000;

/// Configuration of a fixpoint run.
#[derive(Debug, Clone)]
pub struct FixpointConfig {
    /// The reference override: `Naive` runs every system naive.
    /// `SemiNaive` (the default) leaves the choice to the solver, which
    /// runs naive exactly when an unchecked constructor is reachable
    /// from the root.
    pub strategy: Strategy,
    /// Resource envelope for each solve, if any. The budget is *armed*
    /// (clock captured) at the start of every solve, so a 10 ms
    /// deadline means 10 ms per solve, not 10 ms since configuration.
    /// A tripped budget aborts atomically with a structured
    /// [`dc_governor::SolveError`]; `None` means unlimited.
    pub budget: Option<Budget>,
    /// Metrics registry solve-level counters (rounds, equations, delta
    /// tuples, planner decisions) are recorded into, if the owner
    /// threads one through — the one place a solve's numbers are read.
    /// `Database` and the serving layer each install their own; `None`
    /// keeps the solver metric-free.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for FixpointConfig {
    fn default() -> FixpointConfig {
        FixpointConfig {
            strategy: Strategy::SemiNaive,
            budget: None,
            metrics: None,
        }
    }
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

/// One constructor application by actual values: its identity and what
/// an equation is instantiated over. The root, every application a body
/// names, and every application a round task meets first all enter the
/// system as one of these.
struct Application {
    key: AppKey,
    base: Relation,
    args: Vec<Relation>,
    scalar_args: Vec<Value>,
}

impl Application {
    fn new(
        constructor: &str,
        base: Relation,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Application {
        Application {
            key: AppKey::new(constructor, &base, &args, &scalar_args),
            base,
            args,
            scalar_args,
        }
    }
}

/// How a branch participates in semi-naive evaluation, decided when its
/// equation is seeded.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BranchClass {
    /// No constructor application anywhere: evaluate once.
    Static,
    /// Constructor applications occur *only* as whole binding ranges
    /// whose actuals are application-free: differential evaluation is
    /// sound. One `(binding position, peer equation)` per recursive
    /// range.
    Linear(Vec<(usize, usize)>),
    /// Anything else: re-evaluate whole each round.
    Fallback,
}

/// Formal names with the actuals bound to them, `Arc`-shared so a task
/// binds a pointer.
type Formals = Arc<Vec<(Name, Relation)>>;

/// One instantiated equation of the system.
struct Equation {
    /// The application identity (diagnostics: trip sites name the
    /// offending equation by constructor).
    key: AppKey,
    /// Body with the constructor's scalar parameters substituted, its
    /// branches the source of the task shapes. Shared behind an `Arc`
    /// so seeding reads it without holding the state.
    body: Arc<SetFormer>,
    /// Formal name → actual value (base + rel params), bound while the
    /// equation's tasks run.
    overrides: Formals,
    /// Declared result schema (values are conformed to it).
    result: dc_value::Schema,
    /// Per-branch semi-naive classification, filled when seeded.
    classes: Vec<BranchClass>,
    /// The prepared task shapes of each branch, by (branch, shape):
    /// those the rounds run built when seeded, the warm phases' on
    /// first use.
    shapes: FxHashMap<(usize, Shape), Rc<Prepared>>,
    /// Has the Static-branch contribution been computed yet?
    initialized: bool,
}

/// Mutable solver state shared with the evaluation catalog.
struct State {
    equations: Vec<Equation>,
    index: FxHashMap<AppKey, usize>,
    current: Vec<Relation>,
    delta: Vec<Relation>,
    /// Per equation, the tuples a warm deletion's over-delete phase
    /// collected (`D`); empty outside that phase's solves.
    doomed: Vec<Relation>,
}

impl State {
    /// Add the equation for `app`, which is not registered yet, and
    /// return its index. Its body is seeded separately.
    fn register(&mut self, universe: &Universe, app: Application) -> Result<usize, EvalError> {
        // Checked in one order, so a malformed application raises the
        // same error class wherever it is met: unknown constructor,
        // relation arity, scalar arity, scalar domains.
        let ctor = universe.defs.constructor(app.key.constructor())?;
        ctor.check_actuals(app.args.len(), &app.scalar_args)?;
        let overrides = ctor
            .rel_formals()
            .cloned()
            .zip(std::iter::once(app.base).chain(app.args))
            .collect();
        let i = self.equations.len();
        self.current.push(Relation::new(ctor.result.clone()));
        self.delta.push(Relation::new(ctor.result.clone()));
        self.doomed.push(Relation::new(ctor.result.clone()));
        self.index.insert(app.key.clone(), i);
        self.equations.push(Equation {
            key: app.key,
            body: Arc::new(ctor.bind_scalars(&app.scalar_args)),
            overrides: Arc::new(overrides),
            result: ctor.result.clone(),
            classes: Vec::new(),
            shapes: FxHashMap::default(),
            initialized: false,
        });
        Ok(i)
    }
}

impl FixpointConfig {
    /// The one evaluator builder, for queries and solves alike: an
    /// evaluator over `catalog` that counts into
    /// [`FixpointConfig::metrics`], is governed by `meter` if one is
    /// given.
    pub fn evaluator<'e>(&self, catalog: &'e dyn Catalog, meter: Option<Meter>) -> Evaluator<'e> {
        let mut ev = Evaluator::new(catalog);
        if let Some(m) = &self.metrics {
            ev = ev.with_metrics(m.clone());
        }
        if let Some(meter) = meter {
            ev = ev.with_meter(meter);
        }
        ev
    }
}

/// Solve the system rooted at `constructor(base, args, scalar_args)`
/// cold — definitions from `defs`; relations, selectors and scalar
/// parameters from `cat` — and capture the converged system's
/// materialised state
/// (per-equation values and the access structures maintained over
/// them, and the storage of every equation's actuals), so a later
/// [`solve_warm`] can re-enter the semi-naive rounds instead of
/// starting over. Run statistics go to [`FixpointConfig::metrics`].
pub fn solve(
    defs: &Defs,
    cat: &dyn Catalog,
    constructor: &str,
    base: Relation,
    args: Vec<Relation>,
    scalar_args: Vec<Value>,
    cfg: &FixpointConfig,
) -> Result<SolvedSystem, EvalError> {
    isolate(|| {
        let root = Application::new(constructor, base, args, scalar_args);
        Ok(Solver::new(defs, cat, root, None, cfg)?.run()?.system)
    })
}

/// Re-solve `constructor(base, args, scalar_args)` warm: seed every
/// equation from `prev` (the system captured by a previous [`solve`]
/// or [`solve_warm`], over the *same* system shape) and maintain it by
/// `deltas` — per touched catalog relation, the tuples inserted and
/// deleted since `prev` was captured, and the storage of its value
/// before and after. The actuals (`base`/`args`) are the *new*
/// relation values.
///
/// Each actual of each equation is matched by storage identity
/// ([`Relation::storage_id`]; ids are never reused, so equal ids mean
/// equal content): the storage the previous solve read is unchanged; a
/// touched relation's new storage, whose old storage the previous
/// solve read, changed by that relation's delta; anything else
/// refuses ([`Refusal::UnmatchedActual`]).
///
/// Insertions re-enter the semi-naive rounds from the inserted tuples.
/// Deletions run delete-and-rederive (DRed) over the same rounds:
///
/// 1. **Over-delete.** Rounds seeded from the deleted tuples, against
///    the previous equation values, collect every value tuple with a
///    derivation through a deleted tuple (or through a tuple collected
///    before) into a per-equation over-deleted set `D`.
/// 2. **Remove.** `D` leaves each value; the cached indexes shrink
///    with it through [`AccessCache::advance`], their bucket counts
///    exact.
/// 3. **Re-derive.** One round evaluates every branch restricted to
///    heads in `D` (`D` is bound as a relation the planner scans, the
///    rest is probed) over the new state. The survivors, together with
///    the inserted tuples' round, seed ordinary semi-naive rounds.
///
/// The delivered delta is net: `added = final − old`, `removed = old −
/// final`.
///
/// `prev` is consumed: its values and the indexes cached over them are
/// maintained in place — a value is copied only where the caller still
/// holds a handle on it, an index never.
///
/// Soundness rests on monotonicity: every touched relation must be
/// read only through plain binding ranges, and the system must run
/// semi-naive. The function re-derives that property from the
/// registered system itself and refuses ([`WarmOutcome::Refused`],
/// with a typed [`Refusal`]) a system the solver runs naive, a changed
/// system shape, an actual matching no storage the rule above accepts,
/// a fallback branch, and any touched relation reachable by name
/// through a predicate, selector body or computed constructor actual.
/// A refusal is not an error; the caller re-solves cold via [`solve`].
#[allow(clippy::too_many_arguments)]
pub fn solve_warm(
    defs: &Defs,
    cat: &dyn Catalog,
    constructor: &str,
    base: Relation,
    args: Vec<Relation>,
    scalar_args: Vec<Value>,
    prev: SolvedSystem,
    deltas: &[(Name, BaseDelta)],
    cfg: &FixpointConfig,
) -> Result<WarmOutcome, EvalError> {
    isolate(|| {
        let root = Application::new(constructor, base, args, scalar_args);
        let SolvedSystem { equations, access } = prev;
        let solver = Solver::new(defs, cat, root, Some(access), cfg)?;
        Ok(match solver.warm_start(equations, deltas) {
            Ok(plan) => {
                let run = solver.maintain(plan)?;
                WarmOutcome::Solved {
                    value: run.system.value().clone(),
                    added: run.added,
                    removed: run.removed,
                    system: run.system,
                }
            }
            Err(reason) => WarmOutcome::Refused { reason },
        })
    })
}

/// The solver's one panic boundary, at its entry: a panic anywhere
/// inside a solve — evaluator, planner, an injected `delta_commit`
/// panic, a bug in a body — becomes a structured
/// [`SolveError::WorkerPanic`] instead of unwinding into the caller.
/// `AssertUnwindSafe` is sound because a solve never changes what its
/// definitions and catalog resolve: everything it builds is
/// solver-private and unwinds with it, so every abort leaves the
/// caller at its pre-solve state.
fn isolate<T>(solve: impl FnOnce() -> Result<T, EvalError>) -> Result<T, EvalError> {
    catch_unwind(AssertUnwindSafe(solve))
        .unwrap_or_else(|payload| Err(EvalError::Solve(SolveError::from_panic(&*payload))))
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
    /// The storage ids of the actuals the solve read, base first.
    actuals: Vec<u64>,
}

/// The materialised state of a converged equation system, returned by
/// [`solve`] and consumed (and re-produced) by [`solve_warm`].
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

    /// Hash indexes cached over the equation values.
    pub fn index_count(&self) -> usize {
        self.access.index_count()
    }
}

/// What one commit did to one base relation: the storage of its value
/// before and after, the tuples it inserted and the tuples it deleted,
/// both net of the other (a tuple inserted and deleted again by the
/// same batch is in neither).
#[derive(Debug, Clone)]
pub struct BaseDelta {
    /// [`Relation::storage_id`] of the old value.
    pub before: u64,
    /// [`Relation::storage_id`] of the new value.
    pub after: u64,
    /// Tuples the new value holds and the old one did not.
    pub inserted: Relation,
    /// Tuples the old value held and the new one does not.
    pub deleted: Relation,
}

impl BaseDelta {
    /// Does the commit change the relation's content?
    fn changes(&self) -> bool {
        !self.inserted.is_empty() || !self.deleted.is_empty()
    }
}

/// Why a warm re-solve was refused — one variant per check
/// [`solve_warm`] makes, plus the caller's own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// The solver runs the system naive (an unchecked constructor is
    /// reachable, or the configuration asks for it): delta rules need
    /// monotone bodies.
    NaiveStrategy,
    /// The freshly instantiated system is not the captured one,
    /// equation for equation.
    ShapeChanged,
    /// An equation's formal is bound to a relation that is neither the
    /// storage the previous solve read nor a touched relation's new
    /// storage grown from it — a computed range, say, whose value is
    /// fresh storage each solve.
    UnmatchedActual {
        /// Equation index.
        equation: usize,
        /// Its constructor.
        constructor: Name,
        /// The formal.
        formal: Name,
    },
    /// An equation has a branch the solver re-evaluates whole.
    FallbackBranch {
        /// Equation index.
        equation: usize,
        /// Its constructor.
        constructor: Name,
    },
    /// A touched relation is read outside a plain binding range
    /// (predicate, selector body, computed constructor actual).
    NonMonotoneRead {
        /// Equation index.
        equation: usize,
        /// Its constructor.
        constructor: Name,
        /// The offending branch.
        branch: usize,
    },
    /// A relation the caller would take a delta of is missing.
    MissingRelation {
        /// The relation's name.
        relation: Name,
    },
}

impl Refusal {
    /// A stable label per variant, for spans and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Refusal::NaiveStrategy => "naive_strategy",
            Refusal::ShapeChanged => "shape_changed",
            Refusal::UnmatchedActual { .. } => "unmatched_actual",
            Refusal::FallbackBranch { .. } => "fallback_branch",
            Refusal::NonMonotoneRead { .. } => "non_monotone_read",
            Refusal::MissingRelation { .. } => "missing_relation",
        }
    }
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refusal::NaiveStrategy => write!(f, "warm start requires the semi-naive strategy"),
            Refusal::ShapeChanged => write!(f, "system shape changed"),
            Refusal::UnmatchedActual {
                equation,
                constructor,
                formal,
            } => write!(
                f,
                "equation {equation} (`{constructor}`) formal `{formal}` is bound to a \
                 relation no delta leads to"
            ),
            Refusal::FallbackBranch {
                equation,
                constructor,
            } => write!(
                f,
                "equation {equation} (`{constructor}`) has a fallback branch"
            ),
            Refusal::NonMonotoneRead {
                equation,
                constructor,
                branch,
            } => write!(
                f,
                "equation {equation} (`{constructor}`) branch {branch} reads a touched \
                 relation outside a plain binding range"
            ),
            Refusal::MissingRelation { relation } => {
                write!(f, "relation `{relation}` is missing")
            }
        }
    }
}

/// What a warm re-solve produced.
pub enum WarmOutcome {
    /// The warm start was sound and converged: the new root value, the
    /// exact two-way delta relative to the previous system, and the
    /// re-captured system for the next refresh.
    Solved {
        /// New root value.
        value: Relation,
        /// Root tuples the new value has and the previous one lacked.
        added: Relation,
        /// Root tuples the previous value had and the new one lacks —
        /// those that lost their last derivation.
        removed: Relation,
        /// Captured state for the next warm refresh.
        system: SolvedSystem,
    },
    /// The warm start could not be proven sound: the caller must fall
    /// back to a cold [`solve`].
    Refused {
        /// Which check refused.
        reason: Refusal,
    },
}

/// What a converged run produced.
struct Converged {
    /// Root tuples added relative to the warm seed (empty for a cold
    /// run).
    added: Relation,
    /// Root tuples removed relative to the warm seed (empty for a cold
    /// run and for a warm run without deletions).
    removed: Relation,
    system: SolvedSystem,
}

/// How a round's commit turns an equation's staged task output into
/// its delta — for Grow and Collect in one retain pass over the staged
/// relation, whose survivors are the delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Semi-naive: keep the staged tuples the value's insert accepts —
    /// that one insert is both the membership test and the growth.
    Grow,
    /// Naive: the staged value replaces the old one.
    Replace,
    /// Over-delete: keep the staged tuples that are in the (unchanged)
    /// value and that the equation's over-deleted set `D` accepts, by
    /// the same one insert.
    Collect,
}

/// Per-solve totals that outlive one call of [`Solver::rounds`];
/// [`Solver::finish`] writes the counts to the metrics registry.
#[derive(Default)]
struct Tally {
    rounds: usize,
    delta_tuples: u64,
    /// Tuples the round tasks' evaluators emitted — what
    /// [`SolveDiag::tuples`] reports when no budget meter counts them.
    emitted: u64,
    /// The root's accumulated additions — `Some` for warm runs only.
    added: Option<Relation>,
    /// The correlated ranges left unnested the solve has reported.
    not_unnested: Vec<PlanEvent>,
}

impl Tally {
    /// Emit a task's planner decisions as `plan` trace events: every
    /// access path (its evaluator records a path when its branch is
    /// first planned and when the path changes), and each correlated
    /// range left unnested once per solve.
    fn report(&mut self, events: Vec<PlanEvent>) {
        for ev in events {
            if let PlanEvent::NotUnnested { .. } = ev {
                if self.not_unnested.contains(&ev) {
                    continue;
                }
                self.not_unnested.push(ev.clone());
            }
            dc_trace::event(SpanKind::Plan, || (ev.to_string(), Vec::new()));
        }
    }
}

/// Binding positions of one branch, each with the tuples bound there.
type BoundAt = Vec<(usize, Relation)>;

/// What [`Solver::warm_start`] found to do: the first-round tasks of
/// inserted tuples, and per branch the positions that bind deleted ones.
#[derive(Default)]
struct WarmPlan {
    /// (equation, branch, binding position, the inserted tuples).
    inserts: Vec<(usize, usize, usize, Relation)>,
    /// (equation, branch, the positions binding deleted tuples).
    deletes: Vec<(usize, usize, BoundAt)>,
}

/// One solve: the equation system plus the catalog its bodies evaluate
/// against — formal names resolve through per-equation overrides, base
/// names in the universe, constructor applications to the *current
/// iterate* (registering new equations on first sight: dynamic
/// instantiation of the §3.2 system).
struct Solver {
    /// The base-catalog slice and the definitions the solve can reach,
    /// resolved once before the first registration.
    universe: Universe,
    state: RefCell<State>,
    /// The solve's configuration.
    cfg: FixpointConfig,
    /// The armed budget gauge of a budgeted solve: one per solve,
    /// shared (clones share counters) by the round loop and every
    /// evaluator. An unbudgeted solve arms none: its evaluators count
    /// their emitted tuples themselves and the solver sums them into
    /// [`Tally::emitted`].
    budget: Option<Meter>,
    /// The solve's access cache: every index any evaluation of this
    /// solve builds, keyed by the storage of the relation it describes
    /// — base relations and actuals (stable for the whole solve),
    /// equation values (advanced at commit), deltas (forgotten at
    /// commit).
    access: Arc<AccessCache>,
    /// The strategy decision, made once per solve in [`Solver::new`].
    naive: bool,
    /// Open for the whole solve; its rounds nest under it, and each
    /// round's branch tasks and `plan` events under the round.
    span: dc_trace::Span,
    t0: Instant,
}

impl Solver {
    /// Walk everything the root can reach, once: decide the strategy,
    /// resolve the solve's universe, then instantiate the system from
    /// the root (equation 0). `warm` is the previous system's cache,
    /// which the solve takes over.
    fn new(
        defs: &Defs,
        catalog: &dyn Catalog,
        root: Application,
        warm: Option<Arc<AccessCache>>,
        cfg: &FixpointConfig,
    ) -> Result<Solver, EvalError> {
        let t0 = Instant::now();
        let span = dc_trace::span(SpanKind::Solve).name_with(|| root.key.constructor().to_string());
        let mut reach = Reach::new(defs);
        reach.constructor(root.key.constructor());
        let naive = cfg.strategy == Strategy::Naive || reach.any_unchecked();
        // A warm start seeds the equation values from `prev`, storage
        // and all, so its entries are this solve's from the first round.
        let access = warm.unwrap_or_else(|| Arc::new(AccessCache::new(cfg.metrics.clone())));
        let solver = Solver {
            universe: reach.into_universe(catalog),
            state: RefCell::new(State {
                equations: Vec::new(),
                index: FxHashMap::default(),
                current: Vec::new(),
                delta: Vec::new(),
                doomed: Vec::new(),
            }),
            cfg: cfg.clone(),
            budget: cfg.budget.as_ref().map(Budget::meter),
            access,
            naive,
            span,
            t0,
        };
        solver.enter(root)?;
        Ok(solver)
    }

    /// The one instantiation path: the equation of `app`, registered
    /// and seeded on first sight.
    fn enter(&self, app: Application) -> Result<usize, EvalError> {
        if let Some(&i) = self.state.borrow().index.get(&app.key) {
            return Ok(i);
        }
        let i = self.state.borrow_mut().register(&self.universe, app)?;
        self.seed(i)?;
        Ok(i)
    }

    /// Evaluate the actuals of `app`, an application in equation
    /// `parent`'s body, under `parent`'s formals, and enter it. `None`
    /// when the key is value-dependent — the actuals themselves apply
    /// constructors, or the application reads a tuple variable bound
    /// around it — so the application registers on first sight while its
    /// round evaluates instead.
    fn instantiate(&self, parent: usize, app: &RangeExpr) -> Result<Option<usize>, EvalError> {
        let RangeExpr::Constructed {
            base,
            constructor,
            args,
            scalar_args,
        } = app
        else {
            return Ok(None);
        };
        let actuals = || std::iter::once(&**base).chain(args);
        if actuals().any(|r| !rewrite::collect_constructed(r).is_empty())
            || rewrite::mentions_free(app, |_| true)
        {
            return Ok(None);
        }
        let scope = BodyScope {
            solver: self,
            formals: RefCell::new(Some(
                self.state.borrow().equations[parent].overrides.clone(),
            )),
        };
        let mut ev = self.evaluator(&scope);
        let mut bindings = Vec::new();
        let base_val = ev.eval_range(base, &mut bindings)?;
        let arg_vals = args
            .iter()
            .map(|a| ev.eval_range(a, &mut bindings))
            .collect::<Result<Vec<_>, _>>()?;
        let scalar_vals = scalar_args
            .iter()
            .map(|s| ev.eval_scalar(s, &bindings))
            .collect::<Result<Vec<_>, _>>()?;
        let app = Application::new(constructor, base_val, arg_vals, scalar_vals);
        self.enter(app).map(Some)
    }

    /// Instantiate every application in equation `i`'s body whose
    /// actuals are application-free — the up-front instantiation of the
    /// §3.2 system, recursive through [`Solver::enter`] (idempotent by
    /// key, so mutual recursion terminates) — classify each branch on
    /// the way, and prepare the task shapes the rounds run: a
    /// semi-naive `Linear` branch one per recursive position, every
    /// other branch whole.
    fn seed(&self, i: usize) -> Result<(), EvalError> {
        let body = self.state.borrow().equations[i].body.clone();
        let mut classes = Vec::with_capacity(body.branches.len());
        for branch in &body.branches {
            // Applications in the predicate force fallback.
            let predicate_apps = rewrite::collect_constructed(&branch.predicate);
            let mut linear = predicate_apps.is_empty();
            let mut links = Vec::new();
            for (pos, (_, range)) in branch.bindings.iter().enumerate() {
                let apps = rewrite::collect_constructed(range);
                // A binding range that is itself the only application
                // in it is a recursive (delta) position.
                let peer = match apps.as_slice() {
                    [app] if matches!(range, RangeExpr::Constructed { .. }) => {
                        self.instantiate(i, app)?
                    }
                    _ => {
                        for app in &apps {
                            self.instantiate(i, app)?;
                        }
                        None
                    }
                };
                match peer {
                    Some(peer) => links.push((pos, peer)),
                    None => linear &= apps.is_empty(),
                }
            }
            for app in &predicate_apps {
                self.instantiate(i, app)?;
            }
            classes.push(match (linear, links.is_empty()) {
                (false, _) => BranchClass::Fallback,
                (true, true) => BranchClass::Static,
                (true, false) => BranchClass::Linear(links),
            });
        }
        self.state.borrow_mut().equations[i].classes = classes.clone();
        for (b, class) in classes.into_iter().enumerate() {
            match class {
                BranchClass::Linear(links) if !self.naive => {
                    for (pos, _) in links {
                        self.shape(i, b, Shape::Bound(vec![pos]));
                    }
                }
                _ => {
                    self.shape(i, b, Shape::Whole);
                }
            }
        }
        Ok(())
    }

    /// The prepared `shape` of branch `b` of equation `eq`, built on
    /// first use — when seeded for the rounds, the warm phases' later.
    fn shape(&self, eq: usize, b: usize, shape: Shape) -> Rc<Prepared> {
        let key = (b, shape);
        let known = self.state.borrow().equations[eq].shapes.get(&key).cloned();
        known.unwrap_or_else(|| {
            let st = self.state.borrow();
            let prepared = Rc::new(build_shape(&st, &self.universe, eq, b, &key.1));
            drop(st);
            let mut st = self.state.borrow_mut();
            st.equations[eq].shapes.insert(key, prepared.clone());
            prepared
        })
    }

    /// Append equation `i`'s tasks for the coming round, in branch
    /// order (the sequential evaluation order). Semi-naive evaluates a
    /// Static branch once and a Linear branch once per recursive
    /// position over that peer's delta; every other branch — and, under
    /// naive, every branch — is evaluated whole.
    fn prepare(&self, i: usize, tasks: &mut Vec<BranchTask>) {
        let st = self.state.borrow();
        let eq = &st.equations[i];
        for (b, class) in eq.classes.iter().enumerate() {
            let task = |shape, bound| eq.shapes[&(b, shape)].task(&st, i, b, bound);
            match class {
                BranchClass::Static if eq.initialized && !self.naive => {}
                // An equation's first differential round reads the
                // peers' *full* current values — equations registered
                // after their peers would otherwise miss deltas emitted
                // before they existed.
                BranchClass::Linear(links) if !self.naive => {
                    for &(pos, peer) in links {
                        let scan = if eq.initialized {
                            &st.delta[peer]
                        } else {
                            &st.current[peer]
                        };
                        tasks.push(task(Shape::Bound(vec![pos]), vec![(pos, scan.clone())]));
                    }
                }
                _ => tasks.push(task(Shape::Whole, Vec::new())),
            }
        }
        drop(st);
        self.state.borrow_mut().equations[i].initialized = true;
    }

    /// Validate a warm start from `prev` against this freshly
    /// instantiated system and, if it is sound, seed every equation
    /// from `prev` and return what the base deltas bind where. `Err` is
    /// the refusal: the caller re-solves cold.
    fn warm_start(
        &self,
        prev: Vec<SolvedEquation>,
        deltas: &[(Name, BaseDelta)],
    ) -> Result<WarmPlan, Refusal> {
        if self.naive {
            return Err(Refusal::NaiveStrategy);
        }
        let touched = || deltas.iter().filter(|(_, d)| d.changes());
        let mut plan = WarmPlan::default();
        {
            let st = self.state.borrow();
            // Shape: the freshly registered system must be the previous
            // system, equation for equation (registration order is
            // deterministic, so index-wise comparison is exact).
            if st.equations.len() != prev.len() {
                return Err(Refusal::ShapeChanged);
            }
            for (i, (eq, prev_eq)) in st.equations.iter().zip(&prev).enumerate() {
                let name = eq.key.constructor();
                if name != prev_eq.constructor || eq.result != prev_eq.result {
                    return Err(Refusal::ShapeChanged);
                }
                // Safety: map touched base relations onto the local
                // names the body reads them through — a catalog name as
                // itself, a formal by its actual's storage (formals
                // shadow catalog names) — then require every touched
                // occurrence to be a plain binding range: those become
                // delta positions; anything else (predicates, selector
                // bodies, computed constructor actuals) refuses.
                let mut local: FxHashMap<&str, &BaseDelta> =
                    touched().map(|(n, d)| (n.as_str(), d)).collect();
                for ((formal, actual), &read) in eq.overrides.iter().zip(&prev_eq.actuals) {
                    local.remove(formal.as_str());
                    let now = actual.storage_id();
                    if now == read {
                        continue;
                    }
                    let grown = deltas
                        .iter()
                        .find(|(_, d)| (d.before, d.after) == (read, now));
                    let Some((_, d)) = grown else {
                        return Err(Refusal::UnmatchedActual {
                            equation: i,
                            constructor: name.to_string(),
                            formal: formal.clone(),
                        });
                    };
                    if d.changes() {
                        local.insert(formal, d);
                    }
                }
                if eq.classes.contains(&BranchClass::Fallback) {
                    return Err(Refusal::FallbackBranch {
                        equation: i,
                        constructor: name.to_string(),
                    });
                }
                for (b, branch) in eq.body.branches.iter().enumerate() {
                    let mut reach = Reach::new(&self.universe.defs);
                    reach.add(&branch.predicate);
                    let mut deleted = Vec::new();
                    for (p, (_, range)) in branch.bindings.iter().enumerate() {
                        match range {
                            RangeExpr::Rel(m) => {
                                if let Some(d) = local.get(m.as_str()) {
                                    if !d.inserted.is_empty() {
                                        plan.inserts.push((i, b, p, d.inserted.clone()));
                                    }
                                    if !d.deleted.is_empty() {
                                        deleted.push((p, d.deleted.clone()));
                                    }
                                }
                            }
                            // Recursive position: plain-`Rel` actuals
                            // are the child equation's, matched there;
                            // computed ones are read here.
                            RangeExpr::Constructed { base, args, .. } => {
                                std::iter::once(&**base)
                                    .chain(args)
                                    .filter(|a| !matches!(a, RangeExpr::Rel(_)))
                                    .for_each(|a| reach.add(a));
                            }
                            other => reach.add(other),
                        }
                    }
                    if reach.hits(|n| local.contains_key(n) || touched().any(|(t, _)| t == n)) {
                        return Err(Refusal::NonMonotoneRead {
                            equation: i,
                            constructor: name.to_string(),
                            branch: b,
                        });
                    }
                    if !deleted.is_empty() {
                        plan.deletes.push((i, b, deleted));
                    }
                }
            }
        }
        // Seed: every equation re-enters at its previous fixpoint — the
        // same storage, so the indexes this solve's cache copied from
        // `prev` describe it (no O(|value|) rebuild per
        // refresh).
        let mut st = self.state.borrow_mut();
        for (i, prev_eq) in prev.into_iter().enumerate() {
            st.delta[i] = Relation::new(prev_eq.value.schema().clone());
            st.current[i] = prev_eq.value;
            st.equations[i].initialized = true;
        }
        Ok(plan)
    }

    /// Maintain the seeded system by `plan` and converge — the warm
    /// half of [`solve_warm`], in its three DRed phases (over-delete,
    /// remove, re-derive) when the plan deletes anything, and as the
    /// plain insert round otherwise.
    fn maintain(mut self, plan: WarmPlan) -> Result<Converged, EvalError> {
        let mut tally = Tally {
            added: Some(Relation::new(
                self.state.borrow().equations[0].result.clone(),
            )),
            ..Tally::default()
        };
        if !plan.deletes.is_empty() {
            // Over-delete, against the previous values: one seed task
            // per non-empty subset of a branch's deleted positions, that
            // subset bound to the deleted tuples and the rest of the
            // branch as written. The new base relations plus the
            // deleted tuples cover every old one (and the inserted ones
            // too: collecting more than necessary is sound, the
            // re-derive round restores what still holds), so every
            // derivation through a deleted tuple is met in the first
            // round; later rounds chase the collected tuples through
            // the recursive positions.
            let mut seeds = Vec::new();
            for (i, b, positions) in &plan.deletes {
                for subset in 1..(1usize << positions.len()) {
                    let bound: BoundAt = (positions.iter().enumerate())
                        .filter(|(k, _)| subset >> k & 1 == 1)
                        .map(|(_, bound)| bound.clone())
                        .collect();
                    let at = bound.iter().map(|(p, _)| *p).collect();
                    let prepared = self.shape(*i, *b, Shape::Bound(at));
                    seeds.push(prepared.task(&self.state.borrow(), *i, *b, bound));
                }
            }
            self.rounds(Some(seeds), Rule::Collect, &mut tally)?;
            let removing = self.span.recording().then(Instant::now);
            self.remove_doomed();
            if let Some(t) = removing {
                self.span.field("remove_us", t.elapsed().as_micros() as u64);
            }
        }
        // Re-derive: the head-restricted round over every branch of an
        // equation that lost tuples, in one round with the inserted
        // tuples' tasks (the full *new* values at the other positions
        // plus one delta position per task cover every new combination;
        // overlap deduplicates where the tasks' outputs are staged).
        // Branches with no touched binding are skipped: their static
        // contributions are in the seed, and recursive deltas are empty
        // until round one commits.
        let mut first = Vec::new();
        let losing: Vec<(usize, usize)> = {
            let st = self.state.borrow();
            (0..st.equations.len())
                .filter(|&i| !st.doomed[i].is_empty())
                .flat_map(|i| (0..st.equations[i].body.branches.len()).map(move |b| (i, b)))
                .collect()
        };
        for (i, b) in losing {
            let prepared = self.shape(i, b, Shape::Rederive);
            first.push(prepared.task(&self.state.borrow(), i, b, Vec::new()));
        }
        for (i, b, p, d) in plan.inserts {
            let prepared = self.shape(i, b, Shape::Bound(vec![p]));
            first.push(prepared.task(&self.state.borrow(), i, b, vec![(p, d)]));
        }
        self.rounds(Some(first), Rule::Grow, &mut tally)?;
        self.finish(tally)
    }

    /// Take every over-deleted tuple out of its equation's value. The
    /// indexes cached over the value shrink with it, in
    /// [`AccessCache::advance`] — O(|D|), nothing is rebuilt.
    fn remove_doomed(&self) {
        let mut st = self.state.borrow_mut();
        for i in 0..st.equations.len() {
            if st.doomed[i].is_empty() {
                continue;
            }
            let empty = Relation::new(st.doomed[i].schema().clone());
            let old = st.current[i].storage_id();
            let State {
                current, doomed, ..
            } = &mut *st;
            for t in doomed[i].iter() {
                current[i].remove(t);
            }
            self.access.advance(old, &current[i], &empty, &doomed[i]);
        }
    }

    /// Iterate to the fixpoint from ∅ — a cold solve.
    fn run(self) -> Result<Converged, EvalError> {
        let rule = if self.naive {
            Rule::Replace
        } else {
            Rule::Grow
        };
        let mut tally = Tally::default();
        self.rounds(None, rule, &mut tally)?;
        self.finish(tally)
    }

    /// Run rounds under `rule` until a round changes nothing — the one
    /// round loop behind every entry point and every warm phase.
    /// `first`, a warm phase's prepared round, stands in for the first
    /// round's preparation.
    fn rounds(
        &self,
        mut first: Option<Vec<BranchTask>>,
        rule: Rule,
        tally: &mut Tally,
    ) -> Result<(), EvalError> {
        let mut prev: Option<Vec<Relation>> = None;
        let mut prev2: Option<Vec<Relation>> = None;
        // One evaluator for every task: what it derives from syntax (the
        // quantifier sites' plans) serves each round.
        let scope = BodyScope {
            solver: self,
            formals: RefCell::new(None),
        };
        let mut ev = self.evaluator(&scope).explaining(self.span.recording());
        loop {
            tally.rounds += 1;
            let rounds = tally.rounds;
            if rounds > MAX_ROUNDS {
                // Round-allowance exhaustion is a divergence verdict, with
                // enough diagnostics to distinguish a genuinely divergent
                // system (growing delta) from a slow convergent one.
                let note = format!("round ceiling ({MAX_ROUNDS}) exhausted without convergence");
                return Err(EvalError::Solve(SolveError::Diverged {
                    diag: self.diag(rounds - 1, vec![note], tally),
                }));
            }
            // The round's one trace record: its stages are laps.
            let mut round_span = dc_trace::span(SpanKind::Round);
            round_span.field("round", rounds);
            // ---- Prep: build the round's tasks from solver state. Each
            // equation stages its tasks' output under its declared
            // schema; the commit turns it into the round's delta in place.
            let n = self.state.borrow().equations.len();
            let tasks = first.take().unwrap_or_else(|| {
                let mut tasks = Vec::new();
                for i in 0..n {
                    self.prepare(i, &mut tasks);
                }
                tasks
            });
            let mut staged: Vec<Relation> = self
                .state
                .borrow()
                .equations
                .iter()
                .map(|e| Relation::new(e.result.clone()))
                .collect();
            round_span.field("tasks", tasks.len());
            round_span.lap("prep_us");
            // ---- Evaluate, in task order: the order fixes which error a
            // failing round reports. Each task is consumed as it runs, so
            // its handles on equation values are gone by the commit:
            // relations are copy-on-write, and the commit's inserts
            // mutate a value's tuple store in place only while its `Arc`
            // is unshared.
            for task in tasks {
                let eq = task.eq;
                self.run_task(&scope, &mut ev, task, tally)
                    .and_then(|value| stage(&mut staged[eq], value))
                    .map_err(|e| self.enrich(e, eq, rounds - 1, tally))?;
            }
            round_span.lap("evaluate_us");
            // Commit (with the `delta_commit` fault-injection site guarding
            // the atomic-abort property: an abort here must leave every
            // caller-visible relation untouched).
            fail::check(Site::DeltaCommit)?;
            let changed = self.commit(staged, rule, tally)?;
            round_span.lap("commit_us");
            let grew = self.state.borrow().equations.len() > n;
            if !changed && !grew {
                return Ok(());
            }
            // Round boundary: unconditional deadline/cancellation reads plus
            // the budget's round ceiling. Checked only when another round is
            // coming — a solve that just converged is a result, not a trip.
            if let Some(meter) = &self.budget {
                meter.check_round(rounds as u64).map_err(|trip| {
                    let mut se = SolveError::from_trip(trip);
                    let notes = std::mem::take(&mut se.diag_mut().notes);
                    *se.diag_mut() = self.diag(rounds, notes, tally);
                    se.diag_mut().site = format!("round boundary after round {rounds}");
                    EvalError::Solve(se)
                })?;
            }
            // Oscillation detection for non-monotone systems (the paper's
            // `nonsense`): state equals the state two rounds ago but not the
            // previous one ⇒ period-2 cycle, no limit exists. Semi-naive
            // runs are monotone by construction, so the per-round snapshots
            // are only taken under the naive strategy.
            if rule == Rule::Replace {
                let now = self.state.borrow().current.clone();
                if prev2.as_ref() == Some(&now) && prev.as_ref() != Some(&now) {
                    return Err(EvalError::NonConvergent { steps: rounds });
                }
                prev2 = prev.replace(now);
            }
        }
    }

    /// Record the solve's metrics and capture the converged system.
    fn finish(self, tally: Tally) -> Result<Converged, EvalError> {
        let Solver {
            state,
            cfg,
            access,
            mut span,
            t0,
            ..
        } = self;
        let st = state.into_inner();
        let equations = st.equations.len();
        if let Some(m) = &cfg.metrics {
            m.inc(Counter::SolveRuns);
            m.add(Counter::SolveRounds, tally.rounds as u64);
            m.add(Counter::SolveEquations, equations as u64);
            m.add(Counter::DeltaTuples, tally.delta_tuples);
            m.add(Counter::EmittedTuples, tally.emitted);
            m.observe_us(Histogram::SolveLatencyUs, t0.elapsed().as_micros() as u64);
            crate::record_interned(m);
        }
        if span.recording() {
            span.field("rounds", tally.rounds);
            span.field("equations", equations);
            span.field(
                "tuples",
                st.current.iter().map(Relation::len).sum::<usize>(),
            );
        }
        let value_ids: Vec<u64> = st.current.iter().map(Relation::storage_id).collect();
        access.retain(&value_ids);
        // The root's net delta against the warm seed `old`: the run
        // restored part of the over-deleted `D` and added the rest, and
        // `old = final − added ∪ D` with `D` disjoint from what stayed.
        let doomed = &st.doomed[0];
        let (added, removed) = match tally.added {
            None => (
                Relation::new(st.equations[0].result.clone()),
                Relation::new(st.equations[0].result.clone()),
            ),
            Some(run) if doomed.is_empty() => (run, Relation::new(doomed.schema().clone())),
            Some(run) => (
                algebra::difference(&run, doomed)?,
                algebra::difference(doomed, &run)?,
            ),
        };
        let equations = st
            .equations
            .into_iter()
            .zip(st.current)
            .map(|(eq, value)| SolvedEquation {
                actuals: eq.overrides.iter().map(|(_, r)| r.storage_id()).collect(),
                constructor: eq.key.constructor,
                result: eq.result,
                value,
            })
            .collect::<Vec<_>>();
        Ok(Converged {
            added,
            removed,
            system: SolvedSystem { equations, access },
        })
    }

    /// Commit one round's staged results, every equation at once (the
    /// Jacobi update), by `rule`; `staged[i]` becomes equation `i`'s
    /// delta in place. Grow: one retain pass inserts each staged tuple
    /// into the accumulated value and keeps those it accepted — exactly
    /// the new tuples; the indexes cached over the value follow through
    /// `advance`, O(|delta|), no rebuild, no re-diff. Replace:
    /// `staged[i]` is the whole new value and replaces the old one —
    /// non-monotone (unchecked) systems can shrink as well as grow.
    /// Collect: the same pass keeps the staged tuples the value holds
    /// and the equation's `D` accepts, so exactly the newly
    /// over-deleted ones join `D`; the value stays. Returns whether
    /// anything moved.
    fn commit(
        &self,
        staged: Vec<Relation>,
        rule: Rule,
        tally: &mut Tally,
    ) -> Result<bool, EvalError> {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let mut changed = false;
        for (i, mut new) in staged.into_iter().enumerate() {
            let delta = match rule {
                Rule::Grow => {
                    let old = st.current[i].storage_id();
                    let value = &mut st.current[i];
                    new.try_retain(|t| value.insert_unchecked(t.clone()))?;
                    if !new.is_empty() {
                        changed = true;
                        let none = Relation::new(new.schema().clone());
                        self.access.advance(old, &st.current[i], &new, &none);
                    }
                    // Root additions accumulate across rounds: warm
                    // callers receive the exact output delta relative to
                    // their seed.
                    if let (0, Some(acc)) = (i, tally.added.as_mut()) {
                        algebra::union_into(acc, &new)?;
                    }
                    new
                }
                Rule::Collect => {
                    let (value, doomed) = (&st.current[i], &mut st.doomed[i]);
                    new.try_retain(|t| {
                        if value.contains(t) {
                            doomed.insert_unchecked(t.clone())
                        } else {
                            Ok(false)
                        }
                    })?;
                    changed |= !new.is_empty();
                    new
                }
                Rule::Replace
                    if new.len() == st.current[i].len()
                        && new.digest() == st.current[i].digest() =>
                {
                    // Reproduced exactly (length + content digest, the
                    // identity [`AppKey`] rests on): the value and
                    // everything cached about it stand; only the
                    // per-round delta resets.
                    Relation::new(new.schema().clone())
                }
                Rule::Replace => {
                    // Nothing is cached about the outgoing value: only
                    // differential rounds bind peers as named relations.
                    changed = true;
                    let delta = algebra::difference(&new, &st.current[i])?;
                    st.current[i] = new;
                    delta
                }
            };
            tally.delta_tuples += delta.len() as u64;
            // The outgoing delta is never read again, so whatever was
            // cached about it goes too.
            self.access.forget(st.delta[i].storage_id());
            st.delta[i] = delta;
        }
        Ok(changed)
    }

    /// Snapshot the solve's progress for a [`SolveDiag`]: rounds
    /// completed, tuples materialised so far, and the total size of the
    /// last committed deltas.
    fn diag(&self, rounds: usize, notes: Vec<String>, tally: &Tally) -> SolveDiag {
        SolveDiag {
            rounds: rounds as u64,
            tuples: self.tuples(tally),
            last_delta: self.last_delta(),
            site: String::new(),
            notes,
        }
    }

    /// Tuples materialised so far: the budget meter's count, or without
    /// one the sum of the tasks' own counts.
    fn tuples(&self, tally: &Tally) -> u64 {
        self.budget.as_ref().map_or(tally.emitted, Meter::tuples)
    }

    fn last_delta(&self) -> u64 {
        let st = self.state.borrow();
        st.delta.iter().map(Relation::len).sum::<usize>() as u64
    }

    /// Enrich a [`SolveError`] escaping equation `eq`'s evaluation with
    /// what the solver knows: the offending equation (index and
    /// constructor name), rounds completed, tuples materialised, and
    /// the last committed delta size. Other errors pass through
    /// untouched.
    fn enrich(&self, e: EvalError, eq: usize, completed_rounds: usize, tally: &Tally) -> EvalError {
        let EvalError::Solve(mut se) = e else {
            return e;
        };
        let d = se.diag_mut();
        d.rounds = completed_rounds as u64;
        d.tuples = self.tuples(tally);
        d.last_delta = self.last_delta();
        let here = format!(
            "equation {eq} (`{}`)",
            self.state.borrow().equations[eq].key.constructor()
        );
        d.site = if d.site.is_empty() {
            here
        } else {
            format!("{here}, {}", d.site)
        };
        EvalError::Solve(se)
    }

    /// An evaluator over `catalog` under the solve's configuration and
    /// budget.
    fn evaluator<'e>(&self, catalog: &'e dyn Catalog) -> Evaluator<'e> {
        self.cfg.evaluator(catalog, self.budget.clone())
    }

    /// Evaluate one task with the round's evaluator, its formals bound
    /// in `scope` while it runs and its relations supplied by position:
    /// its value, with the
    /// tuples it emitted counted into `tally` and, when tracing, its
    /// planner decisions reported. Nothing read from its relations
    /// outlives it — the commit's inserts then find the equation values
    /// unshared.
    fn run_task(
        &self,
        scope: &BodyScope<'_>,
        ev: &mut Evaluator<'_>,
        task: BranchTask,
        tally: &mut Tally,
    ) -> Result<Relation, EvalError> {
        let mut task_span = dc_trace::span(SpanKind::BranchTask);
        if task_span.recording() {
            task_span.field("eq", task.eq);
            task_span.field("branch", task.branch);
        }
        let BranchTask {
            eq,
            branch,
            prepared,
            bound,
        } = task;
        *scope.formals.borrow_mut() = Some(self.state.borrow().equations[eq].overrides.clone());
        let emitted = ev.emitted();
        let value = ev.eval_prepared(&prepared.branch, &bound, &mut task_span);
        *scope.formals.borrow_mut() = None;
        ev.forget_values();
        tally.emitted += ev.emitted() - emitted;
        // A governed abort names the branch and carries the evaluator's
        // correlated ranges left unnested out with it, rendered — aborts are
        // atomic, so this is the only trace the solve leaves.
        let value = value.map_err(|mut e| {
            if let EvalError::Solve(se) = &mut e {
                let d = se.diag_mut();
                if d.site.is_empty() {
                    d.site = format!("branch {branch}");
                }
                d.notes.extend(
                    ev.plan_events()
                        .iter()
                        .filter(|e| matches!(e, PlanEvent::NotUnnested { .. }))
                        .map(ToString::to_string),
                );
            }
            e
        })?;
        if task_span.recording() {
            let events = ev.take_plan_events();
            // The planner decisions are events of the round, not the task.
            drop(task_span);
            tally.report(events);
        }
        Ok(value)
    }
}

/// The catalog an equation's body evaluates against: the solver's, with
/// the formals of the equation being evaluated bound over it. A
/// selector body reads the solver's (its `selector_scope`), never the
/// formals.
struct BodyScope<'s> {
    solver: &'s Solver,
    formals: RefCell<Option<Formals>>,
}

impl Catalog for BodyScope<'_> {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        let formals = self.formals.borrow();
        match formals
            .iter()
            .flat_map(|f| f.iter())
            .find(|(n, _)| n == name)
        {
            Some((_, rel)) => Ok(rel.clone()),
            None => self.solver.relation(name),
        }
    }

    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.solver.selector(name)
    }

    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        self.solver.apply_constructor(base, name, args, scalar_args)
    }

    fn scalar_param(&self, name: &str) -> Result<Value, EvalError> {
        self.solver.scalar_param(name)
    }

    fn access(&self) -> Option<&AccessCache> {
        self.solver.access()
    }

    fn selector_scope(&self) -> Option<&dyn Catalog> {
        Some(self.solver)
    }
}

impl Catalog for Solver {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        self.universe
            .relations
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))
    }

    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.universe.defs.selector(name)
    }

    /// A known application reads the current iterate; a first sighting
    /// registers its equation, which reads ∅ until its first commit.
    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        let i = self.enter(Application::new(name, base, args, scalar_args))?;
        Ok(self.state.borrow().current[i].clone())
    }

    fn scalar_param(&self, name: &str) -> Result<Value, EvalError> {
        self.universe
            .params
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownParam(name.to_string()))
    }

    fn access(&self) -> Option<&AccessCache> {
        Some(&self.access)
    }
}

/// The tuple variable the re-derive shape binds over an equation's
/// over-deleted set `D` (`∇` is no identifier character, and the
/// unnesting rewrite prefixes its variables with `Δ`, so it cannot
/// clash).
const DOOMED_VAR: &str = "\u{2207}doomed";

/// A task shape: the binding positions a round task is supplied
/// relations of its own at — a recursive position its peer's delta, a
/// warm insert's or over-delete's positions base tuples — or the
/// re-derive round's restriction to `D`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Shape {
    Whole,
    Bound(Vec<usize>),
    Rederive,
}

/// One task shape of one branch, prepared once per solve: the branch
/// (the re-derive shape's with `D` bound after its own bindings), and
/// the state every task of the shape is supplied besides its own
/// relations — at each other recursive position its peer equation's
/// current value, and the equation's `D` at `doomed`.
struct Prepared {
    branch: PreparedBranch,
    peers: Vec<(usize, usize)>,
    doomed: Option<usize>,
}

impl Prepared {
    /// A task of this shape over branch `branch` of equation `eq`,
    /// supplied `bound` at the shape's own positions.
    fn task(
        self: &Rc<Self>,
        st: &State,
        eq: usize,
        branch: usize,
        mut bound: BoundAt,
    ) -> BranchTask {
        bound.extend(
            self.peers
                .iter()
                .map(|&(p, peer)| (p, st.current[peer].clone())),
        );
        bound.extend(self.doomed.map(|p| (p, st.doomed[eq].clone())));
        BranchTask {
            eq,
            branch,
            prepared: self.clone(),
            bound,
        }
    }
}

/// One unit of round work: a single branch evaluation, prepared before
/// the round evaluates anything.
struct BranchTask {
    /// Owning equation index.
    eq: usize,
    /// Branch index within the body.
    branch: usize,
    /// The task's shape.
    prepared: Rc<Prepared>,
    /// The relations supplied this round, by binding position.
    bound: BoundAt,
}

/// Stage a task's output `part` into its equation's `staged` relation,
/// under the declared schema, with no copy: `part` is relabelled and the
/// smaller of the two unioned into the larger, so an equation's first
/// task moves its value in. Union compatibility and the key constraint
/// within the staged relation are enforced here (a keyed result schema
/// is filled by insertion); key conflicts between a delta and the
/// accumulated value surface when the commit inserts the delta.
fn stage(staged: &mut Relation, part: Relation) -> Result<(), EvalError> {
    let mut part = part.relabel(staged.schema()).map_err(|e| match e {
        RelationError::Incompatible { .. } => {
            EvalError::Type(dc_value::TypeError::SchemaMismatch {
                context: "constructor body value does not match declared result type".into(),
            })
        }
        e => e.into(),
    })?;
    if part.len() > staged.len() {
        std::mem::swap(staged, &mut part);
    }
    algebra::union_into(staged, &part)?;
    Ok(())
}

/// Prepare `shape` of branch `b` of equation `eq`. A task of a
/// non-whole shape is supplied its own relations at the shape's
/// positions and its peers' accumulated values at the other recursive
/// positions, which the executor then probes through the indexes the
/// solve's cache maintains over them instead of rescanning. The
/// re-derive shape also binds `D` as one more binding and equates each
/// target field with its attribute, so the planner scans `D` and probes
/// the branch's ranges by the head — work proportional to `|D|`, not a
/// full evaluation filtered afterwards. A whole-tuple target whose
/// range's attributes are not known here re-derives the branch whole:
/// every tuple it yields holds in the new state, so the restriction to
/// `D` only saves work.
fn build_shape(st: &State, universe: &Universe, eq: usize, b: usize, shape: &Shape) -> Prepared {
    let equation = &st.equations[eq];
    let mut branch = equation.body.branches[b].clone();
    let peers = match (shape, &equation.classes[b]) {
        (Shape::Whole, _) => Vec::new(),
        (Shape::Bound(own), BranchClass::Linear(links)) => (links.iter())
            .filter(|(p, _)| !own.contains(p))
            .copied()
            .collect(),
        (_, BranchClass::Linear(links)) => links.clone(),
        _ => Vec::new(),
    };
    let mut doomed = None;
    if *shape == Shape::Rederive {
        let heads: Option<Vec<ScalarExpr>> = match &branch.target {
            Target::Tuple(exprs) => Some(exprs.clone()),
            // The attributes of a peer's value, or of a plain or
            // selected named range, resolved as the task's catalog
            // will: formals, then the universe.
            Target::Var(v) => {
                let at = branch.bindings.iter().position(|(w, _)| w == v);
                let peer = peers.iter().find(|(p, _)| Some(*p) == at);
                let mut range = at.map(|p| &branch.bindings[p].1);
                while let Some(RangeExpr::Selected { base, .. }) = range {
                    range = Some(base);
                }
                let schema = match (peer, range) {
                    (Some(&(_, peer)), _) => Some(&st.equations[peer].result),
                    (None, Some(RangeExpr::Rel(n))) => (equation.overrides.iter())
                        .find(|(m, _)| m == n)
                        .map(|(_, r)| r)
                        .or_else(|| universe.relations.get(n))
                        .map(Relation::schema),
                    _ => None,
                };
                schema.map(|s| {
                    (s.attributes().iter())
                        .map(|a| ScalarExpr::Attr(v.clone(), a.name.clone()))
                        .collect()
                })
            }
        };
        if let Some(heads) = heads {
            let restriction = heads
                .into_iter()
                .zip(equation.result.attributes())
                .map(|(head, a)| {
                    Formula::Cmp(
                        head,
                        CmpOp::Eq,
                        ScalarExpr::Attr(DOOMED_VAR.to_string(), a.name.clone()),
                    )
                })
                .fold(Formula::True, Formula::and);
            branch.predicate = restriction.and(branch.predicate);
            // Supplied, so its range is never evaluated: an empty
            // set-former stands in for it.
            let supplied = RangeExpr::SetFormer(SetFormer {
                branches: Vec::new(),
            });
            doomed = Some(branch.bindings.len());
            branch.bindings.push((DOOMED_VAR.to_string(), supplied));
        }
    }
    Prepared {
        branch: PreparedBranch::new(branch),
        peers,
        doomed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructor::Constructor;
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::*;
    use dc_calculus::env::MapCatalog;
    use dc_calculus::positivity::{self, Tracked};
    use dc_trace::metrics::MetricsSnapshot;
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

    /// Definitions of `ctors`, each unchecked exactly when its body
    /// fails the §3.3 check.
    fn defs(ctors: Vec<Constructor>) -> Defs {
        let mut defs = Defs::default();
        for c in ctors {
            let body = RangeExpr::SetFormer(c.body.clone());
            if !positivity::check_range(&body, &Tracked::AllConstructed).is_empty() {
                defs.unchecked.insert(c.name.clone());
            }
            defs.constructors.insert(c.name.clone(), c);
        }
        defs
    }

    fn cfg(strategy: Strategy) -> FixpointConfig {
        FixpointConfig {
            strategy,
            ..FixpointConfig::default()
        }
    }

    /// The root value of an untracked cold [`solve`].
    fn solve_value(
        defs: &Defs,
        constructor: &str,
        base: Relation,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
        cfg: &FixpointConfig,
    ) -> Result<Relation, EvalError> {
        let cat = MapCatalog::new();
        solve(defs, &cat, constructor, base, args, scalar_args, cfg).map(|s| s.value().clone())
    }

    /// Solve under `cfg(strategy)` into a fresh registry: the value and
    /// what the solve recorded.
    fn solve_counted(
        src: &Defs,
        name: &str,
        base: Relation,
        args: Vec<Relation>,
        strategy: Strategy,
    ) -> (Relation, MetricsSnapshot) {
        let metrics = Arc::new(MetricsRegistry::new());
        let cfg = FixpointConfig {
            metrics: Some(metrics.clone()),
            ..cfg(strategy)
        };
        let out = solve_value(src, name, base, args, vec![], &cfg).unwrap();
        (out, metrics.snapshot())
    }

    #[test]
    fn transitive_closure_naive_and_seminaive_agree() {
        let src = defs(vec![ahead()]);
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let (out, m) = solve_counted(&src, "ahead", chain(5), vec![], strategy);
            // closure of a 5-edge chain: 5+4+3+2+1 = 15 pairs
            assert_eq!(out.len(), 15, "{strategy:?}");
            assert!(out.contains(&tuple!["o0", "o5"]));
            assert_eq!(m.solve_equations, 1);
        }
    }

    #[test]
    fn result_schema_attribute_names_conformed() {
        let src = defs(vec![ahead()]);
        let out = solve_value(
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
        let src = defs(vec![ahead()]);
        let (out, m) = solve_counted(
            &src,
            "ahead",
            Relation::new(infrontrel()),
            vec![],
            Strategy::SemiNaive,
        );
        assert!(out.is_empty());
        assert!(m.solve_rounds <= 2);
    }

    #[test]
    fn iteration_counts_scale_with_longest_path() {
        let src = defs(vec![ahead()]);
        let (_, s8) = solve_counted(&src, "ahead", chain(8), vec![], Strategy::Naive);
        let (_, s16) = solve_counted(&src, "ahead", chain(16), vec![], Strategy::Naive);
        assert!(s16.solve_rounds > s8.solve_rounds);
        // Naive TC with the right-linear rule closes a chain of n edges
        // in ~n rounds.
        assert!(
            s8.solve_rounds >= 8 && s8.solve_rounds <= 10,
            "{}",
            s8.solve_rounds
        );
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut edges = chain(4);
        edges.insert(tuple!["o4", "o0"]).unwrap(); // close the cycle
        let src = defs(vec![ahead()]);
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let out =
                solve_value(&src, "ahead", edges.clone(), vec![], vec![], &cfg(strategy)).unwrap();
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
        let src = defs(vec![strange]);
        let out =
            solve_value(&src, "strange", base, vec![], vec![], &cfg(Strategy::Naive)).unwrap();
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
        let src = defs(vec![nonsense]);
        let err = solve_value(
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

    /// `EACH r IN Rel{inner()}: TRUE` — positive, whatever `inner` is.
    fn wrapper(name: &str, inner: &Constructor) -> Constructor {
        Constructor {
            name: name.into(),
            body: SetFormer {
                branches: vec![Branch::each(
                    "r",
                    rel(&inner.base_param.0).construct(&inner.name, vec![]),
                    tru(),
                )],
            },
            ..inner.clone()
        }
    }

    /// The solver picks the strategy from everything the root reaches,
    /// once per solve: positive wrappers over §3.3's unchecked
    /// constructors run naive under the default configuration.
    #[test]
    fn reachable_unchecked_constructor_makes_the_solve_naive() {
        let strange = crate::paper::strange();
        let src = defs(vec![wrapper("wrap_strange", &strange), strange]);
        let cards = (0u64..=6).map(|i| tuple![i]);
        let base = Relation::from_tuples(crate::paper::cardrel(), cards).unwrap();
        let metrics = Arc::new(MetricsRegistry::new());
        let cfg = FixpointConfig {
            metrics: Some(metrics.clone()),
            ..FixpointConfig::default()
        };
        let out = solve_value(&src, "wrap_strange", base, vec![], vec![], &cfg).unwrap();
        let nums: Vec<u64> = out
            .sorted_tuples()
            .iter()
            .map(|t| t.get(0).as_card().unwrap())
            .collect();
        assert_eq!(nums, vec![0, 2, 4, 6]);
        assert!(metrics.snapshot().solve_rounds > 2);

        let nonsense = crate::paper::nonsense();
        let src = defs(vec![wrapper("wrap_nonsense", &nonsense), nonsense]);
        let base = Relation::from_tuples(infrontrel(), vec![tuple!["a", "b"]]).unwrap();
        let err = solve_value(&src, "wrap_nonsense", base, vec![], vec![], &cfg).unwrap_err();
        assert!(matches!(err, EvalError::NonConvergent { .. }), "{err}");
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

        let src = defs(vec![ahead_m, above_m]);
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            // Ontop{above(Infront)}: the vase (on the table, which is in
            // front of the chair) is above/ahead of the chair — the
            // paper's motivating example.
            let (above_out, m) = solve_counted(
                &src,
                "above",
                ontop.clone(),
                vec![infront.clone()],
                strategy,
            );
            assert!(above_out.contains(&tuple!["vase", "table"]), "{strategy:?}");
            assert!(above_out.contains(&tuple!["vase", "chair"]), "{strategy:?}");
            assert_eq!(m.solve_equations, 2, "{strategy:?}");

            // Infront{ahead(Ontop)}: the lamp (in front of the vase,
            // which is above the chair) is ahead of the chair — needs
            // the `above` equation, i.e. genuine mutual recursion.
            let (ahead_out, m) = solve_counted(
                &src,
                "ahead",
                infront.clone(),
                vec![ontop.clone()],
                strategy,
            );
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
            assert_eq!(m.solve_equations, 2, "{strategy:?}");
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
        let src = defs(vec![below]);
        let out = solve_value(
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
        let out7 = solve_value(
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
        let src = defs(vec![below]);
        let err = solve_value(
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
        let src = defs(vec![ahead()]);
        // `ahead` takes no relation args.
        let err = solve_value(
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
        let src = defs(vec![]);
        let err = solve_value(
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
        let src = defs(vec![ahead()]);
        let (out_n, s_n) = solve_counted(&src, "ahead", chain(12), vec![], Strategy::Naive);
        let (out_s, s_s) = solve_counted(&src, "ahead", chain(12), vec![], Strategy::SemiNaive);
        assert_eq!(out_n, out_s);
        assert!(s_s.solve_rounds <= s_n.solve_rounds + 1);
    }

    /// `ahead` with both join positions recursive: its join branch runs
    /// as two delta tasks a round (delta × value and value × delta),
    /// and both derive every delta × delta combination.
    fn ahead_squared() -> Constructor {
        let closure = || rel("Rel").construct("ahead2", vec![]);
        Constructor {
            name: "ahead2".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: aheadrel(),
            body: SetFormer {
                branches: vec![
                    Branch::each("r", rel("Rel"), tru()),
                    Branch::projecting(
                        vec![attr("f", "head"), attr("b", "tail")],
                        vec![("f".into(), closure()), ("b".into(), closure())],
                        eq(attr("f", "tail"), attr("b", "head")),
                    ),
                ],
            },
        }
    }

    #[test]
    fn overlapping_tasks_of_one_equation_commit_each_tuple_once() {
        assert_eq!(
            seeded_classes(ahead_squared()),
            vec![
                BranchClass::Static,
                BranchClass::Linear(vec![(0, 0), (1, 0)])
            ]
        );
        let src = defs(vec![ahead_squared()]);
        let (naive, _) = solve_counted(&src, "ahead2", chain(9), vec![], Strategy::Naive);
        let (semi, m) = solve_counted(&src, "ahead2", chain(9), vec![], Strategy::SemiNaive);
        assert_eq!(semi, naive);
        assert_eq!(semi.len(), 45, "closure of a 9-edge chain");
        // Round 2's two tasks both derive all 8 two-edge paths: each is
        // staged once and enters the value once.
        assert_eq!(m.delta_tuples, semi.len() as u64);
    }

    /// Branch classes as seeding leaves them on `ctor` applied to a
    /// two-edge chain.
    fn seeded_classes(ctor: Constructor) -> Vec<BranchClass> {
        let src = defs(vec![ctor.clone()]);
        let root = Application::new(&ctor.name, chain(2), vec![], vec![]);
        let cat = MapCatalog::new();
        let solver = Solver::new(&src, &cat, root, None, &cfg(Strategy::SemiNaive)).unwrap();
        let classes = solver.state.borrow().equations[0].classes.clone();
        classes
    }

    #[test]
    fn branch_classification() {
        // `ahead`: the base branch is static, the join branch linear in
        // binding 1, whose peer is the equation itself.
        assert_eq!(
            seeded_classes(ahead()),
            vec![BranchClass::Static, BranchClass::Linear(vec![(1, 0)])]
        );
        // Application under a quantifier ⇒ fallback.
        let mut quantified = ahead();
        quantified.body.branches = vec![Branch::each(
            "r",
            rel("Rel"),
            some("x", rel("Rel").construct("ahead", vec![]), tru()),
        )];
        assert_eq!(seeded_classes(quantified), vec![BranchClass::Fallback]);
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

    /// `name` went from `old` to `new`.
    fn change(name: &str, old: &Relation, new: &Relation) -> Vec<(Name, BaseDelta)> {
        let (inserted, deleted) = algebra::delta(new, old).unwrap();
        let (before, after) = (old.storage_id(), new.storage_id());
        let delta = BaseDelta {
            before,
            after,
            inserted,
            deleted,
        };
        vec![(name.to_string(), delta)]
    }

    /// `rel` with `edge` added.
    fn plus(rel: &Relation, edge: (&str, &str)) -> Relation {
        let mut rel = rel.clone();
        rel.insert(tuple![edge.0, edge.1]).unwrap();
        rel
    }

    /// `rel` without `edge`.
    fn minus(rel: &Relation, edge: (&str, &str)) -> Relation {
        let mut rel = rel.clone();
        assert!(rel.remove(&tuple![edge.0, edge.1]));
        rel
    }

    /// Warm-solve `ctor` over `base` from `sys` by `deltas` against
    /// `cat`.
    fn warm(
        src: &Defs,
        cat: &MapCatalog,
        ctor: &str,
        base: &Relation,
        sys: SolvedSystem,
        deltas: &[(Name, BaseDelta)],
    ) -> WarmOutcome {
        let cfg = cfg(Strategy::SemiNaive);
        solve_warm(
            src,
            cat,
            ctor,
            base.clone(),
            vec![],
            vec![],
            sys,
            deltas,
            &cfg,
        )
        .unwrap()
    }

    #[test]
    fn warm_start_matches_cold_resolve() {
        let src = defs(vec![ahead()]);
        let old = chain(12);
        let sys = tracked(&src, &old);
        let v0 = sys.value().clone();
        assert_eq!(v0.len(), 12 * 13 / 2);

        // Extend the chain by one edge at the tail.
        let (added, _, system) = warm_ahead(&src, &old, &plus(&old, ("o12", "o13")), sys);
        // The exact output delta: every (oi, o13).
        assert_eq!(added.len(), 13);
        assert_eq!(
            algebra::union(&v0, &added).unwrap(),
            *system.value(),
            "prev ∪ added reconstructs the new result"
        );
    }

    #[test]
    fn warm_start_chains_across_commits() {
        let src = defs(vec![ahead()]);
        let mut base = chain(4);
        let mut sys = tracked(&src, &base);
        // Grow the chain one edge per "commit", warm each time.
        for k in 5..12 {
            let new = plus(&base, (&format!("o{}", k - 1), &format!("o{k}")));
            (_, _, sys) = warm_ahead(&src, &base, &new, sys);
            base = new;
        }
        assert_eq!(sys.value().len(), 11 * 12 / 2);
    }

    #[test]
    fn warm_start_refuses_naive_strategy_and_shape_changes() {
        let src = defs(vec![ahead()]);
        let old = chain(3);
        let sys = tracked(&src, &old);
        let new = plus(&old, ("o3", "o4"));
        let outcome = solve_warm(
            &src,
            &MapCatalog::new(),
            "ahead",
            new.clone(),
            vec![],
            vec![],
            sys,
            &change("Infront", &old, &new),
            &cfg(Strategy::Naive),
        )
        .unwrap();
        assert!(matches!(
            outcome,
            WarmOutcome::Refused {
                reason: Refusal::NaiveStrategy
            }
        ));
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
        let src = defs(vec![filtered]);
        let cat = MapCatalog::new().with_relation("Blocked", blocked.clone());
        let old = chain(3);
        let sys = || {
            let cfg = cfg(Strategy::SemiNaive);
            solve(&src, &cat, "ahead_ok", old.clone(), vec![], vec![], &cfg).unwrap()
        };
        // Touching only the base is warm-safe (the predicate reads
        // `Blocked`, which is untouched).
        let new = plus(&old, ("o3", "o4"));
        let deltas = change("Infront", &old, &new);
        let ok = warm(&src, &cat, "ahead_ok", &new, sys(), &deltas);
        assert!(matches!(ok, WarmOutcome::Solved { .. }));
        // Touching `Blocked` is not.
        let grown = plus(&blocked, ("o0", "o1"));
        let deltas = change("Blocked", &blocked, &grown);
        let refused = warm(&src, &cat, "ahead_ok", &old, sys(), &deltas);
        let WarmOutcome::Refused { reason } = refused else {
            panic!("a touched predicate relation must refuse");
        };
        assert_eq!(reason.label(), "non_monotone_read");
        // A deletion from it refuses the same way.
        let deltas = change("Blocked", &grown, &blocked);
        let refused = warm(&src, &cat, "ahead_ok", &old, sys(), &deltas);
        assert!(matches!(
            refused,
            WarmOutcome::Refused {
                reason: Refusal::NonMonotoneRead { branch: 0, .. }
            }
        ));
    }

    #[test]
    fn warm_start_refuses_an_actual_no_delta_leads_to() {
        // `ahead` applied to a selection of `Rel`: the inner equation's
        // actual is computed, fresh storage every solve, so even with
        // nothing touched its identity matches nothing.
        let from_o1 = Branch::each("e", rel("Rel"), ge(attr("e", "front"), cnst("o1")));
        let outer = Constructor {
            name: "outer".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: aheadrel(),
            body: SetFormer {
                branches: vec![Branch::each(
                    "a",
                    set_former(vec![from_o1]).construct("ahead", vec![]),
                    tru(),
                )],
            },
        };
        let src = defs(vec![ahead(), outer]);
        let cat = MapCatalog::new();
        let base = chain(4);
        let cfg = cfg(Strategy::SemiNaive);
        let sys = solve(&src, &cat, "outer", base.clone(), vec![], vec![], &cfg).unwrap();
        assert_eq!(sys.value().len(), 3 * 4 / 2);
        let refused = warm(&src, &cat, "outer", &base, sys, &[]);
        let WarmOutcome::Refused { reason } = refused else {
            panic!("a computed actual must refuse");
        };
        assert_eq!(
            reason,
            Refusal::UnmatchedActual {
                equation: 1,
                constructor: "ahead".into(),
                formal: "Rel".into(),
            }
        );
        assert_eq!(reason.label(), "unmatched_actual");
    }

    /// Warm-solve `ahead` from `sys`, solved over `old`, to `new`, check
    /// it against a cold solve of `new`, and return (added, removed,
    /// system).
    fn warm_ahead(
        src: &Defs,
        old: &Relation,
        new: &Relation,
        sys: SolvedSystem,
    ) -> (Relation, Relation, SolvedSystem) {
        let cfg = cfg(Strategy::SemiNaive);
        let prev = sys.value().clone();
        let deltas = change("Infront", old, new);
        let outcome = warm(src, &MapCatalog::new(), "ahead", new, sys, &deltas);
        let WarmOutcome::Solved {
            value,
            added,
            removed,
            system,
        } = outcome
        else {
            panic!("warm start unexpectedly refused");
        };
        let cold = solve_value(src, "ahead", new.clone(), vec![], vec![], &cfg).unwrap();
        assert_eq!(value.sorted_tuples(), cold.sorted_tuples());
        assert_eq!(system.value(), &value);
        let (want_added, want_removed) = algebra::delta(&value, &prev).unwrap();
        assert_eq!(added.sorted_tuples(), want_added.sorted_tuples());
        assert_eq!(removed.sorted_tuples(), want_removed.sorted_tuples());
        (added, removed, system)
    }

    fn ahead_source() -> Defs {
        defs(vec![ahead()])
    }

    fn tracked(src: &Defs, base: &Relation) -> SolvedSystem {
        let cfg = cfg(Strategy::SemiNaive);
        let cat = MapCatalog::new();
        solve(src, &cat, "ahead", base.clone(), vec![], vec![], &cfg).unwrap()
    }

    #[test]
    fn warm_deletion_retracts_what_lost_its_last_derivation() {
        let src = ahead_source();
        let base = chain(6);
        let sys = tracked(&src, &base);
        // Cut the chain o0 → … → o6 between o2 and o3: every pair
        // spanning the cut goes, 3 × 4 of them.
        let new = minus(&base, ("o2", "o3"));
        let (added, removed, _) = warm_ahead(&src, &base, &new, sys);
        assert!(added.is_empty());
        assert_eq!(removed.len(), 12);
    }

    #[test]
    fn counts_served_after_a_warm_deletion_are_exact() {
        let src = ahead_source();
        let base = chain(6);
        let sys = tracked(&src, &base);
        // Ask for the tail column's distinct count as a plan comparing
        // a probe on it does: the index is built over the converged
        // value and handed on with it.
        let tails = |sys: &SolvedSystem| {
            let idx = sys.access.index(sys.value(), &[1]).unwrap();
            idx.distinct_keys()
        };
        assert_eq!(tails(&sys), 6);
        // Cut o0 → … → o6 between o2 and o3: every pair ending in o3
        // goes.
        let new = minus(&base, ("o2", "o3"));
        let (_, _, sys) = warm_ahead(&src, &base, &new, sys);
        let indexes = sys.index_count();
        let served = tails(&sys);
        assert_eq!(sys.index_count(), indexes, "maintained, not rebuilt");
        assert_eq!(
            served,
            dc_index::RelationStats::collect(sys.value()).distinct[1]
        );
        assert_eq!(served, 5, "exact, not an upper bound");
    }

    #[test]
    fn warm_deletion_rederives_a_tuple_with_a_second_derivation() {
        let src = ahead_source();
        // o0 → o1 → o2 plus the shortcut o0 → o2: (o0, o2) has two
        // derivations, and deleting the shortcut leaves the other.
        let base = plus(&chain(2), ("o0", "o2"));
        let sys = tracked(&src, &base);
        let new = minus(&base, ("o0", "o2"));
        let (added, removed, _) = warm_ahead(&src, &base, &new, sys);
        assert!(
            added.is_empty() && removed.is_empty(),
            "re-derived, not retracted"
        );
    }

    #[test]
    fn warm_deletion_rederives_a_whole_target_over_a_view_unrestricted() {
        // A third branch ranges over a view of the untouched `Extra`,
        // whose attributes are not known before it runs: its re-derive
        // task evaluates it whole instead of restricting it to `D`, and
        // so restores the cut edge, which the over-delete collected.
        let mut ctor = ahead();
        let view = set_former(vec![Branch::each("e", rel("Extra"), tru())]);
        ctor.body.branches.push(Branch::each("r", view, tru()));
        let src = defs(vec![ctor]);
        let extra = Relation::from_tuples(infrontrel(), vec![tuple!["o2", "o3"]]).unwrap();
        let cat = MapCatalog::new().with_relation("Extra", extra);
        let cfg = cfg(Strategy::SemiNaive);
        let base = chain(6);
        let sys = solve(&src, &cat, "ahead", base.clone(), vec![], vec![], &cfg).unwrap();
        let new = minus(&base, ("o2", "o3"));
        let deltas = change("Infront", &base, &new);
        let WarmOutcome::Solved {
            value,
            added,
            removed,
            ..
        } = warm(&src, &cat, "ahead", &new, sys, &deltas)
        else {
            panic!("warm start unexpectedly refused");
        };
        // Lost: the pairs that needed the cut edge in a join; kept: the
        // three into `o3`, through `Extra`'s copy of it.
        assert!(added.is_empty());
        assert_eq!(removed.len(), 3 * 3);
        let cold = solve(&src, &cat, "ahead", new, vec![], vec![], &cfg).unwrap();
        assert_eq!(value, *cold.value());
    }

    #[test]
    fn warm_deletion_cuts_a_cycle_and_chains_with_inserts() {
        let src = ahead_source();
        // A 4-cycle: every node reaches every node, each pair through
        // the cycle itself — the case counting-based maintenance gets
        // wrong, because the support of each tuple loops back on it.
        let cycle = ["o0", "o1", "o2", "o3"];
        let mut base = Relation::new(infrontrel());
        for k in 0..4 {
            base.insert(tuple![cycle[k], cycle[(k + 1) % 4]]).unwrap();
        }
        let mut sys = tracked(&src, &base);
        assert_eq!(sys.value().len(), 16);
        // Cut it: only the chain o1 → o2 → o3 → o0 remains.
        let new = minus(&base, ("o0", "o1"));
        let (_, removed, next) = warm_ahead(&src, &base, &new, sys);
        assert_eq!(removed.len(), 10);
        sys = next;
        // Replace the cut edge by another one in the same commit.
        let newer = plus(&minus(&new, ("o1", "o2")), ("o0", "o1"));
        let (added, removed, _) = warm_ahead(&src, &new, &newer, sys);
        assert!(!added.is_empty() && !removed.is_empty());
        assert!(added.iter().all(|t| !removed.contains(t)));
    }
}
