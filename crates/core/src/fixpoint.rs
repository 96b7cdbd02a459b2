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
//! # Snapshot rounds
//!
//! The Jacobi update makes every round embarrassingly parallel: all
//! equation bodies of round `k+1` read only round-`k` state. The solver
//! exploits that by preparing each round's branch evaluations as
//! self-contained tasks, freezing an immutable catalog snapshot (the
//! private `snapshot` submodule), and handing the tasks to the worker
//! pool (the private `pool` submodule) — cross-branch *and*
//! cross-equation parallelism, impure branches included (quantifier
//! probes included: they only need the frozen snapshot). This is the
//! engine's only parallelism. Each task returns its value plus the
//! constructor applications it met for the first time; the solver
//! replays those single-threaded at the commit site, so registration
//! and delta commits stay serialized and `threads = N` commits
//! relations identical to `threads = 1`. Indexes live in the solve's
//! one [`AccessCache`], keyed by storage identity: tasks fill it
//! directly from any thread, and the commit site
//! [`AccessCache::advance`]s each grown equation value.
//!
//! A panic anywhere inside a solve is caught at the solver's entry and
//! returned as a structured [`SolveError::WorkerPanic`].

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dc_calculus::ast::{Branch, CmpOp, Formula, Name, RangeExpr, ScalarExpr, SetFormer, Target};
use dc_calculus::env::Overlay;
use dc_calculus::rewrite;
use dc_calculus::{AccessCache, Catalog, EvalError, Evaluator};
use dc_governor::fail::{self, Site};
use dc_governor::{Budget, Meter, SolveDiag, SolveError};
use dc_relation::{algebra, Relation};
use dc_trace::metrics::{Counter, Histogram, MetricsRegistry};
use dc_trace::SpanKind;
use dc_value::{FxHashMap, Tuple, Value};

use crate::catalog::Defs;

mod pool;
mod snapshot;

use pool::ExecError;
pub use snapshot::Reach;
use snapshot::{EvalSnapshot, SnapshotCatalog, Universe};

/// Minimum weight of a round task — the tuples of the overridden
/// (delta or doomed) ranges it scans — for the task to count toward
/// parallel dispatch ([`FixpointConfig::parallel_threshold`]'s
/// default): a round goes to the worker pool only when at least two of
/// its tasks clear it. Below it a task evaluates in tens of
/// microseconds and the fixed cost of dispatch — thread spawns and the
/// hand-back to the solver thread — outweighs what it saves.
pub const PARALLEL_SCAN_THRESHOLD: usize = 2048;

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

/// Configuration of a fixpoint run.
#[derive(Debug, Clone)]
pub struct FixpointConfig {
    /// The reference override: `Naive` runs every system naive.
    /// `SemiNaive` (the default) leaves the choice to the solver, which
    /// runs naive exactly when an unchecked constructor is reachable
    /// from the root.
    pub strategy: Strategy,
    /// Hard bound on rounds, for non-convergent (unchecked) systems.
    pub max_iterations: usize,
    /// Execute equation bodies with index-nested-loop joins (default).
    /// `false` forces the reference nested-loop evaluator everywhere —
    /// the pre-optimization baseline, kept selectable for differential
    /// tests and benchmark comparisons.
    pub use_indexes: bool,
    /// Worker threads, resolved once per solve: `0` (the default) means
    /// "auto" — the `DC_THREADS` environment variable if set, otherwise
    /// the machine's available parallelism; `1` is the exact sequential
    /// path; any other value is used as given (up to the pool's cap).
    /// Results are identical for every setting: a round's branch tasks
    /// run on workers against a frozen snapshot, while registration
    /// and delta commits (with the index maintenance they carry) stay
    /// on the solver thread.
    pub threads: usize,
    /// Task-weight floor for round dispatch (default
    /// [`PARALLEL_SCAN_THRESHOLD`]): a round is dispatched to workers
    /// when at least two of its tasks clear it. Differential tests lower
    /// it to force dispatch on small inputs.
    pub parallel_threshold: usize,
    /// Resource envelope for each solve, if any. The budget is *armed*
    /// (clock captured) at the start of every solve, so a 10 ms
    /// deadline means 10 ms per solve, not 10 ms since configuration.
    /// A tripped budget aborts atomically with a structured
    /// [`dc_governor::SolveError`]; `None` means unlimited.
    pub budget: Option<Budget>,
    /// Metrics registry solve-level counters (rounds, equations, delta
    /// tuples, branch dispatch decisions, planner decisions) are
    /// recorded into, if the owner threads one through — the one place
    /// a solve's numbers are read. `Database` and the serving layer
    /// each install their own; `None` keeps the solver metric-free.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for FixpointConfig {
    fn default() -> FixpointConfig {
        FixpointConfig {
            strategy: Strategy::SemiNaive,
            max_iterations: 100_000,
            use_indexes: true,
            threads: 0,
            parallel_threshold: PARALLEL_SCAN_THRESHOLD,
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
/// names, and every first sighting a round task logs all enter the
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
    /// Per-branch semi-naive classification, filled when seeded.
    classes: Vec<BranchClass>,
    /// Has the Static-branch contribution been computed yet?
    initialized: bool,
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
    /// Per equation, the tuples a warm deletion's over-delete phase
    /// collected (`D`); empty outside that phase's solves.
    doomed: Vec<Relation>,
    /// The solve's access cache: every index any branch evaluation of
    /// this solve builds,
    /// keyed by the storage of the relation it describes — base
    /// relations and actuals (stable for the whole solve), equation
    /// values (advanced at commit), deltas (forgotten at commit).
    access: Arc<AccessCache>,
    /// The base-catalog slice and constructor definitions the solve can
    /// reach, resolved once before the first registration and frozen
    /// into every round snapshot (`Arc`-shared: a freeze is a pointer
    /// bump).
    universe: Arc<Universe>,
}

impl State {
    /// Add the equation for `app`, which is not registered yet, and
    /// return its index. Its body is seeded separately.
    fn register(
        &mut self,
        app: Application,
        slots: Option<Vec<Option<Name>>>,
    ) -> Result<usize, EvalError> {
        let universe = self.universe.clone();
        let ctor = universe.definition(&app)?;
        let formals = ctor.rel_formals();
        // Provenance is all-or-nothing: one computed actual poisons the
        // equation (a base delta could flow in through a path the
        // per-formal map cannot name).
        let provenance = slots.and_then(|sl| {
            formals
                .clone()
                .zip(sl)
                .map(|(formal, slot)| Some((formal.clone(), slot?)))
                .collect()
        });
        let overrides = formals
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
            initialized: false,
            provenance,
        });
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

impl FixpointConfig {
    /// The one evaluator builder, for queries and solves alike: an
    /// evaluator over `catalog` that counts into
    /// [`FixpointConfig::metrics`], is governed by `meter` if one is
    /// given, and honours [`FixpointConfig::use_indexes`].
    pub fn evaluator<'e>(&self, catalog: &'e dyn Catalog, meter: Option<Meter>) -> Evaluator<'e> {
        let mut ev = Evaluator::new(catalog);
        if let Some(m) = &self.metrics {
            ev = ev.with_metrics(m.clone());
        }
        if let Some(meter) = meter {
            ev = ev.with_meter(meter);
        }
        if self.use_indexes {
            ev
        } else {
            ev.force_nested_loop()
        }
    }
}

/// What every solver-spawned evaluator shares: the solve's
/// configuration, its resolved worker count, and its armed budget.
#[derive(Debug, Clone)]
struct ExecKnobs {
    /// The solve's configuration.
    cfg: FixpointConfig,
    /// Resolved worker count ([`FixpointConfig::threads`] resolved once
    /// per solve).
    threads: usize,
    /// The armed budget gauge: one per solve, shared (clones share
    /// counters) by the solver loop and every branch evaluator, on
    /// whichever thread it runs. Always armed — an unlimited meter
    /// never trips but keeps the scheduler counters the solve records.
    budget: Meter,
}

impl ExecKnobs {
    fn of(cfg: &FixpointConfig) -> ExecKnobs {
        ExecKnobs {
            cfg: cfg.clone(),
            threads: pool::thread_count(cfg.threads),
            budget: cfg.budget.clone().unwrap_or_default().meter(),
        }
    }

    /// An evaluator under the solve's configuration and budget.
    fn evaluator<'e>(&self, catalog: &'e dyn Catalog) -> Evaluator<'e> {
        self.cfg.evaluator(catalog, Some(self.budget.clone()))
    }
}

/// Solve the system rooted at `constructor(base, args, scalar_args)`
/// cold — definitions from `defs`; relations, selectors and scalar
/// parameters from `cat` — and capture the converged system's
/// materialised state
/// (per-equation values and the access structures maintained over
/// them), so a later [`solve_warm`] can re-enter the semi-naive rounds
/// instead of starting over. `names` names the catalog relations the
/// actuals came from (base, then relation arguments) — the provenance
/// warm starts use to route base deltas to formals; without it the
/// system cannot be maintained warm. Run statistics go to
/// [`FixpointConfig::metrics`].
#[allow(clippy::too_many_arguments)]
pub fn solve(
    defs: &Defs,
    cat: &dyn Catalog,
    constructor: &str,
    base: Relation,
    args: Vec<Relation>,
    scalar_args: Vec<Value>,
    names: Option<(&str, &[&str])>,
    cfg: &FixpointConfig,
) -> Result<SolvedSystem, EvalError> {
    isolate(|| {
        let root = Application::new(constructor, base, args, scalar_args);
        let names = names.map(root_slots);
        Ok(Solver::new(defs, cat, root, names, None, cfg)?
            .run()?
            .system)
    })
}

/// Re-solve `constructor(base, args, scalar_args)` warm: seed every
/// equation from `prev` (the system captured by a previous [`solve`]
/// with `names`, or [`solve_warm`], over the *same* system shape) and
/// maintain it by `deltas` — per named base relation, the tuples
/// inserted and deleted since `prev` was captured. The actuals
/// (`base`/`args`) must be the *new* relation values, `names` the
/// catalog relations they came from.
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
/// system shape, an equation with untracked provenance or a fallback
/// branch, and any touched relation reachable through a predicate,
/// selector body or computed constructor actual. A refusal is not an
/// error; the caller re-solves cold via [`solve`].
#[allow(clippy::too_many_arguments)]
pub fn solve_warm(
    defs: &Defs,
    cat: &dyn Catalog,
    constructor: &str,
    base: Relation,
    args: Vec<Relation>,
    scalar_args: Vec<Value>,
    names: (&str, &[&str]),
    prev: SolvedSystem,
    deltas: &[(Name, BaseDelta)],
    cfg: &FixpointConfig,
) -> Result<WarmOutcome, EvalError> {
    isolate(|| {
        let root = Application::new(constructor, base, args, scalar_args);
        let SolvedSystem { equations, access } = prev;
        let slots = Some(root_slots(names));
        let solver = Solver::new(defs, cat, root, slots, Some(access), cfg)?;
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

/// Root provenance slots from caller-supplied names.
fn root_slots((base_name, arg_names): (&str, &[&str])) -> Vec<Option<Name>> {
    std::iter::once(base_name)
        .chain(arg_names.iter().copied())
        .map(|n| Some(n.to_string()))
        .collect()
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

/// What one commit did to one base relation: the tuples it inserted
/// and the tuples it deleted, both net of the other (a tuple inserted
/// and deleted again by the same batch is in neither).
#[derive(Debug, Clone)]
pub struct BaseDelta {
    /// Tuples the new value holds and the old one did not.
    pub inserted: Relation,
    /// Tuples the old value held and the new one does not.
    pub deleted: Relation,
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
    /// An equation's formal is bound to a computed range, so a base
    /// delta cannot be routed to it.
    UntrackedProvenance {
        /// Equation index.
        equation: usize,
        /// Its constructor.
        constructor: Name,
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
            Refusal::UntrackedProvenance { .. } => "untracked_provenance",
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
            Refusal::UntrackedProvenance {
                equation,
                constructor,
            } => write!(
                f,
                "equation {equation} (`{constructor}`) has untracked relation provenance"
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

/// How a round's commit applies the staged results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Semi-naive: the staged tuples not yet in the value are the
    /// round's delta and grow the value in place.
    Grow,
    /// Naive: the staged value replaces the old one.
    Replace,
    /// Over-delete: the staged tuples that are in the (unchanged) value
    /// and not yet collected are the round's delta and join the
    /// equation's over-deleted set.
    Collect,
}

/// Per-solve totals that outlive one call of [`Solver::rounds`].
#[derive(Default)]
struct Tally {
    rounds: usize,
    delta_tuples: u64,
    /// The root's accumulated additions — `Some` for warm runs only.
    added: Option<Relation>,
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
/// against while the solver thread instantiates it — formal names
/// resolve through per-equation overrides, constructor applications to
/// the *current iterate* (registering new equations on first sight:
/// dynamic instantiation of the §3.2 system). Definitions are looked up
/// once, into the universe; the base catalog resolves the rest.
struct Solver<'s> {
    catalog: &'s dyn Catalog,
    state: RefCell<State>,
    knobs: ExecKnobs,
    /// `State::access`, held outside the `RefCell` so it can be lent
    /// to evaluators.
    access: Arc<AccessCache>,
    /// The strategy decision, made once per solve in [`Solver::new`].
    naive: bool,
    /// Open for the whole solve; rounds, phases, and branch tasks nest
    /// under it (branch tasks via an explicit parent when dispatched).
    span: dc_trace::Span,
    t0: Instant,
}

impl<'s> Solver<'s> {
    /// Walk everything the root can reach, once: decide the strategy,
    /// resolve the universe every round snapshot shares, then
    /// instantiate the system from the root (equation 0). `warm` is the
    /// previous system's cache, which the solve takes over.
    fn new(
        defs: &Defs,
        catalog: &'s dyn Catalog,
        root: Application,
        root_names: Option<Vec<Option<Name>>>,
        warm: Option<Arc<AccessCache>>,
        cfg: &FixpointConfig,
    ) -> Result<Solver<'s>, EvalError> {
        let t0 = Instant::now();
        let span = dc_trace::span(SpanKind::Solve).name_with(|| root.key.constructor().to_string());
        let mut reach = Reach::new(defs);
        reach.constructor(root.key.constructor());
        let naive = cfg.strategy == Strategy::Naive || reach.any_unchecked();
        // A warm start seeds the equation values from `prev`, storage
        // and all, so its entries are this solve's from the first round.
        let access = warm.unwrap_or_else(|| Arc::new(AccessCache::new(cfg.metrics.clone())));
        let solver = Solver {
            catalog,
            state: RefCell::new(State {
                equations: Vec::new(),
                index: FxHashMap::default(),
                current: Vec::new(),
                delta: Vec::new(),
                doomed: Vec::new(),
                access: access.clone(),
                universe: Arc::new(reach.into_universe(catalog)),
            }),
            knobs: ExecKnobs::of(cfg),
            access,
            naive,
            span,
            t0,
        };
        solver.enter(root, root_names)?;
        Ok(solver)
    }

    /// The one instantiation path: the equation of `app`, registered
    /// (with provenance `slots`) and seeded on first sight.
    fn enter(
        &self,
        app: Application,
        slots: Option<Vec<Option<Name>>>,
    ) -> Result<usize, EvalError> {
        if let Some(&i) = self.state.borrow().index.get(&app.key) {
            return Ok(i);
        }
        let i = self.state.borrow_mut().register(app, slots)?;
        self.seed(i)?;
        Ok(i)
    }

    /// Evaluate the actuals of `app`, an application in equation
    /// `parent`'s body, under `parent`'s overlay, and enter it with
    /// their provenance. `None` when the actuals themselves apply
    /// constructors: the key is value-dependent, so the application
    /// registers dynamically during evaluation instead.
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
        if actuals().any(|r| !rewrite::collect_constructed(r).is_empty()) {
            return Ok(None);
        }
        let (overrides, provenance) = {
            let st = self.state.borrow();
            let eq = &st.equations[parent];
            (eq.overrides.clone(), eq.provenance.clone())
        };
        let overlay = Overlay::new(self, (*overrides).clone());
        let mut ev = self.knobs.evaluator(&overlay);
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
        let slots = actuals()
            .map(|r| provenance_slot(r, provenance.as_ref(), &overrides))
            .collect();
        let app = Application::new(constructor, base_val, arg_vals, scalar_vals);
        self.enter(app, Some(slots)).map(Some)
    }

    /// Instantiate every application in equation `i`'s body whose
    /// actuals are application-free — the up-front instantiation of the
    /// §3.2 system, recursive through [`Solver::enter`] (idempotent by
    /// key, so mutual recursion terminates) — and classify each branch
    /// on the way.
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
        self.state.borrow_mut().equations[i].classes = classes;
        Ok(())
    }

    /// Append equation `i`'s tasks for the coming round, in branch
    /// order (the sequential evaluation order). Semi-naive evaluates a
    /// Static branch once and a Linear branch once per recursive
    /// position over that peer's delta; every other branch — and, under
    /// naive, every branch — is evaluated whole.
    fn prepare(&self, i: usize, tasks: &mut Vec<BranchTask>) {
        let st = self.state.borrow();
        let eq = &st.equations[i];
        let weight: usize = eq.overrides.iter().map(|(_, r)| r.len()).sum();
        for (b, branch) in eq.body.branches.iter().enumerate() {
            match &eq.classes[b] {
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
                        let marker = format!("{DELTA_MARKER}{pos}");
                        tasks.push(delta_task(&st, i, b, vec![(pos, marker, scan.clone())]));
                    }
                }
                _ => tasks.push(BranchTask {
                    eq: i,
                    branch: b,
                    body: SetFormer {
                        branches: vec![branch.clone()],
                    },
                    overrides: (*eq.overrides).clone(),
                    weight,
                }),
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
                let Some(prov) = &eq.provenance else {
                    return Err(Refusal::UntrackedProvenance {
                        equation: i,
                        constructor: name.to_string(),
                    });
                };
                if eq.classes.contains(&BranchClass::Fallback) {
                    return Err(Refusal::FallbackBranch {
                        equation: i,
                        constructor: name.to_string(),
                    });
                }
                // Safety: map touched base relations onto the local
                // names the body reads them through (formals shadow
                // catalog names), then require every touched occurrence
                // to be a plain binding range — those become delta
                // positions; anything else (predicates, selector
                // bodies, computed constructor actuals) refuses.
                let mut local: FxHashMap<&str, &BaseDelta> =
                    deltas.iter().map(|(n, d)| (n.as_str(), d)).collect();
                for (formal, _) in eq.overrides.iter() {
                    local.remove(formal.as_str());
                    if let Some((_, d)) = prov
                        .get(formal)
                        .and_then(|t| deltas.iter().find(|(n, _)| n == t))
                    {
                        local.insert(formal, d);
                    }
                }
                for (b, branch) in eq.body.branches.iter().enumerate() {
                    let mut reach = Reach::new(&st.universe.defs);
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
                            // forward provenance into the child equation
                            // (validated there); computed ones are read
                            // here.
                            RangeExpr::Constructed { base, args, .. } => {
                                std::iter::once(&**base)
                                    .chain(args)
                                    .filter(|a| !matches!(a, RangeExpr::Rel(_)))
                                    .for_each(|a| reach.add(a));
                            }
                            other => reach.add(other),
                        }
                    }
                    if reach.hits(|n| local.contains_key(n) || deltas.iter().any(|(t, _)| t == n)) {
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
    fn maintain(self, plan: WarmPlan) -> Result<Converged, EvalError> {
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
            let seeds = {
                let st = self.state.borrow();
                let mut seeds = Vec::new();
                for (i, b, positions) in &plan.deletes {
                    for subset in 1..(1usize << positions.len()) {
                        let bound = positions
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| subset >> k & 1 == 1)
                            .map(|(_, (p, d))| (*p, format!("{DELTA_MARKER}x{p}"), d.clone()))
                            .collect();
                        seeds.push(delta_task(&st, *i, *b, bound));
                    }
                }
                seeds
            };
            self.rounds(Some(seeds), Rule::Collect, &mut tally)?;
            self.remove_doomed();
        }
        // Re-derive: the head-restricted round over every branch of an
        // equation that lost tuples, in one round with the inserted
        // tuples' tasks (the full *new* values at the other positions
        // plus one delta position per task cover every new combination;
        // overlap deduplicates at absorb). Branches with no touched
        // binding are skipped: their static contributions are in the
        // seed, and recursive deltas are empty until round one commits.
        // Distinct marker namespaces (`Δdelta` + `b`/`x` + position)
        // keep warm tasks clear of the round loop's recursive-delta
        // markers.
        let first = {
            let st = self.state.borrow();
            let mut tasks = Vec::new();
            for (i, eq) in st.equations.iter().enumerate() {
                if !st.doomed[i].is_empty() {
                    tasks.extend((0..eq.body.branches.len()).map(|b| rederive_task(&st, i, b)));
                }
            }
            tasks.extend(plan.inserts.into_iter().map(|(i, b, p, d)| {
                delta_task(&st, i, b, vec![(p, format!("{DELTA_MARKER}b{p}"), d)])
            }));
            tasks
        };
        self.rounds(Some(first), Rule::Grow, &mut tally)?;
        self.finish(tally)
    }

    /// Take every over-deleted tuple out of its equation's value. The
    /// indexes cached over the value shrink with it, in
    /// [`AccessCache::advance`] — O(|D|), nothing is rebuilt.
    fn remove_doomed(&self) {
        let _remove_span = phase_span("remove");
        let mut st = self.state.borrow_mut();
        for i in 0..st.equations.len() {
            if st.doomed[i].is_empty() {
                continue;
            }
            let empty = Relation::new(st.doomed[i].schema().clone());
            let old = st.current[i].storage_id();
            let State {
                current,
                doomed,
                access,
                ..
            } = &mut *st;
            for t in doomed[i].iter() {
                current[i].remove(t);
            }
            access.advance(old, &current[i], &empty, &doomed[i]);
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
        let knobs = &self.knobs;
        let meter = knobs.budget.clone();
        let mut prev: Option<Vec<Relation>> = None;
        let mut prev2: Option<Vec<Relation>> = None;
        loop {
            tally.rounds += 1;
            let rounds = tally.rounds;
            if rounds > knobs.cfg.max_iterations {
                // Round-allowance exhaustion is a divergence verdict, with
                // enough diagnostics to distinguish a genuinely divergent
                // system (growing delta) from a slow convergent one.
                let note = format!(
                    "max_iterations ({}) exhausted without convergence",
                    knobs.cfg.max_iterations
                );
                return Err(EvalError::Solve(SolveError::Diverged {
                    diag: self.diag(rounds - 1, vec![note]),
                }));
            }
            let mut round_span = dc_trace::span(SpanKind::Round);
            round_span.field("round", rounds);
            // ---- Prep (solver thread): everything that reads solver
            // state happens here, before the freeze. Each equation
            // stages its round result under its declared schema: the new
            // tuples (semi-naive), the whole new value (naive), or the
            // newly over-deleted tuples.
            let prep_span = phase_span("prep");
            let n = self.state.borrow().equations.len();
            let tasks = first.take().unwrap_or_else(|| {
                let mut tasks = Vec::new();
                for i in 0..n {
                    self.prepare(i, &mut tasks);
                }
                tasks
            });
            let (round_current, round_doomed, mut fresh) = {
                let st = self.state.borrow();
                let fresh: Vec<Relation> = st
                    .equations
                    .iter()
                    .map(|e| Relation::new(e.result.clone()))
                    .collect();
                let doomed = match rule {
                    Rule::Collect => st.doomed.clone(),
                    Rule::Grow | Rule::Replace => Vec::new(),
                };
                (st.current.clone(), doomed, fresh)
            };
            drop(prep_span);
            // ---- Freeze. Everything a branch task reads, at one round.
            let snap = {
                let _freeze_span = phase_span("freeze");
                self.state.borrow().freeze()
            };
            // ---- Dispatch. Batch the round's tasks onto workers when the
            // parallelism can pay — at least two tasks whose scan side
            // clears the parallel threshold — otherwise run them inline in
            // the same task order (Jacobi staging makes the task order
            // semantically irrelevant; keeping it fixes the error-witness
            // choice).
            let eligible = tasks
                .iter()
                .filter(|t| t.weight >= self.knobs.cfg.parallel_threshold)
                .count();
            let dispatch = self.knobs.threads > 1 && tasks.len() >= 2 && eligible >= 2;
            let eval_span = phase_span("evaluate");
            let eval_parent = eval_span.id();
            let workers = if dispatch {
                meter.add_parallel_branches(tasks.len() as u64);
                let mut eqs: Vec<usize> = tasks.iter().map(|t| t.eq).collect();
                eqs.sort_unstable();
                eqs.dedup();
                if eqs.len() >= 2 {
                    meter.add_parallel_equations(eqs.len() as u64);
                }
                knobs.threads
            } else {
                meter.add_sequential_branches(tasks.len() as u64);
                1
            };
            let parent = dispatch.then_some(eval_parent);
            let results =
                pool::run_tasks(&tasks, workers, |_, t| run_task(&snap, knobs, t, parent));
            drop(eval_span);
            // ---- Replay + stage (solver thread, task order — the
            // sequential evaluation order). Replay each task's
            // registrations, then absorb its value; a worker panic
            // degrades that one task to an inline sequential retry.
            let commit_span = phase_span("replay+commit");
            for (task, result) in tasks.iter().zip(results) {
                let outcome = match result {
                    Ok(outcome) => outcome,
                    Err(ExecError::WorkerPanic) => {
                        let retry = run_task(&snap, &self.knobs, task, None);
                        if retry.is_ok() {
                            meter.note_degraded();
                        }
                        retry
                    }
                    Err(ExecError::FaultInjected(f)) => Err(f.into()),
                };
                let value = &round_current[task.eq];
                outcome
                    .and_then(
                        |TaskOutcome {
                             value: part,
                             effects,
                         }| {
                            for app in effects {
                                self.enter(app, None)?;
                            }
                            absorb(&mut fresh[task.eq], &part, |t| match rule {
                                Rule::Grow => !value.contains(t),
                                Rule::Replace => true,
                                Rule::Collect => {
                                    value.contains(t) && !round_doomed[task.eq].contains(t)
                                }
                            })
                        },
                    )
                    .map_err(|e| self.enrich(e, task.eq, rounds - 1))?;
            }
            // Release every handle into the frozen round state before the
            // commit: relations are copy-on-write, so the in-place
            // `union_into` below mutates each tuple store directly only
            // while its `Arc` is unshared — a surviving snapshot, task
            // override, or round clone would force a full store copy every
            // round.
            drop(tasks);
            drop(round_current);
            drop(round_doomed);
            drop(snap);
            // Commit (with the `delta_commit` fault-injection site guarding
            // the atomic-abort property: an abort here must leave every
            // caller-visible relation untouched).
            fail::check(Site::DeltaCommit)?;
            let changed = self.commit(fresh, rule, tally)?;
            drop(commit_span);
            let grew = self.state.borrow().equations.len() > n;
            if !changed && !grew {
                return Ok(());
            }
            // Round boundary: unconditional deadline/cancellation reads plus
            // the budget's round ceiling. Checked only when another round is
            // coming — a solve that just converged is a result, not a trip.
            meter.check_round(rounds as u64).map_err(|trip| {
                let mut se = SolveError::from_trip(trip);
                let notes = std::mem::take(&mut se.diag_mut().notes);
                *se.diag_mut() = self.diag(rounds, notes);
                se.diag_mut().site = format!("round boundary after round {rounds}");
                EvalError::Solve(se)
            })?;
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
        let meter = self.knobs.budget.clone();
        let Solver {
            state,
            knobs,
            mut span,
            t0,
            ..
        } = self;
        let st = state.into_inner();
        let equations = st.equations.len();
        if let Some(m) = &knobs.cfg.metrics {
            m.inc(Counter::SolveRuns);
            m.add(Counter::SolveRounds, tally.rounds as u64);
            m.add(Counter::SolveEquations, equations as u64);
            m.add(Counter::DeltaTuples, tally.delta_tuples);
            m.add(Counter::ParallelBranches, meter.parallel_branches());
            m.add(Counter::SequentialBranches, meter.sequential_branches());
            m.add(Counter::ParallelEquations, meter.parallel_equations());
            m.add(Counter::DegradedBranches, meter.degraded());
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
        st.access.retain(&value_ids);
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
                constructor: eq.key.constructor,
                result: eq.result,
                value,
            })
            .collect::<Vec<_>>();
        Ok(Converged {
            added,
            removed,
            system: SolvedSystem {
                equations,
                access: st.access,
            },
        })
    }

    /// Commit one round's staged results, every equation at once (the
    /// Jacobi update), by `rule`. Grow: `fresh[i]` is exactly the new
    /// tuples, absorbed into the accumulated value in place — the
    /// indexes cached over it follow through `advance`,
    /// O(|delta|), no rebuild, no re-diff. Replace: `fresh[i]` is the
    /// whole new value and replaces the old one — non-monotone
    /// (unchecked) systems can shrink as well as grow. Collect:
    /// `fresh[i]` is exactly the newly over-deleted tuples; they join
    /// the equation's `D` and the value stays. Returns whether anything
    /// moved.
    fn commit(
        &self,
        fresh: Vec<Relation>,
        rule: Rule,
        tally: &mut Tally,
    ) -> Result<bool, EvalError> {
        let mut st = self.state.borrow_mut();
        let mut changed = false;
        for (i, new) in fresh.into_iter().enumerate() {
            let delta = match rule {
                Rule::Grow => {
                    if !new.is_empty() {
                        changed = true;
                        let old = st.current[i].storage_id();
                        algebra::union_into(&mut st.current[i], &new)?;
                        let none = Relation::new(new.schema().clone());
                        st.access.advance(old, &st.current[i], &new, &none);
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
                    if !new.is_empty() {
                        changed = true;
                        algebra::union_into(&mut st.doomed[i], &new)?;
                    }
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
            st.set_delta(i, delta);
        }
        Ok(changed)
    }

    /// Snapshot the solve's progress for a [`SolveDiag`]: rounds
    /// completed, tuples materialised so far, and the total size of the
    /// last committed deltas.
    fn diag(&self, rounds: usize, notes: Vec<String>) -> SolveDiag {
        SolveDiag {
            rounds: rounds as u64,
            tuples: self.knobs.budget.tuples(),
            last_delta: self.last_delta(),
            site: String::new(),
            notes,
        }
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
    fn enrich(&self, e: EvalError, eq: usize, completed_rounds: usize) -> EvalError {
        let EvalError::Solve(mut se) = e else {
            return e;
        };
        let d = se.diag_mut();
        d.rounds = completed_rounds as u64;
        d.tuples = self.knobs.budget.tuples();
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
}

impl Catalog for Solver<'_> {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        self.catalog.relation(name)
    }

    fn selector(&self, name: &str) -> Result<&dc_calculus::ast::SelectorDef, EvalError> {
        self.catalog.selector(name)
    }

    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        let i = self.enter(Application::new(name, base, args, scalar_args), None)?;
        Ok(self.state.borrow().current[i].clone())
    }

    fn scalar_param(&self, name: &str) -> Result<Value, EvalError> {
        self.catalog.scalar_param(name)
    }

    fn access(&self) -> Option<&AccessCache> {
        Some(&self.access)
    }
}

/// A `Phase` span for one of the round's four stages ("prep",
/// "freeze", "evaluate", "replay+commit").
fn phase_span(name: &'static str) -> dc_trace::Span {
    dc_trace::span(SpanKind::Phase).name_with(|| name.to_string())
}

/// Internal marker name for delta injection; not expressible in DBPL
/// source, so it cannot clash with user names.
const DELTA_MARKER: &str = "\u{394}delta";

/// Internal marker name binding an equation's over-deleted set `D` in
/// the re-derive round, and the tuple variable ranging over it (`∇` is
/// no identifier character, and the unnesting rewrite prefixes its
/// variables with `Δ`, so neither can clash).
const DOOMED_MARKER: &str = "\u{394}doomed";
const DOOMED_VAR: &str = "\u{2207}doomed";

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
    if let Some(t) = parent_prov.and_then(|map| map.get(n)) {
        return Some(t.clone());
    }
    if parent_overrides.iter().any(|(f, _)| f == n) {
        // Formal of the parent without provenance of its own.
        return None;
    }
    Some(n.clone())
}

/// One unit of round work: a single branch evaluation, fully prepared
/// on the solver thread so a worker only reads the frozen snapshot.
struct BranchTask {
    /// Owning equation index.
    eq: usize,
    /// Branch index within the body.
    branch: usize,
    /// The (possibly marker-rewritten) branch to evaluate.
    body: SetFormer,
    /// Formal- and marker-name overrides for the evaluation overlay.
    overrides: Vec<(Name, Relation)>,
    /// Scan-side cardinality estimate (delta size for differential
    /// tasks, override sizes otherwise), for the dispatch decision.
    weight: usize,
}

/// What a branch task returns: the computed value plus what the solver
/// must replay — the applications the snapshot catalog saw first.
struct TaskOutcome {
    value: Relation,
    effects: Vec<Application>,
}

/// Stage the tuples of `part` that `keep` accepts into `fresh` (under
/// its declared schema) — by the round's commit rule: those not yet in
/// the accumulated value, every one, or those in the value and not yet
/// over-deleted. Union compatibility and the key constraint within the
/// staged relation are enforced here; key conflicts between a delta and
/// the accumulated value surface when the commit unions the delta in.
fn absorb(
    fresh: &mut Relation,
    part: &Relation,
    keep: impl Fn(&Tuple) -> bool,
) -> Result<(), EvalError> {
    if !fresh.schema().union_compatible(part.schema()) {
        return Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
            context: "constructor body value does not match declared result type".into(),
        }));
    }
    for t in part.iter() {
        if keep(t) {
            fresh.insert_unchecked(t.clone())?;
        }
    }
    Ok(())
}

/// Prepare one differential task over branch `b` of equation `eq`:
/// each of `bound` — a binding position, an internal marker name and
/// the relation to scan under it — replaces its position's range, and
/// every other recursive position is bound to its peer's accumulated
/// current value, also as a named (marker) relation, so the executor
/// finds the maintained indexes in the solve's cache
/// under the value's storage id. Other binding positions stay as
/// written (the overlay resolves them to their full values).
fn delta_task(st: &State, eq: usize, b: usize, bound: Vec<(usize, Name, Relation)>) -> BranchTask {
    let (mut branch, mut overrides) = current_bound(st, eq, b, &bound);
    // The delta side is the branch's scan side.
    let weight = bound.iter().map(|(_, _, r)| r.len()).sum();
    for (pos, marker, rel) in bound {
        branch.bindings[pos].1 = RangeExpr::Rel(marker.clone());
        overrides.push((marker, rel));
    }
    BranchTask {
        eq,
        branch: b,
        body: SetFormer {
            branches: vec![branch],
        },
        overrides,
        weight,
    }
}

/// Branch `b` of equation `eq` with every recursive position not in
/// `skip` bound to its peer's current value under a marker name, and
/// the overrides that binding needs.
fn current_bound(
    st: &State,
    eq: usize,
    b: usize,
    skip: &[(usize, Name, Relation)],
) -> (Branch, Vec<(Name, Relation)>) {
    let equation = &st.equations[eq];
    let mut branch = equation.body.branches[b].clone();
    let mut overrides = (*equation.overrides).clone();
    if let BranchClass::Linear(links) = &equation.classes[b] {
        for &(pos, peer) in links.iter().filter(|(p, _)| skip.iter().all(|s| s.0 != *p)) {
            let marker = format!("{CURRENT_MARKER}{pos}");
            branch.bindings[pos].1 = RangeExpr::Rel(marker.clone());
            overrides.push((marker, st.current[peer].clone()));
        }
    }
    (branch, overrides)
}

/// The re-derive task over branch `b` of equation `eq`: the branch over
/// the current values, restricted to heads in the equation's
/// over-deleted set `D`. `D` is bound under a marker as one more binding
/// and each target field is equated with its attribute, so the planner
/// scans `D` and probes the branch's ranges by the head — work
/// proportional to `|D|`, not a full evaluation filtered afterwards. A
/// whole-tuple target over a range whose schema is not known here is
/// restricted by membership instead.
fn rederive_task(st: &State, eq: usize, b: usize) -> BranchTask {
    let (mut branch, mut overrides) = current_bound(st, eq, b, &[]);
    let equation = &st.equations[eq];
    let doomed = st.doomed[eq].clone();
    let heads: Option<Vec<ScalarExpr>> = match &branch.target {
        Target::Tuple(exprs) => Some(exprs.clone()),
        Target::Var(v) => branch
            .bindings
            .iter()
            .find(|(w, _)| w == v)
            .and_then(|(_, range)| range_schema(st, &overrides, range))
            .map(|schema| {
                schema
                    .attributes()
                    .iter()
                    .map(|a| ScalarExpr::Attr(v.clone(), a.name.clone()))
                    .collect()
            }),
    };
    let restriction = match heads {
        Some(heads) => {
            branch
                .bindings
                .push((DOOMED_VAR.to_string(), RangeExpr::rel(DOOMED_MARKER)));
            heads
                .into_iter()
                .zip(equation.result.attributes())
                .map(|(head, a)| {
                    Formula::Cmp(
                        head,
                        CmpOp::Eq,
                        ScalarExpr::Attr(DOOMED_VAR.to_string(), a.name.clone()),
                    )
                })
                .fold(Formula::True, Formula::and)
        }
        None => match &branch.target {
            Target::Var(v) => Formula::Member(v.clone(), RangeExpr::rel(DOOMED_MARKER)),
            Target::Tuple(exprs) => Formula::TupleIn(exprs.clone(), RangeExpr::rel(DOOMED_MARKER)),
        },
    };
    branch.predicate = restriction.and(branch.predicate);
    let weight = doomed.len();
    overrides.push((DOOMED_MARKER.to_string(), doomed));
    BranchTask {
        eq,
        branch: b,
        body: SetFormer {
            branches: vec![branch],
        },
        overrides,
        weight,
    }
}

/// The schema of a plain or selected named range, resolved the way the
/// task's overlay will resolve it: overrides (formals and markers)
/// first, then the solve's universe.
fn range_schema(
    st: &State,
    overrides: &[(Name, Relation)],
    range: &RangeExpr,
) -> Option<dc_value::Schema> {
    match range {
        RangeExpr::Rel(n) => overrides
            .iter()
            .rev()
            .find(|(m, _)| m == n)
            .map(|(_, r)| r)
            .or_else(|| st.universe.relations.get(n))
            .map(|r| r.schema().clone()),
        RangeExpr::Selected { base, .. } => range_schema(st, overrides, base),
        RangeExpr::Constructed { .. } | RangeExpr::SetFormer(_) => None,
    }
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
        task_span.field("branch", task.branch);
        task_span.field("weight", task.weight);
    }
    let cat = SnapshotCatalog::new(snap.clone());
    let overlay = Overlay::new(&cat, task.overrides.clone());
    let mut ev = knobs.evaluator(&overlay);
    // A governed abort names the branch and carries the evaluator's
    // demotions and degradations out with it, rendered —
    // aborts are atomic, so this is the only trace the solve leaves.
    let value = ev
        .eval(&RangeExpr::SetFormer(task.body.clone()))
        .map_err(|mut e| {
            if let EvalError::Solve(se) = &mut e {
                let d = se.diag_mut();
                if d.site.is_empty() {
                    d.site = format!("branch {}", task.branch);
                }
                d.notes.extend(
                    ev.plan_events()
                        .iter()
                        .filter(|e| e.is_demotion())
                        .map(ToString::to_string),
                );
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
            max_iterations: 10_000,
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
        solve(defs, &cat, constructor, base, args, scalar_args, None, cfg)
            .map(|s| s.value().clone())
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

    /// Branch classes as seeding leaves them on `ctor` applied to a
    /// two-edge chain.
    fn seeded_classes(ctor: Constructor) -> Vec<BranchClass> {
        let src = defs(vec![ctor.clone()]);
        let root = Application::new(&ctor.name, chain(2), vec![], vec![]);
        let cat = MapCatalog::new();
        let solver = Solver::new(&src, &cat, root, None, None, &cfg(Strategy::SemiNaive)).unwrap();
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

    /// One edge as a relation.
    fn edge(a: &str, b: &str) -> Relation {
        Relation::from_tuples(infrontrel(), vec![tuple![a, b]]).unwrap()
    }

    /// `name` gained `inserted` and lost `deleted`.
    fn change(name: &str, inserted: Relation, deleted: Relation) -> Vec<(Name, BaseDelta)> {
        vec![(name.to_string(), BaseDelta { inserted, deleted })]
    }

    /// `name` gained `inserted`.
    fn grew(name: &str, inserted: Relation) -> Vec<(Name, BaseDelta)> {
        change(name, inserted, Relation::new(infrontrel()))
    }

    #[test]
    fn warm_start_matches_cold_resolve() {
        let src = defs(vec![ahead()]);
        let cfg = cfg(Strategy::SemiNaive);
        let sys = solve(
            &src,
            &MapCatalog::new(),
            "ahead",
            chain(12),
            vec![],
            vec![],
            Some(("Infront", &[])),
            &cfg,
        )
        .unwrap();
        let v0 = sys.value().clone();
        assert_eq!(v0.len(), 12 * 13 / 2);

        // Extend the chain by one edge at the tail.
        let mut base = chain(12);
        base.insert(tuple!["o12", "o13"]).unwrap();
        let deltas = grew("Infront", edge("o12", "o13"));
        let outcome = solve_warm(
            &src,
            &MapCatalog::new(),
            "ahead",
            base.clone(),
            vec![],
            vec![],
            ("Infront", &[]),
            sys,
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
        let cold = solve_value(&src, "ahead", base, vec![], vec![], &cfg).unwrap();
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
        let src = defs(vec![ahead()]);
        let cfg = cfg(Strategy::SemiNaive);
        let mut base = chain(4);
        let mut sys = solve(
            &src,
            &MapCatalog::new(),
            "ahead",
            base.clone(),
            vec![],
            vec![],
            Some(("Infront", &[])),
            &cfg,
        )
        .unwrap();
        let mut val = sys.value().clone();
        // Grow the chain one edge per "commit", warm each time.
        for k in 5..12 {
            let e = edge(&format!("o{}", k - 1), &format!("o{k}"));
            base.insert(tuple![format!("o{}", k - 1), format!("o{k}")])
                .unwrap();
            let outcome = solve_warm(
                &src,
                &MapCatalog::new(),
                "ahead",
                base.clone(),
                vec![],
                vec![],
                ("Infront", &[]),
                sys,
                &grew("Infront", e),
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
        let cold = solve_value(&src, "ahead", base, vec![], vec![], &cfg).unwrap();
        assert_eq!(val, cold);
        assert_eq!(val.len(), 11 * 12 / 2);
    }

    #[test]
    fn warm_start_refuses_naive_strategy_and_shape_changes() {
        let src = defs(vec![ahead()]);
        let semi = cfg(Strategy::SemiNaive);
        let sys = solve(
            &src,
            &MapCatalog::new(),
            "ahead",
            chain(3),
            vec![],
            vec![],
            Some(("Infront", &[])),
            &semi,
        )
        .unwrap();
        let outcome = solve_warm(
            &src,
            &MapCatalog::new(),
            "ahead",
            chain(4),
            vec![],
            vec![],
            ("Infront", &[]),
            sys,
            &grew("Infront", edge("o3", "o4")),
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
        let cat = MapCatalog::new().with_relation("Blocked", blocked);
        let cfg = cfg(Strategy::SemiNaive);
        let sys = || {
            solve(
                &src,
                &cat,
                "ahead_ok",
                chain(3),
                vec![],
                vec![],
                Some(("Infront", &[])),
                &cfg,
            )
            .unwrap()
        };
        // Touching only the base is warm-safe (the predicate reads
        // `Blocked`, which is untouched).
        let mut base = chain(3);
        base.insert(tuple!["o3", "o4"]).unwrap();
        let ok = solve_warm(
            &src,
            &cat,
            "ahead_ok",
            base.clone(),
            vec![],
            vec![],
            ("Infront", &[]),
            sys(),
            &grew("Infront", edge("o3", "o4")),
            &cfg,
        )
        .unwrap();
        assert!(matches!(ok, WarmOutcome::Solved { .. }));
        // Touching `Blocked` is not.
        let refused = solve_warm(
            &src,
            &cat,
            "ahead_ok",
            base,
            vec![],
            vec![],
            ("Infront", &[]),
            sys(),
            &grew("Blocked", edge("o0", "o1")),
            &cfg,
        )
        .unwrap();
        let WarmOutcome::Refused { reason } = refused else {
            panic!("a touched predicate relation must refuse");
        };
        assert_eq!(reason.label(), "non_monotone_read");
        // A deletion from it refuses the same way.
        let mut blocked = Relation::new(infrontrel());
        blocked.insert(tuple!["o0", "o1"]).unwrap();
        let refused = solve_warm(
            &src,
            &cat,
            "ahead_ok",
            chain(3),
            vec![],
            vec![],
            ("Infront", &[]),
            sys(),
            &change("Blocked", Relation::new(infrontrel()), blocked),
            &cfg,
        )
        .unwrap();
        assert!(matches!(
            refused,
            WarmOutcome::Refused {
                reason: Refusal::NonMonotoneRead { branch: 0, .. }
            }
        ));
    }

    /// Warm-solve `ahead` over `new` from `sys` by `deltas`, check it
    /// against a cold solve of `new`, and return (added, removed,
    /// system).
    fn warm_ahead(
        src: &Defs,
        new: &Relation,
        sys: SolvedSystem,
        deltas: &[(Name, BaseDelta)],
    ) -> (Relation, Relation, SolvedSystem) {
        let cfg = cfg(Strategy::SemiNaive);
        let old = sys.value().clone();
        let outcome = solve_warm(
            src,
            &MapCatalog::new(),
            "ahead",
            new.clone(),
            vec![],
            vec![],
            ("Infront", &[]),
            sys,
            deltas,
            &cfg,
        )
        .unwrap();
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
        let (want_added, want_removed) = algebra::delta(&value, &old).unwrap();
        assert_eq!(added.sorted_tuples(), want_added.sorted_tuples());
        assert_eq!(removed.sorted_tuples(), want_removed.sorted_tuples());
        (added, removed, system)
    }

    fn ahead_source() -> Defs {
        defs(vec![ahead()])
    }

    fn tracked(src: &Defs, base: &Relation) -> SolvedSystem {
        let cfg = cfg(Strategy::SemiNaive);
        solve(
            src,
            &MapCatalog::new(),
            "ahead",
            base.clone(),
            vec![],
            vec![],
            Some(("Infront", &[])),
            &cfg,
        )
        .unwrap()
    }

    #[test]
    fn warm_deletion_retracts_what_lost_its_last_derivation() {
        let src = ahead_source();
        let base = chain(6);
        let sys = tracked(&src, &base);
        // Cut the chain o0 → … → o6 between o2 and o3: every pair
        // spanning the cut goes, 3 × 4 of them.
        let mut new = base.clone();
        new.remove(&tuple!["o2", "o3"]);
        let none = Relation::new(infrontrel());
        let (added, removed, _) =
            warm_ahead(&src, &new, sys, &change("Infront", none, edge("o2", "o3")));
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
        let mut new = base.clone();
        new.remove(&tuple!["o2", "o3"]);
        let none = Relation::new(infrontrel());
        let (_, _, sys) = warm_ahead(&src, &new, sys, &change("Infront", none, edge("o2", "o3")));
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
        let mut base = chain(2);
        base.insert(tuple!["o0", "o2"]).unwrap();
        let sys = tracked(&src, &base);
        let mut new = base.clone();
        new.remove(&tuple!["o0", "o2"]);
        let none = Relation::new(infrontrel());
        let (added, removed, _) =
            warm_ahead(&src, &new, sys, &change("Infront", none, edge("o0", "o2")));
        assert!(
            added.is_empty() && removed.is_empty(),
            "re-derived, not retracted"
        );
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
        let none = || Relation::new(infrontrel());
        // Cut it: only the chain o1 → o2 → o3 → o0 remains.
        let mut new = base.clone();
        new.remove(&tuple!["o0", "o1"]);
        let (_, removed, next) = warm_ahead(
            &src,
            &new,
            sys,
            &change("Infront", none(), edge("o0", "o1")),
        );
        assert_eq!(removed.len(), 10);
        sys = next;
        // Replace the cut edge by another one in the same commit.
        let mut newer = new.clone();
        newer.remove(&tuple!["o1", "o2"]);
        newer.insert(tuple!["o0", "o1"]).unwrap();
        let (added, removed, _) = warm_ahead(
            &src,
            &newer,
            sys,
            &change("Infront", edge("o0", "o1"), edge("o1", "o2")),
        );
        assert!(!added.is_empty() && !removed.is_empty());
        assert!(added.iter().all(|t| !removed.contains(t)));
    }
}
