//! The evaluator for the calculus.
//!
//! Two execution paths coexist:
//!
//! * **Reference nested loops** ([`Evaluator::force_nested_loop`]) — the
//!   executable *definition* of expression meaning: every set-former
//!   branch enumerates the cross product of its ranges and filters by
//!   the predicate. The optimizer's rewrites (`dc-optimizer`) and the
//!   index path below are differentially tested against it.
//! * **Index-nested-loop joins** (the default) — branches whose
//!   predicates carry conjunctive equality atoms are executed through
//!   [`crate::joinplan`] plans: one range is scanned, the others are
//!   probed through [`dc_index::HashIndex`]es keyed on the equality
//!   columns, so work is proportional to *matching* combinations rather
//!   than all combinations. The full predicate is re-checked on every
//!   surviving combination, so both paths produce identical relations
//!   and identical errors on every combination they both evaluate.
//!   The one deliberate divergence, shared with every
//!   predicate-pushdown engine: a runtime error (division by zero,
//!   cross-type comparison) hiding in a conjunct of a combination that
//!   an equality key already rejects is never raised on the index
//!   path, because the rejected combination is skipped outright.
//!   Equality atoms themselves never mask their own errors — keys that
//!   cannot be realised safely (type-mismatched, unresolvable) are
//!   demoted back to the residual.
//! * **Quantifier probes** — quantified subformulas
//!   (`SOME x IN R: x.a = r.b AND …`, and the `ALL` dual) whose bodies
//!   carry top-level equality atoms on the quantified variable are
//!   decided through a [`dc_index::HashIndex`] existence probe instead
//!   of a range scan: only bucket matches get the (full) body
//!   re-check, so selector-style predicates cost O(matches) per outer
//!   combination rather than O(|R|). `ALL` bodies are probed through
//!   their **falsifier** where possible (the NNF of the negated body,
//!   which makes implication-shaped bodies `NOT p OR q` probe-able) and
//!   through the bucket-covers-range check otherwise. The divergence
//!   policy above extends unchanged: an error hiding in the body of a
//!   tuple the equality key already rejects is never raised, because
//!   that tuple is skipped outright. [`Evaluator::force_nested_loop`]
//!   disables quantifier probes too.
//! * **Decorrelated quantifier ranges** — a quantifier over a
//!   *correlated* range (`SOME x IN {EACH y IN R: y.a = r.b AND …}`,
//!   a selector application with outer-variable arguments, or a
//!   multi-binding *join view* whose joint correlation key spans the
//!   bindings) would re-evaluate the range per outer combination.
//!   Instead the branch predicate is split into a decorrelated part
//!   and correlation atoms ([`joinplan::decorrelate_branch`]): the
//!   decorrelated part (for multiple bindings, an inner join planned
//!   through [`joinplan::plan_branch`]) is materialised once per
//!   evaluator (catalogs that offer an [`AccessCache`] share it across
//!   evaluators, keyed by the storage of the relations it read),
//!   bucketed on the joint key,
//!   and each outer combination is decided by probe —
//!   O(|R ⋈ S| + outer × matches) instead of O(outer × |R×S|). The
//!   split is exact, so the bucket *is* the range value and the full
//!   body re-check preserves semantics; every unsafe case falls back to
//!   the reference scan. Demotions and abandoned rewrites are recorded
//!   in the planner trace ([`Evaluator::plan_notes`]).
//! * **Scan sharding** — there is one operator loop
//!   (`exec_plan` → `emit_if_selected` → [`Evaluator::eval_formula`] /
//!   [`Evaluator::eval_scalar`]) and parallel execution runs *it*, not
//!   a second implementation. When the evaluator has more than one
//!   worker ([`Evaluator::with_threads`]), a compiled plan's first step
//!   scans at least [`PARALLEL_SCAN_THRESHOLD`] tuples, and the branch
//!   is *pure* (no quantifier or membership test, hence no range,
//!   constructor application, or catalog read below the bindings; every
//!   parameter resolves), the scan side is hash-split
//!   ([`Relation::hash_shards`]) into one task per worker on the shared
//!   pool ([`dc_exec::run_tasks`]). Each task runs the plan from depth
//!   1 on a worker-local, catalog-less evaluator against the *same*
//!   read-only indexes; outputs merge in shard order, so the relation
//!   is identical for every thread count and errors are the operator
//!   loop's own. Impure branches stay on the calling thread, which
//!   keeps catalogs — and their interior mutability — off the workers.
//!   Solver-spawned evaluators are never given workers: inside a solve
//!   the round's task dispatch is the only parallelism.

use std::sync::Arc;

use dc_governor::fail::{self, Site};
use dc_governor::{Meter, SolveError};
use dc_index::{HashIndex, RelationStats};
use dc_relation::Relation;
use dc_value::{Attribute, Domain, FxHashMap, FxHashSet, Schema, Tuple, Value};

use dc_trace::metrics::{Counter, MetricsRegistry};
use dc_trace::SpanKind;

use crate::access::{AccessCache, DecorrCached};
use crate::ast::{Branch, Formula, RangeExpr, ScalarExpr, SetFormer, Target, Var};
use crate::env::{Catalog, MapCatalog};
use crate::error::EvalError;
use crate::joinplan::{self, Access, BranchPlan, KeySource, StepRationale};
use crate::plan_event::{DecorrRefusalReason, PlanEvent, QuantDemotionReason};
use crate::rewrite;

/// Reserved attribute-name prefix for the joint-key columns of a
/// materialised decorrelated join. Not expressible in DBPL source, so
/// it cannot clash with user attribute names.
const KEY_MARKER: &str = "\u{394}key";

/// Profitability bound for multi-binding decorrelation: the estimated
/// inner-join cardinality may exceed the summed input cardinalities by
/// at most this factor, otherwise the rewrite would *materialise* a
/// blow-up the per-combination scan only ever streams.
const DECORR_JOIN_BLOWUP: usize = 8;

/// Minimum scan-side cardinality before a branch's scan is sharded
/// across the worker pool. Below it the whole branch evaluates in tens
/// of microseconds and the fixed parallel overhead — one partitioning
/// pass, `threads` thread spawns, and a shard-order merge — costs more
/// than it saves; above it per-shard probe work dominates and scales
/// with the worker count. Overridable per evaluator
/// ([`Evaluator::with_parallel_threshold`]) so differential tests can
/// force the sharded path on small inputs.
pub const PARALLEL_SCAN_THRESHOLD: usize = 2048;

/// A bound tuple variable: name, current tuple, and the schema used to
/// resolve `var.attr` references.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Variable name.
    pub var: Var,
    /// Bound tuple.
    pub tuple: Tuple,
    /// Schema of the range the variable iterates over.
    pub schema: Schema,
}

/// Infer the base domain of a value (for target-schema synthesis).
pub fn value_domain(v: &Value) -> Domain {
    match v {
        Value::Int(_) => Domain::Int,
        Value::Card(_) => Domain::Card,
        Value::Str(_) => Domain::Str,
        Value::Bool(_) => Domain::Bool,
    }
}

/// The nested-loop reference evaluator.
///
/// An `Evaluator` caches binding-free range values (e.g. a base relation
/// referenced inside a quantifier) for the duration of its lifetime;
/// create a fresh evaluator whenever the underlying relations may have
/// changed (the fixpoint engine creates one per iteration).
pub struct Evaluator<'a> {
    catalog: &'a dyn Catalog,
    /// Stack of selector-application parameter frames.
    param_frames: Vec<FxHashMap<String, Value>>,
    /// Cache of binding-free range values.
    range_cache: FxHashMap<RangeExpr, Relation>,
    /// Indexes and statistics over the range values this evaluator
    /// computed itself (they live in `range_cache`, so their storage
    /// ids are stable) — and over named relations when the catalog
    /// offers no cache of its own.
    private: AccessCache,
    /// The decorrelation decision this evaluator resolved per
    /// correlated range — one hash of the range syntax per outer
    /// combination on the hit path. `None` records a refusal.
    decorr_seen: FxHashMap<RangeExpr, Option<Arc<DecorrEntry>>>,
    /// Cache of quantifier probe plans, keyed by (var, existential,
    /// body syntax): the NNF derivation clones and rewrites the body,
    /// which must not be paid per outer combination. A linear scan —
    /// entries are bounded by the query's quantifier sites — so lookups
    /// allocate nothing.
    quant_plan_cache: Vec<(Var, bool, Formula, Option<Arc<joinplan::QuantPlan>>)>,
    /// Per-plan-depth probe-key buffers, reused across probes.
    probe_scratch: Vec<Vec<Value>>,
    /// Disable the index-nested-loop path (reference semantics).
    nested_loop_only: bool,
    /// Worker count for scan sharding; `1` is the exact sequential path
    /// (the purity check never runs).
    threads: usize,
    /// Scan-side cardinality floor for scan sharding — see
    /// [`PARALLEL_SCAN_THRESHOLD`].
    parallel_threshold: usize,
    /// The armed budget governing this evaluation, if any: ticked at
    /// the executor leaves (shard workers share it), with emitted
    /// tuples counted against its ceiling.
    budget: Option<Meter>,
    /// Planner trace notes (demotions, abandoned rewrites), deduplicated.
    plan_notes: Vec<String>,
    /// Dedup set for `plan_notes`.
    noted: FxHashSet<String>,
    /// Cheap dedup keys (attr, reason kind, site fingerprint) for notes
    /// emitted on per-combination paths — checked before any string is
    /// built, so each distinct demotion site is reported exactly once.
    noted_keys: Vec<(String, u8, u64)>,
    /// Typed planner trace: every demotion note's [`PlanEvent`] plus
    /// one access-path event per planned branch site (the latter never
    /// enter `plan_notes`, which stays a fallback-only trace).
    plan_events: Vec<PlanEvent>,
    /// Branch fingerprints whose access path was already recorded, so
    /// per-combination re-plans (nested set-formers) report once.
    access_sites: Vec<u64>,
    /// Metrics registry to count planner decisions into, if the owner
    /// (database, solver, session) threads one through.
    metrics: Option<std::sync::Arc<MetricsRegistry>>,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator over a catalog.
    pub fn new(catalog: &'a dyn Catalog) -> Evaluator<'a> {
        Evaluator {
            catalog,
            param_frames: Vec::new(),
            range_cache: FxHashMap::default(),
            private: AccessCache::new(None),
            decorr_seen: FxHashMap::default(),
            quant_plan_cache: Vec::new(),
            probe_scratch: Vec::new(),
            nested_loop_only: false,
            threads: 1,
            parallel_threshold: PARALLEL_SCAN_THRESHOLD,
            budget: None,
            plan_notes: Vec::new(),
            noted: FxHashSet::default(),
            noted_keys: Vec::new(),
            plan_events: Vec::new(),
            access_sites: Vec::new(),
            metrics: None,
        }
    }

    /// Force the reference nested-loop path for every branch (no join
    /// planning, no index probes, no quantifier decorrelation). Used by
    /// differential tests and as the measured pre-optimization baseline.
    pub fn force_nested_loop(mut self) -> Evaluator<'a> {
        self.nested_loop_only = true;
        self
    }

    /// Shard the scan side of eligible set-former branches across
    /// `threads` workers (resolve a configuration knob through
    /// [`dc_exec::thread_count`] first, which also bounds it).
    /// `threads <= 1` keeps the exact sequential path. Results are
    /// identical for every worker count — see the module docs.
    pub fn with_threads(mut self, threads: usize) -> Evaluator<'a> {
        self.threads = threads.max(1);
        self
    }

    /// Override the scan-side cardinality floor for scan sharding
    /// (default [`PARALLEL_SCAN_THRESHOLD`]). Differential tests lower
    /// it to force the sharded path on small inputs.
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Evaluator<'a> {
        self.parallel_threshold = threshold;
        self
    }

    /// Govern this evaluation with an armed budget [`Meter`]: the
    /// executor leaves tick it (observing deadlines, cancellation, and
    /// the tuple ceiling), shard workers share it, and trips surface as
    /// [`EvalError::Solve`]. Clones share one gauge, so a solver hands
    /// the *same* meter to every branch evaluator of one solve.
    pub fn with_meter(mut self, meter: Meter) -> Evaluator<'a> {
        self.budget = Some(meter);
        self
    }

    /// The meter installed by [`Evaluator::with_meter`], if any.
    pub fn meter(&self) -> Option<&Meter> {
        self.budget.as_ref()
    }

    /// Count planner decisions (probe/scan plans, quantifier probes,
    /// decorrelation builds and refusals) into `metrics`. The owner —
    /// database, solver task, session — threads its registry through
    /// so the counts land in one place regardless of which evaluator
    /// did the planning.
    pub fn with_metrics(mut self, metrics: std::sync::Arc<MetricsRegistry>) -> Evaluator<'a> {
        self.metrics = Some(metrics);
        self
    }

    /// The planner trace: one line per demotion or abandoned rewrite
    /// (deduplicated), in first-occurrence order. Empty when every
    /// planned access path was realised as planned.
    pub fn plan_notes(&self) -> &[String] {
        &self.plan_notes
    }

    /// Drain the planner trace — see [`Evaluator::plan_notes`].
    pub fn take_plan_notes(&mut self) -> Vec<String> {
        self.noted.clear();
        self.noted_keys.clear();
        std::mem::take(&mut self.plan_notes)
    }

    /// The typed planner trace: every demotion/refusal in
    /// [`Evaluator::plan_notes`] as a structured [`PlanEvent`], plus
    /// one [`PlanEvent::AccessPath`] per planned branch site (access
    /// paths are decisions, not fallbacks, so they do not appear in
    /// the string notes).
    pub fn plan_events(&self) -> &[PlanEvent] {
        &self.plan_events
    }

    /// Drain the typed planner trace — see [`Evaluator::plan_events`].
    pub fn take_plan_events(&mut self) -> Vec<PlanEvent> {
        self.access_sites.clear();
        std::mem::take(&mut self.plan_events)
    }

    /// Record a demotion/refusal event: deduplicated by rendered
    /// content (which keys the legacy string notes), mirrored into the
    /// string trace, and emitted as a `plan` trace event when a trace
    /// sink is armed.
    fn plan_event(&mut self, ev: PlanEvent) {
        let note = ev.to_string();
        if self.noted.insert(note.clone()) {
            dc_trace::event(SpanKind::Plan, || (note.clone(), Vec::new()));
            self.plan_notes.push(note);
            self.plan_events.push(ev);
        }
    }

    /// Record a demotion event from a per-combination path: dedup on
    /// (attr, reason kind, site) *before* building any string, so a
    /// demotion repeated across thousands of outer combinations costs a
    /// scan of a tiny vec instead of a format per probe, while distinct
    /// sites (see [`site_fingerprint`]) still report individually.
    fn plan_event_keyed(
        &mut self,
        attr: &str,
        reason: QuantDemotionReason,
        site: u64,
        make: impl FnOnce() -> PlanEvent,
    ) {
        let reason = reason as u8;
        if self
            .noted_keys
            .iter()
            .any(|(a, r, s)| *r == reason && *s == site && a == attr)
        {
            return;
        }
        self.noted_keys.push((attr.to_string(), reason, site));
        self.plan_event(make());
    }

    /// Record a decorrelation refusal (typed event + metrics counter).
    fn decorr_refused(&mut self, reason: DecorrRefusalReason, range: &RangeExpr) {
        if let Some(m) = &self.metrics {
            m.inc(Counter::DecorrRefusals);
        }
        self.plan_event(PlanEvent::DecorrRefusal {
            reason,
            range: range.to_string(),
        });
    }

    /// Record the access path chosen for one planned branch — once per
    /// distinct branch site, so per-combination re-plans (set-formers
    /// nested under quantifiers) pay a fingerprint lookup, not an
    /// event build.
    fn note_access_path(
        &mut self,
        branch: &Branch,
        plan: &BranchPlan,
        rationale: &[StepRationale],
        schemas: &[&Schema],
        stats: &[RelationStats],
    ) {
        let site = branch_fingerprint(branch);
        if self.access_sites.contains(&site) {
            return;
        }
        self.access_sites.push(site);
        if let Some(m) = &self.metrics {
            m.inc(if plan.has_probe() {
                Counter::ProbePlans
            } else {
                Counter::ScanPlans
            });
        }
        let ev = PlanEvent::access_path_for(branch, plan, rationale, schemas, stats);
        dc_trace::event(SpanKind::Plan, || (ev.to_string(), Vec::new()));
        self.plan_events.push(ev);
    }

    /// Evaluate a closed range expression (a query).
    pub fn eval(&mut self, range: &RangeExpr) -> Result<Relation, EvalError> {
        let mut bindings = Vec::new();
        self.eval_range(range, &mut bindings)
    }

    /// Evaluate a range expression under the given bindings.
    pub fn eval_range(
        &mut self,
        range: &RangeExpr,
        bindings: &mut Vec<Binding>,
    ) -> Result<Relation, EvalError> {
        let cacheable = self.param_frames.is_empty() && is_binding_free(range);
        if cacheable {
            if let Some(hit) = self.range_cache.get(range) {
                return Ok(hit.clone());
            }
        }
        let out = self.eval_range_uncached(range, bindings)?;
        if cacheable {
            self.range_cache.insert(range.clone(), out.clone());
        }
        Ok(out)
    }

    fn eval_range_uncached(
        &mut self,
        range: &RangeExpr,
        bindings: &mut Vec<Binding>,
    ) -> Result<Relation, EvalError> {
        match range {
            // An owned COW handle sharing the catalog's storage — a
            // pointer bump, not a tuple-set copy.
            RangeExpr::Rel(name) => self.catalog.relation(name),
            RangeExpr::Selected {
                base,
                selector,
                args,
            } => {
                let base_rel = self.eval_range(base, bindings)?;
                self.apply_selector(base_rel, selector, args, bindings)
            }
            RangeExpr::Constructed {
                base,
                constructor,
                args,
                scalar_args,
            } => {
                let base_rel = self.eval_range(base, bindings)?;
                let mut arg_rels = Vec::with_capacity(args.len());
                for a in args {
                    arg_rels.push(self.eval_range(a, bindings)?);
                }
                let mut scalars = Vec::with_capacity(scalar_args.len());
                for s in scalar_args {
                    scalars.push(self.eval_scalar(s, bindings)?);
                }
                self.catalog
                    .apply_constructor(base_rel, constructor, arg_rels, scalars)
            }
            RangeExpr::SetFormer(sf) => self.eval_set_former(sf, bindings),
        }
    }

    /// Selector application `base[sel(args)]`: filter `base` by the
    /// selector predicate with the element variable bound to each tuple
    /// and the formal parameters bound to the evaluated arguments.
    pub fn apply_selector(
        &mut self,
        base: Relation,
        selector: &str,
        args: &[ScalarExpr],
        bindings: &mut Vec<Binding>,
    ) -> Result<Relation, EvalError> {
        let def = self.catalog.selector(selector)?.clone();
        if args.len() != def.params.len() {
            return Err(EvalError::ArityMismatch {
                name: def.name.clone(),
                expected: def.params.len(),
                actual: args.len(),
            });
        }
        let mut frame = FxHashMap::default();
        for ((pname, pdom), arg) in def.params.iter().zip(args) {
            let v = self.eval_scalar(arg, bindings)?;
            pdom.check(&v)?;
            frame.insert(pname.clone(), v);
        }
        self.param_frames.push(frame);
        // The selector body is evaluated in its own scope: only the
        // element variable is visible (plus catalog relations).
        let mut inner: Vec<Binding> = Vec::with_capacity(1);
        let mut out = Relation::new(base.schema().clone());
        let result: Result<(), EvalError> = (|| {
            for t in base.iter() {
                inner.push(Binding {
                    var: def.element_var.clone(),
                    tuple: t.clone(),
                    schema: base.schema().clone(),
                });
                let keep = self.eval_formula(&def.predicate, &mut inner);
                inner.pop();
                if keep? {
                    out.insert_unchecked(t.clone())?;
                }
            }
            Ok(())
        })();
        self.param_frames.pop();
        result?;
        Ok(out)
    }

    fn eval_set_former(
        &mut self,
        sf: &SetFormer,
        bindings: &mut Vec<Binding>,
    ) -> Result<Relation, EvalError> {
        if sf.branches.is_empty() {
            return Err(EvalError::Other("set former with no branches".into()));
        }
        let mut result: Option<Relation> = None;
        for branch in &sf.branches {
            // Ranges are evaluated in the enclosing scope, once per
            // branch (not per combination).
            let mut ranges = Vec::with_capacity(branch.bindings.len());
            for (_, r) in &branch.bindings {
                ranges.push(self.eval_range(r, bindings)?);
            }
            let schema = self.branch_schema(branch, &ranges, bindings)?;
            let out = match &mut result {
                none @ None => none.insert(Relation::new(schema)),
                Some(rel) => {
                    if !rel.schema().union_compatible(&schema) {
                        return Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
                            context: "set-former branches are not union-compatible".into(),
                        }));
                    }
                    rel
                }
            };
            // `out` cannot be borrowed across the recursive loop that
            // needs `&mut self`; collect into a scratch relation.
            let mut scratch = Relation::new(out.schema().clone());
            self.eval_branch(branch, &ranges, bindings, &mut scratch)?;
            dc_relation::algebra::union_into(out, &scratch)?;
        }
        // The empty-branches guard above filled `result` on the first
        // iteration; report rather than panic if that ever changes.
        result.ok_or_else(|| EvalError::Other("set former produced no result relation".into()))
    }

    /// Evaluate one branch: index-nested-loop when the predicate offers
    /// equality atoms, reference nested loops otherwise.
    fn eval_branch(
        &mut self,
        branch: &Branch,
        ranges: &[Relation],
        bindings: &mut Vec<Binding>,
        out: &mut Relation,
    ) -> Result<(), EvalError> {
        // Zero combinations — both paths would emit nothing.
        if ranges.iter().any(Relation::is_empty) && !branch.bindings.is_empty() {
            return Ok(());
        }
        if !self.nested_loop_only && !branch.bindings.is_empty() {
            // Cheap AST walk first: atom-free branches go straight to
            // the reference loop without paying any stats scan.
            let atoms = joinplan::extract_eq_atoms(branch);
            if !atoms.is_empty() {
                let schemas: Vec<&Schema> = ranges.iter().map(Relation::schema).collect();
                // Distinct-value statistics are only worth obtaining
                // for ranges the planner may probe — and even for
                // those, catalogs that maintain statistics next to
                // their indexes (the fixpoint solver, the database)
                // serve them in O(arity), so the O(|R|) collection
                // pass only runs for anonymous, non-cacheable ranges.
                let probed: FxHashSet<usize> = atoms.iter().map(|a| a.position).collect();
                let stats: Vec<RelationStats> = ranges
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        if probed.contains(&i) {
                            self.range_stats(&branch.bindings[i].1, r)
                        } else {
                            RelationStats {
                                cardinality: r.len(),
                                distinct: Vec::new(),
                            }
                        }
                    })
                    .collect();
                let (plan, rationale) = joinplan::plan_branch_traced(branch, &schemas, &stats);
                self.note_access_path(branch, &plan, &rationale, &schemas, &stats);
                if plan.has_probe() {
                    if let Some(steps) = self.compile_plan(branch, &plan, ranges, bindings)? {
                        return self.run_plan(branch, &steps, ranges, bindings, out);
                    }
                }
            }
        }
        self.loop_branch(branch, ranges, 0, bindings, out)
    }

    /// Lower a logical plan to executable steps: resolve attribute
    /// positions, evaluate free key sources to values, bind probe
    /// indexes. Atoms that cannot be realised safely — unknown
    /// attributes, unresolvable parameters/outer variables, or keys
    /// whose base type differs from the probed column (where hash
    /// equality and `=` semantics diverge) — are demoted back to the
    /// residual predicate. Returns `Ok(None)` when no probe survives;
    /// the only error channel is index acquisition (a governed abort or
    /// an injected fault).
    fn compile_plan(
        &mut self,
        branch: &Branch,
        plan: &BranchPlan,
        ranges: &[Relation],
        bindings: &Vec<Binding>,
    ) -> Result<Option<Vec<CompiledStep>>, EvalError> {
        let base_slot = bindings.len();
        let mut slot_of = vec![usize::MAX; branch.bindings.len()];
        let mut steps = Vec::with_capacity(plan.steps.len());
        let mut any_probe = false;
        for (i, step) in plan.steps.iter().enumerate() {
            slot_of[step.position] = base_slot + i;
            let access = match &step.access {
                Access::Scan => CompiledAccess::Scan,
                Access::Probe(atoms) => {
                    let schema = ranges[step.position].schema();
                    let mut positions = Vec::with_capacity(atoms.len());
                    let mut keys = Vec::with_capacity(atoms.len());
                    for atom in atoms {
                        let Ok(probed_pos) = schema.position(&atom.attr) else {
                            continue;
                        };
                        let probed_base = schema.domain(probed_pos).base();
                        match &atom.source {
                            KeySource::Free(expr) => {
                                let Ok(v) = self.eval_scalar(expr, bindings) else {
                                    continue;
                                };
                                if value_domain(&v) != probed_base {
                                    continue;
                                }
                                positions.push(probed_pos);
                                keys.push(CompiledKey::Fixed(v));
                            }
                            KeySource::Binding { position, attr } => {
                                let source_schema = ranges[*position].schema();
                                let Ok(source_pos) = source_schema.position(attr) else {
                                    continue;
                                };
                                if source_schema.domain(source_pos).base() != probed_base {
                                    continue;
                                }
                                positions.push(probed_pos);
                                keys.push(CompiledKey::FromBinding {
                                    slot: slot_of[*position],
                                    attr_pos: source_pos,
                                });
                            }
                        }
                    }
                    if keys.is_empty() {
                        CompiledAccess::Scan
                    } else {
                        any_probe = true;
                        let index = self.obtain_index(
                            &branch.bindings[step.position].1,
                            &ranges[step.position],
                            &positions,
                        )?;
                        CompiledAccess::Probe { index, keys }
                    }
                }
            };
            steps.push(CompiledStep {
                position: step.position,
                access,
            });
        }
        Ok(any_probe.then_some(steps))
    }

    /// Execute a compiled plan into `out`: scan-sharded across the
    /// worker pool when [`Evaluator::shard_frame`] allows it, on this
    /// thread otherwise. Shard outputs merge **in shard order**, and
    /// only once every shard has succeeded.
    fn run_plan(
        &mut self,
        branch: &Branch,
        steps: &[CompiledStep],
        ranges: &[Relation],
        bindings: &mut Vec<Binding>,
        out: &mut Relation,
    ) -> Result<(), EvalError> {
        let Some(frame) = self.shard_frame(branch, steps, ranges) else {
            return self.exec_plan(branch, steps, ranges, 0, bindings, out);
        };
        match self.exec_sharded(branch, steps, ranges, bindings, frame, out.schema()) {
            Ok(parts) => {
                let mut parts = parts?.into_iter();
                // The merge is serial work: into an empty `out` (the
                // usual case) the first shard's output moves in whole.
                if out.is_empty() {
                    if let Some(first) = parts.next() {
                        *out = first;
                    }
                }
                for part in parts {
                    dc_relation::algebra::union_into(out, &part)?;
                }
                Ok(())
            }
            // Graceful degradation: a panicking worker must never
            // change the answer or kill the process. Retry the branch
            // once on this thread — nothing was merged into `out`, so
            // the retry starts clean. A second failure there is a real
            // error and propagates.
            Err(dc_exec::ExecError::WorkerPanic { message }) => {
                if let Some(m) = &self.budget {
                    m.note_retried();
                }
                self.plan_event(PlanEvent::ParallelDegraded { message });
                self.exec_plan(branch, steps, ranges, 0, bindings, out)?;
                if let Some(m) = &self.budget {
                    m.note_degraded();
                }
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Decide whether a compiled branch runs sharded, and if so resolve
    /// its parameters: `Some(frame)` holds every parameter the branch
    /// mentions, resolved once — exactly their per-branch-constant
    /// meaning on the sequential path. Sharding needs
    ///
    /// * more than one worker, and a first step that scans at least
    ///   `parallel_threshold` tuples (probes amortise per scan tuple,
    ///   so the scan side is what parallelism divides) — checked
    ///   first, so a single-worker evaluator never walks the predicate;
    /// * a *pure* predicate ([`is_pure`]) whose parameters, and the
    ///   target's, all resolve. Workers then need no catalog at all,
    ///   which keeps catalogs and their interior mutability on this
    ///   thread. An unresolvable parameter keeps the branch here, where
    ///   short-circuiting decides whether it is ever an error.
    fn shard_frame(
        &self,
        branch: &Branch,
        steps: &[CompiledStep],
        ranges: &[Relation],
    ) -> Option<FxHashMap<String, Value>> {
        let first = steps.first()?;
        if self.threads <= 1
            || !matches!(first.access, CompiledAccess::Scan)
            // Fewer than two tuples cannot make two shards.
            || ranges[first.position].len() < self.parallel_threshold.max(2)
            || !is_pure(&branch.predicate)
        {
            return None;
        }
        let mut names = rewrite::param_names_formula(&branch.predicate);
        if let Target::Tuple(exprs) = &branch.target {
            for e in exprs {
                rewrite::collect_params_scalar(e, &mut names);
            }
        }
        names
            .into_iter()
            .map(|n| {
                let v = self.resolve_param(&n).ok()?;
                Some((n, v))
            })
            .collect()
    }

    /// Run a compiled branch with its scan side hash-split into one
    /// task per worker on the shared pool ([`dc_exec::run_tasks`]),
    /// returning the shard outputs in shard order. Each task evaluates
    /// its shard through the ordinary operator loop
    /// ([`Evaluator::exec_plan`] from depth 1) on a worker-local
    /// evaluator: over an empty catalog, which answers every lookup
    /// with an error ([`Evaluator::shard_frame`] established that
    /// nothing will ask); with the enclosing bindings cloned, so
    /// compiled slot numbers line up; with `frame` as its one parameter
    /// frame; and with this evaluation's meter shared in. The shard
    /// assignment depends only on tuple content, so the merged relation
    /// is the same for every worker count, and the first failure *in
    /// shard order* is the one reported: the outer `Err` is the pool's
    /// verdict on a task (panic, injected `worker_start` fault), the
    /// inner one an evaluation error.
    fn exec_sharded(
        &self,
        branch: &Branch,
        steps: &[CompiledStep],
        ranges: &[Relation],
        bindings: &[Binding],
        frame: FxHashMap<String, Value>,
        schema: &Schema,
    ) -> Result<Result<Vec<Relation>, EvalError>, dc_exec::ExecError> {
        let scan = &ranges[steps[0].position];
        let (var, _) = &branch.bindings[steps[0].position];
        let shards = scan.hash_shards(self.threads.min(scan.len()));
        let meter = self.budget.clone();
        dc_exec::run_tasks(&shards, self.threads, |_, shard| {
            let nothing = MapCatalog::new();
            let mut ev = Evaluator::new(&nothing);
            ev.param_frames.push(frame.clone());
            ev.budget = meter.clone();
            let mut local = bindings.to_vec();
            let slot = local.len();
            let mut out = Relation::new(schema.clone());
            for t in shard {
                // One binding slot for the whole shard, as in
                // `exec_plan`'s own scan arm (deeper steps truncate
                // back to just past it).
                match local.get_mut(slot) {
                    Some(b) => b.tuple = t.clone(),
                    None => local.push(Binding {
                        var: var.clone(),
                        tuple: t.clone(),
                        schema: scan.schema().clone(),
                    }),
                }
                ev.exec_plan(branch, steps, ranges, 1, &mut local, &mut out)?;
            }
            Ok(out)
        })
        .into_iter()
        .collect()
    }

    /// Do access structures over the value of `range` amortise? A named
    /// relation's do (the catalog hands out the same storage every
    /// time), and so do those of a binding-free range outside any
    /// parameter frame (its value sits in `range_cache`). Anything else
    /// is a fresh value per outer combination.
    fn amortises(&self, range: &RangeExpr) -> bool {
        matches!(range, RangeExpr::Rel(_))
            || (self.param_frames.is_empty() && is_binding_free(range))
    }

    /// The cache that holds access structures for the value of `range`:
    /// the catalog owner's for a named relation (it outlives this
    /// evaluator), the private one for a value computed here.
    fn access_for(&self, range: &RangeExpr) -> &AccessCache {
        match (range, self.catalog.access()) {
            (RangeExpr::Rel(_), Some(shared)) => shared,
            _ => &self.private,
        }
    }

    /// Find or build a hash index over `rel` (the value of `range`) on
    /// `positions`: through the [`AccessCache`] where it amortises, a
    /// throwaway otherwise (still one O(|rel|) pass — the same cost as
    /// the single scan it replaces). Fallible only through the
    /// `index_build` failpoint; the build itself cannot fail.
    fn obtain_index(
        &self,
        range: &RangeExpr,
        rel: &Relation,
        positions: &[usize],
    ) -> Result<Arc<HashIndex>, EvalError> {
        if self.amortises(range) {
            return Ok(self.access_for(range).index(rel, positions)?);
        }
        fail::check(Site::IndexBuild)?;
        Ok(Arc::new(HashIndex::build(rel, positions.to_vec())))
    }

    /// Statistics for a probed range, cached exactly where
    /// [`Evaluator::obtain_index`] caches; a binding-dependent value
    /// pays the one-pass collection.
    fn range_stats(&self, range: &RangeExpr, rel: &Relation) -> RelationStats {
        if self.amortises(range) {
            return (*self.access_for(range).stats(rel)).clone();
        }
        RelationStats::collect(rel)
    }

    /// Try to decide a quantified subformula through an index existence
    /// probe instead of a scan. `Ok(None)` means "not probe-able —
    /// fall back to the reference scan"; `Ok(Some(b))` is the decided
    /// truth value.
    ///
    /// The probe follows a [`joinplan::plan_quant_probe`] plan:
    ///
    /// * [`QuantMode::Witness`] (`SOME`) — every body witness satisfies
    ///   the atoms, so the residual pass touches bucket matches instead
    ///   of the whole range.
    /// * [`QuantMode::Falsifier`] (`ALL`, implication-shaped bodies) —
    ///   the atoms come from the NNF of the body's negation, so every
    ///   potential counterexample lies inside the bucket; tuples outside
    ///   it satisfy the body by construction and are never visited.
    /// * [`QuantMode::Covering`] (`ALL`, conjunctive bodies) — any tuple
    ///   *outside* the bucket falsifies an equality conjunct and with it
    ///   the body, so the quantifier holds only if the bucket covers the
    ///   whole range — checked by cardinality before the residual pass.
    ///
    /// Demotion rules mirror [`Evaluator::compile_plan`]: keys that are
    /// unresolvable or whose base type differs from the probed column
    /// drop out (leaving a planner trace note), and if none survive the
    /// scan fallback reproduces reference semantics (including error
    /// semantics) exactly. Probes are only attempted where the index
    /// amortises ([`Evaluator::amortises`]); a throwaway index per
    /// evaluation would cost the same pass as the scan it replaces.
    /// Correlated ranges are handled before this probe by
    /// [`Evaluator::quant_decorrelate`].
    fn quant_probe(
        &mut self,
        var: &Var,
        range: &RangeExpr,
        rel: &Relation,
        body: &Formula,
        bindings: &mut Vec<Binding>,
        existential: bool,
    ) -> Result<Option<bool>, EvalError> {
        use joinplan::QuantMode;
        if self.nested_loop_only || rel.is_empty() {
            return Ok(None);
        }
        if !self.amortises(range) {
            return Ok(None);
        }
        let Some(plan) = self.quant_plan(var, body, existential) else {
            return Ok(None);
        };
        let schema = rel.schema();
        let mut positions = Vec::with_capacity(plan.atoms.len());
        let mut key = Vec::with_capacity(plan.atoms.len());
        for atom in &plan.atoms {
            let Ok(pos) = schema.position(&atom.attr) else {
                // E.g. the range is a selector/set-former view that no
                // longer carries the referenced field.
                self.plan_event_keyed(
                    &atom.attr,
                    QuantDemotionReason::AttrNotInSchema,
                    site_fingerprint(range),
                    || PlanEvent::QuantDemotion {
                        attr: atom.attr.clone(),
                        reason: QuantDemotionReason::AttrNotInSchema,
                        range: range.to_string(),
                        key: String::new(),
                    },
                );
                continue;
            };
            let Ok(v) = self.eval_scalar(&atom.key, bindings) else {
                self.plan_event_keyed(
                    &atom.attr,
                    QuantDemotionReason::KeyUnresolvable,
                    site_fingerprint(range),
                    || PlanEvent::QuantDemotion {
                        attr: atom.attr.clone(),
                        reason: QuantDemotionReason::KeyUnresolvable,
                        range: range.to_string(),
                        key: atom.key.to_string(),
                    },
                );
                continue;
            };
            if value_domain(&v) != schema.domain(pos).base() {
                self.plan_event_keyed(
                    &atom.attr,
                    QuantDemotionReason::KeyTypeMismatch,
                    site_fingerprint(range),
                    || PlanEvent::QuantDemotion {
                        attr: atom.attr.clone(),
                        reason: QuantDemotionReason::KeyTypeMismatch,
                        range: range.to_string(),
                        key: String::new(),
                    },
                );
                continue;
            }
            positions.push(pos);
            key.push(v);
        }
        if positions.is_empty() {
            return Ok(None);
        }
        let index = self.obtain_index(range, rel, &positions)?;
        let hits = index.probe_slice(&key);
        if plan.mode == QuantMode::Covering && hits.len() != rel.len() {
            return Ok(Some(false));
        }
        self.decide_over_bucket(var, rel.schema(), body, hits, bindings, existential)
            .map(Some)
    }

    /// Plan (or fetch the cached plan for) a quantifier probe — see
    /// [`joinplan::plan_quant_probe`]. The NNF pre-pass clones and
    /// rewrites the body, so plans are derived once per quantifier site
    /// and shared across all outer combinations.
    fn quant_plan(
        &mut self,
        var: &Var,
        body: &Formula,
        existential: bool,
    ) -> Option<Arc<joinplan::QuantPlan>> {
        if let Some((_, _, _, plan)) = self
            .quant_plan_cache
            .iter()
            .find(|(v, e, b, _)| *e == existential && v == var && b == body)
        {
            return plan.clone();
        }
        let plan = joinplan::plan_quant_probe(var, body, existential).map(Arc::new);
        // Counted here, once per quantifier site (the plan-cache fill),
        // not per outer combination.
        if let Some(m) = &self.metrics {
            m.inc(if plan.is_some() {
                Counter::QuantProbes
            } else {
                Counter::QuantScans
            });
        }
        self.quant_plan_cache
            .push((var.clone(), existential, body.clone(), plan.clone()));
        plan
    }

    /// Shared residual pass of both quantifier probe paths: evaluate the
    /// **full** body over the bucket's tuples (reusing one binding slot)
    /// and decide the quantifier — a body witness decides `SOME`, a body
    /// falsifier decides `ALL`, an exhausted bucket decides the dual.
    fn decide_over_bucket<'t>(
        &mut self,
        var: &Var,
        schema: &Schema,
        body: &Formula,
        hits: impl IntoIterator<Item = &'t Tuple>,
        bindings: &mut Vec<Binding>,
        existential: bool,
    ) -> Result<bool, EvalError> {
        let slot = bindings.len();
        let mut pushed = false;
        for t in hits {
            if pushed {
                bindings[slot].tuple = t.clone();
            } else {
                bindings.push(Binding {
                    var: var.clone(),
                    tuple: t.clone(),
                    schema: schema.clone(),
                });
                pushed = true;
            }
            let r = self.eval_formula(body, bindings);
            match r {
                Err(e) => {
                    bindings.truncate(slot);
                    return Err(e);
                }
                Ok(b) if b == existential => {
                    bindings.truncate(slot);
                    return Ok(existential);
                }
                Ok(_) => {}
            }
        }
        bindings.truncate(slot);
        Ok(!existential)
    }

    /// Try to decide a quantifier over a **correlated** range through a
    /// decorrelated index probe. `Ok(None)` means "not decorrelatable —
    /// fall back to range evaluation + scan".
    ///
    /// A correlated quantified range — `SOME x IN {EACH y IN R:
    /// y.a = r.b AND local(y)} (body)`, the equivalent selector
    /// application `R[s(r.b)]`, or a correlated *join view*
    /// `{<a.w> OF EACH a IN R, s IN S: a.w = s.w AND a.t = r.t AND
    /// s.l = r.l}` — is re-evaluated from scratch for every outer
    /// combination by the reference path: O(outer × |R×S|). This path
    /// splits the branch predicate with
    /// [`joinplan::decorrelate_branch`], materialises the decorrelated
    /// part (the inner join of the binding ranges filtered by the local
    /// residual, executed through the ordinary [`joinplan::plan_branch`]
    /// index-nested-loop machinery) **once**, buckets it on the **joint
    /// key** of correlation columns, and decides each outer combination
    /// by probing: O(|R ⋈ S| + outer × matches), magic-set style.
    /// Catalogs that offer an [`AccessCache`] share the built entry
    /// across evaluators ([`Evaluator::resolve_decorr`]).
    ///
    /// Because the split is exact (`pred ≡ residual ∧ atoms`), the
    /// probed bucket *is* the correlated range's value for that outer
    /// combination, so the quantifier is decided by evaluating the full
    /// body over the bucket — no covering check, no predicate re-check.
    /// Every safety hole falls back to the reference scan, which
    /// reproduces reference error semantics: unresolvable or
    /// type-mismatched keys, selector arity/domain violations, and any
    /// error raised while building the decorrelated part (the reference
    /// path's short-circuits might never reach that error, so the
    /// rewrite is abandoned rather than risk raising it spuriously).
    fn quant_decorrelate(
        &mut self,
        var: &Var,
        range: &RangeExpr,
        body: &Formula,
        bindings: &mut Vec<Binding>,
        existential: bool,
    ) -> Result<Option<bool>, EvalError> {
        if self.nested_loop_only {
            return Ok(None);
        }
        // Binding-free ranges are served by the evaluator-lifetime range
        // cache plus `quant_probe`; only correlated ranges benefit here.
        if matches!(range, RangeExpr::Rel(_)) || is_binding_free(range) {
            return Ok(None);
        }
        // One hash of the range syntax per combination on the hit path.
        let cached = match self.decorr_seen.get(range) {
            Some(entry) => entry.clone(),
            None => {
                let entry = self.resolve_decorr(range)?;
                self.decorr_seen.insert(range.clone(), entry.clone());
                entry
            }
        };
        let Some(entry) = cached else {
            return Ok(None);
        };
        // Selector-application ranges: reproduce the reference path's
        // per-application arity/domain checks — on violation the scan
        // fallback raises the reference error.
        let mut arg_vals = Vec::with_capacity(entry.arg_checks.len());
        for (arg, dom) in &entry.arg_checks {
            let Ok(v) = self.eval_scalar(arg, bindings) else {
                return Ok(None);
            };
            if dom.check(&v).is_err() {
                return Ok(None);
            }
            arg_vals.push(v);
        }
        // Assemble the joint probe key from the enclosing scope (reusing
        // the values already computed for the domain checks).
        // Unresolvable or cross-type keys fall back to the scan for this
        // combination, which reproduces reference semantics exactly.
        let mut key = Vec::with_capacity(entry.keys.len());
        for ((expr, dom), arg_idx) in entry
            .keys
            .iter()
            .zip(&entry.key_domains)
            .zip(&entry.key_arg)
        {
            let v = match arg_idx {
                Some(i) => arg_vals[*i].clone(),
                None => {
                    let Ok(v) = self.eval_scalar(expr, bindings) else {
                        return Ok(None);
                    };
                    v
                }
            };
            if value_domain(&v) != *dom {
                return Ok(None);
            }
            key.push(v);
        }
        // The bucket *is* the correlated range's value for this outer
        // combination (the split is exact) — decide over it directly.
        match entry.buckets.get(key.as_slice()) {
            Some(bucket) => self
                .decide_over_bucket(
                    var,
                    &entry.element_schema,
                    body,
                    bucket.iter(),
                    bindings,
                    existential,
                )
                .map(Some),
            // Empty bucket: the correlated range is empty for this
            // combination — SOME is false, ALL vacuously true.
            None => Ok(Some(!existential)),
        }
    }

    /// The decorrelation decision for `range`, through the catalog's
    /// [`AccessCache`] when it offers one: the entry is keyed by the
    /// range syntax plus the storage ids of every relation the range
    /// reads, so it serves later evaluators — other queries, sibling
    /// sessions, later rounds of a solve — for exactly as long as those
    /// relations are the ones being read. A range whose reads cannot be
    /// resolved (it applies a constructor, or names something the
    /// catalog does not know) is decided for this evaluator only.
    fn resolve_decorr(&mut self, range: &RangeExpr) -> Result<Option<Arc<DecorrEntry>>, EvalError> {
        let shared = self.catalog.access().zip(self.decorr_reads(range));
        if let Some((cache, reads)) = &shared {
            match cache.decorr(range, reads) {
                Some(DecorrCached::Built(e)) => return Ok(Some(e)),
                Some(DecorrCached::Refused) => {
                    // The building evaluator recorded *why* it refused;
                    // this one would otherwise scan silently.
                    self.plan_event(PlanEvent::DecorrRefusal {
                        reason: DecorrRefusalReason::CachedRefusal,
                        range: range.to_string(),
                    });
                    return Ok(None);
                }
                None => {}
            }
        }
        let built = self.build_decorr_entry(range)?;
        if let Some((cache, reads)) = shared {
            let decision = match &built {
                Some(e) => DecorrCached::Built(e.clone()),
                None => DecorrCached::Refused,
            };
            cache.put_decorr(range, reads, decision);
        }
        Ok(built)
    }

    /// Storage ids of every relation `range` reads — its relation
    /// names and those of the selector predicates it applies,
    /// transitively ([`joinplan::base_relations`]) — resolved through
    /// the catalog, in name order. `None` when the profile is
    /// unresolved.
    fn decorr_reads(&self, range: &RangeExpr) -> Option<Vec<u64>> {
        let profile = joinplan::base_relations(range, &SelectorsOf(self.catalog));
        if profile.unresolved {
            return None;
        }
        profile
            .reads
            .iter()
            .map(|n| Some(self.catalog.relation(n).ok()?.storage_id()))
            .collect()
    }

    /// Analyse and materialise the decorrelated form of a correlated
    /// quantified range — the once-per-range half of
    /// [`Evaluator::quant_decorrelate`]. Returns `Ok(None)` (with a
    /// planner trace note) when the range cannot be decorrelated
    /// safely or profitably; the caller caches the decision either way.
    fn build_decorr_entry(
        &mut self,
        range: &RangeExpr,
    ) -> Result<Option<Arc<DecorrEntry>>, EvalError> {
        fail::check(Site::DecorrBuild)?;
        let mut span = dc_trace::span(SpanKind::DecorrBuild);
        if span.recording() {
            span.field_with("range", || range.to_string());
        }
        let Some((branch, arg_checks)) = self.as_correlated_branch(range) else {
            self.decorr_refused(DecorrRefusalReason::UnsupportedShape, range);
            return Ok(None);
        };
        if branch.bindings.iter().any(|(_, r)| !is_binding_free(r)) {
            self.decorr_refused(DecorrRefusalReason::InnerCorrelated, range);
            return Ok(None);
        }
        let Some(split) = joinplan::decorrelate_branch(&branch) else {
            self.decorr_refused(DecorrRefusalReason::NotSplittable, range);
            return Ok(None);
        };
        // Evaluate the binding ranges (binding-free, so the reference
        // path evaluates the same expressions — its errors propagate).
        let mut scope: Vec<Binding> = Vec::new();
        let mut ranges = Vec::with_capacity(branch.bindings.len());
        for (_, r) in &branch.bindings {
            ranges.push(self.eval_range(r, &mut scope)?);
        }
        let element_schema = self.branch_schema(&branch, &ranges, &scope)?;
        // Resolve the joint-key columns. An unresolvable attribute —
        // e.g. a field referenced through a nested selector view that
        // does not carry it — demotes the atom (and with it the whole
        // rewrite, since correlation atoms cannot join the local
        // residual) back to the reference scan, with a trace note
        // instead of the former silent skip.
        let mut key_cols = Vec::with_capacity(split.atoms.len());
        let mut key_domains = Vec::with_capacity(split.atoms.len());
        let mut keys = Vec::with_capacity(split.atoms.len());
        for atom in &split.atoms {
            let schema = ranges[atom.position].schema();
            match schema.position(&atom.attr) {
                Ok(p) => {
                    key_cols.push((atom.position, p));
                    key_domains.push(schema.domain(p).base());
                    keys.push(atom.key.clone());
                }
                Err(_) => {
                    self.decorr_refused(
                        DecorrRefusalReason::AttrNotInSchema {
                            attr: atom.attr.clone(),
                        },
                        range,
                    );
                    return Ok(None);
                }
            }
        }
        // Statistics-based go/no-go: the decorrelated pass costs one
        // sweep over the inner join (amortised over all outer
        // combinations), but the probe only beats the per-combination
        // scan when the correlation columns actually narrow the bucket.
        let stats: Vec<RelationStats> = branch
            .bindings
            .iter()
            .zip(&ranges)
            .map(|((_, r), rel)| self.range_stats(r, rel))
            .collect();
        let selectivity: f64 = key_cols
            .iter()
            .map(|&(b, p)| stats[b].eq_selectivity(p))
            .product();
        if ranges.iter().any(|r| !r.is_empty()) && selectivity >= 1.0 {
            self.decorr_refused(DecorrRefusalReason::NotSelective, range);
            return Ok(None);
        }
        // Synthetic inner-join branch: the original bindings, the local
        // residual as predicate, and a target prefixed with the joint-
        // key columns — compiled through the ordinary `plan_branch`
        // machinery, so cross-binding residual atoms execute as an
        // index-nested-loop join rather than a filtered cross product.
        let schemas: Vec<&Schema> = ranges.iter().map(Relation::schema).collect();
        let synth = Branch {
            target: Target::Tuple(
                split
                    .atoms
                    .iter()
                    .map(|a| {
                        ScalarExpr::Attr(branch.bindings[a.position].0.clone(), a.attr.clone())
                    })
                    .chain(element_exprs(&branch, &schemas))
                    .collect(),
            ),
            bindings: branch.bindings.clone(),
            predicate: split.residual.clone(),
        };
        // Multi-binding profitability: materialising the join is only
        // worth one pass when the residual's equality atoms keep it
        // near-linear in its inputs. A blown-up estimate (e.g. a joint
        // key over an unconstrained cross product) stays on the
        // per-combination scan, which at least never *builds* the
        // product.
        if branch.bindings.len() > 1 {
            let est = joinplan::estimate_branch_rows(&synth, &schemas, &stats);
            let total: usize = ranges.iter().map(Relation::len).sum();
            if est > (DECORR_JOIN_BLOWUP * (total + 1)) as f64 {
                self.decorr_refused(
                    DecorrRefusalReason::JoinTooLarge {
                        estimated_rows: est,
                    },
                    range,
                );
                return Ok(None);
            }
        }
        // Combined schema: reserved joint-key columns (not expressible
        // in source syntax, so they cannot clash) followed by the
        // element tuple's own attributes.
        let mut combined_attrs: Vec<Attribute> = key_cols
            .iter()
            .enumerate()
            .map(|(i, &(b, p))| {
                Attribute::new(
                    format!("{KEY_MARKER}{i}"),
                    ranges[b].schema().domain(p).clone(),
                )
            })
            .collect();
        combined_attrs.extend(element_schema.attributes().iter().cloned());
        let mut combined = Relation::new(Schema::new(combined_attrs));
        // Materialise the decorrelated join, one pass. The reference
        // path's short-circuits might never evaluate the residual (or
        // target) on some combinations, so an error here must not
        // surface — abandon the rewrite and let the scan decide.
        let mut inner: Vec<Binding> = Vec::new();
        if let Err(e) = self.eval_branch(&synth, &ranges, &mut inner, &mut combined) {
            // Governed aborts and injected faults are not evaluation
            // outcomes the scan could reproduce — they must propagate,
            // not demote the rewrite.
            if matches!(e, EvalError::Solve(_) | EvalError::FaultInjected { .. }) {
                return Err(e);
            }
            self.decorr_refused(DecorrRefusalReason::ResidualError, range);
            return Ok(None);
        }
        // Bucket the join on the joint key: key values → element set.
        let k = keys.len();
        let mut buckets: FxHashMap<Vec<Value>, Relation> = FxHashMap::default();
        for t in combined.iter() {
            // The bucket pass re-materialises every joined tuple, and —
            // unlike the probe-side output — used to run unmetered:
            // a decorrelated build dispatched on a worker thread could
            // blow straight through a tuple ceiling. Tick and count the
            // build tuples against the same shared meter.
            if let Some(m) = &self.budget {
                m.tick().map_err(SolveError::from_trip)?;
                m.add_tuples(1).map_err(SolveError::from_trip)?;
            }
            let fields = t.fields();
            let elem = Tuple::new(fields[k..].to_vec());
            if buckets
                .entry(fields[..k].to_vec())
                .or_insert_with(|| Relation::new(element_schema.clone()))
                .insert_unchecked(elem)
                .is_err()
            {
                self.decorr_refused(DecorrRefusalReason::BucketConstraint, range);
                return Ok(None);
            }
        }
        let key_arg = keys
            .iter()
            .map(|key| arg_checks.iter().position(|(a, _)| a == key))
            .collect();
        if let Some(m) = &self.metrics {
            m.inc(Counter::DecorrBuilds);
        }
        span.field("buckets", buckets.len());
        Ok(Some(Arc::new(DecorrEntry {
            element_schema,
            buckets,
            key_domains,
            keys,
            arg_checks,
            key_arg,
        })))
    }

    /// View a range expression as a correlated set-former branch, the
    /// shape decorrelation understands: a single-branch set-former with
    /// one or more bindings, or a selector application `base[s(args)]`
    /// rewritten to the single-binding filter shape by substituting the
    /// actual arguments for the formal parameters in the selector
    /// predicate (the arity check and capture guard keep the rewrite
    /// faithful; per-combination domain checks are returned for the
    /// evaluator to replay).
    fn as_correlated_branch(
        &self,
        range: &RangeExpr,
    ) -> Option<(Branch, Vec<(ScalarExpr, Domain)>)> {
        match range {
            RangeExpr::SetFormer(sf) if sf.branches.len() == 1 => {
                let b = &sf.branches[0];
                if b.bindings.is_empty() {
                    return None;
                }
                Some((b.clone(), Vec::new()))
            }
            RangeExpr::Selected {
                base,
                selector,
                args,
            } => {
                let def = self.catalog.selector(selector).ok()?;
                if def.params.len() != args.len() {
                    // Arity mismatch: the scan raises the reference error.
                    return None;
                }
                // Capture guard: an argument mentioning the element
                // variable or any variable bound inside the predicate
                // would be captured by the substitution.
                let mut bound = FxHashSet::default();
                bound.insert(def.element_var.clone());
                rewrite::bound_vars_formula(&def.predicate, &mut bound);
                if args.iter().any(|a| scalar_mentions_any(a, &bound)) {
                    return None;
                }
                let mut map = FxHashMap::default();
                let mut arg_checks = Vec::with_capacity(args.len());
                for ((pname, pdom), arg) in def.params.iter().zip(args) {
                    map.insert(pname.clone(), arg.clone());
                    arg_checks.push((arg.clone(), pdom.clone()));
                }
                let pred = rewrite::substitute_param_exprs_formula(&def.predicate, &map);
                Some((
                    Branch::each(def.element_var.clone(), (**base).clone(), pred),
                    arg_checks,
                ))
            }
            _ => None,
        }
    }

    /// Run the compiled steps depth-first. Each step reuses one binding
    /// slot across its whole iteration (one `Var`/`Schema` clone per
    /// step instead of per combination); probes touch only bucket
    /// matches.
    fn exec_plan(
        &mut self,
        branch: &Branch,
        steps: &[CompiledStep],
        ranges: &[Relation],
        depth: usize,
        bindings: &mut Vec<Binding>,
        out: &mut Relation,
    ) -> Result<(), EvalError> {
        if depth == steps.len() {
            return self.emit_if_selected(branch, bindings, out);
        }
        let step = &steps[depth];
        let (var, _) = &branch.bindings[step.position];
        let rel = &ranges[step.position];
        let slot = bindings.len();
        match &step.access {
            CompiledAccess::Scan => {
                let mut pushed = false;
                for t in rel.iter() {
                    if pushed {
                        bindings[slot].tuple = t.clone();
                    } else {
                        bindings.push(Binding {
                            var: var.clone(),
                            tuple: t.clone(),
                            schema: rel.schema().clone(),
                        });
                        pushed = true;
                    }
                    let r = self.exec_plan(branch, steps, ranges, depth + 1, bindings, out);
                    if r.is_err() {
                        bindings.truncate(slot);
                        return r;
                    }
                }
                bindings.truncate(slot);
            }
            CompiledAccess::Probe { index, keys } => {
                // Reuse one key buffer per plan depth across all of
                // this step's invocations — no allocation per probe
                // (value clones are `Arc` bumps / plain copies).
                if self.probe_scratch.len() <= depth {
                    self.probe_scratch.resize_with(depth + 1, Vec::new);
                }
                let mut key_vals = std::mem::take(&mut self.probe_scratch[depth]);
                key_vals.clear();
                for k in keys {
                    key_vals.push(match k {
                        CompiledKey::Fixed(v) => v.clone(),
                        CompiledKey::FromBinding { slot, attr_pos } => {
                            bindings[*slot].tuple.get(*attr_pos).clone()
                        }
                    });
                }
                let hits = index.probe_slice(&key_vals);
                self.probe_scratch[depth] = key_vals;
                let mut pushed = false;
                for t in hits {
                    if pushed {
                        bindings[slot].tuple = t.clone();
                    } else {
                        bindings.push(Binding {
                            var: var.clone(),
                            tuple: t.clone(),
                            schema: rel.schema().clone(),
                        });
                        pushed = true;
                    }
                    let r = self.exec_plan(branch, steps, ranges, depth + 1, bindings, out);
                    if r.is_err() {
                        bindings.truncate(slot);
                        return r;
                    }
                }
                bindings.truncate(slot);
            }
        }
        Ok(())
    }

    /// Leaf of both executors: check the (full) predicate, then emit the
    /// target tuple.
    fn emit_if_selected(
        &mut self,
        branch: &Branch,
        bindings: &mut Vec<Binding>,
        out: &mut Relation,
    ) -> Result<(), EvalError> {
        // The budget tick point of both sequential executors: one
        // relaxed increment per combination, the wall clock only every
        // `DEADLINE_STRIDE`th call.
        if let Some(m) = &self.budget {
            m.tick().map_err(SolveError::from_trip)?;
        }
        if self.eval_formula(&branch.predicate, bindings)? {
            let tuple = match &branch.target {
                Target::Var(v) => lookup(bindings, v)?.tuple.clone(),
                Target::Tuple(exprs) => {
                    let mut fields = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        fields.push(self.eval_scalar(e, bindings)?);
                    }
                    Tuple::new(fields)
                }
            };
            out.insert(tuple)?;
            if let Some(m) = &self.budget {
                m.add_tuples(1).map_err(SolveError::from_trip)?;
            }
        }
        Ok(())
    }

    fn loop_branch(
        &mut self,
        branch: &Branch,
        ranges: &[Relation],
        depth: usize,
        bindings: &mut Vec<Binding>,
        out: &mut Relation,
    ) -> Result<(), EvalError> {
        if depth == branch.bindings.len() {
            return self.emit_if_selected(branch, bindings, out);
        }
        let (var, _) = &branch.bindings[depth];
        let rel = &ranges[depth];
        let schema = rel.schema().clone();
        for t in rel.iter() {
            bindings.push(Binding {
                var: var.clone(),
                tuple: t.clone(),
                schema: schema.clone(),
            });
            let r = self.loop_branch(branch, ranges, depth + 1, bindings, out);
            bindings.pop();
            r?;
        }
        Ok(())
    }

    /// Synthesise the output schema of a branch.
    fn branch_schema(
        &mut self,
        branch: &Branch,
        ranges: &[Relation],
        bindings: &Vec<Binding>,
    ) -> Result<Schema, EvalError> {
        match &branch.target {
            Target::Var(v) => {
                let idx = branch
                    .bindings
                    .iter()
                    .position(|(bv, _)| bv == v)
                    .ok_or_else(|| EvalError::UnboundVariable(v.clone()))?;
                Ok(ranges[idx].schema().clone())
            }
            Target::Tuple(exprs) => {
                let mut attrs: Vec<Attribute> = Vec::with_capacity(exprs.len());
                let mut used: FxHashSet<String> = FxHashSet::default();
                for (i, e) in exprs.iter().enumerate() {
                    let (name, domain) = self.target_field(e, branch, ranges, bindings, i)?;
                    let mut name = name;
                    while !used.insert(name.clone()) {
                        name.push('_');
                    }
                    attrs.push(Attribute::new(name, domain));
                }
                Ok(Schema::new(attrs))
            }
        }
    }

    fn target_field(
        &mut self,
        e: &ScalarExpr,
        branch: &Branch,
        ranges: &[Relation],
        bindings: &Vec<Binding>,
        i: usize,
    ) -> Result<(String, Domain), EvalError> {
        match e {
            ScalarExpr::Attr(v, attr) => {
                // Prefer the branch's own bindings; fall back to outer
                // bindings (correlated targets).
                if let Some(idx) = branch.bindings.iter().position(|(bv, _)| bv == v) {
                    let schema = ranges[idx].schema();
                    let pos = schema.position(attr)?;
                    Ok((attr.clone(), schema.domain(pos).base()))
                } else {
                    let b = lookup(bindings, v)?;
                    let pos = b.schema.position(attr)?;
                    Ok((attr.clone(), b.schema.domain(pos).base()))
                }
            }
            ScalarExpr::Const(v) => Ok((format!("f{i}"), value_domain(v))),
            ScalarExpr::Param(p) => {
                let v = self.resolve_param(p)?;
                Ok((p.clone(), value_domain(&v)))
            }
            ScalarExpr::Arith(l, _, _) => {
                let (_, d) = self.target_field(l, branch, ranges, bindings, i)?;
                Ok((format!("f{i}"), d))
            }
        }
    }

    /// Evaluate a formula under the given bindings.
    pub fn eval_formula(
        &mut self,
        f: &Formula,
        bindings: &mut Vec<Binding>,
    ) -> Result<bool, EvalError> {
        match f {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Cmp(l, op, r) => {
                let lv = self.eval_scalar(l, bindings)?;
                let rv = self.eval_scalar(r, bindings)?;
                let ord = lv
                    .try_cmp(&rv)
                    .ok_or_else(|| EvalError::CrossTypeComparison {
                        lhs: lv.to_string(),
                        rhs: rv.to_string(),
                    })?;
                Ok(op.eval(ord))
            }
            Formula::And(a, b) => {
                Ok(self.eval_formula(a, bindings)? && self.eval_formula(b, bindings)?)
            }
            Formula::Or(a, b) => {
                Ok(self.eval_formula(a, bindings)? || self.eval_formula(b, bindings)?)
            }
            Formula::Not(inner) => Ok(!self.eval_formula(inner, bindings)?),
            Formula::Some(v, range, body) => {
                // Correlated ranges: probe the decorrelated form instead
                // of re-evaluating the range per outer combination.
                if let Some(decided) = self.quant_decorrelate(v, range, body, bindings, true)? {
                    return Ok(decided);
                }
                let rel = self.eval_range(range, bindings)?;
                if let Some(decided) = self.quant_probe(v, range, &rel, body, bindings, true)? {
                    return Ok(decided);
                }
                let schema = rel.schema().clone();
                for t in rel.iter() {
                    bindings.push(Binding {
                        var: v.clone(),
                        tuple: t.clone(),
                        schema: schema.clone(),
                    });
                    let r = self.eval_formula(body, bindings);
                    bindings.pop();
                    if r? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::All(v, range, body) => {
                if let Some(decided) = self.quant_decorrelate(v, range, body, bindings, false)? {
                    return Ok(decided);
                }
                let rel = self.eval_range(range, bindings)?;
                if let Some(decided) = self.quant_probe(v, range, &rel, body, bindings, false)? {
                    return Ok(decided);
                }
                let schema = rel.schema().clone();
                for t in rel.iter() {
                    bindings.push(Binding {
                        var: v.clone(),
                        tuple: t.clone(),
                        schema: schema.clone(),
                    });
                    let r = self.eval_formula(body, bindings);
                    bindings.pop();
                    if !r? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Member(v, range) => {
                let tuple = lookup(bindings, v)?.tuple.clone();
                let rel = self.eval_range(range, bindings)?;
                Ok(rel.contains(&tuple))
            }
            Formula::TupleIn(exprs, range) => {
                let mut fields = Vec::with_capacity(exprs.len());
                for e in exprs {
                    fields.push(self.eval_scalar(e, bindings)?);
                }
                let tuple = Tuple::new(fields);
                let rel = self.eval_range(range, bindings)?;
                Ok(rel.contains(&tuple))
            }
        }
    }

    /// Evaluate a scalar expression under the given bindings.
    pub fn eval_scalar(
        &mut self,
        e: &ScalarExpr,
        bindings: &Vec<Binding>,
    ) -> Result<Value, EvalError> {
        match e {
            ScalarExpr::Const(v) => Ok(v.clone()),
            ScalarExpr::Attr(var, attr) => {
                let b = lookup(bindings, var)?;
                let pos = b.schema.position(attr)?;
                Ok(b.tuple.get(pos).clone())
            }
            ScalarExpr::Param(p) => self.resolve_param(p),
            ScalarExpr::Arith(l, op, r) => {
                let lv = self.eval_scalar(l, bindings)?;
                let rv = self.eval_scalar(r, bindings)?;
                use crate::ast::ArithOp::*;
                Ok(match op {
                    Add => lv.add(&rv)?,
                    Sub => lv.sub(&rv)?,
                    Mul => lv.mul(&rv)?,
                    Div => lv.div(&rv)?,
                    Mod => lv.rem(&rv)?,
                })
            }
        }
    }

    fn resolve_param(&self, name: &str) -> Result<Value, EvalError> {
        for frame in self.param_frames.iter().rev() {
            if let Some(v) = frame.get(name) {
                return Ok(v.clone());
            }
        }
        self.catalog.scalar_param(name)
    }
}

/// The decorrelated form of a correlated quantified range: the
/// outer-independent part (for multi-binding ranges, the materialised
/// inner *join* of the binding ranges filtered by the local residual),
/// bucketed on the **joint key** of correlation columns. Built by the
/// evaluator's `build_decorr_entry`; each outer combination evaluates
/// the correlation keys and probes. Opaque outside the evaluator — the
/// [`AccessCache`] holds it as a [`DecorrCached`] without inspecting it.
pub struct DecorrEntry {
    /// Schema of the range's element tuples (the value the quantified
    /// variable is bound to).
    element_schema: Schema,
    /// Joint-key values → the correlated range's element set for outer
    /// combinations producing that key. An absent key means the range
    /// is empty for that combination.
    buckets: FxHashMap<Vec<Value>, Relation>,
    /// Base domain of each joint-key column, parallel to `keys` —
    /// cross-type probe keys fall back to the scan per combination.
    key_domains: Vec<Domain>,
    /// Enclosing-scope key expressions, parallel to `key_domains`.
    keys: Vec<ScalarExpr>,
    /// For selector-application ranges: the actual arguments and their
    /// declared parameter domains, re-checked per combination so the
    /// reference path's arity/domain errors are preserved.
    arg_checks: Vec<(ScalarExpr, Domain)>,
    /// Per key: the index into `arg_checks` whose expression is
    /// identical to the key, so the probe loop reuses the value already
    /// computed for the domain check instead of evaluating it twice.
    key_arg: Vec<Option<usize>>,
}

impl DecorrEntry {
    /// Number of distinct joint-key values in the materialised form
    /// (observability for tests and tracing).
    pub fn distinct_keys(&self) -> usize {
        self.buckets.len()
    }
}

/// The target of a branch as scalar expressions, parallel to the
/// element schema synthesised by `Evaluator::branch_schema`: a `Var`
/// target expands to one attribute expression per column of its range.
// The expect holds by construction: callers only reach this through
// `decorrelate_branch`, which rejects branches whose target variable
// is not one of the bindings.
#[allow(clippy::expect_used)]
fn element_exprs(branch: &Branch, schemas: &[&Schema]) -> Vec<ScalarExpr> {
    match &branch.target {
        Target::Var(v) => {
            let idx = branch
                .bindings
                .iter()
                .position(|(bv, _)| bv == v)
                .expect("decorrelate_branch verified the target binding");
            schemas[idx]
                .attributes()
                .iter()
                .map(|a| ScalarExpr::Attr(v.clone(), a.name.clone()))
                .collect()
        }
        Target::Tuple(exprs) => exprs.clone(),
    }
}

/// An executable plan step: which binding position to enumerate, how.
struct CompiledStep {
    position: usize,
    access: CompiledAccess,
}

enum CompiledAccess {
    /// Iterate the whole range.
    Scan,
    /// Probe `index` with a key assembled from `keys`.
    Probe {
        index: Arc<HashIndex>,
        keys: Vec<CompiledKey>,
    },
}

/// One component of a probe key.
enum CompiledKey {
    /// Resolved before the loops started (constant, parameter, outer
    /// variable attribute).
    Fixed(Value),
    /// Read from the binding at stack slot `slot`, field `attr_pos`.
    FromBinding { slot: usize, attr_pos: usize },
}

/// Selector bodies as the catalog resolves them, for the read profile
/// behind [`Evaluator::decorr_reads`]. Constructor bodies are not
/// visible through a [`Catalog`]: a range that applies one profiles as
/// unresolved.
struct SelectorsOf<'a>(&'a dyn Catalog);

impl joinplan::DefLookup for SelectorsOf<'_> {
    fn selector_body(&self, name: &str) -> Option<&Formula> {
        self.0.selector(name).ok().map(|d| &d.predicate)
    }

    fn constructor_parts(&self, _name: &str) -> Option<(&SetFormer, Vec<String>)> {
        None
    }
}

/// Is the formula evaluable from bound tuples and parameters alone —
/// comparisons, boolean connectives, and (inside scalars) arithmetic?
/// Quantifiers and membership tests evaluate ranges, which is where
/// catalog reads, constructor applications, and planner caches live.
fn is_pure(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False | Formula::Cmp(..) => true,
        Formula::And(a, b) | Formula::Or(a, b) => is_pure(a) && is_pure(b),
        Formula::Not(inner) => is_pure(inner),
        Formula::Some(..) | Formula::All(..) | Formula::Member(..) | Formula::TupleIn(..) => false,
    }
}

/// Fingerprint of a demotion site (the quantified range's syntax),
/// used to dedup planner trace notes per site without formatting the
/// range. Only computed on demotion (fallback) paths.
fn site_fingerprint(range: &RangeExpr) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = dc_value::FxHasher::default();
    range.hash(&mut h);
    h.finish()
}

/// Fingerprint of a planned branch site, used to record its access
/// path once even when the branch re-plans per outer combination.
fn branch_fingerprint(branch: &Branch) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = dc_value::FxHasher::default();
    branch.hash(&mut h);
    h.finish()
}

/// Find the innermost binding of `var`.
fn lookup<'b>(bindings: &'b [Binding], var: &str) -> Result<&'b Binding, EvalError> {
    bindings
        .iter()
        .rev()
        .find(|b| b.var == var)
        .ok_or_else(|| EvalError::UnboundVariable(var.to_string()))
}

/// Is the range expression free of references to outer tuple variables
/// and parameters (and therefore safe to cache by syntax)?
pub fn is_binding_free(range: &RangeExpr) -> bool {
    joinplan::range_uses_only(range, &mut Vec::new())
}

/// Does the expression mention any of the given variable names?
/// (Capture check for the selector-application rewrite.)
fn scalar_mentions_any(e: &ScalarExpr, names: &FxHashSet<String>) -> bool {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::Param(_) => false,
        ScalarExpr::Attr(v, _) => names.contains(v),
        ScalarExpr::Arith(l, _, r) => {
            scalar_mentions_any(l, names) || scalar_mentions_any(r, names)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, SelectorDef};
    use crate::builder::*;
    use crate::env::MapCatalog;
    use dc_value::tuple;

    fn infront(ts: &[(&str, &str)]) -> Relation {
        Relation::from_tuples(
            Schema::of(&[("front", Domain::Str), ("back", Domain::Str)]),
            ts.iter().map(|(a, b)| tuple![*a, *b]),
        )
        .unwrap()
    }

    fn catalog() -> MapCatalog {
        MapCatalog::new().with_relation(
            "Infront",
            infront(&[("vase", "table"), ("table", "chair"), ("chair", "wall")]),
        )
    }

    /// The paper's ahead-2 body (§2.3):
    /// `{ EACH r IN Infront: TRUE,
    ///    <f.front, b.back> OF EACH f, b IN Infront: f.back = b.front }`
    fn ahead2_expr() -> RangeExpr {
        set_former(vec![
            Branch::each("r", rel("Infront"), tru()),
            Branch::projecting(
                vec![attr("f", "front"), attr("b", "back")],
                vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
                eq(attr("f", "back"), attr("b", "front")),
            ),
        ])
    }

    #[test]
    fn ahead2_from_the_paper() {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        let out = ev.eval(&ahead2_expr()).unwrap();
        // Base pairs plus two-step pairs.
        assert_eq!(out.len(), 5);
        assert!(out.contains(&tuple!["vase", "chair"]));
        assert!(out.contains(&tuple!["table", "wall"]));
        assert!(!out.contains(&tuple!["vase", "wall"])); // three steps
    }

    #[test]
    fn branch_schema_names_from_attrs() {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        let out = ev.eval(&ahead2_expr()).unwrap();
        let names: Vec<&str> = out
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["front", "back"]);
    }

    #[test]
    fn selector_hidden_by() {
        // SELECTOR hidden_by(Obj) FOR Rel; EACH r IN Rel: r.front = Obj
        let def = SelectorDef {
            name: "hidden_by".into(),
            element_var: "r".into(),
            params: vec![("Obj".into(), Domain::Str)],
            predicate: eq(attr("r", "front"), param("Obj")),
        };
        let cat = catalog().with_selector(def);
        let mut ev = Evaluator::new(&cat);
        let e = rel("Infront").select("hidden_by", vec![cnst("table")]);
        let out = ev.eval(&e).unwrap();
        assert_eq!(out.sorted_tuples(), vec![tuple!["table", "chair"]]);
    }

    #[test]
    fn selector_arity_mismatch() {
        let def = SelectorDef {
            name: "s".into(),
            element_var: "r".into(),
            params: vec![("Obj".into(), Domain::Str)],
            predicate: tru(),
        };
        let cat = catalog().with_selector(def);
        let mut ev = Evaluator::new(&cat);
        let e = rel("Infront").select("s", vec![]);
        assert!(matches!(ev.eval(&e), Err(EvalError::ArityMismatch { .. })));
    }

    #[test]
    fn selector_param_domain_checked() {
        let def = SelectorDef {
            name: "s".into(),
            element_var: "r".into(),
            params: vec![("Obj".into(), Domain::Int)],
            predicate: tru(),
        };
        let cat = catalog().with_selector(def);
        let mut ev = Evaluator::new(&cat);
        let e = rel("Infront").select("s", vec![cnst("table")]);
        assert!(matches!(ev.eval(&e), Err(EvalError::Type(_))));
    }

    #[test]
    fn referential_integrity_selector() {
        // §2.3: EACH r IN Rel: SOME o1 IN Objects (r.front = o1.part)
        let objects = Relation::from_tuples(
            Schema::of(&[("part", Domain::Str)]),
            vec![tuple!["vase"], tuple!["table"], tuple!["chair"]],
        )
        .unwrap();
        let def = SelectorDef {
            name: "refint".into(),
            element_var: "r".into(),
            params: vec![],
            predicate: some(
                "o1",
                rel("Objects"),
                eq(attr("r", "front"), attr("o1", "part")),
            )
            .and(some(
                "o2",
                rel("Objects"),
                eq(attr("r", "back"), attr("o2", "part")),
            )),
        };
        let cat = catalog()
            .with_relation("Objects", objects)
            .with_selector(def);
        let mut ev = Evaluator::new(&cat);
        let out = ev.eval(&rel("Infront").select("refint", vec![])).unwrap();
        // ("chair","wall") fails: "wall" is not an object.
        assert_eq!(out.len(), 2);
        assert!(!out.contains(&tuple!["chair", "wall"]));
    }

    #[test]
    fn quantifiers_some_all() {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        // EACH r IN Infront: ALL x IN Infront (x.front # r.back)
        // keeps tuples whose back never appears as a front — sinks.
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            all(
                "x",
                rel("Infront"),
                ne(attr("x", "front"), attr("r", "back")),
            ),
        )]);
        let out = ev.eval(&e).unwrap();
        assert_eq!(out.sorted_tuples(), vec![tuple!["chair", "wall"]]);
        // SOME dual: tuples whose back does appear as a front.
        let e2 = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some(
                "x",
                rel("Infront"),
                eq(attr("x", "front"), attr("r", "back")),
            ),
        )]);
        let out2 = ev.eval(&e2).unwrap();
        assert_eq!(out2.len(), 2);
    }

    #[test]
    fn membership_predicates() {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        // EACH r IN Infront: NOT (<r.back, r.front> IN Infront)
        // (keeps tuples with no reverse pair — all of them here).
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            Formula::TupleIn(vec![attr("r", "back"), attr("r", "front")], rel("Infront")).negate(),
        )]);
        let out = ev.eval(&e).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn member_var_in_range() {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        // EACH r IN Infront: r IN Infront — trivially all.
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            Formula::Member("r".into(), rel("Infront")),
        )]);
        assert_eq!(ev.eval(&e).unwrap().len(), 3);
    }

    #[test]
    fn arithmetic_in_targets() {
        let nums = Relation::from_tuples(
            Schema::of(&[("n", Domain::Int)]),
            vec![tuple![1i64], tuple![2i64]],
        )
        .unwrap();
        let cat = MapCatalog::new().with_relation("N", nums);
        let mut ev = Evaluator::new(&cat);
        // <r.n + 10> OF EACH r IN N: TRUE
        let e = set_former(vec![Branch::projecting(
            vec![add(attr("r", "n"), cnst(10i64))],
            vec![("r".into(), rel("N"))],
            tru(),
        )]);
        let out = ev.eval(&e).unwrap();
        assert!(out.contains(&tuple![11i64]));
        assert!(out.contains(&tuple![12i64]));
    }

    #[test]
    fn cross_type_comparison_is_error() {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            eq(attr("r", "front"), cnst(1i64)),
        )]);
        assert!(matches!(
            ev.eval(&e),
            Err(EvalError::CrossTypeComparison { .. })
        ));
    }

    #[test]
    fn unbound_variable_error() {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            eq(attr("zz", "front"), cnst("x")),
        )]);
        assert!(matches!(ev.eval(&e), Err(EvalError::UnboundVariable(_))));
    }

    #[test]
    fn union_of_incompatible_branches_rejected() {
        let nums =
            Relation::from_tuples(Schema::of(&[("n", Domain::Int)]), vec![tuple![1i64]]).unwrap();
        let cat = catalog().with_relation("N", nums);
        let mut ev = Evaluator::new(&cat);
        let e = set_former(vec![
            Branch::each("r", rel("Infront"), tru()),
            Branch::each("x", rel("N"), tru()),
        ]);
        assert!(ev.eval(&e).is_err());
    }

    #[test]
    fn correlated_subquery_not_cached() {
        // The inner set former references the outer variable `r`; its
        // value must be recomputed per outer tuple.
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        // EACH r IN Infront:
        //   SOME x IN {EACH y IN Infront: y.front = r.back} (TRUE)
        let inner = set_former(vec![Branch::each(
            "y",
            rel("Infront"),
            eq(attr("y", "front"), attr("r", "back")),
        )]);
        assert!(!is_binding_free(&inner));
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some("x", inner, tru()),
        )]);
        let out = ev.eval(&e).unwrap();
        // Same result as the SOME formulation above.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn binding_free_detection() {
        assert!(is_binding_free(&rel("R")));
        assert!(is_binding_free(&rel("R").select("s", vec![cnst(1i64)])));
        assert!(!is_binding_free(
            &rel("R").select("s", vec![attr("r", "a")])
        ));
        assert!(!is_binding_free(&rel("R").select("s", vec![param("P")])));
        // A closed set former is binding-free even though it binds its
        // own variables.
        let closed = set_former(vec![Branch::each("x", rel("R"), tru())]);
        assert!(is_binding_free(&closed));
    }

    #[test]
    fn constructed_range_delegates_to_catalog() {
        let cat = catalog().with_constructor_fn("identity", Box::new(|base, _| Ok(base)));
        let mut ev = Evaluator::new(&cat);
        let out = ev
            .eval(&rel("Infront").construct("identity", vec![]))
            .unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn duplicate_target_names_disambiguated() {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        // <f.front, b.front> OF … — two `front` columns.
        let e = set_former(vec![Branch::projecting(
            vec![attr("f", "front"), attr("b", "front")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")),
        )]);
        let out = ev.eval(&e).unwrap();
        let names: Vec<&str> = out
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["front", "front_"]);
    }

    #[test]
    fn index_path_agrees_with_nested_loop_reference() {
        // The join branch of §2.3 runs through the index-nested-loop
        // executor; the reference evaluator is the semantics oracle.
        let cat = catalog();
        let planned = Evaluator::new(&cat).eval(&ahead2_expr()).unwrap();
        let reference = Evaluator::new(&cat)
            .force_nested_loop()
            .eval(&ahead2_expr())
            .unwrap();
        assert_eq!(planned, reference);
        assert_eq!(planned.len(), 5);
    }

    #[test]
    fn outer_variable_key_probes_correlated_branch() {
        // The inner set former's equality key references the outer
        // variable `r` — compiled as a Fixed key per outer binding.
        let cat = catalog();
        let inner = set_former(vec![Branch::each(
            "y",
            rel("Infront"),
            eq(attr("y", "front"), attr("r", "back")),
        )]);
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some("x", inner, tru()),
        )]);
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        assert_eq!(planned.len(), 2);
    }

    #[test]
    fn cross_type_key_demoted_to_residual_error() {
        // `r.front = 1` would probe a STRING column with an INTEGER key;
        // the compiler must demote the atom so the reference error
        // semantics (CrossTypeComparison) survive.
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        let e = set_former(vec![Branch::projecting(
            vec![attr("f", "front")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")).and(eq(attr("f", "front"), cnst(1i64))),
        )]);
        assert!(matches!(
            ev.eval(&e),
            Err(EvalError::CrossTypeComparison { .. })
        ));
    }

    #[test]
    fn unknown_param_key_demoted_not_planned_away() {
        // An unresolvable parameter key falls back to the residual,
        // which raises the same UnknownParam the reference path does.
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        let e = set_former(vec![Branch::projecting(
            vec![attr("f", "front")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")).and(eq(attr("b", "back"), param("Ghost"))),
        )]);
        assert!(matches!(ev.eval(&e), Err(EvalError::UnknownParam(_))));
    }

    #[test]
    fn three_way_join_chains_probes() {
        // EACH a, b, c IN Infront: a.back = b.front AND b.back = c.front
        // — two probe steps chained off one scan.
        let cat = catalog();
        let e = set_former(vec![Branch::projecting(
            vec![attr("a", "front"), attr("c", "back")],
            vec![
                ("a".into(), rel("Infront")),
                ("b".into(), rel("Infront")),
                ("c".into(), rel("Infront")),
            ],
            eq(attr("a", "back"), attr("b", "front"))
                .and(eq(attr("b", "back"), attr("c", "front"))),
        )]);
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        // The only 3-edge chain is vase→table→chair→wall ⇒ <vase, wall>.
        assert_eq!(planned.sorted_tuples(), vec![tuple!["vase", "wall"]]);
    }

    #[test]
    fn catalog_resolution_shares_storage() {
        // COW acceptance: resolving a named relation hands out a handle
        // sharing the catalog's tuple storage — no copy per branch.
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        let out = ev.eval(&rel("Infront")).unwrap();
        let original = cat.relation("Infront").unwrap();
        assert!(Relation::shares_storage(&out, &original));
        // Repeated resolution through the range cache shares too.
        let again = ev.eval(&rel("Infront")).unwrap();
        assert!(Relation::shares_storage(&out, &again));
    }

    fn objects_catalog() -> MapCatalog {
        let objects = Relation::from_tuples(
            Schema::of(&[("part", Domain::Str), ("kind", Domain::Str)]),
            vec![
                tuple!["vase", "decor"],
                tuple!["table", "furniture"],
                tuple!["chair", "furniture"],
            ],
        )
        .unwrap();
        catalog().with_relation("Objects", objects)
    }

    #[test]
    fn some_probe_agrees_with_reference() {
        // EACH r IN Infront: SOME o IN Objects (o.part = r.back) —
        // the selector-style predicate the quantifier probe targets.
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some(
                "o",
                rel("Objects"),
                eq(attr("o", "part"), attr("r", "back")),
            ),
        )]);
        let cat = objects_catalog();
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        // ("chair","wall") drops: "wall" is not an object.
        assert_eq!(planned.len(), 2);
    }

    #[test]
    fn some_probe_with_residual_conjunct() {
        // The probe narrows to the bucket; the residual (`o.kind`)
        // still filters within it.
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some(
                "o",
                rel("Objects"),
                eq(attr("o", "part"), attr("r", "back"))
                    .and(eq(attr("o", "kind"), cnst("furniture"))),
            ),
        )]);
        let cat = objects_catalog();
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        assert_eq!(planned.len(), 2); // backs "table" and "chair"
    }

    #[test]
    fn all_probe_agrees_with_reference() {
        // ALL o IN Objects (o.part = r.front): only satisfiable when
        // the bucket covers the whole range — never here (3 objects).
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            all(
                "o",
                rel("Objects"),
                eq(attr("o", "part"), attr("r", "front")),
            ),
        )]);
        let cat = objects_catalog();
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        assert!(planned.is_empty());

        // Single-object registry: the bucket can cover the range.
        let one = Relation::from_tuples(
            Schema::of(&[("part", Domain::Str), ("kind", Domain::Str)]),
            vec![tuple!["vase", "decor"]],
        )
        .unwrap();
        let cat1 = catalog().with_relation("Objects", one);
        let planned1 = Evaluator::new(&cat1).eval(&e).unwrap();
        let reference1 = Evaluator::new(&cat1).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned1, reference1);
        assert_eq!(planned1.sorted_tuples(), vec![tuple!["vase", "table"]]);

        // Empty registry: ALL is vacuously true on both paths.
        let empty = Relation::new(Schema::of(&[("part", Domain::Str), ("kind", Domain::Str)]));
        let cat0 = catalog().with_relation("Objects", empty);
        let planned0 = Evaluator::new(&cat0).eval(&e).unwrap();
        assert_eq!(planned0.len(), 3);
    }

    #[test]
    fn quant_probe_demotes_cross_type_key() {
        // `o.part = 1` probes a STRING column with an INTEGER key: the
        // atom is demoted and the scan raises the reference error.
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some("o", rel("Objects"), eq(attr("o", "part"), cnst(1i64))),
        )]);
        let cat = objects_catalog();
        assert!(matches!(
            Evaluator::new(&cat).eval(&e),
            Err(EvalError::CrossTypeComparison { .. })
        ));
    }

    #[test]
    fn negated_some_probe_agrees() {
        // Hidden objects: EACH r IN Infront: NOT SOME o IN Objects
        // (o.part = r.back) — negation wraps the probed quantifier.
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            not(some(
                "o",
                rel("Objects"),
                eq(attr("o", "part"), attr("r", "back")),
            )),
        )]);
        let cat = objects_catalog();
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        assert_eq!(planned.sorted_tuples(), vec![tuple!["chair", "wall"]]);
    }

    fn scene_catalog() -> MapCatalog {
        let ontop = Relation::from_tuples(
            Schema::of(&[("top", Domain::Str), ("base", Domain::Str)]),
            vec![
                tuple!["cup", "table"],
                tuple!["book", "table"],
                tuple!["dust", "chair"],
            ],
        )
        .unwrap();
        catalog().with_relation("Ontop", ontop)
    }

    /// The correlated-selector shape of §2.3:
    /// `EACH r IN Infront: SOME t IN {EACH o IN Ontop: o.base = r.front
    ///  AND o.top # "dust"} (TRUE)` — the range depends on `r`, so the
    /// reference path re-evaluates it per combination.
    fn correlated_some() -> RangeExpr {
        let inner = set_former(vec![Branch::each(
            "o",
            rel("Ontop"),
            eq(attr("o", "base"), attr("r", "front")).and(ne(attr("o", "top"), cnst("dust"))),
        )]);
        set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some("t", inner, tru()),
        )])
    }

    #[test]
    fn decorrelated_some_agrees_with_reference() {
        let cat = scene_catalog();
        let e = correlated_some();
        let mut ev = Evaluator::new(&cat);
        let planned = ev.eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        // Only "table" carries a non-dust item ⇒ the ("table","chair")
        // edge survives... "vase" carries nothing, "chair" only dust.
        assert_eq!(planned.sorted_tuples(), vec![tuple!["table", "chair"]]);
        // The rewrite went through: no demotion/abandonment notes.
        assert!(ev.plan_notes().is_empty(), "{:?}", ev.plan_notes());
    }

    #[test]
    fn decorrelated_all_agrees_with_reference() {
        // ALL over a correlated range: every item on r.front is a cup.
        let cat = scene_catalog();
        let inner = set_former(vec![Branch::each(
            "o",
            rel("Ontop"),
            eq(attr("o", "base"), attr("r", "front")),
        )]);
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            all("t", inner, eq(attr("t", "top"), cnst("cup"))),
        )]);
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        // vase carries nothing (vacuously true); table carries a book
        // (not a cup) and chair carries dust — both falsified.
        assert_eq!(planned.sorted_tuples(), vec![tuple!["vase", "table"]]);
    }

    #[test]
    fn correlated_selector_application_decorrelated() {
        // Ontop[on_base(r.front)] — a selector application whose actual
        // argument references the outer variable.
        let def = SelectorDef {
            name: "on_base".into(),
            element_var: "o".into(),
            params: vec![("B".into(), Domain::Str)],
            predicate: eq(attr("o", "base"), param("B")),
        };
        let cat = scene_catalog().with_selector(def);
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some(
                "t",
                rel("Ontop").select("on_base", vec![attr("r", "front")]),
                tru(),
            ),
        )]);
        let mut ev = Evaluator::new(&cat);
        let planned = ev.eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        assert_eq!(planned.len(), 2); // table and chair carry items
        assert!(ev.plan_notes().is_empty(), "{:?}", ev.plan_notes());
    }

    #[test]
    fn all_implication_body_probed_on_named_range() {
        // ALL t IN Ontop (NOT (t.base = r.front) OR t.top = "cup"):
        // implication-shaped body; the falsifier (t.base = r.front AND
        // t.top # "cup") localises counterexamples in the base bucket.
        let cat = scene_catalog();
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            all(
                "t",
                rel("Ontop"),
                not(eq(attr("t", "base"), attr("r", "front")))
                    .or(eq(attr("t", "top"), cnst("cup"))),
            ),
        )]);
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        // vase: nothing on it (vacuous); table: carries a book ⇒ out;
        // chair: carries dust ⇒ out.
        assert_eq!(planned.sorted_tuples(), vec![tuple!["vase", "table"]]);
    }

    #[test]
    fn quant_probe_demotion_leaves_trace_note() {
        // The quantified range is a set-former view projecting `top`
        // away (the nested-selector shape); the body atom references
        // the missing field, so the probe must demote to the residual
        // scan — with a trace note, not silently.
        let cat = scene_catalog();
        let view = set_former(vec![Branch::projecting(
            vec![attr("o", "base")],
            vec![("o".into(), rel("Ontop"))],
            tru(),
        )]);
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some("t", view, eq(attr("t", "top"), attr("r", "front"))),
        )]);
        let mut ev = Evaluator::new(&cat);
        // The body genuinely references the missing field, so *both*
        // paths raise the same reference error — the probe demotes to
        // the scan (which raises it) instead of probing a bogus column.
        let planned = ev.eval(&e);
        assert!(
            matches!(planned, Err(EvalError::Type(_))),
            "got {planned:?}"
        );
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e);
        assert!(matches!(reference, Err(EvalError::Type(_))));
        let notes = ev.take_plan_notes();
        assert!(
            notes
                .iter()
                .any(|n| n.contains("`top`") && n.contains("not in range schema")),
            "expected a demotion note, got {notes:?}"
        );
        assert!(ev.plan_notes().is_empty(), "take drains the trace");
    }

    #[test]
    fn decorrelation_refusal_leaves_trace_note() {
        // Correlated through an inequality: not splittable — scans with
        // a note.
        let cat = scene_catalog();
        let inner = set_former(vec![Branch::each(
            "o",
            rel("Ontop"),
            lt(attr("o", "base"), attr("r", "front")),
        )]);
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some("t", inner, tru()),
        )]);
        let mut ev = Evaluator::new(&cat);
        let planned = ev.eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        assert!(
            ev.plan_notes().iter().any(|n| n.contains("not splittable")),
            "{:?}",
            ev.plan_notes()
        );
    }

    /// A four-relation catalog for the multi-binding (joint-key)
    /// decorrelation shape: `Assign(task, worker)`, `Skill(worker,
    /// tool)` and an outer `Requests(task, tool)`.
    fn staffing_catalog() -> MapCatalog {
        let assign = Relation::from_tuples(
            Schema::of(&[("task", Domain::Str), ("worker", Domain::Str)]),
            vec![
                tuple!["t1", "w1"],
                tuple!["t1", "w2"],
                tuple!["t2", "w2"],
                tuple!["t3", "w3"],
            ],
        )
        .unwrap();
        let skill = Relation::from_tuples(
            Schema::of(&[("worker", Domain::Str), ("tool", Domain::Str)]),
            vec![
                tuple!["w1", "hammer"],
                tuple!["w2", "saw"],
                tuple!["w3", "hammer"],
            ],
        )
        .unwrap();
        let requests = Relation::from_tuples(
            Schema::of(&[("task", Domain::Str), ("tool", Domain::Str)]),
            vec![
                tuple!["t1", "hammer"],
                tuple!["t1", "saw"],
                tuple!["t2", "hammer"],
                tuple!["t3", "hammer"],
            ],
        )
        .unwrap();
        MapCatalog::new()
            .with_relation("Assign", assign)
            .with_relation("Skill", skill)
            .with_relation("Requests", requests)
    }

    /// The joint-key join view: workers assigned to `r.task` and
    /// skilled on `r.tool`.
    fn qualified_view() -> RangeExpr {
        set_former(vec![Branch::projecting(
            vec![attr("a", "worker")],
            vec![("a".into(), rel("Assign")), ("s".into(), rel("Skill"))],
            eq(attr("a", "worker"), attr("s", "worker"))
                .and(eq(attr("a", "task"), attr("r", "task")))
                .and(eq(attr("s", "tool"), attr("r", "tool"))),
        )])
    }

    #[test]
    fn multi_binding_joint_key_decorrelation_agrees_with_reference() {
        let cat = staffing_catalog();
        let e = set_former(vec![Branch::each(
            "r",
            rel("Requests"),
            some("x", qualified_view(), tru()),
        )]);
        let mut ev = Evaluator::new(&cat);
        let planned = ev.eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        // t1+hammer (w1), t1+saw (w2), t2+saw is not requested,
        // t2+hammer has no qualified worker, t3+hammer (w3).
        assert_eq!(planned.len(), 3);
        assert!(!planned.contains(&tuple!["t2", "hammer"]));
        // The rewrite went through: no demotion/abandonment notes.
        assert!(ev.plan_notes().is_empty(), "{:?}", ev.plan_notes());
    }

    #[test]
    fn multi_binding_all_quantifier_decorrelated() {
        // ALL x IN <join view> (x.worker # "w2"): requests every
        // qualified assigned worker of which avoids w2 — vacuously true
        // where the view is empty.
        let cat = staffing_catalog();
        let e = set_former(vec![Branch::each(
            "r",
            rel("Requests"),
            all("x", qualified_view(), ne(attr("x", "worker"), cnst("w2"))),
        )]);
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        // Only t1+saw resolves to w2.
        assert_eq!(planned.len(), 3);
        assert!(!planned.contains(&tuple!["t1", "saw"]));
    }

    #[test]
    fn multi_binding_unconstrained_cross_product_refused() {
        // Joint key spans both bindings but the residual carries no
        // join atom: the decorrelated form would *materialise* the full
        // Assign × Skill product — the blow-up gate refuses and the
        // scan path answers. (Inputs are sized so the product clearly
        // exceeds the documented 8× bound over the summed inputs.)
        let assign = Relation::from_tuples(
            Schema::of(&[("task", Domain::Str), ("worker", Domain::Str)]),
            (0..40).map(|i| tuple![format!("t{i}"), format!("w{i}")]),
        )
        .unwrap();
        let skill = Relation::from_tuples(
            Schema::of(&[("worker", Domain::Str), ("tool", Domain::Str)]),
            (0..40).map(|i| tuple![format!("w{i}"), format!("l{i}")]),
        )
        .unwrap();
        let requests = Relation::from_tuples(
            Schema::of(&[("task", Domain::Str), ("tool", Domain::Str)]),
            vec![tuple!["t1", "l1"], tuple!["t2", "l3"]],
        )
        .unwrap();
        let cat = MapCatalog::new()
            .with_relation("Assign", assign)
            .with_relation("Skill", skill)
            .with_relation("Requests", requests);
        let view = set_former(vec![Branch::projecting(
            vec![attr("a", "worker")],
            vec![("a".into(), rel("Assign")), ("s".into(), rel("Skill"))],
            eq(attr("a", "task"), attr("r", "task")).and(eq(attr("s", "tool"), attr("r", "tool"))),
        )]);
        let e = set_former(vec![Branch::each(
            "r",
            rel("Requests"),
            some("x", view, tru()),
        )]);
        let mut ev = Evaluator::new(&cat);
        let planned = ev.eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        assert!(
            ev.plan_notes()
                .iter()
                .any(|n| n.contains("inner join too large")),
            "{:?}",
            ev.plan_notes()
        );
    }

    #[test]
    fn multi_binding_correlated_target_refused() {
        // The view's target references the outer variable — the element
        // tuples vary per outer combination, so decorrelation must
        // refuse (and the scan must agree).
        let cat = staffing_catalog();
        let view = set_former(vec![Branch::projecting(
            vec![attr("a", "worker"), attr("r", "tool")],
            vec![("a".into(), rel("Assign"))],
            eq(attr("a", "task"), attr("r", "task")),
        )]);
        let e = set_former(vec![Branch::each(
            "r",
            rel("Requests"),
            some("x", view, eq(attr("x", "tool"), cnst("saw"))),
        )]);
        let mut ev = Evaluator::new(&cat);
        let planned = ev.eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        // Only t1+saw: its task has assigned workers and its own tool
        // is "saw" (the correlated target column).
        assert_eq!(planned.sorted_tuples(), vec![tuple!["t1", "saw"]]);
        assert!(
            ev.plan_notes().iter().any(|n| n.contains("not splittable")),
            "{:?}",
            ev.plan_notes()
        );
    }

    #[test]
    fn multi_binding_cross_type_joint_key_falls_back_per_combination() {
        // One joint-key component is INTEGER-valued on the outer side
        // while the correlation column is STRING: the probe demotes to
        // the scan per combination, which raises the reference error.
        let nums = Relation::from_tuples(
            Schema::of(&[("task", Domain::Str), ("n", Domain::Int)]),
            vec![tuple!["t1", 1i64]],
        )
        .unwrap();
        let cat = staffing_catalog().with_relation("Nums", nums);
        let view = set_former(vec![Branch::projecting(
            vec![attr("a", "worker")],
            vec![("a".into(), rel("Assign")), ("s".into(), rel("Skill"))],
            eq(attr("a", "worker"), attr("s", "worker")).and(eq(attr("a", "task"), attr("r", "n"))),
        )]);
        let e = set_former(vec![Branch::each("r", rel("Nums"), some("x", view, tru()))]);
        let planned = Evaluator::new(&cat).eval(&e);
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e);
        assert!(
            matches!(planned, Err(EvalError::CrossTypeComparison { .. })),
            "got {planned:?}"
        );
        assert!(matches!(
            reference,
            Err(EvalError::CrossTypeComparison { .. })
        ));
    }

    /// A catalog wrapping [`MapCatalog`] with an [`AccessCache`] — the
    /// long-lived owner shape (database, snapshot, solve), with the
    /// cache traffic observable through its registry.
    struct CachingCatalog {
        inner: MapCatalog,
        cache: AccessCache,
        metrics: Arc<MetricsRegistry>,
    }

    impl CachingCatalog {
        fn over(inner: MapCatalog) -> CachingCatalog {
            let metrics = Arc::new(MetricsRegistry::new());
            CachingCatalog {
                inner,
                cache: AccessCache::new(Some(metrics.clone())),
                metrics,
            }
        }

        /// The one decorrelation entry `range` has in the cache, under
        /// whatever ids it was built from.
        fn decorr_of(&self, range: &RangeExpr, reads: &[&str]) -> Option<DecorrCached> {
            let ids: Vec<u64> = reads
                .iter()
                .map(|n| self.inner.relation(n).unwrap().storage_id())
                .collect();
            self.cache.decorr(range, &ids)
        }
    }

    impl Catalog for CachingCatalog {
        fn relation(&self, name: &str) -> Result<Relation, EvalError> {
            self.inner.relation(name)
        }
        fn selector(&self, name: &str) -> Result<&crate::ast::SelectorDef, EvalError> {
            self.inner.selector(name)
        }
        fn access(&self) -> Option<&AccessCache> {
            Some(&self.cache)
        }
    }

    #[test]
    fn shared_cache_hit_returns_same_entry_without_rebuild() {
        let cat = CachingCatalog::over(staffing_catalog());
        let e = set_former(vec![Branch::each(
            "r",
            rel("Requests"),
            some("x", qualified_view(), tru()),
        )]);
        let builds = |cat: &CachingCatalog| cat.metrics.snapshot().warm_decorr_misses;
        let first = Evaluator::new(&cat).eval(&e).unwrap();
        assert_eq!(builds(&cat), 1, "one miss, one build");
        // The view reads `Assign` and `Skill` (name order).
        let DecorrCached::Built(entry_after_first) = cat
            .decorr_of(&qualified_view(), &["Assign", "Skill"])
            .unwrap()
        else {
            panic!("expected a built entry");
        };
        assert!(entry_after_first.distinct_keys() > 0);
        // A second evaluator (fresh lifetime, same catalog) must serve
        // the cached entry — same Arc, no rebuild.
        let second = Evaluator::new(&cat).eval(&e).unwrap();
        assert_eq!(first, second);
        assert_eq!(builds(&cat), 1, "no rebuild on the cache hit");
        let DecorrCached::Built(entry_after_second) = cat
            .decorr_of(&qualified_view(), &["Assign", "Skill"])
            .unwrap()
        else {
            panic!("expected a built entry");
        };
        assert!(
            Arc::ptr_eq(&entry_after_first, &entry_after_second),
            "cache hit must return the same Arc"
        );
        // Two evaluator hits plus this test's two peeks.
        assert!(cat.metrics.snapshot().warm_decorr_hits >= 3);
    }

    #[test]
    fn cached_refusal_hit_leaves_trace_note() {
        // First evaluator analyses and refuses (inequality correlation
        // is not splittable) and stores the refusal in the cache;
        // a second evaluator served that cached refusal must note the
        // silent-scan decision too — the hit path used to lose it.
        let cat = CachingCatalog::over(scene_catalog());
        let inner = set_former(vec![Branch::each(
            "o",
            rel("Ontop"),
            lt(attr("o", "base"), attr("r", "front")),
        )]);
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some("t", inner.clone(), tru()),
        )]);
        let mut first = Evaluator::new(&cat);
        first.eval(&e).unwrap();
        assert!(
            first
                .plan_notes()
                .iter()
                .any(|n| n.contains("not splittable")),
            "{:?}",
            first.plan_notes()
        );
        assert!(matches!(
            cat.decorr_of(&inner, &["Ontop"]),
            Some(DecorrCached::Refused)
        ));
        let mut second = Evaluator::new(&cat);
        second.eval(&e).unwrap();
        assert!(
            second
                .plan_notes()
                .iter()
                .any(|n| n.contains("cached refusal served from catalog")),
            "hit path must leave a trace note, got {:?}",
            second.plan_notes()
        );
    }

    #[test]
    fn relation_replaced_under_the_same_name_is_never_served_the_old_entries() {
        // The owner swaps `Ontop` for a different value under the same
        // name (and keeps the cache): a later evaluator must decide the
        // correlated quantifier from the new value — the old value's
        // decorrelated join and indexes are keyed by the old storage.
        let mut cat = CachingCatalog::over(scene_catalog());
        let q = correlated_some();
        let before = Evaluator::new(&cat).eval(&q).unwrap();
        assert!(!before.is_empty());
        let ontop = cat.inner.relation("Ontop").unwrap();
        cat.inner
            .insert_relation("Ontop", Relation::new(ontop.schema().clone()));
        let after = Evaluator::new(&cat).eval(&q).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&q).unwrap();
        assert_eq!(after, reference);
        assert!(after.is_empty(), "nothing is on top of anything any more");
    }

    /// Evaluate `e` with `threads` workers and the given sharding
    /// threshold. Also reports whether the evaluation took the worker
    /// pool: re-run under an armed `worker_start=error`, a sharded
    /// branch (and nothing else) fails with that injected fault. Every
    /// test of this module that configures workers goes through here,
    /// so the guard also keeps the armed run from leaking into a
    /// concurrently running one.
    fn sharded(
        cat: &MapCatalog,
        e: &RangeExpr,
        threads: usize,
        threshold: usize,
    ) -> (Result<Relation, EvalError>, bool) {
        let run = || {
            Evaluator::new(cat)
                .with_threads(threads)
                .with_parallel_threshold(threshold)
                .eval(e)
        };
        let took_pool = {
            let _armed = dc_governor::FailpointsGuard::arm("worker_start=error");
            matches!(run(), Err(EvalError::FaultInjected { .. }))
        };
        let _disarmed = dc_governor::FailpointsGuard::arm("");
        (run(), took_pool)
    }

    fn join_on(extra: Formula) -> RangeExpr {
        set_former(vec![Branch::projecting(
            vec![attr("f", "front"), attr("b", "back")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")).and(extra),
        )])
    }

    #[test]
    fn parallel_branch_agrees_with_sequential() {
        // A third binding with no equality atom: the plan keeps a full
        // scan step *below* the sharded one.
        let inner_scan = set_former(vec![Branch::projecting(
            vec![attr("f", "front"), attr("b", "back"), attr("z", "back")],
            vec![
                ("f".into(), rel("Infront")),
                ("b".into(), rel("Infront")),
                ("z".into(), rel("Infront")),
            ],
            eq(attr("f", "back"), attr("b", "front"))
                .and(ne(attr("z", "front"), attr("f", "front"))),
        )]);
        let cat = catalog();
        let mut planner = Evaluator::new(&cat);
        planner.eval(&inner_scan).unwrap();
        assert!(planner.plan_events().iter().any(|ev| matches!(
            ev,
            PlanEvent::AccessPath { steps, .. }
                if !steps[0].is_probe() && steps[1..].iter().any(|s| !s.is_probe())
        )));
        let empty = MapCatalog::new().with_relation("Infront", infront(&[]));
        // (catalog, expression, result size, takes the pool)
        let cases = [
            (catalog(), ahead2_expr(), 5, true),
            (catalog(), inner_scan, 4, true),
            (empty, ahead2_expr(), 0, false),
        ];
        for (cat, e, len, pool) in &cases {
            let sequential = Evaluator::new(cat).eval(e).unwrap();
            let reference = Evaluator::new(cat).force_nested_loop().eval(e).unwrap();
            assert_eq!(sequential, reference, "{e}");
            assert_eq!(sequential.len(), *len, "{e}");
            for threads in [2usize, 4, 7] {
                let (parallel, took_pool) = sharded(cat, e, threads, 1);
                assert_eq!(parallel.unwrap(), sequential, "{e} threads={threads}");
                assert_eq!(took_pool, *pool, "{e} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_path_preserves_reference_errors() {
        // Workers run the reference operator loop, so whatever it
        // raises they raise. (expression, takes the pool, the error
        // names a tuple — so its class, not its witness, is what every
        // worker count must agree on)
        let cat = catalog();
        let cases = [
            // A cross-type comparison the probe keys do not reject.
            (join_on(eq(attr("f", "front"), cnst(1i64))), true, true),
            // An unknown attribute: no part of the purity check.
            (join_on(eq(attr("f", "nope"), cnst("x"))), true, false),
            // An unresolvable parameter keeps the branch sequential.
            (join_on(ne(attr("f", "front"), param("Nope"))), false, false),
        ];
        for (e, pool, witnessed) in &cases {
            let reference = sharded(&cat, e, 1, 1).0.unwrap_err();
            for threads in [2usize, 4, 7] {
                let (got, took_pool) = sharded(&cat, e, threads, 1);
                let got = got.unwrap_err();
                if *witnessed {
                    assert_eq!(
                        std::mem::discriminant(&got),
                        std::mem::discriminant(&reference),
                        "{e} threads={threads}: {got}"
                    );
                } else {
                    assert_eq!(got, reference, "{e} threads={threads}");
                }
                assert_eq!(took_pool, *pool, "{e} threads={threads}");
            }
        }
        assert!(matches!(
            sharded(&cat, &cases[0].0, 1, 1).0,
            Err(EvalError::CrossTypeComparison { .. })
        ));
        assert!(matches!(
            sharded(&cat, &cases[2].0, 1, 1).0,
            Err(EvalError::UnknownParam(_))
        ));

        // Key violation: the first branch fixes a result schema keyed
        // on `a`; the second derives two `b`s for `k2`. Which witness
        // is reported may differ across worker counts (in-shard insert
        // or shard-order merge), but never between two runs at one
        // count — the lowest failing shard decides.
        let keyed = Schema::with_key(
            vec![
                Attribute::new("a", Domain::Str),
                Attribute::new("b", Domain::Int),
            ],
            &["a"],
        )
        .unwrap();
        let pairs = |ts: &[(&str, i64)]| {
            Relation::from_tuples(
                Schema::of(&[("a", Domain::Str), ("b", Domain::Int)]),
                ts.iter().map(|(a, b)| tuple![*a, *b]),
            )
            .unwrap()
        };
        let cat = MapCatalog::new()
            .with_relation(
                "A",
                Relation::from_tuples(keyed, vec![tuple!["k1", 1i64]]).unwrap(),
            )
            .with_relation(
                "B",
                pairs(&[("k2", 1), ("k2", 2), ("k3", 1), ("k4", 1), ("k5", 1)]),
            )
            .with_relation("C", pairs(&[("k2", 0), ("k3", 0), ("k4", 0), ("k5", 0)]));
        let e = set_former(vec![
            Branch::each("x", rel("A"), tru()),
            Branch {
                target: Target::Var("y".into()),
                bindings: vec![("y".into(), rel("B")), ("z".into(), rel("C"))],
                predicate: eq(attr("y", "a"), attr("z", "a")),
            },
        ]);
        for threads in [1usize, 2, 4, 7] {
            let (first, took_pool) = sharded(&cat, &e, threads, 1);
            assert!(
                matches!(first, Err(EvalError::Relation(_))),
                "threads={threads}: {first:?}"
            );
            assert_eq!(sharded(&cat, &e, threads, 1).0, first, "threads={threads}");
            assert_eq!(took_pool, threads > 1);
        }
    }

    #[test]
    fn parallel_dispatch_respects_threshold_and_thread_count() {
        // Below the threshold (or with one worker) nothing is sharded;
        // results agree regardless — this is the documented
        // "threads = 1 is the exact sequential path" contract.
        let cat = catalog();
        let (a, a_pool) = sharded(&cat, &ahead2_expr(), 1, 1);
        let (b, b_pool) = sharded(&cat, &ahead2_expr(), 4, usize::MAX);
        assert_eq!(a.unwrap(), b.unwrap());
        assert!(!a_pool && !b_pool);
    }

    #[test]
    fn parallel_path_resolves_outer_variables_and_quantified_branches_fall_back() {
        let cat = catalog().with_param("Skip", Value::str("table"));
        let under_quantifier = |inner: RangeExpr| {
            set_former(vec![Branch::each(
                "r",
                rel("Infront"),
                some("x", inner, tru()),
            )])
        };
        // (expression, takes the pool)
        let cases = [
            // The outer branch has a quantifier (impure) and the inner
            // one starts with a fixed-key probe: nothing to shard.
            (
                under_quantifier(set_former(vec![Branch::each(
                    "y",
                    rel("Infront"),
                    eq(attr("y", "front"), attr("r", "back")),
                )])),
                false,
            ),
            // The inner join is pure and scans first; its residual
            // reads the *outer* `r`, so each worker needs the enclosing
            // bindings under its own — at the slots the plan compiled.
            (
                under_quantifier(join_on(ne(attr("f", "front"), attr("r", "back")))),
                true,
            ),
            // A catalog parameter, resolved once into the workers'
            // frame.
            (join_on(ne(attr("f", "front"), param("Skip"))), true),
            // Impure conjuncts — membership, a nested quantifier — keep a
            // probe plan on this thread even above the threshold.
            (join_on(member("f", rel("Infront"))), false),
            (
                join_on(some(
                    "z",
                    rel("Infront"),
                    eq(attr("z", "front"), attr("f", "front")),
                )),
                false,
            ),
        ];
        for (e, pool) in &cases {
            let reference = Evaluator::new(&cat).force_nested_loop().eval(e).unwrap();
            assert!(!reference.is_empty(), "{e}");
            let (parallel, took_pool) = sharded(&cat, e, 4, 1);
            assert_eq!(parallel.unwrap(), reference, "{e}");
            assert_eq!(took_pool, *pool, "{e}");
        }
    }

    #[test]
    fn cmp_op_comparisons() {
        let nums = Relation::from_tuples(
            Schema::of(&[("n", Domain::Int)]),
            (0..5).map(|i| tuple![i as i64]),
        )
        .unwrap();
        let cat = MapCatalog::new().with_relation("N", nums);
        let mut ev = Evaluator::new(&cat);
        for (op, expect) in [
            (CmpOp::Lt, 2usize),
            (CmpOp::Le, 3),
            (CmpOp::Gt, 2),
            (CmpOp::Ge, 3),
            (CmpOp::Eq, 1),
            (CmpOp::Ne, 4),
        ] {
            let e = set_former(vec![Branch::each(
                "r",
                rel("N"),
                Formula::Cmp(attr("r", "n"), op, cnst(2i64)),
            )]);
            assert_eq!(ev.eval(&e).unwrap().len(), expect, "{op:?}");
        }
    }
}
