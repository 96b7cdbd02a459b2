//! The evaluator for the calculus.
//!
//! Two execution paths coexist:
//!
//! * **Reference nested loops** ([`Evaluator::force_nested_loop`]) — the
//!   executable *definition* of expression meaning: every set-former
//!   branch enumerates the cross product of its ranges and filters by
//!   the predicate. The §4 rewrites (`dc_core::compile`) and the
//!   index path below are differentially tested against it.
//! * **Index-nested-loop joins** (the default) — branches whose
//!   predicates carry conjunctive equality atoms are executed through
//!   [`crate::joinplan`] plans: one range is scanned, the others are
//!   probed through [`dc_index::HashIndex`]es keyed on the equality
//!   columns, so work is proportional to *matching* combinations rather
//!   than all combinations. Every surviving combination re-checks the
//!   **residual**: the predicate's top-level conjuncts, in source
//!   order, minus those a realised probe key already decided (a key is
//!   realised only when it resolved and matches the probed column's
//!   base type, so its conjunct holds on every probe hit and can never
//!   raise). Both paths therefore produce identical relations and
//!   identical errors on every combination they both evaluate.
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
//!   through the bucket-covers-range check otherwise. A quantifier over
//!   a *correlated* range — a single-branch set-former or a selector
//!   application that mentions the enclosing scope, which the
//!   reference path re-evaluates per outer combination — is first
//!   unnested by §4's N2/N3 ([`rewrite::unnest_quantifier`]) into
//!   quantifiers over the range's own binding ranges, which those same
//!   probes decide; a multi-binding *join view* becomes a chain of
//!   probes, each level keyed by the conjuncts its variable completes.
//!   Each quantifier site is planned once per evaluator; demoted probe
//!   keys and correlated ranges left on the reference scan are
//!   recorded in the planner trace ([`Evaluator::plan_events`]). The
//!   divergence policy above extends unchanged: an error hiding in the
//!   body of a tuple the equality key already rejects is never raised,
//!   because that tuple is skipped outright — and likewise a
//!   value-dependent runtime error in a range predicate, or in a later
//!   binding range, on a tuple the quantifier never needs. Any other
//!   error of an unnested evaluation sends the site to the reference
//!   scan, which decides it; governed aborts and injected faults
//!   propagate. [`Evaluator::force_nested_loop`] disables quantifier
//!   probes and unnesting too.
//! * **One operator loop** — every branch outside
//!   [`Evaluator::force_nested_loop`] runs `exec_plan`: its probe plan
//!   when some key is realised, the declaration-order all-scan plan
//!   otherwise. Its leaf is compiled once per branch evaluation: the
//!   residual conjuncts and the target read branch-variable attributes
//!   as `(binding slot, column)` pairs, while outer-variable
//!   attributes, parameters, unknown attributes, quantifiers, and
//!   membership tests go through [`Evaluator::eval_scalar`] /
//!   [`Evaluator::eval_formula`] as on the reference path (so their
//!   values and errors are unchanged). The reference nested loops
//!   (`loop_branch` → `emit_if_selected`) serve only
//!   `force_nested_loop`.

use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::Arc;

use dc_governor::fail::{self, Site};
use dc_governor::{Meter, SolveError};
use dc_index::HashIndex;
use dc_relation::Relation;
use dc_value::{Attribute, Domain, FxHashMap, Schema, Tuple, Value};

use dc_trace::metrics::{Counter, MetricsRegistry};
use dc_trace::SpanKind;

use crate::access::AccessCache;
use crate::ast::{ArithOp, Branch, CmpOp, Formula, RangeExpr, ScalarExpr, SetFormer, Target, Var};
use crate::env::Catalog;
use crate::error::EvalError;
use crate::joinplan::{self, Access, BranchPlan, DistinctCount, EqAtom, KeySource, QuantMode};
use crate::plan_event::{PlanEvent, QuantDemotionReason};
use crate::rewrite::{self, Node};

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
    /// Indexes over the range values this evaluator computed itself
    /// (they live in `range_cache`, so their storage ids are stable) —
    /// and over named relations when the catalog offers no cache of
    /// its own.
    private: AccessCache,
    /// What each quantifier site decided, planned on its first
    /// evaluation: unnesting and probe planning clone and rewrite the
    /// body, which must not be paid per outer combination. A linear
    /// scan — entries are bounded by the quantifier sites evaluated —
    /// so lookups allocate nothing.
    sites: Vec<QuantSite>,
    /// Fresh-variable counter for unnested ranges.
    unnested_vars: usize,
    /// Per-plan-depth probe-key buffers, reused across probes.
    probe_scratch: Vec<Vec<Value>>,
    /// Disable the index-nested-loop path (reference semantics).
    nested_loop_only: bool,
    /// The armed budget governing this evaluation, if any: ticked at
    /// the executor leaves, with emitted tuples counted against its
    /// ceiling.
    budget: Option<Meter>,
    /// Typed planner trace: each distinct demotion or refusal once,
    /// plus one access-path event per planned branch site.
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
            sites: Vec::new(),
            unnested_vars: 0,
            probe_scratch: Vec::new(),
            nested_loop_only: false,
            budget: None,
            plan_events: Vec::new(),
            access_sites: Vec::new(),
            metrics: None,
        }
    }

    /// Force the reference nested-loop path for every branch (no join
    /// planning, no index probes, no quantifier unnesting). Used by
    /// differential tests and as the measured pre-optimization baseline.
    pub fn force_nested_loop(mut self) -> Evaluator<'a> {
        self.nested_loop_only = true;
        self
    }

    /// Govern this evaluation with an armed budget [`Meter`]: the
    /// executor leaves tick it (observing deadlines, cancellation, and
    /// the tuple ceiling), and trips surface as [`EvalError::Solve`].
    /// Clones share one gauge, so a solver hands the *same* meter to
    /// every branch evaluator of one solve.
    pub fn with_meter(mut self, meter: Meter) -> Evaluator<'a> {
        self.budget = Some(meter);
        self
    }

    /// Count planner decisions (probe/scan plans, quantifier probes and
    /// scans) into `metrics`. The owner —
    /// database, solver task, session — threads its registry through
    /// so the counts land in one place regardless of which evaluator
    /// did the planning.
    pub fn with_metrics(mut self, metrics: std::sync::Arc<MetricsRegistry>) -> Evaluator<'a> {
        self.metrics = Some(metrics);
        self
    }

    /// The typed planner trace, in first-occurrence order: each
    /// distinct demotion or refusal once ([`PlanEvent::is_demotion`]),
    /// plus one [`PlanEvent::AccessPath`] per planned branch site.
    pub fn plan_events(&self) -> &[PlanEvent] {
        &self.plan_events
    }

    /// Drain the typed planner trace — see [`Evaluator::plan_events`].
    pub fn take_plan_events(&mut self) -> Vec<PlanEvent> {
        self.access_sites.clear();
        std::mem::take(&mut self.plan_events)
    }

    /// Record a demotion/refusal event — once per distinct value — and
    /// emit it as a `plan` trace event when a trace sink is armed.
    fn plan_event(&mut self, ev: PlanEvent) {
        if !self.plan_events.contains(&ev) {
            dc_trace::event(SpanKind::Plan, || (ev.to_string(), Vec::new()));
            self.plan_events.push(ev);
        }
    }

    /// Record the access path chosen for one planned branch — once per
    /// distinct branch site, so per-combination re-plans (set-formers
    /// nested under quantifiers) pay a fingerprint lookup, not an
    /// event build. The compiled plan's realised atoms put demoted keys
    /// in the event's residual; its numbers come from the counts the
    /// planner `asked` for and the distinct keys of the compiled
    /// single-column probe indexes — nothing is built to render them.
    fn note_access_path(
        &mut self,
        branch: &Branch,
        plan: &BranchPlan,
        compiled: &CompiledPlan<'_>,
        asked: &[DistinctCount],
        schemas: &[&Schema],
        cards: &[usize],
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
        let known = |position: usize, column: usize| {
            let held = |step: &CompiledStep| match &step.access {
                CompiledAccess::Probe { index, .. }
                    if step.position == position && index.positions() == [column] =>
                {
                    Some(index.distinct_keys())
                }
                _ => None,
            };
            asked
                .iter()
                .find(|c| (c.position, c.column) == (position, column))
                .and_then(|c| c.distinct)
                .or_else(|| compiled.steps.iter().find_map(held))
        };
        let ev = PlanEvent::access_path_for(
            branch,
            plan,
            Some(&compiled.realised),
            schemas,
            cards,
            known,
        );
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
        bindings: &[Binding],
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
            match &mut result {
                // The first branch's output *is* the result so far.
                None => {
                    let mut out = Relation::new(schema);
                    self.eval_branch(branch, &ranges, bindings, &mut out)?;
                    result = Some(out);
                }
                // Later branches emit under the result's schema into a
                // relation of their own, so key conflicts with earlier
                // branches surface at the union, as on every path.
                Some(rel) => {
                    if !rel.schema().union_compatible(&schema) {
                        return Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
                            context: "set-former branches are not union-compatible".into(),
                        }));
                    }
                    let mut scratch = Relation::new(rel.schema().clone());
                    self.eval_branch(branch, &ranges, bindings, &mut scratch)?;
                    dc_relation::algebra::union_into(rel, &scratch)?;
                }
            }
        }
        // The empty-branches guard above filled `result` on the first
        // iteration; report rather than panic if that ever changes.
        result.ok_or_else(|| EvalError::Other("set former produced no result relation".into()))
    }

    /// Evaluate one branch: an index-nested-loop plan when the predicate
    /// offers equality atoms some probe realises, the declaration-order
    /// scan plan otherwise — both through the one operator loop
    /// ([`Evaluator::exec_plan`]) and its compiled leaf. The reference
    /// nested loops run only under [`Evaluator::force_nested_loop`].
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
        if self.nested_loop_only {
            return self.loop_branch(branch, ranges, 0, bindings, out);
        }
        if !branch.bindings.is_empty() {
            // Cheap AST walk first: atom-free branches go straight to
            // the scan plan.
            if !joinplan::extract_eq_atoms(branch).is_empty() {
                let schemas: Vec<&Schema> = ranges.iter().map(Relation::schema).collect();
                let cards: Vec<usize> = ranges.iter().map(Relation::len).collect();
                // The planner asks for a distinct count only where a
                // decision reads it; the answer is a bucket count.
                let mut failed = None;
                let (plan, asked) = joinplan::plan_branch(branch, &schemas, &cards, |p, column| {
                    self.distinct_count(&branch.bindings[p].1, &ranges[p], column)
                        .map_err(|e| failed.get_or_insert(e))
                        .ok()
                });
                if let Some(e) = failed {
                    return Err(e);
                }
                let compiled = self.compile_plan(branch, &plan, ranges, bindings)?;
                self.note_access_path(branch, &plan, &compiled, &asked, &schemas, &cards);
                if !compiled.realised.is_empty() {
                    return self.exec_plan(branch, &compiled, ranges, 0, bindings, out);
                }
            }
        }
        let scans = BranchPlan::all_scans(branch.bindings.len());
        let compiled = self.compile_plan(branch, &scans, ranges, bindings)?;
        self.exec_plan(branch, &compiled, ranges, 0, bindings, out)
    }

    /// Lower a logical plan to executable steps and leaf: resolve
    /// attribute positions, evaluate free key sources to values, bind
    /// probe indexes. Atoms that cannot be realised safely — unknown
    /// attributes, unresolvable parameters/outer variables, or keys
    /// whose base type differs from the probed column (where hash
    /// equality and `=` semantics diverge) — are demoted back to the
    /// residual predicate. The leaf re-checks exactly the conjuncts no
    /// realised key decides ([`joinplan::residual_conjuncts`]) and
    /// reads branch-variable attributes, there and in the target, at
    /// their `(binding slot, column)`. The only error channel is index
    /// acquisition (a governed abort or an injected fault).
    fn compile_plan<'b>(
        &mut self,
        branch: &'b Branch,
        plan: &'b BranchPlan,
        ranges: &[Relation],
        bindings: &[Binding],
    ) -> Result<CompiledPlan<'b>, EvalError> {
        let base_slot = bindings.len();
        let mut slot_of = vec![usize::MAX; branch.bindings.len()];
        let mut steps = Vec::with_capacity(plan.steps.len());
        let mut realised = Vec::new();
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
                                realised.push(atom);
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
                                realised.push(atom);
                            }
                        }
                    }
                    if keys.is_empty() {
                        CompiledAccess::Scan
                    } else if is_whole_tuple(&positions, schema.arity()) {
                        // Every attribute is bound: the range's own tuple
                        // set answers the probe — no index to build or
                        // maintain. Keys go in attribute order.
                        let mut keyed: Vec<_> = positions.into_iter().zip(keys).collect();
                        keyed.sort_by_key(|(p, _)| *p);
                        CompiledAccess::Member {
                            keys: keyed.into_iter().map(|(_, k)| k).collect(),
                        }
                    } else {
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
        let slots = LeafSlots {
            branch,
            slot_of: &slot_of,
            ranges,
        };
        let target = match &branch.target {
            Target::Var(v) => LeafTarget::Whole(
                slots
                    .slot(v)
                    .ok_or_else(|| EvalError::UnboundVariable(v.clone()))?,
            ),
            Target::Tuple(exprs) => {
                LeafTarget::Tuple(exprs.iter().map(|e| slots.scalar(e)).collect())
            }
        };
        let leaf = CompiledLeaf {
            residual: joinplan::residual_conjuncts(branch, &realised)
                .into_iter()
                .map(|c| slots.formula(c))
                .collect(),
            target,
        };
        Ok(CompiledPlan {
            steps,
            realised,
            leaf,
        })
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

    /// The distinct-value count of `column` in `rel` (the value of
    /// `range`): the bucket count of its single-column index, obtained
    /// as [`Evaluator::obtain_index`] obtains any. Where the index
    /// amortises, a plan that then probes the column reuses it, and a
    /// maintained value's count is read, not recounted.
    fn distinct_count(
        &self,
        range: &RangeExpr,
        rel: &Relation,
        column: usize,
    ) -> Result<usize, EvalError> {
        Ok(self.obtain_index(range, rel, &[column])?.distinct_keys())
    }

    /// Decide `SOME`/`ALL var IN range: body`. Outside
    /// [`Evaluator::force_nested_loop`] the site's plan
    /// ([`Evaluator::plan_site`]) goes first — the unnested form of a
    /// correlated range, or an index probe over the range's value — and
    /// whatever it leaves undecided goes to the reference scan.
    fn eval_quantifier(
        &mut self,
        q: Quantifier<'_>,
        bindings: &mut Vec<Binding>,
    ) -> Result<bool, EvalError> {
        if !self.nested_loop_only {
            let site = self.quant_site(q);
            match &*self.sites[site].plan.clone() {
                SitePlan::Unnested {
                    formula,
                    args,
                    ranges,
                } => {
                    if let Some(decided) = self.eval_unnested(formula, args, ranges, bindings)? {
                        return Ok(decided);
                    }
                }
                SitePlan::Range { probe: Some(probe) } => {
                    let rel = self.eval_range(q.range, bindings)?;
                    if let Some(decided) = self.quant_probe(site, probe, q, &rel, bindings)? {
                        return Ok(decided);
                    }
                    return self.decide_over(q, rel.schema(), rel.iter(), bindings);
                }
                SitePlan::Range { probe: None } => {}
            }
        }
        let rel = self.eval_range(q.range, bindings)?;
        self.decide_over(q, rel.schema(), rel.iter(), bindings)
    }

    /// The memo entry of a quantifier site, planned on first sight.
    fn quant_site(&mut self, q: Quantifier<'_>) -> usize {
        let known = self.sites.iter().position(|s| {
            s.existential == q.existential
                && s.var == *q.var
                && s.range == *q.range
                && s.body == *q.body
        });
        known.unwrap_or_else(|| {
            let plan = Rc::new(self.plan_site(q));
            self.sites.push(QuantSite {
                var: q.var.clone(),
                existential: q.existential,
                range: q.range.clone(),
                body: q.body.clone(),
                plan,
                index: None,
                demoted: Vec::new(),
            });
            self.sites.len() - 1
        })
    }

    /// Plan one quantifier site. A *correlated* range — one that
    /// mentions the enclosing scope, so the reference path re-evaluates
    /// it per outer combination — is unnested when it is a single-branch
    /// set-former or a selector application
    /// ([`Evaluator::as_correlated_branch`], then
    /// [`rewrite::unnest_quantifier`] over fresh `Δ`-prefixed variables,
    /// which the lexer cannot produce); any other correlated range stays
    /// on the reference scan and says so. Every other range gets its
    /// index-probe plan ([`joinplan::plan_quant_probe`]).
    fn plan_site(&mut self, q: Quantifier<'_>) -> SitePlan {
        if is_binding_free(q.range) {
            let probe = joinplan::plan_quant_probe(q.var, q.body, q.existential);
            if let Some(m) = &self.metrics {
                m.inc(if probe.is_some() {
                    Counter::QuantProbes
                } else {
                    Counter::QuantScans
                });
            }
            return SitePlan::Range { probe };
        }
        if let Some((branch, args)) = self.as_correlated_branch(q.range) {
            let count = &mut self.unnested_vars;
            let mut fresh = |v: &str| {
                *count += 1;
                format!("Δ{count}_{v}")
            };
            if let Some(formula) =
                rewrite::unnest_quantifier(q.var, &branch, q.body, q.existential, &mut fresh)
            {
                // The first binding range opens the unnested formula;
                // the later ones it may never reach.
                let ranges = branch.bindings[1..]
                    .iter()
                    .map(|(_, r)| r)
                    .filter(|r| is_binding_free(r))
                    .cloned()
                    .collect();
                return SitePlan::Unnested {
                    formula,
                    args,
                    ranges,
                };
            }
        }
        self.plan_event(PlanEvent::QuantDemotion {
            attr: String::new(),
            reason: QuantDemotionReason::NotUnnested,
            range: q.range.to_string(),
            key: String::new(),
        });
        SitePlan::Range { probe: None }
    }

    /// Decide an unnested site. First replay what the reference path
    /// checks and the unnested formula may skip: each selector argument
    /// against its parameter domain, and the evaluation of each later
    /// binding-free binding range. `None` leaves the site to the
    /// reference scan — after a failed check, or an error of the
    /// unnested evaluation, which the scan then raises (or not) exactly
    /// as the reference does. Governed aborts and injected faults are
    /// not evaluation outcomes the scan could reproduce: they propagate.
    fn eval_unnested(
        &mut self,
        formula: &Formula,
        args: &[(ScalarExpr, Domain)],
        ranges: &[RangeExpr],
        bindings: &mut Vec<Binding>,
    ) -> Result<Option<bool>, EvalError> {
        for (arg, domain) in args {
            match self.eval_scalar(arg, bindings) {
                Ok(v) if domain.check(&v).is_ok() => {}
                _ => return Ok(None),
            }
        }
        let depth = bindings.len();
        let decided = (|| {
            for range in ranges {
                self.eval_range(range, bindings)?;
            }
            self.eval_formula(formula, bindings)
        })();
        match decided {
            Ok(decided) => Ok(Some(decided)),
            Err(e @ (EvalError::Solve(_) | EvalError::FaultInjected { .. })) => Err(e),
            Err(_) => {
                bindings.truncate(depth);
                Ok(None)
            }
        }
    }

    /// Try to decide a quantifier through an index existence probe
    /// instead of a scan. `Ok(None)` means "not probe-able — fall back
    /// to the reference scan"; `Ok(Some(b))` is the decided truth value.
    ///
    /// The probe follows the site's [`joinplan::plan_quant_probe`] plan:
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
    /// drop out (leaving a planner trace event), and if none survive the
    /// scan fallback reproduces reference semantics (including error
    /// semantics) exactly. Probes are only attempted where the index
    /// amortises ([`Evaluator::amortises`]); a throwaway index per
    /// evaluation would cost the same pass as the scan it replaces. The
    /// site keeps the index it probed, with the storage id of the
    /// relation it describes, so later outer combinations reuse it
    /// without touching the access cache.
    fn quant_probe(
        &mut self,
        site: usize,
        plan: &joinplan::QuantPlan,
        q: Quantifier<'_>,
        rel: &Relation,
        bindings: &mut Vec<Binding>,
    ) -> Result<Option<bool>, EvalError> {
        if rel.is_empty() || !self.amortises(q.range) {
            return Ok(None);
        }
        let schema = rel.schema();
        let mut positions = Vec::with_capacity(plan.atoms.len());
        let mut key = Vec::with_capacity(plan.atoms.len());
        for (i, atom) in plan.atoms.iter().enumerate() {
            let reason = match schema.position(&atom.attr) {
                // E.g. the range is a selector/set-former view that no
                // longer carries the referenced field.
                Err(_) => QuantDemotionReason::AttrNotInSchema,
                Ok(pos) => match self.eval_scalar(&atom.key, bindings) {
                    Err(_) => QuantDemotionReason::KeyUnresolvable,
                    Ok(v) if value_domain(&v) != schema.domain(pos).base() => {
                        QuantDemotionReason::KeyTypeMismatch
                    }
                    Ok(v) => {
                        positions.push(pos);
                        key.push(v);
                        continue;
                    }
                },
            };
            self.note_demotion(site, i, atom, q.range, reason);
        }
        if positions.is_empty() {
            return Ok(None);
        }
        let id = rel.storage_id();
        let index = match self.sites[site].index.take() {
            Some((built_over, index)) if built_over == id && index.positions() == positions => {
                index
            }
            _ => self.obtain_index(q.range, rel, &positions)?,
        };
        let hits = index.probe_slice(&key);
        let decided = if plan.mode == QuantMode::Covering && hits.len() != rel.len() {
            Ok(false)
        } else {
            self.decide_over(q, schema, hits, bindings)
        };
        self.sites[site].index = Some((id, index));
        decided.map(Some)
    }

    /// Record a demoted probe key once per site, atom and reason —
    /// checked before anything is rendered, since the demotion may
    /// repeat for every outer combination.
    fn note_demotion(
        &mut self,
        site: usize,
        atom_at: usize,
        atom: &joinplan::QuantAtom,
        range: &RangeExpr,
        reason: QuantDemotionReason,
    ) {
        let demoted = &mut self.sites[site].demoted;
        if demoted.contains(&(atom_at, reason)) {
            return;
        }
        demoted.push((atom_at, reason));
        let (range, key) = match reason {
            QuantDemotionReason::AttrNotInSchema => (range.to_string(), String::new()),
            QuantDemotionReason::KeyUnresolvable => (String::new(), atom.key.to_string()),
            _ => (String::new(), String::new()),
        };
        self.plan_event(PlanEvent::QuantDemotion {
            attr: atom.attr.clone(),
            reason,
            range,
            key,
        });
    }

    /// The body over `tuples`, with the quantified variable bound to
    /// each in turn (reusing one binding slot): a body witness decides
    /// `SOME`, a body falsifier decides `ALL`, exhaustion decides the
    /// dual. The reference scan, and the residual pass of every probe.
    fn decide_over<'t>(
        &mut self,
        q: Quantifier<'_>,
        schema: &Schema,
        tuples: impl IntoIterator<Item = &'t Tuple>,
        bindings: &mut Vec<Binding>,
    ) -> Result<bool, EvalError> {
        let slot = bindings.len();
        let mut pushed = false;
        for t in tuples {
            if pushed {
                bindings[slot].tuple = t.clone();
            } else {
                bindings.push(Binding {
                    var: q.var.clone(),
                    tuple: t.clone(),
                    schema: schema.clone(),
                });
                pushed = true;
            }
            match self.eval_formula(q.body, bindings) {
                Err(e) => {
                    bindings.truncate(slot);
                    return Err(e);
                }
                Ok(b) if b == q.existential => {
                    bindings.truncate(slot);
                    return Ok(q.existential);
                }
                Ok(_) => {}
            }
        }
        bindings.truncate(slot);
        Ok(!q.existential)
    }

    /// View a correlated range as one set-former branch, the shape
    /// [`rewrite::unnest_quantifier`] takes: a single-branch set-former
    /// with one or more bindings, or a selector application as
    /// [`rewrite::selected_branch`] rewrites it (with the
    /// per-combination domain checks for the evaluator to replay).
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
                rewrite::selected_branch(def, base, args)
            }
            _ => None,
        }
    }

    /// Run the compiled steps depth-first, then the compiled leaf
    /// ([`Evaluator::emit_compiled`]) on every combination they yield.
    /// Each step reuses one binding slot across its whole iteration (one
    /// `Var`/`Schema` clone per step instead of per combination); probes
    /// touch only bucket matches.
    fn exec_plan(
        &mut self,
        branch: &Branch,
        plan: &CompiledPlan<'_>,
        ranges: &[Relation],
        depth: usize,
        bindings: &mut Vec<Binding>,
        out: &mut Relation,
    ) -> Result<(), EvalError> {
        if depth == plan.steps.len() {
            return self.emit_compiled(&plan.leaf, bindings, out);
        }
        let step = &plan.steps[depth];
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
                    let r = self.exec_plan(branch, plan, ranges, depth + 1, bindings, out);
                    if r.is_err() {
                        bindings.truncate(slot);
                        return r;
                    }
                }
                bindings.truncate(slot);
            }
            CompiledAccess::Probe { keys, .. } | CompiledAccess::Member { keys } => {
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
                        CompiledKey::Fixed(v) => *v,
                        CompiledKey::FromBinding { slot, attr_pos } => {
                            *bindings[*slot].tuple.get(*attr_pos)
                        }
                    });
                }
                let hits = match &step.access {
                    CompiledAccess::Probe { index, .. } => index.probe_slice(&key_vals),
                    _ => rel
                        .as_set()
                        .get(key_vals.as_slice())
                        .map_or(&[][..], std::slice::from_ref),
                };
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
                    let r = self.exec_plan(branch, plan, ranges, depth + 1, bindings, out);
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

    /// The operator loop's leaf: tick the budget, re-check the residual
    /// conjuncts in source order (short-circuiting on the first false),
    /// then emit the target tuple — schema-checked, as on the reference
    /// path.
    fn emit_compiled(
        &mut self,
        leaf: &CompiledLeaf<'_>,
        bindings: &mut Vec<Binding>,
        out: &mut Relation,
    ) -> Result<(), EvalError> {
        if let Some(m) = &self.budget {
            m.tick().map_err(SolveError::from_trip)?;
        }
        for conjunct in &leaf.residual {
            if !self.leaf_formula(conjunct, bindings)? {
                return Ok(());
            }
        }
        let tuple = match &leaf.target {
            LeafTarget::Whole(slot) => bindings[*slot].tuple.clone(),
            LeafTarget::Tuple(exprs) => {
                let mut fields = Vec::with_capacity(exprs.len());
                for e in exprs {
                    fields.push(self.leaf_scalar(e, bindings)?);
                }
                Tuple::new(fields)
            }
        };
        out.insert(tuple)?;
        if let Some(m) = &self.budget {
            m.add_tuples(1).map_err(SolveError::from_trip)?;
        }
        Ok(())
    }

    /// Evaluate a compiled residual conjunct: slot-resolved comparisons
    /// and connectives here, everything else through
    /// [`Evaluator::eval_formula`].
    fn leaf_formula(
        &mut self,
        f: &LeafFormula<'_>,
        bindings: &mut Vec<Binding>,
    ) -> Result<bool, EvalError> {
        match f {
            LeafFormula::Cmp(l, op, r) => {
                let lv = self.leaf_scalar(l, bindings)?;
                let rv = self.leaf_scalar(r, bindings)?;
                compare(&lv, *op, &rv)
            }
            LeafFormula::And(a, b) => {
                Ok(self.leaf_formula(a, bindings)? && self.leaf_formula(b, bindings)?)
            }
            LeafFormula::Or(a, b) => {
                Ok(self.leaf_formula(a, bindings)? || self.leaf_formula(b, bindings)?)
            }
            LeafFormula::Not(inner) => Ok(!self.leaf_formula(inner, bindings)?),
            LeafFormula::Interpreted(f) => self.eval_formula(f, bindings),
        }
    }

    /// Evaluate a compiled scalar: a slot-resolved field is read
    /// straight from its bound tuple, everything else computed as
    /// [`Evaluator::eval_scalar`] would.
    fn leaf_scalar(
        &mut self,
        e: &LeafScalar<'_>,
        bindings: &[Binding],
    ) -> Result<Value, EvalError> {
        Ok(match e {
            LeafScalar::Field { slot, col } => *bindings[*slot].tuple.get(*col),
            LeafScalar::Const(v) => *v,
            LeafScalar::Arith(l, op, r) => {
                let lv = self.leaf_scalar(l, bindings)?;
                let rv = self.leaf_scalar(r, bindings)?;
                arith(&lv, *op, &rv)?
            }
            LeafScalar::Interpreted(e) => self.eval_scalar(e, bindings)?,
        })
    }

    /// Leaf of the reference nested loops: check the full predicate,
    /// then emit the target tuple.
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
        bindings: &[Binding],
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
                for (e, name) in exprs.iter().zip(rewrite::target_names(exprs)) {
                    let domain = self.target_domain(e, branch, ranges, bindings)?;
                    attrs.push(Attribute::new(name, domain));
                }
                Ok(Schema::new(attrs))
            }
        }
    }

    fn target_domain(
        &mut self,
        e: &ScalarExpr,
        branch: &Branch,
        ranges: &[Relation],
        bindings: &[Binding],
    ) -> Result<Domain, EvalError> {
        match e {
            ScalarExpr::Attr(v, attr) => {
                // Prefer the branch's own bindings; fall back to outer
                // bindings (correlated targets).
                let schema = match branch.bindings.iter().position(|(bv, _)| bv == v) {
                    Some(idx) => ranges[idx].schema(),
                    None => &lookup(bindings, v)?.schema,
                };
                Ok(schema.domain(schema.position(attr)?).base())
            }
            ScalarExpr::Const(v) => Ok(value_domain(v)),
            ScalarExpr::Param(p) => Ok(value_domain(&self.resolve_param(p)?)),
            ScalarExpr::Arith(l, _, _) => self.target_domain(l, branch, ranges, bindings),
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
                compare(&lv, *op, &rv)
            }
            Formula::And(a, b) => {
                Ok(self.eval_formula(a, bindings)? && self.eval_formula(b, bindings)?)
            }
            Formula::Or(a, b) => {
                Ok(self.eval_formula(a, bindings)? || self.eval_formula(b, bindings)?)
            }
            Formula::Not(inner) => Ok(!self.eval_formula(inner, bindings)?),
            Formula::Some(var, range, body) | Formula::All(var, range, body) => {
                let q = Quantifier {
                    var,
                    range,
                    body,
                    existential: matches!(f, Formula::Some(..)),
                };
                self.eval_quantifier(q, bindings)
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
        bindings: &[Binding],
    ) -> Result<Value, EvalError> {
        match e {
            ScalarExpr::Const(v) => Ok(*v),
            ScalarExpr::Attr(var, attr) => {
                let b = lookup(bindings, var)?;
                let pos = b.schema.position(attr)?;
                Ok(*b.tuple.get(pos))
            }
            ScalarExpr::Param(p) => self.resolve_param(p),
            ScalarExpr::Arith(l, op, r) => {
                let lv = self.eval_scalar(l, bindings)?;
                let rv = self.eval_scalar(r, bindings)?;
                arith(&lv, *op, &rv)
            }
        }
    }

    fn resolve_param(&self, name: &str) -> Result<Value, EvalError> {
        for frame in self.param_frames.iter().rev() {
            if let Some(v) = frame.get(name) {
                return Ok(*v);
            }
        }
        self.catalog.scalar_param(name)
    }
}

/// One quantifier occurrence: `SOME` (`existential`) or
/// `ALL var IN range: body`.
#[derive(Clone, Copy)]
struct Quantifier<'q> {
    var: &'q Var,
    range: &'q RangeExpr,
    body: &'q Formula,
    existential: bool,
}

/// What the evaluator decided about one quantifier site (keyed by its
/// syntax) on first sight, and what its probes keep between outer
/// combinations.
struct QuantSite {
    var: Var,
    existential: bool,
    range: RangeExpr,
    body: Formula,
    plan: Rc<SitePlan>,
    /// The index the last probe used, with the storage id of the
    /// relation it describes: while the range's value keeps that id, a
    /// probe needs neither the access cache's lock nor its counters.
    index: Option<(u64, Arc<HashIndex>)>,
    /// Demotions already reported: (position in the probe plan's atoms,
    /// reason).
    demoted: Vec<(usize, QuantDemotionReason)>,
}

enum SitePlan {
    /// A correlated range unnested by [`rewrite::unnest_quantifier`]:
    /// the nested quantifiers that decide the site, the selector
    /// arguments with their parameter domains, and the later
    /// binding-free binding ranges — the reference path's checks the
    /// formula may skip, replayed per outer combination.
    Unnested {
        formula: Formula,
        args: Vec<(ScalarExpr, Domain)>,
        ranges: Vec<RangeExpr>,
    },
    /// The range is evaluated and, where its value amortises an index,
    /// probed through `probe`; otherwise scanned.
    Range { probe: Option<joinplan::QuantPlan> },
}

/// A branch lowered for the operator loop: the steps, the probe atoms
/// they realised (which decide their conjuncts, so the leaf skips them),
/// and the leaf itself. Built once per branch evaluation.
struct CompiledPlan<'b> {
    steps: Vec<CompiledStep>,
    realised: Vec<&'b EqAtom>,
    leaf: CompiledLeaf<'b>,
}

/// What the operator loop does per surviving combination: re-check the
/// residual conjuncts, then build the target.
struct CompiledLeaf<'b> {
    residual: Vec<LeafFormula<'b>>,
    target: LeafTarget<'b>,
}

enum LeafTarget<'b> {
    /// `Target::Var`: the tuple bound at this slot, whole.
    Whole(usize),
    Tuple(Vec<LeafScalar<'b>>),
}

/// A residual formula with its comparison operands resolved. Connectives
/// over comparisons compile; everything else — `TRUE`/`FALSE`,
/// quantifiers, membership tests — is evaluated by the interpreter.
enum LeafFormula<'b> {
    Cmp(LeafScalar<'b>, CmpOp, LeafScalar<'b>),
    And(Box<LeafFormula<'b>>, Box<LeafFormula<'b>>),
    Or(Box<LeafFormula<'b>>, Box<LeafFormula<'b>>),
    Not(Box<LeafFormula<'b>>),
    Interpreted(&'b Formula),
}

/// A residual or target scalar with branch-variable attributes resolved.
enum LeafScalar<'b> {
    /// Column `col` of the tuple bound at stack slot `slot`.
    Field {
        slot: usize,
        col: usize,
    },
    Const(Value),
    Arith(Box<LeafScalar<'b>>, ArithOp, Box<LeafScalar<'b>>),
    /// Outer-variable attributes, parameters, and attributes missing
    /// from the range's schema: the interpreter resolves them per row,
    /// and raises exactly the reference path's errors.
    Interpreted(&'b ScalarExpr),
}

/// Where a compiled plan binds each branch variable — the table leaf
/// compilation resolves `var.attr` against.
struct LeafSlots<'c> {
    branch: &'c Branch,
    /// Binding position → stack slot.
    slot_of: &'c [usize],
    ranges: &'c [Relation],
}

impl LeafSlots<'_> {
    /// The slot `lookup` would find `var` at during the leaf: among the
    /// branch bindings so named, the one bound innermost. `None` for an
    /// outer variable.
    fn slot(&self, var: &str) -> Option<usize> {
        self.position(var).map(|p| self.slot_of[p])
    }

    fn position(&self, var: &str) -> Option<usize> {
        (0..self.branch.bindings.len())
            .filter(|&p| self.branch.bindings[p].0 == var)
            .max_by_key(|&p| self.slot_of[p])
    }

    fn scalar<'b>(&self, e: &'b ScalarExpr) -> LeafScalar<'b> {
        match e {
            ScalarExpr::Const(v) => LeafScalar::Const(*v),
            ScalarExpr::Attr(var, attr) => {
                let field = self.position(var).and_then(|p| {
                    let col = self.ranges[p].schema().position(attr).ok()?;
                    Some(LeafScalar::Field {
                        slot: self.slot_of[p],
                        col,
                    })
                });
                field.unwrap_or(LeafScalar::Interpreted(e))
            }
            ScalarExpr::Arith(l, op, r) => {
                LeafScalar::Arith(Box::new(self.scalar(l)), *op, Box::new(self.scalar(r)))
            }
            ScalarExpr::Param(_) => LeafScalar::Interpreted(e),
        }
    }

    fn formula<'b>(&self, f: &'b Formula) -> LeafFormula<'b> {
        match f {
            Formula::Cmp(l, op, r) => LeafFormula::Cmp(self.scalar(l), *op, self.scalar(r)),
            Formula::And(a, b) => {
                LeafFormula::And(Box::new(self.formula(a)), Box::new(self.formula(b)))
            }
            Formula::Or(a, b) => {
                LeafFormula::Or(Box::new(self.formula(a)), Box::new(self.formula(b)))
            }
            Formula::Not(inner) => LeafFormula::Not(Box::new(self.formula(inner))),
            _ => LeafFormula::Interpreted(f),
        }
    }
}

/// `lv op rv`, or the reference path's error for a cross-type pair.
fn compare(lv: &Value, op: CmpOp, rv: &Value) -> Result<bool, EvalError> {
    let ord = lv
        .try_cmp(rv)
        .ok_or_else(|| EvalError::CrossTypeComparison {
            lhs: lv.to_string(),
            rhs: rv.to_string(),
        })?;
    Ok(op.eval(ord))
}

fn arith(lv: &Value, op: ArithOp, rv: &Value) -> Result<Value, EvalError> {
    Ok(match op {
        ArithOp::Add => lv.add(rv)?,
        ArithOp::Sub => lv.sub(rv)?,
        ArithOp::Mul => lv.mul(rv)?,
        ArithOp::Div => lv.div(rv)?,
        ArithOp::Mod => lv.rem(rv)?,
    })
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
    /// Look up the whole tuple assembled from `keys` (one per
    /// attribute, in attribute order) in the range's own tuple set.
    Member { keys: Vec<CompiledKey> },
}

/// Do probe `positions` name every attribute of an `arity`-ary range,
/// each once?
fn is_whole_tuple(positions: &[usize], arity: usize) -> bool {
    let mut sorted = positions.to_vec();
    sorted.sort_unstable();
    sorted.iter().copied().eq(0..arity)
}

/// One component of a probe key.
enum CompiledKey {
    /// Resolved before the loops started (constant, parameter, outer
    /// variable attribute).
    Fixed(Value),
    /// Read from the binding at stack slot `slot`, field `attr_pos`.
    FromBinding { slot: usize, attr_pos: usize },
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
/// and parameters (and therefore safe to cache by syntax)? Scoped as
/// the evaluator evaluates: a branch's binding ranges see none of the
/// branch's own variables.
pub fn is_binding_free(range: &RangeExpr) -> bool {
    rewrite::walk(range, |n, bound| match n {
        Node::Scalar(ScalarExpr::Param(_)) => ControlFlow::Break(()),
        Node::Var(v) if !bound.contains(&v.as_str()) => ControlFlow::Break(()),
        _ => ControlFlow::Continue(()),
    })
    .is_continue()
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
        // value must never be served from the range cache.
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
    fn binding_ranges_see_only_the_enclosing_scope() {
        // {EACH a IN T: SOME z IN {EACH a IN R, EACH b IN S[sel(a.k)]: TRUE} (TRUE)}
        // `S[sel(a.k)]` is evaluated before the inner branch binds its
        // `a`, so it reads the outer one: the inner set-former depends
        // on each outer tuple and must not be served from the cache.
        let ks = |ks: &[i64]| {
            Relation::from_tuples(
                Schema::of(&[("k", Domain::Int)]),
                ks.iter().map(|k| tuple![*k]),
            )
            .unwrap()
        };
        let cat = MapCatalog::new()
            .with_relation("T", ks(&[1, 2]))
            .with_relation("R", ks(&[10]))
            .with_relation("S", ks(&[2]))
            .with_selector(SelectorDef {
                name: "sel".into(),
                element_var: "s".into(),
                params: vec![("K".into(), Domain::Int)],
                predicate: eq(attr("s", "k"), param("K")),
            });
        let inner = set_former(vec![Branch {
            target: Target::Var("a".into()),
            bindings: vec![
                ("a".into(), rel("R")),
                ("b".into(), rel("S").select("sel", vec![attr("a", "k")])),
            ],
            predicate: tru(),
        }]);
        assert!(!is_binding_free(&inner));
        let e = set_former(vec![Branch::each("a", rel("T"), some("z", inner, tru()))]);
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned.sorted_tuples(), vec![tuple![2i64]]);
        assert_eq!(reference.sorted_tuples(), vec![tuple![2i64]]);
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
        // variable `r` — compiled as a Fixed key per outer binding. (A
        // membership test evaluates its range; a quantifier would
        // unnest it.)
        let cat = catalog();
        let inner = set_former(vec![Branch::projecting(
            vec![attr("r", "front"), attr("y", "front")],
            vec![("y".into(), rel("Infront"))],
            eq(attr("y", "front"), attr("r", "back")),
        )]);
        let e = set_former(vec![Branch::each("r", rel("Infront"), member("r", inner))]);
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

    /// No demotion or refusal in the planner trace.
    fn no_demotions(ev: &Evaluator<'_>) -> bool {
        !ev.plan_events().iter().any(PlanEvent::is_demotion)
    }

    #[test]
    fn unnested_some_agrees_with_reference() {
        let cat = scene_catalog();
        let e = correlated_some();
        let mut ev = Evaluator::new(&cat);
        let planned = ev.eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        // Only "table" carries a non-dust item ⇒ the ("table","chair")
        // edge survives... "vase" carries nothing, "chair" only dust.
        assert_eq!(planned.sorted_tuples(), vec![tuple!["table", "chair"]]);
        assert!(no_demotions(&ev), "{:?}", ev.plan_events());
    }

    #[test]
    fn unnested_all_agrees_with_reference() {
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
    fn correlated_selector_application_unnested() {
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
        assert!(no_demotions(&ev), "{:?}", ev.plan_events());
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
    fn quant_probe_demotion_is_a_plan_event() {
        // The quantified range is a set-former view projecting `top`
        // away (the nested-selector shape); the body atom references
        // the missing field, so the probe must demote to the residual
        // scan — with a planner event, not silently.
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
        let events = ev.take_plan_events();
        assert!(
            events.iter().any(|ev| matches!(
                ev,
                PlanEvent::QuantDemotion {
                    attr,
                    reason: QuantDemotionReason::AttrNotInSchema,
                    ..
                } if attr == "top"
            )),
            "expected a demotion event, got {events:?}"
        );
        assert!(ev.plan_events().is_empty(), "take drains the trace");
    }

    #[test]
    fn unnested_error_returns_the_reference_error() {
        // Unnested, `y`'s conjuncts move out in front of `z`'s: the
        // probe on `N.k` finds the tuple with `d = 0` and the division
        // raises. The reference builds the range first and meets the
        // cross-type `z.tag = 1` on its first combination — and that is
        // the error the evaluation must return.
        let nums = Relation::from_tuples(
            Schema::of(&[("k", Domain::Int), ("d", Domain::Int)]),
            vec![tuple![1i64, 0i64]],
        )
        .unwrap();
        let tags =
            Relation::from_tuples(Schema::of(&[("tag", Domain::Str)]), vec![tuple!["x"]]).unwrap();
        let keys =
            Relation::from_tuples(Schema::of(&[("k", Domain::Int)]), vec![tuple![1i64]]).unwrap();
        let cat = MapCatalog::new()
            .with_relation("N", nums)
            .with_relation("Z", tags)
            .with_relation("R", keys);
        let view = set_former(vec![Branch::projecting(
            vec![attr("y", "d")],
            vec![("y".into(), rel("N")), ("z".into(), rel("Z"))],
            eq(attr("z", "tag"), cnst(1i64))
                .and(eq(attr("y", "k"), attr("r", "k")))
                .and(gt(div(cnst(10i64), attr("y", "d")), cnst(0i64))),
        )]);
        let e = set_former(vec![Branch::each("r", rel("R"), some("x", view, tru()))]);
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e);
        assert!(
            matches!(reference, Err(EvalError::CrossTypeComparison { .. })),
            "{reference:?}"
        );
        assert_eq!(Evaluator::new(&cat).eval(&e), reference);
    }

    /// A four-relation catalog for multi-binding correlated views:
    /// `Assign(task, worker)`, `Skill(worker, tool)` and an outer
    /// `Requests(task, tool)`.
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

    /// The join view: workers assigned to `r.task` and skilled on
    /// `r.tool`.
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
    fn multi_binding_view_unnests_into_chained_probes() {
        let cat = staffing_catalog();
        let e = set_former(vec![Branch::each(
            "r",
            rel("Requests"),
            some("x", qualified_view(), tru()),
        )]);
        let metrics = Arc::new(MetricsRegistry::new());
        let mut ev = Evaluator::new(&cat).with_metrics(metrics.clone());
        let planned = ev.eval(&e).unwrap();
        let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
        assert_eq!(planned, reference);
        // t1+hammer (w1), t1+saw (w2), t2+saw is not requested,
        // t2+hammer has no qualified worker, t3+hammer (w3).
        assert_eq!(planned.len(), 3);
        assert!(!planned.contains(&tuple!["t2", "hammer"]));
        assert!(no_demotions(&ev), "{:?}", ev.plan_events());
        // `Assign` probed on `task`, then `Skill` on (`worker`, `tool`).
        assert_eq!(metrics.snapshot().quant_probes, 2);
    }

    #[test]
    fn multi_binding_all_quantifier_unnested() {
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
    fn multi_binding_views_without_a_join_key_or_with_a_correlated_target_unnest() {
        // No local join atom (each binding probed on its own outer key)
        // and an outer column in the target (Case 2 substitutes it into
        // the body): neither materialises anything any more.
        let cat = staffing_catalog();
        let unjoined = set_former(vec![Branch::projecting(
            vec![attr("a", "worker")],
            vec![("a".into(), rel("Assign")), ("s".into(), rel("Skill"))],
            eq(attr("a", "task"), attr("r", "task")).and(eq(attr("s", "tool"), attr("r", "tool"))),
        )]);
        let correlated_target = set_former(vec![Branch::projecting(
            vec![attr("a", "worker"), attr("r", "tool")],
            vec![("a".into(), rel("Assign"))],
            eq(attr("a", "task"), attr("r", "task")),
        )]);
        for (view, body, expected) in [
            (unjoined, ne(attr("x", "worker"), cnst("w1")), 4),
            // Only t1+saw: its task has assigned workers and its own
            // tool is "saw" (the correlated target column).
            (correlated_target, eq(attr("x", "tool"), cnst("saw")), 1),
        ] {
            let e = set_former(vec![Branch::each(
                "r",
                rel("Requests"),
                some("x", view, body),
            )]);
            let mut ev = Evaluator::new(&cat);
            let planned = ev.eval(&e).unwrap();
            let reference = Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap();
            assert_eq!(planned, reference, "{e}");
            assert_eq!(planned.len(), expected, "{e}");
            assert!(no_demotions(&ev), "{:?}", ev.plan_events());
        }
    }

    #[test]
    fn multi_binding_cross_type_joint_key_falls_back_per_combination() {
        // One joint-key component is INTEGER-valued on the outer side
        // while the correlation column is STRING: the probe demotes to
        // the scan, whose comparison raises, and the reference scan of
        // the original quantifier raises the same error.
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
    fn a_site_probes_its_index_without_the_access_cache() {
        // Three outer tuples, one probe each, one index: the first probe
        // builds it through the catalog's cache, the later ones find it
        // in the site's memo and never touch the cache.
        let cat = CachingCatalog::over(scene_catalog());
        let e = correlated_some();
        let planned = Evaluator::new(&cat).eval(&e).unwrap();
        assert_eq!(
            planned,
            Evaluator::new(&cat).force_nested_loop().eval(&e).unwrap()
        );
        let m = cat.metrics.snapshot();
        assert_eq!((m.warm_index_misses, m.warm_index_hits), (1, 0));
        // A second evaluator has its own memo: one cache hit.
        Evaluator::new(&cat).eval(&e).unwrap();
        let m = cat.metrics.snapshot();
        assert_eq!((m.warm_index_misses, m.warm_index_hits), (1, 1));
    }

    #[test]
    fn relation_replaced_under_the_same_name_is_never_served_the_old_entries() {
        // The owner swaps `Ontop` for a different value under the same
        // name (and keeps the cache): a later evaluator must decide the
        // correlated quantifier from the new value — the old value's
        // indexes are keyed by the old storage.
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

    /// The residual of the one access path an evaluation of `e` records.
    fn residual_of(e: &RangeExpr) -> (Result<Relation, EvalError>, String) {
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        let out = ev.eval(e);
        let residuals: Vec<&str> = ev
            .plan_events()
            .iter()
            .filter_map(|ev| match ev {
                PlanEvent::AccessPath { residual, .. } => Some(residual.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(residuals.len(), 1, "{e}");
        (out, residuals[0].to_string())
    }

    #[test]
    fn closure_branch_residual_is_true() {
        // The probe decides `f.back = b.front`: nothing is left per row.
        let (out, residual) = residual_of(&ahead2_expr());
        assert_eq!(out.unwrap().len(), 5);
        assert_eq!(residual, "TRUE");
        let cat = catalog();
        let mut ev = Evaluator::new(&cat);
        ev.eval(&ahead2_expr()).unwrap();
        assert!(ev.plan_events()[0].to_string().contains(" residual TRUE;"));
    }

    #[test]
    fn residual_shows_only_the_undecided_conjunct() {
        let e = set_former(vec![Branch::projecting(
            vec![attr("x", "front"), attr("y", "back")],
            vec![("x".into(), rel("Infront")), ("y".into(), rel("Infront"))],
            eq(attr("x", "back"), attr("y", "front"))
                .and(ne(attr("x", "front"), attr("y", "back"))),
        )]);
        let (out, residual) = residual_of(&e);
        let reference = Evaluator::new(&catalog())
            .force_nested_loop()
            .eval(&e)
            .unwrap();
        assert_eq!(out.unwrap(), reference);
        assert_eq!(residual, "x.front # y.back");
    }

    #[test]
    fn cross_type_demoted_key_reappears_in_the_residual() {
        // `f.front = 1` cannot key a STRING column: the compiled plan
        // demotes it, and the recorded residual says so.
        let e = set_former(vec![Branch::projecting(
            vec![attr("f", "front")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")).and(eq(attr("f", "front"), cnst(1i64))),
        )]);
        let (out, residual) = residual_of(&e);
        assert!(matches!(out, Err(EvalError::CrossTypeComparison { .. })));
        assert_eq!(residual, "f.front = 1");
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
