//! The evaluator for the calculus.
//!
//! Its meaning is the one `dc_bench::oracle` writes down independently:
//! every set-former branch denotes the combinations of its ranges that
//! satisfy its predicate, and every quantifier a scan of its range. The
//! evaluator reaches the same relations and the same errors by cheaper
//! routes, and the differential suites hold it to the oracle:
//!
//! * **Index-nested-loop joins** — branches whose predicates carry
//!   conjunctive equality atoms are executed through
//!   [`crate::joinplan`] plans: one range is scanned, the others are
//!   probed through [`dc_index::HashIndex`]es keyed on the equality
//!   columns, so work is proportional to *matching* combinations rather
//!   than all combinations. Every surviving combination re-checks the
//!   **residual**: the predicate's top-level conjuncts, in source
//!   order, minus those a realised probe key already decided (a key is
//!   realised only when it resolved and matches the probed column's
//!   base type, so its conjunct holds on every probe hit and can never
//!   raise). The answer therefore has the relation and the error of
//!   every combination the cross product evaluates, with one deliberate
//!   divergence, shared with every predicate-pushdown engine: a runtime
//!   error (division by zero, cross-type comparison) hiding in a
//!   conjunct of a combination that an equality key already rejects is
//!   never raised here, because the rejected combination is skipped
//!   outright. Equality atoms themselves never mask their own errors —
//!   keys that cannot be realised safely (type-mismatched,
//!   unresolvable) are demoted back to the residual.
//! * **Quantifier sites** — by §4's N2/N3 a quantifier scans a
//!   one-binding set-former, and each binding-free site is planned once
//!   as that branch (`SiteBranch`): its keys are the branch's equality
//!   atoms, realised per outer combination by a branch step's rule, and
//!   a probe hit re-checks only the branch's residual — so
//!   selector-style predicates cost O(matches) per outer combination
//!   rather than O(|R|), and a site reports its access path once, as a
//!   branch does. A quantifier over a *correlated* range — a
//!   single-branch set-former or a selector application that mentions
//!   the enclosing scope, which a scan
//!   re-evaluates per outer combination — is first unnested by §4's
//!   N2/N3 ([`rewrite::unnest_quantifier`]) into quantifiers over the
//!   range's own binding ranges, which those same probes decide; a
//!   multi-binding *join view* becomes a chain of probes, each level
//!   keyed by the conjuncts its variable completes. A correlated range
//!   left on the scan is recorded in the planner trace
//!   ([`Evaluator::plan_events`]). The divergence policy above
//!   extends unchanged: an error hiding in the body of a tuple the
//!   equality key already rejects is never raised, because that tuple
//!   is skipped outright — and likewise a value-dependent runtime error
//!   in a range predicate, or in a later binding range, on a tuple the
//!   quantifier never needs. Any other error of an unnested evaluation
//!   sends the site to the scan, which decides it; governed aborts and
//!   injected faults propagate.
//! * **One operator loop** — every branch runs `exec_plan`: its probe
//!   plan when some key is realised, the declaration-order all-scan
//!   plan otherwise. Each step binds one fixed slot for the whole run,
//!   overwriting only its tuple, so a combination allocates nothing but
//!   what it emits. Its leaf reads branch-variable attributes, in the
//!   residual and the target, as `(binding slot, column)` pairs, while
//!   outer-variable attributes, parameters, unknown attributes,
//!   quantifiers, and membership tests go through
//!   [`Evaluator::eval_scalar`] / [`Evaluator::eval_formula`] (so their
//!   values and errors are those of the query as written).
//! * **Prepared branches** — a [`PreparedBranch`] keeps what a branch's
//!   syntax decides — its atoms, and the leaf, lowered again only when
//!   the order, the realised keys or the range schemas change — so a
//!   repeated evaluation reruns the order, the keys, the indexes and the
//!   loop alone. A solve prepares each task shape of a branch once and
//!   evaluates it each round with one evaluator
//!   ([`Evaluator::eval_prepared`]); an evaluator prepares each
//!   set-former branch it meets, so a nested set-former evaluated per
//!   outer combination plans its leaf once.

use std::cell::{Cell, OnceCell, RefCell};
use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::Arc;

use dc_governor::fail::{self, Site};
use dc_governor::{Meter, SolveError};
use dc_index::HashIndex;
use dc_relation::Relation;
use dc_value::{Attribute, Domain, FxHashMap, Schema, Tuple, Value};

use dc_trace::metrics::{Counter, MetricsRegistry};
use dc_trace::{Span, SpanKind};

use crate::access::AccessCache;
use crate::ast::{ArithOp, Branch, CmpOp, Formula, RangeExpr, ScalarExpr, SetFormer, Target, Var};
use crate::env::Catalog;
use crate::error::EvalError;
use crate::joinplan::{self, Access, BranchPlan, EqAtom, KeySource};
use crate::plan_event::PlanEvent;
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

/// The planned evaluator of the calculus (see the [module docs](self)).
///
/// An `Evaluator` keeps two kinds of state. What it derived from syntax
/// alone — each quantifier site's plan, each set-former branch's
/// [`PreparedBranch`] — lasts as long as it does. What
/// it read from values — binding-free range values (e.g. a base
/// relation referenced inside a quantifier), realised site keys, index
/// handles — lasts until [`Evaluator::forget_values`]. A one-shot query
/// gets a fresh evaluator; a solve keeps one for all its round tasks
/// and forgets the values between tasks, whose relations change.
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
    /// The compiled leaf's target-field buffer, reused across emitted
    /// tuples: each tuple is then one allocation, its `Arc`.
    leaf_scratch: Vec<Value>,
    /// Tuples the executor leaves emitted: a solve's work count when no
    /// budget meter is armed to count them.
    emitted: u64,
    /// The armed budget governing this evaluation, if any: ticked at
    /// the executor leaves, with emitted tuples counted against its
    /// ceiling.
    budget: Option<Meter>,
    /// Typed planner trace: one access-path event per planned branch
    /// and quantifier site, each distinct `NotUnnested` once.
    plan_events: Vec<PlanEvent>,
    /// Whether access paths are rendered into `plan_events` at all.
    explaining: bool,
    /// Each set-former branch evaluated so far, prepared on first sight
    /// ([`PreparedBranch`]): a nested set-former evaluated per outer
    /// combination reuses its atoms and leaf, and counts and reports
    /// once. A linear scan, as for `sites`.
    branches: Vec<Rc<PreparedBranch>>,
    /// Metrics registry to count planner decisions into, if the owner
    /// (database, solver, session) threads one through.
    metrics: Option<std::sync::Arc<MetricsRegistry>>,
}

/// The planner trace still held when an evaluator drops becomes `plan`
/// trace events, under the span open on the dropping thread: a one-shot
/// evaluation's events. A solver round takes its tasks' events first,
/// and reports each decision once per solve.
impl Drop for Evaluator<'_> {
    fn drop(&mut self) {
        for ev in &self.plan_events {
            dc_trace::event(SpanKind::Plan, || (ev.to_string(), Vec::new()));
        }
    }
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
            leaf_scratch: Vec::new(),
            emitted: 0,
            budget: None,
            plan_events: Vec::new(),
            explaining: true,
            branches: Vec::new(),
            metrics: None,
        }
    }

    /// Render access paths into the planner trace (the default), or —
    /// for an evaluation whose trace nobody reads — record only the
    /// correlated ranges left unnested.
    pub fn explaining(mut self, on: bool) -> Evaluator<'a> {
        self.explaining = on;
        self
    }

    /// Drop everything read from values: cached range values, the
    /// indexes built over them, each quantifier site's last keys and
    /// index. What was derived from syntax stays. A solve calls this
    /// between round tasks, whose relations differ.
    pub fn forget_values(&mut self) {
        if !self.range_cache.is_empty() {
            self.range_cache.clear();
            self.private.retain(&[]);
        }
        for site in &mut self.sites {
            site.index = None;
        }
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

    /// Count planner decisions (the probe or scan plan of each branch
    /// and quantifier site) into `metrics`. The owner —
    /// database, solver task, session — threads its registry through
    /// so the counts land in one place regardless of which evaluator
    /// did the planning.
    pub fn with_metrics(mut self, metrics: std::sync::Arc<MetricsRegistry>) -> Evaluator<'a> {
        self.metrics = Some(metrics);
        self
    }

    /// Tuples the executor leaves have emitted so far (duplicates
    /// included) — what a budget meter would count against its ceiling.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The typed planner trace, in first-occurrence order: one
    /// [`PlanEvent::AccessPath`] per planned branch and quantifier site
    /// (a branch's again whenever its path changes), and each
    /// distinct [`PlanEvent::NotUnnested`] once.
    pub fn plan_events(&self) -> &[PlanEvent] {
        &self.plan_events
    }

    /// Drain the typed planner trace — see [`Evaluator::plan_events`] —
    /// so the evaluator does not emit it when it drops. What it drained
    /// is not recorded again.
    pub fn take_plan_events(&mut self) -> Vec<PlanEvent> {
        std::mem::take(&mut self.plan_events)
    }

    /// Record an event — once per distinct value.
    fn plan_event(&mut self, ev: PlanEvent) {
        if !self.plan_events.contains(&ev) {
            self.plan_events.push(ev);
        }
    }

    /// Count one planned branch (a set-former's or a quantifier site's)
    /// into `probe_plans`, or into `scan_plans` when no key realised.
    fn count_plan(&self, probes: bool) {
        if let Some(m) = &self.metrics {
            m.inc(if probes {
                Counter::ProbePlans
            } else {
                Counter::ScanPlans
            });
        }
    }

    /// Record the access path chosen for one planned branch. The
    /// `realised` atoms put demoted keys in the residual and make it a
    /// probe plan or a scan plan; `known` answers distinct counts only
    /// from what the plan holds — nothing is built to render them.
    fn note_access_path(
        &mut self,
        branch: &Branch,
        plan: &BranchPlan,
        realised: &[&EqAtom],
        schemas: &[&Schema],
        cards: &[usize],
        known: impl Fn(usize, usize) -> Option<usize>,
    ) {
        let cards: Vec<Option<usize>> = cards.iter().copied().map(Some).collect();
        self.plan_events.push(PlanEvent::access_path_for(
            branch,
            plan,
            Some(realised),
            schemas,
            &cards,
            known,
        ));
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
        Ok(self.eval_held(range, bindings)?.0)
    }

    /// Evaluate `range` under `bindings`, with where the indexes over
    /// its value are kept ([`IndexHome`]), decided here, where the value
    /// is produced.
    fn eval_held(
        &mut self,
        range: &RangeExpr,
        bindings: &mut Vec<Binding>,
    ) -> Result<(Relation, IndexHome), EvalError> {
        let cacheable = self.param_frames.is_empty() && is_binding_free(range);
        let home = match range {
            RangeExpr::Rel(_) => IndexHome::Catalog,
            _ if cacheable => IndexHome::Private,
            _ => IndexHome::Nowhere,
        };
        if cacheable {
            if let Some(hit) = self.range_cache.get(range) {
                return Ok((hit.clone(), home));
            }
        }
        let out = self.eval_range_uncached(range, bindings)?;
        if cacheable {
            self.range_cache.insert(range.clone(), out.clone());
        }
        Ok((out, home))
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
        // element variable is visible, plus catalog relations — not the
        // formals of a constructor body it is applied in.
        let body_scope = self.catalog;
        self.catalog = body_scope.selector_scope().unwrap_or(body_scope);
        let mut inner = Vec::with_capacity(1);
        let mut out = Relation::new(base.schema().clone());
        let result: Result<(), EvalError> = (|| {
            for t in base.iter() {
                bind(&mut inner, 0, &def.element_var, base.schema(), t);
                if self.eval_formula(&def.predicate, &mut inner)? {
                    out.insert_unchecked(t.clone())?;
                }
            }
            Ok(())
        })();
        self.param_frames.pop();
        self.catalog = body_scope;
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
            let ranges = (branch.bindings.iter())
                .map(|(_, r)| self.eval_held(r, bindings))
                .collect::<Result<Ranges, _>>()?;
            let schema = self.branch_schema(branch, &ranges.rels, bindings)?;
            let prepared = self.prepared(branch);
            match &mut result {
                // The first branch's output *is* the result so far.
                None => {
                    let mut out = Relation::new(schema);
                    self.eval_branch(&prepared, &ranges, bindings, &mut out, None)?;
                    result = Some(out);
                }
                // Later branches emit under their own schema into a
                // relation of their own, relabelled under the result's —
                // which checks the domains its columns narrow — so key
                // conflicts with earlier branches surface at the union,
                // as on every path.
                Some(rel) => {
                    if !rel.schema().union_compatible(&schema) {
                        return Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
                            context: "set-former branches are not union-compatible".into(),
                        }));
                    }
                    let mut scratch = Relation::new(schema);
                    self.eval_branch(&prepared, &ranges, bindings, &mut scratch, None)?;
                    dc_relation::algebra::union_into(rel, &scratch.relabel(rel.schema())?)?;
                }
            }
        }
        // The empty-branches guard above filled `result` on the first
        // iteration; report rather than panic if that ever changes.
        result.ok_or_else(|| EvalError::Other("set former produced no result relation".into()))
    }

    /// The prepared form of a set-former branch, made on first sight.
    fn prepared(&mut self, branch: &Branch) -> Rc<PreparedBranch> {
        let known = self.branches.iter().find(|p| *p.branch == *branch);
        known.cloned().unwrap_or_else(|| {
            let prepared = Rc::new(PreparedBranch::new(branch.clone()));
            self.branches.push(prepared.clone());
            prepared
        })
    }

    /// Evaluate a prepared branch as the closed query `{branch}` (a
    /// solver's round task), with the relations `supplied` by binding
    /// position in place of those positions' ranges. Only what depends
    /// on the relations reruns: the order, the keys, the indexes and the
    /// operator loop, timed into `span` as `plan_us` and `run_us`. A
    /// supplied relation keeps its indexes in the catalog owner's cache,
    /// as a named range does; a named range is read straight from the
    /// catalog: the task's values are forgotten after it anyway.
    pub fn eval_prepared(
        &mut self,
        prepared: &PreparedBranch,
        supplied: &[(usize, Relation)],
        span: &mut Span,
    ) -> Result<Relation, EvalError> {
        let branch = &*prepared.branch;
        let mut bindings = Vec::new();
        let supplied = |p: usize| supplied.iter().find(|(q, _)| *q == p).map(|(_, rel)| rel);
        let ranges = (branch.bindings.iter().enumerate())
            .map(|(p, (_, r))| match (supplied(p), r) {
                (Some(rel), _) => Ok((rel.clone(), IndexHome::Catalog)),
                (None, RangeExpr::Rel(n)) => Ok((self.catalog.relation(n)?, IndexHome::Catalog)),
                (None, r) => self.eval_held(r, &mut bindings),
            })
            .collect::<Result<Ranges, _>>()?;
        let schema = match prepared.schema.get() {
            Some(schema) => schema.clone(),
            None => {
                let schema = self.branch_schema(branch, &ranges.rels, &bindings)?;
                prepared.schema.get_or_init(|| schema).clone()
            }
        };
        let mut out = Relation::new(schema);
        self.eval_branch(prepared, &ranges, &mut bindings, &mut out, Some(span))?;
        Ok(out)
    }

    /// Evaluate one branch into `out`, under the branch's own schema: an
    /// index-nested-loop plan when the predicate offers
    /// equality atoms some probe realises, the declaration-order scan
    /// plan otherwise — both through the one operator loop
    /// ([`Evaluator::exec_plan`]) and its compiled leaf. A plan with
    /// atoms counts the first time its branch is planned, and, while
    /// explaining, records its access path whenever its leaf is lowered
    /// anew: the first time, and when the path changed.
    fn eval_branch(
        &mut self,
        prepared: &PreparedBranch,
        held: &Ranges,
        bindings: &mut Vec<Binding>,
        out: &mut Relation,
        mut span: Option<&mut Span>,
    ) -> Result<(), EvalError> {
        let (branch, atoms) = (&*prepared.branch, &prepared.atoms);
        let ranges = &held.rels[..];
        let mut lap = |key: &'static str| span.as_mut().map_or((), |s| s.lap(key));
        // Zero combinations: nothing to emit.
        if ranges.iter().any(Relation::is_empty) && !branch.bindings.is_empty() {
            lap("plan_us");
            lap("run_us");
            return Ok(());
        }
        let schemas: Vec<&Schema> = ranges.iter().map(Relation::schema).collect();
        let cards: Vec<usize> = ranges.iter().map(Relation::len).collect();
        // The planner asks for a distinct count only where a decision
        // reads it; the answer is a bucket count. Atom-free: all scans.
        let mut failed = None;
        let (plan, asked) = joinplan::plan_branch(branch, atoms, &schemas, &cards, |p, column| {
            self.distinct_count(held.homes[p], &ranges[p], column)
                .map_err(|e| failed.get_or_insert(e))
                .ok()
        });
        if let Some(e) = failed {
            return Err(e);
        }
        let mut probed = None;
        if !atoms.is_empty() {
            let probes = self.compile_steps(branch, &plan, held, bindings)?;
            if !prepared.counted.replace(true) {
                self.count_plan(!probes.realised.is_empty());
            }
            probed = Some(probes);
        }
        let all_scans = BranchPlan::all_scans(cards.len());
        let scans;
        let compiled = match &probed {
            Some(probes) if !probes.realised.is_empty() => probes,
            _ => {
                scans = self.compile_steps(branch, &all_scans, held, bindings)?;
                &scans
            }
        };
        let (leaf, lowered) =
            prepared.leaf(&compiled.slot_of, &compiled.realised, &schemas, || {
                lower_leaf(branch, &compiled.slot_of, ranges, &compiled.realised)
            })?;
        if let Some(probes) = probed.as_ref().filter(|_| self.explaining && lowered) {
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
                    .or_else(|| probes.steps.iter().find_map(held))
            };
            self.note_access_path(branch, &plan, &probes.realised, &schemas, &cards, known);
        }
        lap("plan_us");
        let plan = (&compiled.steps[..], &*leaf, leaf.checked);
        let base = bindings.len();
        let run = self.exec_plan(branch, plan, ranges, base, bindings, out);
        bindings.truncate(base);
        run?;
        lap("run_us");
        Ok(())
    }

    /// Lower a logical plan's steps: resolve attribute positions, realise
    /// keys (free ones by [`Evaluator::realise_free_key`]), bind probe
    /// indexes. An atom that cannot be realised safely — an unknown
    /// attribute, an unresolvable key, a key whose base type differs
    /// from the probed column's — is demoted back to the residual
    /// predicate, which the leaf ([`lower_leaf`]) re-checks. The only
    /// error channel is index acquisition (a governed abort or an
    /// injected fault).
    fn compile_steps<'b>(
        &mut self,
        branch: &Branch,
        plan: &'b BranchPlan,
        held: &Ranges,
        bindings: &[Binding],
    ) -> Result<CompiledSteps<'b>, EvalError> {
        let ranges = &held.rels[..];
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
                        let (probed_pos, key) = match &atom.source {
                            KeySource::Free(expr) => {
                                let Some((probed_pos, v)) =
                                    self.realise_free_key(schema, &atom.attr, expr, bindings)
                                else {
                                    continue;
                                };
                                (probed_pos, CompiledKey::Fixed(v))
                            }
                            KeySource::Binding { position, attr } => {
                                let Ok(probed_pos) = schema.position(&atom.attr) else {
                                    continue;
                                };
                                let source_schema = ranges[*position].schema();
                                let Ok(source_pos) = source_schema.position(attr) else {
                                    continue;
                                };
                                if source_schema.domain(source_pos).base()
                                    != schema.domain(probed_pos).base()
                                {
                                    continue;
                                }
                                let key = CompiledKey::FromBinding {
                                    slot: slot_of[*position],
                                    attr_pos: source_pos,
                                };
                                (probed_pos, key)
                            }
                        };
                        positions.push(probed_pos);
                        keys.push(key);
                        realised.push(atom);
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
                            held.homes[step.position],
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
        Ok(CompiledSteps {
            steps,
            realised,
            slot_of,
        })
    }

    /// Realise a free probe key (a constant, parameter or outer
    /// attribute) on column `attr` of `schema` — the rule for branch
    /// steps and quantifier sites alike: `None` unless the attribute is
    /// in the schema, the key evaluates, and its base type is the
    /// column's (else hash equality and `=` part). A realised key's
    /// conjunct holds on every hit and cannot raise.
    fn realise_free_key(
        &mut self,
        schema: &Schema,
        attr: &str,
        key: &ScalarExpr,
        bindings: &[Binding],
    ) -> Option<(usize, Value)> {
        let column = schema.position(attr).ok()?;
        let v = self.eval_scalar(key, bindings).ok()?;
        (value_domain(&v) == schema.domain(column).base()).then_some((column, v))
    }

    /// Find or build a hash index over `rel` on `positions`: through
    /// the cache at `home` where its indexes are kept, a throwaway
    /// otherwise (still one O(|rel|) pass — the same cost as the single
    /// scan it replaces). Fallible only through the `index_build`
    /// failpoint; the build itself cannot fail.
    fn obtain_index(
        &self,
        home: IndexHome,
        rel: &Relation,
        positions: &[usize],
    ) -> Result<Arc<HashIndex>, EvalError> {
        let cache = match home {
            IndexHome::Catalog => self.catalog.access().unwrap_or(&self.private),
            IndexHome::Private => &self.private,
            IndexHome::Nowhere => {
                fail::check(Site::IndexBuild)?;
                return Ok(Arc::new(HashIndex::build(rel, positions.to_vec())));
            }
        };
        Ok(cache.index(rel, positions)?)
    }

    /// The distinct-value count of `column` in `rel`: the bucket count
    /// of its single-column index, obtained as
    /// [`Evaluator::obtain_index`] obtains any. Where the index is kept,
    /// a plan that then probes the column reuses it, and a maintained
    /// value's count is read, not recounted.
    fn distinct_count(
        &self,
        home: IndexHome,
        rel: &Relation,
        column: usize,
    ) -> Result<usize, EvalError> {
        Ok(self.obtain_index(home, rel, &[column])?.distinct_keys())
    }

    /// Decide `SOME`/`ALL var IN range: body`. The site's plan
    /// ([`Evaluator::plan_site`]) goes first — the unnested form of a
    /// correlated range, or the probe of its one-binding branch — and
    /// whatever it leaves undecided goes to the scan.
    fn eval_quantifier(
        &mut self,
        q: Quantifier<'_>,
        bindings: &mut Vec<Binding>,
    ) -> Result<bool, EvalError> {
        let site = self.quant_site(q);
        let plan = self.sites[site].plan.clone();
        if let SitePlan::Unnested {
            formula,
            args,
            ranges,
        } = &*plan
        {
            if let Some(decided) = self.eval_unnested(formula, args, ranges, bindings)? {
                return Ok(decided);
            }
        }
        let (rel, home) = self.eval_held(q.range, bindings)?;
        if let SitePlan::Branch(probe) = &*plan {
            if let Some(decided) = self.quant_probe(site, probe, q, (&rel, home), bindings)? {
                return Ok(decided);
            }
        }
        // The scan: a witness decides `SOME`, a falsifier `ALL`.
        let found = self.any_over(
            q.var,
            rel.schema(),
            rel.iter(),
            q.body,
            q.existential,
            bindings,
        )?;
        Ok(found == q.existential)
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
                keys: Default::default(),
            });
            self.sites.len() - 1
        })
    }

    /// Plan one quantifier site. A *correlated* range — one that
    /// mentions the enclosing scope, so a scan re-evaluates
    /// it per outer combination — is unnested when it is a single-branch
    /// set-former or a selector application
    /// ([`Evaluator::as_correlated_branch`], then
    /// [`rewrite::unnest_quantifier`] over fresh `Δ`-prefixed variables,
    /// which the lexer cannot produce); any other correlated range stays
    /// on the scan and says so. Every other range is planned as its
    /// one-binding branch ([`SiteBranch::plan`]).
    fn plan_site(&mut self, q: Quantifier<'_>) -> SitePlan {
        if is_binding_free(q.range) {
            return SiteBranch::plan(q).map_or(SitePlan::Scan, SitePlan::Branch);
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
        self.plan_event(PlanEvent::NotUnnested {
            range: q.range.to_string(),
        });
        SitePlan::Scan
    }

    /// Decide an unnested site. First replay what the query as written
    /// checks and the unnested formula may skip: each selector argument
    /// against its parameter domain, and the evaluation of each later
    /// binding-free binding range. `None` leaves the site to the scan —
    /// after a failed check, or an error of the unnested evaluation,
    /// which the scan then raises (or not) exactly as the query as
    /// written does. Governed aborts and injected faults are
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

    /// Decide a site through its one-binding branch: realise its keys,
    /// reuse its index (kept with the storage id of the relation it
    /// describes, so no access-cache lookup), probe, and check each hit
    /// against the residual — the whole predicate if a key demoted; a
    /// `TRUE` residual binds nothing, the bucket decides. `Ok(None)` —
    /// no key realised, or a range whose indexes are kept nowhere
    /// ([`IndexHome::Nowhere`]) — leaves the site to the scan.
    /// The first non-empty range counts the site's plan and, while
    /// explaining, records its access path.
    fn quant_probe(
        &mut self,
        site: usize,
        probe: &SiteBranch,
        q: Quantifier<'_>,
        (rel, home): (&Relation, IndexHome),
        bindings: &mut Vec<Binding>,
    ) -> Result<Option<bool>, EvalError> {
        if rel.is_empty() {
            return Ok(None);
        }
        let schema = rel.schema();
        let count = !probe.prepared.counted.get();
        let report = count && self.explaining;
        let mut realised = Vec::new();
        let (mut columns, mut values) = std::mem::take(&mut self.sites[site].keys);
        columns.clear();
        values.clear();
        let atoms = if home != IndexHome::Nowhere {
            &probe.prepared.atoms[..]
        } else {
            &[]
        };
        for atom in atoms {
            let KeySource::Free(key) = &atom.source else {
                continue;
            };
            if let Some((column, v)) = self.realise_free_key(schema, &atom.attr, key, bindings) {
                columns.push(column);
                values.push(v);
                if report {
                    realised.push(atom);
                }
            }
        }
        let id = rel.storage_id();
        let index = if columns.is_empty() {
            None
        } else {
            Some(match self.sites[site].index.take() {
                Some((over, index)) if over == id && index.positions() == columns => index,
                _ => self.obtain_index(home, rel, &columns)?,
            })
        };
        if count {
            probe.prepared.counted.set(true);
            self.count_plan(!columns.is_empty());
        }
        if report {
            let (schemas, cards) = ([schema], [rel.len()]);
            let (branch, atoms) = (&*probe.prepared.branch, &probe.prepared.atoms);
            let (plan, _) = joinplan::plan_branch(branch, atoms, &schemas, &cards, |_, _| None);
            let known = |_, column| {
                let index = index.as_deref().filter(|i| i.positions() == [column]);
                index.map(HashIndex::distinct_keys)
            };
            self.note_access_path(branch, &plan, &realised, &schemas, &cards, known);
        }
        let Some(index) = index else {
            self.sites[site].keys = (columns, values);
            return Ok(None);
        };
        let hits = index.probe_slice(&values);
        let check = if columns.len() == probe.prepared.atoms.len() {
            &probe.residual
        } else {
            &probe.prepared.branch.predicate
        };
        // `found`: a witness, a counterexample in the falsifier's bucket,
        // or — covering — a hit failing the check or a tuple outside.
        let found = match probe.mode {
            QuantMode::Covering if hits.len() != rel.len() => Ok(true),
            // A `TRUE` check holds on every hit: the bucket decides.
            mode if *check == Formula::True => Ok(mode != QuantMode::Covering && !hits.is_empty()),
            mode => self.any_over(
                q.var,
                schema,
                hits,
                check,
                mode != QuantMode::Covering,
                bindings,
            ),
        };
        self.sites[site].keys = (columns, values);
        self.sites[site].index = Some((id, index));
        Ok(Some(found? == (probe.mode == QuantMode::Witness)))
    }

    /// Is there a tuple among `tuples`, bound to `var` in turn (reusing
    /// one binding slot), on which `check` comes out `holds`? The scan
    /// of a quantifier, and the residual pass of every probe.
    fn any_over<'t>(
        &mut self,
        var: &Var,
        schema: &Schema,
        tuples: impl IntoIterator<Item = &'t Tuple>,
        check: &Formula,
        holds: bool,
        bindings: &mut Vec<Binding>,
    ) -> Result<bool, EvalError> {
        let slot = bindings.len();
        for t in tuples {
            bind(bindings, slot, var, schema, t);
            match self.eval_formula(check, bindings) {
                Ok(b) if b != holds => {}
                found => {
                    bindings.truncate(slot);
                    return found.map(|_| true);
                }
            }
        }
        bindings.truncate(slot);
        Ok(false)
    }

    /// View a correlated range as one set-former branch, the shape
    /// [`rewrite::unnest_quantifier`] takes: a single-branch set-former
    /// with one or more bindings, or a selector application as
    /// [`rewrite::selected_branch`] rewrites it (with the
    /// per-combination domain checks for the evaluator to replay) —
    /// except inside a constructor body, where the inlined predicate
    /// would read the body's formals instead of the catalog.
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
            } if self.catalog.selector_scope().is_none() => {
                let def = self.catalog.selector(selector).ok()?;
                rewrite::selected_branch(def, base, args)
            }
            _ => None,
        }
    }

    /// Run the compiled steps depth-first, then the compiled leaf
    /// ([`Evaluator::emit_compiled`]) on every combination they yield.
    /// Step `d` of a run from binding slot `base` binds the fixed slot
    /// `base + d`, the numbering [`Evaluator::compile_steps`] resolved
    /// keys and leaf fields by: the slot is pushed the first time its
    /// step yields a tuple, only its tuple is overwritten after that,
    /// and the caller truncates the slots once, when the run ends or
    /// fails. Probes touch only bucket matches.
    fn exec_plan(
        &mut self,
        branch: &Branch,
        plan: (&[CompiledStep], &CompiledLeaf, bool),
        ranges: &[Relation],
        slot: usize,
        bindings: &mut Vec<Binding>,
        out: &mut Relation,
    ) -> Result<(), EvalError> {
        let (steps, leaf, checked) = plan;
        let Some((step, rest)) = steps.split_first() else {
            return self.emit_compiled(leaf, checked, bindings, out);
        };
        let (var, _) = &branch.bindings[step.position];
        let rel = &ranges[step.position];
        let mut each = |this: &mut Self, bindings: &mut Vec<Binding>, t: &Tuple| {
            bind(bindings, slot, var, rel.schema(), t);
            this.exec_plan(
                branch,
                (rest, leaf, checked),
                ranges,
                slot + 1,
                bindings,
                out,
            )
        };
        match &step.access {
            CompiledAccess::Scan => {
                for t in rel.iter() {
                    each(self, bindings, t)?;
                }
            }
            CompiledAccess::Probe { keys, .. } | CompiledAccess::Member { keys } => {
                // Reuse one key buffer per binding slot across all of
                // this step's invocations — no allocation per probe
                // (value clones are `Arc` bumps / plain copies).
                if self.probe_scratch.len() <= slot {
                    self.probe_scratch.resize_with(slot + 1, Vec::new);
                }
                let mut key_vals = std::mem::take(&mut self.probe_scratch[slot]);
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
                self.probe_scratch[slot] = key_vals;
                for t in hits {
                    each(self, bindings, t)?;
                }
            }
        }
        Ok(())
    }

    /// The operator loop's leaf: tick the budget, re-check the residual
    /// conjuncts in source order (short-circuiting on the first false),
    /// then emit the target tuple — schema-checked only when `checked`:
    /// under the branch's own schema, a whole bound tuple, a column read
    /// and a constant are in the domain the schema took from them.
    fn emit_compiled(
        &mut self,
        leaf: &CompiledLeaf,
        checked: bool,
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
                let mut fields = std::mem::take(&mut self.leaf_scratch);
                fields.clear();
                for e in exprs {
                    fields.push(self.leaf_scalar(e, bindings)?);
                }
                let tuple = Tuple::from_slice(&fields);
                self.leaf_scratch = fields;
                tuple
            }
        };
        if checked {
            out.insert(tuple)?;
        } else {
            out.insert_unchecked(tuple)?;
        }
        self.emitted += 1;
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
        f: &LeafFormula,
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
    fn leaf_scalar(&mut self, e: &LeafScalar, bindings: &[Binding]) -> Result<Value, EvalError> {
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
    /// The last probe's key columns and values, buffers the next reuses.
    keys: (Vec<usize>, Vec<Value>),
}

enum SitePlan {
    /// A correlated range unnested by [`rewrite::unnest_quantifier`]:
    /// the nested quantifiers that decide the site, the selector
    /// arguments with their parameter domains, and the later
    /// binding-free binding ranges — the as-written checks the
    /// formula may skip, replayed per outer combination.
    Unnested {
        formula: Formula,
        args: Vec<(ScalarExpr, Domain)>,
        ranges: Vec<RangeExpr>,
    },
    /// A binding-free range with equality keys, decided through its
    /// one-binding branch.
    Branch(SiteBranch),
    /// The range is evaluated and scanned.
    Scan,
}

/// Which one-binding branch a site probes, and so what a hit means.
#[derive(Clone, Copy, PartialEq, Eq)]
enum QuantMode {
    /// `SOME`, branch `nnf(body)`: a hit passing the check is a witness.
    Witness,
    /// `ALL`, branch `nnf(NOT body)`: a hit passing the check is a
    /// counterexample, and a tuple outside the bucket is none.
    Falsifier,
    /// `ALL`, branch `nnf(body)`: a tuple outside the bucket, or a hit
    /// failing the check, is a counterexample.
    Covering,
}

/// A binding-free quantifier site as the one-binding branch §4's N2/N3
/// scan, `{EACH var IN range: …}`, prepared — its equality atoms are the
/// probe keys — with the conjunction of its residual conjuncts
/// ([`joinplan::residual_conjuncts`]), in source order.
struct SiteBranch {
    mode: QuantMode,
    prepared: PreparedBranch,
    residual: Formula,
}

impl SiteBranch {
    /// Plan `SOME var IN range (body)` as `{EACH var IN range:
    /// nnf(body)}`, and `ALL` as its falsifier `{EACH var IN range:
    /// nnf(NOT body)}` — or, when that has no equality atom, as the
    /// body's own branch under the covering check. `None` when the
    /// branch has no equality atom: the site scans.
    fn plan(q: Quantifier<'_>) -> Option<SiteBranch> {
        let planned = |predicate: Formula| {
            let branch = Branch::each(q.var.clone(), q.range.clone(), rewrite::to_nnf(predicate));
            Some(PreparedBranch::new(branch)).filter(|p| !p.atoms.is_empty())
        };
        let (mode, prepared) = if q.existential {
            (QuantMode::Witness, planned(q.body.clone())?)
        } else if let Some(falsifier) = planned(q.body.clone().negate()) {
            (QuantMode::Falsifier, falsifier)
        } else {
            (QuantMode::Covering, planned(q.body.clone())?)
        };
        let all: Vec<&EqAtom> = prepared.atoms.iter().collect();
        // Not `Formula::and`, whose `FALSE` absorbs a conjunct's error.
        let residual = joinplan::residual_conjuncts(&prepared.branch, &all)
            .into_iter()
            .cloned()
            .reduce(|a, b| Formula::And(Box::new(a), Box::new(b)))
            .unwrap_or(Formula::True);
        Some(SiteBranch {
            mode,
            prepared,
            residual,
        })
    }
}

/// A branch prepared for repeated evaluation — a solver's task shape, a
/// set-former branch or quantifier site an evaluator met before: its
/// equality atoms, and from its first evaluation its last lowered leaf
/// (with the slots, realised atoms and range schemas it was lowered
/// for), whether its plan is counted, and — as a solver's closed query
/// — its output schema. All of it is keyed by syntax: the relations may
/// change.
pub struct PreparedBranch {
    branch: Arc<Branch>,
    atoms: Vec<EqAtom>,
    schema: OnceCell<Schema>,
    leaf: RefCell<Option<Lowered>>,
    counted: Cell<bool>,
}

/// A lowered leaf, with the slots, realised atoms and range schemas it
/// was lowered for.
type Lowered = (Vec<usize>, Vec<EqAtom>, Vec<Schema>, Rc<CompiledLeaf>);

impl PreparedBranch {
    /// Prepare `branch`: extract its equality atoms once.
    pub fn new(branch: Branch) -> PreparedBranch {
        PreparedBranch {
            atoms: joinplan::extract_eq_atoms(&branch),
            branch: Arc::new(branch),
            schema: OnceCell::new(),
            leaf: RefCell::new(None),
            counted: Cell::new(false),
        }
    }

    /// The leaf for these slots, realised atoms and range schemas — the
    /// last one, or a new one from `lower` — and whether it is new.
    fn leaf(
        &self,
        slot_of: &[usize],
        realised: &[&EqAtom],
        schemas: &[&Schema],
        lower: impl FnOnce() -> Result<CompiledLeaf, EvalError>,
    ) -> Result<(Rc<CompiledLeaf>, bool), EvalError> {
        let mut memo = self.leaf.borrow_mut();
        if let Some((slots, atoms, over, leaf)) = &*memo {
            if slots == slot_of
                && atoms.iter().eq(realised.iter().copied())
                && over.iter().eq(schemas.iter().copied())
            {
                return Ok((leaf.clone(), false));
            }
        }
        let leaf = Rc::new(lower()?);
        let atoms = realised.iter().map(|a| (*a).clone()).collect();
        let over = schemas.iter().map(|s| (*s).clone()).collect();
        *memo = Some((slot_of.to_vec(), atoms, over, leaf.clone()));
        Ok((leaf, true))
    }
}

/// Where the indexes over a range's value are kept, so that they are
/// built once per storage wherever the storage is met again.
#[derive(Clone, Copy, PartialEq, Eq)]
enum IndexHome {
    /// The catalog owner's cache, which outlives the evaluator (the
    /// private one when the catalog offers none): a named relation (the
    /// catalog hands out the same storage every time), or a relation
    /// supplied to a prepared branch.
    Catalog,
    /// The evaluator's private cache: a binding-free range outside any
    /// parameter frame, whose value sits in `range_cache`.
    Private,
    /// Nowhere: any other range, a fresh value per outer combination,
    /// probed through a throwaway index if at all.
    Nowhere,
}

/// A branch's range values, in binding order, with where the indexes
/// over each are kept.
struct Ranges {
    rels: Vec<Relation>,
    homes: Vec<IndexHome>,
}

impl FromIterator<(Relation, IndexHome)> for Ranges {
    fn from_iter<I: IntoIterator<Item = (Relation, IndexHome)>>(iter: I) -> Ranges {
        let (rels, homes) = iter.into_iter().unzip();
        Ranges { rels, homes }
    }
}

/// A plan's steps lowered for the operator loop, the probe atoms they
/// realised (which decide their conjuncts, so the leaf skips them), and
/// the stack slot each binding position is bound at.
struct CompiledSteps<'b> {
    steps: Vec<CompiledStep>,
    realised: Vec<&'b EqAtom>,
    slot_of: Vec<usize>,
}

/// What the operator loop does per surviving combination: re-check the
/// residual conjuncts, then build the target — schema-checked when a
/// field is computed (arithmetic or interpreted), or when the branch
/// binds a name twice (the schema takes the first binding's range, the
/// value the innermost's).
struct CompiledLeaf {
    residual: Vec<LeafFormula>,
    target: LeafTarget,
    checked: bool,
}

enum LeafTarget {
    /// `Target::Var`: the tuple bound at this slot, whole.
    Whole(usize),
    Tuple(Vec<LeafScalar>),
}

/// A residual formula with its comparison operands resolved. Connectives
/// over comparisons compile; everything else — `TRUE`/`FALSE`,
/// quantifiers, membership tests — is evaluated by the interpreter.
enum LeafFormula {
    Cmp(LeafScalar, CmpOp, LeafScalar),
    And(Box<LeafFormula>, Box<LeafFormula>),
    Or(Box<LeafFormula>, Box<LeafFormula>),
    Not(Box<LeafFormula>),
    Interpreted(Formula),
}

/// A residual or target scalar with branch-variable attributes resolved.
enum LeafScalar {
    /// Column `col` of the tuple bound at stack slot `slot`.
    Field {
        slot: usize,
        col: usize,
    },
    Const(Value),
    Arith(Box<LeafScalar>, ArithOp, Box<LeafScalar>),
    /// Outer-variable attributes, parameters, and attributes missing
    /// from the range's schema: the interpreter resolves them per row,
    /// and raises exactly the as-written errors.
    Interpreted(ScalarExpr),
}

/// Lower a branch's leaf for a plan that binds position `p` at stack
/// slot `slot_of[p]` and realised the `realised` atoms: the residual
/// they leave, and the target.
fn lower_leaf(
    branch: &Branch,
    slot_of: &[usize],
    ranges: &[Relation],
    realised: &[&EqAtom],
) -> Result<CompiledLeaf, EvalError> {
    let slots = LeafSlots {
        branch,
        slot_of,
        ranges,
    };
    let target = match &branch.target {
        Target::Var(v) => LeafTarget::Whole(
            slots
                .slot(v)
                .ok_or_else(|| EvalError::UnboundVariable(v.clone()))?,
        ),
        Target::Tuple(exprs) => LeafTarget::Tuple(exprs.iter().map(|e| slots.scalar(e)).collect()),
    };
    let computed = match &target {
        LeafTarget::Tuple(fields) => fields
            .iter()
            .any(|f| matches!(f, LeafScalar::Arith(..) | LeafScalar::Interpreted(_))),
        LeafTarget::Whole(_) => false,
    };
    let vars: Vec<&Var> = branch.bindings.iter().map(|(v, _)| v).collect();
    let rebinds = (1..vars.len()).any(|i| vars[..i].contains(&vars[i]));
    Ok(CompiledLeaf {
        residual: joinplan::residual_conjuncts(branch, realised)
            .into_iter()
            .map(|c| slots.formula(c))
            .collect(),
        target,
        checked: computed || rebinds,
    })
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

    fn scalar(&self, e: &ScalarExpr) -> LeafScalar {
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
                field.unwrap_or_else(|| LeafScalar::Interpreted(e.clone()))
            }
            ScalarExpr::Arith(l, op, r) => {
                LeafScalar::Arith(Box::new(self.scalar(l)), *op, Box::new(self.scalar(r)))
            }
            ScalarExpr::Param(_) => LeafScalar::Interpreted(e.clone()),
        }
    }

    fn formula(&self, f: &Formula) -> LeafFormula {
        match f {
            Formula::Cmp(l, op, r) => LeafFormula::Cmp(self.scalar(l), *op, self.scalar(r)),
            Formula::And(a, b) => {
                LeafFormula::And(Box::new(self.formula(a)), Box::new(self.formula(b)))
            }
            Formula::Or(a, b) => {
                LeafFormula::Or(Box::new(self.formula(a)), Box::new(self.formula(b)))
            }
            Formula::Not(inner) => LeafFormula::Not(Box::new(self.formula(inner))),
            _ => LeafFormula::Interpreted(f.clone()),
        }
    }
}

/// `lv op rv`, or the as-written error for a cross-type pair.
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

/// Bind `t` to `var` at stack slot `slot`: overwrite the tuple of the
/// binding already there, or push the slot's binding on its first use.
fn bind(bindings: &mut Vec<Binding>, slot: usize, var: &Var, schema: &Schema, t: &Tuple) {
    match bindings.get_mut(slot) {
        Some(bound) => bound.tuple = t.clone(),
        None => bindings.push(Binding {
            var: var.clone(),
            tuple: t.clone(),
            schema: schema.clone(),
        }),
    }
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
        assert_eq!(planned.sorted_tuples(), vec![tuple![2i64]]);
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
    fn cross_type_key_demoted_to_residual_error() {
        // `r.front = 1` would probe a STRING column with an INTEGER key;
        // the compiler must demote the atom so the as-written error
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
        // which raises the same UnknownParam the query as written does.
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
    /// scan re-evaluates it per combination.
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

    /// No correlated range left unnested in the planner trace.
    fn no_demotions(ev: &Evaluator<'_>) -> bool {
        !ev.plan_events()
            .iter()
            .any(|e| matches!(e, PlanEvent::NotUnnested { .. }))
    }

    #[test]
    fn unnested_some_plans_without_demotion() {
        let cat = scene_catalog();
        let e = correlated_some();
        let mut ev = Evaluator::new(&cat);
        let planned = ev.eval(&e).unwrap();
        // Only "table" carries a non-dust item ⇒ the ("table","chair")
        // edge survives... "vase" carries nothing, "chair" only dust.
        assert_eq!(planned.sorted_tuples(), vec![tuple!["table", "chair"]]);
        assert!(no_demotions(&ev), "{:?}", ev.plan_events());
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
        assert_eq!(planned.len(), 2); // table and chair carry items
        assert!(no_demotions(&ev), "{:?}", ev.plan_events());
    }

    /// A one-step access path: the step's variable, its probed
    /// attributes (none for a scan) and the residual.
    type SitePath = (String, Vec<String>, String);

    /// The access paths an evaluation of `EACH r IN Infront: f` over the
    /// objects-and-scene catalog records, with the answer.
    fn site_paths(f: Formula) -> (Result<Relation, EvalError>, Vec<SitePath>) {
        let ontop = scene_catalog().relation("Ontop").unwrap();
        let nums =
            Relation::from_tuples(Schema::of(&[("n", Domain::Int)]), [tuple![2i64]]).unwrap();
        let cat = objects_catalog()
            .with_relation("Ontop", ontop)
            .with_relation("N", nums);
        let mut ev = Evaluator::new(&cat);
        let out = ev.eval(&set_former(vec![Branch::each("r", rel("Infront"), f)]));
        let paths = ev
            .plan_events()
            .iter()
            .filter_map(|ev| match ev {
                PlanEvent::AccessPath {
                    steps, residual, ..
                } => {
                    assert_eq!(steps.len(), 1, "a site is a one-binding branch");
                    Some((
                        steps[0].var.clone(),
                        steps[0].probe_attrs.clone(),
                        residual.clone(),
                    ))
                }
                _ => None,
            })
            .collect();
        (out, paths)
    }

    #[test]
    fn quantifier_sites_explain_their_access_paths() {
        let path = |var: &str, attrs: &[&str], residual: &str| {
            vec![(
                var.to_string(),
                attrs.iter().map(ToString::to_string).collect::<Vec<_>>(),
                residual.to_string(),
            )]
        };
        let (o_part, o_kind) = (attr("o", "part"), attr("o", "kind"));
        let cases = [
            // Two keys, one a constant: nothing left to re-check.
            (
                some(
                    "o",
                    rel("Objects"),
                    eq(o_part.clone(), attr("r", "back")).and(eq(cnst("decor"), o_kind.clone())),
                ),
                path("o", &["part", "kind"], "TRUE"),
            ),
            // A key recovered from under `NOT` by NNF.
            (
                some(
                    "o",
                    rel("Objects"),
                    not(ne(o_part.clone(), attr("r", "front"))),
                ),
                path("o", &["part"], "TRUE"),
            ),
            // De Morgan: NOT (a # x OR b # y) is a = x AND b = y.
            (
                some(
                    "o",
                    rel("Objects"),
                    not(ne(o_part.clone(), attr("r", "front"))
                        .or(ne(o_kind.clone(), cnst("decor")))),
                ),
                path("o", &["part", "kind"], "TRUE"),
            ),
            // ALL over an implication: its falsifier collects the keys of
            // both negated sides.
            (
                all(
                    "o",
                    rel("Ontop"),
                    not(eq(attr("o", "base"), attr("r", "front")))
                        .or(not(eq(attr("o", "top"), attr("r", "back")))),
                ),
                path("o", &["base", "top"], "TRUE"),
            ),
            // …and re-checks the negated consequent on each hit.
            (
                all(
                    "o",
                    rel("Ontop"),
                    not(eq(attr("o", "base"), attr("r", "front")))
                        .or(eq(attr("o", "top"), cnst("cup"))),
                ),
                path("o", &["base"], "o.top # \"cup\""),
            ),
            // A falsifier without a key (`o.part # r.front`): the body's
            // own key, under the covering check.
            (
                all("o", rel("Objects"), eq(o_part.clone(), attr("r", "front"))),
                path("o", &["part"], "TRUE"),
            ),
            // Arithmetic over the outer variable is a key; over the
            // quantified one, or `<`, it is not: no access path at all.
            (
                some(
                    "o",
                    rel("N"),
                    eq(attr("o", "n"), add(cnst(1i64), cnst(1i64))),
                ),
                path("o", &["n"], "TRUE"),
            ),
            (
                some(
                    "o",
                    rel("N"),
                    eq(add(attr("o", "n"), cnst(1i64)), cnst(2i64)),
                ),
                vec![],
            ),
            (
                some("o", rel("Objects"), lt(o_part.clone(), attr("r", "front"))),
                vec![],
            ),
        ];
        for (f, expected) in cases {
            let (out, paths) = site_paths(f.clone());
            assert!(out.is_ok(), "{f}: {out:?}");
            assert_eq!(paths, expected, "{f}");
        }
    }

    #[test]
    fn a_cross_type_site_key_scans_with_its_conjunct_in_the_residual() {
        // `o.part = 1` probes a STRING column with an INTEGER key: the
        // key demotes, the site scans, and the scan raises the
        // as-written error.
        let (out, paths) = site_paths(some("o", rel("Objects"), eq(attr("o", "part"), cnst(1i64))));
        assert!(matches!(out, Err(EvalError::CrossTypeComparison { .. })));
        assert_eq!(paths, [("o".to_string(), vec![], "o.part = 1".to_string())]);
    }

    #[test]
    fn quant_probe_demotion_is_a_plan_event() {
        // The quantified range is a set-former view projecting `top`
        // away (the nested-selector shape); the body's key is on the
        // missing field, so the site scans — and its access path says
        // so, with the conjunct in its residual.
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
        // The body genuinely references the missing field, so the
        // evaluation raises the as-written error — the probe demotes to
        // the scan (which raises it) instead of probing a bogus column.
        let planned = ev.eval(&e);
        assert!(
            matches!(planned, Err(EvalError::Type(_))),
            "got {planned:?}"
        );
        let events = ev.take_plan_events();
        assert!(
            events.iter().any(|ev| matches!(
                ev,
                PlanEvent::AccessPath { steps, residual, .. }
                    if !steps[0].is_probe() && residual == "t.top = r.front"
            )),
            "expected the site's scan step, got {events:?}"
        );
        assert!(ev.plan_events().is_empty(), "take drains the trace");
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
        // t1+hammer (w1), t1+saw (w2), t2+saw is not requested,
        // t2+hammer has no qualified worker, t3+hammer (w3).
        assert_eq!(planned.len(), 3);
        assert!(!planned.contains(&tuple!["t2", "hammer"]));
        assert!(no_demotions(&ev), "{:?}", ev.plan_events());
        // `Assign` probed on `task`, then `Skill` on (`worker`, `tool`).
        assert_eq!(metrics.snapshot().probe_plans, 2);
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
            assert_eq!(planned.len(), expected, "{e}");
            assert!(no_demotions(&ev), "{:?}", ev.plan_events());
        }
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
        assert_eq!(Evaluator::new(&cat).eval(&e).unwrap().len(), 1);
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
        assert_eq!(out.unwrap().len(), 2);
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
