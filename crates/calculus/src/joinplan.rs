//! Join planning for set-former branches: turn conjunctive equality
//! predicates into indexed access paths.
//!
//! The paper's set-oriented evaluation claim (§3) assumes the engine
//! evaluates a branch such as
//!
//! ```text
//! <f.front, b.back> OF EACH f, b IN Infront: f.back = b.front
//! ```
//!
//! as a *join*, not as a filtered cross product. The reference
//! evaluator's nested loops enumerate `|Infront|²` combinations; this
//! module recovers the join structure statically so the evaluator can
//! run an **index-nested-loop join** instead: scan one range, and for
//! every other range probe a [`dc_index::HashIndex`] keyed on the
//! equality columns, touching only matching tuples.
//!
//! The pass has two halves:
//!
//! * [`extract_eq_atoms`] walks the branch predicate's top-level
//!   conjunction and collects equality atoms `x.a = rhs` where `x` is a
//!   branch-bound variable and `rhs` is a constant, a parameter, an
//!   outer (enclosing-scope) attribute, or another branch variable's
//!   attribute. Atoms under `OR` / `NOT` / quantifiers are *not*
//!   extracted — they stay in the residual predicate.
//! * [`plan_branch`] orders the branch's binding positions greedily by
//!   estimated cost, using range cardinalities and the System-R
//!   `1/distinct` equality selectivity: at each step it picks the
//!   cheapest position, preferring positions whose equality atoms are
//!   fully bound by earlier steps (an index probe) over full scans.
//!   Distinct counts are asked for only where a step compares
//!   candidates whose estimates read them; the evaluator answers with
//!   the bucket count of the column's hash index.
//!
//! A plan only skips combinations that equality atoms already reject:
//! the executor re-evaluates every conjunct a realised probe key does
//! not decide (`residual_conjuncts`) on every surviving combination,
//! so semantics (including error semantics for the residual) are
//! unchanged. The executor also *demotes* atoms it cannot realise
//! safely (unknown parameters, unresolvable outer variables, cross-type
//! keys) back to the residual, so planning never has to be
//! conservative about evaluation-time concerns.

use std::collections::{BTreeMap, BTreeSet};

use dc_value::Schema;

use crate::ast::{Branch, CmpOp, Formula, Name, RangeExpr, ScalarExpr, SetFormer, Var};
use crate::rewrite;

/// The non-probed side of an equality atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeySource {
    /// `attr` of the branch variable bound at `position` — a genuine
    /// join key, usable once that position is bound.
    Binding {
        /// Binding position (index into `branch.bindings`).
        position: usize,
        /// Attribute name on that binding's range.
        attr: String,
    },
    /// An expression free of *branch* variables: a constant, a
    /// parameter, or an outer variable's attribute. Usable immediately.
    Free(ScalarExpr),
}

/// One usable equality atom: `bindings[position].attr = source`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqAtom {
    /// The probed binding position.
    pub position: usize,
    /// The probed attribute name.
    pub attr: String,
    /// The key-producing side.
    pub source: KeySource,
}

/// How one binding position is enumerated by the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// Iterate every tuple of the range.
    Scan,
    /// Probe a hash index on the atoms' attributes with keys computed
    /// from already-bound values.
    Probe(Vec<EqAtom>),
}

/// One step of a branch plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// The binding position this step enumerates.
    pub position: usize,
    /// Scan or probe.
    pub access: Access,
}

/// An ordered access plan covering every binding position of a branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPlan {
    /// Steps in execution order; each binding position appears exactly
    /// once.
    pub steps: Vec<PlanStep>,
}

impl BranchPlan {
    /// Does the plan use at least one index probe? (A probe-free plan
    /// in declaration order is exactly the reference nested loop.)
    pub fn has_probe(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s.access, Access::Probe(_)))
    }

    /// The trivial plan: scan every position in declaration order.
    pub fn all_scans(n: usize) -> BranchPlan {
        BranchPlan {
            steps: (0..n)
                .map(|position| PlanStep {
                    position,
                    access: Access::Scan,
                })
                .collect(),
        }
    }
}

/// Does the expression avoid every branch variable? (Then it is
/// evaluable before the branch loops start: constants, parameters,
/// outer variables.)
fn free_of_branch_vars(e: &ScalarExpr, branch_vars: &[&Var]) -> bool {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::Param(_) => true,
        ScalarExpr::Attr(v, _) => !branch_vars.contains(&v),
        ScalarExpr::Arith(l, _, r) => {
            free_of_branch_vars(l, branch_vars) && free_of_branch_vars(r, branch_vars)
        }
    }
}

/// `e` as `position.attr` of a branch variable, if it is exactly that.
fn as_branch_attr(e: &ScalarExpr, branch: &Branch) -> Option<(usize, String)> {
    if let ScalarExpr::Attr(v, a) = e {
        // Innermost declaration wins, matching evaluator name lookup.
        branch
            .bindings
            .iter()
            .rposition(|(bv, _)| bv == v)
            .map(|pos| (pos, a.clone()))
    } else {
        None
    }
}

/// Flatten the top-level conjunction of a formula.
fn conjuncts(f: &Formula) -> Vec<&Formula> {
    let mut out = Vec::new();
    let mut stack = vec![f];
    while let Some(g) = stack.pop() {
        match g {
            Formula::And(a, b) => {
                // Right child first, so popping yields left-to-right.
                stack.push(b);
                stack.push(a);
            }
            other => out.push(other),
        }
    }
    out
}

/// Extract the equality atoms of a branch usable as probe keys.
///
/// Only top-level conjuncts of the form `x.a = rhs` (or mirrored)
/// qualify, where `x` is a branch variable and `rhs` is either free of
/// branch variables ([`KeySource::Free`]) or another branch variable's
/// attribute ([`KeySource::Binding`], emitted symmetrically for both
/// directions). Branches with shadowed (duplicate) binding names yield
/// no atoms: reordering their loops would change name resolution.
pub fn extract_eq_atoms(branch: &Branch) -> Vec<EqAtom> {
    let branch_vars: Vec<&Var> = branch.bindings.iter().map(|(v, _)| v).collect();
    {
        let mut seen = branch_vars.clone();
        seen.sort();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Vec::new();
        }
    }
    let mut atoms = Vec::new();
    for c in conjuncts(&branch.predicate) {
        conjunct_atoms(c, branch, &branch_vars, &mut atoms);
    }
    atoms
}

/// The equality atoms one top-level conjunct contributes (none, one, or
/// a symmetric binding–binding pair), appended to `atoms`.
fn conjunct_atoms(c: &Formula, branch: &Branch, branch_vars: &[&Var], atoms: &mut Vec<EqAtom>) {
    let Formula::Cmp(l, CmpOp::Eq, r) = c else {
        return;
    };
    match (as_branch_attr(l, branch), as_branch_attr(r, branch)) {
        (Some((lp, la)), Some((rp, ra))) if lp != rp => {
            atoms.push(EqAtom {
                position: lp,
                attr: la.clone(),
                source: KeySource::Binding {
                    position: rp,
                    attr: ra.clone(),
                },
            });
            atoms.push(EqAtom {
                position: rp,
                attr: ra,
                source: KeySource::Binding {
                    position: lp,
                    attr: la,
                },
            });
        }
        (Some((lp, la)), None) if free_of_branch_vars(r, branch_vars) => {
            atoms.push(EqAtom {
                position: lp,
                attr: la,
                source: KeySource::Free(r.clone()),
            });
        }
        (None, Some((rp, ra))) if free_of_branch_vars(l, branch_vars) => {
            atoms.push(EqAtom {
                position: rp,
                attr: ra,
                source: KeySource::Free(l.clone()),
            });
        }
        _ => {}
    }
}

/// The **residual** of a branch: its predicate's top-level conjuncts,
/// in source order, minus every conjunct one of the `realised` probe
/// atoms decides. A probe realises an atom only when the key is safe —
/// resolved, and of the probed column's base type — so the covered
/// conjunct holds on every combination the probe yields and can never
/// raise; dropping it changes neither results nor errors. A demoted
/// atom is simply not in `realised`, and its conjunct stays.
///
/// The one definition of what the executor's leaf re-checks per row
/// and of what `EXPLAIN` reports as the residual.
pub(crate) fn residual_conjuncts<'b>(branch: &'b Branch, realised: &[&EqAtom]) -> Vec<&'b Formula> {
    let branch_vars: Vec<&Var> = branch.bindings.iter().map(|(v, _)| v).collect();
    let mut atoms = Vec::new();
    conjuncts(&branch.predicate)
        .into_iter()
        .filter(|c| {
            atoms.clear();
            conjunct_atoms(c, branch, &branch_vars, &mut atoms);
            !atoms.iter().any(|a| realised.contains(&a))
        })
        .collect()
}

/// One usable equality atom of a quantified subformula
/// (`SOME x IN R: … x.attr = key …` or the `ALL` dual): the probed
/// attribute on the quantified range, and the key expression, which is
/// free of the quantified variable and therefore evaluable in the
/// *enclosing* scope before the range is enumerated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantAtom {
    /// The probed attribute name on the quantified range.
    pub attr: String,
    /// The key-producing expression (may reference outer variables,
    /// parameters, and constants — anything but the quantified
    /// variable).
    pub key: ScalarExpr,
}

/// Does the expression mention the quantified variable anywhere?
pub(crate) fn mentions_var(e: &ScalarExpr, var: &Var) -> bool {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::Param(_) => false,
        ScalarExpr::Attr(v, _) => v == var,
        ScalarExpr::Arith(l, _, r) => mentions_var(l, var) || mentions_var(r, var),
    }
}

/// Extract the equality atoms of a quantifier body usable as existence
/// probe keys — the quantifier counterpart of [`extract_eq_atoms`].
///
/// The body is first normalised to **negation normal form**
/// ([`rewrite::to_nnf`]), so nested negations contribute atoms too:
/// `NOT (o.part # r.front)` normalises to `o.part = r.front` and is
/// extracted. After NNF, only top-level conjuncts of the form
/// `var.attr = key` (or mirrored) qualify, where `key` avoids `var`
/// entirely. Atoms under `OR` / nested quantifiers stay in the
/// residual: the evaluator re-checks the *full* body on every probed
/// tuple, so the atoms only have to be sound as a filter, never
/// complete.
///
/// For `SOME` the probe result is scanned for a body witness; for
/// `ALL` see [`plan_quant_probe`], which derives atoms from the body's
/// *falsifier* where possible and falls back to the bucket-covers-range
/// check otherwise.
///
/// ```
/// use dc_calculus::builder::*;
/// use dc_calculus::joinplan::extract_quant_atoms;
/// use dc_calculus::ScalarExpr;
///
/// // SOME o IN Objects: o.part = r.front AND NOT (o.kind # "vase")
/// let body = eq(attr("o", "part"), attr("r", "front"))
///     .and(not(ne(attr("o", "kind"), cnst("vase"))));
/// let atoms = extract_quant_atoms(&"o".to_string(), &body);
/// assert_eq!(atoms.len(), 2);
/// assert_eq!(atoms[0].attr, "part");
/// // The key side is evaluable in the enclosing scope.
/// assert!(matches!(&atoms[0].key, ScalarExpr::Attr(v, a) if v == "r" && a == "front"));
/// assert_eq!(atoms[1].attr, "kind"); // recovered from under the NOT
/// ```
pub fn extract_quant_atoms(var: &Var, body: &Formula) -> Vec<QuantAtom> {
    extract_quant_atoms_nnf(var, &rewrite::to_nnf(body.clone()))
}

/// Atom extraction over a body already in negation normal form.
fn extract_quant_atoms_nnf(var: &Var, nnf_body: &Formula) -> Vec<QuantAtom> {
    let mut atoms = Vec::new();
    for c in conjuncts(nnf_body) {
        let Formula::Cmp(l, CmpOp::Eq, r) = c else {
            continue;
        };
        let as_var_attr = |e: &ScalarExpr| match e {
            ScalarExpr::Attr(v, a) if v == var => Some(a.clone()),
            _ => None,
        };
        match (as_var_attr(l), as_var_attr(r)) {
            (Some(attr), None) if !mentions_var(r, var) => atoms.push(QuantAtom {
                attr,
                key: r.clone(),
            }),
            (None, Some(attr)) if !mentions_var(l, var) => atoms.push(QuantAtom {
                attr,
                key: l.clone(),
            }),
            _ => {}
        }
    }
    atoms
}

/// How the atoms of a [`QuantPlan`] decide the quantifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// `SOME`: every witness of the body satisfies the atoms, so every
    /// witness lies inside the probed bucket — scan the bucket for one.
    Witness,
    /// `ALL`: the atoms come from the body's *falsifier* (the NNF of
    /// `NOT body`), so every tuple that falsifies the body lies inside
    /// the probed bucket — scan the bucket for a falsifier; tuples
    /// outside it satisfy the body by construction. This is how
    /// implication-shaped bodies (`NOT p OR q`, falsifier `p AND NOT q`)
    /// become probe-able.
    Falsifier,
    /// `ALL`: the atoms come from the body itself, so any tuple
    /// *outside* the bucket falsifies an equality conjunct and with it
    /// the body — the quantifier can only hold if the bucket covers the
    /// whole range (checked by cardinality before the residual pass).
    Covering,
}

/// An index-probe plan for one quantified subformula: the extracted
/// equality atoms plus the [`QuantMode`] describing what membership in
/// the probed bucket means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantPlan {
    /// How bucket membership decides the quantifier.
    pub mode: QuantMode,
    /// The usable equality atoms (probed attribute + enclosing-scope
    /// key expression).
    pub atoms: Vec<QuantAtom>,
}

/// Plan an index existence probe for a quantified subformula, or `None`
/// when the body offers no usable equality atoms.
///
/// For `SOME`, atoms are extracted from the NNF of the body
/// ([`QuantMode::Witness`]). For `ALL`, atoms are preferentially
/// extracted from the NNF of the body's **negation** — the falsifier —
/// which covers implication-shaped bodies (`NOT p OR q` has falsifier
/// `p AND NOT q`, so `p`'s equality atoms localise every potential
/// counterexample, [`QuantMode::Falsifier`]); when the falsifier offers
/// no atoms, atoms from the body itself are used with the
/// bucket-covers-range check ([`QuantMode::Covering`]).
pub fn plan_quant_probe(var: &Var, body: &Formula, existential: bool) -> Option<QuantPlan> {
    if existential {
        let atoms = extract_quant_atoms(var, body);
        return (!atoms.is_empty()).then_some(QuantPlan {
            mode: QuantMode::Witness,
            atoms,
        });
    }
    let falsifier = rewrite::to_nnf(body.clone().negate());
    let atoms = extract_quant_atoms_nnf(var, &falsifier);
    if !atoms.is_empty() {
        return Some(QuantPlan {
            mode: QuantMode::Falsifier,
            atoms,
        });
    }
    let atoms = extract_quant_atoms(var, body);
    (!atoms.is_empty()).then_some(QuantPlan {
        mode: QuantMode::Covering,
        atoms,
    })
}

/// Does the expression reference only the variables in `local` (no
/// parameters)? The scope analysis behind the evaluator's binding-free
/// range test.
pub(crate) fn scalar_uses_only(e: &ScalarExpr, local: &mut Vec<String>) -> bool {
    match e {
        ScalarExpr::Const(_) => true,
        ScalarExpr::Param(_) => false,
        ScalarExpr::Attr(v, _) => local.iter().any(|l| l == v),
        ScalarExpr::Arith(l, _, r) => scalar_uses_only(l, local) && scalar_uses_only(r, local),
    }
}

/// Formula counterpart of [`scalar_uses_only`]: quantifier and
/// set-former bindings extend the local scope for their sub-terms.
pub(crate) fn formula_uses_only(f: &Formula, local: &mut Vec<String>) -> bool {
    match f {
        Formula::True | Formula::False => true,
        Formula::Cmp(l, _, r) => scalar_uses_only(l, local) && scalar_uses_only(r, local),
        Formula::And(a, b) | Formula::Or(a, b) => {
            formula_uses_only(a, local) && formula_uses_only(b, local)
        }
        Formula::Not(inner) => formula_uses_only(inner, local),
        Formula::Some(v, range, body) | Formula::All(v, range, body) => {
            if !range_uses_only(range, local) {
                return false;
            }
            local.push(v.clone());
            let ok = formula_uses_only(body, local);
            local.pop();
            ok
        }
        Formula::Member(v, range) => local.iter().any(|l| l == v) && range_uses_only(range, local),
        Formula::TupleIn(exprs, range) => {
            exprs.iter().all(|e| scalar_uses_only(e, local)) && range_uses_only(range, local)
        }
    }
}

/// Range counterpart of [`scalar_uses_only`].
pub(crate) fn range_uses_only(r: &crate::ast::RangeExpr, local: &mut Vec<String>) -> bool {
    use crate::ast::{RangeExpr, Target};
    match r {
        RangeExpr::Rel(_) => true,
        RangeExpr::Selected { base, args, .. } => {
            range_uses_only(base, local) && args.iter().all(|a| scalar_uses_only(a, local))
        }
        RangeExpr::Constructed {
            base,
            args,
            scalar_args,
            ..
        } => {
            range_uses_only(base, local)
                && args.iter().all(|a| range_uses_only(a, local))
                && scalar_args.iter().all(|s| scalar_uses_only(s, local))
        }
        RangeExpr::SetFormer(sf) => sf.branches.iter().all(|b| {
            let mark = local.len();
            for (v, range) in &b.bindings {
                if !range_uses_only(range, local) {
                    local.truncate(mark);
                    return false;
                }
                local.push(v.clone());
            }
            let ok = formula_uses_only(&b.predicate, local)
                && match &b.target {
                    Target::Var(v) => local.iter().any(|l| l == v),
                    Target::Tuple(exprs) => exprs.iter().all(|e| scalar_uses_only(e, local)),
                };
            local.truncate(mark);
            ok
        }),
    }
}

/// The System-R `1/distinct` selectivity of an equality on a column
/// with `distinct` values; 1.0 — no information — for a count nobody
/// knows or an empty column.
pub fn eq_selectivity(distinct: Option<usize>) -> f64 {
    match distinct {
        Some(d) if d > 0 => 1.0 / d as f64,
        _ => 1.0,
    }
}

/// One distinct count [`plan_branch`] asked its source for: column
/// `column` of the range bound at `position` holds `distinct` values
/// (`None` when the source could not tell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistinctCount {
    /// Binding position of the counted range.
    pub position: usize,
    /// Column of that range.
    pub column: usize,
    /// The answer.
    pub distinct: Option<usize>,
}

/// System-R estimate of the number of combinations a branch emits:
/// the cross-product cardinality reduced by `1/distinct` for every
/// equality conjunct the branch carries (constant keys use the probed
/// column's distinct count; cross-binding join keys use the larger
/// side's, the classic equi-join estimate). Symmetric binding–binding
/// atom pairs emitted by [`extract_eq_atoms`] are counted once. What
/// `EXPLAIN` reports as a branch's estimated rows. `known` answers the
/// distinct count of a (position, column) from counts already at hand
/// — it never builds anything — and a count it does not know reads as
/// no information.
pub fn estimate_branch_rows(
    branch: &Branch,
    schemas: &[&Schema],
    cards: &[usize],
    known: impl Fn(usize, usize) -> Option<usize>,
) -> f64 {
    debug_assert_eq!(schemas.len(), branch.bindings.len());
    debug_assert_eq!(cards.len(), branch.bindings.len());
    let sel = |position: usize, attr: &str| {
        schemas[position]
            .position(attr)
            .map_or(1.0, |column| eq_selectivity(known(position, column)))
    };
    let mut est: f64 = cards.iter().map(|&c| c as f64).product();
    for atom in extract_eq_atoms(branch) {
        match &atom.source {
            KeySource::Free(_) => est *= sel(atom.position, &atom.attr),
            // Each conjunct appears in both directions; count the
            // canonical one.
            KeySource::Binding { position, attr } if atom.position < *position => {
                est *= sel(atom.position, &atom.attr).min(sel(*position, attr));
            }
            KeySource::Binding { .. } => {}
        }
    }
    est
}

/// Order the branch's binding positions into an index-nested-loop plan.
///
/// Greedy System-R-style ordering: repeatedly pick the unbound position
/// with the lowest estimated enumeration cost, where a position whose
/// equality atoms are all *available* (sources free, or bound by
/// earlier steps) costs `cardinality × Π 1/distinct(attr)` and an
/// unsupported position costs its full cardinality. Ties break toward
/// declaration order, so plans are deterministic and the no-atom case
/// degenerates to the reference scan order.
///
/// `cards` are the ranges' cardinalities. Distinct counts are *asked
/// for*, through `count(position, column)`, only where a decision reads
/// them: for the usable atoms of each candidate of a step that compares
/// two or more candidates — once per (position, column). The last step
/// has no alternative, and a step whose candidates have no usable atom
/// compares cardinalities alone, so a two-binding branch keyed only by
/// the other binding asks for nothing. The counts asked for are
/// returned with the plan, for rendering.
///
/// ```
/// use dc_calculus::ast::Branch;
/// use dc_calculus::builder::*;
/// use dc_calculus::joinplan::{plan_branch, Access};
/// use dc_value::{Domain, Schema};
///
/// // The paper's §2.3 join: <f.front, b.back> OF EACH f, b IN Infront:
/// //   f.back = b.front
/// let branch = Branch::projecting(
///     vec![attr("f", "front"), attr("b", "back")],
///     vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
///     eq(attr("f", "back"), attr("b", "front")),
/// );
/// let schema = Schema::of(&[("front", Domain::Str), ("back", Domain::Str)]);
/// let (plan, asked) = plan_branch(&branch, &[&schema, &schema], &[100, 100], |_, _| Some(50));
/// // One range is scanned, the other probed through a hash index on
/// // the equality column — an index-nested-loop join, not a cross
/// // product — and no decision needed a distinct count.
/// assert!(matches!(plan.steps[0].access, Access::Scan));
/// assert!(matches!(plan.steps[1].access, Access::Probe(_)));
/// assert!(asked.is_empty());
/// ```
pub fn plan_branch(
    branch: &Branch,
    schemas: &[&Schema],
    cards: &[usize],
    mut count: impl FnMut(usize, usize) -> Option<usize>,
) -> (BranchPlan, Vec<DistinctCount>) {
    let n = branch.bindings.len();
    debug_assert_eq!(schemas.len(), n);
    debug_assert_eq!(cards.len(), n);
    let mut asked: Vec<DistinctCount> = Vec::new();
    let atoms = extract_eq_atoms(branch);
    if atoms.is_empty() {
        return (BranchPlan::all_scans(n), asked);
    }
    let mut distinct = |position: usize, column: usize| {
        if let Some(c) = asked
            .iter()
            .find(|c| (c.position, c.column) == (position, column))
        {
            return c.distinct;
        }
        let d = count(position, column);
        asked.push(DistinctCount {
            position,
            column,
            distinct: d,
        });
        d
    };
    let mut bound = vec![false; n];
    let mut steps = Vec::with_capacity(n);
    for remaining in (1..=n).rev() {
        let compared = remaining > 1;
        let mut best: Option<(f64, usize, Vec<EqAtom>)> = None;
        for p in (0..n).filter(|&p| !bound[p]) {
            let usable: Vec<EqAtom> = atoms
                .iter()
                .filter(|a| {
                    a.position == p
                        && match &a.source {
                            KeySource::Free(_) => true,
                            KeySource::Binding { position, .. } => bound[*position],
                        }
                })
                .cloned()
                .collect();
            let mut est = cards[p] as f64;
            if compared {
                for a in &usable {
                    if let Ok(column) = schemas[p].position(&a.attr) {
                        est *= eq_selectivity(distinct(p, column));
                    }
                }
            }
            // Prefer probes over scans at equal estimates.
            let better = match &best {
                None => true,
                Some((best_est, _, best_atoms)) => {
                    est < *best_est
                        || (est == *best_est && best_atoms.is_empty() && !usable.is_empty())
                }
            };
            if better {
                best = Some((est, p, usable));
            }
        }
        // `remaining` counts the unbound positions, so the inner loop
        // always proposes a candidate.
        let Some((_, p, usable)) = best else {
            debug_assert!(false, "an unbound position always exists");
            break;
        };
        bound[p] = true;
        steps.push(PlanStep {
            position: p,
            access: if usable.is_empty() {
                Access::Scan
            } else {
                Access::Probe(usable)
            },
        });
    }
    (BranchPlan { steps }, asked)
}

/// Definition lookup for [`base_relations`]: resolves the *bodies*
/// hidden behind names in a range expression — selector predicates and
/// constructor bodies — so the read-set analysis can chase references
/// transitively. Returning `None` for a name marks the profile
/// [`ReadProfile::unresolved`] (the caller must then assume the query
/// reads everything).
pub trait DefLookup {
    /// The predicate body of a named selector, if known.
    fn selector_body(&self, name: &str) -> Option<&Formula>;
    /// The set-former body and formal relation parameters
    /// (base first, then relation args) of a named constructor, if
    /// known.
    fn constructor_parts(&self, name: &str) -> Option<(&SetFormer, Vec<Name>)>;
}

/// Read-set / dependency profile of a query: which base (catalog)
/// relations its result depends on. Constructor formals are followed to
/// the actuals they are bound to; selector bodies and predicates count
/// as reads like binding ranges do.
///
/// Serving layers use the profile as an O(1) filter: a commit touching
/// relations disjoint from [`ReadProfile::reads`] cannot change the
/// result at all. Whether a commit that does touch them can be
/// maintained incrementally is the fixpoint's warm re-entry's call, not
/// the profile's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadProfile {
    /// Every base relation the query may read.
    pub reads: BTreeSet<Name>,
    /// True when a selector or constructor definition could not be
    /// resolved: the profile is then a lower bound and the caller must
    /// treat the query as reading everything.
    pub unresolved: bool,
}

impl ReadProfile {
    /// True when a commit touching exactly `touched` cannot affect the
    /// query result. Unresolved profiles never qualify.
    pub fn disjoint_from<'a, I: IntoIterator<Item = &'a Name>>(&self, touched: I) -> bool {
        !self.unresolved && touched.into_iter().all(|t| !self.reads.contains(t))
    }
}

struct ProfileWalk<'a> {
    defs: &'a dyn DefLookup,
    profile: ReadProfile,
    /// Constructor names on the current expansion path (cycle guard:
    /// recursive constructors reference themselves).
    ctor_stack: Vec<Name>,
    /// Selector names already expanded (their bodies are
    /// context-independent, so once is enough).
    selectors_done: BTreeSet<Name>,
}

/// Compute the [`ReadProfile`] of a query expression, resolving
/// selector and constructor definitions through `defs`.
///
/// Constructor formals are tracked by *provenance*: an application
/// `R{tc(S)}` maps the constructor's formals to `R` and `S`, so a read
/// of a formal inside the body is a read of the actual relation. A
/// formal bound to a computed range reads what that range reads, which
/// is recorded at the application site.
pub fn base_relations(range: &RangeExpr, defs: &dyn DefLookup) -> ReadProfile {
    let mut walk = ProfileWalk {
        defs,
        profile: ReadProfile::default(),
        ctor_stack: Vec::new(),
        selectors_done: BTreeSet::new(),
    };
    walk.range(range, &BTreeMap::new());
    walk.profile
}

impl ProfileWalk<'_> {
    /// Walk a range expression. `prov` maps enclosing constructor
    /// formals to base-catalog names (`None` provenance = the formal
    /// was bound to a computed range, already accounted for at the
    /// application site).
    fn range(&mut self, r: &RangeExpr, prov: &BTreeMap<Name, Option<Name>>) {
        match r {
            RangeExpr::Rel(n) => match prov.get(n) {
                Some(Some(actual)) => {
                    self.profile.reads.insert(actual.clone());
                }
                Some(None) => {}
                None => {
                    self.profile.reads.insert(n.clone());
                }
            },
            RangeExpr::Selected { base, selector, .. } => {
                self.range(base, prov);
                self.selector(selector);
            }
            RangeExpr::Constructed {
                base,
                constructor,
                args,
                ..
            } => self.application(base, constructor, args, prov),
            RangeExpr::SetFormer(sf) => self.set_former(sf, prov),
        }
    }

    fn set_former(&mut self, sf: &SetFormer, prov: &BTreeMap<Name, Option<Name>>) {
        for b in &sf.branches {
            for (_, range) in &b.bindings {
                self.range(range, prov);
            }
            self.formula(&b.predicate, prov);
        }
    }

    /// A constructor application `base{c(args…)}`: plain-`Rel`
    /// base/args forward provenance into the body; computed base/args
    /// are walked here and pass `None` provenance.
    fn application(
        &mut self,
        base: &RangeExpr,
        constructor: &Name,
        args: &[RangeExpr],
        prov: &BTreeMap<Name, Option<Name>>,
    ) {
        let mut actuals: Vec<Option<Name>> = Vec::with_capacity(args.len() + 1);
        for actual in std::iter::once(base).chain(args.iter()) {
            match actual {
                RangeExpr::Rel(n) => match prov.get(n) {
                    Some(slot) => actuals.push(slot.clone()),
                    None => {
                        self.profile.reads.insert(n.clone());
                        actuals.push(Some(n.clone()));
                    }
                },
                computed => {
                    self.range(computed, prov);
                    actuals.push(None);
                }
            }
        }
        if self.ctor_stack.contains(constructor) {
            return; // recursive self-reference: already on the path
        }
        let Some((body, formals)) = self.defs.constructor_parts(constructor) else {
            self.profile.unresolved = true;
            return;
        };
        let body = body.clone();
        if formals.len() != actuals.len() {
            // Arity mismatch is a type error elsewhere; profile
            // conservatively.
            self.profile.unresolved = true;
            return;
        }
        let child: BTreeMap<Name, Option<Name>> = formals.into_iter().zip(actuals).collect();
        self.ctor_stack.push(constructor.clone());
        self.set_former(&body, &child);
        self.ctor_stack.pop();
    }

    fn selector(&mut self, name: &Name) {
        if !self.selectors_done.insert(name.clone()) {
            return;
        }
        let Some(body) = self.defs.selector_body(name) else {
            self.profile.unresolved = true;
            return;
        };
        let body = body.clone();
        // Selector bodies see only the base catalog — no formal
        // provenance.
        self.formula(&body, &BTreeMap::new());
    }

    fn formula(&mut self, f: &Formula, prov: &BTreeMap<Name, Option<Name>>) {
        match f {
            Formula::True | Formula::False | Formula::Cmp(..) => {}
            Formula::And(a, b) | Formula::Or(a, b) => {
                self.formula(a, prov);
                self.formula(b, prov);
            }
            Formula::Not(inner) => self.formula(inner, prov),
            Formula::Some(_, r, body) | Formula::All(_, r, body) => {
                self.range(r, prov);
                self.formula(body, prov);
            }
            Formula::Member(_, r) | Formula::TupleIn(_, r) => self.range(r, prov),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use dc_index::RelationStats;
    use dc_value::{Domain, Schema};

    fn edge_schema() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn stats(cardinality: usize, distinct: &[usize]) -> RelationStats {
        RelationStats {
            cardinality,
            distinct: distinct.to_vec(),
        }
    }

    /// The eager planner: full statistics for every range, every
    /// candidate's estimate read in full. Returns the plan and the
    /// (position, column) counts it read at steps comparing two or more
    /// candidates.
    fn eager_plan(
        branch: &Branch,
        schemas: &[&Schema],
        stats: &[RelationStats],
    ) -> (BranchPlan, Vec<(usize, usize)>) {
        let n = branch.bindings.len();
        let atoms = extract_eq_atoms(branch);
        let mut compared_reads = Vec::new();
        if atoms.is_empty() {
            return (BranchPlan::all_scans(n), compared_reads);
        }
        let mut bound = vec![false; n];
        let mut steps = Vec::new();
        while steps.len() < n {
            let candidates = bound.iter().filter(|b| !**b).count();
            let mut best: Option<(f64, usize, Vec<EqAtom>)> = None;
            for p in (0..n).filter(|&p| !bound[p]) {
                let usable: Vec<EqAtom> = atoms
                    .iter()
                    .filter(|a| {
                        a.position == p
                            && match &a.source {
                                KeySource::Free(_) => true,
                                KeySource::Binding { position, .. } => bound[*position],
                            }
                    })
                    .cloned()
                    .collect();
                let mut est = stats[p].cardinality as f64;
                for a in &usable {
                    if let Ok(c) = schemas[p].position(&a.attr) {
                        est *= eq_selectivity(stats[p].distinct.get(c).copied());
                        if candidates > 1 {
                            compared_reads.push((p, c));
                        }
                    }
                }
                let better = match &best {
                    None => true,
                    Some((e, _, best_atoms)) => {
                        est < *e || (est == *e && best_atoms.is_empty() && !usable.is_empty())
                    }
                };
                if better {
                    best = Some((est, p, usable));
                }
            }
            let (_, p, usable) = best.unwrap();
            bound[p] = true;
            steps.push(PlanStep {
                position: p,
                access: if usable.is_empty() {
                    Access::Scan
                } else {
                    Access::Probe(usable)
                },
            });
        }
        compared_reads.sort();
        compared_reads.dedup();
        (BranchPlan { steps }, compared_reads)
    }

    /// Plan by asking `stats` for counts, and check it against the
    /// eager planner over the same full statistics: the same plan, with
    /// counts asked for exactly where the eager planner compared
    /// candidates that read them — and each asked for once.
    fn planned(
        branch: &Branch,
        schemas: &[&Schema],
        stats: &[RelationStats],
    ) -> (BranchPlan, Vec<DistinctCount>) {
        let cards: Vec<usize> = stats.iter().map(|s| s.cardinality).collect();
        let mut calls = 0;
        let (plan, asked) = plan_branch(branch, schemas, &cards, |p, c| {
            calls += 1;
            stats[p].distinct.get(c).copied()
        });
        let (eager, compared_reads) = eager_plan(branch, schemas, stats);
        assert_eq!(plan, eager, "{branch:?}");
        assert_eq!(calls, asked.len(), "each count is asked for once");
        let mut got: Vec<(usize, usize)> = asked.iter().map(|c| (c.position, c.column)).collect();
        got.sort();
        assert_eq!(got, compared_reads, "{branch:?}");
        (plan, asked)
    }

    /// The paper's two-variable join branch:
    /// `<f.front, b.back> OF EACH f, b IN Infront: f.back = b.front`.
    fn join_branch() -> Branch {
        Branch::projecting(
            vec![attr("f", "front"), attr("b", "back")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")),
        )
    }

    #[test]
    fn extracts_symmetric_binding_atoms() {
        let atoms = extract_eq_atoms(&join_branch());
        assert_eq!(atoms.len(), 2);
        assert_eq!(
            atoms[0],
            EqAtom {
                position: 0,
                attr: "back".into(),
                source: KeySource::Binding {
                    position: 1,
                    attr: "front".into()
                },
            }
        );
        assert_eq!(
            atoms[1],
            EqAtom {
                position: 1,
                attr: "front".into(),
                source: KeySource::Binding {
                    position: 0,
                    attr: "back".into()
                },
            }
        );
    }

    #[test]
    fn extracts_constant_and_param_atoms() {
        let b = Branch::each(
            "r",
            rel("Infront"),
            eq(attr("r", "front"), cnst("vase")).and(eq(param("Obj"), attr("r", "back"))),
        );
        let atoms = extract_eq_atoms(&b);
        assert_eq!(atoms.len(), 2);
        assert!(matches!(
            &atoms[0].source,
            KeySource::Free(ScalarExpr::Const(_))
        ));
        assert_eq!(atoms[1].attr, "back");
        assert!(matches!(&atoms[1].source, KeySource::Free(ScalarExpr::Param(p)) if p == "Obj"));
    }

    #[test]
    fn outer_variable_is_a_free_source() {
        // `o` is not bound by this branch — its attribute is a free key.
        let b = Branch::each(
            "r",
            rel("Infront"),
            eq(attr("r", "front"), attr("o", "part")),
        );
        let atoms = extract_eq_atoms(&b);
        assert_eq!(atoms.len(), 1);
        assert!(matches!(&atoms[0].source, KeySource::Free(ScalarExpr::Attr(v, _)) if v == "o"));
    }

    #[test]
    fn non_equality_and_disjunctive_atoms_ignored() {
        // `<`, `OR`, `NOT`, and quantified equalities must not produce
        // probe atoms — they stay residual.
        let b = Branch::each(
            "r",
            rel("Infront"),
            lt(attr("r", "front"), cnst("z"))
                .and(eq(attr("r", "front"), cnst("a")).or(eq(attr("r", "back"), cnst("b"))))
                .and(not(eq(attr("r", "front"), cnst("q"))))
                .and(some(
                    "x",
                    rel("Infront"),
                    eq(attr("x", "front"), attr("r", "back")),
                )),
        );
        assert!(extract_eq_atoms(&b).is_empty());
    }

    #[test]
    fn same_position_equality_is_not_a_join_key() {
        let b = Branch::each(
            "r",
            rel("Infront"),
            eq(attr("r", "front"), attr("r", "back")),
        );
        assert!(extract_eq_atoms(&b).is_empty());
    }

    #[test]
    fn shadowed_binding_names_disable_extraction() {
        let b = Branch {
            target: crate::ast::Target::Var("x".into()),
            bindings: vec![("x".into(), rel("Infront")), ("x".into(), rel("Infront"))],
            predicate: eq(attr("x", "front"), cnst("a")),
        };
        assert!(extract_eq_atoms(&b).is_empty());
        let schema = edge_schema();
        let (plan, _) = planned(
            &b,
            &[&schema, &schema],
            &[stats(1, &[1, 1]), stats(1, &[1, 1])],
        );
        assert_eq!(plan, BranchPlan::all_scans(2));
    }

    #[test]
    fn join_plan_scans_once_probes_rest() {
        let schema = edge_schema();
        let small = stats(2, &[2, 2]);
        let (plan, asked) = planned(&join_branch(), &[&schema, &schema], &[small.clone(), small]);
        // Binding-keyed on both sides: the first step compares
        // cardinalities, the second has no alternative.
        assert!(asked.is_empty());
        assert_eq!(plan.steps.len(), 2);
        assert!(matches!(plan.steps[0].access, Access::Scan));
        let Access::Probe(atoms) = &plan.steps[1].access else {
            panic!("second step must probe, got {plan:?}");
        };
        assert_eq!(atoms.len(), 1);
    }

    #[test]
    fn constant_probe_ordered_before_unselective_scan() {
        // `EACH big IN Big, EACH sel IN Sel: sel.front = "x" AND
        //  big.back = sel.back` — the planner should start with the
        // constant-keyed probe on Sel, then probe Big on the join key.
        let b = Branch::projecting(
            vec![attr("big", "front")],
            vec![("big".into(), rel("Big")), ("sel".into(), rel("Sel"))],
            eq(attr("sel", "front"), cnst("x")).and(eq(attr("big", "back"), attr("sel", "back"))),
        );
        let schema = edge_schema();
        let (plan, asked) = planned(
            &b,
            &[&schema, &schema],
            &[stats(50, &[50, 50]), stats(10, &[10, 10])],
        );
        // Only the constant-keyed candidate's column decided anything.
        assert_eq!(
            asked,
            [DistinctCount {
                position: 1,
                column: 0,
                distinct: Some(10)
            }]
        );
        assert_eq!(plan.steps[0].position, 1, "{plan:?}");
        assert!(matches!(plan.steps[0].access, Access::Probe(_)));
        assert_eq!(plan.steps[1].position, 0);
        assert!(matches!(plan.steps[1].access, Access::Probe(_)));
    }

    #[test]
    fn quant_atoms_extracted_from_conjunction() {
        // SOME o IN Objects: o.part = r.front AND o.kind = "vase"
        let body =
            eq(attr("o", "part"), attr("r", "front")).and(eq(cnst("vase"), attr("o", "kind")));
        let atoms = extract_quant_atoms(&"o".to_string(), &body);
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].attr, "part");
        assert!(matches!(&atoms[0].key, ScalarExpr::Attr(v, a) if v == "r" && a == "front"));
        assert_eq!(atoms[1].attr, "kind");
        assert!(matches!(&atoms[1].key, ScalarExpr::Const(_)));
    }

    #[test]
    fn quant_atoms_skip_var_on_both_sides_and_non_conjuncts() {
        // o.a = o.b is not probe-able; disjunctive/negated/quantified
        // equalities stay residual.
        let body = eq(attr("o", "a"), attr("o", "b"))
            .and(eq(attr("o", "a"), cnst("x")).or(eq(attr("o", "b"), cnst("y"))))
            .and(not(eq(attr("o", "a"), cnst("z"))))
            .and(some("i", rel("R"), eq(attr("i", "k"), attr("o", "a"))))
            .and(lt(attr("o", "a"), cnst("w")));
        assert!(extract_quant_atoms(&"o".to_string(), &body).is_empty());
        // Arithmetic over the quantified variable is not a key either.
        let arith = eq(add(attr("o", "n"), cnst(1i64)), attr("r", "n"));
        assert!(extract_quant_atoms(&"o".to_string(), &arith).is_empty());
        // …but arithmetic over outer variables is.
        let outer = eq(attr("o", "n"), add(attr("r", "n"), cnst(1i64)));
        assert_eq!(extract_quant_atoms(&"o".to_string(), &outer).len(), 1);
    }

    #[test]
    fn quant_atoms_recovered_through_nnf() {
        // NOT (o.part # r.front) normalises to o.part = r.front.
        let body = not(ne(attr("o", "part"), attr("r", "front")));
        let atoms = extract_quant_atoms(&"o".to_string(), &body);
        assert_eq!(atoms.len(), 1);
        assert_eq!(atoms[0].attr, "part");
        // De Morgan: NOT (o.a # "x" OR o.b # "y") ⇒ o.a = "x" AND o.b = "y".
        let body = not(ne(attr("o", "a"), cnst("x")).or(ne(attr("o", "b"), cnst("y"))));
        let atoms = extract_quant_atoms(&"o".to_string(), &body);
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].attr, "a");
        assert_eq!(atoms[1].attr, "b");
    }

    #[test]
    fn quant_plan_modes() {
        let var = "o".to_string();
        // SOME: witness atoms from the body.
        let body = eq(attr("o", "part"), attr("r", "front"));
        let plan = plan_quant_probe(&var, &body, true).unwrap();
        assert_eq!(plan.mode, QuantMode::Witness);
        assert_eq!(plan.atoms.len(), 1);
        // ALL over an implication NOT p OR q: falsifier p AND NOT q
        // yields p's equality atoms (NOT q contributes none here).
        let imp = not(eq(attr("o", "base"), attr("r", "front"))).or(lt(attr("o", "n"), cnst(3i64)));
        let plan = plan_quant_probe(&var, &imp, false).unwrap();
        assert_eq!(plan.mode, QuantMode::Falsifier);
        assert_eq!(plan.atoms.len(), 1);
        assert_eq!(plan.atoms[0].attr, "base");
        // ALL over a bare equality: no falsifier atoms (the falsifier is
        // an inequality), covering check instead.
        let conj = eq(attr("o", "part"), attr("r", "front"));
        let plan = plan_quant_probe(&var, &conj, false).unwrap();
        assert_eq!(plan.mode, QuantMode::Covering);
        // ALL with nothing extractable on either side.
        assert!(plan_quant_probe(&var, &lt(attr("o", "n"), cnst(3i64)), false).is_none());
    }

    #[test]
    fn all_implication_falsifier_collects_both_sides() {
        // ALL o (NOT (o.base = r.front) OR NOT (o.top = r.back)):
        // falsifier = o.base = r.front AND o.top = r.back — a
        // two-column probe key localising every counterexample.
        let var = "o".to_string();
        let imp = not(eq(attr("o", "base"), attr("r", "front")))
            .or(not(eq(attr("o", "top"), attr("r", "back"))));
        let plan = plan_quant_probe(&var, &imp, false).unwrap();
        assert_eq!(plan.mode, QuantMode::Falsifier);
        assert_eq!(plan.atoms.len(), 2, "{:?}", plan.atoms);
        assert_eq!(plan.atoms[0].attr, "base");
        assert_eq!(plan.atoms[1].attr, "top");
    }

    #[test]
    fn estimate_branch_rows_reflects_join_atoms() {
        let schema = edge_schema();
        let cards = [100, 60];
        let distinct = [[50, 20], [30, 10]];
        let known = |p: usize, c: usize| Some(distinct[p][c]);
        // Cross product, no atoms.
        let cross = Branch::projecting(
            vec![attr("a", "front")],
            vec![("a".into(), rel("R")), ("b".into(), rel("S"))],
            tru(),
        );
        let est = estimate_branch_rows(&cross, &[&schema, &schema], &cards, known);
        assert_eq!(est, 6000.0);
        // One join atom: reduced by 1/max(distinct) = 1/50, counted
        // once despite the symmetric atom pair.
        let join = Branch::projecting(
            vec![attr("a", "front")],
            vec![("a".into(), rel("R")), ("b".into(), rel("S"))],
            eq(attr("a", "front"), attr("b", "front")),
        );
        let est = estimate_branch_rows(&join, &[&schema, &schema], &cards, known);
        assert_eq!(est, 6000.0 / 50.0);
        // A count nothing holds reads as no information.
        let est = estimate_branch_rows(&join, &[&schema, &schema], &cards, |p, c| {
            (p == 1).then(|| known(p, c)).flatten()
        });
        assert_eq!(est, 6000.0 / 30.0);
        // An extra constant atom narrows further.
        let join_const = Branch::projecting(
            vec![attr("a", "front")],
            vec![("a".into(), rel("R")), ("b".into(), rel("S"))],
            eq(attr("a", "front"), attr("b", "front")).and(eq(attr("b", "back"), cnst("x"))),
        );
        let est = estimate_branch_rows(&join_const, &[&schema, &schema], &cards, known);
        assert_eq!(est, 6000.0 / 50.0 / 10.0);
    }

    #[test]
    fn no_atoms_degenerates_to_declaration_order() {
        let b = Branch::projecting(
            vec![attr("a", "front")],
            vec![("a".into(), rel("R")), ("b".into(), rel("S"))],
            tru(),
        );
        let schema = edge_schema();
        let (plan, _) = planned(
            &b,
            &[&schema, &schema],
            &[stats(9, &[3, 3]), stats(1, &[1, 1])],
        );
        assert_eq!(plan, BranchPlan::all_scans(2));
        assert!(!plan.has_probe());
    }

    #[test]
    fn asking_for_counts_plans_as_full_statistics_do() {
        // Generated 2–4-binding branches over three integer columns:
        // random cross-binding and constant equalities, random
        // cardinalities (small ones, so ties occur) and distinct
        // counts. `planned` checks each against the eager planner.
        let schema = Schema::of(&[("a", Domain::Int), ("b", Domain::Int), ("c", Domain::Int)]);
        let cols = ["a", "b", "c"];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        let mut binding_keyed_pairs = 0;
        for case in 0..2000 {
            let n = 2 + next(3);
            let vars: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
            let mut predicate = tru();
            for _ in 0..next(5) {
                let (i, j) = (next(n), next(n));
                let probed = attr(&vars[i], cols[next(3)]);
                predicate = predicate.and(if i == j {
                    eq(probed, cnst(next(9) as i64))
                } else {
                    eq(probed, attr(&vars[j], cols[next(3)]))
                });
            }
            let branch = Branch::projecting(
                vec![attr(&vars[0], "a")],
                vars.iter().map(|v| (v.clone(), rel("R"))).collect(),
                predicate,
            );
            let ranges: Vec<RelationStats> = (0..n)
                .map(|_| {
                    let card = 1 + next(if case % 2 == 0 { 8 } else { 1000 });
                    stats(card, &[1 + next(card), 1 + next(card), 1 + next(card)])
                })
                .collect();
            let (_, asked) = planned(&branch, &vec![&schema; n], &ranges);
            let atoms = extract_eq_atoms(&branch);
            if n == 2
                && atoms
                    .iter()
                    .all(|a| matches!(a.source, KeySource::Binding { .. }))
            {
                assert!(asked.is_empty(), "{branch:?}");
                binding_keyed_pairs += 1;
            }
        }
        assert!(binding_keyed_pairs > 100, "{binding_keyed_pairs}");
    }

    /// Definition store for read-profile tests: the `ahead` transitive
    /// closure constructor over formal `Rel`, plus a selector whose
    /// body quantifies over `Hidden`.
    struct TestDefs;

    impl DefLookup for TestDefs {
        fn selector_body(&self, name: &str) -> Option<&Formula> {
            use std::sync::OnceLock;
            static BODY: OnceLock<Formula> = OnceLock::new();
            (name == "shadowed").then(|| {
                BODY.get_or_init(|| {
                    some(
                        "h",
                        rel("Hidden"),
                        eq(attr("h", "front"), attr("r", "front")),
                    )
                })
            })
        }

        fn constructor_parts(&self, name: &str) -> Option<(&SetFormer, Vec<Name>)> {
            use std::sync::OnceLock;
            static BODY: OnceLock<SetFormer> = OnceLock::new();
            (name == "ahead").then(|| {
                let body = BODY.get_or_init(|| SetFormer {
                    branches: vec![
                        Branch::each("r", rel("Rel"), tru()),
                        Branch::projecting(
                            vec![attr("f", "front"), attr("b", "back")],
                            vec![
                                ("f".into(), rel("Rel")),
                                ("b".into(), rel("Rel").construct("ahead", vec![])),
                            ],
                            eq(attr("f", "back"), attr("b", "front")),
                        ),
                    ],
                });
                (body, vec!["Rel".into()])
            })
        }
    }

    fn names(set: &BTreeSet<Name>) -> Vec<&str> {
        set.iter().map(|n| n.as_str()).collect()
    }

    #[test]
    fn profile_collects_binding_and_predicate_reads() {
        let q = RangeExpr::SetFormer(SetFormer {
            branches: vec![Branch::projecting(
                vec![attr("f", "front"), attr("b", "back")],
                vec![("f".into(), rel("Infront")), ("b".into(), rel("Ontop"))],
                eq(attr("f", "back"), attr("b", "front")).and(not(member("f", rel("Blocked")))),
            )],
        });
        let p = base_relations(&q, &TestDefs);
        assert_eq!(names(&p.reads), ["Blocked", "Infront", "Ontop"]);
        assert!(!p.unresolved);
        assert!(p.disjoint_from(&["Other".into()]));
        assert!(!p.disjoint_from(&["Blocked".into()]));
    }

    #[test]
    fn profile_constructor_application_tracks_provenance() {
        // Infront{ahead()} — the body's formal `Rel` resolves to the
        // actual `Infront`; the recursive self-application is
        // cycle-guarded.
        let q = rel("Infront").construct("ahead", vec![]);
        let p = base_relations(&q, &TestDefs);
        assert_eq!(names(&p.reads), ["Infront"]);
        assert!(!p.unresolved);
    }

    #[test]
    fn profile_selector_bodies_are_chased() {
        let q = rel("Infront").select("shadowed", vec![]);
        let p = base_relations(&q, &TestDefs);
        assert_eq!(names(&p.reads), ["Hidden", "Infront"]);
    }

    #[test]
    fn profile_unknown_definitions_mark_unresolved() {
        let q = rel("Infront").select("mystery", vec![]);
        let p = base_relations(&q, &TestDefs);
        assert!(p.unresolved);
        // Unresolved profiles never qualify for filtering.
        assert!(!p.disjoint_from(&["Unrelated".into()]));
    }

    #[test]
    fn profile_computed_constructor_base_is_read() {
        // The application's base is itself a set former over `Seed`.
        let computed = RangeExpr::SetFormer(SetFormer {
            branches: vec![Branch::each("s", rel("Seed"), tru())],
        });
        let q = computed.construct("ahead", vec![]);
        let p = base_relations(&q, &TestDefs);
        assert_eq!(names(&p.reads), ["Seed"]);
    }
}
