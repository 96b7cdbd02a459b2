//! Formula normalisation and substitution utilities.
//!
//! * [`to_nnf`] implements the rewrite from the paper's monotonicity
//!   lemma (§3.3): push negations inward via generalised De Morgan and
//!   quantifier duality, eliminating double negations. After NNF, a
//!   positive expression contains no tracked occurrence under `NOT` —
//!   which makes monotonicity syntactically evident.
//! * [`substitute_rel`] / [`substitute_params_formula`] perform the
//!   formal → actual substitutions of §3.2 ("replacing all formal
//!   parameters by their actual values" when building the gⱼ
//!   functions); [`substitute_param_exprs_formula`] is the
//!   expression-level variant used to rewrite selector applications
//!   for decorrelation.
//! * [`relation_names`] / [`collect_constructed`] are the name analyses
//!   that drive constructor-application instantiation and the
//!   quant-graph partitioning of §4.

use dc_value::{FxHashMap, FxHashSet, Value};

use crate::ast::{Branch, Formula, Name, RangeExpr, ScalarExpr, SetFormer, Target};

/// Push negations inward (negation normal form).
///
/// `NOT` survives only directly over membership literals
/// (`NOT (r IN Rel)`), which have no sub-formulas.
pub fn to_nnf(f: Formula) -> Formula {
    match f {
        Formula::Not(inner) => negate_nnf(*inner),
        Formula::And(a, b) => Formula::And(Box::new(to_nnf(*a)), Box::new(to_nnf(*b))),
        Formula::Or(a, b) => Formula::Or(Box::new(to_nnf(*a)), Box::new(to_nnf(*b))),
        Formula::Some(v, r, body) => Formula::Some(v, r, Box::new(to_nnf(*body))),
        Formula::All(v, r, body) => Formula::All(v, r, Box::new(to_nnf(*body))),
        leaf => leaf,
    }
}

/// NNF of `NOT f`.
fn negate_nnf(f: Formula) -> Formula {
    match f {
        Formula::True => Formula::False,
        Formula::False => Formula::True,
        Formula::Not(inner) => to_nnf(*inner),
        // Comparisons absorb the negation into the operator.
        Formula::Cmp(l, op, r) => Formula::Cmp(l, op.negate(), r),
        // Generalised De Morgan.
        Formula::And(a, b) => Formula::Or(Box::new(negate_nnf(*a)), Box::new(negate_nnf(*b))),
        Formula::Or(a, b) => Formula::And(Box::new(negate_nnf(*a)), Box::new(negate_nnf(*b))),
        // Range-coupled quantifier duality:
        // NOT SOME v IN R (p) ≡ ALL v IN R (NOT p), and dually.
        Formula::Some(v, r, body) => Formula::All(v, r, Box::new(negate_nnf(*body))),
        Formula::All(v, r, body) => Formula::Some(v, r, Box::new(negate_nnf(*body))),
        // Membership literals keep an explicit NOT.
        leaf @ (Formula::Member(..) | Formula::TupleIn(..)) => Formula::Not(Box::new(leaf)),
    }
}

/// Substitute relation names with range expressions throughout a range
/// expression. Used to instantiate constructor bodies: the formal base
/// name (`Rel`) and formal relation parameters (`Ontop`) are mapped to
/// their actuals.
pub fn substitute_rel(range: &RangeExpr, map: &FxHashMap<Name, RangeExpr>) -> RangeExpr {
    match range {
        RangeExpr::Rel(n) => map.get(n).cloned().unwrap_or_else(|| range.clone()),
        RangeExpr::Selected {
            base,
            selector,
            args,
        } => RangeExpr::Selected {
            base: Box::new(substitute_rel(base, map)),
            selector: selector.clone(),
            args: args.clone(),
        },
        RangeExpr::Constructed {
            base,
            constructor,
            args,
            scalar_args,
        } => RangeExpr::Constructed {
            base: Box::new(substitute_rel(base, map)),
            constructor: constructor.clone(),
            args: args.iter().map(|a| substitute_rel(a, map)).collect(),
            scalar_args: scalar_args.clone(),
        },
        RangeExpr::SetFormer(sf) => RangeExpr::SetFormer(SetFormer {
            branches: sf
                .branches
                .iter()
                .map(|b| Branch {
                    target: b.target.clone(),
                    bindings: b
                        .bindings
                        .iter()
                        .map(|(v, r)| (v.clone(), substitute_rel(r, map)))
                        .collect(),
                    predicate: substitute_rel_formula(&b.predicate, map),
                })
                .collect(),
        }),
    }
}

/// Substitute relation names inside a formula.
pub fn substitute_rel_formula(f: &Formula, map: &FxHashMap<Name, RangeExpr>) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Cmp(..) => f.clone(),
        Formula::And(a, b) => Formula::And(
            Box::new(substitute_rel_formula(a, map)),
            Box::new(substitute_rel_formula(b, map)),
        ),
        Formula::Or(a, b) => Formula::Or(
            Box::new(substitute_rel_formula(a, map)),
            Box::new(substitute_rel_formula(b, map)),
        ),
        Formula::Not(inner) => Formula::Not(Box::new(substitute_rel_formula(inner, map))),
        Formula::Some(v, r, body) => Formula::Some(
            v.clone(),
            substitute_rel(r, map),
            Box::new(substitute_rel_formula(body, map)),
        ),
        Formula::All(v, r, body) => Formula::All(
            v.clone(),
            substitute_rel(r, map),
            Box::new(substitute_rel_formula(body, map)),
        ),
        Formula::Member(v, r) => Formula::Member(v.clone(), substitute_rel(r, map)),
        Formula::TupleIn(exprs, r) => Formula::TupleIn(exprs.clone(), substitute_rel(r, map)),
    }
}

/// Substitute scalar parameters with arbitrary scalar *expressions*
/// inside a scalar expression. The expression-level generalisation of
/// [`substitute_params_scalar`]: where that function fills `Param`
/// holes with constants (§3.2's partial evaluation), this one fills
/// them with actual-argument expressions — used to rewrite a selector
/// application `base[s(args)]` into the equivalent filter
/// `{EACH el IN base: pred[params := args]}` so that correlated
/// selector arguments become analysable correlation atoms
/// (see `joinplan::decorrelate_filter`).
///
/// The caller owns capture avoidance: substituted expressions must not
/// mention variables bound inside the formula they are substituted
/// into.
pub fn substitute_param_exprs_scalar(
    e: &ScalarExpr,
    map: &FxHashMap<Name, ScalarExpr>,
) -> ScalarExpr {
    match e {
        ScalarExpr::Param(p) => match map.get(p) {
            Some(actual) => actual.clone(),
            None => e.clone(),
        },
        ScalarExpr::Arith(l, op, r) => ScalarExpr::Arith(
            Box::new(substitute_param_exprs_scalar(l, map)),
            *op,
            Box::new(substitute_param_exprs_scalar(r, map)),
        ),
        _ => e.clone(),
    }
}

/// Substitute scalar parameters with scalar expressions throughout a
/// formula — see [`substitute_param_exprs_scalar`].
pub fn substitute_param_exprs_formula(f: &Formula, map: &FxHashMap<Name, ScalarExpr>) -> Formula {
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Cmp(l, op, r) => Formula::Cmp(
            substitute_param_exprs_scalar(l, map),
            *op,
            substitute_param_exprs_scalar(r, map),
        ),
        Formula::And(a, b) => Formula::And(
            Box::new(substitute_param_exprs_formula(a, map)),
            Box::new(substitute_param_exprs_formula(b, map)),
        ),
        Formula::Or(a, b) => Formula::Or(
            Box::new(substitute_param_exprs_formula(a, map)),
            Box::new(substitute_param_exprs_formula(b, map)),
        ),
        Formula::Not(inner) => Formula::Not(Box::new(substitute_param_exprs_formula(inner, map))),
        Formula::Some(v, r, body) => Formula::Some(
            v.clone(),
            substitute_param_exprs_range(r, map),
            Box::new(substitute_param_exprs_formula(body, map)),
        ),
        Formula::All(v, r, body) => Formula::All(
            v.clone(),
            substitute_param_exprs_range(r, map),
            Box::new(substitute_param_exprs_formula(body, map)),
        ),
        Formula::Member(v, r) => Formula::Member(v.clone(), substitute_param_exprs_range(r, map)),
        Formula::TupleIn(exprs, r) => Formula::TupleIn(
            exprs
                .iter()
                .map(|e| substitute_param_exprs_scalar(e, map))
                .collect(),
            substitute_param_exprs_range(r, map),
        ),
    }
}

/// Substitute scalar parameters with scalar expressions throughout a
/// range expression — see [`substitute_param_exprs_scalar`].
pub fn substitute_param_exprs_range(r: &RangeExpr, map: &FxHashMap<Name, ScalarExpr>) -> RangeExpr {
    match r {
        RangeExpr::Rel(_) => r.clone(),
        RangeExpr::Selected {
            base,
            selector,
            args,
        } => RangeExpr::Selected {
            base: Box::new(substitute_param_exprs_range(base, map)),
            selector: selector.clone(),
            args: args
                .iter()
                .map(|a| substitute_param_exprs_scalar(a, map))
                .collect(),
        },
        RangeExpr::Constructed {
            base,
            constructor,
            args,
            scalar_args,
        } => RangeExpr::Constructed {
            base: Box::new(substitute_param_exprs_range(base, map)),
            constructor: constructor.clone(),
            args: args
                .iter()
                .map(|a| substitute_param_exprs_range(a, map))
                .collect(),
            scalar_args: scalar_args
                .iter()
                .map(|s| substitute_param_exprs_scalar(s, map))
                .collect(),
        },
        RangeExpr::SetFormer(sf) => {
            RangeExpr::SetFormer(substitute_param_exprs_set_former(sf, map))
        }
    }
}

fn substitute_param_exprs_set_former(
    sf: &SetFormer,
    map: &FxHashMap<Name, ScalarExpr>,
) -> SetFormer {
    SetFormer {
        branches: sf
            .branches
            .iter()
            .map(|b| Branch {
                target: match &b.target {
                    Target::Var(v) => Target::Var(v.clone()),
                    Target::Tuple(exprs) => Target::Tuple(
                        exprs
                            .iter()
                            .map(|e| substitute_param_exprs_scalar(e, map))
                            .collect(),
                    ),
                },
                bindings: b
                    .bindings
                    .iter()
                    .map(|(v, range)| (v.clone(), substitute_param_exprs_range(range, map)))
                    .collect(),
                predicate: substitute_param_exprs_formula(&b.predicate, map),
            })
            .collect(),
    }
}

/// Collect every variable *bound* anywhere inside a formula: quantifier
/// variables and set-former binding variables. Used for capture checks
/// before [`substitute_param_exprs_formula`]: an actual-argument
/// expression mentioning one of these names must not be substituted in.
pub fn bound_vars_formula(f: &Formula, out: &mut FxHashSet<Name>) {
    match f {
        Formula::True | Formula::False | Formula::Cmp(..) => {}
        Formula::And(a, b) | Formula::Or(a, b) => {
            bound_vars_formula(a, out);
            bound_vars_formula(b, out);
        }
        Formula::Not(inner) => bound_vars_formula(inner, out),
        Formula::Some(v, r, body) | Formula::All(v, r, body) => {
            out.insert(v.clone());
            bound_vars_range(r, out);
            bound_vars_formula(body, out);
        }
        Formula::Member(_, r) | Formula::TupleIn(_, r) => bound_vars_range(r, out),
    }
}

/// Collect every variable bound anywhere inside a range expression —
/// see [`bound_vars_formula`].
pub fn bound_vars_range(r: &RangeExpr, out: &mut FxHashSet<Name>) {
    match r {
        RangeExpr::Rel(_) => {}
        RangeExpr::Selected { base, .. } => bound_vars_range(base, out),
        RangeExpr::Constructed { base, args, .. } => {
            bound_vars_range(base, out);
            for a in args {
                bound_vars_range(a, out);
            }
        }
        RangeExpr::SetFormer(sf) => {
            for b in &sf.branches {
                for (v, range) in &b.bindings {
                    out.insert(v.clone());
                    bound_vars_range(range, out);
                }
                bound_vars_formula(&b.predicate, out);
            }
        }
    }
}

/// Lift a value map into an expression map (`Param` holes filled with
/// `Const` leaves), so the value-substitution entry points below can
/// delegate to the expression-level walkers instead of duplicating the
/// traversal.
fn const_exprs(map: &FxHashMap<Name, Value>) -> FxHashMap<Name, ScalarExpr> {
    map.iter()
        .map(|(k, v)| (k.clone(), ScalarExpr::Const(v.clone())))
        .collect()
}

/// Substitute scalar parameters with constants inside a scalar
/// expression (partial evaluation of `Param` holes) — the
/// constant-valued special case of [`substitute_param_exprs_scalar`].
pub fn substitute_params_scalar(e: &ScalarExpr, map: &FxHashMap<Name, Value>) -> ScalarExpr {
    substitute_param_exprs_scalar(e, &const_exprs(map))
}

/// Substitute scalar parameters throughout a formula — the
/// constant-valued special case of [`substitute_param_exprs_formula`].
pub fn substitute_params_formula(f: &Formula, map: &FxHashMap<Name, Value>) -> Formula {
    substitute_param_exprs_formula(f, &const_exprs(map))
}

/// Substitute scalar parameters throughout a range expression (selector
/// arguments may mention parameters of an enclosing definition) — the
/// constant-valued special case of [`substitute_param_exprs_range`].
pub fn substitute_params_range(r: &RangeExpr, map: &FxHashMap<Name, Value>) -> RangeExpr {
    substitute_param_exprs_range(r, &const_exprs(map))
}

/// Substitute scalar parameters throughout a set-former — §3.2's
/// partial evaluation of a constructor body for one application.
pub fn substitute_params_set_former(sf: &SetFormer, map: &FxHashMap<Name, Value>) -> SetFormer {
    substitute_param_exprs_set_former(sf, &const_exprs(map))
}

/// Collect every relation name referenced anywhere in a range
/// expression.
pub fn relation_names(range: &RangeExpr) -> FxHashSet<Name> {
    let mut out = FxHashSet::default();
    collect_names_range(range, &mut out);
    out
}

/// Collect every relation name referenced anywhere in a formula.
pub fn relation_names_formula(f: &Formula) -> FxHashSet<Name> {
    let mut out = FxHashSet::default();
    collect_names_formula(f, &mut out);
    out
}

fn collect_names_range(r: &RangeExpr, out: &mut FxHashSet<Name>) {
    match r {
        RangeExpr::Rel(n) => {
            out.insert(n.clone());
        }
        RangeExpr::Selected { base, .. } => collect_names_range(base, out),
        RangeExpr::Constructed { base, args, .. } => {
            collect_names_range(base, out);
            for a in args {
                collect_names_range(a, out);
            }
        }
        RangeExpr::SetFormer(sf) => {
            for b in &sf.branches {
                for (_, range) in &b.bindings {
                    collect_names_range(range, out);
                }
                collect_names_formula(&b.predicate, out);
            }
        }
    }
}

fn collect_names_formula(f: &Formula, out: &mut FxHashSet<Name>) {
    match f {
        Formula::True | Formula::False | Formula::Cmp(..) => {}
        Formula::And(a, b) | Formula::Or(a, b) => {
            collect_names_formula(a, out);
            collect_names_formula(b, out);
        }
        Formula::Not(inner) => collect_names_formula(inner, out),
        Formula::Some(_, r, body) | Formula::All(_, r, body) => {
            collect_names_range(r, out);
            collect_names_formula(body, out);
        }
        Formula::Member(_, r) | Formula::TupleIn(_, r) => collect_names_range(r, out),
    }
}

/// Collect every selector name applied anywhere in a range expression.
/// Together with [`relation_names`] this drives the overlay's
/// decorrelation-cache shareability check: a selector *body* may
/// resolve relation names of its own, so callers expand the collected
/// selectors' predicates transitively.
pub fn selector_names(range: &RangeExpr) -> FxHashSet<Name> {
    let mut out = FxHashSet::default();
    collect_selectors_range(range, &mut out);
    out
}

/// Collect every selector name applied anywhere in a formula — see
/// [`selector_names`].
pub fn selector_names_formula(f: &Formula) -> FxHashSet<Name> {
    let mut out = FxHashSet::default();
    collect_selectors_formula(f, &mut out);
    out
}

fn collect_selectors_range(r: &RangeExpr, out: &mut FxHashSet<Name>) {
    match r {
        RangeExpr::Rel(_) => {}
        RangeExpr::Selected { base, selector, .. } => {
            out.insert(selector.clone());
            collect_selectors_range(base, out);
        }
        RangeExpr::Constructed { base, args, .. } => {
            collect_selectors_range(base, out);
            for a in args {
                collect_selectors_range(a, out);
            }
        }
        RangeExpr::SetFormer(sf) => {
            for b in &sf.branches {
                for (_, range) in &b.bindings {
                    collect_selectors_range(range, out);
                }
                collect_selectors_formula(&b.predicate, out);
            }
        }
    }
}

fn collect_selectors_formula(f: &Formula, out: &mut FxHashSet<Name>) {
    match f {
        Formula::True | Formula::False | Formula::Cmp(..) => {}
        Formula::And(a, b) | Formula::Or(a, b) => {
            collect_selectors_formula(a, out);
            collect_selectors_formula(b, out);
        }
        Formula::Not(inner) => collect_selectors_formula(inner, out),
        Formula::Some(_, r, body) | Formula::All(_, r, body) => {
            collect_selectors_range(r, out);
            collect_selectors_formula(body, out);
        }
        Formula::Member(_, r) | Formula::TupleIn(_, r) => collect_selectors_range(r, out),
    }
}

/// Collect every scalar-parameter name (`ScalarExpr::Param` leaf)
/// referenced anywhere in a range expression — comparison operands,
/// selector arguments, constructor scalar arguments, set-former
/// targets, and tuple-membership expressions, through arithmetic.
/// Drives the solver's snapshot-universe capture: every parameter a
/// frozen evaluation could resolve is pre-fetched from the base
/// catalog.
pub fn param_names(range: &RangeExpr) -> FxHashSet<Name> {
    let mut out = FxHashSet::default();
    collect_params_range(range, &mut out);
    out
}

/// Collect every scalar-parameter name referenced anywhere in a
/// formula — see [`param_names`].
pub fn param_names_formula(f: &Formula) -> FxHashSet<Name> {
    let mut out = FxHashSet::default();
    collect_params_formula(f, &mut out);
    out
}

pub(crate) fn collect_params_scalar(e: &ScalarExpr, out: &mut FxHashSet<Name>) {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::Attr(..) => {}
        ScalarExpr::Param(n) => {
            out.insert(n.clone());
        }
        ScalarExpr::Arith(a, _, b) => {
            collect_params_scalar(a, out);
            collect_params_scalar(b, out);
        }
    }
}

fn collect_params_range(r: &RangeExpr, out: &mut FxHashSet<Name>) {
    match r {
        RangeExpr::Rel(_) => {}
        RangeExpr::Selected { base, args, .. } => {
            collect_params_range(base, out);
            for a in args {
                collect_params_scalar(a, out);
            }
        }
        RangeExpr::Constructed {
            base,
            args,
            scalar_args,
            ..
        } => {
            collect_params_range(base, out);
            for a in args {
                collect_params_range(a, out);
            }
            for s in scalar_args {
                collect_params_scalar(s, out);
            }
        }
        RangeExpr::SetFormer(sf) => {
            for b in &sf.branches {
                if let Target::Tuple(exprs) = &b.target {
                    for e in exprs {
                        collect_params_scalar(e, out);
                    }
                }
                for (_, range) in &b.bindings {
                    collect_params_range(range, out);
                }
                collect_params_formula(&b.predicate, out);
            }
        }
    }
}

fn collect_params_formula(f: &Formula, out: &mut FxHashSet<Name>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Cmp(a, _, b) => {
            collect_params_scalar(a, out);
            collect_params_scalar(b, out);
        }
        Formula::And(a, b) | Formula::Or(a, b) => {
            collect_params_formula(a, out);
            collect_params_formula(b, out);
        }
        Formula::Not(inner) => collect_params_formula(inner, out),
        Formula::Some(_, r, body) | Formula::All(_, r, body) => {
            collect_params_range(r, out);
            collect_params_formula(body, out);
        }
        Formula::Member(_, r) => collect_params_range(r, out),
        Formula::TupleIn(exprs, r) => {
            for e in exprs {
                collect_params_scalar(e, out);
            }
            collect_params_range(r, out);
        }
    }
}

/// Collect every constructor application (`Constructed` node) in a range
/// expression, in pre-order.
pub fn collect_constructed(range: &RangeExpr) -> Vec<RangeExpr> {
    let mut out = Vec::new();
    collect_constructed_range(range, &mut out);
    out
}

/// Collect every constructor application in a formula (quantifier and
/// membership ranges), in pre-order — see [`collect_constructed`].
pub fn collect_constructed_formula(f: &Formula) -> Vec<RangeExpr> {
    let mut out = Vec::new();
    collect_constructed_in_formula(f, &mut out);
    out
}

fn collect_constructed_range(r: &RangeExpr, out: &mut Vec<RangeExpr>) {
    match r {
        RangeExpr::Rel(_) => {}
        RangeExpr::Selected { base, .. } => collect_constructed_range(base, out),
        RangeExpr::Constructed { base, args, .. } => {
            out.push(r.clone());
            collect_constructed_range(base, out);
            for a in args {
                collect_constructed_range(a, out);
            }
        }
        RangeExpr::SetFormer(sf) => {
            for b in &sf.branches {
                for (_, range) in &b.bindings {
                    collect_constructed_range(range, out);
                }
                collect_constructed_in_formula(&b.predicate, out);
            }
        }
    }
}

fn collect_constructed_in_formula(f: &Formula, out: &mut Vec<RangeExpr>) {
    match f {
        Formula::True | Formula::False | Formula::Cmp(..) => {}
        Formula::And(a, b) | Formula::Or(a, b) => {
            collect_constructed_in_formula(a, out);
            collect_constructed_in_formula(b, out);
        }
        Formula::Not(inner) => collect_constructed_in_formula(inner, out),
        Formula::Some(_, r, body) | Formula::All(_, r, body) => {
            collect_constructed_range(r, out);
            collect_constructed_in_formula(body, out);
        }
        Formula::Member(_, r) | Formula::TupleIn(_, r) => collect_constructed_range(r, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use crate::builder::*;

    #[test]
    fn param_names_cover_every_scalar_position() {
        // Params hide in: a comparison operand (through arithmetic), a
        // selector argument, a quantifier body, a tuple target, and a
        // TupleIn expression list.
        let range = set_former(vec![Branch::projecting(
            vec![add(attr("r", "a"), param("p_target"))],
            vec![
                ("r".into(), rel("R").select("vis", vec![param("p_selarg")])),
                ("s".into(), rel("S")),
            ],
            eq(attr("r", "a"), add(cnst(1i64), param("p_cmp")))
                .and(some(
                    "x",
                    rel("T"),
                    tuple_in(vec![param("p_tuplein")], rel("U")),
                ))
                .and(not(eq(attr("s", "b"), param("p_neg")))),
        )]);
        let names = param_names(&range);
        for expected in ["p_target", "p_selarg", "p_cmp", "p_tuplein", "p_neg"] {
            assert!(names.contains(expected), "missing {expected}: {names:?}");
        }
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn nnf_pushes_through_connectives() {
        // NOT (a = 1 AND SOME x IN R (TRUE))
        let f = Formula::Not(Box::new(eq(attr("r", "a"), cnst(1i64)).and(some(
            "x",
            rel("R"),
            tru(),
        ))));
        let nnf = to_nnf(f);
        // ⇒ a # 1 OR ALL x IN R (FALSE)
        match nnf {
            Formula::Or(l, r) => {
                assert!(matches!(*l, Formula::Cmp(_, CmpOp::Ne, _)));
                assert!(matches!(*r, Formula::All(..)));
            }
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn nnf_double_negation() {
        let f = Formula::Not(Box::new(Formula::Not(Box::new(tru()))));
        assert_eq!(to_nnf(f), Formula::True);
    }

    #[test]
    fn nnf_quantifier_duality() {
        let f = Formula::Not(Box::new(all("x", rel("R"), eq(attr("x", "a"), cnst(1i64)))));
        match to_nnf(f) {
            Formula::Some(_, _, body) => {
                assert!(matches!(*body, Formula::Cmp(_, CmpOp::Ne, _)));
            }
            other => panic!("expected Some, got {other}"),
        }
    }

    #[test]
    fn nnf_keeps_membership_literals() {
        let f = Formula::Not(Box::new(member("r", rel("R"))));
        assert!(matches!(to_nnf(f), Formula::Not(_)));
    }

    #[test]
    fn monotone_after_nnf_for_positive_exprs() {
        use crate::positivity::{check_formula, Tracked};
        // NOT NOT (r IN Rec) is positive; after NNF no NOT remains.
        let f = Formula::Not(Box::new(Formula::Not(Box::new(member("r", rel("Rec"))))));
        assert!(check_formula(&f, &Tracked::name("Rec")).is_empty());
        let nnf = to_nnf(f);
        assert_eq!(nnf, member("r", rel("Rec")));
    }

    #[test]
    fn substitute_rel_replaces_names() {
        let mut map = FxHashMap::default();
        map.insert("Rel".to_string(), rel("Infront"));
        let body = set_former(vec![Branch::projecting(
            vec![attr("f", "front")],
            vec![
                ("f".into(), rel("Rel")),
                (
                    "b".into(),
                    rel("Rel").construct("ahead", vec![rel("Ontop")]),
                ),
            ],
            member("f", rel("Rel")),
        )]);
        let out = substitute_rel(&body, &map);
        let names = relation_names(&out);
        assert!(names.contains("Infront"));
        assert!(names.contains("Ontop"));
        assert!(!names.contains("Rel"));
    }

    #[test]
    fn substitute_params_makes_constants() {
        let mut map = FxHashMap::default();
        map.insert("Obj".to_string(), dc_value::Value::str("table"));
        let f = eq(attr("r", "front"), param("Obj"));
        let out = substitute_params_formula(&f, &map);
        assert_eq!(out, eq(attr("r", "front"), cnst("table")));
        // Unknown params survive untouched.
        let g = eq(param("Other"), cnst(1i64));
        assert_eq!(substitute_params_formula(&g, &map), g);
    }

    #[test]
    fn substitute_params_in_arith_and_targets() {
        let mut map = FxHashMap::default();
        map.insert("K".to_string(), dc_value::Value::Int(5));
        let r = set_former(vec![Branch::projecting(
            vec![add(param("K"), attr("r", "n"))],
            vec![("r".into(), rel("N"))],
            lt(attr("r", "n"), param("K")),
        )]);
        let out = substitute_params_range(&r, &map);
        let shown = out.to_string();
        assert!(shown.contains('5'));
        assert!(!shown.contains('K'));
    }

    #[test]
    fn substitute_param_exprs_fills_holes_with_expressions() {
        let mut map = FxHashMap::default();
        map.insert("B".to_string(), attr("r", "front"));
        // Selector predicate `t.base = B` becomes the correlated filter
        // `t.base = r.front`.
        let f = eq(attr("t", "base"), param("B"));
        let out = substitute_param_exprs_formula(&f, &map);
        assert_eq!(out, eq(attr("t", "base"), attr("r", "front")));
        // Nested ranges (selector args, set-former predicates) are
        // reached too; unknown params survive untouched.
        let g = some(
            "x",
            rel("R").select("s", vec![param("B"), param("Other")]),
            lt(param("B"), cnst(3i64)),
        );
        let out = substitute_param_exprs_formula(&g, &map);
        let shown = out.to_string();
        assert!(shown.contains("r.front"));
        assert!(shown.contains("Other"));
        assert!(!shown.contains("s(B"));
    }

    #[test]
    fn bound_vars_collected_from_quantifiers_and_set_formers() {
        let f = some(
            "x",
            set_former(vec![Branch::each("y", rel("R"), tru())]),
            all("z", rel("S"), tru()),
        );
        let mut out = FxHashSet::default();
        bound_vars_formula(&f, &mut out);
        for v in ["x", "y", "z"] {
            assert!(out.contains(v), "{v}");
        }
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn relation_names_finds_all() {
        let e = set_former(vec![Branch::each(
            "r",
            rel("A").select("s", vec![]),
            some("x", rel("B"), all("y", rel("C"), member("y", rel("D")))),
        )]);
        let names = relation_names(&e);
        for n in ["A", "B", "C", "D"] {
            assert!(names.contains(n), "{n}");
        }
    }

    #[test]
    fn collect_constructed_finds_nested() {
        let e = set_former(vec![Branch::each(
            "r",
            rel("A").construct("c1", vec![rel("B").construct("c2", vec![])]),
            tru(),
        )]);
        let apps = collect_constructed(&e);
        assert_eq!(apps.len(), 2);
        assert!(matches!(
            &apps[0],
            RangeExpr::Constructed { constructor, .. } if constructor == "c1"
        ));
        assert!(matches!(
            &apps[1],
            RangeExpr::Constructed { constructor, .. } if constructor == "c2"
        ));
    }
}
