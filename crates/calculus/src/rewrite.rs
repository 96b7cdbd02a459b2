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
//!   expression-level variant that turns a selector application into
//!   the equivalent set-former.
//! * [`unnest_quantifier`] is §4's range nesting run backwards — N2/N3
//!   with Case 2's target substitution — over the tuple-variable
//!   substitutions [`rename_var`] and [`substitute_attr_refs`] (with
//!   [`target_map`]), which `dc-optimizer`'s predicate push-down uses
//!   too.
//! * [`relation_names`] / [`collect_constructed`] are the name analyses
//!   that drive constructor-application instantiation and the
//!   quant-graph partitioning of §4.

use std::convert::Infallible;

use dc_value::{FxHashMap, FxHashSet, Value};

use crate::ast::{Branch, Formula, Name, RangeExpr, ScalarExpr, SetFormer, Target, Var};
use crate::error::EvalError;

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
/// `{EACH el IN base: pred[params := args]}`, which
/// [`unnest_quantifier`] then turns into a quantifier over `base`.
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

/// Does the expression mention any of the given variable names?
pub(crate) fn scalar_mentions_any(e: &ScalarExpr, names: &FxHashSet<Name>) -> bool {
    match e {
        ScalarExpr::Const(_) | ScalarExpr::Param(_) => false,
        ScalarExpr::Attr(v, _) => names.contains(v),
        ScalarExpr::Arith(l, _, r) => {
            scalar_mentions_any(l, names) || scalar_mentions_any(r, names)
        }
    }
}

/// Rewrites the free occurrences of one tuple variable: each `var.attr`
/// through `attr`, each whole-tuple membership `var IN S` through
/// `whole` (handed the rewritten `S`). A quantifier or set-former
/// branch that binds `var` again shadows it. Ranges are rewritten too:
/// they are evaluated where `var` is visible — a branch's binding
/// ranges before the branch's own variables are bound.
struct VarSubst<'a, E> {
    var: &'a str,
    attr: &'a dyn Fn(&str) -> Result<ScalarExpr, E>,
    whole: &'a dyn Fn(RangeExpr) -> Result<Formula, E>,
}

impl<E> VarSubst<'_, E> {
    fn scalar(&self, e: &ScalarExpr) -> Result<ScalarExpr, E> {
        Ok(match e {
            ScalarExpr::Attr(v, a) if v == self.var => (self.attr)(a)?,
            ScalarExpr::Arith(l, op, r) => {
                ScalarExpr::Arith(Box::new(self.scalar(l)?), *op, Box::new(self.scalar(r)?))
            }
            other => other.clone(),
        })
    }

    fn scalars(&self, es: &[ScalarExpr]) -> Result<Vec<ScalarExpr>, E> {
        es.iter().map(|e| self.scalar(e)).collect()
    }

    fn formula(&self, f: &Formula) -> Result<Formula, E> {
        Ok(match f {
            Formula::True | Formula::False => f.clone(),
            Formula::Cmp(l, op, r) => Formula::Cmp(self.scalar(l)?, *op, self.scalar(r)?),
            Formula::And(a, b) => {
                Formula::And(Box::new(self.formula(a)?), Box::new(self.formula(b)?))
            }
            Formula::Or(a, b) => {
                Formula::Or(Box::new(self.formula(a)?), Box::new(self.formula(b)?))
            }
            Formula::Not(inner) => Formula::Not(Box::new(self.formula(inner)?)),
            Formula::Some(v, r, body) => {
                Formula::Some(v.clone(), self.range(r)?, Box::new(self.scoped(v, body)?))
            }
            Formula::All(v, r, body) => {
                Formula::All(v.clone(), self.range(r)?, Box::new(self.scoped(v, body)?))
            }
            Formula::Member(v, r) if v == self.var => (self.whole)(self.range(r)?)?,
            Formula::Member(v, r) => Formula::Member(v.clone(), self.range(r)?),
            Formula::TupleIn(es, r) => Formula::TupleIn(self.scalars(es)?, self.range(r)?),
        })
    }

    /// A quantifier body under a binding of `v`.
    fn scoped(&self, v: &str, body: &Formula) -> Result<Formula, E> {
        if v == self.var {
            Ok(body.clone())
        } else {
            self.formula(body)
        }
    }

    fn range(&self, r: &RangeExpr) -> Result<RangeExpr, E> {
        Ok(match r {
            RangeExpr::Rel(_) => r.clone(),
            RangeExpr::Selected {
                base,
                selector,
                args,
            } => RangeExpr::Selected {
                base: Box::new(self.range(base)?),
                selector: selector.clone(),
                args: self.scalars(args)?,
            },
            RangeExpr::Constructed {
                base,
                constructor,
                args,
                scalar_args,
            } => RangeExpr::Constructed {
                base: Box::new(self.range(base)?),
                constructor: constructor.clone(),
                args: args
                    .iter()
                    .map(|a| self.range(a))
                    .collect::<Result<_, _>>()?,
                scalar_args: self.scalars(scalar_args)?,
            },
            RangeExpr::SetFormer(sf) => RangeExpr::SetFormer(SetFormer {
                branches: sf
                    .branches
                    .iter()
                    .map(|b| self.branch(b))
                    .collect::<Result<_, _>>()?,
            }),
        })
    }

    fn branch(&self, b: &Branch) -> Result<Branch, E> {
        let bindings = b
            .bindings
            .iter()
            .map(|(v, r)| Ok((v.clone(), self.range(r)?)))
            .collect::<Result<_, _>>()?;
        if b.bindings.iter().any(|(v, _)| v == self.var) {
            return Ok(Branch {
                target: b.target.clone(),
                bindings,
                predicate: b.predicate.clone(),
            });
        }
        Ok(Branch {
            target: match &b.target {
                Target::Var(v) => Target::Var(v.clone()),
                Target::Tuple(es) => Target::Tuple(self.scalars(es)?),
            },
            bindings,
            predicate: self.formula(&b.predicate)?,
        })
    }
}

/// Run `walk` with the substitution renaming tuple variable `from` to
/// `to`.
fn renamed<T>(
    from: &str,
    to: &str,
    walk: impl FnOnce(&VarSubst<'_, Infallible>) -> Result<T, Infallible>,
) -> T {
    let attr = |a: &str| Ok(ScalarExpr::Attr(to.to_string(), a.to_string()));
    let whole = |s| Ok(Formula::Member(to.to_string(), s));
    let Ok(t) = walk(&VarSubst {
        var: from,
        attr: &attr,
        whole: &whole,
    });
    t
}

/// Rename every free reference to tuple variable `from` into `to`
/// (used when merging branch scopes), respecting shadowing and reaching
/// nested ranges.
pub fn rename_var(f: &Formula, from: &str, to: &str) -> Formula {
    renamed(from, to, |s| s.formula(f))
}

/// Does `f` mention tuple variable `var` free?
fn mentions_var(f: &Formula, var: &str) -> bool {
    VarSubst {
        var,
        attr: &|_| Err(()),
        whole: &|_| Err(()),
    }
    .formula(f)
    .is_err()
}

/// Case 2's attribute map of a branch target whose result attributes
/// are named `result_names`, in order — for constructor bodies, the
/// declared result schema: result attribute → the target's expression
/// at it. `None` when a tuple target's arity differs.
pub fn target_map(target: &Target, result_names: &[String]) -> Option<FxHashMap<Name, ScalarExpr>> {
    Some(match target {
        // Result attribute `f` is the bound tuple's own `f`: the range's
        // attribute names equal the result names for a copy branch.
        Target::Var(v) => result_names
            .iter()
            .map(|name| (name.clone(), ScalarExpr::Attr(v.clone(), name.clone())))
            .collect(),
        Target::Tuple(exprs) => {
            if exprs.len() != result_names.len() {
                return None;
            }
            result_names
                .iter()
                .cloned()
                .zip(exprs.iter().cloned())
                .collect()
        }
    })
}

/// Substitute the free references `var.attr` in `f` by the expressions
/// of `target`'s [`target_map`] `map` (Case 2: "substitute r.f by x.g
/// if x.g appears in the position f of the constructor's target
/// list"), and whole-tuple membership `var IN R` by the target's:
/// `<t> IN R`, or `v IN R` for a target yielding the tuple of its
/// variable `v`. An attribute the target does not produce is the
/// reference path's `UnknownAttribute`.
pub fn substitute_attr_refs(
    f: &Formula,
    var: &str,
    target: &Target,
    map: &FxHashMap<Name, ScalarExpr>,
) -> Result<Formula, EvalError> {
    let attr = |a: &str| {
        map.get(a).cloned().ok_or_else(|| {
            EvalError::Type(dc_value::TypeError::UnknownAttribute {
                name: a.to_string(),
            })
        })
    };
    let whole = |s| {
        Ok(match target {
            Target::Var(v) => Formula::Member(v.clone(), s),
            Target::Tuple(exprs) => Formula::TupleIn(exprs.clone(), s),
        })
    };
    VarSubst {
        var,
        attr: &attr,
        whole: &whole,
    }
    .formula(f)
}

/// The attribute names a `<e1, …, ek>` target gives its result: a field
/// reference keeps its attribute's name, a parameter its own, anything
/// else is `f<position>`; a repeated name gets `_` appended until it is
/// unique.
pub fn target_names(exprs: &[ScalarExpr]) -> Vec<String> {
    let mut used = FxHashSet::default();
    exprs
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut name = match e {
                ScalarExpr::Attr(_, a) => a.clone(),
                ScalarExpr::Param(p) => p.clone(),
                ScalarExpr::Const(_) | ScalarExpr::Arith(..) => format!("f{i}"),
            };
            while !used.insert(name.clone()) {
                name.push('_');
            }
            name
        })
        .collect()
}

/// Split the top-level conjunction of a formula, left to right.
fn conjuncts(f: Formula, out: &mut Vec<Formula>) {
    match f {
        Formula::And(a, b) => {
            conjuncts(*a, out);
            conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// `a AND b`, dropping a `TRUE` side (and nothing else: a conjunct that
/// could raise must still be evaluated).
fn conjoin(a: Formula, b: Formula) -> Formula {
    match (a, b) {
        (Formula::True, f) | (f, Formula::True) => f,
        (a, b) => Formula::And(Box::new(a), Box::new(b)),
    }
}

/// §4's range nesting run backwards: the quantifier
/// `SOME/ALL var IN {<t> OF EACH b1 IN R1, …, bn IN Rn: p} (body)` as
/// nested quantifiers over the binding ranges,
///
/// ```text
/// N2: SOME Δb1 IN R1 (p1 AND … SOME Δbn IN Rn (pn AND body'))
/// N3: ALL  Δb1 IN R1 (NOT p1 OR … ALL Δbn IN Rn (NOT pn OR body'))
/// ```
///
/// where each `bi` is renamed to `fresh(bi)` — a name the caller
/// guarantees occurs nowhere else, so nothing is captured — and the
/// conjuncts of `p` are miniscoped: `pi` holds those whose innermost
/// mentioned variable is `Δbi` (those mentioning none go to `p1`, so
/// `R1` is still evaluated first), which gives the outer levels their
/// probe atoms. `body'` is `body` under Case 2's substitution of the
/// target for `var`: `var.f` becomes the target expression at `f` and
/// `var IN S` becomes `<t> IN S` (`Δb IN S` for a variable target).
///
/// `None` when the branch binds nothing, binds a name twice, targets a
/// variable it does not bind, targets an attribute `body` does not
/// produce, or its target mentions an outer variable `body` rebinds.
pub fn unnest_quantifier(
    var: &str,
    branch: &Branch,
    body: &Formula,
    existential: bool,
    fresh: &mut dyn FnMut(&str) -> Var,
) -> Option<Formula> {
    let names: Vec<&Var> = branch.bindings.iter().map(|(v, _)| v).collect();
    if names.is_empty() || (1..names.len()).any(|i| names[..i].contains(&names[i])) {
        return None;
    }
    let renames: Vec<(&Var, Var)> = names.iter().map(|&v| (v, fresh(v))).collect();
    let body = match &branch.target {
        Target::Var(v) => {
            let (_, to) = renames.iter().find(|(from, _)| *from == v)?;
            rename_var(body, var, to)
        }
        Target::Tuple(exprs) => {
            let exprs: Vec<ScalarExpr> = exprs
                .iter()
                .map(|e| {
                    renames.iter().fold(e.clone(), |e, (from, to)| {
                        renamed(from, to, |s| s.scalar(&e))
                    })
                })
                .collect();
            let mut rebound = FxHashSet::default();
            bound_vars_formula(body, &mut rebound);
            if exprs.iter().any(|e| scalar_mentions_any(e, &rebound)) {
                return None;
            }
            let names = target_names(&exprs);
            let target = Target::Tuple(exprs);
            let map = target_map(&target, &names)?;
            substitute_attr_refs(body, var, &target, &map).ok()?
        }
    };
    let predicate = renames
        .iter()
        .fold(branch.predicate.clone(), |p, (from, to)| {
            rename_var(&p, from, to)
        });
    let mut levels = vec![Vec::new(); renames.len()];
    let mut all = Vec::new();
    conjuncts(predicate, &mut all);
    for c in all {
        let level = (0..renames.len())
            .rev()
            .find(|&i| mentions_var(&c, &renames[i].1))
            .unwrap_or(0);
        levels[level].push(c);
    }
    let mut nested = body;
    for (i, guard) in levels.into_iter().enumerate().rev() {
        let guard = guard.into_iter().fold(Formula::True, conjoin);
        let (v, range) = (renames[i].1.clone(), branch.bindings[i].1.clone());
        nested = if existential {
            Formula::Some(v, range, Box::new(conjoin(guard, nested)))
        } else {
            let scoped = match guard {
                Formula::True => nested,
                guard => Formula::Or(Box::new(guard.negate()), Box::new(nested)),
            };
            Formula::All(v, range, Box::new(scoped))
        };
    }
    Some(nested)
}

/// Lift a value map into an expression map (`Param` holes filled with
/// `Const` leaves), so the value-substitution entry points below can
/// delegate to the expression-level walkers instead of duplicating the
/// traversal.
fn const_exprs(map: &FxHashMap<Name, Value>) -> FxHashMap<Name, ScalarExpr> {
    map.iter()
        .map(|(k, v)| (k.clone(), ScalarExpr::Const(*v)))
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
/// Together with [`relation_names`] this drives the solver's walk of
/// what a solve reads: a selector *body* may resolve relation names of
/// its own, so callers expand the collected selectors' predicates
/// transitively.
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
    fn rename_var_respects_shadowing_and_reaches_ranges() {
        let f = eq(attr("r", "a"), cnst(1i64))
            .and(some("r", rel("S"), eq(attr("r", "b"), cnst(2i64))))
            .and(some(
                "z",
                rel("T").select("s", vec![attr("r", "c")]),
                member("r", rel("U")),
            ))
            .and(some(
                "w",
                set_former(vec![Branch::each(
                    "r",
                    rel("V").select("s", vec![attr("r", "d")]),
                    eq(attr("r", "e"), cnst(3i64)),
                )]),
                tru(),
            ));
        let renamed = rename_var(&f, "r", "x").to_string();
        // Free references move, including selector arguments and a
        // branch's binding range (evaluated outside the branch's scope).
        for moved in ["x.a", "[s(x.c)]", "x IN U", "[s(x.d)]"] {
            assert!(renamed.contains(moved), "{moved} in {renamed}");
        }
        // The quantifier and the branch rebinding `r` shadow it.
        for kept in ["r.b", "r.e"] {
            assert!(renamed.contains(kept), "{kept} in {renamed}");
        }
    }

    #[test]
    fn substitute_attr_refs_maps_names_and_membership() {
        let target = Target::Tuple(vec![attr("f", "front"), attr("b", "back")]);
        let map = target_map(&target, &["front".into(), "back".into()]).unwrap();
        let pred = eq(attr("r", "front"), cnst("x")).and(member("r", rel("S")));
        assert_eq!(
            substitute_attr_refs(&pred, "r", &target, &map).unwrap(),
            eq(attr("f", "front"), cnst("x")).and(tuple_in(
                vec![attr("f", "front"), attr("b", "back")],
                rel("S")
            ))
        );
        // A whole-tuple target keeps whole-tuple membership.
        let copy = Target::Var("v".into());
        let copy_map = target_map(&copy, &["front".into()]).unwrap();
        assert_eq!(
            substitute_attr_refs(&member("r", rel("S")), "r", &copy, &copy_map).unwrap(),
            member("v", rel("S"))
        );
        // Unknown attribute is an error.
        let bad = eq(attr("r", "missing"), cnst("x"));
        assert!(substitute_attr_refs(&bad, "r", &target, &map).is_err());
        assert!(target_map(&target, &["front".into()]).is_none());
    }

    #[test]
    fn target_names_follow_the_schema_rules() {
        let exprs = [
            attr("f", "front"),
            attr("b", "front"),
            cnst(1i64),
            param("K"),
            add(attr("f", "n"), cnst(1i64)),
        ];
        assert_eq!(
            target_names(&exprs),
            vec!["front", "front_", "f2", "K", "f4"]
        );
    }

    fn delta(v: &str) -> Var {
        format!("Δ{v}")
    }

    #[test]
    fn unnest_miniscopes_conjuncts_and_substitutes_the_target() {
        // SOME x IN {<a.worker, s.tool> OF EACH a IN A, s IN S:
        //   a.worker = s.worker AND a.task = r.task AND r.ok = 1}
        //   (x.tool = r.tool)
        let branch = Branch::projecting(
            vec![attr("a", "worker"), attr("s", "tool")],
            vec![("a".into(), rel("A")), ("s".into(), rel("S"))],
            eq(attr("a", "worker"), attr("s", "worker"))
                .and(eq(attr("a", "task"), attr("r", "task")))
                .and(eq(attr("r", "ok"), cnst(1i64))),
        );
        let body = eq(attr("x", "tool"), attr("r", "tool"));
        let some_form = unnest_quantifier("x", &branch, &body, true, &mut delta).unwrap();
        assert_eq!(
            some_form,
            some(
                "Δa",
                rel("A"),
                eq(attr("Δa", "task"), attr("r", "task"))
                    .and(eq(attr("r", "ok"), cnst(1i64)))
                    .and(some(
                        "Δs",
                        rel("S"),
                        eq(attr("Δa", "worker"), attr("Δs", "worker"))
                            .and(eq(attr("Δs", "tool"), attr("r", "tool")))
                    ))
            )
        );
        let all_form = unnest_quantifier("x", &branch, &body, false, &mut delta).unwrap();
        assert_eq!(
            all_form,
            all(
                "Δa",
                rel("A"),
                not(eq(attr("Δa", "task"), attr("r", "task")).and(eq(attr("r", "ok"), cnst(1i64))))
                    .or(all(
                        "Δs",
                        rel("S"),
                        not(eq(attr("Δa", "worker"), attr("Δs", "worker")))
                            .or(eq(attr("Δs", "tool"), attr("r", "tool")))
                    ))
            )
        );
    }

    #[test]
    fn unnest_renames_a_variable_target_and_its_membership() {
        let branch = Branch::each("o", rel("Ontop"), eq(attr("o", "base"), attr("r", "front")));
        let body = member("t", rel("Objects")).and(ne(attr("t", "top"), cnst("dust")));
        assert_eq!(
            unnest_quantifier("t", &branch, &body, true, &mut delta).unwrap(),
            some(
                "Δo",
                rel("Ontop"),
                eq(attr("Δo", "base"), attr("r", "front"))
                    .and(member("Δo", rel("Objects")).and(ne(attr("Δo", "top"), cnst("dust"))))
            )
        );
    }

    #[test]
    fn unnest_refusals() {
        let body = tru();
        // Shadowed binding names.
        let shadowed = Branch {
            target: Target::Var("a".into()),
            bindings: vec![("a".into(), rel("A")), ("a".into(), rel("B"))],
            predicate: tru(),
        };
        assert!(unnest_quantifier("x", &shadowed, &body, true, &mut delta).is_none());
        // A target variable the branch does not bind.
        let outer = Branch {
            target: Target::Var("r".into()),
            bindings: vec![("a".into(), rel("A"))],
            predicate: tru(),
        };
        assert!(unnest_quantifier("x", &outer, &body, true, &mut delta).is_none());
        // An attribute the target does not produce.
        let projecting = Branch::projecting(
            vec![attr("a", "w"), attr("r", "t")],
            vec![("a".into(), rel("A"))],
            tru(),
        );
        let missing = eq(attr("x", "nope"), cnst(1i64));
        assert!(unnest_quantifier("x", &projecting, &missing, true, &mut delta).is_none());
        // The target's outer `r` would be captured by the body's own `r`.
        let captured = some("r", rel("R"), eq(attr("x", "t"), attr("r", "t")));
        assert!(unnest_quantifier("x", &projecting, &captured, true, &mut delta).is_none());
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
