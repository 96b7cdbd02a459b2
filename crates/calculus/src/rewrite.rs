//! Normalisation, substitution and name analyses over the calculus.
//!
//! Every structural traversal of the calculus is an instance of one of
//! two:
//!
//! * [`walk`] — the read-only walk. It visits each range, formula and
//!   scalar in pre-order, and each use of a tuple variable
//!   ([`Node::Var`]), telling the visitor which tuple variables are
//!   bound where the node sits. Its scopes are the evaluator's: a
//!   quantifier's range lies outside the quantified variable, and every
//!   binding range of a set-former branch lies outside all of the
//!   branch's variables. The name analyses are walks —
//!   [`relation_names`], [`selector_names`] and
//!   [`collect_constructed`] drive constructor-application
//!   instantiation, the solver's reach and the quant-graph partitioning
//!   of §4, and [`bound_vars`] guards substitutions against capture —
//!   and so is [`mentions_free`], the free-variable test behind the
//!   evaluator's range cache ([`crate::eval::is_binding_free`]) and the
//!   planner's probe keys.
//! * [`Fold`] — the copying fold. [`Foldable::fold_with`] rebuilds a
//!   tree bottom-up and hands each rebuilt node, with the variables
//!   bound around it, to the fold's hooks, which may replace it. §3.2's
//!   formal → actual substitutions ("replacing all formal parameters by
//!   their actual values" when building the gⱼ functions) are folds:
//!   [`substitute_rel`], [`substitute_params`], and
//!   [`substitute_param_exprs`], which turns a selector application into
//!   the equivalent set-former ([`selected_branch`]). So are the
//!   tuple-variable substitutions [`rename_var`] and
//!   [`substitute_attr_refs`] (with [`target_map`]), which
//!   `dc_core::compile`'s predicate push-down uses too.
//!
//! [`unnest_quantifier`] is §4's range nesting run backwards — N2/N3
//! with Case 2's target substitution — built from those folds.
//!
//! Walks that follow the semantics rather than the structure keep their
//! own recursion: the type checker, the evaluator, positivity's parity
//! walk, and [`to_nnf`], the rewrite from the paper's monotonicity lemma
//! (§3.3), which pushes negations inward via generalised De Morgan and
//! quantifier duality, eliminating double negations. After NNF, a
//! positive expression contains no tracked occurrence under `NOT` —
//! which makes monotonicity syntactically evident.

use std::convert::Infallible;
use std::ops::ControlFlow;

use dc_value::{Domain, FxHashMap, FxHashSet, Value};

use crate::ast::{
    Branch, Formula, Name, RangeExpr, ScalarExpr, SelectorDef, SetFormer, Target, Var,
};
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

/// A node of the calculus as [`walk`] visits it.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    /// A relation-valued expression.
    Range(&'a RangeExpr),
    /// A truth-valued expression.
    Formula(&'a Formula),
    /// A value-valued expression.
    Scalar(&'a ScalarExpr),
    /// A use of a tuple variable: the `v` of `v.attr`, of `v IN S`, or
    /// of a branch yielding `v`'s tuple.
    Var(&'a Var),
}

impl<'a> From<&'a RangeExpr> for Node<'a> {
    fn from(r: &'a RangeExpr) -> Node<'a> {
        Node::Range(r)
    }
}

impl<'a> From<&'a Formula> for Node<'a> {
    fn from(f: &'a Formula) -> Node<'a> {
        Node::Formula(f)
    }
}

impl<'a> From<&'a ScalarExpr> for Node<'a> {
    fn from(e: &'a ScalarExpr) -> Node<'a> {
        Node::Scalar(e)
    }
}

/// The read-only walk: visit `node` and everything under it in
/// pre-order, each with the tuple variables bound where it sits
/// (innermost last), until `visit` breaks off. Children come left to
/// right, a branch's binding ranges before its target and predicate. A
/// quantifier's range, and every binding range of a branch, sit outside
/// the variables they bind: that is where the evaluator evaluates them.
pub fn walk<'a>(
    node: impl Into<Node<'a>>,
    visit: impl FnMut(Node<'a>, &[&'a str]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    Walk {
        visit,
        bound: Vec::new(),
    }
    .node(node.into())
}

struct Walk<'a, F> {
    visit: F,
    bound: Vec<&'a str>,
}

impl<'a, F: FnMut(Node<'a>, &[&'a str]) -> ControlFlow<()>> Walk<'a, F> {
    fn node(&mut self, node: Node<'a>) -> ControlFlow<()> {
        (self.visit)(node, &self.bound)?;
        match node {
            Node::Range(RangeExpr::Rel(_))
            | Node::Formula(Formula::True | Formula::False)
            | Node::Scalar(ScalarExpr::Const(_) | ScalarExpr::Param(_))
            | Node::Var(_) => ControlFlow::Continue(()),
            Node::Range(RangeExpr::Selected { base, args, .. }) => {
                self.node(Node::Range(base))?;
                self.scalars(args)
            }
            Node::Range(RangeExpr::Constructed {
                base,
                args,
                scalar_args,
                ..
            }) => {
                self.node(Node::Range(base))?;
                args.iter().try_for_each(|a| self.node(Node::Range(a)))?;
                self.scalars(scalar_args)
            }
            Node::Range(RangeExpr::SetFormer(sf)) => sf.branches.iter().try_for_each(|b| {
                b.bindings
                    .iter()
                    .try_for_each(|(_, r)| self.node(Node::Range(r)))?;
                self.scoped(b.bindings.iter().map(|(v, _)| v), |w| {
                    match &b.target {
                        Target::Var(v) => w.node(Node::Var(v))?,
                        Target::Tuple(exprs) => w.scalars(exprs)?,
                    }
                    w.node(Node::Formula(&b.predicate))
                })
            }),
            Node::Formula(Formula::Cmp(l, _, r)) => {
                self.node(Node::Scalar(l))?;
                self.node(Node::Scalar(r))
            }
            Node::Formula(Formula::And(a, b) | Formula::Or(a, b)) => {
                self.node(Node::Formula(a))?;
                self.node(Node::Formula(b))
            }
            Node::Formula(Formula::Not(inner)) => self.node(Node::Formula(inner)),
            Node::Formula(Formula::Some(v, r, body) | Formula::All(v, r, body)) => {
                self.node(Node::Range(r))?;
                self.scoped([v], |w| w.node(Node::Formula(body)))
            }
            Node::Formula(Formula::Member(v, r)) => {
                self.node(Node::Var(v))?;
                self.node(Node::Range(r))
            }
            Node::Formula(Formula::TupleIn(exprs, r)) => {
                self.scalars(exprs)?;
                self.node(Node::Range(r))
            }
            Node::Scalar(ScalarExpr::Attr(v, _)) => self.node(Node::Var(v)),
            Node::Scalar(ScalarExpr::Arith(l, _, r)) => {
                self.node(Node::Scalar(l))?;
                self.node(Node::Scalar(r))
            }
        }
    }

    fn scalars(&mut self, exprs: &'a [ScalarExpr]) -> ControlFlow<()> {
        exprs.iter().try_for_each(|e| self.node(Node::Scalar(e)))
    }

    /// Walk `inner` with `vars` bound.
    fn scoped(
        &mut self,
        vars: impl IntoIterator<Item = &'a Var>,
        inner: impl FnOnce(&mut Self) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mark = self.bound.len();
        self.bound.extend(vars.into_iter().map(String::as_str));
        let flow = inner(self);
        self.bound.truncate(mark);
        flow
    }
}

/// What `pick` yields at each node under `node`, in walk order.
fn collect<'a, T, I: IntoIterator<Item = T>, C: Default + Extend<T>>(
    node: impl Into<Node<'a>>,
    mut pick: impl FnMut(Node<'a>) -> I,
) -> C {
    let mut out = C::default();
    let _ = walk(node, |n, _| {
        out.extend(pick(n));
        ControlFlow::Continue(())
    });
    out
}

/// Every relation name referenced anywhere in a range or formula.
pub fn relation_names<'a>(node: impl Into<Node<'a>>) -> FxHashSet<Name> {
    collect(node, |n| match n {
        Node::Range(RangeExpr::Rel(name)) => Some(name.clone()),
        _ => None,
    })
}

/// Every selector name applied anywhere in a range or formula.
/// Together with [`relation_names`] this drives the solver's walk of
/// what a solve reads: a selector *body* may resolve relation names of
/// its own, so callers expand the collected selectors' predicates
/// transitively.
pub fn selector_names<'a>(node: impl Into<Node<'a>>) -> FxHashSet<Name> {
    collect(node, |n| match n {
        Node::Range(RangeExpr::Selected { selector, .. }) => Some(selector.clone()),
        _ => None,
    })
}

/// Every constructor application (`Constructed` node) in a range or
/// formula, in pre-order.
pub fn collect_constructed<'a>(node: impl Into<Node<'a>>) -> Vec<RangeExpr> {
    collect(node, |n| match n {
        Node::Range(r) if matches!(r, RangeExpr::Constructed { .. }) => Some(r.clone()),
        _ => None,
    })
}

/// Every tuple variable *bound* anywhere inside a range or formula:
/// quantifier variables and set-former binding variables. Used for
/// capture checks before [`substitute_param_exprs`]: an actual-argument
/// expression mentioning one of these names must not be substituted in.
pub fn bound_vars<'a>(node: impl Into<Node<'a>>) -> FxHashSet<Name> {
    collect(node, |n| match n {
        Node::Formula(Formula::Some(v, ..) | Formula::All(v, ..)) => vec![v.clone()],
        Node::Range(RangeExpr::SetFormer(sf)) => sf
            .branches
            .iter()
            .flat_map(|b| &b.bindings)
            .map(|(v, _)| v.clone())
            .collect(),
        _ => Vec::new(),
    })
}

/// Does `node` use a tuple variable that it does not bind itself and
/// that `pick` accepts?
pub fn mentions_free<'a>(node: impl Into<Node<'a>>, mut pick: impl FnMut(&str) -> bool) -> bool {
    walk(node, |n, bound| match n {
        Node::Var(v) if !bound.contains(&v.as_str()) && pick(v) => ControlFlow::Break(()),
        _ => ControlFlow::Continue(()),
    })
    .is_break()
}

/// The hooks of the copying fold ([`Foldable::fold_with`]). Each gets a
/// node rebuilt from its folded children, with the tuple variables bound
/// where it sits (innermost last, scoped as [`walk`] scopes), and
/// returns what takes its place; a replacement is not folded again. The
/// defaults keep every node.
pub trait Fold {
    /// What a hook fails with.
    type Error;

    /// Replace a rebuilt scalar.
    fn scalar(&mut self, e: ScalarExpr, _bound: &[&str]) -> Result<ScalarExpr, Self::Error> {
        Ok(e)
    }

    /// Replace a rebuilt range.
    fn range(&mut self, r: RangeExpr, _bound: &[&str]) -> Result<RangeExpr, Self::Error> {
        Ok(r)
    }

    /// Replace a rebuilt formula.
    fn formula(&mut self, f: Formula, _bound: &[&str]) -> Result<Formula, Self::Error> {
        Ok(f)
    }
}

/// A tree the copying fold rebuilds: a scalar, range, formula or
/// set-former.
pub trait Foldable: Sized {
    /// `self` rebuilt bottom-up through `fold`'s hooks.
    fn fold_with<F: Fold>(&self, fold: &mut F) -> Result<Self, F::Error>;
}

impl Foldable for ScalarExpr {
    fn fold_with<F: Fold>(&self, fold: &mut F) -> Result<Self, F::Error> {
        Folder::new(fold).scalar(self)
    }
}

impl Foldable for RangeExpr {
    fn fold_with<F: Fold>(&self, fold: &mut F) -> Result<Self, F::Error> {
        Folder::new(fold).range(self)
    }
}

impl Foldable for Formula {
    fn fold_with<F: Fold>(&self, fold: &mut F) -> Result<Self, F::Error> {
        Folder::new(fold).formula(self)
    }
}

impl Foldable for SetFormer {
    fn fold_with<F: Fold>(&self, fold: &mut F) -> Result<Self, F::Error> {
        Folder::new(fold).set_former(self)
    }
}

struct Folder<'f, 'a, F> {
    fold: &'f mut F,
    bound: Vec<&'a str>,
}

impl<'f, 'a, F: Fold> Folder<'f, 'a, F> {
    fn new(fold: &'f mut F) -> Self {
        Folder {
            fold,
            bound: Vec::new(),
        }
    }

    fn scalar(&mut self, e: &'a ScalarExpr) -> Result<ScalarExpr, F::Error> {
        let e = match e {
            ScalarExpr::Arith(l, op, r) => {
                ScalarExpr::Arith(Box::new(self.scalar(l)?), *op, Box::new(self.scalar(r)?))
            }
            leaf => leaf.clone(),
        };
        self.fold.scalar(e, &self.bound)
    }

    fn scalars(&mut self, exprs: &'a [ScalarExpr]) -> Result<Vec<ScalarExpr>, F::Error> {
        exprs.iter().map(|e| self.scalar(e)).collect()
    }

    fn range(&mut self, r: &'a RangeExpr) -> Result<RangeExpr, F::Error> {
        let r = match r {
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
            RangeExpr::SetFormer(sf) => RangeExpr::SetFormer(self.set_former(sf)?),
        };
        self.fold.range(r, &self.bound)
    }

    fn set_former(&mut self, sf: &'a SetFormer) -> Result<SetFormer, F::Error> {
        let branches = sf.branches.iter().map(|b| {
            let bindings = b
                .bindings
                .iter()
                .map(|(v, r)| Ok((v.clone(), self.range(r)?)))
                .collect::<Result<_, _>>()?;
            self.scoped(b.bindings.iter().map(|(v, _)| v), |s| {
                let target = match &b.target {
                    Target::Var(v) => Target::Var(v.clone()),
                    Target::Tuple(exprs) => Target::Tuple(s.scalars(exprs)?),
                };
                Ok(Branch {
                    target,
                    bindings,
                    predicate: s.formula(&b.predicate)?,
                })
            })
        });
        Ok(SetFormer {
            branches: branches.collect::<Result<_, _>>()?,
        })
    }

    fn formula(&mut self, f: &'a Formula) -> Result<Formula, F::Error> {
        let f = match f {
            Formula::True | Formula::False => f.clone(),
            Formula::Cmp(l, op, r) => Formula::Cmp(self.scalar(l)?, *op, self.scalar(r)?),
            Formula::And(a, b) => {
                Formula::And(Box::new(self.formula(a)?), Box::new(self.formula(b)?))
            }
            Formula::Or(a, b) => {
                Formula::Or(Box::new(self.formula(a)?), Box::new(self.formula(b)?))
            }
            Formula::Not(inner) => Formula::Not(Box::new(self.formula(inner)?)),
            Formula::Some(v, r, body) => Formula::Some(
                v.clone(),
                self.range(r)?,
                Box::new(self.scoped([v], |s| s.formula(body))?),
            ),
            Formula::All(v, r, body) => Formula::All(
                v.clone(),
                self.range(r)?,
                Box::new(self.scoped([v], |s| s.formula(body))?),
            ),
            Formula::Member(v, r) => Formula::Member(v.clone(), self.range(r)?),
            Formula::TupleIn(exprs, r) => Formula::TupleIn(self.scalars(exprs)?, self.range(r)?),
        };
        self.fold.formula(f, &self.bound)
    }

    /// Fold `inner` with `vars` bound.
    fn scoped<T>(
        &mut self,
        vars: impl IntoIterator<Item = &'a Var>,
        inner: impl FnOnce(&mut Self) -> Result<T, F::Error>,
    ) -> Result<T, F::Error> {
        let mark = self.bound.len();
        self.bound.extend(vars.into_iter().map(String::as_str));
        let out = inner(self);
        self.bound.truncate(mark);
        out
    }
}

/// Substitute relation names with range expressions. Used to
/// instantiate constructor bodies: the formal base name (`Rel`) and
/// formal relation parameters (`Ontop`) are mapped to their actuals.
pub fn substitute_rel<T: Foldable>(t: &T, map: &FxHashMap<Name, RangeExpr>) -> T {
    struct Rels<'m>(&'m FxHashMap<Name, RangeExpr>);
    impl Fold for Rels<'_> {
        type Error = Infallible;
        fn range(&mut self, r: RangeExpr, _: &[&str]) -> Result<RangeExpr, Infallible> {
            Ok(match &r {
                RangeExpr::Rel(n) => self.0.get(n).cloned(),
                _ => None,
            }
            .unwrap_or(r))
        }
    }
    let Ok(t) = t.fold_with(&mut Rels(map));
    t
}

/// Substitute scalar parameters with scalar *expressions*. Where
/// [`substitute_params`] fills `Param` holes with constants (§3.2's
/// partial evaluation), this fills them with actual-argument
/// expressions — used to rewrite a selector application
/// `base[s(args)]` into the equivalent filter
/// `{EACH el IN base: pred[params := args]}`, which
/// [`unnest_quantifier`] then turns into a quantifier over `base`.
///
/// The caller owns capture avoidance: substituted expressions must not
/// mention variables bound inside the tree they are substituted into
/// ([`bound_vars`]).
pub fn substitute_param_exprs<T: Foldable>(t: &T, map: &FxHashMap<Name, ScalarExpr>) -> T {
    struct Params<'m>(&'m FxHashMap<Name, ScalarExpr>);
    impl Fold for Params<'_> {
        type Error = Infallible;
        fn scalar(&mut self, e: ScalarExpr, _: &[&str]) -> Result<ScalarExpr, Infallible> {
            Ok(match &e {
                ScalarExpr::Param(p) => self.0.get(p).cloned(),
                _ => None,
            }
            .unwrap_or(e))
        }
    }
    let Ok(t) = t.fold_with(&mut Params(map));
    t
}

/// The selector application `base[s(args)]`, with `def` the definition
/// of `s`, as the one branch `{EACH e IN base: pred[params := args]}`,
/// plus the parameter domain of each non-constant argument, for the
/// caller to check per binding. `None` where the branch would not be
/// faithful: the arity differs, a constant argument is outside its
/// parameter's domain (the application raises instead), or an argument
/// mentions the element variable or a variable bound inside the
/// predicate (the substitution would capture it).
pub fn selected_branch(
    def: &SelectorDef,
    base: &RangeExpr,
    args: &[ScalarExpr],
) -> Option<(Branch, Vec<(ScalarExpr, Domain)>)> {
    if def.params.len() != args.len() {
        return None;
    }
    let mut bound = bound_vars(&def.predicate);
    bound.insert(def.element_var.clone());
    let mut map = FxHashMap::default();
    let mut checks = Vec::new();
    for ((param, domain), arg) in def.params.iter().zip(args) {
        match arg {
            ScalarExpr::Const(v) if domain.check(v).is_err() => return None,
            ScalarExpr::Const(_) => {}
            _ if mentions_free(arg, |v| bound.contains(v)) => return None,
            _ => checks.push((arg.clone(), domain.clone())),
        }
        map.insert(param.clone(), arg.clone());
    }
    let predicate = substitute_param_exprs(&def.predicate, &map);
    let branch = Branch::each(def.element_var.clone(), base.clone(), predicate);
    Some((branch, checks))
}

/// Substitute scalar parameters with constants — §3.2's partial
/// evaluation of a constructor body for one application; the
/// constant-valued case of [`substitute_param_exprs`].
pub fn substitute_params<T: Foldable>(t: &T, map: &FxHashMap<Name, Value>) -> T {
    let exprs = map
        .iter()
        .map(|(k, v)| (k.clone(), ScalarExpr::Const(*v)))
        .collect();
    substitute_param_exprs(t, &exprs)
}

/// Rewrites the free uses of one tuple variable: each `var.attr`
/// through `attr`, each whole-tuple membership `var IN S` through
/// `whole` (handed the rewritten `S`). A quantifier or set-former
/// branch that binds `var` again shadows it; ranges are rewritten where
/// `var` is visible — a branch's binding ranges before the branch binds
/// anything.
struct VarSubst<'a, E> {
    var: &'a str,
    attr: &'a dyn Fn(&str) -> Result<ScalarExpr, E>,
    whole: &'a dyn Fn(RangeExpr) -> Result<Formula, E>,
}

impl<E> VarSubst<'_, E> {
    /// Is `v`, used where `bound` is bound, the substituted variable?
    fn is_free_var(&self, v: &str, bound: &[&str]) -> bool {
        v == self.var && !bound.contains(&v)
    }
}

impl<E> Fold for VarSubst<'_, E> {
    type Error = E;

    fn scalar(&mut self, e: ScalarExpr, bound: &[&str]) -> Result<ScalarExpr, E> {
        match e {
            ScalarExpr::Attr(v, a) if self.is_free_var(&v, bound) => (self.attr)(&a),
            e => Ok(e),
        }
    }

    fn formula(&mut self, f: Formula, bound: &[&str]) -> Result<Formula, E> {
        match f {
            Formula::Member(v, s) if self.is_free_var(&v, bound) => (self.whole)(s),
            f => Ok(f),
        }
    }
}

/// Rename every free use of tuple variable `from` into `to` (used when
/// merging branch scopes), respecting shadowing and reaching nested
/// ranges.
pub fn rename_var<T: Foldable>(t: &T, from: &str, to: &str) -> T {
    let attr = |a: &str| Ok(ScalarExpr::Attr(to.to_string(), a.to_string()));
    let whole = |s| Ok(Formula::Member(to.to_string(), s));
    let Ok(t) = t.fold_with(&mut VarSubst::<Infallible> {
        var: from,
        attr: &attr,
        whole: &whole,
    });
    t
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
    f.fold_with(&mut VarSubst {
        var,
        attr: &attr,
        whole: &whole,
    })
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

/// The top-level conjuncts of a formula, left to right.
pub fn conjuncts(f: &Formula) -> Vec<&Formula> {
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
                    renames
                        .iter()
                        .fold(e.clone(), |e, (from, to)| rename_var(&e, from, to))
                })
                .collect();
            let rebound = bound_vars(body);
            if exprs
                .iter()
                .any(|e| mentions_free(e, |v| rebound.contains(v)))
            {
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
    for c in conjuncts(&predicate) {
        let level = (0..renames.len())
            .rev()
            .find(|&i| mentions_free(c, |v| v == renames[i].1))
            .unwrap_or(0);
        levels[level].push(c.clone());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use crate::builder::*;

    /// Every node variant in one range, with each relation name and
    /// parameter leaf built through `r` and `p`:
    ///
    /// ```text
    /// {<r.a, Pt> OF EACH r IN R[s1(Ps)], EACH s IN S{c1(T{c2(U)}; Pc)}:
    ///    NOT (r.a = s.b)
    ///    OR SOME x IN V[s2(r.a)] (ALL y IN W (y IN X{c3()} AND <x.c, Pi> IN Y))}
    /// ```
    fn fixture(r: &dyn Fn(&str) -> RangeExpr, p: &dyn Fn(&str) -> ScalarExpr) -> RangeExpr {
        set_former(vec![Branch::projecting(
            vec![attr("r", "a"), p("Pt")],
            vec![
                ("r".into(), r("R").select("s1", vec![p("Ps")])),
                (
                    "s".into(),
                    r("S").construct_with(
                        "c1",
                        vec![r("T").construct("c2", vec![r("U")])],
                        vec![p("Pc")],
                    ),
                ),
            ],
            fixture_predicate(r, p),
        )])
    }

    fn fixture_predicate(r: &dyn Fn(&str) -> RangeExpr, p: &dyn Fn(&str) -> ScalarExpr) -> Formula {
        not(eq(attr("r", "a"), attr("s", "b"))).or(some(
            "x",
            r("V").select("s2", vec![attr("r", "a")]),
            all(
                "y",
                r("W"),
                member("y", r("X").construct("c3", vec![]))
                    .and(tuple_in(vec![attr("x", "c"), p("Pi")], r("Y"))),
            ),
        ))
    }

    fn relation(n: &str) -> RangeExpr {
        rel(n)
    }

    fn parameter(n: &str) -> ScalarExpr {
        param(n)
    }

    fn names(ns: &[&str]) -> FxHashSet<Name> {
        ns.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn fixture_collectors_are_exact() {
        let range = fixture(&relation, &parameter);
        let pred = fixture_predicate(&relation, &parameter);
        assert_eq!(
            relation_names(&range),
            names(&["R", "S", "T", "U", "V", "W", "X", "Y"])
        );
        assert_eq!(relation_names(&pred), names(&["V", "W", "X", "Y"]));
        assert_eq!(selector_names(&range), names(&["s1", "s2"]));
        assert_eq!(selector_names(&pred), names(&["s2"]));
        let c2 = rel("T").construct("c2", vec![rel("U")]);
        let c3 = rel("X").construct("c3", vec![]);
        assert_eq!(
            collect_constructed(&range),
            vec![
                rel("S").construct_with("c1", vec![c2.clone()], vec![param("Pc")]),
                c2,
                c3.clone(),
            ]
        );
        assert_eq!(collect_constructed(&pred), vec![c3]);
        assert_eq!(bound_vars(&range), names(&["r", "s", "x", "y"]));
        assert_eq!(bound_vars(&pred), names(&["x", "y"]));
    }

    #[test]
    fn fixture_substitutions_are_exact() {
        let mut rels = FxHashMap::default();
        rels.insert("T".to_string(), rel("T2"));
        rels.insert(
            "W".to_string(),
            set_former(vec![Branch::each("w", rel("W2"), tru())]),
        );
        let renamed = |n: &str| rels.get(n).cloned().unwrap_or_else(|| rel(n));
        assert_eq!(
            substitute_rel(&fixture(&relation, &parameter), &rels),
            fixture(&renamed, &parameter)
        );
        assert_eq!(
            substitute_rel(&fixture_predicate(&relation, &parameter), &rels),
            fixture_predicate(&renamed, &parameter)
        );
        let mut exprs = FxHashMap::default();
        exprs.insert("Pt".to_string(), attr("o", "t"));
        exprs.insert("Pc".to_string(), add(param("Pi"), cnst(1i64)));
        exprs.insert("Pi".to_string(), cnst("i"));
        let filled = |n: &str| exprs.get(n).cloned().unwrap_or_else(|| param(n));
        assert_eq!(
            substitute_param_exprs(&fixture(&relation, &parameter), &exprs),
            fixture(&relation, &filled)
        );
        assert_eq!(
            substitute_param_exprs(&fixture_predicate(&relation, &parameter), &exprs),
            fixture_predicate(&relation, &filled)
        );
        let mut values = FxHashMap::default();
        values.insert("Ps".to_string(), Value::Int(7));
        values.insert("Pi".to_string(), Value::str("i"));
        let fixed = |n: &str| {
            values
                .get(n)
                .map_or_else(|| param(n), |v| ScalarExpr::Const(*v))
        };
        let RangeExpr::SetFormer(sf) = fixture(&relation, &parameter) else {
            unreachable!("the fixture is a set-former")
        };
        assert_eq!(
            RangeExpr::SetFormer(substitute_params(&sf, &values)),
            fixture(&relation, &fixed)
        );
        assert_eq!(
            substitute_params(&fixture(&relation, &parameter), &values),
            fixture(&relation, &fixed)
        );
        assert_eq!(
            substitute_params(&fixture_predicate(&relation, &parameter), &values),
            fixture_predicate(&relation, &fixed)
        );
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
        let out = substitute_params(&f, &map);
        assert_eq!(out, eq(attr("r", "front"), cnst("table")));
        // Unknown params survive untouched.
        let g = eq(param("Other"), cnst(1i64));
        assert_eq!(substitute_params(&g, &map), g);
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
        let out = substitute_params(&r, &map);
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
        let out = substitute_param_exprs(&f, &map);
        assert_eq!(out, eq(attr("t", "base"), attr("r", "front")));
        // Nested ranges (selector args, set-former predicates) are
        // reached too; unknown params survive untouched.
        let g = some(
            "x",
            rel("R").select("s", vec![param("B"), param("Other")]),
            lt(param("B"), cnst(3i64)),
        );
        let out = substitute_param_exprs(&g, &map);
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
        let out = bound_vars(&f);
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
