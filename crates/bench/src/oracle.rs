//! The reference interpreter: the calculus's meaning written down once,
//! apart from the engine, so that every fast path is checked against
//! something that shares none of its machinery.
//!
//! It is deliberately naive. A set-former branch enumerates the cross
//! product of its binding ranges (evaluated in the enclosing scope) in
//! declaration order; a quantifier scans its range; a selector filters
//! its base tuple by tuple, its predicate seeing only the element
//! variable, its own parameters and the catalog. A
//! constructor application is the least fixpoint of §3.2's `REPEAT …
//! UNTIL` loop: every application met while solving becomes one
//! equation, keyed by its actual values (the sorted tuples of its base
//! and relation arguments, its scalar values), and the whole system is
//! re-evaluated each round from the previous round's values (Jacobi)
//! until a round changes nothing; an application met for the first time
//! reads ∅ until the next round. A state equal to the one two rounds
//! back but not to the last is §3.3's `nonsense` oscillation,
//! [`EvalError::NonConvergent`].
//!
//! It shares with the engine the AST, `Value`/`Tuple`/`Schema`,
//! `EvalError`, the [`Catalog`] trait, [`Constructor`] definitions and
//! [`rewrite::target_names`]; `Relation` is only its input and output
//! container. It uses no evaluator, planner, index, cache, solver, §4
//! rewrite, budget or trace, and evaluates every query as written.

use dc_calculus::ast::{ArithOp, Branch, Formula, RangeExpr, ScalarExpr, SetFormer, Target};
use dc_calculus::{rewrite, Catalog, EvalError};
use dc_core::{Constructor, CoreError, Database};
use dc_relation::Relation;
use dc_value::{Attribute, Domain, Schema, Tuple, TypeError, Value};

/// Rounds after which a solve gives up: far beyond what a convergent
/// system of the test workloads needs (one round per derivation step).
const MAX_ROUNDS: usize = 10_000;

/// Evaluate `query`, as written, over `db`'s relations, selectors,
/// scalar parameters and constructors.
pub fn eval(db: &Database, query: &RangeExpr) -> Result<Relation, EvalError> {
    eval_counting(db, query).0
}

/// [`eval`], and the rounds its solves took: §3.2's loop takes one
/// round per derivation step, plus the one that finds nothing new.
pub fn eval_counting(db: &Database, query: &RangeExpr) -> (Result<Relation, EvalError>, u64) {
    let names = db.constructor_names();
    let ctors: Vec<&Constructor> = names
        .iter()
        .filter_map(|n| db.constructor_ref(n).ok())
        .collect();
    eval_in(db, &ctors, query)
}

/// Evaluate `query`, as written, over `cat` with the constructor
/// definitions `ctors` (a constructor not among them is unknown), and
/// count the rounds its solves took.
pub fn eval_in(
    cat: &dyn Catalog,
    ctors: &[&Constructor],
    query: &RangeExpr,
) -> (Result<Relation, EvalError>, u64) {
    let mut oracle = Oracle {
        cat,
        ctors,
        system: None,
        rounds: 0,
    };
    let out = oracle.range(query, &Frame::default(), &mut Vec::new());
    (out, oracle.rounds)
}

/// The engine's answer to `query` (`Database::eval`, which rewrites it
/// by §4 and plans it) against [`eval`]'s answer to it as written: the
/// same relation or the same error, or a panic naming the query.
pub fn assert_agrees(db: &Database, query: &RangeExpr) -> Result<Relation, EvalError> {
    let engine = db.eval(query).map_err(|e| match e {
        CoreError::Eval(e) => e,
        other => EvalError::Other(other.to_string()),
    });
    assert_eq!(engine, eval(db, query), "{query}");
    engine
}

/// A tuple variable bound to one tuple of a range with `schema`.
struct Bound {
    var: String,
    tuple: Tuple,
    schema: Schema,
}

/// The names an expression sees besides its variables and the catalog:
/// the formals of the constructor body it is part of, or the parameters
/// of the selector predicate it is part of.
#[derive(Default)]
struct Frame {
    rels: Vec<(String, Relation)>,
    params: Vec<(String, Value)>,
}

/// One equation of a system: the application's identity (its actual
/// values), its constructor, and what its body sees.
struct Equation<'c> {
    key: (String, Vec<Vec<Tuple>>, Vec<Value>),
    ctor: &'c Constructor,
    frame: Frame,
}

struct Oracle<'a> {
    cat: &'a dyn Catalog,
    ctors: &'a [&'a Constructor],
    /// While a solve runs, every application joins its system: the
    /// equations and their current values.
    system: Option<(Vec<Equation<'a>>, Vec<Relation>)>,
    /// Rounds run by every solve so far.
    rounds: u64,
}

impl<'a> Oracle<'a> {
    fn range(
        &mut self,
        range: &RangeExpr,
        frame: &Frame,
        vars: &mut Vec<Bound>,
    ) -> Result<Relation, EvalError> {
        match range {
            RangeExpr::Rel(name) => match frame.rels.iter().find(|(n, _)| n == name) {
                Some((_, r)) => Ok(r.clone()),
                None => self.cat.relation(name),
            },
            RangeExpr::Selected {
                base,
                selector,
                args,
            } => {
                let base = self.range(base, frame, vars)?;
                self.select(&base, selector, args, frame, vars)
            }
            RangeExpr::Constructed {
                base,
                constructor,
                args,
                scalar_args,
            } => {
                let base = self.range(base, frame, vars)?;
                let args = args
                    .iter()
                    .map(|a| self.range(a, frame, vars))
                    .collect::<Result<_, _>>()?;
                let scalars = self.scalars(scalar_args, frame, vars)?;
                self.apply(constructor, base, args, scalars)
            }
            RangeExpr::SetFormer(sf) => self.set_former(sf, frame, vars),
        }
    }

    /// `base[name(args)]`: the tuples of `base` the selector's predicate
    /// accepts, its parameters bound to the checked argument values.
    fn select(
        &mut self,
        base: &Relation,
        name: &str,
        args: &[ScalarExpr],
        frame: &Frame,
        vars: &[Bound],
    ) -> Result<Relation, EvalError> {
        let def = self.cat.selector(name)?.clone();
        check_arity(&def.name, def.params.len(), args.len())?;
        let mut scope = Frame::default();
        for ((p, domain), arg) in def.params.iter().zip(args) {
            let v = self.scalar(arg, frame, vars)?;
            domain.check(&v)?;
            scope.params.push((p.clone(), v));
        }
        let mut out = Relation::new(base.schema().clone());
        for t in base.iter() {
            let mut element = vec![bind(&def.element_var, t, base)];
            if self.formula(&def.predicate, &scope, &mut element)? {
                out.insert(t.clone())?;
            }
        }
        Ok(out)
    }

    /// The union of the branches, each under the first branch's schema.
    fn set_former(
        &mut self,
        sf: &SetFormer,
        frame: &Frame,
        vars: &mut Vec<Bound>,
    ) -> Result<Relation, EvalError> {
        let mut result: Option<Relation> = None;
        for branch in &sf.branches {
            let ranges: Vec<Relation> = branch
                .bindings
                .iter()
                .map(|(_, r)| self.range(r, frame, vars))
                .collect::<Result<_, _>>()?;
            let schema = self.branch_schema(branch, &ranges, frame, vars)?;
            let mut out = match &result {
                None => Relation::new(schema),
                Some(so_far) if so_far.schema().union_compatible(&schema) => {
                    Relation::new(so_far.schema().clone())
                }
                Some(_) => {
                    let context = "set-former branches are not union-compatible".into();
                    return Err(EvalError::Type(TypeError::SchemaMismatch { context }));
                }
            };
            self.combinations(branch, &ranges, frame, vars, &mut out)?;
            match &mut result {
                None => result = Some(out),
                Some(so_far) => {
                    for t in out.iter() {
                        so_far.insert(t.clone())?;
                    }
                }
            }
        }
        result.ok_or_else(|| EvalError::Other("set former with no branches".into()))
    }

    /// The nested loops of one branch: bind the next variable to each
    /// tuple of its range in turn; with every variable bound, emit the
    /// target if the predicate holds.
    fn combinations(
        &mut self,
        branch: &Branch,
        ranges: &[Relation],
        frame: &Frame,
        vars: &mut Vec<Bound>,
        out: &mut Relation,
    ) -> Result<(), EvalError> {
        let Some((range, rest)) = ranges.split_first() else {
            if self.formula(&branch.predicate, frame, vars)? {
                out.insert(match &branch.target {
                    Target::Var(v) => lookup(vars, v)?.tuple.clone(),
                    Target::Tuple(exprs) => Tuple::new(self.scalars(exprs, frame, vars)?),
                })?;
            }
            return Ok(());
        };
        let var = &branch.bindings[branch.bindings.len() - ranges.len()].0;
        for t in range.iter() {
            vars.push(bind(var, t, range));
            let r = self.combinations(branch, rest, frame, vars, out);
            vars.pop();
            r?;
        }
        Ok(())
    }

    /// A branch's output schema: the bound variable's range schema, or
    /// one attribute per target expression, named by
    /// [`rewrite::target_names`] and typed by the base domain of the
    /// expression (of its leftmost operand, for arithmetic).
    fn branch_schema(
        &self,
        branch: &Branch,
        ranges: &[Relation],
        frame: &Frame,
        vars: &[Bound],
    ) -> Result<Schema, EvalError> {
        let own = |v: &str| branch.bindings.iter().position(|(b, _)| b == v);
        let exprs = match &branch.target {
            Target::Var(v) => {
                let i = own(v).ok_or_else(|| EvalError::UnboundVariable(v.clone()))?;
                return Ok(ranges[i].schema().clone());
            }
            Target::Tuple(exprs) => exprs,
        };
        let mut attrs = Vec::with_capacity(exprs.len());
        for (mut e, name) in exprs.iter().zip(rewrite::target_names(exprs)) {
            while let ScalarExpr::Arith(l, _, _) = e {
                e = l;
            }
            let domain = match e {
                ScalarExpr::Attr(v, a) => {
                    let schema = match own(v) {
                        Some(i) => ranges[i].schema(),
                        None => &lookup(vars, v)?.schema,
                    };
                    schema.domain(schema.position(a)?).base()
                }
                // A constant or a parameter: the type of its value.
                _ => domain_of(&self.scalar(e, frame, vars)?),
            };
            attrs.push(Attribute::new(name, domain));
        }
        Ok(Schema::new(attrs))
    }

    fn formula(
        &mut self,
        f: &Formula,
        frame: &Frame,
        vars: &mut Vec<Bound>,
    ) -> Result<bool, EvalError> {
        Ok(match f {
            Formula::True => true,
            Formula::False => false,
            Formula::Cmp(l, op, r) => {
                let (l, r) = (self.scalar(l, frame, vars)?, self.scalar(r, frame, vars)?);
                let ord = l
                    .try_cmp(&r)
                    .ok_or_else(|| EvalError::CrossTypeComparison {
                        lhs: l.to_string(),
                        rhs: r.to_string(),
                    })?;
                op.eval(ord)
            }
            Formula::And(a, b) => self.formula(a, frame, vars)? && self.formula(b, frame, vars)?,
            Formula::Or(a, b) => self.formula(a, frame, vars)? || self.formula(b, frame, vars)?,
            Formula::Not(inner) => !self.formula(inner, frame, vars)?,
            // SOME stops at its first witness, ALL at its first
            // counterexample.
            Formula::Some(v, range, body) | Formula::All(v, range, body) => {
                let existential = matches!(f, Formula::Some(..));
                let rel = self.range(range, frame, vars)?;
                for t in rel.iter() {
                    vars.push(bind(v, t, &rel));
                    let holds = self.formula(body, frame, vars);
                    vars.pop();
                    if holds? == existential {
                        return Ok(existential);
                    }
                }
                !existential
            }
            Formula::Member(v, range) => {
                let tuple = lookup(vars, v)?.tuple.clone();
                self.range(range, frame, vars)?.contains(&tuple)
            }
            Formula::TupleIn(exprs, range) => {
                let tuple = Tuple::new(self.scalars(exprs, frame, vars)?);
                self.range(range, frame, vars)?.contains(&tuple)
            }
        })
    }

    fn scalar(&self, e: &ScalarExpr, frame: &Frame, vars: &[Bound]) -> Result<Value, EvalError> {
        match e {
            ScalarExpr::Const(v) => Ok(*v),
            ScalarExpr::Attr(v, a) => {
                let b = lookup(vars, v)?;
                Ok(*b.tuple.get(b.schema.position(a)?))
            }
            ScalarExpr::Param(p) => self.param(p, frame),
            ScalarExpr::Arith(l, op, r) => {
                let (l, r) = (self.scalar(l, frame, vars)?, self.scalar(r, frame, vars)?);
                Ok(match op {
                    ArithOp::Add => l.add(&r)?,
                    ArithOp::Sub => l.sub(&r)?,
                    ArithOp::Mul => l.mul(&r)?,
                    ArithOp::Div => l.div(&r)?,
                    ArithOp::Mod => l.rem(&r)?,
                })
            }
        }
    }

    fn scalars(
        &self,
        exprs: &[ScalarExpr],
        frame: &Frame,
        vars: &[Bound],
    ) -> Result<Vec<Value>, EvalError> {
        exprs.iter().map(|e| self.scalar(e, frame, vars)).collect()
    }

    fn param(&self, name: &str, frame: &Frame) -> Result<Value, EvalError> {
        match frame.params.iter().find(|(p, _)| p == name) {
            Some((_, v)) => Ok(*v),
            None => self.cat.scalar_param(name),
        }
    }

    /// The value of `name(base, args; scalars)`: inside a solve, the
    /// current value of its equation (∅ for one met just now); outside
    /// one, the solution of the system it roots.
    fn apply(
        &mut self,
        name: &str,
        base: Relation,
        args: Vec<Relation>,
        scalars: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        let Some(&ctor) = self.ctors.iter().find(|c| c.name == name) else {
            return Err(EvalError::UnknownConstructor(name.to_string()));
        };
        check_arity(&ctor.name, ctor.rel_params.len(), args.len())?;
        check_arity(&ctor.name, ctor.scalar_params.len(), scalars.len())?;
        for ((_, domain), v) in ctor.scalar_params.iter().zip(&scalars) {
            domain.check(v)?;
        }
        let rels: Vec<Relation> = std::iter::once(base).chain(args).collect();
        let key = (
            name.to_string(),
            rels.iter().map(Relation::sorted_tuples).collect(),
            scalars.clone(),
        );
        let formals = std::iter::once(&ctor.base_param).chain(&ctor.rel_params);
        let params = ctor.scalar_params.iter().map(|(p, _)| p.clone());
        let frame = Frame {
            rels: formals.map(|(f, _)| f.clone()).zip(rels).collect(),
            params: params.zip(scalars).collect(),
        };
        let equation = Equation { key, ctor, frame };
        let empty = Relation::new(ctor.result.clone());
        if let Some((equations, current)) = &mut self.system {
            // Known: its current value. New: registered, at ∅.
            if let Some(i) = equations.iter().position(|e| e.key == equation.key) {
                return Ok(current[i].clone());
            }
            current.push(empty.clone());
            equations.push(equation);
            return Ok(empty);
        }
        self.system = Some((vec![equation], vec![empty]));
        let solved = self.solve();
        self.system = None;
        solved
    }

    /// Solve the system in progress: rounds of Jacobi updates until one
    /// changes nothing and meets no new application.
    fn solve(&mut self) -> Result<Relation, EvalError> {
        let (mut last, mut before_last) = (None, None);
        for round in 1..=MAX_ROUNDS {
            self.rounds += 1;
            let known = self.equations().len();
            let mut next = Vec::with_capacity(known);
            for i in 0..known {
                // The body reads the system, which may grow meanwhile, so
                // the equation's frame is taken out for the call.
                let eq = &mut self.equations()[i];
                let (ctor, frame) = (eq.ctor, std::mem::take(&mut eq.frame));
                let value = self.set_former(&ctor.body, &frame, &mut Vec::new());
                self.equations()[i].frame = frame;
                // Conformed to the declared result (its key checked).
                next.push(value?.relabel(&ctor.result)?);
            }
            let (equations, current) = self.system.as_mut().expect("a solve is in progress");
            let grew = equations.len() > known;
            let changed = current[..known] != next[..];
            current.splice(..known, next);
            if !changed && !grew {
                return Ok(current[0].clone());
            }
            let now = current.clone();
            if before_last.as_ref() == Some(&now) && last.as_ref() != Some(&now) {
                return Err(EvalError::NonConvergent { steps: round });
            }
            before_last = last.replace(now);
        }
        let limit = format!("no fixpoint within {MAX_ROUNDS} rounds");
        Err(EvalError::Other(limit))
    }

    fn equations(&mut self) -> &mut Vec<Equation<'a>> {
        &mut self.system.as_mut().expect("a solve is in progress").0
    }
}

/// `var` bound to `tuple` of `range`.
fn bind(var: &str, tuple: &Tuple, range: &Relation) -> Bound {
    Bound {
        var: var.to_string(),
        tuple: tuple.clone(),
        schema: range.schema().clone(),
    }
}

/// The innermost binding of `var`.
fn lookup<'b>(vars: &'b [Bound], var: &str) -> Result<&'b Bound, EvalError> {
    vars.iter()
        .rev()
        .find(|b| b.var == var)
        .ok_or_else(|| EvalError::UnboundVariable(var.to_string()))
}

fn check_arity(name: &str, expected: usize, actual: usize) -> Result<(), EvalError> {
    if expected == actual {
        return Ok(());
    }
    Err(EvalError::ArityMismatch {
        name: name.to_string(),
        expected,
        actual,
    })
}

fn domain_of(v: &Value) -> Domain {
    match v {
        Value::Int(_) => Domain::Int,
        Value::Card(_) => Domain::Card,
        Value::Str(_) => Domain::Str,
        Value::Bool(_) => Domain::Bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::ast::SelectorDef;
    use dc_calculus::builder::*;
    use dc_core::paper;
    use dc_value::tuple;

    /// The scene of the paper's Fig. 1: vase, table, chair, wall.
    fn fig1() -> Database {
        let mut db = Database::new();
        db.create_relation("Infront", paper::infrontrel()).unwrap();
        db.insert_all(
            "Infront",
            vec![
                tuple!["vase", "table"],
                tuple!["table", "chair"],
                tuple!["chair", "wall"],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn ahead_is_the_transitive_closure_of_fig1() {
        let mut db = fig1();
        db.define_constructor(paper::ahead()).unwrap();
        let out = eval(&db, &rel("Infront").construct("ahead", vec![])).unwrap();
        let expected = [
            ("vase", "table"),
            ("vase", "chair"),
            ("vase", "wall"),
            ("table", "chair"),
            ("table", "wall"),
            ("chair", "wall"),
        ]
        .map(|(h, t)| tuple![h, t]);
        assert_eq!(out.schema(), &paper::aheadrel());
        assert_eq!(out.sorted_tuples(), {
            let mut e = expected.to_vec();
            e.sort();
            e
        });
    }

    #[test]
    fn strange_converges_to_the_even_numbers() {
        let mut db = Database::new();
        db.create_relation("Card", paper::cardrel()).unwrap();
        db.insert_all("Card", (0u64..=6).map(|i| tuple![i]))
            .unwrap();
        db.define_constructor_unchecked(paper::strange()).unwrap();
        let out = eval(&db, &rel("Card").construct("strange", vec![])).unwrap();
        assert_eq!(out.sorted_tuples(), [0u64, 2, 4, 6].map(|i| tuple![i]));
    }

    #[test]
    fn nonsense_does_not_converge() {
        let mut db = fig1();
        db.define_constructor_unchecked(paper::nonsense()).unwrap();
        let err = eval(&db, &rel("Infront").construct("nonsense", vec![])).unwrap_err();
        assert!(matches!(err, EvalError::NonConvergent { .. }), "{err}");
    }

    #[test]
    fn selector_arguments_are_checked_against_their_domains() {
        let mut db = Database::new();
        let schema = Schema::of(&[("item", Domain::Str), ("level", Domain::Card)]);
        db.create_relation("Levels", schema.clone()).unwrap();
        db.insert_all("Levels", vec![tuple!["a", 1u64], tuple!["b", 2u64]])
            .unwrap();
        db.define_selector(
            SelectorDef {
                name: "at_level".into(),
                element_var: "l".into(),
                params: vec![("L".into(), Domain::CardRange(0, 3))],
                predicate: eq(attr("l", "level"), param("L")),
            },
            schema,
        )
        .unwrap();
        let at = |level: u64| rel("Levels").select("at_level", vec![cnst(level)]);
        assert_eq!(
            eval(&db, &at(2)).unwrap().sorted_tuples(),
            [tuple!["b", 2u64]]
        );
        let err = eval(&db, &at(5)).unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::Type(dc_value::TypeError::RangeViolation { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn comparing_across_types_is_an_error() {
        let db = fig1();
        let q = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            ne(attr("r", "front"), cnst(1i64)),
        )]);
        let err = eval(&db, &q).unwrap_err();
        assert!(
            matches!(err, EvalError::CrossTypeComparison { .. }),
            "{err}"
        );
    }
}
