//! Static type checking of calculus expressions.
//!
//! This is the "type-checking level" of the paper's three-level strategy
//! (§4): it runs once per definition/query at compile time, before any
//! data is touched. It verifies:
//!
//! * relation names resolve and attribute references exist,
//! * comparison operands have comparable domains and arithmetic is
//!   numeric,
//! * selector/constructor applications match their signatures,
//! * set-former branches are union-compatible,
//! * quantifier ranges are relation-typed expressions.
//!
//! It deliberately does **not** check positivity — that is a separate
//! analysis ([`crate::positivity`]) because it applies only to recursive
//! definitions, per §3.3.

use dc_value::{Domain, Schema};

use crate::ast::{Branch, Formula, Name, RangeExpr, ScalarExpr, SelectorDef, Target, Var};
use crate::error::EvalError;
use crate::eval::value_domain;
use crate::rewrite;

/// Signature of a constructor visible to the type checker.
#[derive(Debug, Clone)]
pub struct ConstructorSig {
    /// Constructor name.
    pub name: Name,
    /// Schema of the formal base relation parameter.
    pub base_schema: Schema,
    /// Schemas of the formal relation parameters, in order.
    pub rel_params: Vec<Schema>,
    /// Formal scalar parameters with their domains.
    pub scalar_params: Vec<(Name, Domain)>,
    /// Result schema.
    pub result: Schema,
}

/// Name → schema resolution for static checking.
pub trait SchemaCatalog {
    /// Schema of a named relation (or formal relation parameter in
    /// scope).
    fn relation_schema(&self, name: &str) -> Result<Schema, EvalError>;
    /// Selector definition lookup.
    fn selector_def(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        Err(EvalError::UnknownSelector(name.to_string()))
    }
    /// Constructor signature lookup.
    fn constructor_sig(&self, name: &str) -> Result<&ConstructorSig, EvalError> {
        Err(EvalError::UnknownConstructor(name.to_string()))
    }
    /// Domain of a free scalar parameter in scope.
    fn param_domain(&self, name: &str) -> Result<Domain, EvalError> {
        Err(EvalError::UnknownParam(name.to_string()))
    }
}

/// A [`SchemaCatalog`] from vectors, used for tests and by `dc-lang`.
#[derive(Default)]
pub struct MapSchemaCatalog {
    /// Named relation schemas.
    pub relations: Vec<(Name, Schema)>,
    /// Selector definitions.
    pub selectors: Vec<SelectorDef>,
    /// Constructor signatures.
    pub constructors: Vec<ConstructorSig>,
    /// In-scope scalar parameters.
    pub params: Vec<(Name, Domain)>,
}

impl SchemaCatalog for MapSchemaCatalog {
    fn relation_schema(&self, name: &str) -> Result<Schema, EvalError> {
        self.relations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.clone())
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))
    }

    fn selector_def(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.selectors
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| EvalError::UnknownSelector(name.to_string()))
    }

    fn constructor_sig(&self, name: &str) -> Result<&ConstructorSig, EvalError> {
        self.constructors
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))
    }

    fn param_domain(&self, name: &str) -> Result<Domain, EvalError> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.clone())
            .ok_or_else(|| EvalError::UnknownParam(name.to_string()))
    }
}

/// Scope of bound tuple variables during checking.
type Scope = Vec<(Var, Schema)>;

/// Check a closed range expression; returns its schema.
pub fn check_range(range: &RangeExpr, cat: &dyn SchemaCatalog) -> Result<Schema, EvalError> {
    check_range_scoped(range, cat, &mut Vec::new())
}

fn check_range_scoped(
    range: &RangeExpr,
    cat: &dyn SchemaCatalog,
    scope: &mut Scope,
) -> Result<Schema, EvalError> {
    match range {
        RangeExpr::Rel(n) => cat.relation_schema(n),
        RangeExpr::Selected {
            base,
            selector,
            args,
        } => {
            let base_schema = check_range_scoped(base, cat, scope)?;
            let def = cat.selector_def(selector)?;
            if args.len() != def.params.len() {
                return Err(EvalError::ArityMismatch {
                    name: def.name.clone(),
                    expected: def.params.len(),
                    actual: args.len(),
                });
            }
            for ((_, pdom), arg) in def.params.iter().zip(args) {
                let adom = check_scalar(arg, cat, scope)?;
                if !adom.comparable_with(pdom) {
                    return Err(EvalError::Type(dc_value::TypeError::DomainMismatch {
                        expected: pdom.clone(),
                        value: dc_value::Value::str(format!("<{adom}>")),
                    }));
                }
            }
            // A selector yields a sub-relation of its base.
            Ok(base_schema)
        }
        RangeExpr::Constructed {
            base,
            constructor,
            args,
            scalar_args,
        } => {
            let base_schema = check_range_scoped(base, cat, scope)?;
            let sig = cat.constructor_sig(constructor)?;
            if !base_schema.union_compatible(&sig.base_schema) {
                return Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
                    context: format!(
                        "base of `{constructor}` application is not compatible with its FOR type"
                    ),
                }));
            }
            if args.len() != sig.rel_params.len() {
                return Err(EvalError::ArityMismatch {
                    name: sig.name.clone(),
                    expected: sig.rel_params.len(),
                    actual: args.len(),
                });
            }
            let result = sig.result.clone();
            let rel_params = sig.rel_params.clone();
            let scalar_params = sig.scalar_params.clone();
            if scalar_args.len() != scalar_params.len() {
                return Err(EvalError::ArityMismatch {
                    name: constructor.clone(),
                    expected: scalar_params.len(),
                    actual: scalar_args.len(),
                });
            }
            for ((_, pdom), arg) in scalar_params.iter().zip(scalar_args) {
                let adom = check_scalar(arg, cat, scope)?;
                if !adom.comparable_with(pdom) {
                    return Err(EvalError::Type(dc_value::TypeError::DomainMismatch {
                        expected: pdom.clone(),
                        value: dc_value::Value::str(format!("<{adom}>")),
                    }));
                }
            }
            for (formal, actual) in rel_params.iter().zip(args) {
                let actual_schema = check_range_scoped(actual, cat, scope)?;
                if !actual_schema.union_compatible(formal) {
                    return Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
                        context: format!(
                            "relation argument of `{constructor}` has incompatible schema"
                        ),
                    }));
                }
            }
            Ok(result)
        }
        RangeExpr::SetFormer(sf) => {
            if sf.branches.is_empty() {
                return Err(EvalError::Other("set former with no branches".into()));
            }
            let mut result: Option<Schema> = None;
            for b in &sf.branches {
                let schema = check_branch(b, cat, scope)?;
                match &result {
                    None => result = Some(schema),
                    Some(first) => {
                        if !first.union_compatible(&schema) {
                            return Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
                                context: "set-former branches are not union-compatible".into(),
                            }));
                        }
                    }
                }
            }
            // The empty-branches case returned above, so at least one
            // iteration populated `result`.
            result.ok_or_else(|| EvalError::Other("set former with no branches".into()))
        }
    }
}

fn check_branch(
    branch: &Branch,
    cat: &dyn SchemaCatalog,
    scope: &mut Scope,
) -> Result<Schema, EvalError> {
    // Every binding range is evaluated in the enclosing scope, before the
    // branch binds any of its variables.
    let schemas = branch
        .bindings
        .iter()
        .map(|(_, range)| check_range_scoped(range, cat, scope))
        .collect::<Result<Vec<_>, _>>()?;
    let mark = scope.len();
    scope.extend(branch.bindings.iter().map(|(v, _)| v.clone()).zip(schemas));
    let result = (|| {
        check_formula_scoped(&branch.predicate, cat, scope)?;
        match &branch.target {
            Target::Var(v) => scope
                .iter()
                .rev()
                .find(|(sv, _)| sv == v)
                .map(|(_, s)| s.clone())
                .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
            Target::Tuple(exprs) => {
                let mut attrs = Vec::with_capacity(exprs.len());
                for (e, name) in exprs.iter().zip(rewrite::target_names(exprs)) {
                    let d = check_scalar(e, cat, scope)?;
                    attrs.push(dc_value::Attribute::new(name, d.base()));
                }
                Ok(Schema::new(attrs))
            }
        }
    })();
    scope.truncate(mark);
    result
}

/// Check a closed formula.
pub fn check_formula(f: &Formula, cat: &dyn SchemaCatalog) -> Result<(), EvalError> {
    check_formula_scoped(f, cat, &mut Vec::new())
}

/// Check a formula under a pre-populated variable scope (used for
/// selector bodies, where the element variable is in scope).
pub fn check_formula_in_scope(
    f: &Formula,
    cat: &dyn SchemaCatalog,
    scope: &[(Var, Schema)],
) -> Result<(), EvalError> {
    let mut scope: Scope = scope.to_vec();
    check_formula_scoped(f, cat, &mut scope)
}

fn check_formula_scoped(
    f: &Formula,
    cat: &dyn SchemaCatalog,
    scope: &mut Scope,
) -> Result<(), EvalError> {
    match f {
        Formula::True | Formula::False => Ok(()),
        Formula::Cmp(l, _, r) => {
            let ld = check_scalar(l, cat, scope)?;
            let rd = check_scalar(r, cat, scope)?;
            if ld.comparable_with(&rd) {
                Ok(())
            } else {
                Err(EvalError::CrossTypeComparison {
                    lhs: ld.to_string(),
                    rhs: rd.to_string(),
                })
            }
        }
        Formula::And(a, b) | Formula::Or(a, b) => {
            check_formula_scoped(a, cat, scope)?;
            check_formula_scoped(b, cat, scope)
        }
        Formula::Not(inner) => check_formula_scoped(inner, cat, scope),
        Formula::Some(v, range, body) | Formula::All(v, range, body) => {
            let schema = check_range_scoped(range, cat, scope)?;
            scope.push((v.clone(), schema));
            let r = check_formula_scoped(body, cat, scope);
            scope.pop();
            r
        }
        Formula::Member(v, range) => {
            let vschema = scope
                .iter()
                .rev()
                .find(|(sv, _)| sv == v)
                .map(|(_, s)| s.clone())
                .ok_or_else(|| EvalError::UnboundVariable(v.clone()))?;
            let rschema = check_range_scoped(range, cat, scope)?;
            if vschema.union_compatible(&rschema) {
                Ok(())
            } else {
                Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
                    context: format!("`{v} IN …` with incompatible schemas"),
                }))
            }
        }
        Formula::TupleIn(exprs, range) => {
            let rschema = check_range_scoped(range, cat, scope)?;
            if exprs.len() != rschema.arity() {
                return Err(EvalError::Type(dc_value::TypeError::ArityMismatch {
                    expected: rschema.arity(),
                    actual: exprs.len(),
                }));
            }
            for (i, e) in exprs.iter().enumerate() {
                let d = check_scalar(e, cat, scope)?;
                if !d.comparable_with(rschema.domain(i)) {
                    return Err(EvalError::Type(dc_value::TypeError::SchemaMismatch {
                        context: format!("component {i} of tuple membership"),
                    }));
                }
            }
            Ok(())
        }
    }
}

/// Check a scalar expression; returns its domain.
pub fn check_scalar(
    e: &ScalarExpr,
    cat: &dyn SchemaCatalog,
    scope: &Scope,
) -> Result<Domain, EvalError> {
    match e {
        ScalarExpr::Const(v) => Ok(value_domain(v)),
        ScalarExpr::Param(p) => cat.param_domain(p),
        ScalarExpr::Attr(v, a) => {
            let schema = scope
                .iter()
                .rev()
                .find(|(sv, _)| sv == v)
                .map(|(_, s)| s.clone())
                .ok_or_else(|| EvalError::UnboundVariable(v.clone()))?;
            let pos = schema.position(a)?;
            Ok(schema.domain(pos).clone())
        }
        ScalarExpr::Arith(l, op, r) => {
            let ld = check_scalar(l, cat, scope)?;
            let rd = check_scalar(r, cat, scope)?;
            if !ld.is_numeric() || !rd.is_numeric() || !ld.comparable_with(&rd) {
                return Err(EvalError::Value(
                    dc_value::ValueError::IncompatibleOperands {
                        op: match op {
                            crate::ast::ArithOp::Add => "+",
                            crate::ast::ArithOp::Sub => "-",
                            crate::ast::ArithOp::Mul => "*",
                            crate::ast::ArithOp::Div => "DIV",
                            crate::ast::ArithOp::Mod => "MOD",
                        },
                        lhs: dc_value::Value::str(ld.to_string()),
                        rhs: dc_value::Value::str(rd.to_string()),
                    },
                ));
            }
            Ok(ld.base())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Branch;
    use crate::builder::*;

    fn catalog() -> MapSchemaCatalog {
        MapSchemaCatalog {
            relations: vec![
                (
                    "Infront".into(),
                    Schema::of(&[("front", Domain::Str), ("back", Domain::Str)]),
                ),
                ("N".into(), Schema::of(&[("n", Domain::Int)])),
            ],
            selectors: vec![SelectorDef {
                name: "hidden_by".into(),
                element_var: "r".into(),
                params: vec![("Obj".into(), Domain::Str)],
                predicate: eq(attr("r", "front"), param("Obj")),
            }],
            constructors: vec![ConstructorSig {
                name: "ahead".into(),
                base_schema: Schema::of(&[("front", Domain::Str), ("back", Domain::Str)]),
                rel_params: vec![],
                scalar_params: vec![],
                result: Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)]),
            }],
            params: vec![],
        }
    }

    #[test]
    fn base_relation_schema() {
        let s = check_range(&rel("Infront"), &catalog()).unwrap();
        assert_eq!(s.arity(), 2);
        assert!(check_range(&rel("Missing"), &catalog()).is_err());
    }

    #[test]
    fn set_former_schema_and_compat() {
        let e = set_former(vec![
            Branch::each("r", rel("Infront"), tru()),
            Branch::projecting(
                vec![attr("f", "front"), attr("b", "back")],
                vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
                eq(attr("f", "back"), attr("b", "front")),
            ),
        ]);
        let s = check_range(&e, &catalog()).unwrap();
        assert_eq!(s.arity(), 2);

        // Incompatible second branch.
        let bad = set_former(vec![
            Branch::each("r", rel("Infront"), tru()),
            Branch::each("x", rel("N"), tru()),
        ]);
        assert!(check_range(&bad, &catalog()).is_err());
    }

    #[test]
    fn unknown_attribute_caught() {
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            eq(attr("r", "top"), cnst("x")),
        )]);
        assert!(matches!(
            check_range(&e, &catalog()),
            Err(EvalError::Type(
                dc_value::TypeError::UnknownAttribute { .. }
            ))
        ));
    }

    #[test]
    fn cross_type_comparison_caught() {
        let e = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            eq(attr("r", "front"), cnst(1i64)),
        )]);
        assert!(matches!(
            check_range(&e, &catalog()),
            Err(EvalError::CrossTypeComparison { .. })
        ));
    }

    #[test]
    fn selector_application_checked() {
        let ok = rel("Infront").select("hidden_by", vec![cnst("table")]);
        assert!(check_range(&ok, &catalog()).is_ok());

        let wrong_arity = rel("Infront").select("hidden_by", vec![]);
        assert!(matches!(
            check_range(&wrong_arity, &catalog()),
            Err(EvalError::ArityMismatch { .. })
        ));

        let wrong_type = rel("Infront").select("hidden_by", vec![cnst(1i64)]);
        assert!(check_range(&wrong_type, &catalog()).is_err());
    }

    #[test]
    fn constructor_application_checked() {
        let ok = rel("Infront").construct("ahead", vec![]);
        let s = check_range(&ok, &catalog()).unwrap();
        assert_eq!(s.attributes()[0].name, "head");

        let wrong_base = rel("N").construct("ahead", vec![]);
        assert!(check_range(&wrong_base, &catalog()).is_err());

        let wrong_args = rel("Infront").construct("ahead", vec![rel("N")]);
        assert!(matches!(
            check_range(&wrong_args, &catalog()),
            Err(EvalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn arith_type_rules() {
        let ok = set_former(vec![Branch::projecting(
            vec![add(attr("r", "n"), cnst(1i64))],
            vec![("r".into(), rel("N"))],
            tru(),
        )]);
        assert!(check_range(&ok, &catalog()).is_ok());

        let bad = set_former(vec![Branch::projecting(
            vec![add(attr("r", "n"), cnst("x"))],
            vec![("r".into(), rel("N"))],
            tru(),
        )]);
        assert!(check_range(&bad, &catalog()).is_err());
    }

    #[test]
    fn quantifier_scoping() {
        // ALL x IN N (x.n < r.n) with r from the outer branch: fine.
        let e = set_former(vec![Branch::each(
            "r",
            rel("N"),
            all("x", rel("N"), lt(attr("x", "n"), attr("r", "n"))),
        )]);
        assert!(check_range(&e, &catalog()).is_ok());

        // Variable leaks out of quantifier scope: error.
        let bad = set_former(vec![Branch::each(
            "r",
            rel("N"),
            some("x", rel("N"), tru()).and(eq(attr("x", "n"), cnst(1i64))),
        )]);
        assert!(matches!(
            check_range(&bad, &catalog()),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn binding_ranges_are_checked_in_the_enclosing_scope() {
        // `b`'s range is evaluated before the branch binds `a`.
        let dependent = set_former(vec![Branch {
            target: Target::Var("a".into()),
            bindings: vec![
                ("a".into(), rel("Infront")),
                (
                    "b".into(),
                    rel("Infront").select("hidden_by", vec![attr("a", "front")]),
                ),
            ],
            predicate: tru(),
        }]);
        assert!(matches!(
            check_range(&dependent, &catalog()),
            Err(EvalError::UnboundVariable(v)) if v == "a"
        ));
        // Under an outer `a`, the range's `a` is that one.
        let outer = set_former(vec![Branch::each(
            "a",
            rel("Infront"),
            some("z", dependent, tru()),
        )]);
        assert!(check_range(&outer, &catalog()).is_ok());
    }

    #[test]
    fn repeated_target_names_are_the_evaluators() {
        // `<f.front, b.front>` yields `(front, front_)`, as it evaluates.
        let pairs = set_former(vec![Branch::projecting(
            vec![attr("f", "front"), attr("b", "front")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            tru(),
        )]);
        let schema = check_range(&pairs, &catalog()).unwrap();
        let names: Vec<&str> = schema
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, ["front", "front_"]);
        let query = set_former(vec![Branch::each(
            "x",
            pairs,
            eq(attr("x", "front_"), cnst("vase")),
        )]);
        assert!(check_range(&query, &catalog()).is_ok());
    }

    #[test]
    fn membership_checked() {
        let ok = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            member("r", rel("Infront")),
        )]);
        assert!(check_range(&ok, &catalog()).is_ok());

        let bad = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            member("r", rel("N")),
        )]);
        assert!(check_range(&bad, &catalog()).is_err());

        let tuple_ok = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            tuple_in(vec![attr("r", "back"), attr("r", "front")], rel("Infront")),
        )]);
        assert!(check_range(&tuple_ok, &catalog()).is_ok());

        let tuple_bad_arity = set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            tuple_in(vec![attr("r", "back")], rel("Infront")),
        )]);
        assert!(check_range(&tuple_bad_arity, &catalog()).is_err());
    }

    #[test]
    fn formula_in_scope_for_selector_bodies() {
        let cat = catalog();
        let schema = cat.relation_schema("Infront").unwrap();
        let pred = eq(attr("r", "front"), cnst("x"));
        assert!(check_formula_in_scope(&pred, &cat, &[("r".into(), schema)]).is_ok());
        assert!(check_formula(&pred, &cat).is_err()); // r unbound
    }
}
