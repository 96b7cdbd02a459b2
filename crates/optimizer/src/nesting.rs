//! Range nesting (Jarke/Koch 1983) and the §4 case analysis.
//!
//! The paper treats selected and constructed relations as *named
//! range-nested expressions* and compiles queries over them back into
//! queries over base relations using:
//!
//! ```text
//! N1: {EACH r IN R: p1 AND p2}  <==>  {EACH r IN {EACH r' IN R: p1}: p2}
//! N2: SOME r IN R (p1 AND p2)   <==>  SOME r IN {EACH r' IN R: p1} (p2)
//! N3: ALL r IN R (NOT p1 OR p2) <==>  ALL r IN {EACH r' IN R: p1} (p2)
//! ```
//!
//! plus the case analysis for `{EACH r IN Rel{constr}: pred}` where
//! `constr` is non-recursive:
//!
//! * **Case 1 (selector)** — single branch, single variable: N1–N3
//!   apply directly.
//! * **Case 2 (join)** — substitute `r.f` by the target expression in
//!   position `f`.
//! * **Case 3 (union)** — distribute the predicate over the branches
//!   (requires the predicate to satisfy the positivity constraint).
//!
//! [`inline_applications`] performs the paper's "full decompilation"
//! for non-recursive queries: selector and (non-recursive) constructor
//! applications are replaced by their instantiated bodies, and
//! [`push_predicate`] then drives the predicate inward. Case 2's
//! substitution is [`rewrite::substitute_attr_refs`] over a
//! [`rewrite::target_map`] — the same one the evaluator's
//! [`rewrite::unnest_quantifier`] runs N2/N3 backwards with, so the
//! paper's rules have one implementation.

use dc_calculus::ast::{Branch, Formula, RangeExpr, ScalarExpr, SetFormer, Target};
use dc_calculus::positivity::{self, Tracked};
use dc_calculus::rewrite::{self, substitute_attr_refs, target_map};
use dc_calculus::EvalError;
use dc_core::Database;
use dc_value::FxHashMap;

/// Inline every selector application and every *non-recursive*
/// constructor application in a range expression, substituting formals
/// by actuals — the paper's decompilation of named range-nested
/// expressions. Recursive applications are left in place (they go to
/// the fixpoint machinery instead).
pub fn inline_applications(db: &Database, range: &RangeExpr) -> Result<RangeExpr, EvalError> {
    Ok(match range {
        RangeExpr::Rel(_) => range.clone(),
        RangeExpr::Selected {
            base,
            selector,
            args,
        } => {
            let base = inline_applications(db, base)?;
            let def = dc_calculus::Catalog::selector(db, selector)?.clone();
            if args.len() != def.params.len() {
                return Err(EvalError::ArityMismatch {
                    name: def.name.clone(),
                    expected: def.params.len(),
                    actual: args.len(),
                });
            }
            // Parameters must be constants for static inlining.
            let mut pmap = FxHashMap::default();
            for ((pname, _), arg) in def.params.iter().zip(args) {
                match arg {
                    ScalarExpr::Const(v) => {
                        pmap.insert(pname.clone(), *v);
                    }
                    _ => return Ok(range.clone()), // leave dynamic applications alone
                }
            }
            let pred = rewrite::substitute_params(&def.predicate, &pmap);
            RangeExpr::SetFormer(SetFormer {
                branches: vec![Branch::each(def.element_var.clone(), base, pred)],
            })
        }
        RangeExpr::Constructed {
            base,
            constructor,
            args,
            scalar_args,
        } => {
            let ctor = db
                .constructor_ref(constructor)
                .map_err(|_| EvalError::UnknownConstructor(constructor.clone()))?;
            // Recursive (any constructor application in its own body)?
            let body_range = RangeExpr::SetFormer(ctor.body.clone());
            if !rewrite::collect_constructed(&body_range).is_empty() {
                return Ok(range.clone());
            }
            // Non-recursive: substitute formals.
            if args.len() != ctor.rel_params.len() || scalar_args.len() != ctor.scalar_params.len()
            {
                return Ok(range.clone());
            }
            let base = inline_applications(db, base)?;
            let mut rel_map = FxHashMap::default();
            rel_map.insert(ctor.base_param.0.clone(), base);
            for ((pname, _), actual) in ctor.rel_params.iter().zip(args) {
                rel_map.insert(pname.clone(), inline_applications(db, actual)?);
            }
            let mut pmap = FxHashMap::default();
            for ((pname, _), arg) in ctor.scalar_params.iter().zip(scalar_args) {
                match arg {
                    ScalarExpr::Const(v) => {
                        pmap.insert(pname.clone(), *v);
                    }
                    _ => return Ok(range.clone()),
                }
            }
            let body = rewrite::substitute_params(&body_range, &pmap);
            rewrite::substitute_rel(&body, &rel_map)
        }
        RangeExpr::SetFormer(sf) => {
            let mut branches = Vec::with_capacity(sf.branches.len());
            for b in &sf.branches {
                let mut bindings = Vec::with_capacity(b.bindings.len());
                for (v, r) in &b.bindings {
                    bindings.push((v.clone(), inline_applications(db, r)?));
                }
                branches.push(Branch {
                    target: b.target.clone(),
                    bindings,
                    predicate: b.predicate.clone(),
                });
            }
            RangeExpr::SetFormer(SetFormer { branches })
        }
    })
}

/// Push the predicate of a single-binding query
/// `{EACH var IN <set-former>: pred}` into the set former's branches —
/// Cases 1–3 of §4. Returns `None` when the rewrite does not apply
/// (e.g. the predicate is not positive, per the paper's Case 3
/// proviso, or a branch's target cannot be substituted).
pub fn push_predicate(
    var: &str,
    inner: &SetFormer,
    pred: &Formula,
    result_names: &[String],
) -> Option<SetFormer> {
    // Case 3 proviso: pred must satisfy the positivity constraint
    // w.r.t. constructed relations it mentions.
    if !positivity::check_formula(pred, &Tracked::AllConstructed).is_empty() {
        return None;
    }
    let mut branches = Vec::with_capacity(inner.branches.len());
    for b in &inner.branches {
        let map = target_map(&b.target, result_names)?;
        let pushed = substitute_attr_refs(pred, var, &b.target, &map).ok()?;
        branches.push(Branch {
            target: b.target.clone(),
            bindings: b.bindings.clone(),
            predicate: b.predicate.clone().and(pushed),
        });
    }
    Some(SetFormer { branches })
}

/// Full Case-1/2/3 rewrite of `{EACH var IN range: pred}` over a
/// non-recursive application: inline, then push. Returns the original
/// query untouched when any step does not apply.
pub fn rewrite_query(db: &Database, query: &RangeExpr) -> Result<RangeExpr, EvalError> {
    let RangeExpr::SetFormer(sf) = query else {
        return inline_applications(db, query);
    };
    if sf.branches.len() != 1 {
        return inline_applications(db, query);
    }
    let b = &sf.branches[0];
    if b.bindings.len() != 1 || !matches!(b.target, Target::Var(_)) {
        return inline_applications(db, query);
    }
    let (var, range) = &b.bindings[0];
    // The result attribute names the predicate refers to: from the
    // range's static schema.
    let schema = dc_calculus::typeck::check_range(range, db)?;
    let names: Vec<String> = schema.attributes().iter().map(|a| a.name.clone()).collect();
    let inlined = inline_applications(db, range)?;
    if let RangeExpr::SetFormer(inner) = &inlined {
        if let Some(pushed) = push_predicate(var, inner, &b.predicate, &names) {
            return Ok(RangeExpr::SetFormer(pushed));
        }
    }
    Ok(RangeExpr::SetFormer(SetFormer {
        branches: vec![Branch {
            target: b.target.clone(),
            bindings: vec![(var.clone(), inlined)],
            predicate: b.predicate.clone(),
        }],
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::ast::SelectorDef;
    use dc_calculus::builder::*;
    use dc_value::{tuple, Domain, Schema};

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn scene_db() -> Database {
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.insert_all(
            "Infront",
            vec![
                tuple!["vase", "table"],
                tuple!["table", "chair"],
                tuple!["chair", "wall"],
            ],
        )
        .unwrap();
        db.define_selector(
            SelectorDef {
                name: "hidden_by".into(),
                element_var: "r".into(),
                params: vec![("Obj".into(), Domain::Str)],
                predicate: eq(attr("r", "front"), param("Obj")),
            },
            infrontrel(),
        )
        .unwrap();
        // Non-recursive constructor: ahead_2 from §2.3.
        db.define_constructor(dc_core::Constructor {
            name: "ahead2".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: infrontrel(),
            body: dc_calculus::ast::SetFormer {
                branches: vec![
                    Branch::each("r", rel("Rel"), tru()),
                    Branch::projecting(
                        vec![attr("f", "front"), attr("b", "back")],
                        vec![("f".into(), rel("Rel")), ("b".into(), rel("Rel"))],
                        eq(attr("f", "back"), attr("b", "front")),
                    ),
                ],
            },
        })
        .unwrap();
        db
    }

    #[test]
    fn selector_inlines_to_set_former() {
        let db = scene_db();
        let q = rel("Infront").select("hidden_by", vec![cnst("table")]);
        let inlined = inline_applications(&db, &q).unwrap();
        match &inlined {
            RangeExpr::SetFormer(sf) => {
                assert_eq!(sf.branches.len(), 1);
                assert!(sf.branches[0].predicate.to_string().contains("\"table\""));
            }
            other => panic!("expected set former, got {other}"),
        }
        // Semantics preserved.
        let a = db.eval(&q).unwrap();
        let b = db.eval_unchecked(&inlined).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nonrecursive_constructor_inlines() {
        let db = scene_db();
        let q = rel("Infront").construct("ahead2", vec![]);
        let inlined = inline_applications(&db, &q).unwrap();
        assert!(matches!(inlined, RangeExpr::SetFormer(_)));
        let a = db.eval(&q).unwrap();
        let b = db.eval_unchecked(&inlined).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn recursive_constructor_left_alone() {
        let mut db = scene_db();
        db.define_constructor(dc_core::Constructor {
            name: "ahead".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: infrontrel(),
            body: dc_calculus::ast::SetFormer {
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
            },
        })
        .unwrap();
        let q = rel("Infront").construct("ahead", vec![]);
        let inlined = inline_applications(&db, &q).unwrap();
        assert_eq!(inlined, q);
    }

    #[test]
    fn case_2_and_3_pushdown() {
        let db = scene_db();
        // {EACH r IN Infront{ahead2}: r.front = "vase"}
        let q = set_former(vec![Branch::each(
            "r",
            rel("Infront").construct("ahead2", vec![]),
            eq(attr("r", "front"), cnst("vase")),
        )]);
        let rewritten = rewrite_query(&db, &q).unwrap();
        // The rewrite distributed the predicate over both branches
        // (Case 3) substituting target expressions (Case 2).
        match &rewritten {
            RangeExpr::SetFormer(sf) => {
                assert_eq!(sf.branches.len(), 2);
                // Second branch predicate now constrains f.front.
                let p = sf.branches[1].predicate.to_string();
                assert!(p.contains("f.front = \"vase\""), "{p}");
            }
            other => panic!("expected set former, got {other}"),
        }
        // Semantics preserved.
        let a = db.eval(&q).unwrap();
        let b = db.eval_unchecked(&rewritten).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2); // (vase,table), (vase,chair)
    }

    #[test]
    fn pushdown_requires_positive_predicate() {
        // A predicate mentioning a constructed relation under NOT is
        // not distributed (Case 3 proviso).
        let names = vec!["front".to_string(), "back".to_string()];
        let inner = SetFormer {
            branches: vec![Branch::each("r", rel("Infront"), tru())],
        };
        let pred = not(Formula::TupleIn(
            vec![attr("q", "front"), attr("q", "back")],
            rel("Infront").construct("ahead2", vec![]),
        ));
        assert!(push_predicate("q", &inner, &pred, &names).is_none());
    }
}
