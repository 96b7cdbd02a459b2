//! Constructor → Horn-clause translation: the constructive direction of
//! the §3.4 lemma ("Horn clauses are precisely representable by applying
//! a single fixed point operator to a positive existential query").
//!
//! Each set-former branch becomes one clause:
//!
//! ```text
//! EACH r IN Rel: TRUE                      ⇒  ahead(X0,X1) :- rel(X0,X1).
//! <f.front, b.tail> OF
//!   EACH f IN Rel, EACH b IN Rel{ahead}:
//!   f.back = b.head                        ⇒  ahead(F0,B1) :- rel(F0,Y), ahead(Y,B1).
//! ```
//!
//! The translatable fragment is exactly the lemma's: positive
//! existential bodies with equality joins — no negation, no universal
//! quantification, no order comparisons, no arithmetic. Anything
//! outside produces [`PrologError::NotHornExpressible`], which is
//! itself a faithful rendering of the lemma's scope.

use dc_calculus::ast::{Branch, Formula, RangeExpr, ScalarExpr, Target};
use dc_calculus::CmpOp;
use dc_core::constructor::Constructor;
use dc_value::{FxHashMap, Schema, Value};

use crate::error::PrologError;
use crate::program::Clause;
use crate::term::{Atom, Term};

/// Union-find over variable tokens with optional constant bindings —
/// resolves the equality predicates of a branch into a most-general
/// unifier at translation time.
#[derive(Default)]
struct TokenUnion {
    parent: FxHashMap<String, String>,
    constant: FxHashMap<String, Value>,
}

impl TokenUnion {
    fn find(&mut self, token: &str) -> String {
        let p = match self.parent.get(token) {
            Some(p) => p.clone(),
            None => return token.to_string(),
        };
        let root = self.find(&p);
        self.parent.insert(token.to_string(), root.clone());
        root
    }

    fn union(&mut self, a: &str, b: &str) -> Result<(), PrologError> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(());
        }
        match (
            self.constant.get(&ra).cloned(),
            self.constant.get(&rb).cloned(),
        ) {
            (Some(x), Some(y)) if x != y => Err(PrologError::NotHornExpressible(format!(
                "contradictory constants {x} and {y}"
            ))),
            (Some(x), _) => {
                self.parent.insert(rb.clone(), ra.clone());
                self.constant.insert(ra, x);
                Ok(())
            }
            (_, y) => {
                self.parent.insert(ra.clone(), rb.clone());
                if let Some(y) = y {
                    self.constant.insert(rb, y);
                }
                Ok(())
            }
        }
    }

    fn bind_const(&mut self, token: &str, v: Value) -> Result<(), PrologError> {
        let r = self.find(token);
        match self.constant.get(&r) {
            Some(existing) if *existing != v => Err(PrologError::NotHornExpressible(format!(
                "contradictory constants {existing} and {v}"
            ))),
            _ => {
                self.constant.insert(r, v);
                Ok(())
            }
        }
    }

    fn term_of(&mut self, token: &str) -> Term {
        let r = self.find(token);
        match self.constant.get(&r) {
            Some(v) => Term::Const(*v),
            None => Term::Var(r),
        }
    }
}

/// Schema resolution for ranges appearing in a constructor body.
struct Schemas<'a> {
    ctor: &'a Constructor,
    /// Result schemas of peer constructors (for mutual recursion).
    peers: &'a FxHashMap<String, Schema>,
}

impl Schemas<'_> {
    fn of_range(&self, range: &RangeExpr) -> Result<(String, Schema), PrologError> {
        match range {
            RangeExpr::Rel(n) => {
                if *n == self.ctor.base_param.0 {
                    // The formal base translates to the base EDB
                    // predicate, named after the formal (lowercased by
                    // the caller via `base_pred`).
                    Ok((n.clone(), self.ctor.base_param.1.clone()))
                } else if let Some((_, s)) = self.ctor.rel_params.iter().find(|(p, _)| p == n) {
                    Ok((n.clone(), s.clone()))
                } else {
                    // A free relation name: EDB predicate of that name.
                    Err(PrologError::NotHornExpressible(format!(
                        "free relation `{n}` needs an explicit predicate mapping"
                    )))
                }
            }
            RangeExpr::Constructed { constructor, .. } => {
                let schema = if *constructor == self.ctor.name {
                    self.ctor.result.clone()
                } else {
                    self.peers.get(constructor).cloned().ok_or_else(|| {
                        PrologError::NotHornExpressible(format!(
                            "unknown peer constructor `{constructor}`"
                        ))
                    })?
                };
                Ok((constructor.clone(), schema))
            }
            RangeExpr::Selected { .. } => Err(PrologError::NotHornExpressible(
                "selector application in a translated body".into(),
            )),
            RangeExpr::SetFormer(_) => Err(PrologError::NotHornExpressible(
                "nested set former in a translated body".into(),
            )),
        }
    }
}

/// Translate one constructor into Horn clauses.
///
/// * `pred_names` maps range names — the formal base name, formal
///   relation parameter names, and constructor names — to predicate
///   names (e.g. `{"Rel" → "infront", "ahead" → "ahead"}`).
/// * `peer_results` supplies result schemas of mutually recursive peer
///   constructors.
pub fn translate_constructor(
    ctor: &Constructor,
    pred_names: &FxHashMap<String, String>,
    peer_results: &FxHashMap<String, Schema>,
) -> Result<Vec<Clause>, PrologError> {
    let head_pred = pred_names
        .get(&ctor.name)
        .cloned()
        .unwrap_or_else(|| ctor.name.clone());
    let schemas = Schemas {
        ctor,
        peers: peer_results,
    };
    let mut clauses = Vec::new();
    for branch in &ctor.body.branches {
        clauses.push(translate_branch(
            ctor, branch, &head_pred, pred_names, &schemas,
        )?);
    }
    Ok(clauses)
}

fn token(var: &str, pos: usize) -> String {
    format!("{var}_{pos}")
}

fn translate_branch(
    ctor: &Constructor,
    branch: &Branch,
    head_pred: &str,
    pred_names: &FxHashMap<String, String>,
    schemas: &Schemas<'_>,
) -> Result<Clause, PrologError> {
    let mut uf = TokenUnion::default();
    // Variable → schema, for attribute-position resolution.
    let mut var_schemas: FxHashMap<String, Schema> = FxHashMap::default();
    // Body atoms with raw tokens (representatives substituted at the
    // end).
    let mut body: Vec<(String, Vec<String>)> = Vec::new();

    let add_binding = |uf: &mut TokenUnion,
                       var_schemas: &mut FxHashMap<String, Schema>,
                       body: &mut Vec<(String, Vec<String>)>,
                       var: &str,
                       range: &RangeExpr|
     -> Result<(), PrologError> {
        let (range_name, schema) = schemas.of_range(range)?;
        let pred = pred_names.get(&range_name).cloned().unwrap_or(range_name);
        let tokens: Vec<String> = (0..schema.arity()).map(|i| token(var, i)).collect();
        let _ = uf; // tokens are fresh; nothing to union yet
        var_schemas.insert(var.to_string(), schema);
        body.push((pred, tokens));
        Ok(())
    };

    for (var, range) in &branch.bindings {
        add_binding(&mut uf, &mut var_schemas, &mut body, var, range)?;
    }

    // Resolve the predicate into equalities over tokens.
    collect_equalities(
        &branch.predicate,
        &mut uf,
        &mut var_schemas,
        &mut body,
        pred_names,
        schemas,
    )?;

    // Head.
    let head_args: Vec<Term> = match &branch.target {
        Target::Var(v) => {
            let schema = var_schemas
                .get(v)
                .ok_or_else(|| PrologError::NotHornExpressible(format!("unbound `{v}`")))?;
            (0..schema.arity())
                .map(|i| uf.term_of(&token(v, i)))
                .collect()
        }
        Target::Tuple(exprs) => {
            let mut args = Vec::with_capacity(exprs.len());
            for e in exprs {
                args.push(scalar_term(e, &mut uf, &var_schemas)?);
            }
            args
        }
    };
    let head = Atom::new(head_pred, head_args);

    let body_atoms: Vec<Atom> = body
        .into_iter()
        .map(|(pred, tokens)| Atom::new(pred, tokens.iter().map(|t| uf.term_of(t)).collect()))
        .collect();

    let clause = Clause::rule(head, body_atoms);
    clause.check_safe()?;
    let _ = ctor;
    Ok(clause)
}

fn scalar_term(
    e: &ScalarExpr,
    uf: &mut TokenUnion,
    var_schemas: &FxHashMap<String, Schema>,
) -> Result<Term, PrologError> {
    match e {
        ScalarExpr::Const(v) => Ok(Term::Const(*v)),
        ScalarExpr::Attr(var, attr) => {
            let schema = var_schemas.get(var).ok_or_else(|| {
                PrologError::NotHornExpressible(format!("unknown variable `{var}`"))
            })?;
            let pos = schema.position(attr).map_err(|_| {
                PrologError::NotHornExpressible(format!("unknown attribute `{var}.{attr}`"))
            })?;
            Ok(uf.term_of(&token(var, pos)))
        }
        ScalarExpr::Param(p) => Err(PrologError::NotHornExpressible(format!(
            "unsubstituted parameter `{p}`"
        ))),
        ScalarExpr::Arith(..) => Err(PrologError::NotHornExpressible(
            "arithmetic is outside function-free Horn clauses".into(),
        )),
    }
}

#[allow(clippy::too_many_arguments)]
fn collect_equalities(
    f: &Formula,
    uf: &mut TokenUnion,
    var_schemas: &mut FxHashMap<String, Schema>,
    body: &mut Vec<(String, Vec<String>)>,
    pred_names: &FxHashMap<String, String>,
    schemas: &Schemas<'_>,
) -> Result<(), PrologError> {
    match f {
        Formula::True => Ok(()),
        Formula::And(a, b) => {
            collect_equalities(a, uf, var_schemas, body, pred_names, schemas)?;
            collect_equalities(b, uf, var_schemas, body, pred_names, schemas)
        }
        Formula::Cmp(l, CmpOp::Eq, r) => {
            let lt = eq_side(l, var_schemas)?;
            let rt = eq_side(r, var_schemas)?;
            match (lt, rt) {
                (EqSide::Token(a), EqSide::Token(b)) => uf.union(&a, &b),
                (EqSide::Token(a), EqSide::Const(v)) | (EqSide::Const(v), EqSide::Token(a)) => {
                    uf.bind_const(&a, v)
                }
                (EqSide::Const(a), EqSide::Const(b)) => {
                    if a == b {
                        Ok(())
                    } else {
                        Err(PrologError::NotHornExpressible("FALSE branch".into()))
                    }
                }
            }
        }
        Formula::Some(v, range, inner) => {
            let (range_name, schema) = schemas.of_range(range)?;
            let pred = pred_names.get(&range_name).cloned().unwrap_or(range_name);
            let tokens: Vec<String> = (0..schema.arity()).map(|i| token(v, i)).collect();
            var_schemas.insert(v.clone(), schema);
            body.push((pred, tokens));
            collect_equalities(inner, uf, var_schemas, body, pred_names, schemas)
        }
        Formula::False => Err(PrologError::NotHornExpressible("FALSE".into())),
        Formula::Cmp(_, op, _) => Err(PrologError::NotHornExpressible(format!(
            "comparison `{op}` (only `=` is Horn-expressible)"
        ))),
        Formula::Or(..) => Err(PrologError::NotHornExpressible(
            "disjunction inside a branch (split into branches instead)".into(),
        )),
        Formula::Not(_) => Err(PrologError::NotHornExpressible(
            "negation (the lemma concerns PROLOG without negation)".into(),
        )),
        Formula::All(..) => Err(PrologError::NotHornExpressible(
            "universal quantification".into(),
        )),
        Formula::Member(..) | Formula::TupleIn(..) => Err(PrologError::NotHornExpressible(
            "membership predicates (bind a variable with EACH/SOME instead)".into(),
        )),
    }
}

enum EqSide {
    Token(String),
    Const(Value),
}

fn eq_side(e: &ScalarExpr, var_schemas: &FxHashMap<String, Schema>) -> Result<EqSide, PrologError> {
    match e {
        ScalarExpr::Const(v) => Ok(EqSide::Const(*v)),
        ScalarExpr::Attr(var, attr) => {
            let schema = var_schemas.get(var).ok_or_else(|| {
                PrologError::NotHornExpressible(format!("unknown variable `{var}`"))
            })?;
            let pos = schema.position(attr).map_err(|_| {
                PrologError::NotHornExpressible(format!("unknown attribute `{var}.{attr}`"))
            })?;
            Ok(EqSide::Token(token(var, pos)))
        }
        other => Err(PrologError::NotHornExpressible(format!(
            "scalar expression `{other}` in equality"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use crate::sld::{self, SldConfig};
    use crate::tabled;
    use dc_calculus::ast::SetFormer;
    use dc_calculus::builder::*;
    use dc_relation::Relation;
    use dc_value::{tuple, Domain};

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn aheadrel() -> Schema {
        Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)])
    }

    fn ahead_ctor() -> Constructor {
        Constructor {
            name: "ahead".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: aheadrel(),
            body: SetFormer {
                branches: vec![
                    dc_calculus::ast::Branch::each("r", rel("Rel"), tru()),
                    dc_calculus::ast::Branch::projecting(
                        vec![attr("f", "front"), attr("b", "tail")],
                        vec![
                            ("f".into(), rel("Rel")),
                            ("b".into(), rel("Rel").construct("ahead", vec![])),
                        ],
                        eq(attr("f", "back"), attr("b", "head")),
                    ),
                ],
            },
        }
    }

    fn pred_map() -> FxHashMap<String, String> {
        let mut m = FxHashMap::default();
        m.insert("Rel".to_string(), "infront".to_string());
        m.insert("ahead".to_string(), "ahead".to_string());
        m
    }

    #[test]
    fn ahead_translates_to_textbook_clauses() {
        let clauses =
            translate_constructor(&ahead_ctor(), &pred_map(), &FxHashMap::default()).unwrap();
        assert_eq!(clauses.len(), 2);
        assert_eq!(
            clauses[0].to_string(),
            "ahead(r_0, r_1) :- infront(r_0, r_1)."
        );
        // The join variable is unified: f_1 and b_0 share one
        // representative.
        let c1 = clauses[1].to_string();
        assert!(c1.starts_with("ahead(f_0, b_1) :- infront(f_0, "), "{c1}");
        assert!(c1.contains("ahead("), "{c1}");
        // The two body atoms share the join variable.
        let joins: Vec<&str> = clauses[1].body[0]
            .vars()
            .into_iter()
            .filter(|v| clauses[1].body[1].vars().contains(v))
            .collect();
        assert_eq!(joins.len(), 1);
    }

    #[test]
    fn translated_program_agrees_with_sld_and_tabled() {
        let clauses =
            translate_constructor(&ahead_ctor(), &pred_map(), &FxHashMap::default()).unwrap();
        let base = Relation::from_tuples(
            infrontrel(),
            vec![tuple!["a", "b"], tuple!["b", "c"], tuple!["c", "d"]],
        )
        .unwrap();
        let mut p = Program::new();
        p.add_relation("infront", &base);
        for c in clauses {
            p.add_rule(c).unwrap();
        }
        let q = crate::atom!("ahead"; var "X", var "Y");
        let s = sld::solve(&p, &q, &SldConfig::default()).unwrap();
        let t = tabled::solve(&p, &q).unwrap();
        assert_eq!(s.answers.len(), 6);
        assert_eq!(s.answers, t.answers);
    }

    #[test]
    fn constants_in_predicates_translate() {
        // EACH r IN Rel: r.front = "table" — a selection constant.
        let c = Constructor {
            name: "from_table".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: infrontrel(),
            body: SetFormer {
                branches: vec![dc_calculus::ast::Branch::each(
                    "r",
                    rel("Rel"),
                    eq(attr("r", "front"), cnst("table")),
                )],
            },
        };
        let mut names = FxHashMap::default();
        names.insert("Rel".to_string(), "infront".to_string());
        let clauses = translate_constructor(&c, &names, &FxHashMap::default()).unwrap();
        assert_eq!(
            clauses[0].to_string(),
            "from_table(\"table\", r_1) :- infront(\"table\", r_1)."
        );
    }

    #[test]
    fn some_quantifier_becomes_body_atom() {
        // EACH r IN Rel: SOME x IN Rel (r.back = x.front)
        let c = Constructor {
            name: "has_succ".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: infrontrel(),
            body: SetFormer {
                branches: vec![dc_calculus::ast::Branch::each(
                    "r",
                    rel("Rel"),
                    some("x", rel("Rel"), eq(attr("r", "back"), attr("x", "front"))),
                )],
            },
        };
        let mut names = FxHashMap::default();
        names.insert("Rel".to_string(), "infront".to_string());
        let clauses = translate_constructor(&c, &names, &FxHashMap::default()).unwrap();
        assert_eq!(clauses[0].body.len(), 2);
    }

    #[test]
    fn untranslatable_features_rejected() {
        let mk = |pred: dc_calculus::ast::Formula| Constructor {
            name: "c".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: infrontrel(),
            body: SetFormer {
                branches: vec![dc_calculus::ast::Branch::each("r", rel("Rel"), pred)],
            },
        };
        let names = {
            let mut m = FxHashMap::default();
            m.insert("Rel".to_string(), "infront".to_string());
            m
        };
        // Negation.
        let neg = mk(not(eq(attr("r", "front"), cnst("x"))));
        assert!(matches!(
            translate_constructor(&neg, &names, &FxHashMap::default()),
            Err(PrologError::NotHornExpressible(_))
        ));
        // Universal quantification.
        let univ = mk(all(
            "x",
            rel("Rel"),
            eq(attr("x", "front"), attr("r", "front")),
        ));
        assert!(translate_constructor(&univ, &names, &FxHashMap::default()).is_err());
        // Order comparison.
        let cmp = mk(lt(attr("r", "front"), cnst("x")));
        assert!(translate_constructor(&cmp, &names, &FxHashMap::default()).is_err());
    }

    #[test]
    fn contradictory_constants_rejected() {
        let c = Constructor {
            name: "c".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: infrontrel(),
            body: SetFormer {
                branches: vec![dc_calculus::ast::Branch::each(
                    "r",
                    rel("Rel"),
                    eq(attr("r", "front"), cnst("a")).and(eq(attr("r", "front"), cnst("b"))),
                )],
            },
        };
        let mut names = FxHashMap::default();
        names.insert("Rel".to_string(), "infront".to_string());
        assert!(translate_constructor(&c, &names, &FxHashMap::default()).is_err());
    }
}
