//! §4's query-compilation level as **calculus-to-calculus rewrites**.
//! Nothing here executes a query: every result is calculus the engine
//! evaluates. [`rewrite()`] runs once where a query enters
//! (`Database::eval`/`explain`, `Server::prepare`, `Session::query`/
//! `explain`), except under the reference configuration.
//!
//! The paper organises constructor optimization as a **three-level
//! strategy**:
//!
//! 1. **Type-checking level** — positivity (in `dc-calculus`), and a
//!    *partitioning of the set of constructor definitions into
//!    disconnected graphs* ([`crate::paper::partition_by_names`]).
//! 2. **Query-compilation level** — build **augmented quant graphs**
//!    ([`crate::paper::QuantGraph`], regenerating the paper's Fig. 3)
//!    and detect recursive cycles; compile queries over selected and
//!    non-recursive constructed relations back into queries over base
//!    relations by range nesting and the Case 1/2/3 analysis ([`nest`]);
//!    recognise special cases by **capture rules**
//!    ([`bind_first_attribute`]).
//! 3. **Runtime level** — the engine. §4's *logical access path* (a
//!    compiled procedure with dummy constants) is a prepared query with
//!    a parameter; its *physical access path* is the solved memo plus
//!    the access cache's indexes. See `docs/ARCHITECTURE.md`.
//!
//! # Range nesting
//!
//! The paper treats selected and constructed relations as *named
//! range-nested expressions* (Jarke/Koch 1983):
//!
//! ```text
//! N1: {EACH r IN R: p1 AND p2}  <==>  {EACH r IN {EACH r' IN R: p1}: p2}
//! N2: SOME r IN R (p1 AND p2)   <==>  SOME r IN {EACH r' IN R: p1} (p2)
//! N3: ALL r IN R (NOT p1 OR p2) <==>  ALL r IN {EACH r' IN R: p1} (p2)
//! ```
//!
//! plus the case analysis for `{EACH r IN Rel{constr}: pred}` where
//! `constr` is non-recursive: **Case 1 (selector)** — N1–N3 apply
//! directly; **Case 2 (join)** — substitute `r.f` by the target
//! expression in position `f`; **Case 3 (union)** — distribute the
//! predicate over the branches (requires the predicate to satisfy the
//! positivity constraint). [`inline_applications`] is the paper's "full
//! decompilation" (N1), [`push_predicate`] Cases 1–3.
//!
//! # Capture rules
//!
//! "We can attempt to employ capture rules to detect special cases such
//! as [Schn 78]" (after [Ullm 84]). The shape recognised here
//! ([`is_tc`]) is the right-linear transitive closure of the paper's
//! running example:
//!
//! ```text
//! CONSTRUCTOR ahead FOR Rel: …;
//! BEGIN EACH r IN Rel: TRUE,
//!       <f.A0, b.B1> OF EACH f IN Rel, EACH b IN Rel{ahead}:
//!           f.A1 = b.B0
//! END
//! ```
//!
//! The rewrite is §4's constraint propagation: a query binding the first
//! result attribute to a constant, `{EACH a IN Base{ahead()}: a.B0 = k}`,
//! becomes `Base{ahead$seeded(; k)}`, where [`seeded`] is the left-linear
//! constructor deriving only tuples whose first attribute is the seed:
//!
//! ```text
//! CONSTRUCTOR ahead$seeded FOR Rel: … (Seed: …): …;
//! BEGIN EACH f IN Rel: f.A0 = Seed,
//!       <r.B0, f.A1> OF EACH r IN Rel{ahead$seeded(; Seed)},
//!                       EACH f IN Rel: r.B1 = f.A0
//! END
//! ```
//!
//! `Database` defines it beside each constructor [`is_tc`] accepts; its
//! `Seed` takes the first attribute's base type. The engine's ordinary
//! semi-naive solve of it does work proportional to the *cone* of the
//! constant, not to the whole closure (experiment E2) — the magic-set idea.

use dc_calculus::ast::{Branch, CmpOp, Formula, RangeExpr, ScalarExpr, SetFormer, Target};
use dc_calculus::positivity::{self, Tracked};
use dc_calculus::rewrite::{self, Fold, Foldable};
use dc_calculus::typeck::{self, SchemaCatalog};
use dc_calculus::EvalError;
use dc_value::{Schema, Value};

use crate::catalog::{Defs, NamedApplication};
use crate::constructor::Constructor;

/// N1 as a fold: each selector application and each *non-recursive*
/// constructor application with constant scalar arguments becomes its
/// instantiated body. Only where no tuple variable is in scope, so the
/// substitution captures nothing.
struct Inline<'d>(&'d Defs);

impl Fold for Inline<'_> {
    type Error = EvalError;

    fn range(&mut self, r: RangeExpr, bound: &[&str]) -> Result<RangeExpr, EvalError> {
        if !bound.is_empty() {
            return Ok(r);
        }
        let body = match &r {
            RangeExpr::Selected {
                base,
                selector,
                args,
            } if args.iter().all(|a| matches!(a, ScalarExpr::Const(_))) => {
                let def = self.0.selector(selector)?;
                rewrite::selected_branch(def, base, args).map(|(branch, _)| SetFormer {
                    branches: vec![branch],
                })
            }
            RangeExpr::Constructed {
                base,
                constructor,
                args,
                scalar_args,
            } => {
                let ctor = self.0.constructor(constructor)?;
                let recursive =
                    !rewrite::collect_constructed(&RangeExpr::SetFormer(ctor.body.clone()))
                        .is_empty();
                let constants: Option<Vec<Value>> = scalar_args
                    .iter()
                    .map(|a| match a {
                        ScalarExpr::Const(v) => Some(*v),
                        _ => None,
                    })
                    .collect();
                match constants {
                    Some(values) if !recursive => ctor
                        .instantiate((**base).clone(), args.clone(), &values)
                        .ok(),
                    _ => None,
                }
            }
            _ => None,
        };
        Ok(body.map_or(r, RangeExpr::SetFormer))
    }
}

/// Inline every selector application and every *non-recursive*
/// constructor application of `range` whose arguments are constants,
/// substituting formals by actuals — the paper's decompilation of named
/// range-nested expressions. An application that would fail (wrong
/// arity, an argument outside its parameter's domain) stays in place,
/// so the engine raises its error; recursive applications stay for the
/// fixpoint machinery.
pub fn inline_applications(defs: &Defs, range: &RangeExpr) -> Result<RangeExpr, EvalError> {
    range.fold_with(&mut Inline(defs))
}

/// Push the predicate of a single-binding query
/// `{EACH var IN <set-former>: pred}` into the set former's branches —
/// Cases 1–3 of §4. Case 2's substitution is
/// [`rewrite::substitute_attr_refs`] over a [`rewrite::target_map`], the
/// one the evaluator's [`rewrite::unnest_quantifier`] runs N2/N3
/// backwards with. `None` when the rewrite does not apply: the
/// predicate is not positive (Case 3's proviso), or a branch's target
/// cannot be substituted.
pub fn push_predicate(
    var: &str,
    inner: &SetFormer,
    pred: &Formula,
    result_names: &[String],
) -> Option<SetFormer> {
    if !positivity::check_formula(pred, &Tracked::AllConstructed).is_empty() {
        return None;
    }
    let mut branches = Vec::with_capacity(inner.branches.len());
    for b in &inner.branches {
        let map = rewrite::target_map(&b.target, result_names)?;
        let pushed = rewrite::substitute_attr_refs(pred, var, &b.target, &map).ok()?;
        branches.push(Branch {
            predicate: b.predicate.clone().and(pushed),
            ..b.clone()
        });
    }
    Some(SetFormer { branches })
}

/// Range nesting of `query`, whose type-checked result schema is
/// `schema`: [`inline_applications`], then, for a single-binding query
/// `{EACH var IN range: pred}`, [`push_predicate`] into the inlined
/// range. Such a query's result schema is its range's, so `schema`
/// names the range's attributes. Returns an equivalent query.
pub fn nest(defs: &Defs, schema: &Schema, query: &RangeExpr) -> Result<RangeExpr, EvalError> {
    let RangeExpr::SetFormer(SetFormer { branches }) = query else {
        return inline_applications(defs, query);
    };
    let [b @ Branch {
        target: Target::Var(_),
        ..
    }] = branches.as_slice()
    else {
        return inline_applications(defs, query);
    };
    let [(var, range)] = b.bindings.as_slice() else {
        return inline_applications(defs, query);
    };
    let names: Vec<String> = schema.attributes().iter().map(|a| a.name.clone()).collect();
    let inlined = inline_applications(defs, range)?;
    if let RangeExpr::SetFormer(inner) = &inlined {
        if let Some(pushed) = push_predicate(var, inner, &b.predicate, &names) {
            return Ok(RangeExpr::SetFormer(pushed));
        }
    }
    Ok(RangeExpr::SetFormer(SetFormer {
        branches: vec![Branch {
            bindings: vec![(var.clone(), inlined)],
            ..b.clone()
        }],
    }))
}

/// Is `ctor` the right-linear transitive closure of the module docs, in
/// its canonical orientation: result column 0 copied from base column
/// 0, base column 1 joined against recursive column 0, recursive column
/// 1 copied to result column 1?
pub fn is_tc(ctor: &Constructor) -> bool {
    let base_name = &ctor.base_param.0;
    let is_base = |r: &RangeExpr| matches!(r, RangeExpr::Rel(n) if n == base_name);
    let [copy, join] = ctor.body.branches.as_slice() else {
        return false;
    };
    if ctor.result.arity() != 2 || ctor.base_param.1.arity() != 2 || !ctor.rel_params.is_empty() {
        return false;
    }
    // Branch 1: `EACH v IN Rel: TRUE`.
    let [(v, range)] = copy.bindings.as_slice() else {
        return false;
    };
    if !is_base(range)
        || !matches!(&copy.target, Target::Var(t) if t == v)
        || copy.predicate != Formula::True
    {
        return false;
    }
    // Branch 2: `<f.a, b.c> OF EACH f IN Rel, EACH b IN Rel{self}: f.x = b.y`.
    let [(f, f_range), (b, b_range)] = join.bindings.as_slice() else {
        return false;
    };
    let RangeExpr::Constructed {
        base,
        constructor,
        args,
        scalar_args,
    } = b_range
    else {
        return false;
    };
    if !is_base(f_range)
        || constructor != &ctor.name
        || !args.is_empty()
        || !scalar_args.is_empty()
        || !is_base(base)
    {
        return false;
    }
    let Target::Tuple(targets) = &join.target else {
        return false;
    };
    let Formula::Cmp(l, CmpOp::Eq, r) = &join.predicate else {
        return false;
    };
    // Is `e` the `pos`-th column of `f` (a base tuple) or of `b` (a result tuple)?
    let f_at = |e: &ScalarExpr, pos: usize| column(e, f, &ctor.base_param.1) == Some(pos);
    let b_at = |e: &ScalarExpr, pos: usize| column(e, b, &ctor.result) == Some(pos);
    matches!(targets.as_slice(), [t0, t1] if f_at(t0, 0) && b_at(t1, 1))
        && ((f_at(l, 1) && b_at(r, 0)) || (b_at(l, 0) && f_at(r, 1)))
}

/// The position in `schema` of the attribute `e` reads of `var`.
fn column(e: &ScalarExpr, var: &str, schema: &Schema) -> Option<usize> {
    match e {
        ScalarExpr::Attr(v, a) if v == var => schema.position(a).ok(),
        _ => None,
    }
}

/// Name of the scalar parameter of a [`seeded`] constructor.
const SEED: &str = "Seed";

/// The seeded left-linear variant of a TC-shaped constructor (module
/// docs), or `None` when [`is_tc`] does not hold. Its name,
/// `<ctor>$seeded`, is one no DBPL identifier can collide with.
pub fn seeded(ctor: &Constructor) -> Option<Constructor> {
    if !is_tc(ctor) {
        return None;
    }
    let name = format!("{}$seeded", ctor.name);
    let base_name = &ctor.base_param.0;
    let base = &ctor.base_param.1;
    let base_attr = |pos: usize| ScalarExpr::Attr("f".into(), base.attributes()[pos].name.clone());
    let rec_attr =
        |pos: usize| ScalarExpr::Attr("r".into(), ctor.result.attributes()[pos].name.clone());
    let seed = || ScalarExpr::Param(SEED.into());
    let recursive =
        RangeExpr::rel(base_name.clone()).construct_with(name.clone(), vec![], vec![seed()]);
    Some(Constructor {
        name,
        base_param: ctor.base_param.clone(),
        rel_params: vec![],
        scalar_params: vec![(SEED.into(), base.domain(0).base())],
        result: ctor.result.clone(),
        body: SetFormer {
            branches: vec![
                Branch::each(
                    "f",
                    RangeExpr::rel(base_name.clone()),
                    Formula::Cmp(base_attr(0), CmpOp::Eq, seed()),
                ),
                Branch::projecting(
                    vec![rec_attr(0), base_attr(1)],
                    vec![
                        ("r".into(), recursive),
                        ("f".into(), RangeExpr::rel(base_name.clone())),
                    ],
                    Formula::Cmp(rec_attr(1), CmpOp::Eq, base_attr(0)),
                ),
            ],
        },
    })
}

/// §4 propagation of a bound argument. For a query of the form
/// `{EACH a IN Base{c()}: a.<first result attribute> = k}` with `k` a
/// constant and `c`'s [`seeded`] variant defined, the equivalent range
/// `Base{c$seeded(; k)}`; `None` for any other query.
pub fn bind_first_attribute(defs: &Defs, query: &RangeExpr) -> Option<RangeExpr> {
    let RangeExpr::SetFormer(SetFormer { branches }) = query else {
        return None;
    };
    let [Branch {
        target: Target::Var(target),
        bindings,
        predicate: Formula::Cmp(l, CmpOp::Eq, r),
    }] = branches.as_slice()
    else {
        return None;
    };
    let [(
        var,
        RangeExpr::Constructed {
            base,
            constructor,
            args,
            scalar_args,
        },
    )] = bindings.as_slice()
    else {
        return None;
    };
    let ((ScalarExpr::Attr(v, a), k @ ScalarExpr::Const(_))
    | (k @ ScalarExpr::Const(_), ScalarExpr::Attr(v, a))) = (l, r)
    else {
        return None;
    };
    let name = format!("{constructor}$seeded");
    let first = defs.constructor(&name).ok()?.result.position(a).ok()? == 0;
    let seed = vec![k.clone()];
    (first && target == var && v == var && args.is_empty() && scalar_args.is_empty())
        .then(|| (**base).clone().construct_with(name, vec![], seed))
}

/// §4's query compilation, the one step every entry point runs: type-check
/// `query`, then [`bind_first_attribute`] and [`nest`], except that a
/// [`NamedApplication`] (what subscriptions maintain warm and `EXPLAIN`
/// previews) is not nested. Equivalent to `query`.
pub fn rewrite(
    defs: &Defs,
    schemas: &dyn SchemaCatalog,
    query: &RangeExpr,
) -> Result<RangeExpr, EvalError> {
    let schema = typeck::check_range(query, schemas)?;
    let query = bind_first_attribute(defs, query).unwrap_or_else(|| query.clone());
    if NamedApplication::of(&query).is_some() {
        return Ok(query);
    }
    nest(defs, &schema, &query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{ahead, ahead2, hidden_by, infrontrel};
    use crate::Database;
    use dc_calculus::builder::*;
    use dc_value::tuple;

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
        db.define_selector(hidden_by(), infrontrel()).unwrap();
        db.define_constructor(ahead2()).unwrap();
        db
    }

    #[test]
    fn selector_inlines_to_set_former() {
        let db = scene_db();
        let q = rel("Infront").select("hidden_by", vec![cnst("table")]);
        let inlined = inline_applications(&db.defs, &q).unwrap();
        match &inlined {
            RangeExpr::SetFormer(sf) => {
                assert_eq!(sf.branches.len(), 1);
                assert!(sf.branches[0].predicate.to_string().contains("\"table\""));
            }
            other => panic!("expected set former, got {other}"),
        }
        // Semantics preserved.
        let a = db.evaluator().eval(&q).unwrap();
        let b = db.evaluator().eval(&inlined).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nonrecursive_constructor_inlines() {
        let db = scene_db();
        let q = rel("Infront").construct("ahead2", vec![]);
        let inlined = inline_applications(&db.defs, &q).unwrap();
        assert!(matches!(inlined, RangeExpr::SetFormer(_)));
        let a = db.evaluator().eval(&q).unwrap();
        let b = db.evaluator().eval(&inlined).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn recursive_constructor_left_alone() {
        let mut db = scene_db();
        db.define_constructor(ahead()).unwrap();
        let q = rel("Infront").construct("ahead", vec![]);
        let inlined = inline_applications(&db.defs, &q).unwrap();
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
        let schema = typeck::check_range(&q, &db).unwrap();
        let rewritten = nest(&db.defs, &schema, &q).unwrap();
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
        let a = db.evaluator().eval(&q).unwrap();
        let b = db.evaluator().eval(&rewritten).unwrap();
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

    #[test]
    fn recognises_the_paper_ahead_either_way_round() {
        assert!(is_tc(&ahead()));
        let mut c = ahead();
        // b.head = f.back instead of f.back = b.head.
        c.body.branches[1].predicate = eq(attr("b", "head"), attr("f", "back"));
        assert!(is_tc(&c));
    }

    #[test]
    fn rejects_non_tc_shapes() {
        // Extra branch.
        let mut c = ahead();
        c.body.branches.push(Branch::each("r", rel("Rel"), tru()));
        assert!(!is_tc(&c));

        // Non-equality predicate.
        let mut c = ahead();
        c.body.branches[1].predicate = lt(attr("f", "back"), attr("b", "head"));
        assert!(!is_tc(&c));

        // Relation parameters (mutual recursion) are out of scope.
        let mut c = ahead();
        c.rel_params.push(("Ontop".into(), infrontrel()));
        assert!(!is_tc(&c));

        // Copy branch with a real predicate.
        let mut c = ahead();
        c.body.branches[0] = Branch::each("r", rel("Rel"), eq(attr("r", "front"), cnst("x")));
        assert!(!is_tc(&c));

        // Joined on the other column: not the canonical orientation.
        let mut c = ahead();
        c.body.branches[1].predicate = eq(attr("f", "front"), attr("b", "head"));
        assert!(!is_tc(&c));
    }

    fn chain_db(n: usize) -> Database {
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.insert_all(
            "Infront",
            (0..n).map(|i| tuple![format!("o{i}"), format!("o{}", i + 1)]),
        )
        .unwrap();
        db.define_constructor(ahead()).unwrap();
        db
    }

    fn bound_query(attr_name: &str, k: ScalarExpr) -> RangeExpr {
        set_former(vec![Branch::each(
            "a",
            rel("Infront").construct("ahead", vec![]),
            eq(attr("a", attr_name), k),
        )])
    }

    #[test]
    fn bound_query_becomes_a_seeded_application() {
        let db = chain_db(10);
        // Defining `ahead` defined its seeded variant.
        assert_eq!(db.constructor_names(), vec!["ahead", "ahead$seeded"]);
        let q = bound_query("head", cnst("o7"));
        let rewritten = rewrite(&db.defs, &db, &q).unwrap();
        assert_eq!(
            rewritten,
            rel("Infront").construct_with("ahead$seeded", vec![], vec![cnst("o7")])
        );
        // The engine's answer is the filtered closure.
        let as_written = db.evaluator().eval(&q).unwrap();
        assert_eq!(db.evaluator().eval(&rewritten).unwrap(), as_written);
        assert_eq!(as_written.len(), 3);
        // Either way round.
        let flipped = set_former(vec![Branch::each(
            "a",
            rel("Infront").construct("ahead", vec![]),
            eq(cnst("o2"), attr("a", "head")),
        )]);
        let again = rewrite(&db.defs, &db, &flipped).unwrap();
        assert_eq!(db.evaluator().eval(&again).unwrap().len(), 8);
    }

    #[test]
    fn other_queries_come_back_unchanged() {
        let db = chain_db(4);
        for q in [
            // Bound on the tail: the seeded closure runs the other way.
            bound_query("tail", cnst("o3")),
            // Not a constant.
            bound_query("head", attr("a", "tail")),
            // No constructor application at all.
            rel("Infront"),
            // Already a named application.
            rel("Infront").construct("ahead", vec![]),
        ] {
            assert!(bind_first_attribute(&db.defs, &q).is_none(), "{q}");
            assert_eq!(rewrite(&db.defs, &db, &q).unwrap(), q);
        }
    }

    /// The seeded variant is added without validation, so every
    /// TC-shaped fixture's variant must pass the check it skips.
    #[test]
    fn every_seeded_variant_validates() {
        use crate::paper::{above, ahead_mutual, nonsense, strange};
        use dc_value::Domain;
        let ranged = |a: &str, b: &str| {
            Schema::of(&[(a, Domain::IntRange(1, 10)), (b, Domain::IntRange(1, 10))])
        };
        let ranged_ahead = Constructor {
            base_param: ("Rel".into(), ranged("front", "back")),
            result: ranged("head", "tail"),
            ..ahead()
        };
        let mut db = Database::new();
        let fixtures = [
            ahead(),
            ranged_ahead,
            ahead2(),
            ahead_mutual(),
            above(),
            strange(),
            nonsense(),
        ];
        let variants: Vec<Constructor> = fixtures.iter().filter_map(seeded).collect();
        assert_eq!(variants.len(), 2, "only the two `ahead`s are TC-shaped");
        for v in variants {
            db.defs.signatures.insert(v.name.clone(), v.signature());
            v.validate(&db, false).unwrap();
        }
    }
}
