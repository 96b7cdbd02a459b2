//! Property tests over the calculus: the NNF rewrite preserves
//! semantics (the mechanised §3.3 monotonicity-lemma rewrite), the
//! planned evaluator agrees with the oracle (`dc_bench::oracle`), and
//! the DBPL surface syntax round-trips through the parser.

use proptest::prelude::*;

use dc_calculus::ast::{Branch, CmpOp, Formula, RangeExpr, ScalarExpr, Target};
use dc_calculus::builder::*;
use dc_calculus::env::MapCatalog;
use dc_calculus::rewrite::to_nnf;
use dc_calculus::{EvalError, Evaluator};
use dc_relation::Relation;
use dc_value::{tuple, Domain, Schema, Tuple};

/// Formulas over one free variable `r` (edge schema) plus quantified
/// variables over `Infront`, generated with correct scoping.
fn formula_strategy(scope: Vec<String>, depth: u32) -> BoxedStrategy<Formula> {
    let attrs = ["front", "back"];
    let leaf = {
        let scope_cmp = scope.clone();
        let scope_const = scope.clone();
        let scope_member = scope.clone();
        prop_oneof![
            Just(Formula::True),
            Just(Formula::False),
            // var.attr op var.attr
            (
                0..scope_cmp.len(),
                0..2usize,
                0..scope_cmp.len(),
                0..2usize,
                0..6usize
            )
                .prop_map(move |(v1, a1, v2, a2, op)| {
                    let ops = [
                        CmpOp::Eq,
                        CmpOp::Ne,
                        CmpOp::Lt,
                        CmpOp::Le,
                        CmpOp::Gt,
                        CmpOp::Ge,
                    ];
                    Formula::Cmp(
                        attr(scope_cmp[v1].clone(), attrs[a1]),
                        ops[op],
                        attr(scope_cmp[v2].clone(), attrs[a2]),
                    )
                }),
            // var.attr = const
            (0..scope_const.len(), 0..2usize, 0u8..4).prop_map(move |(v, a, c)| {
                Formula::Cmp(
                    attr(scope_const[v].clone(), attrs[a]),
                    CmpOp::Eq,
                    cnst(format!("n{c}")),
                )
            }),
            // membership of a bound var
            (0..scope_member.len())
                .prop_map(move |v| member(scope_member[v].clone(), rel("Infront"))),
        ]
    };
    if depth == 0 {
        return leaf.boxed();
    }
    let scope2 = scope.clone();
    let scope3 = scope.clone();
    prop_oneof![
        3 => leaf,
        1 => (formula_strategy(scope.clone(), depth - 1), formula_strategy(scope.clone(), depth - 1))
            .prop_map(|(a, b)| Formula::And(Box::new(a), Box::new(b))),
        1 => (formula_strategy(scope.clone(), depth - 1), formula_strategy(scope.clone(), depth - 1))
            .prop_map(|(a, b)| Formula::Or(Box::new(a), Box::new(b))),
        1 => formula_strategy(scope.clone(), depth - 1)
            .prop_map(|f| Formula::Not(Box::new(f))),
        1 => {
            let mut inner_scope = scope2.clone();
            let var = format!("q{depth}");
            inner_scope.push(var.clone());
            formula_strategy(inner_scope, depth - 1)
                .prop_map(move |f| Formula::Some(var.clone(), rel("Infront"), Box::new(f)))
        },
        1 => {
            let mut inner_scope = scope3.clone();
            let var = format!("u{depth}");
            inner_scope.push(var.clone());
            formula_strategy(inner_scope, depth - 1)
                .prop_map(move |f| Formula::All(var.clone(), rel("Infront"), Box::new(f)))
        },
    ]
    .boxed()
}

fn edges_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec((0u8..4, 0u8..4), 0..8).prop_map(|pairs| {
        Relation::from_tuples(
            dc_bench::workload::graphs::edge_schema(),
            pairs
                .into_iter()
                .map(|(a, b)| tuple![format!("n{a}"), format!("n{b}")]),
        )
        .expect("valid edges")
    })
}

/// `{EACH r IN Infront: f}` over `base`, planned — and as the oracle
/// answers it.
fn eval_query(base: &Relation, f: &Formula) -> Result<Relation, EvalError> {
    let cat = MapCatalog::new().with_relation("Infront", base.clone());
    planned_matches_reference(
        &cat,
        &set_former(vec![Branch::each("r", rel("Infront"), f.clone())]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// NNF preserves the truth value of every formula on every small
    /// database — the semantic core of the §3.3 lemma's rewrite.
    #[test]
    fn nnf_preserves_semantics(
        base in edges_strategy(),
        f in formula_strategy(vec!["r".to_string()], 3),
    ) {
        let original = eval_query(&base, &f);
        let rewritten = eval_query(&base, &to_nnf(f));
        match (original, rewritten) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {} // both fail the same way (cross-type)
            (a, b) => prop_assert!(false, "divergent: {a:?} vs {b:?}"),
        }
    }

    /// Double negation is the identity semantically.
    #[test]
    fn double_negation_identity(
        base in edges_strategy(),
        f in formula_strategy(vec!["r".to_string()], 2),
    ) {
        let neg2 = Formula::Not(Box::new(Formula::Not(Box::new(f.clone()))));
        let original = eval_query(&base, &f);
        let doubled = eval_query(&base, &neg2);
        match (original, doubled) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergent: {a:?} vs {b:?}"),
        }
    }

    /// The range-coupled quantifier duality used by the lemma:
    /// NOT SOME ≡ ALL NOT and NOT ALL ≡ SOME NOT.
    #[test]
    fn quantifier_duality(
        base in edges_strategy(),
        f in formula_strategy(vec!["r".to_string(), "x".to_string()], 2),
    ) {
        let not_some = Formula::Not(Box::new(Formula::Some(
            "x".into(), rel("Infront"), Box::new(f.clone()),
        )));
        let all_not = Formula::All(
            "x".into(), rel("Infront"),
            Box::new(Formula::Not(Box::new(f.clone()))),
        );
        let a = eval_query(&base, &not_some);
        let b = eval_query(&base, &all_not);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "divergent: {x:?} vs {y:?}"),
        }
    }

    /// The index path — join probes *and* quantifier existence probes —
    /// agrees with the oracle's nested loops on randomized formulas. Generated formulas are error-free (every comparison is
    /// STRING vs STRING), so the two paths must produce identical
    /// relations; quantified subformulas with equality atoms exercise
    /// the probe/residual machinery, the rest exercises the fallback.
    #[test]
    fn quantifier_probes_agree_with_nested_loop(
        base in edges_strategy(),
        f in formula_strategy(vec!["r".to_string()], 3),
    ) {
        let cat = MapCatalog::new().with_relation("Infront", base.clone());
        let query = set_former(vec![Branch::each("r", rel("Infront"), f)]);
        planned_matches_reference(&cat, &query).expect("error-free formula");
    }

    /// Two-binding join branches: the probe decides `x.back = y.front`,
    /// the compiled leaf re-checks the generated conjunct `f` through
    /// (slot, column) reads and the interpreter, and must agree with the
    /// oracle, errors included.
    #[test]
    fn join_leaf_agrees_with_nested_loop(
        base in edges_strategy(),
        f in formula_strategy(vec!["x".to_string(), "y".to_string()], 3),
    ) {
        let cat = MapCatalog::new().with_relation("Infront", base.clone());
        let query = set_former(vec![Branch::projecting(
            vec![attr("x", "front"), attr("y", "back")],
            vec![("x".into(), rel("Infront")), ("y".into(), rel("Infront"))],
            eq(attr("x", "back"), attr("y", "front")).and(f),
        )]);
        let _ = planned_matches_reference(&cat, &query);
    }

    /// Parser round-trip: the display form of a generated query parses
    /// back to the identical AST.
    #[test]
    fn parser_roundtrip(f in formula_strategy(vec!["r".to_string()], 3)) {
        let query = set_former(vec![Branch::each("r", rel("Infront"), f)]);
        let shown = query.to_string();
        let reparsed = dc_lang::parser::parse_expr(&shown)
            .unwrap_or_else(|e| panic!("`{shown}` failed to parse: {e}"));
        prop_assert_eq!(reparsed, query);
    }

    /// Positivity parity: wrapping in NOT twice never introduces
    /// violations; wrapping once flips every tracked occurrence.
    #[test]
    fn positivity_parity(f in formula_strategy(vec!["r".to_string()], 3)) {
        use dc_calculus::positivity::{check_formula, Tracked};
        let tracked = Tracked::name("Infront");
        let base_violations = check_formula(&f, &tracked).len();
        let neg2 = Formula::Not(Box::new(Formula::Not(Box::new(f.clone()))));
        prop_assert_eq!(check_formula(&neg2, &tracked).len(), base_violations);
    }
}

/// ScalarExpr displays round-trip too (separate, non-proptest check of
/// representative fixtures with arithmetic).
#[test]
fn scalar_display_roundtrip_fixtures() {
    for src in [
        "{EACH r IN Infront: r.front = \"x\"}",
        "{EACH r IN Infront: (r.front = \"a\" OR r.back = \"b\") AND NOT (r IN Infront)}",
        "{<r.front, r.back> OF EACH r IN Infront: TRUE}",
        "{EACH r IN Infront: SOME x IN Infront (ALL y IN Infront (x.front = y.back))}",
        "{EACH r IN Infront: <r.back, r.front> IN Infront}",
    ] {
        let e = dc_lang::parser::parse_expr(src).unwrap();
        let shown = e.to_string();
        let again = dc_lang::parser::parse_expr(&shown).unwrap();
        assert_eq!(e, again, "{src}");
    }
}

/// Scalar arithmetic expressions round-trip through display/parse.
#[test]
fn arith_roundtrip_fixtures() {
    let exprs = [
        add(attr("r", "n"), cnst(1i64)),
        mul(sub(attr("r", "n"), cnst(2i64)), cnst(3i64)),
        modulo(attr("r", "n"), cnst(5i64)),
        div(cnst(10i64), attr("r", "n")),
    ];
    for e in exprs {
        let query = set_former(vec![Branch::projecting(
            vec![e.clone()],
            vec![("r".into(), rel("N"))],
            tru(),
        )]);
        let again = dc_lang::parser::parse_expr(&query.to_string()).unwrap();
        assert_eq!(again, query, "{e}");
    }
}

/// A ScalarExpr::Param in scalar position round-trips as well.
#[test]
fn param_roundtrip() {
    let query = set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        eq(attr("r", "front"), ScalarExpr::Param("Obj".into())),
    )]);
    let again = dc_lang::parser::parse_expr(&query.to_string()).unwrap();
    assert_eq!(again, query);
}

/// Selected/constructed application syntax round-trips.
#[test]
fn application_roundtrip() {
    let exprs: Vec<RangeExpr> = vec![
        rel("Infront").select("hidden_by", vec![cnst("table")]),
        rel("Infront").construct("ahead", vec![]),
        rel("Infront").construct("ahead", vec![rel("Ontop")]),
        rel("Infront")
            .select("s", vec![cnst(1i64), cnst("x")])
            .construct("c", vec![rel("A"), rel("B")]),
        // Scalar arguments follow a `;`, relation arguments or not.
        rel("N").construct_with("below", vec![], vec![cnst(5i64)]),
        rel("N").construct_with("between", vec![rel("M")], vec![cnst(1i64), param("K")]),
    ];
    for e in exprs {
        let again = dc_lang::parser::parse_expr(&e.to_string()).unwrap();
        assert_eq!(again, e);
    }
}

/// Evaluate `query` over `cat` on the planned path and by the oracle,
/// and require the same outcome — relation or error.
fn planned_matches_reference(cat: &MapCatalog, query: &RangeExpr) -> Result<Relation, EvalError> {
    let planned = Evaluator::new(cat).eval(query);
    assert_eq!(
        planned,
        dc_bench::oracle::eval_in(cat, &[], query).0,
        "{query}"
    );
    planned
}

fn chain_catalog() -> MapCatalog {
    MapCatalog::new().with_relation(
        "Infront",
        Relation::from_tuples(
            dc_bench::workload::graphs::edge_schema(),
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")].map(|(f, b)| tuple![f, b]),
        )
        .unwrap(),
    )
}

/// An arithmetic target over INTEGER columns of a probed join.
#[test]
fn join_leaf_arithmetic_target() {
    let nums = Relation::from_tuples(
        Schema::of(&[("a", Domain::Int), ("b", Domain::Int)]),
        (0..6i64).map(|i| tuple![i, (i * 3) % 5]),
    )
    .unwrap();
    let cat = MapCatalog::new().with_relation("N", nums);
    let query = set_former(vec![Branch::projecting(
        vec![add(attr("x", "a"), mul(attr("y", "b"), cnst(2i64)))],
        vec![("x".into(), rel("N")), ("y".into(), rel("N"))],
        eq(attr("x", "b"), attr("y", "a")),
    )]);
    assert!(!planned_matches_reference(&cat, &query).unwrap().is_empty());
}

/// A `Target::Var` target: the leaf emits the bound tuple whole.
#[test]
fn join_leaf_var_target() {
    let query = set_former(vec![Branch {
        target: Target::Var("y".into()),
        bindings: vec![("x".into(), rel("Infront")), ("y".into(), rel("Infront"))],
        predicate: eq(attr("x", "back"), attr("y", "front"))
            .and(ne(attr("x", "front"), attr("y", "back"))),
    }]);
    assert!(!planned_matches_reference(&chain_catalog(), &query)
        .unwrap()
        .is_empty());
}

/// An outer variable's attribute in a correlated nested set-former's
/// target stays interpreted and resolves against the enclosing binding.
#[test]
fn join_leaf_outer_attribute_in_target() {
    let inner = set_former(vec![Branch::projecting(
        vec![attr("r", "front"), attr("y", "back")],
        vec![("x".into(), rel("Infront")), ("y".into(), rel("Infront"))],
        eq(attr("x", "back"), attr("y", "front")).and(eq(attr("x", "front"), attr("r", "back"))),
    )]);
    let query = set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        some("z", inner, ne(attr("z", "back"), attr("r", "front"))),
    )]);
    assert!(!planned_matches_reference(&chain_catalog(), &query)
        .unwrap()
        .is_empty());
}

/// Duplicate binding names plan no probe: the all-scan plan's leaf must
/// resolve `x` to the innermost declaration, as name lookup does.
#[test]
fn join_leaf_duplicate_binding_names() {
    let query = set_former(vec![Branch::projecting(
        vec![attr("x", "front"), attr("x", "back")],
        vec![("x".into(), rel("Infront")), ("x".into(), rel("Infront"))],
        ne(attr("x", "front"), cnst("a")),
    )]);
    assert_eq!(
        planned_matches_reference(&chain_catalog(), &query)
            .unwrap()
            .len(),
        3
    );
}

/// A cross-type residual conjunct raises the same error on both paths
/// (exactly one combination survives the join, so the witness agrees).
#[test]
fn join_leaf_cross_type_residual_error() {
    let cat = MapCatalog::new().with_relation(
        "Infront",
        Relation::from_tuples(
            dc_bench::workload::graphs::edge_schema(),
            vec![tuple!["a", "b"], tuple!["b", "c"]],
        )
        .unwrap(),
    );
    let query = set_former(vec![Branch::projecting(
        vec![attr("x", "front")],
        vec![("x".into(), rel("Infront")), ("y".into(), rel("Infront"))],
        eq(attr("x", "back"), attr("y", "front")).and(ne(attr("x", "front"), cnst(1i64))),
    )]);
    let planned = planned_matches_reference(&cat, &query);
    assert!(
        matches!(planned, Err(EvalError::CrossTypeComparison { .. })),
        "{planned:?}"
    );
}

/// String `<` and `sorted_tuples` follow the strings' order, never the
/// interner's: over labels interned in *reverse* lexical order, a join
/// with a STRING `<` residual agrees with the oracle
/// and with the same join computed on plain `str`s.
#[test]
fn string_order_ignores_interning_order() {
    let mut labels: Vec<String> = (0..12).map(|i| format!("rev-label-{i:02}")).collect();
    labels.sort_unstable_by(|a, b| b.cmp(a));
    for l in &labels {
        dc_value::Value::str(l);
    }
    let pairs: Vec<(&str, &str)> = (0..labels.len())
        .flat_map(|i| [(i, (i * 5 + 3) % 12), (i, (i + 1) % 12)])
        .map(|(a, b)| (labels[a].as_str(), labels[b].as_str()))
        .collect();
    let cat = MapCatalog::new().with_relation(
        "Infront",
        Relation::from_tuples(
            dc_bench::workload::graphs::edge_schema(),
            pairs.iter().map(|&(f, b)| tuple![f, b]),
        )
        .unwrap(),
    );
    let query = set_former(vec![Branch::projecting(
        vec![attr("x", "front"), attr("y", "back")],
        vec![("x".into(), rel("Infront")), ("y".into(), rel("Infront"))],
        eq(attr("x", "back"), attr("y", "front")).and(lt(attr("x", "front"), attr("y", "back"))),
    )]);
    let got = planned_matches_reference(&cat, &query).unwrap();

    let mut expected: Vec<(&str, &str)> = pairs
        .iter()
        .flat_map(|&(xf, xb)| {
            pairs
                .iter()
                .filter(move |&&(yf, yb)| xb == yf && xf < yb)
                .map(move |&(_, yb)| (xf, yb))
        })
        .collect();
    expected.sort_unstable();
    expected.dedup();
    assert!(!expected.is_empty());
    let sorted_tuples = got.sorted_tuples();
    let sorted: Vec<(&str, &str)> = sorted_tuples
        .iter()
        .map(|t| (t.get(0).as_str().unwrap(), t.get(1).as_str().unwrap()))
        .collect();
    assert_eq!(sorted, expected);
}

/// A relation of STRING pairs.
fn pairs(attrs: [&str; 2], rows: &[(&str, &str)]) -> Relation {
    let schema = Schema::of(&[(attrs[0], Domain::Str), (attrs[1], Domain::Str)]);
    Relation::from_tuples(schema, rows.iter().map(|&(a, b)| tuple![a, b])).unwrap()
}

/// An INTEGER relation with attributes `attrs`.
fn ints(attrs: &[&str], rows: &[&[i64]]) -> Relation {
    let schema: Vec<(&str, Domain)> = attrs.iter().map(|a| (*a, Domain::Int)).collect();
    let rows = rows
        .iter()
        .map(|r| Tuple::new(r.iter().map(|&v| v.into()).collect::<Vec<_>>()));
    Relation::from_tuples(Schema::of(&schema), rows).unwrap()
}

/// `SELECTOR name(param: domain) FOR Rel; BEGIN EACH e IN Rel: e.attr = param END`.
fn selector(name: &str, e: &str, attr_name: &str, domain: Domain) -> dc_calculus::ast::SelectorDef {
    dc_calculus::ast::SelectorDef {
        name: name.into(),
        element_var: e.into(),
        params: vec![("P".into(), domain)],
        predicate: eq(attr(e, attr_name), param("P")),
    }
}

/// A case's expected answer: its sorted tuples, or the kind of its error.
type Answer = Result<Vec<Tuple>, &'static str>;

/// Planner shapes — probed joins, quantifier sites of every mode,
/// unnested correlated ranges and join views, demoted keys — each
/// answering as the oracle does, and as expected: a sorted answer, or
/// the error's kind.
#[test]
fn planned_cases_match_the_oracle() {
    let infront = [("vase", "table"), ("table", "chair"), ("chair", "wall")];
    let objects = [
        ("vase", "decor"),
        ("table", "furniture"),
        ("chair", "furniture"),
    ];
    let ontop = [("cup", "table"), ("book", "table"), ("dust", "chair")];
    let scene = |objects: &[(&str, &str)]| {
        MapCatalog::new()
            .with_relation("Infront", pairs(["front", "back"], &infront))
            .with_relation("Objects", pairs(["part", "kind"], objects))
            .with_relation("Ontop", pairs(["top", "base"], &ontop))
            .with_selector(selector("on_base", "o", "base", Domain::Str))
    };
    let (full, one, none) = (scene(&objects), scene(&objects[..1]), scene(&[]));
    let stacked = |ontop: &[(&str, &str)]| {
        MapCatalog::new()
            .with_relation("Infront", pairs(["front", "back"], &infront))
            .with_relation("Ontop", pairs(["top", "base"], ontop))
    };
    let (clean, dusty) = (
        stacked(&[("cup", "table"), ("book", "table")]),
        stacked(&[("cup", "table"), ("dust", "table")]),
    );
    let assign = [("t1", "w1"), ("t1", "w2"), ("t2", "w2"), ("t3", "w3")];
    let requests = [
        ("t1", "hammer"),
        ("t1", "saw"),
        ("t2", "hammer"),
        ("t3", "hammer"),
    ];
    let nums = Schema::of(&[("task", Domain::Str), ("n", Domain::Int)]);
    let staffing = MapCatalog::new()
        .with_relation("Assign", pairs(["task", "worker"], &assign))
        .with_relation(
            "Skill",
            pairs(
                ["worker", "tool"],
                &[("w1", "hammer"), ("w2", "saw"), ("w3", "hammer")],
            ),
        )
        .with_relation("Requests", pairs(["task", "tool"], &requests))
        .with_relation(
            "Nums",
            Relation::from_tuples(nums, [tuple!["t1", 1i64]]).unwrap(),
        );
    let scoped = MapCatalog::new()
        .with_relation("T", ints(&["k"], &[&[1], &[2]]))
        .with_relation("R", ints(&["k"], &[&[10]]))
        .with_relation("S", ints(&["k"], &[&[2]]))
        .with_selector(selector("sel", "s", "k", Domain::Int));
    let tags = Relation::from_tuples(Schema::of(&[("tag", Domain::Str)]), [tuple!["x"]]).unwrap();
    let words = Relation::from_tuples(Schema::of(&[("k", Domain::Str)]), [tuple!["one"]]).unwrap();
    let small = Relation::from_tuples(Schema::of(&[("k", Domain::IntRange(0, 9))]), [tuple![1i64]])
        .unwrap();
    let dividing = MapCatalog::new()
        .with_relation("N", ints(&["k", "d"], &[&[1, 0]]))
        .with_relation("Z", tags)
        .with_relation("K", ints(&["k"], &[&[1]]))
        .with_relation("W", words)
        .with_relation("Small", small)
        .with_relation("Big", ints(&["k"], &[&[100]]));
    let view = "{<a.worker> OF EACH a IN Assign, EACH s IN Skill: a.worker = s.worker AND a.task = r.task AND s.tool = r.tool}";
    let pair = |a: &str, b: &str| Ok(vec![tuple![a, b]]);
    let pairs_of = |ps: &[(&str, &str)]| Ok(ps.iter().map(|&(a, b)| tuple![a, b]).collect());
    let cases: Vec<(&MapCatalog, String, Answer)> = vec![
        // §2.3's ahead-2, the join probed; two probe steps off one scan.
        (&full, "{EACH r IN Infront: TRUE, <f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}".into(),
            pairs_of(&[("chair", "wall"), ("table", "chair"), ("table", "wall"), ("vase", "chair"), ("vase", "table")])),
        (&full, "{<a.front, c.back> OF EACH a IN Infront, EACH b IN Infront, EACH c IN Infront: a.back = b.front AND b.back = c.front}".into(),
            pair("vase", "wall")),
        // An inner equality key on the outer variable, under membership.
        (&full, "{EACH r IN Infront: r IN {<r.front, y.front> OF EACH y IN Infront: y.front = r.back}}".into(),
            pairs_of(&[("table", "chair"), ("vase", "table")])),
        // A binding range reads the enclosing `a`, not the branch's own.
        (&scoped, "{EACH a IN T: SOME z IN {<a.k> OF EACH a IN R, EACH b IN S[sel(a.k)]: TRUE} (TRUE)}".into(),
            Ok(vec![tuple![2i64]])),
        // Quantifier probes: SOME, SOME with a residual, NOT SOME, ALL
        // over three, one and no objects.
        (&full, "{EACH r IN Infront: SOME o IN Objects (o.part = r.back)}".into(),
            pairs_of(&[("table", "chair"), ("vase", "table")])),
        (&full, "{EACH r IN Infront: SOME o IN Objects (o.part = r.back AND o.kind = \"furniture\")}".into(),
            pairs_of(&[("table", "chair"), ("vase", "table")])),
        (&full, "{EACH r IN Infront: NOT (SOME o IN Objects (o.part = r.back))}".into(), pair("chair", "wall")),
        (&full, "{EACH r IN Infront: ALL o IN Objects (o.part = r.front)}".into(), Ok(vec![])),
        (&one, "{EACH r IN Infront: ALL o IN Objects (o.part = r.front)}".into(), pair("vase", "table")),
        (&none, "{EACH r IN Infront: ALL o IN Objects (o.part = r.front)}".into(), pairs_of(&infront)),
        // Sites of every shape. SOME: a realised key with a residual; a
        // cross-type key and an unknown parameter, which demote and raise
        // as written — the parameter also beside a realised key, on the
        // hits the probe yields.
        (&full, "{EACH r IN Infront: SOME t IN Ontop (t.base = r.front AND t.top # \"dust\")}".into(),
            pair("table", "chair")),
        (&full, "{EACH r IN Infront: SOME o IN Objects (o.part = 1)}".into(), Err("cross-type")),
        (&full, "{EACH r IN Infront: SOME o IN Objects (o.part = Ghost)}".into(), Err("unknown-param")),
        (&full, "{EACH r IN Infront: SOME o IN Objects (o.kind = \"decor\" AND o.part = Ghost)}".into(),
            Err("unknown-param")),
        // Over a view: a key it keeps is probed, one it projects away
        // (here from an ALL's falsifier) demotes and raises.
        (&full, "{EACH r IN Infront: SOME t IN {<o.base> OF EACH o IN Ontop: TRUE} (t.base = r.front)}".into(),
            pairs_of(&[("chair", "wall"), ("table", "chair")])),
        (&full, "{EACH r IN Infront: ALL t IN {<o.base> OF EACH o IN Ontop: TRUE} (NOT (t.top = r.front))}".into(),
            Err("type")),
        // ALL over an implication whose consequent raises on a bucket
        // tuple: the falsifier's residual raises it.
        (&full, "{EACH r IN Infront: ALL t IN Ontop (NOT (t.base = r.front) OR t.top > 1)}".into(),
            Err("cross-type")),
        // ALL in covering mode with a residual: the bucket covers the
        // range and the residual holds, covers and fails, or misses.
        (&clean, "{EACH r IN Infront: ALL t IN Ontop (t.base = r.front AND t.top # \"dust\")}".into(),
            pair("table", "chair")),
        (&dusty, "{EACH r IN Infront: ALL t IN Ontop (t.base = r.front AND t.top # \"dust\")}".into(),
            Ok(vec![])),
        (&full, "{EACH r IN Infront: ALL t IN Ontop (t.base = r.front AND t.top # \"dust\")}".into(),
            Ok(vec![])),
        // A NOT-wrapped SOME with a residual.
        (&full, "{EACH r IN Infront: NOT (SOME t IN Ontop (t.base = r.front AND t.top = \"dust\"))}".into(),
            pairs_of(&[("table", "chair"), ("vase", "table")])),
        // Correlated ranges, unnested: SOME, ALL, a selector application;
        // an implication-shaped ALL body, probed through its falsifier.
        (&full, "{EACH r IN Infront: SOME t IN {EACH o IN Ontop: o.base = r.front AND o.top # \"dust\"} (TRUE)}".into(),
            pair("table", "chair")),
        (&full, "{EACH r IN Infront: ALL t IN {EACH o IN Ontop: o.base = r.front} (t.top = \"cup\")}".into(),
            pair("vase", "table")),
        (&full, "{EACH r IN Infront: SOME t IN Ontop[on_base(r.front)] (TRUE)}".into(),
            pairs_of(&[("chair", "wall"), ("table", "chair")])),
        (&full, "{EACH r IN Infront: ALL t IN Ontop (NOT (t.base = r.front) OR t.top = \"cup\")}".into(),
            pair("vase", "table")),
        // A body reading a field the range projected away: both raise.
        (&full, "{EACH r IN Infront: SOME t IN {<o.base> OF EACH o IN Ontop: TRUE} (t.top = r.front)}".into(),
            Err("type")),
        // Unnesting moves `y`'s conjuncts ahead of `z`'s; the error is the
        // as-written one, the cross-type `z.tag = 1`.
        (&dividing, "{EACH r IN K: SOME x IN {<y.d> OF EACH y IN N, EACH z IN Z: z.tag = 1 AND y.k = r.k AND 10 DIV y.d > 0} (TRUE)}".into(),
            Err("cross-type")),
        // Multi-binding join views: chained probes, ALL, no join key, an
        // outer column in the target, a cross-type joint key.
        (&staffing, format!("{{EACH r IN Requests: SOME x IN {view} (TRUE)}}"),
            pairs_of(&[("t1", "hammer"), ("t1", "saw"), ("t3", "hammer")])),
        (&staffing, format!("{{EACH r IN Requests: ALL x IN {view} (x.worker # \"w2\")}}"),
            pairs_of(&[("t1", "hammer"), ("t2", "hammer"), ("t3", "hammer")])),
        (&staffing, "{EACH r IN Requests: SOME x IN {<a.worker> OF EACH a IN Assign, EACH s IN Skill: a.task = r.task AND s.tool = r.tool} (x.worker # \"w1\")}".into(),
            pairs_of(&requests)),
        (&staffing, "{EACH r IN Requests: SOME x IN {<a.worker, r.tool> OF EACH a IN Assign: a.task = r.task} (x.tool = \"saw\")}".into(),
            pair("t1", "saw")),
        (&staffing, "{EACH r IN Nums: SOME x IN {<a.worker> OF EACH a IN Assign, EACH s IN Skill: a.worker = s.worker AND a.task = r.n} (TRUE)}".into(),
            Err("cross-type")),
        // A name bound twice: the output schema takes `x.k` from the
        // first range, the emitted field from the innermost, so the
        // leaf's schema check raises (a string in an INTEGER column).
        (&dividing, "{<x.k> OF EACH x IN K, EACH x IN W: TRUE}".into(), Err("domain")),
        // A later branch emits under the first one's schema, whose
        // RANGE 0..9 column its 100 leaves: the union raises.
        (&dividing, "{EACH x IN Small: TRUE, EACH y IN Big: TRUE}".into(), Err("domain")),
    ];
    for (cat, text, expected) in cases {
        let q = dc_lang::parser::parse_expr(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let got = planned_matches_reference(cat, &q)
            .map(|r| r.sorted_tuples())
            .map_err(|e| match e {
                EvalError::CrossTypeComparison { .. } => "cross-type",
                EvalError::Type(_) => "type",
                EvalError::UnknownParam(_) => "unknown-param",
                EvalError::Relation(_) => "domain",
                _ => panic!("{q}: {e}"),
            });
        let expected = expected.map(|mut ts| {
            ts.sort();
            ts
        });
        assert_eq!(got, expected, "{q}");
    }
}
