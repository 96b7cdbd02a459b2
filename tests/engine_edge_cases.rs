//! Edge cases of the constructor engine: empty inputs, nested
//! applications, keyed result types, and deep composition.

use data_constructors::prelude::*;
use dc_calculus::builder::*;
use dc_core::paper;

#[test]
fn empty_base_everywhere() {
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    db.define_selector(paper::hidden_by(), paper::infrontrel())
        .unwrap();
    db.define_constructor(paper::ahead()).unwrap();
    // Constructor over empty base.
    let out = db.eval(&rel("Infront").construct("ahead", vec![])).unwrap();
    assert!(out.is_empty());
    // Selector over empty base, then constructor.
    let out = db
        .eval(
            &rel("Infront")
                .select("hidden_by", vec![cnst("x")])
                .construct("ahead", vec![]),
        )
        .unwrap();
    assert!(out.is_empty());
}

/// Query-level nesting: applying a non-recursive constructor to the
/// result of a recursive one (`Infront{ahead}{…}`-style composition).
#[test]
fn constructor_over_constructed() {
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    db.insert_all(
        "Infront",
        vec![tuple!["a", "b"], tuple!["b", "c"], tuple!["c", "d"]],
    )
    .unwrap();
    db.define_constructor(paper::ahead()).unwrap();
    // ahead2 over aheadrel-shaped input: retarget attribute names.
    let mut two = paper::ahead2();
    two.name = "twostep".into();
    two.base_param.1 = paper::aheadrel();
    two.result = paper::aheadrel();
    two.body = dc_calculus::ast::SetFormer {
        branches: vec![
            dc_calculus::ast::Branch::each("r", rel("Rel"), tru()),
            dc_calculus::ast::Branch::projecting(
                vec![attr("f", "head"), attr("b", "tail")],
                vec![("f".into(), rel("Rel")), ("b".into(), rel("Rel"))],
                eq(attr("f", "tail"), attr("b", "head")),
            ),
        ],
    };
    db.define_constructor(two).unwrap();

    // The closure is transitively closed already, so twostep over it
    // is a fixpoint: same relation.
    let closure = db.eval(&rel("Infront").construct("ahead", vec![])).unwrap();
    let composed = db
        .eval(
            &rel("Infront")
                .construct("ahead", vec![])
                .construct("twostep", vec![]),
        )
        .unwrap();
    assert_eq!(closure, composed);
}

/// A constructor whose declared result type carries a key constraint:
/// the LFP must respect it, and a rule deriving two tuples with equal
/// keys raises the §2.2 exception rather than silently corrupting.
#[test]
fn keyed_result_type_conflict_detected() {
    let keyed = Schema::with_key(
        vec![
            Attribute::new("head", Domain::Str),
            Attribute::new("tail", Domain::Str),
        ],
        &["head"],
    )
    .unwrap();
    let mut ctor = paper::ahead();
    ctor.result = keyed;
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    // A chain derives (a,b) and (a,c): two tuples sharing the key `a`.
    db.insert_all("Infront", vec![tuple!["a", "b"], tuple!["b", "c"]])
        .unwrap();
    db.define_constructor(ctor).unwrap();
    let err = db
        .eval(&rel("Infront").construct("ahead", vec![]))
        .unwrap_err();
    assert!(err.to_string().contains("key violation"), "{err}");
}

/// Deterministic results across evaluation orders: hash iteration
/// order must never leak into answers.
#[test]
fn results_deterministic_across_runs() {
    let base = dc_bench::workload::random_graph(30, 2.0, 5);
    let mut previous: Option<Vec<Tuple>> = None;
    for _ in 0..3 {
        let mut db = Database::new();
        db.create_relation("Infront", base.schema().clone())
            .unwrap();
        for t in base.iter() {
            db.insert("Infront", t.clone()).unwrap();
        }
        db.define_constructor(paper::ahead()).unwrap();
        let out = db.eval(&rel("Infront").construct("ahead", vec![])).unwrap();
        let sorted = out.sorted_tuples();
        if let Some(prev) = &previous {
            assert_eq!(prev, &sorted);
        }
        previous = Some(sorted);
    }
}

/// Self-loops: a reflexive edge stays a fixed point and terminates.
#[test]
fn self_loop_terminates() {
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    db.insert("Infront", tuple!["a", "a"]).unwrap();
    db.insert("Infront", tuple!["a", "b"]).unwrap();
    db.define_constructor(paper::ahead()).unwrap();
    let (out, d) = dc_bench::counted(&db.metrics(), || {
        db.eval(&rel("Infront").construct("ahead", vec![])).unwrap()
    });
    assert_eq!(out.len(), 2);
    assert!(d.solve_rounds < 5, "{d:?}");
}

/// Two applications of the same constructor to different bases are
/// independent equations within one query.
#[test]
fn distinct_bases_distinct_equations() {
    let mut db = Database::new();
    db.create_relation("A", paper::infrontrel()).unwrap();
    db.create_relation("B", paper::infrontrel()).unwrap();
    db.insert("A", tuple!["a1", "a2"]).unwrap();
    db.insert("B", tuple!["b1", "b2"]).unwrap();
    db.define_constructor(paper::ahead()).unwrap();
    // Union of two constructed relations over different bases.
    let q = set_former(vec![
        Branch::each("r", rel("A").construct("ahead", vec![]), tru()),
        Branch::each("r", rel("B").construct("ahead", vec![]), tru()),
    ]);
    let out = db.eval(&q).unwrap();
    assert_eq!(out.len(), 2);
    assert!(out.contains(&tuple!["a1", "a2"]));
    assert!(out.contains(&tuple!["b1", "b2"]));
}

/// The memo distinguishes scalar arguments: `below(;4)` and
/// `below(;7)` are different applications with different answers.
#[test]
fn scalar_args_distinguish_applications() {
    let numrel = Schema::of(&[("n", Domain::Int)]);
    let below = dc_core::Constructor {
        name: "below".into(),
        base_param: ("Rel".into(), numrel.clone()),
        rel_params: vec![],
        scalar_params: vec![("K".into(), Domain::Int)],
        result: numrel.clone(),
        body: dc_calculus::ast::SetFormer {
            branches: vec![dc_calculus::ast::Branch::each(
                "r",
                rel("Rel"),
                lt(attr("r", "n"), param("K")),
            )],
        },
    };
    let mut db = Database::new();
    db.create_relation("N", numrel).unwrap();
    db.insert_all("N", (0..10).map(|i| tuple![i as i64]))
        .unwrap();
    db.define_constructor(below).unwrap();
    let four = db
        .eval(&rel("N").construct_with("below", vec![], vec![cnst(4i64)]))
        .unwrap();
    let seven = db
        .eval(&rel("N").construct_with("below", vec![], vec![cnst(7i64)]))
        .unwrap();
    assert_eq!(four.len(), 4);
    assert_eq!(seven.len(), 7);
}
