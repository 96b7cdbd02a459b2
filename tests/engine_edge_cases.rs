//! Edge cases of the constructor engine: empty inputs, nested
//! applications, keyed result types, and deep composition — and
//! differentials of multi-equation, impure, growing-delta and naive
//! systems, and of cancelled solves, against the oracle
//! (`dc_bench::oracle`).

use data_constructors::prelude::*;
use dc_bench::{counted, snapshot, unwrap_solve_error};
use dc_calculus::builder::*;
use dc_core::{paper, Strategy};
use dc_governor::{Budget, CancelToken, SolveError};

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
    // Each relation's name, size and content digest.
    let digest = |db: &Database| {
        let mut names = db.relation_names();
        names.sort_unstable();
        names
            .into_iter()
            .map(|n| {
                let r = db.relation_ref(n).unwrap();
                (n.to_string(), r.len(), r.digest())
            })
            .collect::<Vec<_>>()
    };
    // A chain derives (a,b) in round 1 and (a,c) in round 2: the
    // conflict is between a delta and the accumulated value. Then a
    // base holding (a,b) and (a,c) stages both in round 1: the conflict
    // is inside one round's delta.
    for base in [
        vec![tuple!["a", "b"], tuple!["b", "c"]],
        vec![tuple!["a", "b"], tuple!["a", "c"]],
    ] {
        let mut db = Database::new();
        db.create_relation("Infront", paper::infrontrel()).unwrap();
        db.insert_all("Infront", base).unwrap();
        db.define_constructor(ctor.clone()).unwrap();
        let before = digest(&db);
        let err = db
            .eval(&rel("Infront").construct("ahead", vec![]))
            .unwrap_err();
        assert!(err.to_string().contains("key violation"), "{err}");
        assert_eq!(
            digest(&db),
            before,
            "an aborted solve leaves the database as it was"
        );
    }
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

/// A scalar parameter in a nested target names its field by position,
/// as the constant that instantiation puts in its place does: a body
/// reading `t.f0` answers as the oracle does, and one reading `t.K`
/// is rejected when it is defined rather than failing when it runs.
#[test]
fn a_parameter_in_a_target_is_named_by_position() {
    let nums = Schema::of(&[("n", Domain::Int)]);
    // {EACH r IN Rel: SOME t IN {<K, x.n> OF EACH x IN Rel: x.n = r.n} (t.<field> = r.n)}
    let tagged = |field: &str| Constructor {
        name: "tagged".into(),
        base_param: ("Rel".into(), nums.clone()),
        rel_params: vec![],
        scalar_params: vec![("K".into(), Domain::Int)],
        result: nums.clone(),
        body: SetFormer {
            branches: vec![Branch::each(
                "r",
                rel("Rel"),
                some(
                    "t",
                    set_former(vec![Branch::projecting(
                        vec![param("K"), attr("x", "n")],
                        vec![("x".into(), rel("Rel"))],
                        eq(attr("x", "n"), attr("r", "n")),
                    )]),
                    eq(attr("t", field), attr("r", "n")),
                ),
            )],
        },
    };
    let mut db = Database::new();
    db.create_relation("N", nums.clone()).unwrap();
    db.insert_all("N", (0..4i64).map(|i| tuple![i])).unwrap();
    assert!(db.define_constructor(tagged("K")).is_err());
    db.define_constructor(tagged("f0")).unwrap();
    let q = rel("N").construct_with("tagged", vec![], vec![cnst(2i64)]);
    let out = dc_bench::oracle::assert_agrees(&db, &q).unwrap();
    assert_eq!(out.sorted_tuples(), vec![tuple![2i64]]);
}

/// A selector applied inside a constructor body reads the catalog, not
/// the body's formals: with a formal named `S` bound to `T`, the
/// selector's `S` is still the catalog's — applied directly and as a
/// correlated quantifier range alike.
#[test]
fn a_selector_in_a_body_reads_the_catalog_not_the_formals() {
    let nums = Schema::of(&[("n", Domain::Int)]);
    let mut db = Database::new();
    for (name, values) in [("R", vec![1i64, 2, 3]), ("S", vec![2]), ("T", vec![3])] {
        db.create_relation(name, nums.clone()).unwrap();
        db.insert_all(name, values.into_iter().map(|n| tuple![n]))
            .unwrap();
    }
    // SELECTOR in_s(K: INTEGER): EACH e IN Rel: e.n >= K AND SOME s IN S (s.n = e.n)
    let in_s = SelectorDef {
        name: "in_s".into(),
        element_var: "e".into(),
        params: vec![("K".into(), Domain::Int)],
        predicate: ge(attr("e", "n"), param("K")).and(some(
            "s",
            rel("S"),
            eq(attr("s", "n"), attr("e", "n")),
        )),
    };
    db.define_selector(in_s, nums.clone()).unwrap();
    // CONSTRUCTOR c FOR Rel (S): BEGIN EACH r IN Rel[in_s(0)]: TRUE,
    //   EACH r IN Rel: SOME t IN Rel[in_s(r.n)] (TRUE) END
    db.define_constructor(Constructor {
        name: "c".into(),
        base_param: ("Rel".into(), nums.clone()),
        rel_params: vec![("S".into(), nums.clone())],
        scalar_params: vec![],
        result: nums.clone(),
        body: SetFormer {
            branches: vec![
                Branch::each("r", rel("Rel").select("in_s", vec![cnst(0i64)]), tru()),
                Branch::each(
                    "r",
                    rel("Rel"),
                    some("t", rel("Rel").select("in_s", vec![attr("r", "n")]), tru()),
                ),
            ],
        },
    })
    .unwrap();
    let q = rel("R").construct("c", vec![rel("T")]);
    let out = dc_bench::oracle::assert_agrees(&db, &q).unwrap();
    assert_eq!(out.sorted_tuples(), vec![tuple![1i64], tuple![2i64]]);
}

// Differentials: each system below agrees with the oracle, in its
// answer and in the rounds §3.2's loop takes to reach it.

/// `Infront`/`Ontop` from a generated scene, with §3.1's mutually
/// recursive `ahead`/`above` defined.
fn mutual_db(scene: &dc_bench::workload::Scene) -> Database {
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    db.create_relation("Ontop", paper::ontoprel()).unwrap();
    db.insert_all("Infront", scene.infront.iter().cloned())
        .unwrap();
    db.insert_all("Ontop", scene.ontop.iter().cloned()).unwrap();
    db.define_constructors(vec![paper::ahead_mutual(), paper::above()])
        .unwrap();
    db
}

fn above_query() -> RangeExpr {
    rel("Ontop").construct("above", vec![rel("Infront")])
}

/// The mutual `ahead`/`above` system, both equations solved jointly:
/// the same relations as the oracle and the naive strategy, in as many
/// Jacobi rounds as the oracle or one fewer: the solver registers the
/// application a body names before its first round, the oracle when its
/// first round meets it, so the oracle's values lag by at most a round.
#[test]
fn mutual_system_matches_the_reference() {
    for seed in [3u64, 7, 19] {
        let scene = dc_bench::workload::scene(6, 12, 3, seed);
        let ahead = rel("Infront").construct("ahead", vec![rel("Ontop")]);
        for q in [above_query(), ahead] {
            let db = mutual_db(&scene);
            let (out, d) = counted(&db.metrics(), || db.eval(&q).unwrap());
            assert_eq!(d.solve_equations, 2, "seed={seed}");
            let (expected, rounds) = dc_bench::oracle::eval_counting(&db, &q);
            assert_eq!(out, expected.unwrap(), "seed={seed}");
            let lag = d.solve_rounds..=d.solve_rounds + 1;
            assert!(lag.contains(&rounds), "seed={seed}: {lag:?} vs {rounds}");
            let mut naive = mutual_db(&scene);
            naive.set_strategy(Strategy::Naive);
            assert_eq!(naive.eval(&q).unwrap(), out, "seed={seed}");
        }
    }
}

/// The 4-constructor ring over seeded random graphs: four
/// simultaneously solved equations whose Linear branches all carry
/// work each round.
#[test]
fn random_ring_system_matches_the_reference() {
    for seed in [1u64, 13, 31] {
        let edges = dc_bench::workload::random_graph(40, 2.0, seed);
        let q = dc_bench::ring_query();
        let mut db = dc_bench::ring_db(&edges);
        let (out, d) = counted(&db.metrics(), || db.eval(&q).unwrap());
        assert_eq!(d.solve_equations, 4);
        assert_eq!(out, dc_bench::oracle::eval(&db, &q).unwrap(), "seed={seed}");
        db.set_strategy(Strategy::Naive);
        assert_eq!(db.eval(&q).unwrap(), out, "seed={seed}");
    }
}

/// Transitive closure with a third, *impure* branch: a quantifier over
/// the recursive application in the predicate. The branch classifier
/// can only call it `Fallback`, so every round re-evaluates it whole.
/// Its yield is a subset of the base relation, so the fixpoint is the
/// plain closure.
#[test]
fn witnessed_quantifier_constructor_matches_the_reference() {
    let witnessed = Constructor {
        name: "witnessed".into(),
        base_param: ("Rel".into(), paper::infrontrel()),
        rel_params: vec![],
        scalar_params: vec![],
        result: paper::infrontrel(),
        body: SetFormer {
            branches: vec![
                Branch::each("r", rel("Rel"), tru()),
                Branch::projecting(
                    vec![attr("f", "front"), attr("b", "back")],
                    vec![
                        ("f".into(), rel("Rel")),
                        ("b".into(), rel("Rel").construct("witnessed", vec![])),
                    ],
                    eq(attr("f", "back"), attr("b", "front")),
                ),
                Branch::each(
                    "r",
                    rel("Rel"),
                    some(
                        "t",
                        rel("Rel").construct("witnessed", vec![]),
                        eq(attr("t", "front"), attr("r", "back")),
                    ),
                ),
            ],
        },
    };
    let n = 32usize;
    let build = || {
        let mut db = Database::new();
        db.create_relation("Edges", paper::infrontrel()).unwrap();
        db.insert_all("Edges", dc_bench::workload::chain(n).iter().cloned())
            .unwrap();
        db.define_constructor(witnessed.clone()).unwrap();
        db
    };
    let q = rel("Edges").construct("witnessed", vec![]);
    for strategy in [Strategy::SemiNaive, Strategy::Naive] {
        let mut db = build();
        db.set_strategy(strategy);
        let out = dc_bench::oracle::assert_agrees(&db, &q).unwrap();
        assert_eq!(out.len(), n * (n + 1) / 2, "plain chain closure");
    }
}

/// Semi-naive closures whose deltas grow mid-solve: every round's
/// Linear branch binds the previous round's delta as its scan side. The
/// closure and its round count match the oracle's.
#[test]
fn closures_with_growing_deltas_match_the_reference() {
    let workloads = [
        ("tree d=7", dc_bench::workload::complete_binary_tree(7)),
        ("random n=60", dc_bench::workload::random_graph(60, 1.6, 9)),
        ("chain n=48", dc_bench::workload::chain(48)),
    ];
    for (label, base) in workloads {
        let q = dc_bench::ahead_query();
        let db = dc_bench::ahead_db(&base, Strategy::SemiNaive);
        let (out, d) = counted(&db.metrics(), || db.eval(&q).unwrap());
        assert!(d.solve_rounds > 3, "{label}: {} rounds", d.solve_rounds);
        let (expected, rounds) = dc_bench::oracle::eval_counting(&db, &q);
        assert_eq!(expected.unwrap(), out, "{label}");
        assert_eq!(rounds, d.solve_rounds, "{label}");
    }
}

/// The naive strategy's no-change rounds: a cyclic closure converges
/// with trailing rounds that reproduce the accumulated value exactly
/// (skipped by the commit's length and digest check), and the result
/// matches semi-naive and the oracle.
#[test]
fn naive_no_change_rounds_match_the_reference() {
    let mut base = dc_bench::workload::cycle(12);
    for t in dc_bench::workload::chain(12).iter() {
        base.insert(t.clone()).unwrap();
    }
    let q = dc_bench::ahead_query();
    let naive = dc_bench::ahead_db(&base, Strategy::Naive);
    let (out, d) = counted(&naive.metrics(), || naive.eval(&q).unwrap());
    assert!(d.solve_rounds > 2, "{d:?}");
    let semi = dc_bench::ahead_db(&base, Strategy::SemiNaive);
    assert_eq!(semi.eval(&q).unwrap(), out);
    assert_eq!(dc_bench::oracle::eval(&naive, &q).unwrap(), out);
}

/// A pre-cancelled token aborts the mutual solve before any commit: a
/// structured `Cancelled` error, base relations untouched, and the
/// database fully usable once the budget is lifted.
#[test]
fn pre_cancelled_mutual_solve_aborts_atomically() {
    let scene = dc_bench::workload::scene(6, 12, 3, 5);
    let expected = dc_bench::oracle::eval(&mutual_db(&scene), &above_query()).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let mut db = mutual_db(&scene);
    db.set_budget(Some(Budget::unlimited().with_cancel(token)));
    let before = snapshot(&db);
    let err = db.eval(&above_query()).unwrap_err();
    assert!(matches!(
        unwrap_solve_error(err),
        SolveError::Cancelled { .. }
    ));
    assert_eq!(snapshot(&db), before, "aborted solve must be atomic");
    db.set_budget(None);
    assert_eq!(db.eval(&above_query()).unwrap(), expected);
}

/// Cancellation landing mid-solve from another thread aborts the
/// mutual solve with `Cancelled`, and the database re-solves to the
/// unbudgeted answer afterwards. (If the solve wins the race it simply
/// succeeds, and must equal that answer.)
#[test]
fn mid_solve_cancellation_of_a_mutual_solve_is_atomic() {
    let scene = dc_bench::workload::scene(8, 48, 3, 11);
    let expected = mutual_db(&scene).eval(&above_query()).unwrap();
    let token = CancelToken::new();
    let mut db = mutual_db(&scene);
    db.set_budget(Some(Budget::unlimited().with_cancel(token.clone())));
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(5));
        token.cancel();
    });
    let result = db.eval(&above_query());
    canceller.join().unwrap();
    match result {
        Err(err) => assert!(matches!(
            unwrap_solve_error(err),
            SolveError::Cancelled { .. }
        )),
        Ok(r) => assert_eq!(r, expected),
    }
    db.set_budget(None);
    assert_eq!(db.eval(&above_query()).unwrap(), expected);
}
