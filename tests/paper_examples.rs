//! Integration tests: every worked example in the paper, end to end
//! through the public API.

use data_constructors::prelude::*;
use dc_calculus::builder::*;
use dc_core::paper;

fn scene_db() -> Database {
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

/// §2.3: the ahead-2 relation as a query expression.
#[test]
fn section_2_3_ahead2_expression() {
    let db = scene_db();
    let q = set_former(vec![
        Branch::each("r", rel("Infront"), tru()),
        Branch::projecting(
            vec![attr("f", "front"), attr("b", "back")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")),
        ),
    ]);
    let out = db.eval(&q).unwrap();
    assert_eq!(out.len(), 5);
    assert!(out.contains(&tuple!["vase", "chair"]));
    assert!(!out.contains(&tuple!["vase", "wall"])); // 3 steps away
}

/// §2.3: the same relation through the `ahead2` constructor.
#[test]
fn section_2_3_ahead2_constructor() {
    let mut db = scene_db();
    db.define_constructor(paper::ahead2()).unwrap();
    let out = db
        .eval(&rel("Infront").construct("ahead2", vec![]))
        .unwrap();
    assert_eq!(out.len(), 5);
}

/// §3.1: `Infront{ahead} = lim Infront{ahead_n}`.
#[test]
fn section_3_1_ahead_is_the_limit_of_ahead_n() {
    let mut db = scene_db();
    db.define_constructor(paper::ahead()).unwrap();
    let limit = db.eval(&rel("Infront").construct("ahead", vec![])).unwrap();
    assert_eq!(limit.len(), 6);

    // ahead_n by bounded iteration over the same base.
    let base = db.relation_ref("Infront").unwrap().clone();
    let mut previous_len = 0;
    for n in 1..=4 {
        let ahead_n = dc_core::options::iterate_n(
            base.schema().clone(),
            |cur| dc_core::options::ahead_step(&base, cur, 0, 1),
            n,
        )
        .unwrap();
        assert!(ahead_n.len() >= previous_len, "monotone sequence");
        previous_len = ahead_n.len();
        if n >= 3 {
            assert_eq!(ahead_n.len(), limit.len(), "limit reached at n = depth");
        }
    }
}

/// §3.1: `Infront[hidden_by("table")]{ahead}` — "all objects behind
/// the table".
#[test]
fn section_3_1_hidden_by_composition() {
    let mut db = scene_db();
    db.define_selector(paper::hidden_by(), paper::infrontrel())
        .unwrap();
    db.define_constructor(paper::ahead()).unwrap();
    let out = db
        .eval(
            &rel("Infront")
                .select("hidden_by", vec![cnst("table")])
                .construct("ahead", vec![]),
        )
        .unwrap();
    // Selected base = {(table, chair)}; its closure is itself.
    assert_eq!(out.sorted_tuples(), vec![tuple!["table", "chair"]]);
}

/// §3.1: the vase/table/chair mutual-recursion derivation.
#[test]
fn section_3_1_mutual_recursion_scene() {
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    db.create_relation("Ontop", paper::ontoprel()).unwrap();
    db.insert("Infront", tuple!["table", "chair"]).unwrap();
    db.insert("Ontop", tuple!["vase", "table"]).unwrap();
    db.define_constructors(vec![paper::ahead_mutual(), paper::above()])
        .unwrap();

    // "we would say that a vase is ahead of a chair if the vase is on
    // top of a table which is in front of the chair"
    let (above, d) = dc_bench::counted(&db.metrics(), || {
        db.eval(&rel("Ontop").construct("above", vec![rel("Infront")]))
            .unwrap()
    });
    assert!(above.contains(&tuple!["vase", "chair"]));
    assert!(above.contains(&tuple!["vase", "table"]));
    assert_eq!(d.solve_equations, 2);
}

/// §3.2: the fixpoint is reached after finitely many steps and both
/// strategies compute the same LFP.
#[test]
fn section_3_2_strategies_agree_on_random_graphs() {
    for seed in 0..5u64 {
        let base = dc_workload::random_graph(24, 2.0, seed);
        let mut results = Vec::new();
        for strategy in [dc_core::Strategy::Naive, dc_core::Strategy::SemiNaive] {
            let mut db = Database::new();
            db.set_strategy(strategy);
            db.create_relation("Infront", base.schema().clone())
                .unwrap();
            for t in base.iter() {
                db.insert("Infront", t.clone()).unwrap();
            }
            db.define_constructor(paper::ahead()).unwrap();
            results.push(db.eval(&rel("Infront").construct("ahead", vec![])).unwrap());
        }
        assert_eq!(results[0], results[1], "seed {seed}");
    }
}

/// The checked constructor `name` = `EACH r IN Rel{inner()}: TRUE`: a
/// positive wrapper whose system still reaches the unchecked `inner`.
fn wrapper(name: &str, inner: &Constructor) -> Constructor {
    Constructor {
        name: name.into(),
        body: SetFormer {
            branches: vec![Branch::each(
                "r",
                rel(&inner.base_param.0).construct(&inner.name, vec![]),
                tru(),
            )],
        },
        ..inner.clone()
    }
}

/// `Card = {0,…,6}` with `strange` (unchecked) and its checked
/// wrapper `wrap_strange`.
fn strange_db() -> Database {
    let mut db = Database::new();
    db.create_relation("Card", paper::cardrel()).unwrap();
    for i in 0u64..=6 {
        db.insert("Card", tuple![i]).unwrap();
    }
    assert!(db.define_constructor(paper::strange()).is_err());
    db.define_constructor_unchecked(paper::strange()).unwrap();
    db.define_constructor(wrapper("wrap_strange", &paper::strange()))
        .unwrap();
    db
}

/// `base{constructor()}` through `Database::eval` and through a prepared
/// solve on a `Server` session over the same definitions.
fn eval_and_serve(db: Database, base: &str, constructor: &str) -> [Result<Relation, String>; 2] {
    let direct = db
        .eval(&rel(base).construct(constructor, vec![]))
        .map_err(|e| e.to_string());
    let server = dc_server::Server::new(db);
    let prepared = server
        .prepare_solve(base, constructor, &[], vec![])
        .unwrap();
    let served = server.begin().query(&prepared).map_err(|e| e.to_string());
    [direct, served]
}

/// §3.3: `nonsense` rejected; forced evaluation detects oscillation —
/// applied directly, and through a checked wrapper on both the database
/// and the serving path.
#[test]
fn section_3_3_nonsense() {
    let db = || {
        let mut db = scene_db();
        let err = db.define_constructor(paper::nonsense()).unwrap_err();
        assert!(err.to_string().contains("positivity"));
        db.define_constructor_unchecked(paper::nonsense()).unwrap();
        db.define_constructor(wrapper("wrap_nonsense", &paper::nonsense()))
            .unwrap();
        db
    };
    for constructor in ["nonsense", "wrap_nonsense"] {
        for out in eval_and_serve(db(), "Infront", constructor) {
            let err = out.unwrap_err();
            assert!(err.contains("converge"), "{constructor}: {err}");
        }
    }
}

/// §3.3: `strange` on `{0,…,6}` has the limit `{0,2,4,6}` — applied
/// directly, and through a checked wrapper on both the database and the
/// serving path.
#[test]
fn section_3_3_strange() {
    for constructor in ["strange", "wrap_strange"] {
        for out in eval_and_serve(strange_db(), "Card", constructor) {
            let nums: Vec<u64> = out
                .unwrap()
                .sorted_tuples()
                .iter()
                .map(|t| t.get(0).as_card().unwrap())
                .collect();
            assert_eq!(nums, vec![0, 2, 4, 6], "{constructor}");
        }
    }
}

/// §3.4 lemma: constructor answers ≡ Horn-clause answers, via the
/// translation, on several graph shapes.
#[test]
fn section_3_4_prolog_equivalence() {
    use dc_prolog::sld::{self, SldConfig};
    use dc_prolog::{tabled, Atom, Term};

    for base in [
        dc_workload::chain(10),
        dc_workload::diamond_ladder(4),
        dc_workload::complete_binary_tree(4),
    ] {
        let mut db = Database::new();
        db.create_relation("Infront", base.schema().clone())
            .unwrap();
        for t in base.iter() {
            db.insert("Infront", t.clone()).unwrap();
        }
        db.define_constructor(paper::ahead()).unwrap();
        let engine = db.eval(&rel("Infront").construct("ahead", vec![])).unwrap();

        let mut names = dc_value::FxHashMap::default();
        names.insert("Rel".to_string(), "infront".to_string());
        names.insert("ahead".to_string(), "ahead".to_string());
        let clauses = dc_prolog::translate::translate_constructor(
            &paper::ahead(),
            &names,
            &dc_value::FxHashMap::default(),
        )
        .unwrap();
        let mut p = dc_prolog::Program::new();
        p.add_relation("infront", &base);
        for c in clauses {
            p.add_rule(c).unwrap();
        }
        let goal = Atom::new("ahead", vec![Term::var("X"), Term::var("Y")]);
        let s = sld::solve(&p, &goal, &SldConfig::default()).unwrap();
        let t = tabled::solve(&p, &goal).unwrap();
        let engine_set: dc_value::FxHashSet<Vec<Value>> =
            engine.iter().map(|tup| tup.fields().to_vec()).collect();
        assert_eq!(engine_set, s.answers);
        assert_eq!(s.answers, t.answers);
    }
}

/// §2.2: the key constraint as conditional assignment.
#[test]
fn section_2_2_key_constraint() {
    let mut db = Database::new();
    let objectrel = Schema::with_key(
        vec![
            Attribute::new("part", Domain::Str),
            Attribute::new("weight", Domain::Int),
        ],
        &["part"],
    )
    .unwrap();
    db.create_relation("Objects", objectrel.clone()).unwrap();
    db.insert("Objects", tuple!["bolt", 5i64]).unwrap();
    let err = db.insert("Objects", tuple!["bolt", 7i64]).unwrap_err();
    assert!(err.to_string().contains("key violation"));

    // Whole-relation assignment checks the constraint on the source.
    let bad = dc_relation::Relation::from_tuples(
        Schema::of(&[("part", Domain::Str), ("weight", Domain::Int)]),
        vec![tuple!["nut", 1i64], tuple!["nut", 2i64]],
    )
    .unwrap();
    assert!(db.assign("Objects", &bad).is_err());
    // Target untouched.
    assert_eq!(db.relation_ref("Objects").unwrap().len(), 1);
}
