//! Shared fixtures for the `harness` binary (E1–E7) and the root test
//! suites, so both run exactly the same configurations: the reference
//! interpreter every differential compares against ([`oracle`]), the
//! seeded generators ([`workload`]), workload databases and queries,
//! the registry-delta helper [`counted`], and the atomic-abort fixtures
//! [`snapshot`] and [`unwrap_solve_error`].

pub mod oracle;
pub mod workload;

use dc_calculus::ast::SelectorDef;
use dc_calculus::EvalError;
use dc_core::{paper, Constructor, CoreError, Database, Strategy};
use dc_governor::SolveError;
use dc_prolog::program::Clause;
use dc_prolog::{Program, Term};
use dc_relation::Relation;
use dc_trace::metrics::{MetricsRegistry, MetricsSnapshot};
use dc_value::{tuple, Domain, Value};

/// `k` disjoint chains of `depth` edges each: the E2 workload (the
/// selected cone is one chain; the full closure covers all of them).
pub fn many_chains(k: usize, depth: usize) -> Relation {
    let mut rel = Relation::new(workload::graphs::edge_schema());
    for c in 0..k {
        for i in 0..depth {
            rel.insert(tuple![format!("c{c}_{i}"), format!("c{c}_{}", i + 1)])
                .expect("distinct chain edges");
        }
    }
    rel
}

/// A database holding `base` under the name `Infront` with the §3.1
/// `ahead` constructor registered, using the given strategy.
pub fn ahead_db(base: &Relation, strategy: Strategy) -> Database {
    let mut db = Database::new();
    db.set_strategy(strategy);
    db.create_relation("Infront", base.schema().clone())
        .expect("fresh database");
    for t in base.iter() {
        db.insert("Infront", t.clone()).expect("valid tuple");
    }
    db.define_constructor(ahead_for(base))
        .expect("ahead is positive and well-typed");
    db
}

/// The `ahead` constructor retargeted at `base`'s schema (attribute
/// names may differ from the paper's `infrontrel`).
pub fn ahead_for(base: &Relation) -> Constructor {
    let mut c = paper::ahead();
    if base.schema().union_compatible(&paper::infrontrel()) {
        c.base_param.1 = base.schema().clone();
    }
    c
}

/// The `ahead` query expression.
pub fn ahead_query() -> dc_calculus::RangeExpr {
    dc_calculus::builder::rel("Infront").construct("ahead", vec![])
}

/// `{EACH a IN range: a.<attr_name> = k}` — the selection shape §4
/// propagates into a constructor (E2, the rewrite differentials).
pub fn bound_query(
    range: dc_calculus::RangeExpr,
    attr_name: &str,
    k: dc_calculus::ScalarExpr,
) -> dc_calculus::RangeExpr {
    use dc_calculus::builder::{attr, eq, set_former};
    set_former(vec![dc_calculus::ast::Branch::each(
        "a",
        range,
        eq(attr("a", attr_name), k),
    )])
}

/// The Horn-clause program for `ahead` over `base` (facts `infront/2`,
/// the two textbook rules), via the §3.4 translation.
pub fn ahead_program(base: &Relation) -> Program {
    let mut names = dc_value::FxHashMap::default();
    names.insert("Rel".to_string(), "infront".to_string());
    names.insert("ahead".to_string(), "ahead".to_string());
    let clauses = dc_prolog::translate::translate_constructor(
        &paper::ahead(),
        &names,
        &dc_value::FxHashMap::default(),
    )
    .expect("ahead is Horn-expressible");
    let mut p = Program::new();
    p.add_relation("infront", base);
    for c in clauses {
        p.add_rule(c).expect("translated clauses are safe");
    }
    p
}

/// The open query `ahead(X, Y)`.
pub fn ahead_goal() -> dc_prolog::Atom {
    dc_prolog::Atom::new("ahead", vec![Term::var("X"), Term::var("Y")])
}

/// The bound query `ahead(seed, Y)`.
pub fn ahead_goal_bound(seed: &str) -> dc_prolog::Atom {
    dc_prolog::Atom::new("ahead", vec![Term::val(seed), Term::var("Y")])
}

/// Generate `m` mutually recursive constructors `c0 … c{m-1}` where
/// `c_i` applies `c_{(i+1) % m}` — the E6 static-analysis workload.
pub fn constructor_ring(m: usize) -> Vec<Constructor> {
    use dc_calculus::ast::{Branch, SetFormer};
    use dc_calculus::builder::*;
    (0..m)
        .map(|i| {
            let next = format!("c{}", (i + 1) % m);
            Constructor {
                name: format!("c{i}"),
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
                                ("b".into(), rel("Rel").construct(next, vec![])),
                            ],
                            eq(attr("f", "back"), attr("b", "front")),
                        ),
                    ],
                },
            }
        })
        .collect()
}

/// A database holding `base` under `Edges` with the 4-constructor ring
/// defined: four simultaneously solved equations whose Linear branches
/// all carry a delta every round — four tasks a round, one per
/// equation. [`ring_query`] solves it.
pub fn ring_db(base: &Relation) -> Database {
    let mut db = weighted_db(base);
    db.define_constructors(constructor_ring(4))
        .expect("the ring is positive and well-typed");
    db
}

/// `Edges{c0}`: the closure of `Edges`, through all four ring equations.
pub fn ring_query() -> dc_calculus::RangeExpr {
    dc_calculus::builder::rel("Edges").construct("c0", vec![])
}

/// Same-generation Horn program over parent facts from a complete
/// binary tree — the second E7 workload.
pub fn same_generation_program(depth: usize) -> Program {
    let tree = workload::complete_binary_tree(depth);
    let mut p = Program::new();
    p.add_relation("parent", &tree);
    use dc_prolog::atom;
    // sg(X, X) is unsafe (head var not bound); ground it through
    // parent: sg(X, Y) :- parent(P, X), parent(P, Y).
    p.add_rule(Clause::rule(
        atom!("sg"; var "X", var "Y"),
        vec![
            atom!("parent"; var "P", var "X"),
            atom!("parent"; var "P", var "Y"),
        ],
    ))
    .expect("safe");
    p.add_rule(Clause::rule(
        atom!("sg"; var "X", var "Y"),
        vec![
            atom!("parent"; var "PX", var "X"),
            atom!("sg"; var "PX", var "PY"),
            atom!("parent"; var "PY", var "Y"),
        ],
    ))
    .expect("safe");
    p
}

/// A database holding a generated CAD scene under the paper's names
/// (`Objects`, `Infront`, `Ontop`) — the quantifier-probe workloads
/// (E2b, E2c). Registers the `on_base(B)` selector over `Ontop` used by
/// the correlated-selector workload.
pub fn scene_db(scene: &workload::Scene) -> Database {
    use dc_calculus::builder::*;
    let mut db = Database::new();
    for (name, rel) in [
        ("Objects", &scene.objects),
        ("Infront", &scene.infront),
        ("Ontop", &scene.ontop),
    ] {
        db.create_relation(name, rel.schema().clone())
            .expect("fresh database");
        for t in rel.iter() {
            db.insert(name, t.clone()).expect("valid scene tuple");
        }
    }
    // SELECTOR on_base(B: STRING) FOR Rel: ontoprel;
    // BEGIN EACH o IN Rel: o.base = B END on_base
    db.define_selector(
        SelectorDef {
            name: "on_base".into(),
            element_var: "o".into(),
            params: vec![("B".into(), Domain::Str)],
            predicate: eq(attr("o", "base"), param("B")),
        },
        scene.ontop.schema().clone(),
    )
    .expect("on_base is well-typed");
    db
}

/// The quantifier-heavy "visibility selector" query over a scene:
///
/// ```text
/// EACH r IN Infront:
///       SOME t IN Ontop  (t.base = r.front)     -- carries an item
///   AND NOT SOME b IN Ontop (b.base = r.back)   -- target side bare
/// ```
///
/// Both quantified subformulas carry equality atoms on the quantified
/// variable, so the index path decides each through a hash-bucket
/// existence probe; the oracle scans `Ontop` per conjunct per
/// `Infront` tuple — the paper's selector-style predicate shape (§2.3)
/// at O(|Infront| × |Ontop|).
pub fn visibility_query() -> dc_calculus::RangeExpr {
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::*;
    set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        some("t", rel("Ontop"), eq(attr("t", "base"), attr("r", "front"))).and(not(some(
            "b",
            rel("Ontop"),
            eq(attr("b", "base"), attr("r", "back")),
        ))),
    )])
}

/// The universal dual: objects every stacked item avoids —
/// `EACH o IN Objects: ALL t IN Ontop (t.base = o.part)` is only
/// satisfiable for degenerate registries, so the interesting measured
/// variant keeps the existential guard in front:
///
/// ```text
/// EACH o IN Objects: NOT SOME r IN Infront (r.back = o.part)
/// ```
///
/// (nothing stands in front of `o` — the scene's visible front row).
pub fn front_row_query() -> dc_calculus::RangeExpr {
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::*;
    set_former(vec![Branch::each(
        "o",
        rel("Objects"),
        not(some(
            "r",
            rel("Infront"),
            eq(attr("r", "back"), attr("o", "part")),
        )),
    )])
}

/// The correlated-selector workload (E2c):
///
/// ```text
/// EACH r IN Infront: SOME t IN Ontop[on_base(r.back)] (TRUE)
/// ```
///
/// — edges whose *back* object carries a stacked item. The quantified
/// range is a selector application whose actual argument references the
/// outer variable `r`, so the oracle re-applies the selector
/// (one full `Ontop` pass) per `Infront` tuple: O(|Infront| × |Ontop|).
/// The unnested path decides each edge by `SOME o IN Ontop (o.base =
/// r.back)`, a probe of one `base` index built once:
/// O(|Ontop| + |Infront| × matches).
pub fn stacked_back_query() -> dc_calculus::RangeExpr {
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::*;
    set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        some(
            "t",
            rel("Ontop").select("on_base", vec![attr("r", "back")]),
            tru(),
        ),
    )])
}

/// The implication-shaped `ALL` workload (E2c, NNF tentpole):
///
/// ```text
/// EACH r IN Infront:
///   ALL t IN Ontop (NOT (t.base = r.front) OR t.top > t.base)
/// ```
///
/// — edges whose front carries no "heavy" item (scene item names sort
/// below their bases, so any stacked item falsifies the implication:
/// the result is exactly the bare-fronted edges). The body is an
/// implication `NOT p OR q`; its falsifier `p AND NOT q` carries the
/// equality atom `t.base = r.front`, so the engine probes the `base`
/// bucket for counterexamples instead of scanning `Ontop` per edge —
/// the coverage the pre-NNF extractor could not see.
pub fn unburdened_front_query() -> dc_calculus::RangeExpr {
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::*;
    set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        all(
            "t",
            rel("Ontop"),
            not(eq(attr("t", "base"), attr("r", "front")))
                .or(gt(attr("t", "top"), attr("t", "base"))),
        ),
    )])
}

/// A database holding a staffing instance under `Assign` / `Skill` /
/// `Requests` — the multi-binding correlated-join workload (E2d).
pub fn staffing_db(s: &workload::Staffing) -> Database {
    let mut db = Database::new();
    for (name, rel) in [
        ("Assign", &s.assign),
        ("Skill", &s.skill),
        ("Requests", &s.requests),
    ] {
        db.create_relation(name, rel.schema().clone())
            .expect("fresh database");
        for t in rel.iter() {
            db.insert(name, t.clone()).expect("valid staffing tuple");
        }
    }
    db
}

/// The correlated **join view** the E2d workload quantifies over:
///
/// ```text
/// { <a.worker> OF EACH a IN Assign, s IN Skill:
///     a.worker = s.worker AND a.task = r.task AND s.tool = r.tool }
/// ```
///
/// Two bindings, one local join atom (`a.worker = s.worker`), and
/// correlation on **both** bindings (`a.task`, `s.tool`).
fn qualified_worker_view() -> dc_calculus::RangeExpr {
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::*;
    set_former(vec![Branch::projecting(
        vec![attr("a", "worker")],
        vec![("a".into(), rel("Assign")), ("s".into(), rel("Skill"))],
        eq(attr("a", "worker"), attr("s", "worker"))
            .and(eq(attr("a", "task"), attr("r", "task")))
            .and(eq(attr("s", "tool"), attr("r", "tool"))),
    )])
}

/// The E2d existential query: requests some assigned worker can serve.
///
/// ```text
/// EACH r IN Requests: SOME x IN <qualified_worker_view> (TRUE)
/// ```
///
/// The oracle evaluates the inner join per request —
/// O(|Requests| × |Assign| × |Skill|); the unnested path probes
/// `Assign` on `task` per request and `Skill` on `(worker, tool)` per
/// assigned worker — O(|Requests| × matches).
pub fn servable_request_query() -> dc_calculus::RangeExpr {
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::*;
    set_former(vec![Branch::each(
        "r",
        rel("Requests"),
        some("x", qualified_worker_view(), tru()),
    )])
}

/// The E2d universal dual: requests none of whose qualified assigned
/// workers is the (overloaded) worker `w0`.
///
/// ```text
/// EACH r IN Requests: ALL x IN <qualified_worker_view> (x.worker # "w0")
/// ```
pub fn avoids_w0_request_query() -> dc_calculus::RangeExpr {
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::*;
    set_former(vec![Branch::each(
        "r",
        rel("Requests"),
        all(
            "x",
            qualified_worker_view(),
            ne(attr("x", "worker"), cnst("w0")),
        ),
    )])
}

/// Small graph, scene, and staffing databases, each with the
/// non-recursive harness queries over it: the write-interleaving
/// domains of `tests/prop_engine.rs` and `tests/prop_server.rs`, whose
/// answers are checked against the oracle after every write.
pub fn small_domains() -> Vec<(Database, Vec<dc_calculus::RangeExpr>)> {
    vec![
        (
            weighted_db(&workload::weighted_random_graph(10, 2.0, 6, 3)),
            vec![two_hop_query(3)],
        ),
        (
            scene_db(&workload::scene(3, 4, 2, 7)),
            vec![
                visibility_query(),
                front_row_query(),
                stacked_back_query(),
                unburdened_front_query(),
            ],
        ),
        (
            staffing_db(&workload::staffing(4, 5, 4, 2, 2, 6, 11)),
            vec![servable_request_query(), avoids_w0_request_query()],
        ),
    ]
}

/// Every relation of `db` with its tuples at this moment, sorted: the
/// pools the write-interleaving properties draw their writes from.
pub fn tuple_pools(db: &Database) -> Vec<(String, Vec<dc_value::Tuple>)> {
    db.relation_names()
        .into_iter()
        .filter_map(|n| Some((n.to_string(), db.relation_ref(n).ok()?.sorted_tuples())))
        .collect()
}

/// The `Value` of a chain node name.
pub fn node(prefix: &str, i: usize) -> Value {
    Value::str(format!("{prefix}{i}"))
}

/// A database holding `edges` (a weighted random graph) under `Edges`.
pub fn weighted_db(edges: &Relation) -> Database {
    let mut db = Database::new();
    db.create_relation("Edges", edges.schema().clone())
        .expect("fresh database");
    for t in edges.iter() {
        db.insert("Edges", t.clone()).expect("valid edge tuple");
    }
    db
}

/// The two-hop join over a weighted graph:
///
/// ```text
/// { <x.src, y.dst> OF EACH x, y IN Edges:
///     x.dst = y.src AND (x.w + y.w) MOD m = 0 }
/// ```
///
/// The equality atom compiles to a scan of `Edges` probing the
/// `src`-index per continuation; the arithmetic residual filters each
/// probe hit. The modulus keeps the output a small fraction of the
/// probed combinations.
pub fn two_hop_query(m: i64) -> dc_calculus::RangeExpr {
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::*;
    set_former(vec![Branch::projecting(
        vec![attr("x", "src"), attr("y", "dst")],
        vec![("x".into(), rel("Edges")), ("y".into(), rel("Edges"))],
        eq(attr("x", "dst"), attr("y", "src")).and(eq(
            modulo(add(attr("x", "w"), attr("y", "w")), cnst(m)),
            cnst(0i64),
        )),
    )])
}

/// Run `f` and return its result with what it recorded into
/// `metrics`: the counter growth between two snapshots taken around it
/// (see [`MetricsSnapshot::since`]). How tests, examples and the harness
/// read a solve's rounds, equations and dispatch decisions.
pub fn counted<T>(metrics: &MetricsRegistry, f: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    let before = metrics.snapshot();
    let out = f();
    (out, metrics.snapshot().since(&before))
}

/// Every relation of `db` as `(name, cardinality, content digest)`: two
/// equal snapshots around an aborted evaluation show it changed nothing.
pub fn snapshot(db: &Database) -> Vec<(String, usize, u128)> {
    db.relation_names()
        .into_iter()
        .map(|n| {
            let r = db.relation_ref(n).expect("a listed relation");
            (n.to_string(), r.len(), r.digest())
        })
        .collect()
}

/// The structured [`SolveError`] inside `err`; panics on any other error.
pub fn unwrap_solve_error(err: CoreError) -> SolveError {
    match err {
        CoreError::Eval(EvalError::Solve(se)) => se,
        other => panic!("expected a structured solve error, got: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_prolog::sld::{self, SldConfig};

    #[test]
    fn many_chains_shape() {
        let r = many_chains(3, 4);
        assert_eq!(r.len(), 12);
    }

    #[test]
    fn ahead_db_round_trip() {
        let base = workload::chain(6);
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let db = ahead_db(&base, strategy);
            let out = db.eval(&ahead_query()).unwrap();
            assert_eq!(out.len(), 21);
        }
    }

    #[test]
    fn ahead_program_matches_engine() {
        let base = workload::chain(5);
        let db = ahead_db(&base, Strategy::SemiNaive);
        let engine = db.eval(&ahead_query()).unwrap();
        let p = ahead_program(&base);
        let s = sld::solve(&p, &ahead_goal(), &SldConfig::default()).unwrap();
        assert_eq!(s.answers.len(), engine.len());
    }

    #[test]
    fn visibility_queries_agree_with_reference() {
        let scene = workload::scene(6, 8, 2, 3);
        let db = scene_db(&scene);
        for q in [visibility_query(), front_row_query()] {
            assert!(!oracle::assert_agrees(&db, &q).unwrap().is_empty());
        }
    }

    #[test]
    fn correlated_selector_queries_agree_with_reference() {
        let scene = workload::scene(6, 8, 2, 3);
        let db = scene_db(&scene);
        for q in [stacked_back_query(), unburdened_front_query()] {
            let probed = oracle::assert_agrees(&db, &q).unwrap();
            // Both queries discriminate: neither empty nor everything.
            assert!(!probed.is_empty(), "{q}");
            assert!(probed.len() < scene.infront.len(), "{q}");
        }
    }

    #[test]
    fn staffing_queries_agree_with_reference() {
        let s = workload::staffing(20, 10, 8, 2, 3, 25, 11);
        let db = staffing_db(&s);
        for q in [servable_request_query(), avoids_w0_request_query()] {
            let probed = oracle::assert_agrees(&db, &q).unwrap();
            // Both queries discriminate: neither empty nor everything.
            assert!(!probed.is_empty(), "{q}");
            assert!(probed.len() < s.requests.len(), "{q}");
        }
    }

    #[test]
    fn constructor_ring_registers() {
        let mut db = Database::new();
        db.create_relation("Infront", paper::infrontrel()).unwrap();
        db.define_constructors(constructor_ring(5)).unwrap();
        assert_eq!(db.constructor_names().len(), 5);
    }

    #[test]
    fn same_generation_has_answers() {
        let p = same_generation_program(4);
        let t = dc_prolog::tabled::solve(
            &p,
            &dc_prolog::Atom::new("sg", vec![Term::var("X"), Term::var("Y")]),
        )
        .unwrap();
        assert!(!t.answers.is_empty());
        // Siblings are same-generation.
        assert!(t
            .answers
            .contains(&vec![Value::str("t2"), Value::str("t3")]));
    }
}
