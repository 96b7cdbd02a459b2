//! Shared setup for the experiment benches and the harness binary.
//!
//! Each experiment (E1–E7, see `EXPERIMENTS.md`) gets one Criterion
//! bench target plus one section in the `harness` binary's text
//! report. This crate holds the common fixtures so that benches and
//! harness measure exactly the same configurations.

use dc_calculus::ast::SelectorDef;
use dc_core::{paper, Constructor, Database, Strategy};
use dc_prolog::program::Clause;
use dc_prolog::{Program, Term};
use dc_relation::Relation;
use dc_value::{tuple, Domain, Value};

/// `k` disjoint chains of `depth` edges each: the E2 workload (the
/// selected cone is one chain; the full closure covers all of them).
pub fn many_chains(k: usize, depth: usize) -> Relation {
    let mut rel = Relation::new(dc_workload::graphs::edge_schema());
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

/// `db` with `threads` workers and the parallel threshold lowered to 1,
/// so that even small generated inputs dispatch their round tasks and
/// shard their query scans — how the differential suites force the
/// parallel paths.
pub fn parallelised(mut db: Database, threads: usize) -> Database {
    db.set_threads(threads);
    db.config_mut().parallel_threshold = 1;
    db
}

/// A database holding `base` under `Edges` with the 4-constructor ring
/// defined: four simultaneously solved equations whose Linear branches
/// all carry a delta every round — a balanced four-task round for the
/// scheduler. [`ring_query`] solves it.
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
    let tree = dc_workload::complete_binary_tree(depth);
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
pub fn scene_db(scene: &dc_workload::Scene) -> Database {
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
/// existence probe; the reference path scans `Ontop` per conjunct per
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

/// The correlated-selector workload (E2c, decorrelation tentpole):
///
/// ```text
/// EACH r IN Infront: SOME t IN Ontop[on_base(r.back)] (TRUE)
/// ```
///
/// — edges whose *back* object carries a stacked item. The quantified
/// range is a selector application whose actual argument references the
/// outer variable `r`, so the reference path re-applies the selector
/// (one full `Ontop` pass) per `Infront` tuple: O(|Infront| × |Ontop|).
/// The decorrelated path evaluates `Ontop` once, indexes it on `base`,
/// and decides each edge by probe: O(|Ontop| + |Infront| × matches).
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
pub fn staffing_db(s: &dc_workload::Staffing) -> Database {
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
/// correlation atoms on **both** bindings — the joint key
/// `(a.task, s.tool)` spans the join.
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
/// The reference path evaluates the inner join per request —
/// O(|Requests| × |Assign| × |Skill|); the decorrelated path
/// materialises `Assign ⋈ Skill` once, buckets it on the joint key,
/// and probes per request.
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
/// non-recursive harness queries over it — the domains of the
/// write-interleaving properties in `tests/prop_engine.rs` and
/// `tests/prop_server.rs` (indexed answer against the nested-loop
/// reference after every write).
pub fn small_domains() -> Vec<(Database, Vec<dc_calculus::RangeExpr>)> {
    vec![
        (
            weighted_db(&dc_workload::weighted_random_graph(10, 2.0, 6, 3)),
            vec![two_hop_query(3)],
        ),
        (
            scene_db(&dc_workload::scene(3, 4, 2, 7)),
            vec![
                visibility_query(),
                front_row_query(),
                stacked_back_query(),
                unburdened_front_query(),
            ],
        ),
        (
            staffing_db(&dc_workload::staffing(4, 5, 4, 2, 2, 6, 11)),
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

/// A database holding `edges` (a weighted random graph: the
/// scan-sharding large-scan workload E1c) under `Edges`.
pub fn weighted_db(edges: &Relation) -> Database {
    let mut db = Database::new();
    db.create_relation("Edges", edges.schema().clone())
        .expect("fresh database");
    for t in edges.iter() {
        db.insert("Edges", t.clone()).expect("valid edge tuple");
    }
    db
}

/// The E1c two-hop join:
///
/// ```text
/// { <x.src, y.dst> OF EACH x, y IN Edges:
///     x.dst = y.src AND (x.w + y.w) MOD m = 0 }
/// ```
///
/// The equality atom compiles to a scan of `Edges` probing the
/// `src`-index per continuation; the arithmetic residual is *pure*, so
/// outside a solve the scan side shards across the worker pool: every
/// worker probes one shared index and evaluates the filter through the
/// ordinary operator loop — the embarrassingly partitionable shape scan
/// sharding targets. The modulus keeps the output a small fraction of
/// the probed combinations, so measured time is probe/filter work, not
/// single-threaded merge.
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

pub mod baseline {
    //! Parsing and tolerance comparison of the committed `BENCH_*.json`
    //! baselines — the `perf-baseline` CI gate (`bin/perf_baseline`).
    //!
    //! The harness emits one JSON row per workload with a `"workload"`
    //! label and a `"speedup"` ratio; `BENCH_e2.json` wraps its rows in
    //! named sections (`"e2b"`, …). This module reads both layouts with
    //! a deliberately small line-oriented scanner (the files are
    //! machine-written, one row per line; the build environment has no
    //! JSON dependency) and diffs a fresh run against the committed
    //! baseline within a documented tolerance band.

    /// One measured row: section (empty for `BENCH_e1.json`), workload
    /// label, speedup ratio.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        /// Section name (`"e2b"` etc.), empty for sectionless files.
        pub section: String,
        /// Workload label.
        pub workload: String,
        /// Probe-vs-scan (or indexed-vs-nested) speedup ratio.
        pub speedup: f64,
    }

    /// Extract the string value of `"key": "…"` from a JSON row line.
    fn str_field(line: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\": \"");
        let start = line.find(&pat)? + pat.len();
        let end = line[start..].find('"')? + start;
        Some(line[start..end].to_string())
    }

    /// Extract the numeric value of `"key": n` from a JSON row line.
    fn num_field(line: &str, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let end = line[start..]
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .map(|i| i + start)
            .unwrap_or(line.len());
        line[start..end].parse().ok()
    }

    /// Parse the measured rows of a BENCH JSON file. Section headers
    /// (`"e2b": [`) set the section of subsequent rows; each row is one
    /// line carrying both a `"workload"` string and a `"speedup"`
    /// number, the format the harness writes.
    pub fn parse_rows(text: &str) -> Vec<Row> {
        let mut section = String::new();
        let mut rows = Vec::new();
        for line in text.lines() {
            let trimmed = line.trim();
            // A section header names an array: `"e2d": [`.
            if trimmed.ends_with('[') {
                if let Some(name) = str_section(trimmed) {
                    section = name;
                }
                continue;
            }
            if let (Some(workload), Some(speedup)) = (
                str_field(trimmed, "workload"),
                num_field(trimmed, "speedup"),
            ) {
                rows.push(Row {
                    section: section.clone(),
                    workload,
                    speedup,
                });
            }
        }
        rows
    }

    /// The `"name":` of a section-header line, if it is one.
    fn str_section(line: &str) -> Option<String> {
        let start = line.find('"')? + 1;
        let end = line[start..].find('"')? + start;
        Some(line[start..end].to_string())
    }

    /// Diff a fresh run against the committed baseline.
    ///
    /// Every committed row must reappear (same section + workload —
    /// a missing row means a harness section was lost, which would
    /// otherwise silently drop perf coverage) with a fresh speedup of
    /// at least `tolerance × committed` speedup. Returns
    /// human-readable failure lines; empty means the gate passes.
    ///
    /// The default `tolerance` (see [`DEFAULT_TOLERANCE`]) is 0.35: the
    /// asserted speedups are order-of-magnitude signals (observed
    /// 30–300×), so a fresh run at under ~a third of the committed
    /// ratio indicates a lost access path rather than shared-runner
    /// jitter, which measures within a few percent on the ratio even
    /// when absolute times move.
    pub fn diff(committed: &[Row], fresh: &[Row], tolerance: f64) -> Vec<String> {
        let mut failures = Vec::new();
        for c in committed {
            let Some(f) = fresh
                .iter()
                .find(|f| f.section == c.section && f.workload == c.workload)
            else {
                failures.push(format!(
                    "missing workload in fresh run: [{}] {}",
                    c.section, c.workload
                ));
                continue;
            };
            let floor = c.speedup * tolerance;
            if f.speedup < floor {
                failures.push(format!(
                    "[{}] {}: fresh speedup {:.1}x below tolerance floor {:.1}x \
                     (committed {:.1}x × {tolerance})",
                    c.section, c.workload, f.speedup, floor, c.speedup
                ));
            }
        }
        failures
    }

    /// Default tolerance ratio of the perf-baseline gate — see
    /// [`diff`] for the rationale.
    pub const DEFAULT_TOLERANCE: f64 = 0.35;
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
        let base = dc_workload::chain(6);
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let db = ahead_db(&base, strategy);
            let out = db.eval(&ahead_query()).unwrap();
            assert_eq!(out.len(), 21);
        }
    }

    #[test]
    fn ahead_program_matches_engine() {
        let base = dc_workload::chain(5);
        let db = ahead_db(&base, Strategy::SemiNaive);
        let engine = db.eval(&ahead_query()).unwrap();
        let p = ahead_program(&base);
        let s = sld::solve(&p, &ahead_goal(), &SldConfig::default()).unwrap();
        assert_eq!(s.answers.len(), engine.len());
    }

    #[test]
    fn visibility_queries_agree_with_reference() {
        let scene = dc_workload::scene(6, 8, 2, 3);
        let db = scene_db(&scene);
        let mut db_scan = scene_db(&scene);
        db_scan.set_use_indexes(false);
        for q in [visibility_query(), front_row_query()] {
            let probed = db.eval(&q).unwrap();
            let scanned = db_scan.eval(&q).unwrap();
            assert_eq!(probed, scanned);
            assert!(!probed.is_empty());
        }
    }

    #[test]
    fn correlated_selector_queries_agree_with_reference() {
        let scene = dc_workload::scene(6, 8, 2, 3);
        let db = scene_db(&scene);
        let mut db_scan = scene_db(&scene);
        db_scan.set_use_indexes(false);
        for q in [stacked_back_query(), unburdened_front_query()] {
            let probed = db.eval(&q).unwrap();
            let scanned = db_scan.eval(&q).unwrap();
            assert_eq!(probed, scanned, "{q}");
            // Both queries discriminate: neither empty nor everything.
            assert!(!probed.is_empty(), "{q}");
            assert!(probed.len() < scene.infront.len(), "{q}");
        }
    }

    #[test]
    fn staffing_queries_agree_with_reference() {
        let s = dc_workload::staffing(20, 10, 8, 2, 3, 25, 11);
        let db = staffing_db(&s);
        let mut db_scan = staffing_db(&s);
        db_scan.set_use_indexes(false);
        for q in [servable_request_query(), avoids_w0_request_query()] {
            let probed = db.eval(&q).unwrap();
            let scanned = db_scan.eval(&q).unwrap();
            assert_eq!(probed, scanned, "{q}");
            // Both queries discriminate: neither empty nor everything.
            assert!(!probed.is_empty(), "{q}");
            assert!(probed.len() < s.requests.len(), "{q}");
        }
    }

    #[test]
    fn two_hop_query_parallel_agrees_with_sequential() {
        let edges = dc_workload::weighted_random_graph(300, 4.0, 50, 11);
        let q = two_hop_query(5);
        let mut db_seq = weighted_db(&edges);
        db_seq.set_threads(1);
        let seq = db_seq.eval(&q).unwrap();
        let mut db_par = weighted_db(&edges);
        db_par.set_threads(4);
        db_par.config_mut().parallel_threshold = 1;
        let par = db_par.eval(&q).unwrap();
        assert_eq!(seq, par);
        assert!(!seq.is_empty());
        let mut db_ref = weighted_db(&edges);
        db_ref.set_use_indexes(false);
        assert_eq!(seq, db_ref.eval(&q).unwrap());
    }

    #[test]
    fn constructor_ring_registers() {
        let mut db = Database::new();
        db.create_relation("Infront", paper::infrontrel()).unwrap();
        db.define_constructors(constructor_ring(5)).unwrap();
        assert_eq!(db.constructor_names().len(), 5);
    }

    #[test]
    fn baseline_parse_and_diff() {
        use crate::baseline::{diff, parse_rows, Row};
        // Sectionless layout (BENCH_e1.json).
        let e1 = "[\n  {\"workload\": \"tree d=10\", \"nodes\": 1023, \"speedup\": 80.5},\n  {\"workload\": \"chain n=128\", \"speedup\": 12.0}\n]\n";
        let rows = parse_rows(e1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].section, "");
        assert_eq!(rows[0].workload, "tree d=10");
        assert_eq!(rows[0].speedup, 80.5);
        // Sectioned layout (BENCH_e2.json).
        let e2 = "{\n\"e2b\": [\n  {\"workload\": \"scene 60x60\", \"speedup\": 253.9}\n],\n\"e2d\": [\n  {\"workload\": \"staffing L\", \"speedup\": 100.0}\n]\n}\n";
        let rows = parse_rows(e2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].section, "e2b");
        assert_eq!(rows[1].section, "e2d");
        // Diff: pass within tolerance, fail below, fail on missing.
        let committed = vec![Row {
            section: "e2b".into(),
            workload: "scene 60x60".into(),
            speedup: 200.0,
        }];
        let good = vec![Row {
            section: "e2b".into(),
            workload: "scene 60x60".into(),
            speedup: 90.0,
        }];
        assert!(diff(&committed, &good, 0.35).is_empty());
        let slow = vec![Row {
            section: "e2b".into(),
            workload: "scene 60x60".into(),
            speedup: 20.0,
        }];
        let failures = diff(&committed, &slow, 0.35);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("below tolerance floor"),
            "{failures:?}"
        );
        let failures = diff(&committed, &[], 0.35);
        assert!(failures[0].contains("missing workload"), "{failures:?}");
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
