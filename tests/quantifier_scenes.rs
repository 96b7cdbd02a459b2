//! Differential tests for index-aware quantifier probes on randomized
//! CAD scenes, plus the copy-on-write aliasing guarantees of relation
//! flow through the engine (catalog resolution and memo hits hand out
//! shared storage, never tuple-set copies).

use dc_calculus::ast::Branch;
use dc_calculus::builder::*;
use dc_calculus::Catalog;
use dc_core::{paper, Database};
use dc_relation::Relation;

/// Quantifier-heavy queries over a scene database: existential,
/// negated-existential, universal, and mixed-residual shapes.
fn scene_queries() -> Vec<dc_calculus::RangeExpr> {
    vec![
        dc_bench::visibility_query(),
        dc_bench::front_row_query(),
        // ALL with an equality body: only satisfiable for degenerate
        // bucket-covers-range registries — exercises the cardinality
        // shortcut.
        set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            all("t", rel("Ontop"), eq(attr("t", "base"), attr("r", "front"))),
        )]),
        // SOME with an extra residual conjunct beyond the probe key.
        set_former(vec![Branch::each(
            "r",
            rel("Infront"),
            some(
                "t",
                rel("Ontop"),
                eq(attr("t", "base"), attr("r", "front"))
                    .and(ne(attr("t", "top"), attr("r", "back"))),
            ),
        )]),
        // Quantifier nested under a quantifier: the inner probe runs
        // per outer binding.
        set_former(vec![Branch::each(
            "o",
            rel("Objects"),
            some(
                "r",
                rel("Infront"),
                eq(attr("r", "front"), attr("o", "part")).and(some(
                    "t",
                    rel("Ontop"),
                    eq(attr("t", "base"), attr("r", "back")),
                )),
            ),
        )]),
    ]
}

#[test]
fn quantifier_probes_agree_with_reference_on_randomized_scenes() {
    for (seed, rows, depth, stack_every) in [
        (1u64, 3usize, 5usize, 2usize),
        (7, 5, 4, 3),
        (23, 8, 6, 2),
        (99, 4, 9, 4),
    ] {
        let scene = dc_bench::workload::scene(rows, depth, stack_every, seed);
        let db = dc_bench::scene_db(&scene);
        let mut db_scan = dc_bench::scene_db(&scene);
        db_scan.set_use_indexes(false);
        for q in scene_queries() {
            let probed = db.eval(&q).unwrap();
            let scanned = db_scan.eval(&q).unwrap();
            assert_eq!(
                probed, scanned,
                "probe/scan divergence on scene seed={seed} rows={rows} depth={depth} for {q}"
            );
        }
    }
}

#[test]
fn catalog_resolution_and_memo_hits_share_storage() {
    let base = dc_bench::workload::chain(12);
    let db = dc_bench::ahead_db(&base, dc_core::Strategy::SemiNaive);

    // Catalog resolution: the handle served to evaluators shares the
    // database's tuple storage.
    let served = Catalog::relation(&db, "Infront").unwrap();
    assert!(Relation::shares_storage(
        &served,
        db.relation_ref("Infront").unwrap()
    ));

    // Memo hits: repeated evaluation of a solved application hands out
    // shared storage instead of copying the closure.
    let q = dc_bench::ahead_query();
    let first = db.eval(&q).unwrap();
    let second = db.eval(&q).unwrap();
    assert!(Relation::shares_storage(&first, &second));
    assert_eq!(first.len(), 12 * 13 / 2);
}

#[test]
fn mutation_after_sharing_is_isolated() {
    // A query result handed out by the engine is a value: mutating the
    // database afterwards must not be observable through it (and vice
    // versa), even though they shared storage at hand-out time.
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    db.insert("Infront", dc_value::tuple!["vase", "table"])
        .unwrap();
    let snapshot = Catalog::relation(&db, "Infront").unwrap();
    assert_eq!(snapshot.len(), 1);
    db.insert("Infront", dc_value::tuple!["table", "chair"])
        .unwrap();
    assert_eq!(snapshot.len(), 1, "old handle must keep its value");
    assert_eq!(db.relation_ref("Infront").unwrap().len(), 2);
}
