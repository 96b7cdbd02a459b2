//! Bill-of-materials (parts explosion): the classic recursive database
//! workload, expressed with a constructor and queried two ways, both
//! through the one engine:
//!
//! 1. the full transitive containment by the general fixpoint (§3.2),
//! 2. a *bound* query ("which parts go into assembly X?"), which
//!    `Database::eval` rewrites by §4 — the constant is propagated into
//!    the constructor's seeded variant, defined beside it — so the
//!    engine solves only the cone under X.
//!
//! Repeated lookups then show what §4 calls access paths: the rewritten
//! query with its constant is the logical one, the engine's solved memo
//! the physical one — a new seed costs one solve, a seed seen before
//! costs none.
//!
//! Run with: `cargo run --example bill_of_materials`

use data_constructors::prelude::*;
use dc_calculus::builder::{attr, cnst, eq, rel, set_former, tru};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A seeded DAG of assemblies and components.
    let bom = dc_bench::workload::bill_of_materials(5, 3, 2026);
    println!("bill of materials: {} containment edges", bom.len());

    let mut db = Database::new();
    db.create_relation("Contains", bom.schema().clone())?;
    db.insert_all("Contains", bom.sorted_tuples())?;

    // CONSTRUCTOR contains_star FOR Rel: … — same shape as the paper's
    // `ahead`, over (assembly, component).
    let contains_star = || rel("Contains").construct("contains_star", vec![]);
    db.define_constructor(Constructor {
        name: "contains_star".into(),
        base_param: ("Rel".into(), bom.schema().clone()),
        rel_params: vec![],
        scalar_params: vec![],
        result: bom.schema().clone(),
        body: SetFormer {
            branches: vec![
                Branch::each("r", rel("Rel"), tru()),
                Branch::projecting(
                    vec![attr("f", "assembly"), attr("b", "component")],
                    vec![
                        ("f".into(), rel("Rel")),
                        ("b".into(), rel("Rel").construct("contains_star", vec![])),
                    ],
                    eq(attr("f", "component"), attr("b", "assembly")),
                ),
            ],
        },
    })?;

    // 1. Engine fixpoint: every (assembly, transitive component) pair.
    let full = db.eval(&contains_star())?;
    let full_work = db.metrics().snapshot();
    println!(
        "transitive containment: {} pairs ({} rounds, {} delta tuples)",
        full.len(),
        full_work.solve_rounds,
        full_work.delta_tuples
    );

    // 2. Bound query: the parts explosion of `root`. `Database::eval`
    //    turns the selection over the closure into an application of
    //    the seeded constructor, which the same engine evaluates.
    let explosion_of = |assembly: &str| {
        set_former(vec![Branch::each(
            "p",
            contains_star(),
            eq(attr("p", "assembly"), cnst(assembly)),
        )])
    };
    // `EXPLAIN` shows the rewritten query, a named application: it
    // previews the seeded constructor's plan without solving it.
    let explanation = db.explain(&explosion_of("root"))?;
    assert!(explanation.access_paths().count() >= 1, "{explanation}");
    let root_parts = db.eval(&explosion_of("root"))?;
    let bound_work = db.metrics().snapshot();
    println!(
        "parts under `root`: {} ({} delta tuples vs {} for the full closure)",
        root_parts.len(),
        bound_work.delta_tuples - full_work.delta_tuples,
        full_work.delta_tuples
    );
    println!("{explanation}");
    // Cross-check against filtering the full closure: the query as
    // written, through the evaluator.
    assert_eq!(root_parts, db.evaluator().eval(&explosion_of("root"))?);
    assert!(bound_work.delta_tuples - full_work.delta_tuples < full_work.delta_tuples);

    // Repeated lookups: a new seed is one more solve, the same seed
    // again is answered from the solved memo.
    let mut seen: Vec<&str> = vec!["root"];
    for (i, seed) in ["part1", "part2", "root", "part1", "part3"]
        .into_iter()
        .enumerate()
    {
        let before = db.metrics().snapshot().solve_runs;
        let answer = db.eval(&explosion_of(seed))?;
        let solves = db.metrics().snapshot().solve_runs - before;
        println!(
            "  lookup {i} ({seed}): {} components [{}]",
            answer.len(),
            if solves == 0 { "memo" } else { "solved" }
        );
        assert_eq!(solves, u64::from(!seen.contains(&seed)));
        seen.push(seed);
    }
    Ok(())
}
