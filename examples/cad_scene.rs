//! The full CAD scene of §3.1 with **mutual recursion**: `ahead` over
//! `Infront` and `above` over `Ontop`, each defined in terms of the
//! other, plus referential integrity through a selector (§2.3).
//!
//! Scene: a vase stands on a table; the table is in front of a chair;
//! a lamp is in front of the vase. The paper's question: which objects
//! are (transitively, across both dimensions) ahead of or above which?
//!
//! Run with: `cargo run --example cad_scene`

use data_constructors::prelude::*;
use dc_calculus::builder::{attr, eq, rel, some};
use dc_core::paper;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();

    // Relation variables (§2.3): a keyed object registry plus the two
    // spatial fact relations.
    db.create_relation("Objects", dc_workload::scenes::objects_schema())?;
    db.create_relation("Infront", paper::infrontrel())?;
    db.create_relation("Ontop", paper::ontoprel())?;

    for name in ["vase", "table", "chair", "lamp"] {
        db.insert("Objects", tuple![name])?;
    }

    // Referential integrity as a selector (§2.3): both endpoints of an
    // Infront fact must be registered objects.
    db.define_selector(
        dc_calculus::ast::SelectorDef {
            name: "refint".into(),
            element_var: "r".into(),
            params: vec![],
            predicate: some(
                "o1",
                rel("Objects"),
                eq(attr("r", "front"), attr("o1", "part")),
            )
            .and(some(
                "o2",
                rel("Objects"),
                eq(attr("r", "back"), attr("o2", "part")),
            )),
        },
        paper::infrontrel(),
    )?;

    // Guarded assignment `Infront[refint] := rex` (§2.3): valid data
    // goes through…
    let facts = dc_relation::Relation::from_tuples(
        paper::infrontrel(),
        vec![tuple!["table", "chair"], tuple!["lamp", "vase"]],
    )?;
    db.assign_selected("Infront", "refint", &[], &facts)?;
    println!(
        "Infront (after guarded assignment) = {}",
        db.relation_ref("Infront")?
    );

    // …and a dangling reference raises the paper's <exception>.
    let bad =
        dc_relation::Relation::from_tuples(paper::infrontrel(), vec![tuple!["ghost", "chair"]])?;
    match db.assign_selected("Infront", "refint", &[], &bad) {
        Err(e) => println!("rejected as expected: {e}"),
        Ok(()) => unreachable!("refint must reject the ghost"),
    }

    db.insert("Ontop", tuple!["vase", "table"])?;

    // The mutually recursive pair, registered as one group (their
    // bodies reference each other, §3.1).
    db.define_constructors(vec![paper::ahead_mutual(), paper::above()])?;

    // Ontop{above(Infront)}: the vase is above the table (base fact)
    // and — via the table being in front of the chair — above/ahead of
    // the chair. This is the paper's motivating derivation.
    let above = db.eval(&rel("Ontop").construct("above", vec![rel("Infront")]))?;
    println!("Ontop{{above(Infront)}}  = {above}");
    assert!(above.contains(&tuple!["vase", "chair"]));

    // Infront{ahead(Ontop)}: the lamp, in front of the vase, is ahead
    // of everything the vase is above.
    let before = db.metrics().snapshot();
    let ahead = db.eval(&rel("Infront").construct("ahead", vec![rel("Ontop")]))?;
    println!("Infront{{ahead(Ontop)}}  = {ahead}");
    assert!(ahead.contains(&tuple!["lamp", "table"]));
    assert!(ahead.contains(&tuple!["lamp", "chair"]));

    let solve = db.metrics().snapshot().since(&before);
    println!(
        "joint system: {} equations, {} rounds",
        solve.solve_equations, solve.solve_rounds
    );
    assert_eq!(solve.solve_equations, 2);

    // The augmented quant graph of `ahead` — the paper's Figure 3 —
    // and the recursion diagnosis from its cycle structure (§4).
    let g = dc_optimizer::QuantGraph::augmented(&paper::ahead());
    println!("\nAugmented quant graph (Fig. 3):\n{}", g.render_ascii());
    println!("recursive: {}", g.is_recursive(0));

    Ok(())
}
