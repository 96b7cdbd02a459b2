//! Quickstart: the paper's running example in ten steps.
//!
//! Builds the CAD scene of §2.3/§3.1 (`Objects`, `Infront`), defines
//! the `hidden_by` selector and the recursive `ahead` constructor, and
//! runs queries over base, selected, and constructed relations.
//!
//! Run with: `cargo run --example quickstart`

use data_constructors::prelude::*;
use dc_calculus::builder::{attr, cnst, eq, rel, set_former, tru};
use dc_core::paper;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A database with the paper's relation variables.
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel())?;

    // 2. Base facts: vase in front of table, table in front of chair, …
    db.insert_all(
        "Infront",
        vec![
            tuple!["vase", "table"],
            tuple!["table", "chair"],
            tuple!["chair", "wall"],
        ],
    )?;

    // 3. The `hidden_by` selector (§3.1) and the recursive `ahead`
    //    constructor (§3.1), registered with full static checking:
    //    type checking plus the §3.3 positivity test.
    db.define_selector(paper::hidden_by(), paper::infrontrel())?;
    db.define_constructor(paper::ahead())?;

    // 4. A plain query over the base relation.
    let base = db.eval(&rel("Infront"))?;
    println!("Infront                     = {base}");

    // 5. The constructed relation Infront{ahead}: the transitive
    //    closure, computed as a least fixpoint (§3.2).
    //    The solve's numbers are read from the metrics registry.
    let before = db.metrics().snapshot();
    let ahead = db.eval(&rel("Infront").construct("ahead", vec![]))?;
    println!("Infront{{ahead}}             = {ahead}");
    let solve = db.metrics().snapshot().since(&before);
    println!(
        "  ({} equations, {} rounds, {:?} strategy)",
        solve.solve_equations,
        solve.solve_rounds,
        db.config().strategy
    );

    // 6. Composition: everything hidden by the table (§3.1's
    //    `Infront[hidden_by(\"table\")]{ahead}`).
    let behind_table = db.eval(
        &rel("Infront")
            .select("hidden_by", vec![cnst("table")])
            .construct("ahead", vec![]),
    )?;
    println!("Infront[hidden_by(\"table\")]{{ahead}} = {behind_table}");

    // 7. A calculus query over the constructed relation: what is the
    //    vase ahead of?
    let vase_sees = db.eval(&set_former(vec![dc_calculus::ast::Branch::each(
        "a",
        rel("Infront").construct("ahead", vec![]),
        eq(attr("a", "head"), cnst("vase")),
    )]))?;
    println!("ahead of the vase           = {vase_sees}");

    // 8. Everything is a set with the key constraint maintained;
    //    re-inserting is a no-op, and results are orderable.
    assert_eq!(ahead.len(), 6);
    assert!(ahead.contains(&tuple!["vase", "wall"]));

    // 9. The same program in the paper's own syntax via dc-lang:
    let mut db2 = Database::new();
    let results = dc_lang::run_script(
        &mut db2,
        r#"
        TYPE parttype   = STRING;
        TYPE infrontrel = RELATION ... OF RECORD front, back: parttype END;
        TYPE aheadrel   = RELATION ... OF RECORD head, tail: parttype END;
        VAR Infront: infrontrel;
        CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
        BEGIN EACH r IN Rel: TRUE,
              <f.front, b.tail> OF EACH f IN Rel,
                EACH b IN Rel{ahead()}: f.back = b.head
        END ahead;
        INSERT Infront <"vase", "table">;
        INSERT Infront <"table", "chair">;
        INSERT Infront <"chair", "wall">;
        QUERY Infront{ahead()};
        "#,
    )?;
    println!("via DBPL script             = {}", results[0].relation);

    // 10. Both roads agree.
    assert_eq!(results[0].relation, ahead);
    println!("ok.");
    let _ = tru; // (re-exported builder helpers shown in other examples)
    Ok(())
}
