//! Regenerate the paper's three figures.
//!
//! * Fig. 1 — Selectors and relations (selected sub-relation).
//! * Fig. 2 — Constructor and relations (constructed super-relation).
//! * Fig. 3 — Augmented quant graph for constructor `ahead`, rendered
//!   from the *actual analysis* of the registered definition (not a
//!   hard-coded picture).
//!
//! Run with: `cargo run --bin figures`

use dc_core::paper::{self, QuantGraph};

fn main() {
    // Figures 1 and 2 are conceptual diagrams; we render them from the
    // live objects so the sizes shown are real.
    let mut db = dc_core::Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    db.insert_all(
        "Infront",
        vec![
            dc_value::tuple!["vase", "table"],
            dc_value::tuple!["table", "chair"],
            dc_value::tuple!["chair", "wall"],
        ],
    )
    .unwrap();
    db.define_selector(paper::hidden_by(), paper::infrontrel())
        .unwrap();
    db.define_constructor(paper::ahead()).unwrap();

    use dc_calculus::builder::{cnst, rel};
    let selected = db
        .eval(&rel("Infront").select("hidden_by", vec![cnst("table")]))
        .unwrap();
    let constructed = db.eval(&rel("Infront").construct("ahead", vec![])).unwrap();
    let base_len = db.relation_ref("Infront").unwrap().len();

    println!("Figure 1: Selectors and Relations");
    println!("---------------------------------");
    println!("  Fact Relation: Infront ({base_len} tuples)");
    println!("  +--------------------------------------+");
    println!("  |                                      |");
    println!("  |   +------------------------------+   |");
    println!("  |   | Infront[hidden_by(\"table\")]  |   |");
    println!("  |   | selected sub-relation        |   |");
    println!(
        "  |   | ({} tuple(s))                 |   |",
        selected.len()
    );
    println!("  |   +------------------------------+   |");
    println!("  |                                      |");
    println!("  +--------------------------------------+\n");

    println!("Figure 2: Constructor and Relations");
    println!("-----------------------------------");
    println!(
        "  Constructed Relation: Infront{{ahead}} ({} tuples)",
        constructed.len()
    );
    println!("  +--------------------------------------+");
    println!("  |                                      |");
    println!("  |   +------------------------------+   |");
    println!("  |   | Fact Relation: Infront       |   |");
    println!("  |   | ({base_len} tuples)                   |   |");
    println!("  |   +------------------------------+   |");
    println!("  |                                      |");
    println!("  +--------------------------------------+\n");

    println!("Figure 3: Augmented quant graph for CONSTRUCTOR ahead");
    println!("-----------------------------------------------------");
    let g = QuantGraph::augmented(&paper::ahead());
    println!("{}", g.render_ascii());
    println!("cycle analysis: recursive = {}", g.is_recursive(0));
    println!(
        "SCCs: {:?}",
        g.sccs().iter().map(Vec::len).collect::<Vec<_>>()
    );
}
