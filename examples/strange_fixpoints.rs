//! §3.3 end to end: the positivity constraint and what lies beyond it.
//!
//! * `ahead` is positive → accepted, converges (Tarski + §3.3 lemma).
//! * `nonsense` is non-positive → rejected by the checked API with a
//!   diagnostic naming the offending occurrence; forced through the
//!   unchecked API, its iteration oscillates `∅, Rel, ∅, …` and the
//!   engine reports non-convergence.
//! * `strange` is non-positive → also rejected (the paper: "they are,
//!   therefore, not allowed in DBPL"); forced through, its iteration
//!   *does* converge — on `{0,…,6}` to exactly `{0, 2, 4, 6}`, the
//!   paper's worked sequence.
//!
//! Run with: `cargo run --example strange_fixpoints`

use data_constructors::prelude::*;
use dc_calculus::builder::rel;
use dc_core::paper;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel())?;
    db.insert("Infront", tuple!["a", "b"])?;

    // Positive: accepted.
    db.define_constructor(paper::ahead())?;
    println!("ahead: accepted (positive)");

    // Non-positive: rejected with the §3.3 diagnostic.
    match db.define_constructor(paper::nonsense()) {
        Err(e) => println!("nonsense: rejected — {e}"),
        Ok(()) => unreachable!("positivity must reject nonsense"),
    }
    match db.define_constructor(paper::strange()) {
        Err(e) => println!("strange: rejected — {e}"),
        Ok(()) => unreachable!("positivity must reject strange"),
    }

    // The unchecked door (the paper discusses these semantics even
    // though DBPL forbids the definitions).
    db.define_constructor_unchecked(paper::nonsense())?;
    db.define_constructor_unchecked(paper::strange())?;

    // nonsense on a non-empty relation: oscillates, detected.
    match db.eval(&rel("Infront").construct("nonsense", vec![])) {
        Err(e) => println!("nonsense evaluation: {e}"),
        Ok(_) => unreachable!("nonsense has no limit"),
    }

    // strange on {0..6}: the paper's sequence
    //   ∅ → {0..6} → {0} → {0,2,3,4,5,6} → {0,2} → … → {0,2,4,6}
    db.create_relation("Card", paper::cardrel())?;
    for i in 0u64..=6 {
        db.insert("Card", tuple![i])?;
    }
    let before = db.metrics().snapshot();
    let out = db.eval(&rel("Card").construct("strange", vec![]))?;
    let solve = db.metrics().snapshot().since(&before);
    let nums: Vec<u64> = out
        .sorted_tuples()
        .iter()
        .map(|t| t.get(0).as_card().unwrap())
        .collect();
    println!("strange on {{0..6}} converges to {nums:?}");
    assert_eq!(nums, vec![0, 2, 4, 6]);

    println!(
        "  ({} rounds, naive strategy forced for unchecked constructors)",
        solve.solve_rounds
    );
    assert_eq!(solve.solve_runs, 1);
    Ok(())
}
