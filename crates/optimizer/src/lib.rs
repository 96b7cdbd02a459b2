//! §4 of the paper: compilation and optimization of constructors —
//! as **analyses and rewrites**. Nothing in this crate executes a
//! query: every result is calculus (`RangeExpr`, plus for
//! [`capture`] the `Constructor` it refers to) that `Database::eval`
//! evaluates and `Database::explain` renders.
//!
//! The paper organises constructor optimization as a **three-level
//! strategy**:
//!
//! 1. **Type-checking level** — analyse the individual constructor
//!    definitions and their relationships: positivity (in
//!    `dc-calculus`), and a *partitioning of the set of constructor
//!    definitions into disconnected graphs* ([`partition`], analysis).
//! 2. **Query-compilation level** — instantiate the constructor
//!    definition graphs for each query form: build **augmented quant
//!    graphs** ([`quantgraph`], analysis, regenerating the paper's
//!    Fig. 3) and detect recursive cycles; compile queries over
//!    selected and non-recursive constructed relations back into
//!    queries over base relations by range nesting N1–N3 and the
//!    Case 1/2/3 analysis ([`nesting`], rewrite); recognise special
//!    cases by **capture rules** ([`capture`]: `detect_tc` is the
//!    analysis, propagating a bound argument into a transitive-closure
//!    constructor the rewrite).
//! 3. **Runtime level** — the engine. §4's *logical access path* (a
//!    compiled procedure with dummy constants) is a prepared query with
//!    a parameter; its *physical access path* is the solved memo plus
//!    the access cache's indexes. See `docs/ARCHITECTURE.md`.

// The rewrites run on user-written queries and definitions: no
// `unwrap`/`expect` outside tests.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod capture;
pub mod nesting;
pub mod partition;
pub mod quantgraph;

pub use capture::TcShape;
pub use quantgraph::QuantGraph;

use dc_calculus::RangeExpr;
use dc_core::{CoreError, Database};

/// Both query rewrites in order: [`capture::rewrite_query`] (which may
/// define a seeded constructor in `db`), then
/// [`nesting::rewrite_query`]. The result is equivalent to `query` and
/// is what to hand to `Database::eval` / `Database::explain`.
pub fn rewrite_query(db: &mut Database, query: &RangeExpr) -> Result<RangeExpr, CoreError> {
    let bound = capture::rewrite_query(db, query)?;
    Ok(nesting::rewrite_query(db, &bound)?)
}
