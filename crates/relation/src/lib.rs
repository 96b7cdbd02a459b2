//! Relation layer: sets of tuples with key constraints.
//!
//! The paper (§2.2) characterises a relation type as an annotated set
//! type:
//!
//! ```text
//! reltype = SET OF elementtype ||
//!     WHERE rel IN reltype ==>
//!         ALL r1, r2 IN rel ( r1.key = r2.key ==> r1 = r2 )
//! ```
//!
//! [`Relation`] implements exactly this: a set of [`dc_value::Tuple`]s
//! over a [`dc_value::Schema`], with the key-uniqueness constraint
//! enforced on every insertion and on whole-relation assignment (the
//! paper's `IF ALL x1,x2 IN rex (...) THEN rel := rex ELSE <exception>`).
//!
//! The [`algebra`] module supplies the set operations (`∪`, `∖`, `∩`,
//! `=`, `⊆`) the fixpoint engine is built from.

// Constraint violations are `RelationError`s, never panics: this layer
// sits under user-shaped data. `unwrap`/`expect` are opt-in per site
// with a justification.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod algebra;
pub mod error;
pub mod relation;

pub use error::RelationError;
pub use relation::Relation;

// Relations are shared across threads — a server snapshot's reader
// sessions and its writer; assert the thread-safety contract at
// compile time so a field change cannot silently break it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Relation>();
    assert_send_sync::<RelationError>();
};
