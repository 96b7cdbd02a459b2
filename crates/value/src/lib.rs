//! Value substrate for the Data Constructors engine.
//!
//! This crate provides the scalar layer that every other crate builds on:
//!
//! * [`Domain`] — the DBPL-style scalar type system, including subrange
//!   domains (`RANGE 1..100` in the paper's §2.1 example),
//! * [`Value`] — dynamically typed scalar values with total ordering,
//!   a `Copy` 16-byte scalar whose strings are interned [`Sym`]s (one
//!   process-global, append-only table; see [`sym`]),
//! * [`Tuple`] — immutable fixed-arity rows,
//! * [`Schema`] / [`Attribute`] — named, typed attribute lists with an
//!   optional key (the paper's `RELATION key OF elementtype`, §2.2),
//! * [`fxhash`] — a small FxHash-style hasher so that tuple-heavy hash
//!   joins and set semantics do not pay for SipHash.
//!
//! The paper's examples (`parttype`, `infrontrel`, …) are expressible
//! directly with these types; see `dc-relation` for the relation layer.

// Every tuple and value in the engine passes through here: no
// `unwrap`/`expect` outside tests.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod domain;
pub mod error;
pub mod fxhash;
pub mod schema;
pub mod sym;
pub mod tuple;
pub mod value;

pub use domain::Domain;
pub use error::{TypeError, ValueError};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use schema::{Attribute, Schema};
pub use sym::Sym;
pub use tuple::Tuple;
pub use value::Value;
