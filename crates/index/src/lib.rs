//! Storage substrate: hash indexes.
//!
//! [`hash_index::HashIndex`] is the equi-join workhorse of the
//! evaluator's probe plans, and its bucket counts are the distinct
//! counts the join planner orders by. Indexes are built and kept by
//! `dc_calculus::AccessCache`, which is also what §4's *physical access
//! path* amounts to in this engine (see `docs/ARCHITECTURE.md`, "§4
//! compilation is rewriting"). The [`stats`] module is test and
//! benchmark surface only.

// Indexes are built over user data inside every probe plan: no
// `unwrap`/`expect` outside tests.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod hash_index;
pub mod stats;

pub use hash_index::HashIndex;
pub use stats::{RelationStats, StatsBuilder};
