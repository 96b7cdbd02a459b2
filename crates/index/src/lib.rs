//! Storage substrate: hash indexes and statistics.
//!
//! [`hash_index::HashIndex`] is the equi-join workhorse of the
//! evaluator's probe plans, and [`stats::RelationStats`] feeds its join
//! ordering. Both are built and kept by `dc_calculus::AccessCache`,
//! which is also what §4's *physical access path* amounts to in this
//! engine (see `docs/ARCHITECTURE.md`, "§4 compilation is rewriting").

// Indexes are built over user data inside every probe plan: no
// `unwrap`/`expect` outside tests.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod hash_index;
pub mod stats;

pub use hash_index::HashIndex;
pub use stats::{RelationStats, StatsBuilder};
