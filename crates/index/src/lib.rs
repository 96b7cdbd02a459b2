//! Storage substrate: hash indexes and statistics.
//!
//! [`hash_index::HashIndex`] is the equi-join workhorse of the
//! evaluator's probe plans, and [`stats::RelationStats`] feeds its join
//! ordering. Both are built and kept by `dc_calculus::AccessCache`,
//! which is also what §4's *physical access path* amounts to in this
//! engine (see `docs/ARCHITECTURE.md`, "§4 compilation is rewriting").

pub mod hash_index;
pub mod stats;

pub use hash_index::HashIndex;
pub use stats::{RelationStats, StatsBuilder};

// Indexes and statistics ride inside `Arc`-shared evaluation snapshots
// read by worker threads (dc-core's snapshot rounds, dc-exec's probe
// plans); assert the thread-safety contract at compile time so a field
// change cannot silently break it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HashIndex>();
    assert_send_sync::<RelationStats>();
};
