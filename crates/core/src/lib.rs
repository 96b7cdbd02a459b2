//! The paper's primary contribution: **relation constructors** with
//! least-fixpoint semantics, integrated with selectors and a typed
//! relational catalog.
//!
//! * [`selector`] — named parameterised predicates over relations
//!   (§2.3): query-side filtering (`Rel[s(args)]`) and assignment
//!   guarding (`Rel[s] := rex` raises on violation).
//! * [`constructor`] — constructor definitions (§3): a formal base
//!   relation (`FOR Rel: reltype`), relation and scalar parameters, a
//!   result type, and a set-former body that may apply constructors
//!   (including itself and mutually recursive ones).
//! * [`fixpoint`] — the §3.2 semantics: instantiate the system of
//!   equations `applyᵢᵏ⁺¹ = gᵢ(apply₀ᵏ, …)` and iterate from ∅ to the
//!   joint least fixpoint, naively (the paper's REPEAT loop) or
//!   semi-naively (differential evaluation).
//! * [`options`] — the §3.4 spectrum of fixpoint-enhancement options
//!   (program iteration, recursive relation-valued functions, a
//!   specialised transitive-closure operator) implemented as baselines
//!   for the ablation experiments.
//! * [`database`] — the catalog façade tying everything together and
//!   implementing `dc_calculus::Catalog`, so that queries mixing base,
//!   selected, and constructed relations evaluate transparently.
//! * [`catalog`] — what `Database` and the serving layer share: the
//!   definitions ([`Defs`]), the per-state memo of solved applications
//!   ([`SolvedMemo`]), the named-application test
//!   ([`NamedApplication`]) and the `EXPLAIN` body.
//! * [`compile`] — §4's query compilation as calculus-to-calculus
//!   rewrites (range nesting, the bound-argument capture rule), applied
//!   once where a query enters ([`compile::rewrite`]).
//! * [`paper`] — the paper's definitions, and its §4 analyses of them
//!   (quant graphs, partitioning).

// Solver aborts must be structured errors, never panics — a stray
// `unwrap` on an abort path would turn a governed trip into a process
// crash. Escalate, allowing tests (and justified per-site opt-ins).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod compile;
pub mod constructor;
pub mod database;
pub mod error;
pub mod fixpoint;
pub mod options;
pub mod paper;
pub mod selector;

pub use catalog::{explain, Defs, NamedApplication, SolvedMemo};
pub use constructor::Constructor;
pub use database::{record_interned, Database};
pub use error::CoreError;
pub use fixpoint::{BaseDelta, Refusal, SolvedSystem, Strategy, WarmOutcome};
pub use selector::Selector;
