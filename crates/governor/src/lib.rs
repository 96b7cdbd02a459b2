//! Resource governance and fault tolerance for the engine.
//!
//! A recursive-query engine with no guardrails is one diverging
//! recursion (or one accidental cross-product, or one panic)
//! away from taking the whole process with it. This crate is the
//! engine's governor: a small, dependency-free layer the execution
//! stack threads through its natural tick points.
//!
//! * [`Budget`] — a declarative resource envelope (wall-clock deadline,
//!   output-tuple ceiling, fixpoint-round ceiling, cooperative
//!   [`CancelToken`]). A budget is configuration; arming it with
//!   [`Budget::meter`] starts the clock and yields a [`Meter`].
//! * [`Meter`] — the armed, shareable (cloned `Arc`) instance that hot
//!   loops poll. [`Meter::tick`] costs one relaxed atomic increment
//!   plus a cancellation load; the wall clock is read once every
//!   [`DEADLINE_STRIDE`] ticks, so governance stays off the profile.
//!   Trips surface as [`Trip`] values that callers convert into the
//!   structured [`SolveError`] taxonomy.
//! * [`SolveError`] / [`SolveDiag`] — the structured abort taxonomy
//!   (`DeadlineExceeded`, `TupleBudgetExceeded`, `Cancelled`,
//!   `Diverged`, `WorkerPanic`), each carrying diagnostics: rounds
//!   completed, tuples produced, the offending equation/branch, and
//!   planner-trace notes.
//! * [`fail`] — an env-gated fault-injection registry
//!   (`DC_FAILPOINTS=site=action,...`) with deterministic failpoints at
//!   the stack's abort sites, so every abort and degradation path is
//!   testable without timing games.
//! * [`envcfg`] — strict environment-knob parsing (`DC_FAILPOINTS`)
//!   that warns once to stderr on invalid input and falls back to a
//!   documented default instead of silently ignoring the variable.
//!
//! The crate is `std`-only and depends on nothing, so every layer of
//! the workspace (executor, evaluator, solver, benches) can share one
//! vocabulary of limits and failures.

// The governor sits on every abort path; a stray `unwrap` here would
// turn a structured trip into a panic. Escalate, allowing tests.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod envcfg;
pub mod fail;

pub use budget::{Budget, CancelToken, Meter, Trip, DEADLINE_STRIDE};
pub use fail::{FailAction, FailpointsGuard, InjectedFault, Site};

mod solve_error;
pub use solve_error::{panic_message, SolveDiag, SolveError};
