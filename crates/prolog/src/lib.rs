//! Function-free Horn-clause (Datalog) engine: the proof-oriented
//! baseline the paper compares constructors against.
//!
//! §3.4 lemma: *"The constructor mechanism is as powerful as
//! function-free PROLOG without cut, fail, and negation."* This crate
//! supplies the other side of that equivalence and of the efficiency
//! claim (§1, §4): a **tuple-at-a-time, top-down SLD resolution**
//! interpreter with backtracking ([`sld`]) — the 1985 PROLOG execution
//! model — plus a memoising (tabled, OLDT-style) variant ([`tabled`])
//! so the set-oriented comparison is not against a strawman.
//!
//! [`translate`] compiles constructor definitions into Horn clauses
//! (the constructive direction of the §3.4 lemma), which experiment E7
//! uses to check answer-set equality between the two engines.

// Engine code reports failures as `PrologError`s, never panics.
// Escalate, allowing tests.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod program;
pub mod sld;
pub mod tabled;
pub mod term;
pub mod translate;
pub mod unify;

pub use error::PrologError;
pub use program::{Clause, Program};
pub use sld::{SldConfig, SldResult, SldStats};
pub use term::{Atom, Term};
