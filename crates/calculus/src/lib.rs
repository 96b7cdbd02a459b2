//! Tuple relational calculus with set formers, selectors, and
//! constructor applications — the expression language of the paper.
//!
//! The paper's central example (§2.3) is expressible directly:
//!
//! ```text
//! aheadrel { EACH r IN Infront: TRUE,
//!            <f.front, b.back> OF EACH f, b IN Infront: f.back = b.front }
//! ```
//!
//! Crate layout:
//!
//! * [`access`] — [`access::AccessCache`], the one cache of hash
//!   indexes, keyed by the storage identity of the relations they
//!   index.
//! * [`ast`] — the expression types: [`ast::RangeExpr`] (relation-valued),
//!   [`ast::Formula`] (truth-valued), [`ast::ScalarExpr`] (value-valued),
//!   plus [`ast::SelectorDef`], the named-predicate abstraction of §2.3.
//! * [`builder`] — ergonomic constructors for writing ASTs in Rust.
//! * [`mod@env`] — the [`env::Catalog`] trait through which evaluation
//!   resolves relation names, scalar parameters, selectors, and
//!   constructor applications (implemented by `dc-core`'s database).
//! * [`eval`] — the evaluator: index-nested-loop execution of set-former
//!   branches and index existence probes for quantifiers (both via
//!   [`joinplan`]) — quantifiers over *correlated* ranges included,
//!   once [`rewrite::unnest_quantifier`] has turned them into
//!   quantifiers over the ranges' own bindings — with the original
//!   nested-loop semantics kept as the reference path every plan must
//!   agree with. Chosen, demoted, and refused access paths leave a
//!   planner trace ([`eval::Evaluator::plan_events`]).
//! * [`joinplan`] — the predicate-analysis passes: conjunctive
//!   equality-atom extraction and scan/probe ordering for branches
//!   ([`joinplan::plan_branch`]) and NNF-aware quantifier probe
//!   planning ([`joinplan::plan_quant_probe`] — `SOME` witnesses, `ALL`
//!   falsifiers for implication-shaped bodies, covering checks).
//! * [`plan_event`] — the typed planner trace: [`plan_event::PlanEvent`]
//!   values (chosen access paths with their ordering rationale,
//!   demotion and refusal reasons), plus the rendered
//!   [`plan_event::Explanation`] report used by `EXPLAIN`.
//! * [`positivity`] — §3.3's positivity constraint, implemented exactly
//!   as defined (parity of enclosing `NOT`s and `ALL`-range positions).
//! * [`rewrite`] — the one-sorted/De Morgan normalisation used in the
//!   paper's monotonicity lemma, §4's range unnesting of quantifiers,
//!   and the substitutions both are built from.
//! * [`typeck`] — static checking of attribute references, comparability,
//!   and union compatibility across set-former branches.

// Evaluation errors must surface as `EvalError`, not panics: the
// library runs user-shaped queries. `unwrap`/`expect` are opt-in per
// site with a justification of why the invariant cannot fail.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod access;
pub mod ast;
pub mod builder;
pub mod env;
pub mod error;
pub mod eval;
pub mod joinplan;
pub mod plan_event;
pub mod positivity;
pub mod rewrite;
pub mod typeck;

pub use access::AccessCache;
pub use ast::{Branch, CmpOp, Formula, RangeExpr, ScalarExpr, SelectorDef, SetFormer, Target};
pub use env::Catalog;
pub use error::EvalError;
pub use eval::{Evaluator, PARALLEL_SCAN_THRESHOLD};
pub use plan_event::{AccessStep, Explanation, PlanEvent, QuantDemotionReason};
