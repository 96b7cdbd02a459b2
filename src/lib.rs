//! Data Constructors — façade crate.
//!
//! Reproduction of Jarke, Linnemann & Schmidt, *"Data Constructors: On
//! the Integration of Rules and Relations"*, VLDB 1985.
//!
//! This crate re-exports the workspace crates under stable module names
//! so that examples and downstream users can depend on a single package:
//!
//! ```
//! use data_constructors::prelude::*;
//!
//! let objects = ["vase", "table", "chair"];
//! assert_eq!(objects.len(), 3);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! experiment index.

pub use dc_calculus as calculus;
pub use dc_core as core;
pub use dc_governor as governor;
pub use dc_index as index;
pub use dc_lang as lang;
pub use dc_prolog as prolog;
pub use dc_relation as relation;
pub use dc_trace as trace;
pub use dc_value as value;

/// Commonly used items, re-exported for examples and tests.
pub mod prelude {
    pub use dc_calculus::ast::*;
    pub use dc_core::database::Database;
    pub use dc_core::{constructor::Constructor, selector::Selector};
    pub use dc_relation::Relation;
    pub use dc_value::{tuple, Attribute, Domain, Schema, Tuple, Value};
}
