//! DBPL surface syntax: lexer, parser, and lowering to the engine.
//!
//! Lets programs be written in the paper's concrete syntax (§2–§3):
//!
//! ```text
//! TYPE parttype   = STRING;
//! TYPE infrontrel = RELATION ... OF RECORD front, back: parttype END;
//! VAR Infront: infrontrel;
//!
//! SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
//! BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
//!
//! CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
//! BEGIN EACH r IN Rel: TRUE,
//!       <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead()}:
//!           f.back = b.head
//! END ahead;
//!
//! INSERT Infront <"vase", "table">;
//! QUERY {EACH a IN Infront{ahead()}: a.head = "vase"};
//! ```
//!
//! Statements: `TYPE`, `VAR`, `SELECTOR`, `CONSTRUCTOR`, `INSERT`,
//! `QUERY`. Consecutive `CONSTRUCTOR` statements are registered as one
//! mutually recursive group (§3.1's `ahead`/`above`).

// Parse and lowering failures are `LangError`s, never panics (the
// parser's own `expect(Tok)` is a method, not `Option::expect`).
// Escalate, allowing tests.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod stmt;

pub use error::LangError;
pub use lower::{run_script, QueryResult};
