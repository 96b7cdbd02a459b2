//! The paper's canonical definitions, ready to register: schemas,
//! selectors, and constructors exactly as printed in §2.3 and §3.1 —
//! and its §4 analyses of constructor definitions: the augmented quant
//! graph of Fig. 3 ([`QuantGraph`]) and the type-check-level
//! partitioning ([`partition_by_names`]).
//!
//! Examples, integration tests, and the benchmark harness all build on
//! these, so the artefacts under test are literally the paper's.

use dc_calculus::ast::{Branch, SelectorDef, SetFormer};
use dc_calculus::builder::*;
use dc_value::{Domain, Schema};

use crate::constructor::Constructor;

mod partition;
mod quantgraph;

pub use partition::partition_by_names;
pub use quantgraph::{Edge, EdgeKind, Node, NodeKind, QuantGraph};

/// `TYPE infrontrel = RELATION ... OF RECORD front, back: parttype END`
pub fn infrontrel() -> Schema {
    Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
}

/// `TYPE aheadrel = RELATION ... OF RECORD head, tail: parttype END`
pub fn aheadrel() -> Schema {
    Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)])
}

/// `TYPE ontoprel = RELATION ... OF RECORD top, base: parttype END`
pub fn ontoprel() -> Schema {
    Schema::of(&[("top", Domain::Str), ("base", Domain::Str)])
}

/// `TYPE aboverel = RELATION ... OF RECORD high, low: parttype END`
pub fn aboverel() -> Schema {
    Schema::of(&[("high", Domain::Str), ("low", Domain::Str)])
}

/// `TYPE cardrel = RELATION ... OF RECORD number: CARDINAL END`
pub fn cardrel() -> Schema {
    Schema::of(&[("number", Domain::Card)])
}

/// §3.1's `hidden_by` selector:
///
/// ```text
/// SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel ();
/// BEGIN EACH r IN Rel: r.front = Obj END hidden_by
/// ```
pub fn hidden_by() -> SelectorDef {
    SelectorDef {
        name: "hidden_by".into(),
        element_var: "r".into(),
        params: vec![("Obj".into(), Domain::Str)],
        predicate: eq(attr("r", "front"), param("Obj")),
    }
}

/// §2.3's non-recursive `ahead2` (all pairs separated by ≤ 2 steps).
pub fn ahead2() -> Constructor {
    Constructor {
        name: "ahead2".into(),
        base_param: ("Rel".into(), infrontrel()),
        rel_params: vec![],
        scalar_params: vec![],
        result: infrontrel(),
        body: SetFormer {
            branches: vec![
                Branch::each("r", rel("Rel"), tru()),
                Branch::projecting(
                    vec![attr("f", "front"), attr("b", "back")],
                    vec![("f".into(), rel("Rel")), ("b".into(), rel("Rel"))],
                    eq(attr("f", "back"), attr("b", "front")),
                ),
            ],
        },
    }
}

/// §3.1's simply recursive `ahead`:
///
/// ```text
/// CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
/// BEGIN EACH r IN Rel: TRUE,
///       <f.front, b.tail> OF EACH f IN Rel,
///                            EACH b IN Rel{ahead}: f.back = b.head
/// END ahead
/// ```
pub fn ahead() -> Constructor {
    Constructor {
        name: "ahead".into(),
        base_param: ("Rel".into(), infrontrel()),
        rel_params: vec![],
        scalar_params: vec![],
        result: aheadrel(),
        body: SetFormer {
            branches: vec![
                Branch::each("r", rel("Rel"), tru()),
                Branch::projecting(
                    vec![attr("f", "front"), attr("b", "tail")],
                    vec![
                        ("f".into(), rel("Rel")),
                        ("b".into(), rel("Rel").construct("ahead", vec![])),
                    ],
                    eq(attr("f", "back"), attr("b", "head")),
                ),
            ],
        },
    }
}

/// §3.1's mutually recursive `ahead` (the re-definition taking
/// `Ontop`):
///
/// ```text
/// CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
/// BEGIN EACH r IN Rel: TRUE,
///       <r.front, ah.tail> OF EACH r IN Rel,
///           EACH ah IN Rel{ahead(Ontop)}: r.back = ah.head,
///       <r.front, ab.low> OF EACH r IN Rel,
///           EACH ab IN Ontop{above(Rel)}: r.back = ab.high
/// END ahead
/// ```
pub fn ahead_mutual() -> Constructor {
    Constructor {
        name: "ahead".into(),
        base_param: ("Rel".into(), infrontrel()),
        rel_params: vec![("Ontop".into(), ontoprel())],
        scalar_params: vec![],
        result: aheadrel(),
        body: SetFormer {
            branches: vec![
                Branch::each("r", rel("Rel"), tru()),
                Branch::projecting(
                    vec![attr("r", "front"), attr("ah", "tail")],
                    vec![
                        ("r".into(), rel("Rel")),
                        (
                            "ah".into(),
                            rel("Rel").construct("ahead", vec![rel("Ontop")]),
                        ),
                    ],
                    eq(attr("r", "back"), attr("ah", "head")),
                ),
                Branch::projecting(
                    vec![attr("r", "front"), attr("ab", "low")],
                    vec![
                        ("r".into(), rel("Rel")),
                        (
                            "ab".into(),
                            rel("Ontop").construct("above", vec![rel("Rel")]),
                        ),
                    ],
                    eq(attr("r", "back"), attr("ab", "high")),
                ),
            ],
        },
    }
}

/// §3.1's `above`:
///
/// ```text
/// CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel;
/// BEGIN EACH r IN Rel: TRUE,
///       <r.top, ab.low> OF EACH r IN Rel,
///           EACH ab IN Rel{above(Infront)}: r.base = ab.high,
///       <r.top, ah.tail> OF EACH r IN Rel,
///           EACH ah IN Infront{ahead(Rel)}: r.base = ah.head
/// END above
/// ```
pub fn above() -> Constructor {
    Constructor {
        name: "above".into(),
        base_param: ("Rel".into(), ontoprel()),
        rel_params: vec![("Infront".into(), infrontrel())],
        scalar_params: vec![],
        result: aboverel(),
        body: SetFormer {
            branches: vec![
                Branch::each("r", rel("Rel"), tru()),
                Branch::projecting(
                    vec![attr("r", "top"), attr("ab", "low")],
                    vec![
                        ("r".into(), rel("Rel")),
                        (
                            "ab".into(),
                            rel("Rel").construct("above", vec![rel("Infront")]),
                        ),
                    ],
                    eq(attr("r", "base"), attr("ab", "high")),
                ),
                Branch::projecting(
                    vec![attr("r", "top"), attr("ah", "tail")],
                    vec![
                        ("r".into(), rel("Rel")),
                        (
                            "ah".into(),
                            rel("Infront").construct("ahead", vec![rel("Rel")]),
                        ),
                    ],
                    eq(attr("r", "base"), attr("ah", "head")),
                ),
            ],
        },
    }
}

/// §3.3's `strange` (non-positive, but convergent):
///
/// ```text
/// CONSTRUCTOR strange FOR Baserel: cardrel (): cardrel;
/// BEGIN EACH r IN Baserel:
///       NOT SOME s IN Baserel{strange} (r.number = s.number + 1)
/// END strange
/// ```
pub fn strange() -> Constructor {
    Constructor {
        name: "strange".into(),
        base_param: ("Baserel".into(), cardrel()),
        rel_params: vec![],
        scalar_params: vec![],
        result: cardrel(),
        body: SetFormer {
            branches: vec![Branch::each(
                "r",
                rel("Baserel"),
                not(some(
                    "s",
                    rel("Baserel").construct("strange", vec![]),
                    eq(attr("r", "number"), add(attr("s", "number"), cnst(1u64))),
                )),
            )],
        },
    }
}

/// §3.3's `nonsense` (non-positive, divergent):
///
/// ```text
/// CONSTRUCTOR nonsense FOR Rel: anytype ();
/// BEGIN EACH r IN Rel: NOT (r IN Rel{nonsense}) END nonsense
/// ```
pub fn nonsense() -> Constructor {
    Constructor {
        name: "nonsense".into(),
        base_param: ("Rel".into(), infrontrel()),
        rel_params: vec![],
        scalar_params: vec![],
        result: infrontrel(),
        body: SetFormer {
            branches: vec![Branch::each(
                "r",
                rel("Rel"),
                not(member("r", rel("Rel").construct("nonsense", vec![]))),
            )],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use dc_value::tuple;

    #[test]
    fn canonical_definitions_register() {
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.create_relation("Ontop", ontoprel()).unwrap();
        db.define_selector(hidden_by(), infrontrel()).unwrap();
        db.define_constructor(ahead2()).unwrap();
        db.define_constructors(vec![ahead_mutual(), above()])
            .unwrap();
        db.define_constructor_unchecked(strange()).unwrap();
        db.define_constructor_unchecked(nonsense()).unwrap();
    }

    #[test]
    fn simple_ahead_registers_and_runs() {
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.insert("Infront", tuple!["a", "b"]).unwrap();
        db.insert("Infront", tuple!["b", "c"]).unwrap();
        db.define_constructor(ahead()).unwrap();
        let out = db
            .eval(&dc_calculus::builder::rel("Infront").construct("ahead", vec![]))
            .unwrap();
        assert_eq!(out.len(), 3);
    }
}
