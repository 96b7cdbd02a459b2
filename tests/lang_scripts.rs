//! Integration tests: complete DBPL programs through the surface
//! syntax, covering every statement form and the paper's §3.3 corner
//! cases.

use dc_core::Database;
use dc_lang::run_script;
use dc_value::tuple;

/// The §3.3 `strange` example executed from source: rejected by the
/// checked path; the Rust API's unchecked path then confirms the
/// `{0,2,4,6}` limit (scripted definitions are always checked, as in
/// DBPL).
#[test]
fn strange_script_rejected_then_forced() {
    let mut db = Database::new();
    let err = run_script(
        &mut db,
        r#"
        TYPE cardrel = RELATION ... OF RECORD number: CARDINAL END;
        VAR C: cardrel;
        CONSTRUCTOR strange FOR Baserel: cardrel (): cardrel;
        BEGIN EACH r IN Baserel:
          NOT SOME s IN Baserel{strange()} (r.number = s.number + 1C)
        END strange;
        "#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("positivity"), "{err}");

    // The relation variable survives the failed definition.
    run_script(&mut db, "INSERT C <0>; INSERT C <1>; INSERT C <2>;").unwrap();
    assert_eq!(db.relation_ref("C").unwrap().len(), 3);
}

/// Selector with parameters, used both for querying and for guarded
/// assignment semantics exercised through the API after scripting.
#[test]
fn selector_parameters_from_script() {
    let mut db = Database::new();
    run_script(
        &mut db,
        r#"
        TYPE parttype   = STRING;
        TYPE infrontrel = RELATION ... OF RECORD front, back: parttype END;
        VAR Infront: infrontrel;
        SELECTOR between (Lo: parttype; Hi: parttype) FOR Rel: infrontrel ();
        BEGIN EACH r IN Rel: Lo <= r.front AND r.front <= Hi END between;
        INSERT Infront <"a", "b">;
        INSERT Infront <"m", "n">;
        INSERT Infront <"z", "a">;
        "#,
    )
    .unwrap();
    let results = run_script(&mut db, r#"QUERY Infront[between("a", "p")];"#).unwrap();
    assert_eq!(results[0].relation.len(), 2);
    assert!(!results[0].relation.contains(&tuple!["z", "a"]));
}

/// Scalar-parameterised constructor through the `;`-separated argument
/// syntax.
#[test]
fn scalar_parameterised_constructor_script() {
    let mut db = Database::new();
    let results = run_script(
        &mut db,
        r#"
        TYPE numrel = RELATION ... OF RECORD n: INTEGER END;
        VAR N: numrel;
        CONSTRUCTOR below FOR Rel: numrel (K: INTEGER): numrel;
        BEGIN EACH r IN Rel: r.n < K END below;
        INSERT N <1>; INSERT N <4>; INSERT N <7>;
        QUERY N{below(; 5)};
        QUERY N{below(; 2)};
        "#,
    )
    .unwrap();
    assert_eq!(results[0].relation.len(), 2);
    assert_eq!(results[1].relation.len(), 1);

    // A parameter of a *named* scalar type is a scalar parameter too:
    // the hand-written seeded closure of §4.
    let mut db = Database::new();
    let seeded = r#"
        TYPE parttype   = STRING;
        TYPE infrontrel = RELATION ... OF RECORD front, back: parttype END;
        TYPE aheadrel   = RELATION ... OF RECORD head, tail: parttype END;
        VAR Infront: infrontrel;
        CONSTRUCTOR ahead_from FOR Rel: infrontrel (Seed: parttype): aheadrel;
        BEGIN EACH f IN Rel: f.front = Seed,
              <r.head, f.back> OF EACH r IN Rel{ahead_from(; Seed)},
                EACH f IN Rel: r.tail = f.front
        END ahead_from;
        INSERT Infront <"x", "y">; INSERT Infront <"y", "z">; INSERT Infront <"q", "x">;
        QUERY Infront{ahead_from(; "x")};
        "#;
    let results = run_script(&mut db, seeded).unwrap();
    assert_eq!(
        results[0].relation.sorted_tuples(),
        vec![tuple!["x", "y"], tuple!["x", "z"]]
    );
    // A name that denotes nothing is still a structured error.
    let err = run_script(
        &mut Database::new(),
        &seeded.replace("Seed: parttype", "Seed: nosuchtype"),
    )
    .unwrap_err();
    assert!(
        matches!(&err, dc_lang::LangError::UnknownType(n) if n == "nosuchtype"),
        "{err}"
    );
}

/// The full three-dimensional scene: types, two fact relations, the
/// mutually recursive pair, data, and queries — one script.
#[test]
fn complete_scene_program() {
    let mut db = Database::new();
    let results = run_script(
        &mut db,
        r#"
        (* The CAD scene of section 3.1. *)
        TYPE parttype   = STRING;
        TYPE infrontrel = RELATION ... OF RECORD front, back: parttype END;
        TYPE ontoprel   = RELATION ... OF RECORD top, base: parttype END;
        TYPE aheadrel   = RELATION ... OF RECORD head, tail: parttype END;
        TYPE aboverel   = RELATION ... OF RECORD high, low: parttype END;
        VAR Infront: infrontrel;
        VAR Ontop: ontoprel;

        CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
        BEGIN EACH r IN Rel: TRUE,
              <r.front, ah.tail> OF EACH r IN Rel,
                EACH ah IN Rel{ahead(Ontop)}: r.back = ah.head,
              <r.front, ab.low> OF EACH r IN Rel,
                EACH ab IN Ontop{above(Rel)}: r.back = ab.high
        END ahead;

        CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel;
        BEGIN EACH r IN Rel: TRUE,
              <r.top, ab.low> OF EACH r IN Rel,
                EACH ab IN Rel{above(Infront)}: r.base = ab.high,
              <r.top, ah.tail> OF EACH r IN Rel,
                EACH ah IN Infront{ahead(Rel)}: r.base = ah.head
        END above;

        INSERT Infront <"table", "chair">;
        INSERT Infront <"chair", "door">;
        INSERT Infront <"lamp", "vase">;
        INSERT Ontop   <"vase", "table">;
        INSERT Ontop   <"book", "vase">;

        QUERY Ontop{above(Infront)};
        QUERY Infront{ahead(Ontop)};
        "#,
    )
    .unwrap();

    let above = &results[0].relation;
    // vase on table, table in front of chair → vase above chair; and
    // transitively the book (on the vase) too.
    assert!(above.contains(&tuple!["vase", "chair"]));
    assert!(above.contains(&tuple!["book", "vase"]));
    assert!(above.contains(&tuple!["book", "chair"]));

    let ahead = &results[1].relation;
    // lamp in front of vase, vase above chair → lamp ahead of chair.
    assert!(ahead.contains(&tuple!["lamp", "chair"]));
    assert!(ahead.contains(&tuple!["table", "door"]));
}

/// Comments, negative literals, range types, and multi-name record
/// fields all parse.
#[test]
fn syntax_odds_and_ends() {
    let mut db = Database::new();
    run_script(
        &mut db,
        r#"
        -- line comment
        TYPE t = RANGE -5..5; (* block comment *)
        TYPE r = RELATION ... OF RECORD x, y: t; label: STRING END;
        VAR R: r;
        INSERT R <-3, 4, "p">;
        "#,
    )
    .unwrap();
    assert!(db
        .relation_ref("R")
        .unwrap()
        .contains(&tuple![-3i64, 4i64, "p"]));
    // Range violation caught at insert.
    let err = run_script(&mut db, "INSERT R <9, 0, \"q\">;").unwrap_err();
    assert!(err.to_string().contains("range"), "{err}");
}

/// Queries against scripts interoperate with the Rust API: a query
/// over a script-defined constructor goes through the §4 rewrites and
/// the rewritten query, under `Database::eval`, agrees with the
/// original under the nested-loop reference.
#[test]
fn script_then_rewritten_query() {
    let mut db = Database::new();
    run_script(
        &mut db,
        r#"
        TYPE parttype   = STRING;
        TYPE infrontrel = RELATION ... OF RECORD front, back: parttype END;
        TYPE aheadrel   = RELATION ... OF RECORD head, tail: parttype END;
        VAR Infront: infrontrel;
        CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
        BEGIN EACH r IN Rel: TRUE,
              <f.front, b.tail> OF EACH f IN Rel,
                EACH b IN Rel{ahead()}: f.back = b.head
        END ahead;
        INSERT Infront <"x", "y">; INSERT Infront <"y", "z">;
        "#,
    )
    .unwrap();
    for (text, expected) in [
        ("Infront{ahead()}", 3),
        (r#"{EACH a IN Infront{ahead()}: a.head = "x"}"#, 2),
    ] {
        let q = dc_lang::parser::parse_expr(text).unwrap();
        let reference = db.evaluator().force_nested_loop().eval(&q).unwrap();
        let rewritten = dc_optimizer::rewrite_query(&mut db, &q).unwrap();
        assert_eq!(
            db.eval(&rewritten).unwrap(),
            reference,
            "{text} → {rewritten}"
        );
        assert_eq!(reference.len(), expected);
    }
    assert!(db.constructor_ref("ahead$seeded").is_ok());
}
