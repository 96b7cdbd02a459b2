//! Integration tests: complete DBPL programs through the surface
//! syntax, covering every statement form and the paper's §3.3 corner
//! cases.

use dc_core::{Database, Strategy};
use dc_lang::run_script;
use dc_value::tuple;

/// `run_script`, with each `QUERY` answer checked against the oracle's
/// answer to the query as written, over the database the script leaves
/// (every script run through this queries last).
fn run_checked(db: &mut Database, script: &str) -> Vec<dc_lang::QueryResult> {
    let results = run_script(db, script).unwrap();
    for r in &results {
        let q = dc_lang::parser::parse_expr(&r.text).unwrap();
        assert_eq!(
            r.relation,
            dc_bench::oracle::eval(db, &q).unwrap(),
            "{}",
            r.text
        );
    }
    results
}

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
    let results = run_checked(&mut db, r#"QUERY Infront[between("a", "p")];"#);
    assert_eq!(results[0].relation.len(), 2);
    assert!(!results[0].relation.contains(&tuple!["z", "a"]));
}

/// Scalar-parameterised constructor through the `;`-separated argument
/// syntax.
#[test]
fn scalar_parameterised_constructor_script() {
    let mut db = Database::new();
    let results = run_checked(
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
    );
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
    let results = run_checked(&mut db, seeded);
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

/// A constructor body whose predicate applies a constructor with a
/// scalar argument read from a tuple variable: the application's
/// identity depends on the tuple, so its equation registers on first
/// sight while the round evaluates. The constructor agrees with the
/// same predicate as a top-level query under both strategies, and both
/// agree with the oracle.
#[test]
fn value_dependent_application_in_a_constructor_body() {
    let definitions = r#"
        TYPE numrel = RELATION ... OF RECORD n: INTEGER END;
        VAR N: numrel;
        CONSTRUCTOR below FOR Rel: numrel (K: INTEGER): numrel;
        BEGIN EACH r IN Rel: r.n < K END below;
        CONSTRUCTOR has_smaller FOR Rel: numrel (): numrel;
        BEGIN EACH r IN Rel: SOME s IN Rel{below(; r.n)} (TRUE) END has_smaller;
    "#;
    let queries = [
        "N{has_smaller()}",
        "{EACH r IN N: SOME s IN N{below(; r.n)} (TRUE)}",
    ];
    for (numbers, expected) in [(vec![1, 4, 7], 2), ((0..10).collect(), 9)] {
        let inserts: String = numbers
            .iter()
            .map(|n| format!("INSERT N <{n}>; "))
            .collect();
        for strategy in [Strategy::SemiNaive, Strategy::Naive] {
            let mut db = Database::new();
            db.set_strategy(strategy);
            let script = format!(
                "{definitions} {inserts} QUERY {}; QUERY {};",
                queries[0], queries[1]
            );
            let results =
                run_script(&mut db, &script).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            for (result, text) in results.iter().zip(queries) {
                let q = dc_lang::parser::parse_expr(text).unwrap();
                let expected_relation = dc_bench::oracle::eval(&db, &q).unwrap();
                assert_eq!(result.relation, expected_relation, "{strategy:?} {text}");
                assert_eq!(result.relation.len(), expected, "{strategy:?} {text}");
            }
        }
    }
}

/// The full three-dimensional scene: types, two fact relations, the
/// mutually recursive pair, data, and queries — one script.
#[test]
fn complete_scene_program() {
    let mut db = Database::new();
    let results = run_checked(
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
    );

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
/// over a script-defined constructor — through `Database::eval` and
/// through a script's `QUERY` — is rewritten by §4 where it enters, and
/// agrees with the oracle's answer to the query as written.
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
    // The script's definition defined the seeded variant.
    assert!(db.constructor_ref("ahead$seeded").is_ok());
    for (text, expected, seeded) in [
        ("Infront{ahead()}", 3, false),
        (r#"{EACH a IN Infront{ahead()}: a.head = "x"}"#, 2, true),
    ] {
        let q = dc_lang::parser::parse_expr(text).unwrap();
        let answer = dc_bench::oracle::assert_agrees(&db, &q).unwrap();
        let scripted = run_script(&mut db, &format!("QUERY {text};")).unwrap();
        assert_eq!(scripted[0].relation, answer, "{text}");
        assert_eq!(answer.len(), expected);
        let explained = db.explain(&q).unwrap();
        assert_eq!(
            explained.text().contains("ahead$seeded"),
            seeded,
            "{explained}"
        );
    }
}

/// A constructor's value is checked against the domains of its declared
/// result type, as an insert into a relation of that type is: a body
/// whose values leave a `RANGE` column raises the insert's range
/// violation, through the engine and the oracle alike.
#[test]
fn a_constructor_value_outside_its_declared_range_is_rejected() {
    let mut db = Database::new();
    run_script(
        &mut db,
        r#"
        TYPE t = RANGE 0..9;
        TYPE small = RELATION ... OF RECORD n: t END;
        TYPE ints = RELATION ... OF RECORD n: INTEGER END;
        VAR N: ints;
        VAR S: small;
        CONSTRUCTOR bump FOR Rel: ints (): small;
        BEGIN <r.n + 100> OF EACH r IN Rel: TRUE END bump;
        INSERT N <1>;
        "#,
    )
    .unwrap();
    let inserted = run_script(&mut db, "INSERT S <101>;").unwrap_err();
    let queried = run_script(&mut db, "QUERY N{bump()};").unwrap_err();
    assert!(inserted.to_string().contains("range"), "{inserted}");
    assert_eq!(queried.to_string(), inserted.to_string());
    let q = dc_lang::parser::parse_expr("N{bump()}").unwrap();
    let oracle = dc_bench::oracle::eval(&db, &q).unwrap_err();
    assert_eq!(oracle.to_string(), inserted.to_string());
}
