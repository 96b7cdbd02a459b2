//! Lowering: execute parsed DBPL scripts against a
//! [`dc_core::Database`].

use dc_calculus::ast::SelectorDef;
use dc_core::{Constructor, Database};
use dc_relation::Relation;
use dc_value::{Attribute, Domain, FxHashMap, Schema, Tuple, Value};

use crate::error::LangError;
use crate::parser::parse_script;
use crate::stmt::{Stmt, TypeExpr};

/// What a type name denotes.
#[derive(Debug, Clone)]
enum Denot {
    Scalar(Domain),
    Rel(Schema),
}

/// The result of one `QUERY` statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The query's source rendering.
    pub text: String,
    /// The answer relation.
    pub relation: Relation,
}

/// Parse and execute a DBPL script against a database; returns one
/// [`QueryResult`] per `QUERY` statement.
///
/// Consecutive `CONSTRUCTOR` statements form one definition group, so
/// mutually recursive constructors (§3.1's `ahead`/`above`) can be
/// written naturally, one after the other.
pub fn run_script(db: &mut Database, src: &str) -> Result<Vec<QueryResult>, LangError> {
    let stmts = parse_script(src)?;
    let mut types: FxHashMap<String, Denot> = FxHashMap::default();
    let mut pending: Vec<Constructor> = Vec::new();
    let mut results = Vec::new();

    fn flush(db: &mut Database, pending: &mut Vec<Constructor>) -> Result<(), LangError> {
        if pending.is_empty() {
            return Ok(());
        }
        let group = std::mem::take(pending);
        db.define_constructors(group)?;
        Ok(())
    }

    for stmt in stmts {
        if !matches!(stmt, Stmt::ConstructorDef { .. }) {
            flush(db, &mut pending)?;
        }
        match stmt {
            Stmt::TypeDef { name, def } => {
                let d = resolve_type(&def, &types)?;
                types.insert(name, d);
            }
            Stmt::VarDecl { name, type_name } => {
                let schema = rel_schema(&type_name, &types)?;
                db.create_relation(name, schema)?;
            }
            Stmt::SelectorDef {
                name,
                params,
                for_var: _,
                for_type,
                element_var,
                predicate,
            } => {
                let for_schema = rel_schema(&for_type, &types)?;
                let mut pdomains = Vec::with_capacity(params.len());
                for (pname, pty) in params {
                    pdomains.push((pname, scalar_domain(&pty, &types)?));
                }
                db.define_selector(
                    SelectorDef {
                        name,
                        element_var,
                        params: pdomains,
                        predicate,
                    },
                    for_schema,
                )?;
            }
            Stmt::ConstructorDef {
                name,
                base_var,
                base_type,
                params,
                result_type,
                branches,
            } => {
                let base_schema = rel_schema(&base_type, &types)?;
                let result = rel_schema(&result_type, &types)?;
                let mut rps = Vec::new();
                let mut sps = Vec::new();
                for (pname, pty) in params {
                    match resolve_type(&pty, &types)? {
                        Denot::Rel(schema) => rps.push((pname, schema)),
                        Denot::Scalar(domain) => sps.push((pname, domain)),
                    }
                }
                pending.push(Constructor {
                    name,
                    base_param: (base_var, base_schema),
                    rel_params: rps,
                    scalar_params: sps,
                    result,
                    body: dc_calculus::ast::SetFormer { branches },
                });
            }
            Stmt::Insert { relation, values } => {
                let schema = db.relation_ref(&relation)?.schema().clone();
                let coerced = coerce_tuple(values, &schema)?;
                db.insert(&relation, coerced)?;
            }
            Stmt::Query { expr, text } => {
                let relation = db.eval(&expr)?;
                results.push(QueryResult { text, relation });
            }
        }
    }
    flush(db, &mut pending)?;
    Ok(results)
}

fn resolve_type(def: &TypeExpr, types: &FxHashMap<String, Denot>) -> Result<Denot, LangError> {
    Ok(match def {
        TypeExpr::Str => Denot::Scalar(Domain::Str),
        TypeExpr::Int => Denot::Scalar(Domain::Int),
        TypeExpr::Card => Denot::Scalar(Domain::Card),
        TypeExpr::Bool => Denot::Scalar(Domain::Bool),
        TypeExpr::Range(lo, hi) => Denot::Scalar(Domain::IntRange(*lo, *hi)),
        TypeExpr::Named(n) => types
            .get(n)
            .cloned()
            .ok_or_else(|| LangError::UnknownType(n.clone()))?,
        TypeExpr::Relation { key, fields } => {
            let mut attrs = Vec::with_capacity(fields.len());
            for (fname, fty) in fields {
                attrs.push(Attribute::new(fname.clone(), scalar_domain(fty, types)?));
            }
            let schema = if key.is_empty() {
                Schema::new(attrs)
            } else {
                let keys: Vec<&str> = key.iter().map(String::as_str).collect();
                Schema::with_key(attrs, &keys)
                    .map_err(|e| LangError::Core(dc_core::CoreError::Relation(e.into())))?
            };
            Denot::Rel(schema)
        }
    })
}

fn scalar_domain(ty: &TypeExpr, types: &FxHashMap<String, Denot>) -> Result<Domain, LangError> {
    match resolve_type(ty, types)? {
        Denot::Scalar(d) => Ok(d),
        Denot::Rel(_) => Err(LangError::UnknownType(format!(
            "expected a scalar type, found a relation type ({ty:?})"
        ))),
    }
}

fn rel_schema(name: &str, types: &FxHashMap<String, Denot>) -> Result<Schema, LangError> {
    match types.get(name) {
        Some(Denot::Rel(s)) => Ok(s.clone()),
        Some(Denot::Scalar(_)) => Err(LangError::UnknownType(format!(
            "`{name}` is a scalar type where a relation type is required"
        ))),
        None => Err(LangError::UnknownType(name.to_string())),
    }
}

/// Coerce literal values to the target schema's base domains
/// (specifically `Int` literals into `CARDINAL` attributes, since the
/// lexer defaults bare integers to `INTEGER`).
fn coerce_tuple(values: Vec<Value>, schema: &Schema) -> Result<Tuple, LangError> {
    let mut out = Vec::with_capacity(values.len());
    for (i, v) in values.into_iter().enumerate() {
        let target = schema.attributes().get(i).map(|a| a.domain.base());
        let coerced = match (&v, target) {
            (Value::Int(n), Some(Domain::Card)) if *n >= 0 => Value::Card(*n as u64),
            _ => v,
        };
        out.push(coerced);
    }
    Ok(Tuple::new(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_value::tuple;

    /// The full CAD example of the paper, in DBPL syntax.
    const SCENE: &str = r#"
        TYPE parttype   = STRING;
        TYPE infrontrel = RELATION ... OF RECORD front, back: parttype END;
        TYPE aheadrel   = RELATION ... OF RECORD head, tail: parttype END;

        VAR Infront: infrontrel;

        SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel ();
        BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

        CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
        BEGIN EACH r IN Rel: TRUE,
              <f.front, b.tail> OF EACH f IN Rel,
                EACH b IN Rel{ahead()}: f.back = b.head
        END ahead;

        INSERT Infront <"vase",  "table">;
        INSERT Infront <"table", "chair">;
        INSERT Infront <"chair", "wall">;
    "#;

    #[test]
    fn full_scene_script() {
        let mut db = Database::new();
        run_script(&mut db, SCENE).unwrap();
        let results = run_script(
            &mut db,
            r#"QUERY Infront{ahead()};
               QUERY Infront[hidden_by("table")]{ahead()};"#,
        )
        .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].relation.len(), 6);
        assert!(results[0].relation.contains(&tuple!["vase", "wall"]));
        assert_eq!(results[1].relation.len(), 1); // chain from "table" selected edges
    }

    #[test]
    fn mutual_recursion_as_consecutive_statements() {
        let mut db = Database::new();
        run_script(
            &mut db,
            r#"
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
            INSERT Ontop <"vase", "table">;
        "#,
        )
        .unwrap();
        let results = run_script(&mut db, "QUERY Ontop{above(Infront)};").unwrap();
        assert!(results[0].relation.contains(&tuple!["vase", "chair"]));
    }

    #[test]
    fn key_constraint_from_script() {
        let mut db = Database::new();
        let err = run_script(
            &mut db,
            r#"
            TYPE objectrel = RELATION part OF RECORD part: STRING; weight: INTEGER END;
            VAR Objects: objectrel;
            INSERT Objects <"bolt", 5>;
            INSERT Objects <"bolt", 9>;
        "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("key violation"));
        // First insert survived.
        assert_eq!(db.relation_ref("Objects").unwrap().len(), 1);
    }

    #[test]
    fn positivity_rejected_from_script() {
        let mut db = Database::new();
        let err = run_script(
            &mut db,
            r#"
            TYPE anyrel = RELATION ... OF RECORD x: INTEGER END;
            VAR R: anyrel;
            CONSTRUCTOR nonsense FOR Rel: anyrel (): anyrel;
            BEGIN EACH r IN Rel: NOT (r IN Rel{nonsense()})
            END nonsense;
        "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("positivity"));
    }

    #[test]
    fn cardinal_coercion_on_insert() {
        let mut db = Database::new();
        run_script(
            &mut db,
            r#"
            TYPE cardrel = RELATION ... OF RECORD number: CARDINAL END;
            VAR C: cardrel;
            INSERT C <3>;
            INSERT C <4C>;
        "#,
        )
        .unwrap();
        let c = db.relation_ref("C").unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.contains(&tuple![3u64]));
    }

    #[test]
    fn range_types_enforced() {
        let mut db = Database::new();
        let err = run_script(
            &mut db,
            r#"
            TYPE partid = RANGE 1..100;
            TYPE prel = RELATION ... OF RECORD id: partid END;
            VAR P: prel;
            INSERT P <200>;
        "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("range"));
    }

    #[test]
    fn unknown_type_errors() {
        let mut db = Database::new();
        let err = run_script(&mut db, "VAR X: missing;").unwrap_err();
        assert!(matches!(err, LangError::UnknownType(_)));
        let err2 = run_script(&mut db, "TYPE t = STRING;\nVAR X: t;").unwrap_err();
        assert!(err2.to_string().contains("scalar type"));
    }

    #[test]
    fn selector_params_typed_from_script() {
        let mut db = Database::new();
        run_script(&mut db, SCENE).unwrap();
        // hidden_by expects a STRING argument.
        let err = run_script(&mut db, "QUERY Infront[hidden_by(3)]{ahead()};").unwrap_err();
        assert!(matches!(err, LangError::Core(_)));
    }
}
