//! Statement-level AST of DBPL scripts (expressions reuse
//! `dc_calculus::ast`).

use dc_calculus::ast::{Formula, RangeExpr};
use dc_value::Value;

/// A type expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeExpr {
    /// `STRING`
    Str,
    /// `INTEGER`
    Int,
    /// `CARDINAL`
    Card,
    /// `BOOLEAN`
    Bool,
    /// `RANGE lo..hi`
    Range(i64, i64),
    /// Reference to a named type.
    Named(String),
    /// `RELATION key OF RECORD fields END`; `key` empty for
    /// `RELATION ... OF`.
    Relation {
        /// Key attribute names (empty ⇒ whole-tuple key).
        key: Vec<String>,
        /// Fields: attribute name and its (scalar) type.
        fields: Vec<(String, TypeExpr)>,
    },
}

/// One branch of a parsed set former / constructor body.
pub type ParsedBranch = dc_calculus::ast::Branch;

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `TYPE name = type;`
    TypeDef {
        /// Type name.
        name: String,
        /// Definition.
        def: TypeExpr,
    },
    /// `VAR name: reltype;`
    VarDecl {
        /// Relation variable name.
        name: String,
        /// Relation type name.
        type_name: String,
    },
    /// `SELECTOR name (params) FOR var: reltype; BEGIN EACH v IN var:
    /// pred END name;`
    SelectorDef {
        /// Selector name.
        name: String,
        /// Scalar parameters: name and type.
        params: Vec<(String, TypeExpr)>,
        /// The FOR variable (scopes the body).
        for_var: String,
        /// FOR relation type name.
        for_type: String,
        /// Element variable of the body.
        element_var: String,
        /// Body predicate.
        predicate: Formula,
    },
    /// `CONSTRUCTOR name FOR var: reltype (params): result; BEGIN
    /// branches END name;`
    ConstructorDef {
        /// Constructor name.
        name: String,
        /// Formal base name (`Rel`).
        base_var: String,
        /// Base relation type name.
        base_type: String,
        /// Formal parameters in source order: name and type. Whether a
        /// named type makes a relation or a scalar parameter is decided
        /// at lowering, where the name's denotation is known.
        params: Vec<(String, TypeExpr)>,
        /// Result relation type name.
        result_type: String,
        /// Body branches.
        branches: Vec<ParsedBranch>,
    },
    /// `INSERT name <v1, …, vk>;`
    Insert {
        /// Target relation.
        relation: String,
        /// Literal tuple.
        values: Vec<Value>,
    },
    /// `QUERY expr;`
    Query {
        /// The query expression.
        expr: RangeExpr,
        /// Source text (for result labelling).
        text: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_expr_shapes() {
        let r = TypeExpr::Relation {
            key: vec![],
            fields: vec![("front".into(), TypeExpr::Named("parttype".into()))],
        };
        assert!(matches!(r, TypeExpr::Relation { .. }));
        assert_eq!(TypeExpr::Range(1, 100), TypeExpr::Range(1, 100));
    }
}
