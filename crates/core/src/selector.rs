//! Selectors (§2.3): named parameterised predicates over relations.
//!
//! ```text
//! SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel ();
//! BEGIN EACH r IN Rel: r.front = Obj END hidden_by
//! ```
//!
//! A [`Selector`] couples the raw [`SelectorDef`] predicate with the
//! schema of the relations it applies to, enabling registration-time
//! type checking. Selector *application* (`Rel[s(args)]`) is handled by
//! the evaluator; this module adds the assignment-guard semantics
//! (`Rel[s] := rex`): every tuple of the source must satisfy the
//! predicate, otherwise the assignment raises — the paper's conditional
//! assignment with `<exception>`.

use dc_calculus::ast::SelectorDef;
use dc_calculus::typeck::{self, SchemaCatalog};
use dc_calculus::{Catalog, Evaluator};
use dc_relation::Relation;
use dc_value::{Schema, Value};

use crate::error::CoreError;

/// A registered selector: definition plus the FOR schema.
#[derive(Debug, Clone)]
pub struct Selector {
    def: SelectorDef,
    /// Schema of the relation type the selector is declared FOR.
    for_schema: Schema,
}

impl Selector {
    /// Create a selector, type-checking its predicate against the FOR
    /// schema (attribute references through the element variable) and
    /// the given schema catalog (references to other relations, as in
    /// the referential-integrity example of §2.3).
    pub fn new(
        def: SelectorDef,
        for_schema: Schema,
        cat: &dyn SchemaCatalog,
    ) -> Result<Selector, CoreError> {
        let scope = vec![(def.element_var.clone(), for_schema.clone())];
        // Parameters are visible inside the body; check with them bound.
        let param_cat = ParamScope {
            base: cat,
            params: &def.params,
        };
        typeck::check_formula_in_scope(&def.predicate, &param_cat, &scope)?;
        Ok(Selector { def, for_schema })
    }

    /// The underlying definition.
    pub fn def(&self) -> &SelectorDef {
        &self.def
    }

    /// The FOR schema.
    pub fn for_schema(&self) -> &Schema {
        &self.for_schema
    }

    /// Selector name.
    pub fn name(&self) -> &str {
        &self.def.name
    }

    /// Guarded assignment `target[self(args)] := source` (§2.3):
    /// every tuple of `source` must satisfy the selector predicate,
    /// otherwise [`CoreError::SelectorViolation`] is raised and the
    /// target is untouched.
    pub fn guard_assign(
        &self,
        target: &mut Relation,
        source: &Relation,
        args: &[Value],
        catalog: &dyn Catalog,
    ) -> Result<(), CoreError> {
        if args.len() != self.def.params.len() {
            return Err(CoreError::Eval(dc_calculus::EvalError::ArityMismatch {
                name: self.def.name.clone(),
                expected: self.def.params.len(),
                actual: args.len(),
            }));
        }
        // Evaluate the predicate per tuple via selector application on
        // the source: tuples that survive are exactly the valid ones.
        let mut ev = Evaluator::new(catalog);
        let arg_exprs: Vec<_> = args
            .iter()
            .map(|v| dc_calculus::ast::ScalarExpr::Const(*v))
            .collect();
        let kept = ev.apply_selector(source.clone(), &self.def.name, &arg_exprs, &[])?;
        if kept.len() != source.len() {
            // Find one offending tuple for the error message.
            // `kept` was filtered out of `source` and just compared
            // shorter, so a tuple outside it must exist.
            #[allow(clippy::expect_used)]
            let bad = source
                .iter()
                .find(|t| !kept.contains(t))
                .cloned()
                .expect("kept is a strict subset");
            return Err(CoreError::SelectorViolation {
                selector: self.def.name.clone(),
                tuple: bad,
            });
        }
        target.assign(source)?;
        Ok(())
    }
}

/// Schema catalog overlay exposing selector parameters as scalar
/// parameters during type checking.
struct ParamScope<'a> {
    base: &'a dyn SchemaCatalog,
    params: &'a [(String, dc_value::Domain)],
}

impl SchemaCatalog for ParamScope<'_> {
    fn relation_schema(&self, name: &str) -> Result<Schema, dc_calculus::EvalError> {
        self.base.relation_schema(name)
    }

    fn selector_def(&self, name: &str) -> Result<&SelectorDef, dc_calculus::EvalError> {
        self.base.selector_def(name)
    }

    fn constructor_sig(
        &self,
        name: &str,
    ) -> Result<&typeck::ConstructorSig, dc_calculus::EvalError> {
        self.base.constructor_sig(name)
    }

    fn param_domain(&self, name: &str) -> Result<dc_value::Domain, dc_calculus::EvalError> {
        if let Some((_, d)) = self.params.iter().find(|(n, _)| n == name) {
            return Ok(d.clone());
        }
        self.base.param_domain(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::builder::*;
    use dc_calculus::env::MapCatalog;
    use dc_calculus::typeck::MapSchemaCatalog;
    use dc_value::{tuple, Domain};

    fn infront_schema() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn hidden_by() -> SelectorDef {
        SelectorDef {
            name: "hidden_by".into(),
            element_var: "r".into(),
            params: vec![("Obj".into(), Domain::Str)],
            predicate: eq(attr("r", "front"), param("Obj")),
        }
    }

    #[test]
    fn registration_type_checks_body() {
        let cat = MapSchemaCatalog::default();
        assert!(Selector::new(hidden_by(), infront_schema(), &cat).is_ok());

        // Bad attribute reference is caught at registration.
        let bad = SelectorDef {
            name: "s".into(),
            element_var: "r".into(),
            params: vec![],
            predicate: eq(attr("r", "nosuch"), cnst("x")),
        };
        assert!(Selector::new(bad, infront_schema(), &cat).is_err());
    }

    #[test]
    fn param_types_visible_in_body() {
        let cat = MapSchemaCatalog::default();
        // Param compared against a string attribute: Obj must be Str.
        let wrong = SelectorDef {
            params: vec![("Obj".into(), Domain::Int)],
            ..hidden_by()
        };
        assert!(Selector::new(wrong, infront_schema(), &cat).is_err());
    }

    #[test]
    fn guard_assign_accepts_valid_source() {
        let cat = MapSchemaCatalog::default();
        let sel = Selector::new(hidden_by(), infront_schema(), &cat).unwrap();
        let rcat = MapCatalog::new().with_selector(hidden_by());

        let mut target = Relation::new(infront_schema());
        let source = Relation::from_tuples(
            infront_schema(),
            vec![tuple!["table", "chair"], tuple!["table", "wall"]],
        )
        .unwrap();
        sel.guard_assign(&mut target, &source, &[Value::str("table")], &rcat)
            .unwrap();
        assert_eq!(target.len(), 2);
    }

    #[test]
    fn guard_assign_rejects_violating_source() {
        let cat = MapSchemaCatalog::default();
        let sel = Selector::new(hidden_by(), infront_schema(), &cat).unwrap();
        let rcat = MapCatalog::new().with_selector(hidden_by());

        let mut target = Relation::new(infront_schema());
        let source = Relation::from_tuples(
            infront_schema(),
            vec![tuple!["table", "chair"], tuple!["vase", "wall"]],
        )
        .unwrap();
        let err = sel
            .guard_assign(&mut target, &source, &[Value::str("table")], &rcat)
            .unwrap_err();
        match err {
            CoreError::SelectorViolation { selector, tuple } => {
                assert_eq!(selector, "hidden_by");
                assert_eq!(tuple, tuple!["vase", "wall"]);
            }
            other => panic!("expected SelectorViolation, got {other}"),
        }
        assert!(
            target.is_empty(),
            "failed assignment must not mutate target"
        );
    }

    #[test]
    fn guard_assign_arity_checked() {
        let cat = MapSchemaCatalog::default();
        let sel = Selector::new(hidden_by(), infront_schema(), &cat).unwrap();
        let rcat = MapCatalog::new().with_selector(hidden_by());
        let mut target = Relation::new(infront_schema());
        let source = Relation::new(infront_schema());
        assert!(sel.guard_assign(&mut target, &source, &[], &rcat).is_err());
    }
}
