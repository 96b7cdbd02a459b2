//! Constructor definitions (§3).
//!
//! ```text
//! CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
//! BEGIN EACH r IN Rel: TRUE,
//!       <r.front, ah.tail> OF EACH r IN Rel,
//!                             EACH ah IN Rel{ahead(Ontop)}:
//!           r.back = ah.head,
//!       …
//! END ahead
//! ```
//!
//! A [`Constructor`] carries the formal base parameter (`FOR Rel`),
//! relation parameters, scalar parameters, the declared result schema,
//! and the set-former body. Registration performs the §3.3 positivity
//! check (rejecting `nonsense` and `strange`) and full type checking of
//! the body under the formal parameter scope.

use dc_calculus::ast::{Name, SetFormer};
use dc_calculus::positivity::{self, Tracked};
use dc_calculus::rewrite;
use dc_calculus::typeck::{check_range, ConstructorSig, SchemaCatalog};
use dc_calculus::{EvalError, RangeExpr};
use dc_value::{Domain, FxHashMap, Schema, Value};

use crate::error::CoreError;

/// A constructor definition.
#[derive(Debug, Clone)]
pub struct Constructor {
    /// Constructor name.
    pub name: Name,
    /// Formal base relation parameter: name (conventionally `Rel`) and
    /// its declared schema.
    pub base_param: (Name, Schema),
    /// Formal relation parameters with their schemas
    /// (`(Ontop: ontoprel)`).
    pub rel_params: Vec<(Name, Schema)>,
    /// Formal scalar parameters with their domains.
    pub scalar_params: Vec<(Name, Domain)>,
    /// Declared result schema.
    pub result: Schema,
    /// The set-former body.
    pub body: SetFormer,
}

impl Constructor {
    /// The type-checking signature of this constructor.
    pub fn signature(&self) -> ConstructorSig {
        ConstructorSig {
            name: self.name.clone(),
            base_schema: self.base_param.1.clone(),
            rel_params: self.rel_params.iter().map(|(_, s)| s.clone()).collect(),
            scalar_params: self.scalar_params.clone(),
            result: self.result.clone(),
        }
    }

    /// Check an application's actuals — `args` relation arguments and
    /// the values `scalar_args` — in the one order every instantiation
    /// checks them: relation arity, scalar arity, scalar domains.
    pub(crate) fn check_actuals(
        &self,
        args: usize,
        scalar_args: &[Value],
    ) -> Result<(), EvalError> {
        for (expected, actual) in [
            (self.rel_params.len(), args),
            (self.scalar_params.len(), scalar_args.len()),
        ] {
            if expected != actual {
                return Err(EvalError::ArityMismatch {
                    name: self.name.clone(),
                    expected,
                    actual,
                });
            }
        }
        for ((_, domain), v) in self.scalar_params.iter().zip(scalar_args) {
            domain.check(v)?;
        }
        Ok(())
    }

    /// The relation formals: the base, then the relation parameters.
    pub(crate) fn rel_formals(&self) -> impl Iterator<Item = &Name> + Clone {
        std::iter::once(&self.base_param)
            .chain(&self.rel_params)
            .map(|(formal, _)| formal)
    }

    /// The body with the scalar parameters replaced by `scalar_args`
    /// (§3.2: "replacing all formal parameters by their actual values");
    /// the relation formals stay.
    pub(crate) fn bind_scalars(&self, scalar_args: &[Value]) -> SetFormer {
        let params: FxHashMap<Name, Value> = self
            .scalar_params
            .iter()
            .map(|(p, _)| p.clone())
            .zip(scalar_args.iter().copied())
            .collect();
        rewrite::substitute_params(&self.body, &params)
    }

    /// The body of the application `base{self(args; scalar_args)}`,
    /// every formal replaced by its actual, or the error
    /// [`Constructor::check_actuals`] raises for them.
    pub(crate) fn instantiate(
        &self,
        base: RangeExpr,
        args: Vec<RangeExpr>,
        scalar_args: &[Value],
    ) -> Result<SetFormer, EvalError> {
        self.check_actuals(args.len(), scalar_args)?;
        let rels: FxHashMap<Name, RangeExpr> = self
            .rel_formals()
            .cloned()
            .zip(std::iter::once(base).chain(args))
            .collect();
        Ok(rewrite::substitute_rel(
            &self.bind_scalars(scalar_args),
            &rels,
        ))
    }

    /// Validate the definition against a schema catalog:
    ///
    /// 1. **Positivity (§3.3)**: every constructor application in the
    ///    body must occur under an even number of `NOT`s/`ALL`-ranges.
    ///    `skip_positivity` reproduces the paper's discussion of
    ///    non-positive-but-convergent definitions (`strange`) — the
    ///    *unchecked* registration path.
    /// 2. **Type check**: the body must be well-typed with the formal
    ///    parameters in scope and union-compatible with the declared
    ///    result schema.
    pub fn validate(
        &self,
        cat: &dyn SchemaCatalog,
        skip_positivity: bool,
    ) -> Result<(), CoreError> {
        if !skip_positivity {
            let body_range = RangeExpr::SetFormer(self.body.clone());
            let violations = positivity::check_range(&body_range, &Tracked::AllConstructed);
            if let Some(v) = violations.first() {
                return Err(CoreError::Eval(EvalError::PositivityViolation(
                    v.to_string(),
                )));
            }
        }
        let scope = FormalScope {
            base: cat,
            ctor: self,
        };
        let body_range = RangeExpr::SetFormer(self.body.clone());
        let body_schema = check_range(&body_range, &scope)?;
        if !body_schema.union_compatible(&self.result) {
            return Err(CoreError::Eval(EvalError::Type(
                dc_value::TypeError::SchemaMismatch {
                    context: format!(
                        "body of constructor `{}` is not compatible with its result type",
                        self.name
                    ),
                },
            )));
        }
        Ok(())
    }
}

/// Schema catalog overlay installing the constructor's formal
/// parameters — base relation, relation parameters, scalar parameters —
/// over the database catalog. Signatures, the constructor's own
/// included, resolve through the catalog: `Database` registers a
/// group's signatures before it validates any body.
struct FormalScope<'a> {
    base: &'a dyn SchemaCatalog,
    ctor: &'a Constructor,
}

impl SchemaCatalog for FormalScope<'_> {
    fn relation_schema(&self, name: &str) -> Result<Schema, EvalError> {
        if name == self.ctor.base_param.0 {
            return Ok(self.ctor.base_param.1.clone());
        }
        if let Some((_, s)) = self.ctor.rel_params.iter().find(|(n, _)| n == name) {
            return Ok(s.clone());
        }
        self.base.relation_schema(name)
    }

    fn selector_def(&self, name: &str) -> Result<&dc_calculus::ast::SelectorDef, EvalError> {
        self.base.selector_def(name)
    }

    fn constructor_sig(&self, name: &str) -> Result<&ConstructorSig, EvalError> {
        self.base.constructor_sig(name)
    }

    fn param_domain(&self, name: &str) -> Result<Domain, EvalError> {
        if let Some((_, d)) = self.ctor.scalar_params.iter().find(|(n, _)| n == name) {
            return Ok(d.clone());
        }
        self.base.param_domain(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::*;
    use dc_calculus::typeck::MapSchemaCatalog;

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn aheadrel() -> Schema {
        Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)])
    }

    /// The paper's simply recursive `ahead` (§3.1).
    pub(crate) fn ahead() -> Constructor {
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

    fn catalog_with_ahead_sig() -> MapSchemaCatalog {
        MapSchemaCatalog {
            constructors: vec![ahead().signature()],
            ..Default::default()
        }
    }

    #[test]
    fn ahead_validates() {
        let cat = catalog_with_ahead_sig();
        ahead().validate(&cat, false).unwrap();
    }

    #[test]
    fn nonsense_rejected_by_positivity() {
        // CONSTRUCTOR nonsense FOR Rel: BEGIN EACH r IN Rel:
        //   NOT (r IN Rel{nonsense}) END
        let c = Constructor {
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
        };
        let cat = MapSchemaCatalog {
            constructors: vec![c.signature()],
            ..Default::default()
        };
        let err = c.validate(&cat, false).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Eval(EvalError::PositivityViolation(_))
        ));
        // The unchecked path admits it (semantics explored in fixpoint
        // tests: it oscillates).
        c.validate(&cat, true).unwrap();
    }

    #[test]
    fn result_type_mismatch_caught() {
        let mut c = ahead();
        c.result = Schema::of(&[("n", Domain::Int)]);
        let cat = MapSchemaCatalog {
            constructors: vec![ahead().signature()],
            ..Default::default()
        };
        assert!(c.validate(&cat, false).is_err());
    }

    #[test]
    fn body_type_errors_caught() {
        let mut c = ahead();
        // Break an attribute name inside the body.
        c.body.branches[1] = Branch::projecting(
            vec![attr("f", "front"), attr("b", "tail")],
            vec![
                ("f".into(), rel("Rel")),
                ("b".into(), rel("Rel").construct("ahead", vec![])),
            ],
            eq(attr("f", "nosuch"), attr("b", "head")),
        );
        let cat = catalog_with_ahead_sig();
        assert!(c.validate(&cat, false).is_err());
    }

    #[test]
    fn scalar_params_visible_in_body() {
        let c = Constructor {
            name: "bounded".into(),
            base_param: ("Rel".into(), Schema::of(&[("n", Domain::Int)])),
            rel_params: vec![],
            scalar_params: vec![("K".into(), Domain::Int)],
            result: Schema::of(&[("n", Domain::Int)]),
            body: SetFormer {
                branches: vec![Branch::each(
                    "r",
                    rel("Rel"),
                    lt(attr("r", "n"), param("K")),
                )],
            },
        };
        let cat = MapSchemaCatalog {
            constructors: vec![c.signature()],
            ..Default::default()
        };
        c.validate(&cat, false).unwrap();
    }

    #[test]
    fn signature_reflects_definition() {
        let sig = ahead().signature();
        assert_eq!(sig.name, "ahead");
        assert_eq!(sig.result.attributes()[0].name, "head");
        assert!(sig.rel_params.is_empty());
    }
}
