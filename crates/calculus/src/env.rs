//! The evaluation environment: how expressions resolve names.
//!
//! Evaluation is parameterised over a [`Catalog`], which supplies
//! relation values, selector definitions, and — crucially — the meaning
//! of constructor applications. The evaluator knows nothing
//! about fixpoints: when it meets `base{c(args)}` it evaluates `base`
//! and `args` to relations and delegates to
//! [`Catalog::apply_constructor`]. `dc-core` implements that hook with
//! the §3.2 least-fixpoint machinery; during fixpoint iteration it
//! implements it by looking up the current iterate, which is exactly the
//! paper's reading of `applyᵢᵏ⁺¹ = gᵢ(apply₀ᵏ, …, applyₗᵏ)`.

use dc_relation::Relation;
use dc_value::Value;

use crate::access::AccessCache;
use crate::ast::SelectorDef;
use crate::error::EvalError;

/// Name-resolution interface for evaluation.
pub trait Catalog {
    /// Resolve a relation name to its current value. Formal relation
    /// parameters of selectors/constructors are resolved here too: the
    /// caller installs them under their formal names.
    ///
    /// Returned by value: `Relation` is copy-on-write, so handing out
    /// an owned handle is a pointer bump, never a tuple-set copy.
    fn relation(&self, name: &str) -> Result<Relation, EvalError>;

    /// Resolve a selector definition.
    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        Err(EvalError::UnknownSelector(name.to_string()))
    }

    /// Give meaning to a constructor application `base{name(args)}`.
    fn apply_constructor(
        &self,
        _base: Relation,
        name: &str,
        _args: Vec<Relation>,
        _scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        Err(EvalError::UnknownConstructor(name.to_string()))
    }

    /// Resolve a free scalar parameter (one not bound by an enclosing
    /// selector application frame). Used by logical access paths, which
    /// are compiled plans "with dummy constants" (§4) filled in at run
    /// time.
    fn scalar_param(&self, name: &str) -> Result<Value, EvalError> {
        Err(EvalError::UnknownParam(name.to_string()))
    }

    /// The [`AccessCache`] this catalog's owner keeps for the relations
    /// it resolves — indexes that outlive one evaluator (the database across queries, a snapshot
    /// across sessions, a solve across rounds). Entries are keyed by
    /// storage identity, so the catalog promises nothing about them;
    /// the evaluator asks the cache with the relation value it read.
    /// `None` (the default): the evaluator uses a private cache for its
    /// own lifetime.
    fn access(&self) -> Option<&AccessCache> {
        None
    }

    /// The catalog a selector's predicate reads, where this one binds a
    /// constructor body's formals over it: a selector sees the catalog's
    /// relations, never the formals of a body it is applied in. `None`
    /// (the default): this catalog binds no formals.
    fn selector_scope(&self) -> Option<&dyn Catalog> {
        None
    }
}

/// Closure type for pluggable constructor semantics in [`MapCatalog`].
pub type ConstructorFn =
    Box<dyn Fn(Relation, Vec<Relation>) -> Result<Relation, EvalError> + Send + Sync>;

/// A simple in-memory catalog for tests and small programs.
#[derive(Default)]
pub struct MapCatalog {
    relations: Vec<(String, Relation)>,
    selectors: Vec<(String, SelectorDef)>,
    constructors: Vec<(String, ConstructorFn)>,
    params: Vec<(String, Value)>,
}

impl MapCatalog {
    /// An empty catalog.
    pub fn new() -> MapCatalog {
        MapCatalog::default()
    }

    /// Register (or replace) a relation under `name`.
    pub fn with_relation(mut self, name: impl Into<String>, rel: Relation) -> MapCatalog {
        self.insert_relation(name, rel);
        self
    }

    /// Register (or replace) a relation under `name` (mutating form).
    pub fn insert_relation(&mut self, name: impl Into<String>, rel: Relation) {
        let name = name.into();
        if let Some(slot) = self.relations.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = rel;
        } else {
            self.relations.push((name, rel));
        }
    }

    /// Register a selector definition.
    pub fn with_selector(mut self, def: SelectorDef) -> MapCatalog {
        self.selectors.push((def.name.clone(), def));
        self
    }

    /// Register constructor semantics as a closure (tests only; real
    /// constructor semantics live in `dc-core`).
    pub fn with_constructor_fn(mut self, name: impl Into<String>, f: ConstructorFn) -> MapCatalog {
        self.constructors.push((name.into(), f));
        self
    }

    /// Register a free scalar parameter value.
    pub fn with_param(mut self, name: impl Into<String>, value: Value) -> MapCatalog {
        self.params.push((name.into(), value));
        self
    }
}

impl Catalog for MapCatalog {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        self.relations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.clone())
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))
    }

    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.selectors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
            .ok_or_else(|| EvalError::UnknownSelector(name.to_string()))
    }

    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        _scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        let f = self
            .constructors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f)
            .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))?;
        f(base, args)
    }

    fn scalar_param(&self, name: &str) -> Result<Value, EvalError> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| EvalError::UnknownParam(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_value::{tuple, Domain, Schema};

    fn rel() -> Relation {
        Relation::from_tuples(
            Schema::of(&[("x", Domain::Int)]),
            vec![tuple![1i64], tuple![2i64]],
        )
        .unwrap()
    }

    #[test]
    fn map_catalog_resolution() {
        let cat = MapCatalog::new()
            .with_relation("R", rel())
            .with_param("P", Value::Int(9));
        assert_eq!(cat.relation("R").unwrap().len(), 2);
        assert!(matches!(
            cat.relation("S"),
            Err(EvalError::UnknownRelation(_))
        ));
        assert_eq!(cat.scalar_param("P").unwrap(), Value::Int(9));
        assert!(cat.selector("s").is_err());
        assert!(cat.apply_constructor(rel(), "c", vec![], vec![]).is_err());
    }

    #[test]
    fn insert_relation_replaces() {
        let mut cat = MapCatalog::new().with_relation("R", rel());
        let empty = Relation::new(Schema::of(&[("x", Domain::Int)]));
        cat.insert_relation("R", empty);
        assert!(cat.relation("R").unwrap().is_empty());
    }

    #[test]
    fn constructor_fn_hook() {
        let cat =
            MapCatalog::new().with_constructor_fn("identity", Box::new(|base, _args| Ok(base)));
        let out = cat
            .apply_constructor(rel(), "identity", vec![], vec![])
            .unwrap();
        assert_eq!(out.len(), 2);
    }
}
