//! The catalog core `Database` and the serving layer share: one
//! definitions type, one memo of solved applications, one `EXPLAIN`
//! body.

use std::sync::{PoisonError, RwLock};

use dc_calculus::ast::{Formula, Name, SelectorDef, SetFormer};
use dc_calculus::joinplan::DefLookup;
use dc_calculus::typeck::{self, ConstructorSig, SchemaCatalog};
use dc_calculus::{EvalError, Evaluator, Explanation, RangeExpr};
use dc_relation::Relation;
use dc_trace::metrics::Counter;
use dc_value::{FxHashMap, FxHashSet, Value};

use crate::constructor::Constructor;
use crate::fixpoint::{self, AppKey, ConstructorSource, FixpointConfig};
use crate::selector::Selector;

/// The definitions every catalog state is evaluated under: selectors,
/// constructors with their signatures, the constructors admitted
/// unchecked, and the fixpoint configuration. A `Database` owns one and
/// grows it; a `Server` takes it over behind an `Arc`, frozen.
#[derive(Default)]
pub struct Defs {
    pub(crate) selectors: FxHashMap<Name, Selector>,
    pub(crate) constructors: FxHashMap<Name, Constructor>,
    pub(crate) signatures: FxHashMap<Name, ConstructorSig>,
    /// Constructors registered through the unchecked API (§3.3's
    /// non-positive definitions); the solver runs every system that can
    /// reach one naive, since differential evaluation assumes
    /// monotonicity.
    pub(crate) unchecked: FxHashSet<Name>,
    /// The configuration every solve and evaluation runs under.
    pub config: FixpointConfig,
}

impl Defs {
    /// A selector's definition.
    pub fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.selectors
            .get(name)
            .map(Selector::def)
            .ok_or_else(|| EvalError::UnknownSelector(name.to_string()))
    }

    /// A constructor's definition.
    pub fn constructor(&self, name: &str) -> Result<&Constructor, EvalError> {
        self.constructors
            .get(name)
            .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))
    }

    /// A constructor's type-checking signature.
    pub fn constructor_sig(&self, name: &str) -> Result<&ConstructorSig, EvalError> {
        self.signatures
            .get(name)
            .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))
    }

    /// Was `name` admitted without the §3.3 positivity check?
    pub fn is_unchecked(&self, name: &str) -> bool {
        self.unchecked.contains(name)
    }
}

impl DefLookup for Defs {
    fn selector_body(&self, name: &str) -> Option<&Formula> {
        self.selector(name).ok().map(|s| &s.predicate)
    }

    fn constructor_parts(&self, name: &str) -> Option<(&SetFormer, Vec<Name>)> {
        let c = self.constructor(name).ok()?;
        let formals = std::iter::once(&c.base_param)
            .chain(&c.rel_params)
            .map(|(n, _)| n.clone())
            .collect();
        Some((&c.body, formals))
    }
}

/// The memo of constructor applications solved against one catalog
/// state, keyed by [`AppKey`]. The key covers an application's actual
/// values, not the relations its body reads by name (through a
/// quantifier, a selector or a nested application), so an entry is
/// valid for the state it was solved against and no other: a `Database`
/// clears its memo on every change, and each server snapshot starts an
/// empty one that every session of its epoch shares. The lock is held
/// for a map probe or insert only, and tolerates poisoning: a panicking
/// session must not wedge its siblings.
#[derive(Default)]
pub struct SolvedMemo {
    solved: RwLock<FxHashMap<AppKey, Relation>>,
}

impl SolvedMemo {
    /// The value of `name(base, args; scalar_args)` over `source`: the
    /// memoised one, or a fresh solve under `cfg`, memoised on success
    /// (a failed solve, panics included, leaves the memo as it was).
    /// Hits and misses are counted into `cfg.metrics`.
    pub fn apply(
        &self,
        source: &dyn ConstructorSource,
        name: &str,
        base: Relation,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
        cfg: &FixpointConfig,
    ) -> Result<Relation, EvalError> {
        let key = AppKey::new(name, &base, &args, &scalar_args);
        let hit = self.read().get(&key).cloned();
        if let Some(m) = &cfg.metrics {
            m.inc(if hit.is_some() {
                Counter::WarmSolvedHits
            } else {
                Counter::WarmSolvedMisses
            });
        }
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let system = fixpoint::solve(source, name, base, args, scalar_args, None, cfg)?;
        Ok(self.insert(key, system.value().clone()))
    }

    /// Memoise `value` under `key` unless an entry is there already, and
    /// return the memoised value: the first writer wins, and every
    /// writer of one state holds the same answer.
    pub fn insert(&self, key: AppKey, value: Relation) -> Relation {
        self.solved
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(value)
            .clone()
    }

    /// Forget every entry.
    pub fn clear(&self) {
        self.solved
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Memoised applications.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Is the memo empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, FxHashMap<AppKey, Relation>> {
        self.solved.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Type-check `query` against `schemas` and evaluate it with `ev`,
/// returning the planner's typed decision trace rendered as an
/// `EXPLAIN` tree instead of the result relation: the chosen access
/// path per branch (probe vs. scan, with the estimates behind the
/// ordering), quantifier-plan demotions, and correlated ranges left on
/// the reference scan, each with its reason.
pub fn explain(
    schemas: &dyn SchemaCatalog,
    mut ev: Evaluator<'_>,
    query: &RangeExpr,
) -> Result<Explanation, EvalError> {
    typeck::check_range(query, schemas)?;
    let rel = ev.eval(query)?;
    Ok(Explanation::new(
        &query.to_string(),
        Some(rel.len()),
        ev.take_plan_events(),
    ))
}
