//! The catalog core `Database` and the serving layer share: one
//! definitions type, one memo of solved applications, one test for a
//! named application, one `EXPLAIN` body.

use std::sync::{PoisonError, RwLock};

use dc_calculus::ast::{Name, ScalarExpr, SelectorDef};
use dc_calculus::typeck::{self, ConstructorSig, SchemaCatalog};
use dc_calculus::{joinplan, Catalog, EvalError, Evaluator, Explanation, PlanEvent, RangeExpr};
use dc_relation::Relation;
use dc_trace::metrics::Counter;
use dc_value::{FxHashMap, FxHashSet, Schema, Value};

use crate::constructor::Constructor;
use crate::fixpoint::{self, AppKey, FixpointConfig};
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
    /// The value of `name(base, args; scalar_args)` under `defs` over
    /// the catalog `cat`: the memoised one, or a fresh solve under
    /// `cfg`, memoised on success (a failed solve, panics included,
    /// leaves the memo as it was). Hits and misses are counted into
    /// `cfg.metrics`.
    #[allow(clippy::too_many_arguments)]
    pub fn apply(
        &self,
        defs: &Defs,
        cat: &dyn Catalog,
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
        let system = fixpoint::solve(defs, cat, name, base, args, scalar_args, cfg)?;
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

/// A *named application* `Rel{c(R1, …; k1, …)}`: a constructor applied
/// to catalog relations by name, with constant scalar arguments — the
/// standing query a server maintains warm, and the definition whose
/// plan `EXPLAIN` previews without running the fixpoint. This test
/// alone decides both.
#[derive(Debug)]
pub struct NamedApplication<'a> {
    /// The base relation's catalog name.
    pub base: &'a str,
    /// The constructor's name.
    pub constructor: &'a str,
    /// The relation arguments' catalog names.
    pub args: Vec<&'a str>,
    /// The scalar arguments.
    pub scalar_args: Vec<Value>,
}

impl<'a> NamedApplication<'a> {
    /// `query` as a named application, if it is one. At the top of a
    /// query every relation name is a catalog name.
    pub fn of(query: &'a RangeExpr) -> Option<NamedApplication<'a>> {
        let RangeExpr::Constructed {
            base,
            constructor,
            args,
            scalar_args,
        } = query
        else {
            return None;
        };
        let name = |r: &'a RangeExpr| match r {
            RangeExpr::Rel(n) => Some(n.as_str()),
            _ => None,
        };
        let constant = |e: &ScalarExpr| match e {
            ScalarExpr::Const(v) => Some(*v),
            _ => None,
        };
        Some(NamedApplication {
            base: name(base)?,
            constructor,
            args: args.iter().map(name).collect::<Option<_>>()?,
            scalar_args: scalar_args.iter().map(constant).collect::<Option<_>>()?,
        })
    }

    /// The application as a range expression.
    pub fn expr(&self) -> RangeExpr {
        RangeExpr::rel(self.base).construct_with(
            self.constructor,
            self.args.iter().map(|n| RangeExpr::rel(*n)).collect(),
            self.scalar_args
                .iter()
                .map(|v| ScalarExpr::Const(*v))
                .collect(),
        )
    }
}

/// The planner's typed decision trace for `query`, which its entry
/// point has type-checked and rewritten ([`crate::compile::rewrite`]),
/// rendered as an `EXPLAIN` tree: the chosen access path
/// per branch and quantifier site (probe vs. scan, with the estimates
/// behind the ordering, and the residual each re-checks), and the
/// correlated ranges left to be scanned per outer combination.
///
/// A [`NamedApplication`] is previewed without running its fixpoint or
/// building an index: every branch of the constructor body in `defs`,
/// instantiated with the application's actuals, is planned against the
/// current cardinalities and the distinct counts of the indexes `cat`
/// already caches. An application that cannot be instantiated (a
/// scalar argument outside its parameter's domain) raises the error its
/// evaluation would. A range that is not a catalog relation
/// (a recursive application, a nested set-former) plans with its
/// checked schema and nothing known: its cardinality, and every
/// estimate built on it, renders as `?`. Any other query is evaluated
/// with `ev`: the trace is what evaluation did, plus the result
/// cardinality.
pub fn explain<C: Catalog + SchemaCatalog>(
    defs: &Defs,
    cat: &C,
    mut ev: Evaluator<'_>,
    query: &RangeExpr,
) -> Result<Explanation, EvalError> {
    let (rows, events) = match NamedApplication::of(query) {
        Some(app) => (None, preview(defs, cat, &app)?),
        // Copied, not taken: `ev` emits its trace as any evaluation does.
        None => (Some(ev.eval(query)?.len()), ev.plan_events().to_vec()),
    };
    Ok(Explanation::new(&query.to_string(), rows, events))
}

/// One access path per branch with bindings of `app`'s body, planned
/// over the catalog `cat` as it stands.
fn preview<C: Catalog + SchemaCatalog>(
    defs: &Defs,
    cat: &C,
    app: &NamedApplication<'_>,
) -> Result<Vec<PlanEvent>, EvalError> {
    let args = app.args.iter().map(|n| RangeExpr::rel(*n)).collect();
    let body = defs.constructor(app.constructor)?.instantiate(
        RangeExpr::rel(app.base),
        args,
        &app.scalar_args,
    )?;
    let mut events = Vec::new();
    for branch in body.branches.iter().filter(|b| !b.bindings.is_empty()) {
        let (mut schemas, mut cards, mut named) = (Vec::new(), Vec::new(), Vec::new());
        for (_, range) in &branch.bindings {
            let rel = match range {
                RangeExpr::Rel(name) => Some(cat.relation(name)?),
                _ => None,
            };
            schemas.push(match &rel {
                Some(rel) => rel.schema().clone(),
                None => typeck::check_range(range, cat)?,
            });
            cards.push(rel.as_ref().map(Relation::len));
            named.push(rel);
        }
        let schemas: Vec<&Schema> = schemas.iter().collect();
        let planned: Vec<usize> = cards.iter().map(|c| c.unwrap_or(0)).collect();
        // Only the counts of indexes already cached: a column without
        // one is unknown.
        let cached = |p: usize, column: usize| {
            let rel = named[p].as_ref()?;
            Some(cat.access()?.cached(rel, &[column])?.distinct_keys())
        };
        let atoms = joinplan::extract_eq_atoms(branch);
        let (plan, _) = joinplan::plan_branch(branch, &atoms, &schemas, &planned, cached);
        events.push(PlanEvent::access_path_for(
            branch, &plan, None, &schemas, &cards, cached,
        ));
    }
    Ok(events)
}
