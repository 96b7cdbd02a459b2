//! Snapshot evaluation: the frozen catalog view branch tasks read, and
//! the registration log they return for single-threaded replay.
//!
//! The solver's round scheduler hands every branch evaluation of a
//! round to [`dc_exec::run_tasks`], which may run them on worker
//! threads. A worker cannot touch the solver's `RefCell` state or the
//! caller's base catalog (`&dyn Catalog` is not `Sync`). So evaluation
//! is split in two:
//!
//! * **Frozen reads.** [`EvalSnapshot`] is an immutable, `Arc`-shared
//!   view of everything a branch evaluation can resolve, captured
//!   between two commits: the equation values (`current`), the
//!   registered-application index, and the [`Universe`] — the
//!   transitively reachable slice of the base catalog (relations,
//!   selector definitions, scalar parameters, constructor signatures),
//!   pre-resolved on the solver thread when each equation registers.
//!   Snapshot construction is cheap: relations are copy-on-write
//!   handles, so a freeze is O(equations) pointer bumps.
//! * **Logged registrations.** [`SnapshotCatalog`] implements
//!   [`Catalog`] over a snapshot. Reads resolve from the frozen view; a
//!   first-sighting constructor application — the one thing the mutable
//!   solver catalog would have *recorded in solver state* — is instead
//!   appended to a per-task [`Effect`] log. The solver replays the logs
//!   single-threaded at the commit site, in task order, so registration
//!   and commits stay serialized exactly as on the sequential path.
//!
//! Two side effects are *not* logged, because both commute. Meter
//! ticks: the [`dc_governor::Meter`] is `Arc`-shared and workers tick
//! it directly — which is what lets a deadline or tuple ceiling trip
//! *during* a parallel round rather than at replay. And cache fills:
//! the snapshot carries the solve's [`AccessCache`], whose entries are
//! a function of their storage-identity key, so workers insert straight
//! into it and whichever thread builds an entry first serves the rest.
//!
//! # Replay ordering guarantees
//!
//! Effects are replayed in task order (equation-ascending, then branch
//! order within an equation — the sequential evaluation order), and a
//! task's effects are replayed before its value is absorbed. Replay is
//! idempotent where the sequential path was (`register` by `AppKey`),
//! so two tasks discovering the same application converge to one
//! registration, deterministically. Everything replayed lives in
//! solver-private state: an abort mid-replay leaves the caller-visible
//! database untouched (the atomic-abort invariant).

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::sync::Arc;

use dc_calculus::ast::{Branch, Name, RangeExpr, SelectorDef, SetFormer, Target};
use dc_calculus::rewrite;
use dc_calculus::{AccessCache, Catalog, EvalError};
use dc_relation::Relation;
use dc_value::{Domain, FxHashMap, FxHashSet, Schema, Value};

use super::{AppKey, ConstructorSource};

/// The transitively reachable slice of the base catalog, pre-resolved
/// on the solver thread so frozen evaluation never needs the caller's
/// `&dyn Catalog`. Grown (behind `Arc::make_mut`) each time an equation
/// registers; name lookups that fail at capture time are simply absent,
/// so evaluation raises the same `Unknown*` error the sequential path
/// would.
#[derive(Clone, Default)]
pub(super) struct Universe {
    /// Base-relation values (immutable for the duration of a solve).
    pub relations: FxHashMap<Name, Relation>,
    /// Selector definitions, closed transitively over their predicates.
    pub selectors: FxHashMap<Name, SelectorDef>,
    /// Scalar parameters resolvable from the base catalog.
    pub params: FxHashMap<Name, Value>,
    /// Constructor signatures, for validating (and logging) worker-side
    /// first sightings of an application.
    pub ctors: FxHashMap<Name, CtorSig>,
}

/// What a worker needs to *validate* an unseen constructor application
/// without registering it: the registration itself is deferred to the
/// effect replay.
#[derive(Clone)]
pub(super) struct CtorSig {
    /// Constructor name (diagnostics).
    pub name: Name,
    /// Number of relation parameters.
    pub rel_params: usize,
    /// Scalar parameter names and domains (checked per application).
    pub scalar_params: Vec<(Name, Domain)>,
    /// Declared result schema — the value of a fresh application is
    /// `∅ : result`, matching the sequential path where every equation
    /// starts at the empty relation.
    pub result: Schema,
}

/// The immutable view one round's branch tasks evaluate against. See
/// the [module docs](self) for what is frozen and why the freeze is
/// cheap.
pub(super) struct EvalSnapshot {
    /// Pre-resolved base-catalog slice.
    pub universe: Arc<Universe>,
    /// Registered applications → equation index.
    pub index: FxHashMap<AppKey, usize>,
    /// Per-equation accumulated values (COW handles).
    pub current: Vec<Relation>,
    /// The solve's access cache (shared, not frozen: tasks fill it).
    pub access: Arc<AccessCache>,
}

/// One logged side effect of a frozen branch evaluation, replayed
/// single-threaded by the solver at the commit site.
pub(super) enum Effect {
    /// A first-sighting constructor application (validated against the
    /// frozen [`CtorSig`]; the replay performs the real registration
    /// and seeds the new equation's peers).
    Register {
        /// Constructor name.
        constructor: Name,
        /// Actual base relation.
        base: Relation,
        /// Actual relation arguments.
        args: Vec<Relation>,
        /// Actual scalar arguments.
        scalar_args: Vec<Value>,
    },
}

// Snapshots cross thread boundaries by design; assert the contract at
// compile time so a field change cannot silently break it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EvalSnapshot>();
    assert_send_sync::<Effect>();
};

/// Grow the universe with everything reachable from one equation body:
/// relation names, selector definitions (closed transitively over
/// their predicates), scalar parameters, and constructor signatures.
/// Over-capture is harmless — overridden formal names are shadowed by
/// the evaluation overlay before the snapshot catalog is consulted, and
/// never-probed entries just ride along as pointer bumps.
pub(super) fn capture_universe(
    universe: &mut Arc<Universe>,
    source: &dyn ConstructorSource,
    body: &SetFormer,
) {
    let range = RangeExpr::SetFormer(body.clone());
    let mut rels: FxHashSet<Name> = rewrite::relation_names(&range);
    let mut params: FxHashSet<Name> = rewrite::param_names(&range);
    let mut ctor_names: FxHashSet<Name> = constructed_names(&range);
    let mut pending: Vec<Name> = rewrite::selector_names(&range).into_iter().collect();

    let u = Arc::make_mut(universe);
    let mut seen: FxHashSet<Name> = FxHashSet::default();
    while let Some(s) = pending.pop() {
        if !seen.insert(s.clone()) {
            continue;
        }
        let def = if let Some(d) = u.selectors.get(&s) {
            d.clone()
        } else if let Ok(d) = source.base_catalog().selector(&s) {
            let d = d.clone();
            u.selectors.insert(s, d.clone());
            d
        } else {
            // Unresolvable: frozen evaluation raises the same
            // `UnknownSelector` the sequential path would.
            continue;
        };
        rels.extend(rewrite::relation_names_formula(&def.predicate));
        params.extend(rewrite::param_names_formula(&def.predicate));
        ctor_names.extend(constructed_names(&predicate_probe(&def)));
        pending.extend(rewrite::selector_names_formula(&def.predicate));
    }
    for n in rels {
        if let Entry::Vacant(e) = u.relations.entry(n) {
            if let Ok(v) = source.base_catalog().relation(e.key()) {
                e.insert(v);
            }
        }
    }
    for n in params {
        if let Entry::Vacant(e) = u.params.entry(n) {
            if let Ok(v) = source.base_catalog().scalar_param(e.key()) {
                e.insert(v);
            }
        }
    }
    for n in ctor_names {
        if let Entry::Vacant(e) = u.ctors.entry(n) {
            if let Ok(c) = source.constructor_def(e.key()) {
                e.insert(CtorSig {
                    name: c.name.clone(),
                    rel_params: c.rel_params.len(),
                    scalar_params: c.scalar_params.clone(),
                    result: c.result.clone(),
                });
            }
        }
    }
}

/// Wrap a selector predicate in a throwaway set-former so the
/// range-level constructor collector can walk it.
fn predicate_probe(def: &SelectorDef) -> RangeExpr {
    RangeExpr::SetFormer(SetFormer {
        branches: vec![Branch {
            target: Target::Var(def.element_var.clone()),
            bindings: vec![],
            predicate: def.predicate.clone(),
        }],
    })
}

/// Constructor names applied anywhere in a range expression.
fn constructed_names(range: &RangeExpr) -> FxHashSet<Name> {
    rewrite::collect_constructed(range)
        .into_iter()
        .filter_map(|c| match c {
            RangeExpr::Constructed { constructor, .. } => Some(constructor),
            _ => None,
        })
        .collect()
}

/// The per-task [`Catalog`]: frozen reads, logged registrations.
/// Constructed on the worker from the `Arc`-shared snapshot; consumed
/// with [`SnapshotCatalog::into_effects`] after evaluation.
pub(super) struct SnapshotCatalog {
    snap: Arc<EvalSnapshot>,
    effects: RefCell<Vec<Effect>>,
}

impl SnapshotCatalog {
    pub(super) fn new(snap: Arc<EvalSnapshot>) -> SnapshotCatalog {
        SnapshotCatalog {
            snap,
            effects: RefCell::new(Vec::new()),
        }
    }

    /// The ordered effect log, for single-threaded replay.
    pub(super) fn into_effects(self) -> Vec<Effect> {
        self.effects.into_inner()
    }
}

impl Catalog for SnapshotCatalog {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        self.snap
            .universe
            .relations
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))
    }

    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.snap
            .universe
            .selectors
            .get(name)
            .ok_or_else(|| EvalError::UnknownSelector(name.to_string()))
    }

    fn scalar_param(&self, name: &str) -> Result<Value, EvalError> {
        self.snap
            .universe
            .params
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownParam(name.to_string()))
    }

    /// Known applications resolve to the frozen current iterate; first
    /// sightings are validated against the frozen signature, logged for
    /// replay-time registration, and valued at `∅ : result` — exactly
    /// the value the sequential path would return for an equation
    /// registered mid-round.
    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        let key = AppKey::new(name, &base, &args, &scalar_args);
        if let Some(&i) = self.snap.index.get(&key) {
            return Ok(self.snap.current[i].clone());
        }
        let sig = self
            .snap
            .universe
            .ctors
            .get(name)
            .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))?;
        // Mirror `State::register`'s check order, so a malformed
        // application raises the identical error class under every
        // thread count.
        if args.len() != sig.rel_params {
            return Err(EvalError::ArityMismatch {
                name: sig.name.clone(),
                expected: sig.rel_params,
                actual: args.len(),
            });
        }
        if scalar_args.len() != sig.scalar_params.len() {
            return Err(EvalError::ArityMismatch {
                name: sig.name.clone(),
                expected: sig.scalar_params.len(),
                actual: scalar_args.len(),
            });
        }
        for ((_, pdom), v) in sig.scalar_params.iter().zip(&scalar_args) {
            pdom.check(v)?;
        }
        let value = Relation::new(sig.result.clone());
        self.effects.borrow_mut().push(Effect::Register {
            constructor: name.to_string(),
            base,
            args,
            scalar_args,
        });
        Ok(value)
    }

    fn access(&self) -> Option<&AccessCache> {
        Some(&self.snap.access)
    }
}
