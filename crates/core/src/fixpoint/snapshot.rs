//! Snapshot evaluation: the frozen catalog view branch tasks read, the
//! registration log they return for single-threaded replay, and the one
//! reachability walk that decides what the frozen view contains.
//!
//! The solver's round scheduler hands every branch evaluation of a
//! round to the worker pool, which may run them on worker threads. A
//! worker cannot touch the solver's `RefCell` state or the caller's
//! base catalog (`&dyn Catalog` is not `Sync`). So evaluation is split
//! in two:
//!
//! * **Frozen reads.** [`EvalSnapshot`] is an immutable, `Arc`-shared
//!   view of everything a branch evaluation can resolve, captured
//!   between two commits: the equation values (`current`), the
//!   registered-application index, and the [`Universe`] — the slice of
//!   the base catalog (relations, selector definitions, scalar
//!   parameters) and the constructor definitions the solve can reach,
//!   resolved once per solve by [`Reach`] before the first
//!   registration. Snapshot construction is cheap: relations are
//!   copy-on-write handles, so a freeze is O(equations) pointer bumps.
//! * **Logged registrations.** [`SnapshotCatalog`] implements
//!   [`Catalog`] over a snapshot. Reads resolve from the frozen view; a
//!   first-sighting constructor application — the one thing the mutable
//!   solver catalog would have *recorded in solver state* — is instead
//!   appended to a per-task log of [`Application`]s. The solver replays
//!   the logs single-threaded at the commit site, in task order, through
//!   the same instantiation path as every other registration, so
//!   registration and commits stay serialized exactly as on the
//!   sequential path.
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
//! Logs are replayed in task order (equation-ascending, then branch
//! order within an equation — the sequential evaluation order), and a
//! task's log is replayed before its value is absorbed. Replay is
//! idempotent by [`AppKey`], so two tasks discovering the same
//! application converge to one registration, deterministically.
//! Everything replayed lives in solver-private state: an abort
//! mid-replay leaves the caller-visible database untouched (the
//! atomic-abort invariant).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use dc_calculus::ast::{Name, RangeExpr, ScalarExpr, SelectorDef};
use dc_calculus::rewrite::{self, Node};
use dc_calculus::{AccessCache, Catalog, EvalError};
use dc_relation::Relation;
use dc_value::{FxHashMap, FxHashSet, Value};

use super::{AppKey, Application};
use crate::catalog::Defs;
use crate::constructor::Constructor;

/// The one reachability walker: every name a range or formula can
/// reach, chasing selector predicates and constructor bodies through
/// the definitions. The solver walks the root constructor once per
/// solve — its reach decides the strategy and becomes the solve's
/// universe — a warm start walks each branch (through the universe)
/// for the touched relations it reads, and the serving layer walks a
/// prepared query for its read set.
///
/// Inside a constructor body the body's own relation formals shadow
/// catalog relations of the same names, so they are not collected
/// there: the actuals are collected where the application is written.
/// A selector body chased from inside a constructor body is a scope of
/// its own and reads the catalog.
pub struct Reach<'d> {
    defs: &'d Defs,
    relations: FxHashSet<Name>,
    params: FxHashSet<Name>,
    /// The selectors and constructors reached, with the unchecked
    /// marks of the latter.
    reached: Defs,
    /// False when a selector or constructor definition was
    /// unresolvable: the reach is then a lower bound.
    complete: bool,
}

impl<'d> Reach<'d> {
    /// An empty reach resolving definitions through `defs`.
    pub fn new(defs: &'d Defs) -> Reach<'d> {
        Reach {
            defs,
            relations: FxHashSet::default(),
            params: FxHashSet::default(),
            reached: Defs::default(),
            complete: true,
        }
    }

    /// Add what a range or formula reads, in one walk: its relations and
    /// parameters, and its selectors and constructor applications,
    /// chased into their definitions.
    pub fn add<'a>(&mut self, node: impl Into<Node<'a>>) {
        self.scope(node, &[]);
    }

    /// [`Reach::add`] for a node in which the relation names `formals`
    /// are bound by an enclosing constructor body.
    fn scope<'a>(&mut self, node: impl Into<Node<'a>>, formals: &[Name]) {
        let (mut selectors, mut ctors) = (Vec::new(), Vec::new());
        let _ = rewrite::walk(node, |n, _| {
            match n {
                Node::Range(RangeExpr::Rel(name)) if !formals.contains(name) => {
                    self.relations.insert(name.clone());
                }
                Node::Range(RangeExpr::Selected { selector, .. }) => selectors.push(selector),
                Node::Range(RangeExpr::Constructed { constructor, .. }) => ctors.push(constructor),
                Node::Scalar(ScalarExpr::Param(p)) => {
                    self.params.insert(p.clone());
                }
                _ => {}
            }
            ControlFlow::Continue(())
        });
        for name in selectors {
            if self.reached.selectors.contains_key(name) {
                continue;
            }
            match self.defs.selectors.get(name) {
                Some(sel) => {
                    self.reached.selectors.insert(name.clone(), sel.clone());
                    self.add(&sel.def().predicate);
                }
                None => self.complete = false,
            }
        }
        for name in ctors {
            self.constructor(name);
        }
    }

    pub(super) fn constructor(&mut self, name: &str) {
        if self.reached.constructors.contains_key(name) {
            return;
        }
        match self.defs.constructors.get(name) {
            Some(def) => {
                if self.defs.is_unchecked(name) {
                    self.reached.unchecked.insert(name.to_string());
                }
                self.reached
                    .constructors
                    .insert(name.to_string(), def.clone());
                let formals: Vec<Name> = def.rel_formals().cloned().collect();
                self.scope(&RangeExpr::SetFormer(def.body.clone()), &formals);
            }
            None => self.complete = false,
        }
    }

    /// The catalog relations the reach reads, sorted; `None` when a
    /// definition was unresolvable, so that anything may be read.
    pub fn reads(&self) -> Option<BTreeSet<Name>> {
        self.complete
            .then(|| self.relations.iter().cloned().collect())
    }

    /// Can the reach read a relation `touched` accepts — a delta-mapped
    /// local name or a raw base-catalog name? An incomplete reach counts
    /// as touching (conservative).
    pub(super) fn hits(&self, touched: impl Fn(&str) -> bool) -> bool {
        !self.complete || self.relations.iter().any(|n| touched(n))
    }

    /// Does the reach include a constructor admitted without the §3.3
    /// positivity check?
    pub(super) fn any_unchecked(&self) -> bool {
        !self.reached.unchecked.is_empty()
    }

    /// Resolve everything reached against the base catalog `cat`. Names
    /// that fail to resolve are simply absent, so frozen evaluation
    /// raises the same `Unknown*` error the solver catalog would.
    pub(super) fn into_universe(self, cat: &dyn Catalog) -> Universe {
        Universe {
            relations: self
                .relations
                .into_iter()
                .filter_map(|n| Some((n.clone(), cat.relation(&n).ok()?)))
                .collect(),
            params: self
                .params
                .into_iter()
                .filter_map(|n| Some((n.clone(), cat.scalar_param(&n).ok()?)))
                .collect(),
            defs: self.reached,
        }
    }
}

/// Everything a solve can resolve by name, fixed before its first
/// registration: the reachable slice of the base catalog, and the
/// definitions every equation is instantiated from.
pub(super) struct Universe {
    /// Base-relation values (immutable for the duration of a solve).
    pub relations: FxHashMap<Name, Relation>,
    /// Scalar parameters resolvable from the base catalog.
    pub params: FxHashMap<Name, Value>,
    /// Selector and constructor definitions, closed transitively over
    /// their predicates and bodies.
    pub defs: Defs,
}

impl Universe {
    /// The definition `app` instantiates, after the checks every
    /// registration path makes, in one order — so a malformed
    /// application raises the identical error class under every thread
    /// count: unknown constructor, relation arity, scalar arity, scalar
    /// domains.
    pub(super) fn definition(&self, app: &Application) -> Result<&Constructor, EvalError> {
        let ctor = self.defs.constructor(app.key.constructor())?;
        ctor.check_actuals(app.args.len(), &app.scalar_args)?;
        Ok(ctor)
    }
}

/// The immutable view one round's branch tasks evaluate against. See
/// the [module docs](self) for what is frozen and why the freeze is
/// cheap.
pub(super) struct EvalSnapshot {
    /// The solve's resolved names.
    pub universe: Arc<Universe>,
    /// Registered applications → equation index.
    pub index: FxHashMap<AppKey, usize>,
    /// Per-equation accumulated values (COW handles).
    pub current: Vec<Relation>,
    /// The solve's access cache (shared, not frozen: tasks fill it).
    pub access: Arc<AccessCache>,
}

// Snapshots cross thread boundaries by design; assert the contract at
// compile time so a field change cannot silently break it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EvalSnapshot>();
    assert_send_sync::<Application>();
};

/// The per-task [`Catalog`]: frozen reads, logged registrations.
/// Constructed on the worker from the `Arc`-shared snapshot; consumed
/// with [`SnapshotCatalog::into_effects`] after evaluation.
pub(super) struct SnapshotCatalog {
    snap: Arc<EvalSnapshot>,
    effects: RefCell<Vec<Application>>,
}

impl SnapshotCatalog {
    pub(super) fn new(snap: Arc<EvalSnapshot>) -> SnapshotCatalog {
        SnapshotCatalog {
            snap,
            effects: RefCell::new(Vec::new()),
        }
    }

    /// The ordered registration log, for single-threaded replay.
    pub(super) fn into_effects(self) -> Vec<Application> {
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
        self.snap.universe.defs.selector(name)
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
    /// sightings are validated against the frozen definition, logged
    /// for replay-time registration, and valued at `∅ : result` —
    /// exactly the value the sequential path would return for an
    /// equation registered mid-round.
    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        let app = Application::new(name, base, args, scalar_args);
        if let Some(&i) = self.snap.index.get(&app.key) {
            return Ok(self.snap.current[i].clone());
        }
        let value = Relation::new(self.snap.universe.definition(&app)?.result.clone());
        self.effects.borrow_mut().push(app);
        Ok(value)
    }

    fn access(&self) -> Option<&AccessCache> {
        Some(&self.snap.access)
    }
}

#[cfg(test)]
mod tests {
    use dc_calculus::ast::{Branch, SetFormer};
    use dc_calculus::builder::*;
    use dc_value::{Domain, Schema};

    use super::*;
    use crate::Database;

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    /// A constructor over `infrontrel` whose base formal is `formal` and
    /// whose one branch ranges over `range`.
    fn each_of(name: &str, formal: &str, range: RangeExpr) -> Constructor {
        Constructor {
            name: name.into(),
            base_param: (formal.into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: infrontrel(),
            body: SetFormer {
                branches: vec![Branch::each("r", range, tru())],
            },
        }
    }

    /// `Infront`, `Ontop`, `Blocked`, `Hidden`, `Seed`; the `ahead`
    /// closure over formal `Rel`; the selector `shadowed`, whose body
    /// quantifies over `Hidden`; `behind`, whose formal is named like
    /// the catalog's `Ontop`; and `hiding`, whose formal is named like
    /// `Hidden` and which applies `shadowed` to it.
    fn db() -> Database {
        let mut db = Database::new();
        for name in ["Infront", "Ontop", "Blocked", "Hidden", "Seed"] {
            db.create_relation(name, infrontrel()).unwrap();
        }
        db.define_selector(
            SelectorDef {
                name: "shadowed".into(),
                element_var: "r".into(),
                params: vec![],
                predicate: some(
                    "h",
                    rel("Hidden"),
                    eq(attr("h", "front"), attr("r", "front")),
                ),
            },
            infrontrel(),
        )
        .unwrap();
        let mut ahead = each_of("ahead", "Rel", rel("Rel"));
        ahead.body.branches.push(Branch::projecting(
            vec![attr("f", "front"), attr("b", "back")],
            vec![
                ("f".into(), rel("Rel")),
                ("b".into(), rel("Rel").construct("ahead", vec![])),
            ],
            eq(attr("f", "back"), attr("b", "front")),
        ));
        db.define_constructor(ahead).unwrap();
        db.define_constructor(each_of("behind", "Ontop", rel("Ontop")))
            .unwrap();
        let hidden = rel("Hidden").select("shadowed", vec![]);
        db.define_constructor(each_of("hiding", "Hidden", hidden))
            .unwrap();
        db
    }

    fn reads(query: &RangeExpr) -> Option<Vec<Name>> {
        let db = db();
        let mut reach = Reach::new(&db.defs);
        reach.add(query);
        Some(reach.reads()?.into_iter().collect())
    }

    #[test]
    fn binding_ranges_and_predicates_are_read() {
        let q = set_former(vec![Branch::projecting(
            vec![attr("f", "front"), attr("b", "back")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Ontop"))],
            eq(attr("f", "back"), attr("b", "front")).and(not(member("f", rel("Blocked")))),
        )]);
        assert_eq!(reads(&q).unwrap(), ["Blocked", "Infront", "Ontop"]);
    }

    #[test]
    fn an_application_reads_its_actuals_not_the_formals() {
        // The body's `Rel` is the formal; the recursive self-application
        // is chased once.
        let q = rel("Infront").construct("ahead", vec![]);
        assert_eq!(reads(&q).unwrap(), ["Infront"]);
    }

    #[test]
    fn selector_bodies_are_chased() {
        let q = rel("Infront").select("shadowed", vec![]);
        assert_eq!(reads(&q).unwrap(), ["Hidden", "Infront"]);
    }

    #[test]
    fn an_unknown_definition_leaves_the_reads_unresolved() {
        assert_eq!(reads(&rel("Infront").select("mystery", vec![])), None);
        assert_eq!(reads(&rel("Infront").construct("mystery", vec![])), None);
    }

    #[test]
    fn a_computed_base_is_read() {
        let seed = set_former(vec![Branch::each("s", rel("Seed"), tru())]);
        assert_eq!(reads(&seed.construct("ahead", vec![])).unwrap(), ["Seed"]);
    }

    #[test]
    fn a_formal_named_like_a_catalog_relation_is_not_read() {
        let q = rel("Infront").construct("behind", vec![]);
        assert_eq!(reads(&q).unwrap(), ["Infront"]);
    }

    #[test]
    fn a_selector_body_chased_from_a_constructor_body_reads_the_catalog() {
        // Inside `hiding`, `Hidden` is the formal; inside `shadowed`, the
        // selector it applies, `Hidden` is the catalog relation.
        let q = rel("Infront").construct("hiding", vec![]);
        assert_eq!(reads(&q).unwrap(), ["Hidden", "Infront"]);
    }
}
