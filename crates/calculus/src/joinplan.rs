//! Join planning for set-former branches: turn conjunctive equality
//! predicates into indexed access paths.
//!
//! The paper's set-oriented evaluation claim (§3) assumes the engine
//! evaluates a branch such as
//!
//! ```text
//! <f.front, b.back> OF EACH f, b IN Infront: f.back = b.front
//! ```
//!
//! as a *join*, not as a filtered cross product. Nested loops over
//! the ranges enumerate `|Infront|²` combinations; this
//! module recovers the join structure statically so the evaluator can
//! run an **index-nested-loop join** instead: scan one range, and for
//! every other range probe a [`dc_index::HashIndex`] keyed on the
//! equality columns, touching only matching tuples.
//!
//! The pass has two halves:
//!
//! * [`extract_eq_atoms`] walks the branch predicate's top-level
//!   conjunction and collects equality atoms `x.a = rhs` where `x` is a
//!   branch-bound variable and `rhs` is a constant, a parameter, an
//!   outer (enclosing-scope) attribute, or another branch variable's
//!   attribute. Atoms under `OR` / `NOT` / quantifiers are *not*
//!   extracted — they stay in the residual predicate. A quantifier
//!   site is planned the same way, as the one-binding branch §4's
//!   N2/N3 scan (`SOME x IN R (p)` scans `{EACH x IN R: p}`), so its
//!   probe keys are this function's atoms too.
//! * [`plan_branch`] orders the branch's binding positions greedily by
//!   estimated cost, using range cardinalities and the System-R
//!   `1/distinct` equality selectivity: at each step it picks the
//!   cheapest position, preferring positions whose equality atoms are
//!   fully bound by earlier steps (an index probe) over full scans.
//!   Distinct counts are asked for only where a step compares
//!   candidates whose estimates read them; the evaluator answers with
//!   the bucket count of the column's hash index.
//!
//! A plan only skips combinations that equality atoms already reject:
//! the executor re-evaluates every conjunct a realised probe key does
//! not decide (`residual_conjuncts`) on every surviving combination,
//! so semantics (including error semantics for the residual) are
//! unchanged. The executor also *demotes* atoms it cannot realise
//! safely (unknown parameters, unresolvable outer variables, cross-type
//! keys) back to the residual, so planning never has to be
//! conservative about evaluation-time concerns.

use dc_value::Schema;

use crate::ast::{Branch, CmpOp, Formula, ScalarExpr, Var};
use crate::rewrite::{self, conjuncts};

/// The non-probed side of an equality atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeySource {
    /// `attr` of the branch variable bound at `position` — a genuine
    /// join key, usable once that position is bound.
    Binding {
        /// Binding position (index into `branch.bindings`).
        position: usize,
        /// Attribute name on that binding's range.
        attr: String,
    },
    /// An expression free of *branch* variables: a constant, a
    /// parameter, or an outer variable's attribute. Usable immediately.
    Free(ScalarExpr),
}

/// One usable equality atom: `bindings[position].attr = source`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqAtom {
    /// The probed binding position.
    pub position: usize,
    /// The probed attribute name.
    pub attr: String,
    /// The key-producing side.
    pub source: KeySource,
}

/// How one binding position is enumerated by the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// Iterate every tuple of the range.
    Scan,
    /// Probe a hash index on the atoms' attributes with keys computed
    /// from already-bound values.
    Probe(Vec<EqAtom>),
}

/// One step of a branch plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// The binding position this step enumerates.
    pub position: usize,
    /// Scan or probe.
    pub access: Access,
}

/// An ordered access plan covering every binding position of a branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPlan {
    /// Steps in execution order; each binding position appears exactly
    /// once.
    pub steps: Vec<PlanStep>,
}

impl BranchPlan {
    /// The trivial plan: scan every position in declaration order — the
    /// nested loop over the ranges as written.
    pub fn all_scans(n: usize) -> BranchPlan {
        BranchPlan {
            steps: (0..n)
                .map(|position| PlanStep {
                    position,
                    access: Access::Scan,
                })
                .collect(),
        }
    }
}

/// Does the expression avoid every branch variable? (Then it is
/// evaluable before the branch loops start: constants, parameters,
/// outer variables.)
fn free_of_branch_vars(e: &ScalarExpr, branch_vars: &[&Var]) -> bool {
    !rewrite::mentions_free(e, |v| branch_vars.iter().any(|b| *b == v))
}

/// `e` as `position.attr` of a branch variable, if it is exactly that.
fn as_branch_attr(e: &ScalarExpr, branch: &Branch) -> Option<(usize, String)> {
    if let ScalarExpr::Attr(v, a) = e {
        // Innermost declaration wins, matching evaluator name lookup.
        branch
            .bindings
            .iter()
            .rposition(|(bv, _)| bv == v)
            .map(|pos| (pos, a.clone()))
    } else {
        None
    }
}

/// Extract the equality atoms of a branch usable as probe keys.
///
/// Only top-level conjuncts of the form `x.a = rhs` (or mirrored)
/// qualify, where `x` is a branch variable and `rhs` is either free of
/// branch variables ([`KeySource::Free`]) or another branch variable's
/// attribute ([`KeySource::Binding`], emitted symmetrically for both
/// directions). Branches with shadowed (duplicate) binding names yield
/// no atoms: reordering their loops would change name resolution.
pub fn extract_eq_atoms(branch: &Branch) -> Vec<EqAtom> {
    let branch_vars: Vec<&Var> = branch.bindings.iter().map(|(v, _)| v).collect();
    {
        let mut seen = branch_vars.clone();
        seen.sort();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Vec::new();
        }
    }
    let mut atoms = Vec::new();
    for c in conjuncts(&branch.predicate) {
        conjunct_atoms(c, branch, &branch_vars, &mut atoms);
    }
    atoms
}

/// The equality atoms one top-level conjunct contributes (none, one, or
/// a symmetric binding–binding pair), appended to `atoms`.
fn conjunct_atoms(c: &Formula, branch: &Branch, branch_vars: &[&Var], atoms: &mut Vec<EqAtom>) {
    let Formula::Cmp(l, CmpOp::Eq, r) = c else {
        return;
    };
    match (as_branch_attr(l, branch), as_branch_attr(r, branch)) {
        (Some((lp, la)), Some((rp, ra))) if lp != rp => {
            atoms.push(EqAtom {
                position: lp,
                attr: la.clone(),
                source: KeySource::Binding {
                    position: rp,
                    attr: ra.clone(),
                },
            });
            atoms.push(EqAtom {
                position: rp,
                attr: ra,
                source: KeySource::Binding {
                    position: lp,
                    attr: la,
                },
            });
        }
        (Some((lp, la)), None) if free_of_branch_vars(r, branch_vars) => {
            atoms.push(EqAtom {
                position: lp,
                attr: la,
                source: KeySource::Free(r.clone()),
            });
        }
        (None, Some((rp, ra))) if free_of_branch_vars(l, branch_vars) => {
            atoms.push(EqAtom {
                position: rp,
                attr: ra,
                source: KeySource::Free(l.clone()),
            });
        }
        _ => {}
    }
}

/// The **residual** of a branch: its predicate's top-level conjuncts,
/// in source order, minus every conjunct one of the `realised` probe
/// atoms decides. A probe realises an atom only when the key is safe —
/// resolved, and of the probed column's base type — so the covered
/// conjunct holds on every combination the probe yields and can never
/// raise; dropping it changes neither results nor errors. A demoted
/// atom is simply not in `realised`, and its conjunct stays.
///
/// The one definition of what the executor's leaf re-checks per row
/// and of what `EXPLAIN` reports as the residual.
pub(crate) fn residual_conjuncts<'b>(branch: &'b Branch, realised: &[&EqAtom]) -> Vec<&'b Formula> {
    let branch_vars: Vec<&Var> = branch.bindings.iter().map(|(v, _)| v).collect();
    let mut atoms = Vec::new();
    conjuncts(&branch.predicate)
        .into_iter()
        .filter(|c| {
            atoms.clear();
            conjunct_atoms(c, branch, &branch_vars, &mut atoms);
            !atoms.iter().any(|a| realised.contains(&a))
        })
        .collect()
}

/// The System-R `1/distinct` selectivity of an equality on a column
/// with `distinct` values; 1.0 — no information — for a count nobody
/// knows or an empty column.
pub fn eq_selectivity(distinct: Option<usize>) -> f64 {
    match distinct {
        Some(d) if d > 0 => 1.0 / d as f64,
        _ => 1.0,
    }
}

/// One distinct count [`plan_branch`] asked its source for: column
/// `column` of the range bound at `position` holds `distinct` values
/// (`None` when the source could not tell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistinctCount {
    /// Binding position of the counted range.
    pub position: usize,
    /// Column of that range.
    pub column: usize,
    /// The answer.
    pub distinct: Option<usize>,
}

/// System-R estimate of the number of combinations a branch emits:
/// the cross-product cardinality reduced by `1/distinct` for every
/// equality conjunct the branch carries (constant keys use the probed
/// column's distinct count; cross-binding join keys use the larger
/// side's, the classic equi-join estimate). Symmetric binding–binding
/// atom pairs emitted by [`extract_eq_atoms`] are counted once. What
/// `EXPLAIN` reports as a branch's estimated rows. `known` answers the
/// distinct count of a (position, column) from counts already at hand
/// — it never builds anything — and a count it does not know reads as
/// no information.
pub fn estimate_branch_rows(
    branch: &Branch,
    schemas: &[&Schema],
    cards: &[usize],
    known: impl Fn(usize, usize) -> Option<usize>,
) -> f64 {
    debug_assert_eq!(schemas.len(), branch.bindings.len());
    debug_assert_eq!(cards.len(), branch.bindings.len());
    let sel = |position: usize, attr: &str| {
        schemas[position]
            .position(attr)
            .map_or(1.0, |column| eq_selectivity(known(position, column)))
    };
    let mut est: f64 = cards.iter().map(|&c| c as f64).product();
    for atom in extract_eq_atoms(branch) {
        match &atom.source {
            KeySource::Free(_) => est *= sel(atom.position, &atom.attr),
            // Each conjunct appears in both directions; count the
            // canonical one.
            KeySource::Binding { position, attr } if atom.position < *position => {
                est *= sel(atom.position, &atom.attr).min(sel(*position, attr));
            }
            KeySource::Binding { .. } => {}
        }
    }
    est
}

/// Order the branch's binding positions into an index-nested-loop plan.
///
/// Greedy System-R-style ordering: repeatedly pick the unbound position
/// with the lowest estimated enumeration cost, where a position whose
/// equality atoms are all *available* (sources free, or bound by
/// earlier steps) costs `cardinality × Π 1/distinct(attr)` and an
/// unsupported position costs its full cardinality. Ties break toward
/// declaration order, so plans are deterministic and the no-atom case
/// degenerates to declaration order, all scans.
///
/// `atoms` are the branch's [`extract_eq_atoms`], extracted once by the
/// caller. `cards` are the ranges' cardinalities. Distinct counts are *asked
/// for*, through `count(position, column)`, only where a decision reads
/// them: for the usable atoms of each candidate of a step that compares
/// two or more candidates — once per (position, column). The last step
/// has no alternative, and a step whose candidates have no usable atom
/// compares cardinalities alone, so a two-binding branch keyed only by
/// the other binding asks for nothing. The counts asked for are
/// returned with the plan, for rendering.
///
/// ```
/// use dc_calculus::ast::Branch;
/// use dc_calculus::builder::*;
/// use dc_calculus::joinplan::{extract_eq_atoms, plan_branch, Access};
/// use dc_value::{Domain, Schema};
///
/// // The paper's §2.3 join: <f.front, b.back> OF EACH f, b IN Infront:
/// //   f.back = b.front
/// let branch = Branch::projecting(
///     vec![attr("f", "front"), attr("b", "back")],
///     vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
///     eq(attr("f", "back"), attr("b", "front")),
/// );
/// let schema = Schema::of(&[("front", Domain::Str), ("back", Domain::Str)]);
/// let atoms = extract_eq_atoms(&branch);
/// let (plan, asked) =
///     plan_branch(&branch, &atoms, &[&schema, &schema], &[100, 100], |_, _| Some(50));
/// // One range is scanned, the other probed through a hash index on
/// // the equality column — an index-nested-loop join, not a cross
/// // product — and no decision needed a distinct count.
/// assert!(matches!(plan.steps[0].access, Access::Scan));
/// assert!(matches!(plan.steps[1].access, Access::Probe(_)));
/// assert!(asked.is_empty());
/// ```
pub fn plan_branch(
    branch: &Branch,
    atoms: &[EqAtom],
    schemas: &[&Schema],
    cards: &[usize],
    mut count: impl FnMut(usize, usize) -> Option<usize>,
) -> (BranchPlan, Vec<DistinctCount>) {
    let n = branch.bindings.len();
    debug_assert_eq!(schemas.len(), n);
    debug_assert_eq!(cards.len(), n);
    let mut asked: Vec<DistinctCount> = Vec::new();
    if atoms.is_empty() {
        return (BranchPlan::all_scans(n), asked);
    }
    let mut distinct = |position: usize, column: usize| {
        if let Some(c) = asked
            .iter()
            .find(|c| (c.position, c.column) == (position, column))
        {
            return c.distinct;
        }
        let d = count(position, column);
        asked.push(DistinctCount {
            position,
            column,
            distinct: d,
        });
        d
    };
    let mut bound = vec![false; n];
    let mut steps = Vec::with_capacity(n);
    for remaining in (1..=n).rev() {
        let compared = remaining > 1;
        let mut best: Option<(f64, usize, bool)> = None;
        for p in (0..n).filter(|&p| !bound[p]) {
            let mut est = cards[p] as f64;
            let mut probes = false;
            for a in usable(atoms, p, &bound) {
                probes = true;
                if let (true, Ok(column)) = (compared, schemas[p].position(&a.attr)) {
                    est *= eq_selectivity(distinct(p, column));
                }
            }
            // Prefer probes over scans at equal estimates.
            let better = match best {
                None => true,
                Some((best_est, _, best_probes)) => {
                    est < best_est || (est == best_est && !best_probes && probes)
                }
            };
            if better {
                best = Some((est, p, probes));
            }
        }
        // `remaining` counts the unbound positions, so the inner loop
        // always proposes a candidate.
        let Some((_, p, _)) = best else {
            debug_assert!(false, "an unbound position always exists");
            break;
        };
        let usable: Vec<EqAtom> = usable(atoms, p, &bound).cloned().collect();
        bound[p] = true;
        steps.push(PlanStep {
            position: p,
            access: if usable.is_empty() {
                Access::Scan
            } else {
                Access::Probe(usable)
            },
        });
    }
    (BranchPlan { steps }, asked)
}

/// The atoms probing position `p` whose keys are available once the
/// `bound` positions are: free ones, and those read from a bound one.
fn usable<'a>(
    atoms: &'a [EqAtom],
    p: usize,
    bound: &'a [bool],
) -> impl Iterator<Item = &'a EqAtom> {
    atoms.iter().filter(move |a| {
        a.position == p
            && match &a.source {
                KeySource::Free(_) => true,
                KeySource::Binding { position, .. } => bound[*position],
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use dc_index::RelationStats;
    use dc_value::{Domain, Schema};

    fn edge_schema() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn stats(cardinality: usize, distinct: &[usize]) -> RelationStats {
        RelationStats {
            cardinality,
            distinct: distinct.to_vec(),
        }
    }

    /// The eager planner: full statistics for every range, every
    /// candidate's estimate read in full. Returns the plan and the
    /// (position, column) counts it read at steps comparing two or more
    /// candidates.
    fn eager_plan(
        branch: &Branch,
        schemas: &[&Schema],
        stats: &[RelationStats],
    ) -> (BranchPlan, Vec<(usize, usize)>) {
        let n = branch.bindings.len();
        let atoms = extract_eq_atoms(branch);
        let mut compared_reads = Vec::new();
        if atoms.is_empty() {
            return (BranchPlan::all_scans(n), compared_reads);
        }
        let mut bound = vec![false; n];
        let mut steps = Vec::new();
        while steps.len() < n {
            let candidates = bound.iter().filter(|b| !**b).count();
            let mut best: Option<(f64, usize, Vec<EqAtom>)> = None;
            for p in (0..n).filter(|&p| !bound[p]) {
                let usable: Vec<EqAtom> = atoms
                    .iter()
                    .filter(|a| {
                        a.position == p
                            && match &a.source {
                                KeySource::Free(_) => true,
                                KeySource::Binding { position, .. } => bound[*position],
                            }
                    })
                    .cloned()
                    .collect();
                let mut est = stats[p].cardinality as f64;
                for a in &usable {
                    if let Ok(c) = schemas[p].position(&a.attr) {
                        est *= eq_selectivity(stats[p].distinct.get(c).copied());
                        if candidates > 1 {
                            compared_reads.push((p, c));
                        }
                    }
                }
                let better = match &best {
                    None => true,
                    Some((e, _, best_atoms)) => {
                        est < *e || (est == *e && best_atoms.is_empty() && !usable.is_empty())
                    }
                };
                if better {
                    best = Some((est, p, usable));
                }
            }
            let (_, p, usable) = best.unwrap();
            bound[p] = true;
            steps.push(PlanStep {
                position: p,
                access: if usable.is_empty() {
                    Access::Scan
                } else {
                    Access::Probe(usable)
                },
            });
        }
        compared_reads.sort();
        compared_reads.dedup();
        (BranchPlan { steps }, compared_reads)
    }

    /// Plan by asking `stats` for counts, and check it against the
    /// eager planner over the same full statistics: the same plan, with
    /// counts asked for exactly where the eager planner compared
    /// candidates that read them — and each asked for once.
    fn planned(
        branch: &Branch,
        schemas: &[&Schema],
        stats: &[RelationStats],
    ) -> (BranchPlan, Vec<DistinctCount>) {
        let cards: Vec<usize> = stats.iter().map(|s| s.cardinality).collect();
        let mut calls = 0;
        let atoms = extract_eq_atoms(branch);
        let (plan, asked) = plan_branch(branch, &atoms, schemas, &cards, |p, c| {
            calls += 1;
            stats[p].distinct.get(c).copied()
        });
        let (eager, compared_reads) = eager_plan(branch, schemas, stats);
        assert_eq!(plan, eager, "{branch:?}");
        assert_eq!(calls, asked.len(), "each count is asked for once");
        let mut got: Vec<(usize, usize)> = asked.iter().map(|c| (c.position, c.column)).collect();
        got.sort();
        assert_eq!(got, compared_reads, "{branch:?}");
        (plan, asked)
    }

    /// The paper's two-variable join branch:
    /// `<f.front, b.back> OF EACH f, b IN Infront: f.back = b.front`.
    fn join_branch() -> Branch {
        Branch::projecting(
            vec![attr("f", "front"), attr("b", "back")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")),
        )
    }

    #[test]
    fn extracts_symmetric_binding_atoms() {
        let atoms = extract_eq_atoms(&join_branch());
        assert_eq!(atoms.len(), 2);
        assert_eq!(
            atoms[0],
            EqAtom {
                position: 0,
                attr: "back".into(),
                source: KeySource::Binding {
                    position: 1,
                    attr: "front".into()
                },
            }
        );
        assert_eq!(
            atoms[1],
            EqAtom {
                position: 1,
                attr: "front".into(),
                source: KeySource::Binding {
                    position: 0,
                    attr: "back".into()
                },
            }
        );
    }

    #[test]
    fn extracts_constant_and_param_atoms() {
        let b = Branch::each(
            "r",
            rel("Infront"),
            eq(attr("r", "front"), cnst("vase")).and(eq(param("Obj"), attr("r", "back"))),
        );
        let atoms = extract_eq_atoms(&b);
        assert_eq!(atoms.len(), 2);
        assert!(matches!(
            &atoms[0].source,
            KeySource::Free(ScalarExpr::Const(_))
        ));
        assert_eq!(atoms[1].attr, "back");
        assert!(matches!(&atoms[1].source, KeySource::Free(ScalarExpr::Param(p)) if p == "Obj"));
    }

    #[test]
    fn outer_variable_is_a_free_source() {
        // `o` is not bound by this branch — its attribute is a free key.
        let b = Branch::each(
            "r",
            rel("Infront"),
            eq(attr("r", "front"), attr("o", "part")),
        );
        let atoms = extract_eq_atoms(&b);
        assert_eq!(atoms.len(), 1);
        assert!(matches!(&atoms[0].source, KeySource::Free(ScalarExpr::Attr(v, _)) if v == "o"));
    }

    #[test]
    fn non_equality_and_disjunctive_atoms_ignored() {
        // `<`, `OR`, `NOT`, and quantified equalities must not produce
        // probe atoms — they stay residual.
        let b = Branch::each(
            "r",
            rel("Infront"),
            lt(attr("r", "front"), cnst("z"))
                .and(eq(attr("r", "front"), cnst("a")).or(eq(attr("r", "back"), cnst("b"))))
                .and(not(eq(attr("r", "front"), cnst("q"))))
                .and(some(
                    "x",
                    rel("Infront"),
                    eq(attr("x", "front"), attr("r", "back")),
                )),
        );
        assert!(extract_eq_atoms(&b).is_empty());
    }

    #[test]
    fn same_position_equality_is_not_a_join_key() {
        let b = Branch::each(
            "r",
            rel("Infront"),
            eq(attr("r", "front"), attr("r", "back")),
        );
        assert!(extract_eq_atoms(&b).is_empty());
    }

    #[test]
    fn shadowed_binding_names_disable_extraction() {
        let b = Branch {
            target: crate::ast::Target::Var("x".into()),
            bindings: vec![("x".into(), rel("Infront")), ("x".into(), rel("Infront"))],
            predicate: eq(attr("x", "front"), cnst("a")),
        };
        assert!(extract_eq_atoms(&b).is_empty());
        let schema = edge_schema();
        let (plan, _) = planned(
            &b,
            &[&schema, &schema],
            &[stats(1, &[1, 1]), stats(1, &[1, 1])],
        );
        assert_eq!(plan, BranchPlan::all_scans(2));
    }

    #[test]
    fn join_plan_scans_once_probes_rest() {
        let schema = edge_schema();
        let small = stats(2, &[2, 2]);
        let (plan, asked) = planned(&join_branch(), &[&schema, &schema], &[small.clone(), small]);
        // Binding-keyed on both sides: the first step compares
        // cardinalities, the second has no alternative.
        assert!(asked.is_empty());
        assert_eq!(plan.steps.len(), 2);
        assert!(matches!(plan.steps[0].access, Access::Scan));
        let Access::Probe(atoms) = &plan.steps[1].access else {
            panic!("second step must probe, got {plan:?}");
        };
        assert_eq!(atoms.len(), 1);
    }

    #[test]
    fn constant_probe_ordered_before_unselective_scan() {
        // `EACH big IN Big, EACH sel IN Sel: sel.front = "x" AND
        //  big.back = sel.back` — the planner should start with the
        // constant-keyed probe on Sel, then probe Big on the join key.
        let b = Branch::projecting(
            vec![attr("big", "front")],
            vec![("big".into(), rel("Big")), ("sel".into(), rel("Sel"))],
            eq(attr("sel", "front"), cnst("x")).and(eq(attr("big", "back"), attr("sel", "back"))),
        );
        let schema = edge_schema();
        let (plan, asked) = planned(
            &b,
            &[&schema, &schema],
            &[stats(50, &[50, 50]), stats(10, &[10, 10])],
        );
        // Only the constant-keyed candidate's column decided anything.
        assert_eq!(
            asked,
            [DistinctCount {
                position: 1,
                column: 0,
                distinct: Some(10)
            }]
        );
        assert_eq!(plan.steps[0].position, 1, "{plan:?}");
        assert!(matches!(plan.steps[0].access, Access::Probe(_)));
        assert_eq!(plan.steps[1].position, 0);
        assert!(matches!(plan.steps[1].access, Access::Probe(_)));
    }

    #[test]
    fn estimate_branch_rows_reflects_join_atoms() {
        let schema = edge_schema();
        let cards = [100, 60];
        let distinct = [[50, 20], [30, 10]];
        let known = |p: usize, c: usize| Some(distinct[p][c]);
        // Cross product, no atoms.
        let cross = Branch::projecting(
            vec![attr("a", "front")],
            vec![("a".into(), rel("R")), ("b".into(), rel("S"))],
            tru(),
        );
        let est = estimate_branch_rows(&cross, &[&schema, &schema], &cards, known);
        assert_eq!(est, 6000.0);
        // One join atom: reduced by 1/max(distinct) = 1/50, counted
        // once despite the symmetric atom pair.
        let join = Branch::projecting(
            vec![attr("a", "front")],
            vec![("a".into(), rel("R")), ("b".into(), rel("S"))],
            eq(attr("a", "front"), attr("b", "front")),
        );
        let est = estimate_branch_rows(&join, &[&schema, &schema], &cards, known);
        assert_eq!(est, 6000.0 / 50.0);
        // A count nothing holds reads as no information.
        let est = estimate_branch_rows(&join, &[&schema, &schema], &cards, |p, c| {
            (p == 1).then(|| known(p, c)).flatten()
        });
        assert_eq!(est, 6000.0 / 30.0);
        // An extra constant atom narrows further.
        let join_const = Branch::projecting(
            vec![attr("a", "front")],
            vec![("a".into(), rel("R")), ("b".into(), rel("S"))],
            eq(attr("a", "front"), attr("b", "front")).and(eq(attr("b", "back"), cnst("x"))),
        );
        let est = estimate_branch_rows(&join_const, &[&schema, &schema], &cards, known);
        assert_eq!(est, 6000.0 / 50.0 / 10.0);
    }

    #[test]
    fn no_atoms_degenerates_to_declaration_order() {
        let b = Branch::projecting(
            vec![attr("a", "front")],
            vec![("a".into(), rel("R")), ("b".into(), rel("S"))],
            tru(),
        );
        let schema = edge_schema();
        let (plan, _) = planned(
            &b,
            &[&schema, &schema],
            &[stats(9, &[3, 3]), stats(1, &[1, 1])],
        );
        assert_eq!(plan, BranchPlan::all_scans(2));
    }

    #[test]
    fn asking_for_counts_plans_as_full_statistics_do() {
        // Generated 2–4-binding branches over three integer columns:
        // random cross-binding and constant equalities, random
        // cardinalities (small ones, so ties occur) and distinct
        // counts. `planned` checks each against the eager planner.
        let schema = Schema::of(&[("a", Domain::Int), ("b", Domain::Int), ("c", Domain::Int)]);
        let cols = ["a", "b", "c"];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        let mut binding_keyed_pairs = 0;
        for case in 0..2000 {
            let n = 2 + next(3);
            let vars: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
            let mut predicate = tru();
            for _ in 0..next(5) {
                let (i, j) = (next(n), next(n));
                let probed = attr(&vars[i], cols[next(3)]);
                predicate = predicate.and(if i == j {
                    eq(probed, cnst(next(9) as i64))
                } else {
                    eq(probed, attr(&vars[j], cols[next(3)]))
                });
            }
            let branch = Branch::projecting(
                vec![attr(&vars[0], "a")],
                vars.iter().map(|v| (v.clone(), rel("R"))).collect(),
                predicate,
            );
            let ranges: Vec<RelationStats> = (0..n)
                .map(|_| {
                    let card = 1 + next(if case % 2 == 0 { 8 } else { 1000 });
                    stats(card, &[1 + next(card), 1 + next(card), 1 + next(card)])
                })
                .collect();
            let (_, asked) = planned(&branch, &vec![&schema; n], &ranges);
            let atoms = extract_eq_atoms(&branch);
            if n == 2
                && atoms
                    .iter()
                    .all(|a| matches!(a.source, KeySource::Binding { .. }))
            {
                assert!(asked.is_empty(), "{branch:?}");
                binding_keyed_pairs += 1;
            }
        }
        assert!(binding_keyed_pairs > 100, "{binding_keyed_pairs}");
    }
}
