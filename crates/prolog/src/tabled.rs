//! Memoising (tabled) evaluation of Horn-clause programs.
//!
//! Plain SLD re-derives every answer once per proof path and loops on
//! cyclic data. Tabling — OLDT resolution in the Prolog lineage — fixes
//! both by recording each predicate's answers once. Our variant tables
//! whole predicate extensions and iterates to a joint fixpoint, which
//! for Datalog coincides with OLDT completeness; it is the strongest
//! reasonable version of the proof-oriented baseline, included so that
//! experiment E1 does not compare constructors against a strawman.

use dc_value::{FxHashMap, FxHashSet, Value};

use crate::error::PrologError;
use crate::program::{Clause, Program};
use crate::term::{Atom, Term};
use crate::unify::{unify_terms, Subst};

/// Statistics of a tabled run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TabledStats {
    /// Fixpoint rounds over the table set.
    pub rounds: usize,
    /// Unification attempts.
    pub unifications: u64,
    /// Number of tabled predicates.
    pub tables: usize,
    /// Total answers across tables at the fixpoint.
    pub total_answers: usize,
}

/// Result of a tabled query.
#[derive(Debug, Clone)]
pub struct TabledResult {
    /// Distinct answers for the query atom's variables.
    pub answers: FxHashSet<Vec<Value>>,
    /// Run statistics.
    pub stats: TabledStats,
}

/// Predicates (transitively) reachable from `pred` through rule bodies.
fn reachable_idb(program: &Program, pred: &str) -> Vec<String> {
    let mut seen: FxHashSet<String> = FxHashSet::default();
    let mut stack = vec![pred.to_string()];
    let mut out = Vec::new();
    while let Some(p) = stack.pop() {
        if !seen.insert(p.clone()) {
            continue;
        }
        if !program.rules_for(&p).is_empty() {
            out.push(p.clone());
        }
        for rule in program.rules_for(&p) {
            for a in &rule.body {
                stack.push(a.pred.clone());
            }
        }
    }
    out
}

struct Tables {
    answers: FxHashMap<String, FxHashSet<Vec<Value>>>,
}

impl Tables {
    fn matches(&self, program: &Program, atom: &Atom, subst: &Subst) -> Vec<Vec<Value>> {
        // EDB facts (first-argument indexed) plus tabled answers.
        let bound_first = atom.args.first().and_then(|t| subst.resolve(t));
        let mut out: Vec<Vec<Value>> = program
            .facts_for(&atom.pred, bound_first.as_ref())
            .into_iter()
            .map(<[Value]>::to_vec)
            .collect();
        if let Some(table) = self.answers.get(&atom.pred) {
            out.extend(table.iter().cloned());
        }
        out
    }
}

/// Join the body atoms of a clause left-to-right against the current
/// tables, emitting every head binding.
fn eval_clause(
    program: &Program,
    tables: &Tables,
    clause: &Clause,
    stats: &mut TabledStats,
    out: &mut FxHashSet<Vec<Value>>,
) {
    fn rec(
        program: &Program,
        tables: &Tables,
        clause: &Clause,
        goal_idx: usize,
        subst: &Subst,
        stats: &mut TabledStats,
        out: &mut FxHashSet<Vec<Value>>,
    ) {
        if goal_idx == clause.body.len() {
            let answer: Option<Vec<Value>> =
                clause.head.args.iter().map(|t| subst.resolve(t)).collect();
            if let Some(a) = answer {
                out.insert(a);
            }
            return;
        }
        let goal = &clause.body[goal_idx];
        for row in tables.matches(program, goal, subst) {
            if row.len() != goal.args.len() {
                continue;
            }
            stats.unifications += 1;
            let mut s = subst.clone();
            let ok = goal
                .args
                .iter()
                .zip(&row)
                .all(|(t, v)| unify_terms(t, &Term::Const(*v), &mut s));
            if ok {
                rec(program, tables, clause, goal_idx + 1, &s, stats, out);
            }
        }
    }
    rec(program, tables, clause, 0, &Subst::new(), stats, out);
}

/// Run a tabled query: compute the fixpoint of all reachable tabled
/// predicates, then match the query against tables + facts.
pub fn solve(program: &Program, query: &Atom) -> Result<TabledResult, PrologError> {
    let mut stats = TabledStats::default();
    let preds = reachable_idb(program, &query.pred);
    let mut tables = Tables {
        answers: FxHashMap::default(),
    };
    for p in &preds {
        tables.answers.insert(p.clone(), FxHashSet::default());
    }
    stats.tables = preds.len();

    loop {
        stats.rounds += 1;
        let mut changed = false;
        for p in &preds {
            let mut new_answers: FxHashSet<Vec<Value>> = FxHashSet::default();
            for rule in program.rules_for(p) {
                eval_clause(program, &tables, rule, &mut stats, &mut new_answers);
            }
            let table = tables.answers.entry(p.clone()).or_default();
            for a in new_answers {
                if table.insert(a) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    stats.total_answers = tables.answers.values().map(FxHashSet::len).sum();

    // Answer the query.
    let mut answers: FxHashSet<Vec<Value>> = FxHashSet::default();
    let qvars: Vec<String> = query.vars().iter().map(|s| s.to_string()).collect();
    for row in tables.matches(program, query, &Subst::new()) {
        if row.len() != query.args.len() {
            continue;
        }
        stats.unifications += 1;
        let mut s = Subst::new();
        let ok = query
            .args
            .iter()
            .zip(&row)
            .all(|(t, v)| unify_terms(t, &Term::Const(*v), &mut s));
        if ok {
            let a: Option<Vec<Value>> = qvars
                .iter()
                .map(|v| s.resolve(&Term::Var(v.clone())))
                .collect();
            if let Some(a) = a {
                answers.insert(a);
            }
        }
    }
    Ok(TabledResult { answers, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use crate::sld::{self, SldConfig};

    fn ahead_program(edges: &[(&str, &str)]) -> Program {
        let mut p = Program::new();
        for (x, y) in edges {
            p.add_fact("infront", vec![Value::str(*x), Value::str(*y)]);
        }
        p.add_rule(Clause::rule(
            atom!("ahead"; var "X", var "Y"),
            vec![atom!("infront"; var "X", var "Y")],
        ))
        .unwrap();
        p.add_rule(Clause::rule(
            atom!("ahead"; var "X", var "Z"),
            vec![
                atom!("infront"; var "X", var "Y"),
                atom!("ahead"; var "Y", var "Z"),
            ],
        ))
        .unwrap();
        p
    }

    #[test]
    fn matches_sld_on_acyclic_data() {
        let p = ahead_program(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let q = atom!("ahead"; var "X", var "Y");
        let t = solve(&p, &q).unwrap();
        let s = sld::solve(&p, &q, &SldConfig::default()).unwrap();
        assert_eq!(t.answers, s.answers);
        assert_eq!(t.answers.len(), 6);
    }

    #[test]
    fn terminates_and_is_complete_on_cycles() {
        // SLD needs a depth bound here; tabling terminates exactly.
        let p = ahead_program(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let t = solve(&p, &atom!("ahead"; var "X", var "Y")).unwrap();
        assert_eq!(t.answers.len(), 9); // complete closure of a 3-cycle
        assert!(t.stats.rounds < 10);
    }

    #[test]
    fn bound_queries_answered_from_table() {
        let p = ahead_program(&[("a", "b"), ("b", "c")]);
        let t = solve(&p, &atom!("ahead"; val "a", var "Y")).unwrap();
        assert_eq!(t.answers.len(), 2);
        let g = solve(&p, &atom!("ahead"; val "a", val "c")).unwrap();
        assert_eq!(g.answers.len(), 1); // provable, empty binding
        let n = solve(&p, &atom!("ahead"; val "c", val "a")).unwrap();
        assert!(n.answers.is_empty());
    }

    #[test]
    fn mutual_recursion_tables_both() {
        // even/odd over successor facts.
        let mut p = Program::new();
        for i in 0..6i64 {
            p.add_fact("succ", vec![Value::Int(i), Value::Int(i + 1)]);
        }
        p.add_fact("zero", vec![Value::Int(0)]);
        p.add_rule(Clause::rule(
            atom!("even"; var "X"),
            vec![atom!("zero"; var "X")],
        ))
        .unwrap();
        p.add_rule(Clause::rule(
            atom!("even"; var "Y"),
            vec![atom!("succ"; var "X", var "Y"), atom!("odd"; var "X")],
        ))
        .unwrap();
        p.add_rule(Clause::rule(
            atom!("odd"; var "Y"),
            vec![atom!("succ"; var "X", var "Y"), atom!("even"; var "X")],
        ))
        .unwrap();
        let t = solve(&p, &atom!("even"; var "N")).unwrap();
        let evens: FxHashSet<Vec<Value>> = [0i64, 2, 4, 6]
            .iter()
            .map(|&i| vec![Value::Int(i)])
            .collect();
        assert_eq!(t.answers, evens);
        assert_eq!(t.stats.tables, 2);
    }

    #[test]
    fn edb_only_query() {
        let p = ahead_program(&[("a", "b")]);
        let t = solve(&p, &atom!("infront"; var "X", var "Y")).unwrap();
        assert_eq!(t.answers.len(), 1);
    }
}
