//! SLD resolution: tuple-at-a-time, top-down, depth-first with
//! backtracking — the execution model of 1985 PROLOG systems, and the
//! baseline of experiment E1.
//!
//! The engine enumerates *proofs*; an answer reachable along many
//! derivation paths is re-derived once per path (only the answer *set*
//! is deduplicated). This re-derivation is exactly the inefficiency the
//! paper's set-oriented evaluation avoids: "many recursive queries can
//! be evaluated more efficiently within the set-construction framework
//! of database systems than with proof-oriented methods" (§Abstract).

use dc_value::{FxHashSet, Value};

use crate::error::PrologError;
use crate::program::Program;
use crate::term::{Atom, Term};
use crate::unify::{unify_atoms, unify_terms, Subst};

/// Configuration of an SLD run.
#[derive(Debug, Clone)]
pub struct SldConfig {
    /// Maximum resolution depth (goal-stack depth). Guards against the
    /// infinite derivations PROLOG is prone to on cyclic data.
    pub max_depth: usize,
    /// Budget on resolution steps.
    pub max_steps: u64,
}

impl Default for SldConfig {
    fn default() -> SldConfig {
        SldConfig {
            max_depth: 10_000,
            max_steps: 500_000_000,
        }
    }
}

/// Statistics of an SLD run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SldStats {
    /// Resolution steps (clause/fact unification attempts that
    /// succeeded and advanced the proof).
    pub steps: u64,
    /// Unification attempts, successful or not.
    pub unifications: u64,
    /// Deepest goal stack reached.
    pub max_depth_reached: usize,
    /// Number of times the depth bound pruned a branch.
    pub depth_prunes: u64,
}

/// Result of an SLD query.
#[derive(Debug, Clone)]
pub struct SldResult {
    /// Distinct answer bindings for the query atom's variables, in the
    /// order the variables first occur in the query.
    pub answers: FxHashSet<Vec<Value>>,
    /// Run statistics.
    pub stats: SldStats,
    /// True if the depth bound pruned any branch (the answer set may be
    /// incomplete).
    pub depth_bounded: bool,
}

struct Machine<'p> {
    program: &'p Program,
    cfg: &'p SldConfig,
    stats: SldStats,
    answers: FxHashSet<Vec<Value>>,
    query_vars: Vec<String>,
    rename_counter: usize,
}

impl Machine<'_> {
    fn record_answer(&mut self, subst: &Subst) {
        let answer: Option<Vec<Value>> = self
            .query_vars
            .iter()
            .map(|v| subst.resolve(&Term::Var(v.clone())))
            .collect();
        if let Some(a) = answer {
            self.answers.insert(a);
        }
    }

    fn solve(&mut self, goals: &[Atom], subst: &Subst, depth: usize) -> Result<(), PrologError> {
        if self.stats.steps > self.cfg.max_steps {
            return Err(PrologError::StepBudgetExceeded {
                steps: self.stats.steps,
            });
        }
        self.stats.max_depth_reached = self.stats.max_depth_reached.max(depth);
        let Some((goal, rest)) = goals.split_first() else {
            self.record_answer(subst);
            return Ok(());
        };
        if depth >= self.cfg.max_depth {
            self.stats.depth_prunes += 1;
            return Ok(());
        }
        let goal = subst.apply(goal);

        // Facts first (first-argument indexed), then rules — standard
        // PROLOG clause order with EDB before IDB.
        let first_bound = match goal.args.first() {
            Some(Term::Const(v)) => Some(*v),
            _ => None,
        };
        let facts: Vec<Vec<Value>> = self
            .program
            .facts_for(&goal.pred, first_bound.as_ref())
            .into_iter()
            .map(<[Value]>::to_vec)
            .collect();
        for fact in facts {
            if fact.len() != goal.args.len() {
                continue;
            }
            self.stats.unifications += 1;
            let mut s = subst.clone();
            let ok = goal
                .args
                .iter()
                .zip(&fact)
                .all(|(t, v)| unify_terms(t, &Term::Const(*v), &mut s));
            if ok {
                self.stats.steps += 1;
                self.solve(rest, &s, depth + 1)?;
            }
        }

        let rules: Vec<crate::program::Clause> = self.program.rules_for(&goal.pred).to_vec();
        for rule in rules {
            self.rename_counter += 1;
            let rule = rule.rename(self.rename_counter);
            self.stats.unifications += 1;
            let mut s = subst.clone();
            if unify_atoms(&goal, &rule.head, &mut s) {
                self.stats.steps += 1;
                let mut new_goals = rule.body.clone();
                new_goals.extend_from_slice(rest);
                self.solve(&new_goals, &s, depth + 1)?;
            }
        }
        Ok(())
    }
}

/// Run an SLD query, enumerating all distinct answers.
pub fn solve(program: &Program, query: &Atom, cfg: &SldConfig) -> Result<SldResult, PrologError> {
    let mut machine = Machine {
        program,
        cfg,
        stats: SldStats::default(),
        answers: FxHashSet::default(),
        query_vars: query.vars().iter().map(|s| s.to_string()).collect(),
        rename_counter: 0,
    };
    machine.solve(std::slice::from_ref(query), &Subst::new(), 0)?;
    let depth_bounded = machine.stats.depth_prunes > 0;
    Ok(SldResult {
        answers: machine.answers,
        stats: machine.stats,
        depth_bounded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use crate::program::Clause;

    /// infront chain a→b→c→d with the textbook right-recursive closure.
    fn ahead_program() -> Program {
        let mut p = Program::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
            p.add_fact("infront", vec![Value::str(x), Value::str(y)]);
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
    fn all_answers_of_transitive_closure() {
        let p = ahead_program();
        let r = solve(&p, &atom!("ahead"; var "X", var "Y"), &SldConfig::default()).unwrap();
        assert_eq!(r.answers.len(), 6); // 3+2+1 pairs
        assert!(!r.depth_bounded);
        assert!(r.answers.contains(&vec![Value::str("a"), Value::str("d")]));
    }

    #[test]
    fn bound_query_uses_fewer_steps() {
        let p = ahead_program();
        let open = solve(&p, &atom!("ahead"; var "X", var "Y"), &SldConfig::default()).unwrap();
        let bound = solve(&p, &atom!("ahead"; val "a", var "Y"), &SldConfig::default()).unwrap();
        assert_eq!(bound.answers.len(), 3);
        assert!(bound.stats.steps < open.stats.steps);
    }

    #[test]
    fn ground_query_is_boolean() {
        let p = ahead_program();
        let yes = solve(&p, &atom!("ahead"; val "a", val "d"), &SldConfig::default()).unwrap();
        // Ground query: one empty answer tuple means "provable".
        assert_eq!(yes.answers.len(), 1);
        assert!(yes.answers.contains(&vec![]));
        let no = solve(&p, &atom!("ahead"; val "d", val "a"), &SldConfig::default()).unwrap();
        assert!(no.answers.is_empty());
    }

    #[test]
    fn cyclic_data_hits_depth_bound() {
        let mut p = ahead_program();
        p.add_fact("infront", vec![Value::str("d"), Value::str("a")]);
        let cfg = SldConfig {
            max_depth: 64,
            max_steps: 10_000_000,
        };
        let r = solve(&p, &atom!("ahead"; var "X", var "Y"), &cfg).unwrap();
        // All 16 pairs are found before the bound bites, but branches
        // were pruned: PROLOG cannot know it is done.
        assert_eq!(r.answers.len(), 16);
        assert!(r.depth_bounded);
    }

    #[test]
    fn step_budget_enforced() {
        let mut p = ahead_program();
        p.add_fact("infront", vec![Value::str("d"), Value::str("a")]);
        let cfg = SldConfig {
            max_depth: 1_000_000,
            max_steps: 1_000,
        };
        let err = solve(&p, &atom!("ahead"; var "X", var "Y"), &cfg).unwrap_err();
        assert!(matches!(err, PrologError::StepBudgetExceeded { .. }));
    }

    #[test]
    fn redundant_derivations_counted() {
        // Diamond: two proofs of ahead(a, d).
        let mut p = Program::new();
        for (x, y) in [("a", "b1"), ("a", "b2"), ("b1", "d"), ("b2", "d")] {
            p.add_fact("infront", vec![Value::str(x), Value::str(y)]);
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
        let r = solve(&p, &atom!("ahead"; val "a", val "d"), &SldConfig::default()).unwrap();
        assert_eq!(r.answers.len(), 1);
        // Both proof paths were explored: more steps than a single
        // linear proof would need.
        assert!(r.stats.steps > 4);
    }

    #[test]
    fn nonrecursive_join_query() {
        let mut p = Program::new();
        p.add_fact("parent", vec![Value::str("tom"), Value::str("bob")]);
        p.add_fact("parent", vec![Value::str("bob"), Value::str("ann")]);
        p.add_rule(Clause::rule(
            atom!("grandparent"; var "X", var "Z"),
            vec![
                atom!("parent"; var "X", var "Y"),
                atom!("parent"; var "Y", var "Z"),
            ],
        ))
        .unwrap();
        let r = solve(
            &p,
            &atom!("grandparent"; var "G", var "C"),
            &SldConfig::default(),
        )
        .unwrap();
        assert_eq!(r.answers.len(), 1);
        assert!(r
            .answers
            .contains(&vec![Value::str("tom"), Value::str("ann")]));
    }
}
