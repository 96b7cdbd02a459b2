//! Horn-clause programs: facts (EDB) + rules (IDB).

use dc_relation::Relation;
use dc_value::{FxHashMap, Tuple, Value};

use crate::error::PrologError;
use crate::term::{Atom, Term};

/// A definite clause `head :- body₁, …, bodyₖ.` (facts have an empty
/// body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// The head atom.
    pub head: Atom,
    /// The body atoms, in resolution order.
    pub body: Vec<Atom>,
}

impl Clause {
    /// A rule.
    pub fn rule(head: Atom, body: Vec<Atom>) -> Clause {
        Clause { head, body }
    }

    /// A fact.
    pub fn fact(head: Atom) -> Clause {
        Clause {
            head,
            body: Vec::new(),
        }
    }

    /// Safety check: every head variable must occur in the body (facts
    /// must be ground). Unsafe clauses denote infinite relations — the
    /// same concern the paper's positivity constraint addresses by
    /// analogy to "safe" expressions [Ullm 82].
    pub fn check_safe(&self) -> Result<(), PrologError> {
        for v in self.head.vars() {
            let in_body = self.body.iter().any(|a| a.vars().contains(&v));
            if !in_body {
                return Err(PrologError::UnsafeClause(format!("{self}")));
            }
        }
        Ok(())
    }

    /// Rename all variables apart with a suffix.
    pub fn rename(&self, suffix: usize) -> Clause {
        Clause {
            head: self.head.rename(suffix),
            body: self.body.iter().map(|a| a.rename(suffix)).collect(),
        }
    }
}

impl std::fmt::Display for Clause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, a) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
        }
        write!(f, ".")
    }
}

/// A program: EDB facts (stored columnar with first-argument indexing,
/// as real 1985 PROLOG systems did) plus IDB rules grouped by head
/// predicate.
#[derive(Debug, Default, Clone)]
pub struct Program {
    /// Ground facts per predicate.
    facts: FxHashMap<String, Vec<Vec<Value>>>,
    /// First-argument index per predicate: first value → fact indices.
    first_arg_index: FxHashMap<String, FxHashMap<Value, Vec<usize>>>,
    /// Rules per head predicate.
    rules: FxHashMap<String, Vec<Clause>>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Add one ground fact.
    pub fn add_fact(&mut self, pred: impl Into<String>, args: Vec<Value>) {
        let pred = pred.into();
        let facts = self.facts.entry(pred.clone()).or_default();
        let idx = facts.len();
        if let Some(first) = args.first() {
            self.first_arg_index
                .entry(pred)
                .or_default()
                .entry(*first)
                .or_default()
                .push(idx);
        }
        facts.push(args);
    }

    /// Import every tuple of a relation as facts for `pred`.
    pub fn add_relation(&mut self, pred: impl Into<String>, rel: &Relation) {
        let pred = pred.into();
        for t in rel.sorted_tuples() {
            self.add_fact(pred.clone(), t.fields().to_vec());
        }
    }

    /// Add a rule (safety-checked).
    pub fn add_rule(&mut self, clause: Clause) -> Result<(), PrologError> {
        clause.check_safe()?;
        if clause.body.is_empty() {
            if !clause.head.is_ground() {
                return Err(PrologError::UnsafeClause(format!("{clause}")));
            }
            let args = clause
                .head
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(v) => *v,
                    Term::Var(_) => unreachable!("ground checked above"),
                })
                .collect();
            self.add_fact(clause.head.pred.clone(), args);
            return Ok(());
        }
        self.rules
            .entry(clause.head.pred.clone())
            .or_default()
            .push(clause);
        Ok(())
    }

    /// Facts for a predicate matching a (possibly bound) first
    /// argument — first-argument indexing, the standard PROLOG clause
    /// selection optimisation.
    pub fn facts_for(&self, pred: &str, first: Option<&Value>) -> Vec<&[Value]> {
        let Some(all) = self.facts.get(pred) else {
            return Vec::new();
        };
        match first {
            Some(v) => match self.first_arg_index.get(pred).and_then(|ix| ix.get(v)) {
                Some(hits) => hits.iter().map(|&i| all[i].as_slice()).collect(),
                None => Vec::new(),
            },
            None => all.iter().map(Vec::as_slice).collect(),
        }
    }

    /// Rules whose head predicate is `pred`.
    pub fn rules_for(&self, pred: &str) -> &[Clause] {
        self.rules.get(pred).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All predicates with rules.
    pub fn idb_predicates(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.rules.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Total fact count.
    pub fn fact_count(&self) -> usize {
        self.facts.values().map(Vec::len).sum()
    }

    /// Total rule count.
    pub fn rule_count(&self) -> usize {
        self.rules.values().map(Vec::len).sum()
    }

    /// Answers as sorted tuples (for comparing engines in tests).
    pub fn tuples_of(answers: &dc_value::FxHashSet<Vec<Value>>) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = answers.iter().map(|a| Tuple::new(a.clone())).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use dc_value::{tuple, Domain, Schema};

    #[test]
    fn facts_and_indexing() {
        let mut p = Program::new();
        p.add_fact("e", vec![Value::str("a"), Value::str("b")]);
        p.add_fact("e", vec![Value::str("a"), Value::str("c")]);
        p.add_fact("e", vec![Value::str("b"), Value::str("c")]);
        assert_eq!(p.fact_count(), 3);
        assert_eq!(p.facts_for("e", None).len(), 3);
        assert_eq!(p.facts_for("e", Some(&Value::str("a"))).len(), 2);
        assert_eq!(p.facts_for("e", Some(&Value::str("z"))).len(), 0);
        assert_eq!(p.facts_for("missing", None).len(), 0);
    }

    #[test]
    fn relation_import() {
        let rel = Relation::from_tuples(
            Schema::of(&[("x", Domain::Str), ("y", Domain::Str)]),
            vec![tuple!["a", "b"], tuple!["b", "c"]],
        )
        .unwrap();
        let mut p = Program::new();
        p.add_relation("infront", &rel);
        assert_eq!(p.fact_count(), 2);
    }

    #[test]
    fn rule_safety() {
        let mut p = Program::new();
        // Safe: ahead(X,Y) :- e(X,Y).
        p.add_rule(Clause::rule(
            atom!("ahead"; var "X", var "Y"),
            vec![atom!("e"; var "X", var "Y")],
        ))
        .unwrap();
        // Unsafe: p(X) :- e(Y,Z).
        let err = p
            .add_rule(Clause::rule(
                atom!("p"; var "X"),
                vec![atom!("e"; var "Y", var "Z")],
            ))
            .unwrap_err();
        assert!(matches!(err, PrologError::UnsafeClause(_)));
        // Non-ground fact is unsafe.
        assert!(p.add_rule(Clause::fact(atom!("q"; var "X"))).is_err());
        // Ground "rule" with empty body becomes a fact.
        p.add_rule(Clause::fact(atom!("q"; val 1i64))).unwrap();
        assert_eq!(p.facts_for("q", None).len(), 1);
        assert_eq!(p.rule_count(), 1);
    }

    #[test]
    fn clause_display() {
        let c = Clause::rule(
            atom!("ahead"; var "X", var "Z"),
            vec![
                atom!("e"; var "X", var "Y"),
                atom!("ahead"; var "Y", var "Z"),
            ],
        );
        assert_eq!(c.to_string(), "ahead(X, Z) :- e(X, Y), ahead(Y, Z).");
    }
}
