//! Unification for function-free terms.
//!
//! Without function symbols there is no occurs-check problem: a
//! substitution binds variables to constants or to other variables, and
//! unification is a near-trivial union-find walk.

use dc_value::{FxHashMap, Value};

use crate::term::{Atom, Term};

/// A substitution: variable name → term (constant or variable).
#[derive(Debug, Clone, Default)]
pub struct Subst {
    bindings: FxHashMap<String, Term>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Is the substitution empty?
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Follow bindings until reaching a constant or an unbound
    /// variable.
    pub fn walk<'a>(&'a self, term: &'a Term) -> &'a Term {
        let mut t = term;
        loop {
            match t {
                Term::Var(v) => match self.bindings.get(v) {
                    Some(next) => t = next,
                    None => return t,
                },
                c => return c,
            }
        }
    }

    /// Bind a variable (caller guarantees it is unbound).
    fn bind(&mut self, var: String, term: Term) {
        self.bindings.insert(var, term);
    }

    /// Resolve a term to a concrete value if fully bound.
    pub fn resolve(&self, term: &Term) -> Option<Value> {
        match self.walk(term) {
            Term::Const(v) => Some(*v),
            Term::Var(_) => None,
        }
    }

    /// Apply the substitution to an atom (partially, leaving unbound
    /// variables in place).
    pub fn apply(&self, atom: &Atom) -> Atom {
        Atom {
            pred: atom.pred.clone(),
            args: atom.args.iter().map(|t| self.walk(t).clone()).collect(),
        }
    }
}

/// Unify two terms under a substitution, extending it in place.
/// Returns `false` (with the substitution possibly extended — callers
/// clone before speculative unification) on clash.
pub fn unify_terms(a: &Term, b: &Term, subst: &mut Subst) -> bool {
    let wa = subst.walk(a).clone();
    let wb = subst.walk(b).clone();
    match (wa, wb) {
        (Term::Const(x), Term::Const(y)) => x == y,
        (Term::Var(v), t) | (t, Term::Var(v)) => {
            if let Term::Var(w) = &t {
                if *w == v {
                    return true; // same variable
                }
            }
            subst.bind(v, t);
            true
        }
    }
}

/// Unify two atoms (same predicate, same arity, pairwise args).
pub fn unify_atoms(a: &Atom, b: &Atom, subst: &mut Subst) -> bool {
    if a.pred != b.pred || a.args.len() != b.args.len() {
        return false;
    }
    a.args
        .iter()
        .zip(&b.args)
        .all(|(x, y)| unify_terms(x, y, subst))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_unification() {
        let mut s = Subst::new();
        assert!(unify_terms(&Term::val(1i64), &Term::val(1i64), &mut s));
        assert!(!unify_terms(&Term::val(1i64), &Term::val(2i64), &mut s));
        assert!(s.is_empty());
    }

    #[test]
    fn var_binding_and_walk() {
        let mut s = Subst::new();
        assert!(unify_terms(&Term::var("X"), &Term::val("a"), &mut s));
        assert_eq!(s.resolve(&Term::var("X")), Some(Value::str("a")));
        // X already bound: unifying X with "b" clashes.
        assert!(!unify_terms(&Term::var("X"), &Term::val("b"), &mut s));
    }

    #[test]
    fn var_var_chains() {
        let mut s = Subst::new();
        assert!(unify_terms(&Term::var("X"), &Term::var("Y"), &mut s));
        assert!(unify_terms(&Term::var("Y"), &Term::val(3i64), &mut s));
        assert_eq!(s.resolve(&Term::var("X")), Some(Value::Int(3)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn self_unification_no_loop() {
        let mut s = Subst::new();
        assert!(unify_terms(&Term::var("X"), &Term::var("X"), &mut s));
        assert!(s.is_empty());
        assert_eq!(s.resolve(&Term::var("X")), None);
    }

    #[test]
    fn atom_unification() {
        let mut s = Subst::new();
        let a = Atom::new("p", vec![Term::var("X"), Term::val("b")]);
        let b = Atom::new("p", vec![Term::val("a"), Term::var("Y")]);
        assert!(unify_atoms(&a, &b, &mut s));
        assert_eq!(s.resolve(&Term::var("X")), Some(Value::str("a")));
        assert_eq!(s.resolve(&Term::var("Y")), Some(Value::str("b")));
    }

    #[test]
    fn atom_mismatches() {
        let mut s = Subst::new();
        let a = Atom::new("p", vec![Term::var("X")]);
        let b = Atom::new("q", vec![Term::var("X")]);
        assert!(!unify_atoms(&a, &b, &mut s));
        let c = Atom::new("p", vec![Term::var("X"), Term::var("Y")]);
        assert!(!unify_atoms(&a, &c, &mut s));
    }

    #[test]
    fn apply_partial() {
        let mut s = Subst::new();
        unify_terms(&Term::var("X"), &Term::val("a"), &mut s);
        let a = Atom::new("p", vec![Term::var("X"), Term::var("Z")]);
        let applied = s.apply(&a);
        assert_eq!(applied.args[0], Term::val("a"));
        assert_eq!(applied.args[1], Term::var("Z"));
    }
}
