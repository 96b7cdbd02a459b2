//! The positivity constraint of §3.3, implemented exactly as defined.
//!
//! > **Definition** (names appearing under NOT and ALL): a name appears
//! > under `ALL` if it appears in the *range* expression of the
//! > quantifier (names in the body do not count that `ALL`); it appears
//! > under `NOT` if it appears in the negated factor.
//! >
//! > **Definition** (positivity): `f(Rel₁, …, Relₙ)` satisfies the
//! > positivity constraint if each occurrence of `Relᵢ` appears under an
//! > even total number of negations and universal quantifiers.
//!
//! The paper's lemma: positive expressions are monotone in all tracked
//! arguments (via the one-sorted rewrite `ALL r IN Rel (p) ≡
//! ALL r (NOT(r IN Rel) OR p)`, which turns every ALL-range occurrence
//! into a NOT occurrence, then De Morgan + double negation). Hence the
//! fixpoint iteration of §3.2 converges. The DBPL compiler — and our
//! checked API — accepts only positive constructors; `nonsense` is
//! rejected here, and so is the convergent-but-non-monotone `strange`
//! (§3.3 explicitly keeps it out of the language).

use dc_value::FxHashSet;

use crate::ast::{Formula, Name, RangeExpr};

/// What counts as a tracked occurrence.
#[derive(Debug, Clone)]
pub enum Tracked {
    /// Occurrences of these relation names (used to check a constructor
    /// body, where the recursive references are the formal base name
    /// and constructor applications).
    Names(FxHashSet<Name>),
    /// Every constructor application `base{c(…)}` (used for whole-query
    /// checks, e.g. §4 Case 3 requires the *query* predicate over a
    /// constructed range to be positive before union distribution).
    AllConstructed,
}

impl Tracked {
    /// Track a single name.
    pub fn name(n: impl Into<Name>) -> Tracked {
        let mut s = FxHashSet::default();
        s.insert(n.into());
        Tracked::Names(s)
    }

    /// Track a set of names.
    pub fn names<I: IntoIterator<Item = S>, S: Into<Name>>(names: I) -> Tracked {
        Tracked::Names(names.into_iter().map(Into::into).collect())
    }

    fn matches_name(&self, n: &str) -> bool {
        match self {
            Tracked::Names(set) => set.contains(n),
            Tracked::AllConstructed => false,
        }
    }
}

/// A tracked occurrence at odd parity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending name (relation name or constructor name).
    pub name: String,
    /// Number of enclosing NOTs plus ALL-range positions (odd).
    pub parity: usize,
    /// Breadcrumb of enclosing negative positions, innermost last.
    pub context: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "`{}` occurs under {} negation(s)/universal range(s) ({})",
            self.name, self.parity, self.context
        )
    }
}

struct Walker<'t> {
    tracked: &'t Tracked,
    violations: Vec<Violation>,
    /// Breadcrumb stack of negative positions currently enclosing.
    trail: Vec<&'static str>,
}

impl Walker<'_> {
    fn parity(&self) -> usize {
        self.trail.len()
    }

    fn record(&mut self, name: &str) {
        if self.parity() % 2 == 1 {
            self.violations.push(Violation {
                name: name.to_string(),
                parity: self.parity(),
                context: self.trail.join(" > "),
            });
        }
    }

    fn formula(&mut self, f: &Formula) {
        match f {
            Formula::True | Formula::False | Formula::Cmp(..) => {}
            Formula::And(a, b) | Formula::Or(a, b) => {
                self.formula(a);
                self.formula(b);
            }
            Formula::Not(inner) => {
                self.trail.push("NOT");
                self.formula(inner);
                self.trail.pop();
            }
            Formula::Some(_, range, body) => {
                // SOME r IN Rel (p) ≡ SOME r (r IN Rel AND p):
                // both range and body keep the current parity.
                self.range(range);
                self.formula(body);
            }
            Formula::All(_, range, body) => {
                // ALL r IN Rel (p) ≡ ALL r (NOT(r IN Rel) OR p):
                // the range flips parity, the body does not.
                self.trail.push("ALL-range");
                self.range(range);
                self.trail.pop();
                self.formula(body);
            }
            Formula::Member(_, range) => self.range(range),
            Formula::TupleIn(_, range) => self.range(range),
        }
    }

    fn range(&mut self, r: &RangeExpr) {
        match r {
            RangeExpr::Rel(name) => {
                if self.tracked.matches_name(name) {
                    self.record(name);
                }
            }
            RangeExpr::Selected { base, .. } => {
                // Selection is monotone in its base: parity unchanged.
                self.range(base);
            }
            RangeExpr::Constructed {
                base,
                constructor,
                args,
                ..
            } => {
                if matches!(self.tracked, Tracked::AllConstructed) {
                    self.record(constructor);
                }
                self.range(base);
                for a in args {
                    self.range(a);
                }
            }
            RangeExpr::SetFormer(sf) => {
                for b in &sf.branches {
                    for (_, range) in &b.bindings {
                        self.range(range);
                    }
                    self.formula(&b.predicate);
                }
            }
        }
    }
}

/// Check a range expression against the positivity constraint,
/// returning every violating occurrence.
pub fn check_range(range: &RangeExpr, tracked: &Tracked) -> Vec<Violation> {
    let mut w = Walker {
        tracked,
        violations: Vec::new(),
        trail: Vec::new(),
    };
    w.range(range);
    w.violations
}

/// Check a formula against the positivity constraint.
pub fn check_formula(formula: &Formula, tracked: &Tracked) -> Vec<Violation> {
    let mut w = Walker {
        tracked,
        violations: Vec::new(),
        trail: Vec::new(),
    };
    w.formula(formula);
    w.violations
}

/// Convenience: is the range expression positive in the tracked names?
pub fn is_positive(range: &RangeExpr, tracked: &Tracked) -> bool {
    check_range(range, tracked).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Branch;
    use crate::builder::*;

    /// The paper's `nonsense` constructor body (§3.3):
    /// `EACH r IN Rel: NOT (r IN Rel{nonsense})` — one NOT over the
    /// recursive occurrence ⇒ violation.
    #[test]
    fn nonsense_is_rejected() {
        let body = set_former(vec![Branch::each(
            "r",
            rel("Rel"),
            not(member("r", rel("Rel").construct("nonsense", vec![]))),
        )]);
        let v = check_range(&body, &Tracked::AllConstructed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].name, "nonsense");
        assert_eq!(v[0].parity, 1);
        assert!(v[0].context.contains("NOT"));
    }

    /// The paper's `strange` constructor (§3.3):
    /// `EACH r IN Baserel: NOT SOME s IN Baserel{strange}
    ///      (r.number = s.number + 1)`
    /// — also one NOT ⇒ rejected by the compiler even though its
    /// iteration happens to converge.
    #[test]
    fn strange_is_rejected() {
        let body = set_former(vec![Branch::each(
            "r",
            rel("Baserel"),
            not(some(
                "s",
                rel("Baserel").construct("strange", vec![]),
                eq(attr("r", "number"), add(attr("s", "number"), cnst(1u64))),
            )),
        )]);
        assert!(!is_positive(&body, &Tracked::AllConstructed));
    }

    /// The `ahead` body is positive: recursive occurrence only as a
    /// binding range.
    #[test]
    fn ahead_is_positive() {
        let body = set_former(vec![
            Branch::each("r", rel("Rel"), tru()),
            Branch::projecting(
                vec![attr("f", "front"), attr("b", "tail")],
                vec![
                    ("f".into(), rel("Rel")),
                    ("b".into(), rel("Rel").construct("ahead", vec![])),
                ],
                eq(attr("f", "back"), attr("b", "head")),
            ),
        ]);
        assert!(is_positive(&body, &Tracked::AllConstructed));
    }

    /// Double negation is even ⇒ positive, per the definition's "even
    /// total number". (Built with explicit `Formula::Not` because the
    /// `negate()` builder collapses `NOT NOT`.)
    #[test]
    fn double_negation_is_positive() {
        let explicit = Formula::Not(Box::new(Formula::Not(Box::new(member("r", rel("Rec"))))));
        assert!(check_formula(&explicit, &Tracked::name("Rec")).is_empty());
    }

    /// ALL counts only for names in its *range*, not its body.
    #[test]
    fn all_range_vs_body() {
        // ALL x IN Rec (TRUE): Rec in range ⇒ parity 1 ⇒ violation.
        let in_range = all("x", rel("Rec"), tru());
        assert_eq!(check_formula(&in_range, &Tracked::name("Rec")).len(), 1);

        // ALL x IN Other (x IN Rec): Rec in body ⇒ parity 0 ⇒ ok.
        let in_body = all("x", rel("Other"), member("x", rel("Rec")));
        assert!(check_formula(&in_body, &Tracked::name("Rec")).is_empty());
    }

    /// NOT ALL range = parity 2 ⇒ even ⇒ positive.
    #[test]
    fn nested_not_all_is_even() {
        let f = Formula::Not(Box::new(all("x", rel("Rec"), tru())));
        assert!(check_formula(&f, &Tracked::name("Rec")).is_empty());
    }

    /// SOME keeps parity for both range and body.
    #[test]
    fn some_preserves_parity() {
        let f = some("x", rel("Rec"), member("x", rel("Rec")));
        assert!(check_formula(&f, &Tracked::name("Rec")).is_empty());
        let neg = Formula::Not(Box::new(f));
        let v = check_formula(&neg, &Tracked::name("Rec"));
        assert_eq!(v.len(), 2); // both occurrences now odd
    }

    /// Selection over a tracked base keeps parity (monotone).
    #[test]
    fn selected_base_transparent() {
        let r = rel("Rec").select("s", vec![cnst(1i64)]);
        let f = member("x", r);
        assert!(check_formula(&f, &Tracked::name("Rec")).is_empty());
        let neg = Formula::Not(Box::new(f));
        assert_eq!(check_formula(&neg, &Tracked::name("Rec")).len(), 1);
    }

    /// Untracked names never violate.
    #[test]
    fn untracked_names_ignored() {
        let f = not(member("r", rel("Base")));
        assert!(check_formula(&f, &Tracked::name("Rec")).is_empty());
    }

    /// Multiple violations are all reported.
    #[test]
    fn multiple_violations_reported() {
        let f = not(member("r", rel("Rec"))).and(all("x", rel("Rec"), tru()));
        let v = check_formula(&f, &Tracked::name("Rec"));
        assert_eq!(v.len(), 2);
        assert!(v[0].to_string().contains("Rec"));
    }

    /// Constructor args and base are checked at current parity.
    #[test]
    fn constructed_args_checked() {
        let r = rel("Base").construct("c", vec![rel("Rec")]);
        let f = Formula::Not(Box::new(member("x", r)));
        let v = check_formula(&f, &Tracked::name("Rec"));
        assert_eq!(v.len(), 1);
    }
}
