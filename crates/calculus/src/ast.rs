//! Abstract syntax of the DBPL relational calculus fragment.

use std::fmt;

use dc_value::{Domain, Value};

/// A tuple variable name (`r`, `f`, `b`, … in the paper).
pub type Var = String;

/// A relation / selector / constructor / parameter name.
pub type Name = String;

/// Arithmetic operators on scalar expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `DIV`
    Div,
    /// `MOD`
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "DIV",
            ArithOp::Mod => "MOD",
        };
        write!(f, "{s}")
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `#` (DBPL inequality)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with negated meaning (`NOT (a = b)` ⇔ `a # b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Apply the comparison to an [`std::cmp::Ordering`].
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "#",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Value-typed expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarExpr {
    /// A literal constant.
    Const(Value),
    /// Attribute access `var.attr` (e.g. `r.front`).
    Attr(Var, String),
    /// A scalar parameter of the enclosing selector/constructor
    /// (e.g. `Obj` in the `hidden_by(Obj: parttype)` selector, §3.1).
    Param(Name),
    /// Arithmetic (`s.number + 1` in the `strange` example, §3.3).
    Arith(Box<ScalarExpr>, ArithOp, Box<ScalarExpr>),
}

/// Truth-typed expressions (the paper's predicates).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// `TRUE`
    True,
    /// `FALSE`
    False,
    /// Comparison of scalars.
    Cmp(ScalarExpr, CmpOp, ScalarExpr),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Range-coupled existential quantifier `SOME v IN range (body)`.
    Some(Var, RangeExpr, Box<Formula>),
    /// Range-coupled universal quantifier `ALL v IN range (body)`.
    All(Var, RangeExpr, Box<Formula>),
    /// Tuple-variable membership `v IN range`.
    Member(Var, RangeExpr),
    /// Constructed-tuple membership `<e1, …, ek> IN range`.
    TupleIn(Vec<ScalarExpr>, RangeExpr),
}

impl Formula {
    /// `self AND other` with trivial simplification.
    pub fn and(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::True, f) | (f, Formula::True) => f,
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (a, b) => Formula::And(Box::new(a), Box::new(b)),
        }
    }

    /// `self OR other` with trivial simplification.
    pub fn or(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::False, f) | (f, Formula::False) => f,
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (a, b) => Formula::Or(Box::new(a), Box::new(b)),
        }
    }

    /// `NOT self` with double-negation elimination.
    pub fn negate(self) -> Formula {
        match self {
            Formula::Not(inner) => *inner,
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            f => Formula::Not(Box::new(f)),
        }
    }
}

/// Relation-typed expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RangeExpr {
    /// A named relation — a base relation variable, or a formal relation
    /// parameter bound by the enclosing selector/constructor (the
    /// `Catalog` in scope decides).
    Rel(Name),
    /// Selector application `base[selector(args)]` (§2.3).
    Selected {
        /// The relation being selected from.
        base: Box<RangeExpr>,
        /// Selector name.
        selector: Name,
        /// Actual scalar arguments.
        args: Vec<ScalarExpr>,
    },
    /// Constructor application `base{constructor(args)}` (§3).
    Constructed {
        /// The relation being expanded.
        base: Box<RangeExpr>,
        /// Constructor name.
        constructor: Name,
        /// Actual relation arguments (e.g. `Ontop` in
        /// `Infront{ahead(Ontop)}`).
        args: Vec<RangeExpr>,
        /// Actual scalar arguments, matching the constructor's scalar
        /// parameters (§4 discusses "constant values in restrictive
        /// terms of constructor definition").
        scalar_args: Vec<ScalarExpr>,
    },
    /// A set former `{branch, branch, …}` — the union of its branches.
    SetFormer(SetFormer),
}

impl RangeExpr {
    /// Convenience: named relation.
    pub fn rel(name: impl Into<Name>) -> RangeExpr {
        RangeExpr::Rel(name.into())
    }

    /// Wrap in a selector application.
    pub fn select(self, selector: impl Into<Name>, args: Vec<ScalarExpr>) -> RangeExpr {
        RangeExpr::Selected {
            base: Box::new(self),
            selector: selector.into(),
            args,
        }
    }

    /// Wrap in a constructor application with no scalar arguments.
    pub fn construct(self, constructor: impl Into<Name>, args: Vec<RangeExpr>) -> RangeExpr {
        self.construct_with(constructor, args, vec![])
    }

    /// Wrap in a constructor application with scalar arguments.
    pub fn construct_with(
        self,
        constructor: impl Into<Name>,
        args: Vec<RangeExpr>,
        scalar_args: Vec<ScalarExpr>,
    ) -> RangeExpr {
        RangeExpr::Constructed {
            base: Box::new(self),
            constructor: constructor.into(),
            args,
            scalar_args,
        }
    }
}

/// A set former: the union of one or more branches, as in the paper's
/// two-branch `ahead` body (§3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SetFormer {
    /// The branches; the set former denotes their union.
    pub branches: Vec<Branch>,
}

/// One branch of a set former:
/// `target OF EACH v1 IN r1, …, EACH vk IN rk : predicate`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Branch {
    /// What each satisfying binding combination contributes.
    pub target: Target,
    /// The range-coupled tuple variables, in binding order.
    pub bindings: Vec<(Var, RangeExpr)>,
    /// The selection predicate.
    pub predicate: Formula,
}

impl Branch {
    /// Branch yielding the bound tuple itself: `EACH v IN range: pred`.
    pub fn each(var: impl Into<Var>, range: RangeExpr, predicate: Formula) -> Branch {
        let var = var.into();
        Branch {
            target: Target::Var(var.clone()),
            bindings: vec![(var, range)],
            predicate,
        }
    }

    /// Branch with an explicit tuple target:
    /// `<exprs> OF EACH … : pred`.
    pub fn projecting(
        target: Vec<ScalarExpr>,
        bindings: Vec<(Var, RangeExpr)>,
        predicate: Formula,
    ) -> Branch {
        Branch {
            target: Target::Tuple(target),
            bindings,
            predicate,
        }
    }
}

/// The output clause of a branch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Target {
    /// The whole tuple bound to a variable (`EACH r IN Rel: TRUE`).
    Var(Var),
    /// A constructed tuple (`<f.front, b.back> OF …`).
    Tuple(Vec<ScalarExpr>),
}

/// A selector definition (§2.3):
///
/// ```text
/// SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
/// BEGIN EACH r IN Rel: r.front = Obj END hidden_by
/// ```
///
/// The selector names a predicate over one element variable
/// (`element_var`, ranging over the relation it is applied to) with
/// scalar parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorDef {
    /// Selector name.
    pub name: Name,
    /// The element variable (e.g. `r`).
    pub element_var: Var,
    /// Formal scalar parameters with their domains.
    pub params: Vec<(Name, Domain)>,
    /// The selection predicate over `element_var`, the parameters, and
    /// any catalog relations (referential-integrity selectors quantify
    /// over other relations, §2.3).
    pub predicate: Formula,
}

// ---------------------------------------------------------------------
// Display: DBPL-flavoured concrete syntax. Round-trips through the
// dc-lang parser (tested there).
// ---------------------------------------------------------------------

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Const(v) => write!(f, "{v}"),
            ScalarExpr::Attr(v, a) => write!(f, "{v}.{a}"),
            ScalarExpr::Param(p) => write!(f, "{p}"),
            ScalarExpr::Arith(l, op, r) => write!(f, "({l} {op} {r})"),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "TRUE"),
            Formula::False => write!(f, "FALSE"),
            Formula::Cmp(l, op, r) => write!(f, "{l} {op} {r}"),
            Formula::And(l, r) => write!(f, "({l} AND {r})"),
            Formula::Or(l, r) => write!(f, "({l} OR {r})"),
            Formula::Not(inner) => write!(f, "NOT ({inner})"),
            Formula::Some(v, range, body) => write!(f, "SOME {v} IN {range} ({body})"),
            Formula::All(v, range, body) => write!(f, "ALL {v} IN {range} ({body})"),
            Formula::Member(v, range) => write!(f, "{v} IN {range}"),
            Formula::TupleIn(exprs, range) => {
                write!(f, "<")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "> IN {range}")
            }
        }
    }
}

impl fmt::Display for RangeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeExpr::Rel(n) => write!(f, "{n}"),
            RangeExpr::Selected {
                base,
                selector,
                args,
            } => {
                write!(f, "{base}[{selector}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")]")
            }
            RangeExpr::Constructed {
                base,
                constructor,
                args,
                scalar_args,
            } => {
                write!(f, "{base}{{{constructor}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                // `(rel, …; scalar, …)`: the `;` opens the scalars even
                // without relation arguments, as the parser reads them.
                for (i, s) in scalar_args.iter().enumerate() {
                    write!(f, "{}{s}", if i == 0 { "; " } else { ", " })?;
                }
                write!(f, ")}}")
            }
            RangeExpr::SetFormer(sf) => write!(f, "{sf}"),
        }
    }
}

impl fmt::Display for SetFormer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, b) in self.branches.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Branch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Target::Tuple(exprs) = &self.target {
            write!(f, "<")?;
            for (i, e) in exprs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, "> OF ")?;
        }
        for (i, (v, r)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "EACH {v} IN {r}")?;
        }
        write!(f, ": {}", self.predicate)
    }
}

impl fmt::Display for SelectorDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECTOR {}(", self.name)?;
        for (i, (p, d)) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{p}: {d}")?;
        }
        write!(
            f,
            ") FOR Rel; BEGIN EACH {} IN Rel: {} END {}",
            self.element_var, self.predicate, self.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_value::Value;

    #[test]
    fn cmp_negate_involution() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn cmp_eval() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal));
        assert!(!CmpOp::Eq.eval(Less));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Le.eval(Less));
        assert!(!CmpOp::Le.eval(Greater));
        assert!(CmpOp::Ne.eval(Greater));
    }

    #[test]
    fn formula_simplifications() {
        let f = Formula::True.and(Formula::Cmp(
            ScalarExpr::Const(Value::Int(1)),
            CmpOp::Eq,
            ScalarExpr::Const(Value::Int(1)),
        ));
        assert!(matches!(f, Formula::Cmp(..)));
        assert_eq!(Formula::False.and(Formula::True), Formula::False);
        assert_eq!(Formula::False.or(Formula::True), Formula::True);
        assert_eq!(Formula::True.negate(), Formula::False);
        let g = Formula::Member("r".into(), RangeExpr::rel("R"));
        assert_eq!(g.clone().negate().negate(), g);
    }

    #[test]
    fn display_ahead_body_branch() {
        // `<f.front, b.back> OF EACH f IN Rel, EACH b IN Rel: f.back = b.front`
        let b = Branch::projecting(
            vec![
                ScalarExpr::Attr("f".into(), "front".into()),
                ScalarExpr::Attr("b".into(), "back".into()),
            ],
            vec![
                ("f".into(), RangeExpr::rel("Rel")),
                ("b".into(), RangeExpr::rel("Rel")),
            ],
            Formula::Cmp(
                ScalarExpr::Attr("f".into(), "back".into()),
                CmpOp::Eq,
                ScalarExpr::Attr("b".into(), "front".into()),
            ),
        );
        assert_eq!(
            b.to_string(),
            "<f.front, b.back> OF EACH f IN Rel, EACH b IN Rel: f.back = b.front"
        );
    }

    #[test]
    fn display_applications() {
        let e = RangeExpr::rel("Infront")
            .select("hidden_by", vec![ScalarExpr::Const(Value::str("table"))])
            .construct("ahead", vec![RangeExpr::rel("Ontop")]);
        assert_eq!(e.to_string(), "Infront[hidden_by(\"table\")]{ahead(Ontop)}");
    }

    #[test]
    fn branch_each_binds_target() {
        let b = Branch::each("r", RangeExpr::rel("Infront"), Formula::True);
        assert_eq!(b.to_string(), "EACH r IN Infront: TRUE");
        assert!(matches!(b.target, Target::Var(ref v) if v == "r"));
    }
}
