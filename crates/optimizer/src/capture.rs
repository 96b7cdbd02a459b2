//! Capture rules (§4, after [Ullm 84]): recognise special-case
//! constructor shapes for which a better evaluation exists than the
//! general fixpoint — "we can attempt to employ capture rules to detect
//! special cases such as [Schn 78]" (linear-expected-time transitive
//! closure).
//!
//! The shape recognised here is the right-linear transitive closure of
//! the paper's running example:
//!
//! ```text
//! CONSTRUCTOR ahead FOR Rel: …;
//! BEGIN EACH r IN Rel: TRUE,
//!       <f.A0, b.B1> OF EACH f IN Rel, EACH b IN Rel{ahead}:
//!           f.A1 = b.B0
//! END
//! ```
//!
//! [`detect_tc`] is the analysis. The rewrite is §4's constraint
//! propagation, as calculus: a query that binds the first result
//! attribute to a constant, `{EACH a IN Base{ahead()}: a.B0 = k}`,
//! becomes `Base{ahead$seeded(; k)}` where [`seeded`] is the
//! left-linear constructor that only ever derives tuples whose first
//! attribute is the seed:
//!
//! ```text
//! CONSTRUCTOR ahead$seeded FOR Rel: … (Seed: …): …;
//! BEGIN EACH f IN Rel: f.A0 = Seed,
//!       <r.B0, f.A1> OF EACH r IN Rel{ahead$seeded(; Seed)},
//!                       EACH f IN Rel: r.B1 = f.A0
//! END
//! ```
//!
//! The engine's ordinary semi-naive solve of that constructor does
//! work proportional to the *cone* of the constant, not to the whole
//! closure (experiment E2) — the magic-set idea, with nothing here
//! executing anything.

use dc_calculus::ast::{Branch, Formula, RangeExpr, ScalarExpr, SetFormer, Target};
use dc_calculus::CmpOp;
use dc_core::{Constructor, CoreError, Database};

/// A recognised transitive-closure shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcShape {
    /// Base column copied to result column 0 (e.g. `front`).
    pub out_pos: usize,
    /// Base column joined against the recursive relation (e.g. `back`).
    pub join_pos: usize,
    /// Recursive-result column joined against (always 0 for this
    /// shape: `head`).
    pub rec_key_pos: usize,
    /// Recursive-result column copied to result column 1 (`tail`).
    pub rec_out_pos: usize,
}

/// Try to recognise a constructor as a right-linear transitive closure.
pub fn detect_tc(ctor: &Constructor) -> Option<TcShape> {
    if ctor.body.branches.len() != 2 || ctor.result.arity() != 2 {
        return None;
    }
    if ctor.base_param.1.arity() != 2 || !ctor.rel_params.is_empty() {
        return None;
    }
    let base_name = &ctor.base_param.0;

    // Branch 1: `EACH v IN Rel: TRUE`.
    let copy = &ctor.body.branches[0];
    let copy_ok = copy.bindings.len() == 1
        && matches!(&copy.bindings[0].1, RangeExpr::Rel(n) if n == base_name)
        && matches!(&copy.target, Target::Var(v) if *v == copy.bindings[0].0)
        && copy.predicate == Formula::True;
    if !copy_ok {
        return None;
    }

    // Branch 2: `<f.a, b.c> OF EACH f IN Rel, EACH b IN Rel{self}: f.x = b.y`.
    let join = &ctor.body.branches[1];
    if join.bindings.len() != 2 {
        return None;
    }
    let (f_var, f_range) = &join.bindings[0];
    let (b_var, b_range) = &join.bindings[1];
    if !matches!(f_range, RangeExpr::Rel(n) if n == base_name) {
        return None;
    }
    let RangeExpr::Constructed {
        base,
        constructor,
        args,
        scalar_args,
    } = b_range
    else {
        return None;
    };
    if constructor != &ctor.name
        || !args.is_empty()
        || !scalar_args.is_empty()
        || !matches!(&**base, RangeExpr::Rel(n) if n == base_name)
    {
        return None;
    }
    let Target::Tuple(targets) = &join.target else {
        return None;
    };
    if targets.len() != 2 {
        return None;
    }
    let base_schema = &ctor.base_param.1;
    let result_schema = &ctor.result;
    let out_pos = match &targets[0] {
        ScalarExpr::Attr(v, a) if v == f_var => base_schema.position(a).ok()?,
        _ => return None,
    };
    let rec_out_pos = match &targets[1] {
        ScalarExpr::Attr(v, a) if v == b_var => result_schema.position(a).ok()?,
        _ => return None,
    };
    let Formula::Cmp(l, CmpOp::Eq, r) = &join.predicate else {
        return None;
    };
    let (join_pos, rec_key_pos) = match (l, r) {
        (ScalarExpr::Attr(lv, la), ScalarExpr::Attr(rv, ra)) if lv == f_var && rv == b_var => (
            base_schema.position(la).ok()?,
            result_schema.position(ra).ok()?,
        ),
        (ScalarExpr::Attr(lv, la), ScalarExpr::Attr(rv, ra)) if lv == b_var && rv == f_var => (
            base_schema.position(ra).ok()?,
            result_schema.position(la).ok()?,
        ),
        _ => return None,
    };
    // The copy branch makes result col i = base col i; for the bound
    // plan to be a reachability we need the canonical orientation.
    if out_pos != 0 || join_pos != 1 || rec_key_pos != 0 || rec_out_pos != 1 {
        return None;
    }
    Some(TcShape {
        out_pos,
        join_pos,
        rec_key_pos,
        rec_out_pos,
    })
}

/// Name of scalar parameter of a [`seeded`] constructor.
const SEED: &str = "Seed";

/// The seeded left-linear variant of a TC-shaped constructor (module
/// docs), or `None` when [`detect_tc`] does not recognise `ctor`. Its
/// name, `<ctor>$seeded`, is one no DBPL identifier can collide with.
pub fn seeded(ctor: &Constructor) -> Option<Constructor> {
    let shape = detect_tc(ctor)?;
    let name = format!("{}$seeded", ctor.name);
    let base_name = &ctor.base_param.0;
    let base = &ctor.base_param.1;
    let base_attr = |pos: usize| ScalarExpr::Attr("f".into(), base.attributes()[pos].name.clone());
    let rec_attr =
        |pos: usize| ScalarExpr::Attr("r".into(), ctor.result.attributes()[pos].name.clone());
    let seed = || ScalarExpr::Param(SEED.into());
    let recursive =
        RangeExpr::rel(base_name.clone()).construct_with(name.clone(), vec![], vec![seed()]);
    Some(Constructor {
        name,
        base_param: ctor.base_param.clone(),
        rel_params: vec![],
        scalar_params: vec![(SEED.into(), base.domain(shape.out_pos).clone())],
        result: ctor.result.clone(),
        body: SetFormer {
            branches: vec![
                Branch::each(
                    "f",
                    RangeExpr::rel(base_name.clone()),
                    Formula::Cmp(base_attr(shape.out_pos), CmpOp::Eq, seed()),
                ),
                Branch::projecting(
                    vec![rec_attr(shape.rec_key_pos), base_attr(shape.join_pos)],
                    vec![
                        ("r".into(), recursive),
                        ("f".into(), RangeExpr::rel(base_name.clone())),
                    ],
                    Formula::Cmp(
                        rec_attr(shape.rec_out_pos),
                        CmpOp::Eq,
                        base_attr(shape.out_pos),
                    ),
                ),
            ],
        },
    })
}

/// §4 propagation of a bound argument. For a query of the form
/// `{EACH a IN Base{c()}: a.<first result attribute> = k}` with `c`
/// TC-shaped and `k` a constant, returns the [`seeded`] constructor and
/// the equivalent range `Base{c$seeded(; k)}`; `None` for any other
/// query (the constant on another attribute, a non-constant
/// comparand, an unrecognised constructor).
pub fn bind_first_attribute(db: &Database, query: &RangeExpr) -> Option<(Constructor, RangeExpr)> {
    let RangeExpr::SetFormer(SetFormer { branches }) = query else {
        return None;
    };
    let [Branch {
        target: Target::Var(target),
        bindings,
        predicate: Formula::Cmp(l, CmpOp::Eq, r),
    }] = branches.as_slice()
    else {
        return None;
    };
    let [(
        var,
        RangeExpr::Constructed {
            base,
            constructor,
            args,
            scalar_args,
        },
    )] = bindings.as_slice()
    else {
        return None;
    };
    if target != var || !args.is_empty() || !scalar_args.is_empty() {
        return None;
    }
    let ((ScalarExpr::Attr(v, a), k @ ScalarExpr::Const(_))
    | (k @ ScalarExpr::Const(_), ScalarExpr::Attr(v, a))) = (l, r)
    else {
        return None;
    };
    let ctor = db.constructor_ref(constructor).ok()?;
    if v != var || ctor.result.position(a).ok()? != 0 {
        return None;
    }
    let seeded = seeded(ctor)?;
    let range = (**base)
        .clone()
        .construct_with(seeded.name.clone(), vec![], vec![k.clone()]);
    Some((seeded, range))
}

/// Apply [`bind_first_attribute`] to `query`, defining the seeded
/// constructor in `db` unless an earlier call already did. A query the
/// rule does not apply to comes back unchanged.
pub fn rewrite_query(db: &mut Database, query: &RangeExpr) -> Result<RangeExpr, CoreError> {
    let Some((seeded, range)) = bind_first_attribute(db, query) else {
        return Ok(query.clone());
    };
    if db.constructor_ref(&seeded.name).is_err() {
        db.define_constructor(seeded)?;
    }
    Ok(range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::ast::{Branch, SetFormer};
    use dc_calculus::builder::*;
    use dc_value::{tuple, Domain, Schema};

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn aheadrel() -> Schema {
        Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)])
    }

    fn ahead() -> Constructor {
        Constructor {
            name: "ahead".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: aheadrel(),
            body: SetFormer {
                branches: vec![
                    Branch::each("r", rel("Rel"), tru()),
                    Branch::projecting(
                        vec![attr("f", "front"), attr("b", "tail")],
                        vec![
                            ("f".into(), rel("Rel")),
                            ("b".into(), rel("Rel").construct("ahead", vec![])),
                        ],
                        eq(attr("f", "back"), attr("b", "head")),
                    ),
                ],
            },
        }
    }

    #[test]
    fn detects_the_paper_ahead() {
        let shape = detect_tc(&ahead()).unwrap();
        assert_eq!(
            shape,
            TcShape {
                out_pos: 0,
                join_pos: 1,
                rec_key_pos: 0,
                rec_out_pos: 1
            }
        );
    }

    #[test]
    fn detects_flipped_equality() {
        let mut c = ahead();
        // b.head = f.back instead of f.back = b.head.
        c.body.branches[1] = Branch::projecting(
            vec![attr("f", "front"), attr("b", "tail")],
            vec![
                ("f".into(), rel("Rel")),
                ("b".into(), rel("Rel").construct("ahead", vec![])),
            ],
            eq(attr("b", "head"), attr("f", "back")),
        );
        assert!(detect_tc(&c).is_some());
    }

    #[test]
    fn rejects_non_tc_shapes() {
        // Extra branch.
        let mut c = ahead();
        c.body.branches.push(Branch::each("r", rel("Rel"), tru()));
        assert!(detect_tc(&c).is_none());

        // Non-equality predicate.
        let mut c = ahead();
        c.body.branches[1].predicate = lt(attr("f", "back"), attr("b", "head"));
        assert!(detect_tc(&c).is_none());

        // Relation parameters (mutual recursion) are out of scope.
        let mut c = ahead();
        c.rel_params.push(("Ontop".into(), infrontrel()));
        assert!(detect_tc(&c).is_none());

        // Copy branch with a real predicate.
        let mut c = ahead();
        c.body.branches[0] = Branch::each("r", rel("Rel"), eq(attr("r", "front"), cnst("x")));
        assert!(detect_tc(&c).is_none());
    }

    fn chain_db(n: usize) -> Database {
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.insert_all(
            "Infront",
            (0..n).map(|i| tuple![format!("o{i}"), format!("o{}", i + 1)]),
        )
        .unwrap();
        db.define_constructor(ahead()).unwrap();
        db
    }

    fn bound_query(attr_name: &str, k: ScalarExpr) -> RangeExpr {
        set_former(vec![Branch::each(
            "a",
            rel("Infront").construct("ahead", vec![]),
            eq(attr("a", attr_name), k),
        )])
    }

    #[test]
    fn bound_query_becomes_a_seeded_application() {
        let mut db = chain_db(10);
        let q = bound_query("head", cnst("o7"));
        let rewritten = rewrite_query(&mut db, &q).unwrap();
        assert_eq!(
            rewritten,
            rel("Infront").construct_with("ahead$seeded", vec![], vec![cnst("o7")])
        );
        // The seeded constructor passed positivity and type checking,
        // and the engine's answer is the filtered closure.
        assert_eq!(db.eval(&rewritten).unwrap(), db.eval(&q).unwrap());
        assert_eq!(db.eval(&rewritten).unwrap().len(), 3);
        // Defining is idempotent: a second seed reuses the definition.
        let flipped = set_former(vec![Branch::each(
            "a",
            rel("Infront").construct("ahead", vec![]),
            eq(cnst("o2"), attr("a", "head")),
        )]);
        let again = rewrite_query(&mut db, &flipped).unwrap();
        assert_eq!(db.eval(&again).unwrap().len(), 8);
        assert_eq!(db.constructor_names(), vec!["ahead", "ahead$seeded"]);
    }

    #[test]
    fn other_queries_come_back_unchanged() {
        let mut db = chain_db(4);
        for q in [
            // Bound on the tail: the seeded closure runs the other way.
            bound_query("tail", cnst("o3")),
            // Not a constant.
            bound_query("head", attr("a", "tail")),
            bound_query("head", param("K")),
            // No constructor application at all.
            rel("Infront"),
        ] {
            assert_eq!(rewrite_query(&mut db, &q).unwrap(), q);
        }
        assert_eq!(db.constructor_names(), vec!["ahead"]);
    }
}
