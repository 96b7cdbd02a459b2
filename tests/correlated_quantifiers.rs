//! Randomized differential suite for **correlated** quantified ranges:
//! the unnested path (§4's N2/N3 run backwards, then decided by the
//! quantifier probes) against the oracle's per-combination scan
//! (`dc_bench::oracle`, which evaluates each query as written) over generated CAD
//! scenes and staffing instances, plus the fixpoint interaction — a
//! constructor whose body quantifies over a correlated view of the
//! recursive application, so the unnested range's underlying value
//! changes as deltas commit mid-solve.

use dc_bench::workload::rng::SplitMix64;
use dc_calculus::ast::{Branch, SelectorDef};
use dc_calculus::builder::*;
use dc_calculus::{Formula, RangeExpr};
use dc_core::{paper, Constructor, Database, Strategy};
use dc_value::{tuple, Domain, Schema};

/// A random correlated filter over `Ontop`, correlated on an attribute
/// of the outer edge variable `r`, with an optional local residual. The
/// correlation sits in the predicate or — a correlated binding range —
/// in the range it binds, `Ontop[on_base(r.X)]`; the target is the
/// bound tuple or the projection `<o.base, o.top>`.
fn random_correlated_range(rng: &mut SplitMix64) -> RangeExpr {
    let outer_attr = if rng.below(2) == 0 { "front" } else { "back" };
    let (over, corr) = if rng.below(3) == 0 {
        let items = rel("Ontop").select("on_base", vec![attr("r", outer_attr)]);
        (items, tru())
    } else {
        (rel("Ontop"), eq(attr("o", "base"), attr("r", outer_attr)))
    };
    let residual = match rng.below(4) {
        0 => tru(),
        1 => ne(attr("o", "top"), cnst("item_0_0")),
        2 => gt(attr("o", "top"), attr("o", "base")),
        // A local nested quantifier: o's base is a registered object.
        _ => some(
            "q",
            rel("Objects"),
            eq(attr("q", "part"), attr("o", "base")),
        ),
    };
    let bindings = vec![("o".to_string(), over)];
    let target = if rng.below(2) == 0 {
        dc_calculus::Target::Var("o".into())
    } else {
        dc_calculus::Target::Tuple(vec![attr("o", "base"), attr("o", "top")])
    };
    set_former(vec![Branch {
        target,
        bindings,
        predicate: corr.and(residual),
    }])
}

/// A random quantified predicate over the correlated range: SOME/ALL,
/// with bodies ranging from trivial to implication-shaped, through
/// whole-tuple membership (`t IN Ontop`, for both target kinds) and a
/// nested range that mentions `t`.
fn random_correlated_query(rng: &mut SplitMix64) -> RangeExpr {
    let range = random_correlated_range(rng);
    let body = match rng.below(5) {
        0 => tru(),
        1 => ne(attr("t", "top"), attr("r", "back")),
        // Implication over the bound tuple.
        2 => not(eq(attr("t", "base"), attr("r", "front")))
            .or(gt(attr("t", "top"), attr("t", "base"))),
        3 => member("t", rel("Ontop")).and(ne(attr("t", "top"), attr("r", "front"))),
        // Something stands on the item itself.
        _ => some(
            "s",
            rel("Ontop").select("on_base", vec![attr("t", "top")]),
            ne(attr("s", "top"), attr("r", "back")),
        ),
    };
    let pred = if rng.below(2) == 0 {
        some("t", range, body)
    } else {
        all("t", range, body)
    };
    // Half the time, wrap in a negation (exercises the NNF duality).
    let pred = if rng.below(2) == 0 { not(pred) } else { pred };
    set_former(vec![Branch::each("r", rel("Infront"), pred)])
}

#[test]
fn randomized_correlated_quantifiers_agree_with_reference() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for (seed, rows, depth, stack_every) in
        [(3u64, 4usize, 6usize, 2usize), (17, 6, 5, 3), (41, 8, 8, 2)]
    {
        let scene = dc_bench::workload::scene(rows, depth, stack_every, seed);
        let db = dc_bench::scene_db(&scene);
        for _ in 0..24 {
            let q = random_correlated_query(&mut rng);
            dc_bench::oracle::assert_agrees(&db, &q).unwrap();
        }
    }
}

#[test]
fn correlated_selector_applications_agree_with_reference() {
    // The Selected form of the same correlation: Ontop[on_base(r.X)].
    for (seed, rows, depth) in [(5u64, 5usize, 6usize), (29, 7, 7)] {
        let scene = dc_bench::workload::scene(rows, depth, 2, seed);
        let db = dc_bench::scene_db(&scene);
        for outer_attr in ["front", "back"] {
            for existential in [true, false] {
                let range = rel("Ontop").select("on_base", vec![attr("r", outer_attr)]);
                let body = ne(attr("t", "top"), attr("r", "back"));
                let pred = if existential {
                    some("t", range, body)
                } else {
                    all("t", range, body)
                };
                let q = set_former(vec![Branch::each("r", rel("Infront"), pred)]);
                dc_bench::oracle::assert_agrees(&db, &q).unwrap();
            }
        }
    }
    // A CARDINAL RANGE parameter: the argument 5 is out of range, which
    // the oracle raises when it applies the selector — and so must the
    // unnested path, whose formula never applies it.
    let levels = || {
        let mut db = Database::new();
        let schema = Schema::of(&[("item", Domain::Str), ("level", Domain::Card)]);
        db.create_relation("Levels", schema.clone()).unwrap();
        db.insert_all("Levels", vec![tuple!["a", 1u64], tuple!["b", 2u64]])
            .unwrap();
        db.create_relation("Probes", Schema::of(&[("n", Domain::Card)]))
            .unwrap();
        db.define_selector(
            SelectorDef {
                name: "at_level".into(),
                element_var: "l".into(),
                params: vec![("L".into(), Domain::CardRange(0, 3))],
                predicate: eq(attr("l", "level"), param("L")),
            },
            schema,
        )
        .unwrap();
        db
    };
    for probes in [vec![1u64, 3], vec![2, 5]] {
        let mut db = levels();
        for n in &probes {
            db.insert("Probes", tuple![*n]).unwrap();
        }
        for existential in [true, false] {
            let range = rel("Levels").select("at_level", vec![attr("p", "n")]);
            let body = ne(attr("t", "item"), cnst("b"));
            let pred = if existential {
                some("t", range, body)
            } else {
                all("t", range, body)
            };
            let q = set_former(vec![Branch::each("p", rel("Probes"), pred)]);
            let out = dc_bench::oracle::assert_agrees(&db, &q);
            assert_eq!(out.is_err(), probes.contains(&5), "{out:?}");
        }
    }
}

/// Acceptance: implication-shaped `ALL` bodies (`NOT p OR q`) take the
/// probe path — `EXPLAIN` shows the site probing `base`, the falsifier's
/// key, and re-checking the negated consequent — and the probed result
/// matches the oracle on randomized scenes.
#[test]
fn all_implication_probe_path_differential() {
    for seed in [2u64, 13, 31] {
        let scene = dc_bench::workload::scene(5, 7, 2, seed);
        let db = dc_bench::scene_db(&scene);
        let q = dc_bench::unburdened_front_query();
        let explained = db.explain(&q).unwrap();
        assert!(
            explained.text().contains("probe t on [base]")
                && explained.text().contains("residual t.top <= t.base;"),
            "{explained}"
        );
        dc_bench::oracle::assert_agrees(&db, &q).unwrap();
    }
}

/// A constructor whose body quantifies over a *correlated view of the
/// recursive application*: the branch is class-Fallback (application
/// under a quantifier), so it re-evaluates every round while committed
/// deltas keep growing the application's value — any stale index would
/// lose `marked` tuples or diverge from the scan path.
///
/// ```text
/// reach = Rel ∪ { <r.front, "marked"> : r IN Rel,
///                 SOME t IN {EACH y IN Rel{reach()}:
///                            y.head = r.back AND y.head # y.tail} (TRUE) }
/// ```
///
/// The quantified view is correlated on `r.back` and filters the
/// *current iterate*, which is empty in round one and grows as deltas
/// commit — the probed index must follow it per round.
fn correlated_fallback_constructor() -> Constructor {
    use dc_calculus::ast::SetFormer;
    let corr_view = set_former(vec![Branch::each(
        "y",
        rel("Rel").construct("reach", vec![]),
        eq(attr("y", "head"), attr("r", "back")).and(ne(attr("y", "head"), attr("y", "tail"))),
    )]);
    Constructor {
        name: "reach".into(),
        base_param: ("Rel".into(), paper::infrontrel()),
        rel_params: vec![],
        scalar_params: vec![],
        result: dc_value::Schema::of(&[
            ("head", dc_value::Domain::Str),
            ("tail", dc_value::Domain::Str),
        ]),
        body: SetFormer {
            branches: vec![
                Branch::projecting(
                    vec![attr("r", "front"), attr("r", "back")],
                    vec![("r".into(), rel("Rel"))],
                    tru(),
                ),
                Branch::projecting(
                    vec![attr("r", "front"), cnst("marked")],
                    vec![("r".into(), rel("Rel"))],
                    some("t", corr_view, tru()),
                ),
            ],
        },
    }
}

#[test]
fn fixpoint_with_correlated_quantifier_mid_solve_deltas() {
    for depth in [4usize, 7] {
        let base = dc_bench::workload::chain(depth);
        let q = rel("Infront").construct("reach", vec![]);
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let mut db = Database::new();
            db.set_strategy(strategy);
            db.create_relation("Infront", base.schema().clone())
                .unwrap();
            for t in base.iter() {
                db.insert("Infront", t.clone()).unwrap();
            }
            db.define_constructor(correlated_fallback_constructor())
                .unwrap();
            let out = dc_bench::oracle::assert_agrees(&db, &q).unwrap();
            // The marked tuples only exist because round two saw the delta
            // committed in round one: an edge is marked iff its back is some
            // edge's head. On a chain of n edges that is every edge but the
            // last — n base edges + (n-1) marked tuples.
            assert_eq!(out.len(), depth + depth - 1, "depth={depth}");
            assert!(out.contains(&dc_value::tuple!["o0", "marked"]));
            assert!(!out.contains(&dc_value::tuple![format!("o{}", depth - 1), "marked"]));
        }
    }
}

/// A selector whose element variable would capture the actual argument
/// is *not* rewritten (the capture guard refuses) — the evaluator's scan
/// still answers, and it agrees with the oracle.
#[test]
fn selector_rewrite_capture_guard() {
    let scene = dc_bench::workload::scene(3, 4, 2, 9);
    let mut db = dc_bench::scene_db(&scene);
    // Element variable is named `r`, colliding with the outer edge
    // variable referenced by the argument.
    db.define_selector(
        SelectorDef {
            name: "on_base_r".into(),
            element_var: "r".into(),
            params: vec![("B".into(), Domain::Str)],
            predicate: eq(attr("r", "base"), param("B")),
        },
        scene.ontop.schema().clone(),
    )
    .unwrap();
    let q = set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        some(
            "t",
            rel("Ontop").select("on_base_r", vec![attr("r", "front")]),
            tru(),
        ),
    )]);
    dc_bench::oracle::assert_agrees(&db, &q).unwrap();
}

/// Shapes the unnesting takes in its stride (correlation through an
/// inequality, a disjunction mixing outer and local references, an
/// outer column in a two-binding view's target) and the one it refuses
/// (a union of branches, left on the evaluator's scan) must all agree
/// with the oracle — the fallback is a scan, never a wrong answer.
#[test]
fn refused_decorrelations_fall_back_soundly() {
    let scene = dc_bench::workload::scene(4, 5, 2, 21);
    let db = dc_bench::scene_db(&scene);
    let refusals: Vec<Formula> = vec![
        // Correlated through an inequality.
        some(
            "t",
            set_former(vec![Branch::each(
                "o",
                rel("Ontop"),
                le(attr("o", "base"), attr("r", "front")),
            )]),
            tru(),
        ),
        // Disjunction mixing outer and local references.
        all(
            "t",
            set_former(vec![Branch::each(
                "o",
                rel("Ontop"),
                eq(attr("o", "base"), attr("r", "front"))
                    .or(eq(attr("o", "top"), cnst("item_0_0"))),
            )]),
            ne(attr("t", "top"), attr("r", "back")),
        ),
        // Correlated target on a two-binding view: Case 2 substitutes
        // the outer column into the body.
        some(
            "t",
            set_former(vec![Branch::projecting(
                vec![attr("o", "top"), attr("r", "back")],
                vec![("o".into(), rel("Ontop")), ("p".into(), rel("Objects"))],
                eq(attr("o", "base"), attr("r", "front"))
                    .and(eq(attr("p", "part"), attr("o", "top"))),
            )]),
            tru(),
        ),
        // A union of two correlated branches: not unnested.
        all(
            "t",
            set_former(vec![
                Branch::each("o", rel("Ontop"), eq(attr("o", "base"), attr("r", "front"))),
                Branch::each("o", rel("Ontop"), eq(attr("o", "top"), attr("r", "back"))),
            ]),
            ne(attr("t", "top"), cnst("item_0_0")),
        ),
    ];
    for pred in refusals {
        let q = set_former(vec![Branch::each("r", rel("Infront"), pred)]);
        dc_bench::oracle::assert_agrees(&db, &q).unwrap();
    }
}

/// A **multi-binding** correlated set-former (a join view) inside a
/// quantifier, unnested into one quantifier per binding, each probed on
/// the conjuncts its variable completes. Fixed shapes here; randomized
/// coverage in [`randomized_multi_binding_join_views_agree`].
#[test]
fn multi_binding_join_views_decorrelate_soundly() {
    let scene = dc_bench::workload::scene(5, 6, 2, 13);
    let db = dc_bench::scene_db(&scene);
    // Items on r.front whose name is a registered part, joined across
    // Ontop ⋈ Objects.
    let joined_view = set_former(vec![Branch::projecting(
        vec![attr("o", "top"), attr("p", "part")],
        vec![("o".into(), rel("Ontop")), ("p".into(), rel("Objects"))],
        eq(attr("o", "base"), attr("r", "front")).and(eq(attr("p", "part"), attr("o", "top"))),
    )]);
    // A joint key spanning both bindings: o correlates on r.front,
    // q on r.back, locally joined on the stacked item name.
    let spanning_view = set_former(vec![Branch::projecting(
        vec![attr("o", "top")],
        vec![("o".into(), rel("Ontop")), ("q".into(), rel("Infront"))],
        eq(attr("o", "top"), attr("q", "front"))
            .and(eq(attr("o", "base"), attr("r", "front")))
            .and(eq(attr("q", "back"), attr("r", "back"))),
    )]);
    for (view, body) in [
        (joined_view.clone(), tru()),
        (joined_view, ne(attr("t", "top"), attr("r", "back"))),
        (spanning_view.clone(), tru()),
        (spanning_view, ne(attr("t", "top"), attr("r", "front"))),
    ] {
        for existential in [true, false] {
            let pred = if existential {
                some("t", view.clone(), body.clone())
            } else {
                all("t", view.clone(), body.clone())
            };
            let q = set_former(vec![Branch::each("r", rel("Infront"), pred)]);
            dc_bench::oracle::assert_agrees(&db, &q).unwrap();
        }
    }
}

/// Randomized multi-binding correlated-quantifier differentials over
/// staffing instances: correlation on one or both bindings, varying
/// local residuals, SOME/ALL, negation wrapping — unnested vs the
/// oracle.
#[test]
fn randomized_multi_binding_join_views_agree() {
    let mut rng = SplitMix64::new(0xBEEF);
    for (seed, tasks, workers, tools) in [(7u64, 15usize, 8usize, 6usize), (23, 25, 12, 9)] {
        let s = dc_bench::workload::staffing(tasks, workers, tools, 2, 2, 20, seed);
        let db = dc_bench::staffing_db(&s);
        for _ in 0..10 {
            // Local join atom always present; correlation on one or both
            // bindings.
            let corr = match rng.below(3) {
                0 => eq(attr("a", "task"), attr("r", "task")),
                1 => eq(attr("a", "task"), attr("r", "task"))
                    .and(eq(attr("s", "tool"), attr("r", "tool"))),
                _ => eq(attr("s", "tool"), attr("r", "tool")),
            };
            let residual = match rng.below(3) {
                0 => tru(),
                1 => ne(attr("a", "worker"), cnst("w0")),
                _ => some(
                    "z",
                    rel("Requests"),
                    eq(attr("z", "task"), attr("a", "task")),
                ),
            };
            let view = set_former(vec![Branch::projecting(
                vec![attr("a", "worker"), attr("s", "tool")],
                vec![("a".into(), rel("Assign")), ("s".into(), rel("Skill"))],
                eq(attr("a", "worker"), attr("s", "worker"))
                    .and(corr)
                    .and(residual),
            )]);
            let body = match rng.below(3) {
                0 => tru(),
                1 => ne(attr("x", "worker"), cnst("w1")),
                _ => eq(attr("x", "tool"), attr("r", "tool")),
            };
            let pred = if rng.below(2) == 0 {
                some("x", view, body)
            } else {
                all("x", view, body)
            };
            let pred = if rng.below(2) == 0 { not(pred) } else { pred };
            let q = set_former(vec![Branch::each("r", rel("Requests"), pred)]);
            dc_bench::oracle::assert_agrees(&db, &q).unwrap();
        }
    }
}

/// A constructor whose recursive branch quantifies over a correlated
/// **join view of the recursive application**: two bindings over the
/// current iterate, locally joined on `head`, correlated on `r.back` —
/// class-Fallback, re-evaluated every round while committed deltas grow
/// the application's value mid-solve. Any probe of a stale iterate would
/// miss `marked` tuples or diverge from the scan.
fn correlated_join_fallback_constructor() -> Constructor {
    use dc_calculus::ast::SetFormer;
    let corr_join_view = set_former(vec![Branch::projecting(
        vec![attr("y", "head"), attr("z", "tail")],
        vec![
            ("y".into(), rel("Rel").construct("reach", vec![])),
            ("z".into(), rel("Rel").construct("reach", vec![])),
        ],
        eq(attr("y", "head"), attr("z", "head")).and(eq(attr("y", "head"), attr("r", "back"))),
    )]);
    Constructor {
        name: "reach".into(),
        base_param: ("Rel".into(), paper::infrontrel()),
        rel_params: vec![],
        scalar_params: vec![],
        result: dc_value::Schema::of(&[
            ("head", dc_value::Domain::Str),
            ("tail", dc_value::Domain::Str),
        ]),
        body: SetFormer {
            branches: vec![
                Branch::projecting(
                    vec![attr("r", "front"), attr("r", "back")],
                    vec![("r".into(), rel("Rel"))],
                    tru(),
                ),
                Branch::projecting(
                    vec![attr("r", "front"), cnst("marked")],
                    vec![("r".into(), rel("Rel"))],
                    some("t", corr_join_view, tru()),
                ),
            ],
        },
    }
}

#[test]
fn fixpoint_with_correlated_join_view_mid_solve_deltas() {
    for depth in [4usize, 7] {
        let base = dc_bench::workload::chain(depth);
        let q = rel("Infront").construct("reach", vec![]);
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let mut db = Database::new();
            db.set_strategy(strategy);
            db.create_relation("Infront", base.schema().clone())
                .unwrap();
            for t in base.iter() {
                db.insert("Infront", t.clone()).unwrap();
            }
            db.define_constructor(correlated_join_fallback_constructor())
                .unwrap();
            let out = dc_bench::oracle::assert_agrees(&db, &q).unwrap();
            // An edge is marked iff some (y, z) pair in the iterate joins
            // on head = r.back — i.e. iff its back is some tuple's head,
            // which round one's committed delta makes true for every edge
            // but the last: n base edges + (n-1) marked tuples.
            assert_eq!(out.len(), depth + depth - 1, "depth={depth}");
            assert!(out.contains(&dc_value::tuple!["o0", "marked"]));
            assert!(!out.contains(&dc_value::tuple![format!("o{}", depth - 1), "marked"]));
        }
    }
}
