//! Resource-governance suite: budgets (deadline, tuple ceiling, round
//! ceiling), cooperative cancellation, and divergence reporting — and
//! the atomic-abort invariant they all share: a tripped solve leaves
//! the database byte-identical to its pre-solve snapshot, and the only
//! trace it leaves behind is the structured [`SolveError`] diagnostics.

use dc_bench::{counted, snapshot, unwrap_solve_error};
use dc_calculus::builder::*;
use dc_calculus::{Branch, EvalError, SetFormer};
use dc_core::{Constructor, CoreError, Database, Strategy};
use dc_governor::{Budget, CancelToken, SolveError};
use dc_trace::metrics::MetricsSnapshot;
use dc_value::{Domain, Schema};

/// The E1 chain workload: `ahead` transitive closure over a chain of
/// `n` edges (closure size n·(n+1)/2).
fn chain_db(n: usize) -> Database {
    dc_bench::ahead_db(&dc_bench::workload::chain(n), Strategy::SemiNaive)
}

/// An aborted solve records nothing into the registry: the solve
/// counters `d` grew by across it are all zero.
fn records_no_solve(d: &MetricsSnapshot) {
    assert_eq!(
        (
            d.solve_runs,
            d.solve_rounds,
            d.solve_equations,
            d.delta_tuples
        ),
        (0, 0, 0, 0),
        "{d:?}"
    );
}

/// The acceptance scenario: a 10 ms deadline over the E1 chain workload
/// returns `DeadlineExceeded` with diagnostics, and the database is
/// observationally untouched by the aborted solve.
#[test]
fn deadline_trips_with_diagnostics_and_atomic_abort() {
    let mut db = chain_db(400);
    db.set_budget(Some(Budget::unlimited().with_deadline_ms(10)));
    let before = snapshot(&db);

    let (result, d) = counted(&db.metrics(), || db.eval(&dc_bench::ahead_query()));
    let se = unwrap_solve_error(result.unwrap_err());
    match &se {
        SolveError::DeadlineExceeded {
            elapsed_ms,
            limit_ms,
            diag,
        } => {
            assert_eq!(*limit_ms, 10);
            assert!(*elapsed_ms >= 10, "elapsed {elapsed_ms} ms");
            // The solver enriched the trip on the way out. Where the
            // trip lands depends on timing: mid-equation ticks name the
            // equation, a deadline observed at the round boundary names
            // the round — either way the site is populated.
            assert!(
                diag.site.contains("equation 0") || diag.site.contains("round boundary"),
                "diagnostics name the trip site: {diag:?}"
            );
        }
        other => panic!("expected DeadlineExceeded, got: {other}"),
    }

    // Atomic abort: base relations byte-identical, no solve recorded.
    assert_eq!(snapshot(&db), before);
    records_no_solve(&d);

    // The database is fully usable afterwards: lifting the budget
    // yields the complete closure.
    db.set_budget(None);
    let out = db.eval(&dc_bench::ahead_query()).unwrap();
    assert_eq!(out.len(), 400 * 401 / 2);
}

#[test]
fn tuple_ceiling_trips_mid_solve() {
    let mut db = chain_db(64);
    db.set_budget(Some(Budget::unlimited().with_max_tuples(100)));
    let before = snapshot(&db);

    let se = unwrap_solve_error(db.eval(&dc_bench::ahead_query()).unwrap_err());
    match se {
        SolveError::TupleBudgetExceeded {
            produced, limit, ..
        } => {
            assert_eq!(limit, 100);
            assert!(produced > 100, "trip fires past the ceiling: {produced}");
        }
        other => panic!("expected TupleBudgetExceeded, got: {other}"),
    }
    assert_eq!(snapshot(&db), before);

    // The full closure (2080 tuples) fits under a roomier ceiling —
    // the work bound counts materialised tuples, not just the result.
    db.set_budget(Some(Budget::unlimited().with_max_tuples(100_000)));
    assert_eq!(db.eval(&dc_bench::ahead_query()).unwrap().len(), 2080);
}

#[test]
fn pre_cancelled_token_aborts_before_any_work() {
    let token = CancelToken::new();
    token.cancel();
    let mut db = chain_db(32);
    db.set_budget(Some(Budget::unlimited().with_cancel(token)));
    let before = snapshot(&db);

    let (result, d) = counted(&db.metrics(), || db.eval(&dc_bench::ahead_query()));
    let se = unwrap_solve_error(result.unwrap_err());
    assert!(matches!(se, SolveError::Cancelled { .. }), "{se}");
    assert_eq!(snapshot(&db), before);
    records_no_solve(&d);
}

#[test]
fn cancellation_from_another_thread_is_observed() {
    // A long chain so the solve is still running when the cancel lands;
    // if the solve happens to finish first the eval simply succeeds and
    // the test still passes on the re-check below — but with a 400-edge
    // chain in a debug build that does not happen in practice.
    let token = CancelToken::new();
    let mut db = chain_db(400);
    db.set_budget(Some(Budget::unlimited().with_cancel(token.clone())));

    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(5));
        token.cancel();
    });
    let result = db.eval(&dc_bench::ahead_query());
    canceller.join().unwrap();

    if let Err(err) = result {
        assert!(matches!(
            unwrap_solve_error(err),
            SolveError::Cancelled { .. }
        ));
        // Aborted atomically: re-solving without the budget works.
        db.set_budget(None);
        assert_eq!(
            db.eval(&dc_bench::ahead_query()).unwrap().len(),
            400 * 401 / 2
        );
    }
}

/// A budget round ceiling renders the divergence verdict with the
/// exhausted allowance in the diagnostics.
#[test]
fn round_ceiling_is_a_divergence_verdict() {
    let mut db = chain_db(64); // needs ~64 rounds to converge
    db.set_budget(Some(Budget::unlimited().with_max_rounds(3)));
    let before = snapshot(&db);

    let se = unwrap_solve_error(db.eval(&dc_bench::ahead_query()).unwrap_err());
    match &se {
        SolveError::Diverged { diag } => {
            assert_eq!(diag.rounds, 3);
            assert!(diag.tuples > 0, "work happened before the trip");
            assert!(
                diag.notes.iter().any(|n| n.contains("round ceiling")),
                "{:?}",
                diag.notes
            );
        }
        other => panic!("expected Diverged, got: {other}"),
    }
    assert_eq!(snapshot(&db), before);

    // Convergence *within* the allowance is a result, not a trip.
    db.set_budget(Some(Budget::unlimited().with_max_rounds(500)));
    assert_eq!(
        db.eval(&dc_bench::ahead_query()).unwrap().len(),
        64 * 65 / 2
    );
}

/// A genuinely non-convergent (but positive, hence monotone) system:
/// `count_up` seeds from the base relation and forever inserts n+1 for
/// every n it has derived. Exhausting a budget's round ceiling must
/// surface as a structured `Diverged` with round/tuple/delta
/// diagnostics — not a panic, not an unbounded loop.
#[test]
fn a_divergent_system_exhausts_its_round_ceiling_with_diagnostics() {
    let numrel = Schema::of(&[("n", Domain::Card)]);
    let count_up = Constructor {
        name: "count_up".into(),
        base_param: ("Rel".into(), numrel.clone()),
        rel_params: vec![],
        scalar_params: vec![],
        result: numrel.clone(),
        body: SetFormer {
            branches: vec![
                Branch::each("r", rel("Rel"), tru()),
                Branch::projecting(
                    vec![add(attr("x", "n"), cnst(1u64))],
                    vec![("x".into(), rel("Rel").construct("count_up", vec![]))],
                    tru(),
                ),
            ],
        },
    };
    let mut db = Database::new();
    db.create_relation("Nums", numrel).unwrap();
    db.insert("Nums", dc_value::tuple![0u64]).unwrap();
    db.define_constructor(count_up).unwrap();
    db.set_budget(Some(Budget::unlimited().with_max_rounds(8)));
    let before = snapshot(&db);

    let err = db
        .eval(&rel("Nums").construct("count_up", vec![]))
        .unwrap_err();
    match unwrap_solve_error(err) {
        SolveError::Diverged { diag } => {
            assert_eq!(diag.rounds, 8);
            assert!(diag.tuples > 0);
            // Every round of `count_up` adds exactly one new number, so
            // a non-empty last delta is the divergence signature.
            assert!(diag.last_delta >= 1, "{diag:?}");
            assert!(
                diag.notes.iter().any(|n| n.contains("round ceiling")),
                "{:?}",
                diag.notes
            );
        }
        other => panic!("expected Diverged, got: {other}"),
    }
    assert_eq!(snapshot(&db), before);
}

/// The taxonomy split: period-2 oscillation of a non-positive system is
/// still the classic `NonConvergent` (there *is no* limit), distinct
/// from `Diverged` (allowance exhausted on a growing system).
#[test]
fn oscillation_remains_nonconvergent_not_diverged() {
    let anyrel = Schema::of(&[("x", Domain::Int)]);
    let nonsense = Constructor {
        name: "nonsense".into(),
        base_param: ("Rel".into(), anyrel.clone()),
        rel_params: vec![],
        scalar_params: vec![],
        result: anyrel.clone(),
        body: SetFormer {
            branches: vec![Branch::each(
                "r",
                rel("Rel"),
                not(member("r", rel("Rel").construct("nonsense", vec![]))),
            )],
        },
    };
    let mut db = Database::new();
    db.create_relation("R", anyrel).unwrap();
    db.insert("R", dc_value::tuple![1i64]).unwrap();
    db.define_constructor_unchecked(nonsense).unwrap();
    let err = db
        .eval(&rel("R").construct("nonsense", vec![]))
        .unwrap_err();
    assert!(matches!(
        err,
        CoreError::Eval(EvalError::NonConvergent { .. })
    ));
}

/// An unbudgeted solve arms no meter, yet it records what it did: the
/// closure of a 32-edge chain counts each of its 528 tuples as delta
/// once, over 33 rounds (the 33rd finds nothing new).
#[test]
fn an_unbudgeted_solve_records_its_delta_tuples_and_rounds() {
    let db = chain_db(32);
    let (out, d) = counted(&db.metrics(), || db.eval(&dc_bench::ahead_query()));
    assert_eq!(out.unwrap().len(), 32 * 33 / 2);
    assert_eq!(
        (d.solve_runs, d.delta_tuples, d.solve_rounds),
        (1, 32 * 33 / 2, 33),
        "{d:?}"
    );
}

/// A weighted graph for one-shot two-hop joins.
fn graph_db() -> Database {
    let edges = dc_bench::workload::weighted_random_graph(120, 3.0, 40, 1);
    dc_bench::weighted_db(&edges)
}

/// A tuple ceiling trips a four-equation ring solve, atomically, and a
/// one-shot join.
#[test]
fn budgets_govern_a_ring_solve_and_a_one_shot_join() {
    let mut db = dc_bench::ring_db(&dc_bench::workload::chain(24));
    db.set_budget(Some(Budget::unlimited().with_max_tuples(50)));
    let before = snapshot(&db);
    let se = unwrap_solve_error(db.eval(&dc_bench::ring_query()).unwrap_err());
    assert!(matches!(se, SolveError::TupleBudgetExceeded { .. }), "{se}");
    assert_eq!(snapshot(&db), before);

    let q = dc_bench::two_hop_query(7);
    let mut db = graph_db();
    assert!(db.eval(&q).unwrap().len() > 10);
    db.set_budget(Some(Budget::unlimited().with_max_tuples(10)));
    let se = unwrap_solve_error(db.eval(&q).unwrap_err());
    assert!(
        matches!(se, SolveError::TupleBudgetExceeded { limit: 10, .. }),
        "{se}"
    );
}

/// A budget on the database governs top-level query evaluation as well
/// as solves: a pre-cancelled token trips a plain (constructor-free)
/// set-former scan and a two-hop join, as does an already-expired
/// deadline.
#[test]
fn budget_governs_plain_queries() {
    let token = CancelToken::new();
    token.cancel();
    let mut db = chain_db(64);
    db.set_budget(Some(Budget::unlimited().with_cancel(token.clone())));
    let q = set_former(vec![Branch::each("r", rel("Infront"), tru())]);
    let err = db.eval(&q).unwrap_err();
    assert!(matches!(
        unwrap_solve_error(err),
        SolveError::Cancelled { .. }
    ));

    let mut db = graph_db();
    db.set_budget(Some(Budget::unlimited().with_cancel(token)));
    let err = db.eval(&dc_bench::two_hop_query(7)).unwrap_err();
    assert!(matches!(
        unwrap_solve_error(err),
        SolveError::Cancelled { .. }
    ));
    db.set_budget(Some(Budget::unlimited().with_deadline_ms(0)));
    let err = db.eval(&dc_bench::two_hop_query(7)).unwrap_err();
    assert!(matches!(
        unwrap_solve_error(err),
        SolveError::DeadlineExceeded { limit_ms: 0, .. }
    ));
}
