//! Differential suite for snapshot-evaluated fixpoint rounds: the
//! round scheduler dispatches branch tasks of *different equations*
//! (and independent branches of one equation) to worker threads, each
//! reading a frozen catalog snapshot and logging effects for replay.
//! `threads = N` must produce exactly the relations `threads = 1`
//! produces — across the mutual `ahead`/`above` system, a random
//! multi-equation constructor ring, and an impure (quantifier-probing)
//! branch workload — including when worker panics are injected and
//! when the solve is cancelled mid-flight.
//!
//! The dispatch threshold is lowered to 1 everywhere so even small
//! generated inputs take the batched parallel path, and the
//! [`FixpointStats`] scheduler counters are asserted to prove the
//! parallel path actually ran (not just that results agree).

use dc_bench::parallelised;
use dc_calculus::ast::{Branch, RangeExpr, SetFormer};
use dc_calculus::builder::*;
use dc_calculus::EvalError;
use dc_core::{paper, Constructor, CoreError, Database};
use dc_governor::{Budget, CancelToken, FailpointsGuard, SolveError};

/// The E4 mutual-recursion database: `Infront`/`Ontop` base facts from
/// a generated scene, with the §3.1 mutually recursive `ahead`/`above`
/// constructors registered.
fn mutual_db(scene: &dc_workload::Scene) -> Database {
    let mut db = Database::new();
    db.create_relation("Infront", paper::infrontrel()).unwrap();
    db.create_relation("Ontop", paper::ontoprel()).unwrap();
    for t in scene.infront.iter() {
        db.insert("Infront", t.clone()).unwrap();
    }
    for t in scene.ontop.iter() {
        db.insert("Ontop", t.clone()).unwrap();
    }
    db.define_constructors(vec![paper::ahead_mutual(), paper::above()])
        .unwrap();
    db
}

fn above_query() -> RangeExpr {
    rel("Ontop").construct("above", vec![rel("Infront")])
}

fn ahead_query() -> RangeExpr {
    rel("Infront").construct("ahead", vec![rel("Ontop")])
}

/// Byte-level snapshot of every base relation: (name, len, digest).
fn snapshot(db: &Database) -> Vec<(String, usize, u128)> {
    db.relation_names()
        .into_iter()
        .map(|n| {
            let r = db.relation_ref(n).unwrap();
            (n.to_string(), r.len(), r.digest())
        })
        .collect()
}

fn unwrap_solve_error(err: CoreError) -> SolveError {
    match err {
        CoreError::Eval(EvalError::Solve(se)) => se,
        other => panic!("expected a structured solve error, got: {other}"),
    }
}

/// Transitive closure with a third, *impure* branch: a quantifier
/// probing the recursive application from the predicate position. The
/// branch classifier can only call this `Fallback`, so every round
/// re-evaluates it against the full current value — on a worker
/// thread, reading the frozen snapshot. Its yield is a subset of the
/// base relation, so the fixpoint is still the plain closure.
fn witnessed() -> Constructor {
    Constructor {
        name: "witnessed".into(),
        base_param: ("Rel".into(), paper::infrontrel()),
        rel_params: vec![],
        scalar_params: vec![],
        result: paper::infrontrel(),
        body: SetFormer {
            branches: vec![
                Branch::each("r", rel("Rel"), tru()),
                Branch::projecting(
                    vec![attr("f", "front"), attr("b", "back")],
                    vec![
                        ("f".into(), rel("Rel")),
                        ("b".into(), rel("Rel").construct("witnessed", vec![])),
                    ],
                    eq(attr("f", "back"), attr("b", "front")),
                ),
                Branch::each(
                    "r",
                    rel("Rel"),
                    some(
                        "t",
                        rel("Rel").construct("witnessed", vec![]),
                        eq(attr("t", "front"), attr("r", "back")),
                    ),
                ),
            ],
        },
    }
}

/// The mutual `ahead`/`above` system solved jointly: every worker
/// count must yield the same relations and the same round count as
/// the sequential solve, for both equations of the system.
#[test]
fn mutual_fixpoint_threads_match_sequential() {
    for seed in [3u64, 7, 19] {
        let scene = dc_workload::scene(6, 12, 3, seed);
        for q in [above_query(), ahead_query()] {
            let seq_db = parallelised(mutual_db(&scene), 1);
            let sequential = seq_db.eval(&q).unwrap();
            let seq_stats = seq_db.last_fixpoint_stats().unwrap();
            assert_eq!(seq_stats.equations, 2, "seed={seed}");
            for threads in [2usize, 4, 7] {
                let par_db = parallelised(mutual_db(&scene), threads);
                let parallel = par_db.eval(&q).unwrap();
                assert_eq!(
                    parallel.sorted_tuples(),
                    sequential.sorted_tuples(),
                    "seed={seed} threads={threads}"
                );
                let par_stats = par_db.last_fixpoint_stats().unwrap();
                assert_eq!(
                    par_stats.iterations, seq_stats.iterations,
                    "seed={seed} threads={threads}: same Jacobi rounds"
                );
            }
        }
    }
}

/// A random multi-equation system: the 4-constructor ring over seeded
/// random graphs instantiates four simultaneously-solved equations
/// whose Linear branches all carry work each round.
#[test]
fn random_ring_system_threads_match_sequential() {
    for seed in [1u64, 13, 31] {
        let edges = dc_workload::random_graph(40, 2.0, seed);
        let build = |threads: usize| parallelised(dc_bench::ring_db(&edges), threads);
        let q = dc_bench::ring_query();
        let seq_db = build(1);
        let sequential = seq_db.eval(&q).unwrap();
        assert_eq!(seq_db.last_fixpoint_stats().unwrap().equations, 4);
        for threads in [2usize, 4, 7] {
            let par_db = build(threads);
            let parallel = par_db.eval(&q).unwrap();
            assert_eq!(
                parallel.sorted_tuples(),
                sequential.sorted_tuples(),
                "seed={seed} threads={threads}"
            );
        }
    }
}

/// The scheduler counters prove the parallel path ran: a multi-worker
/// solve of the mutual system batch-dispatches branch tasks spanning
/// both equations, while the single-worker solve reports everything
/// as inline and nothing as dispatched.
#[test]
fn scheduler_counters_report_dispatch() {
    let scene = dc_workload::scene(6, 12, 3, 5);

    let par_db = parallelised(mutual_db(&scene), 4);
    let parallel = par_db.eval(&above_query()).unwrap();
    let par_stats = par_db.last_fixpoint_stats().unwrap();
    assert!(
        par_stats.parallel_branches > 0,
        "threads=4 with threshold 1 must batch-dispatch branch tasks: {par_stats:?}"
    );
    assert!(
        par_stats.parallel_equations > 0,
        "the mutual system's equations must be dispatched together: {par_stats:?}"
    );

    let seq_db = parallelised(mutual_db(&scene), 1);
    let sequential = seq_db.eval(&above_query()).unwrap();
    let seq_stats = seq_db.last_fixpoint_stats().unwrap();
    assert_eq!(seq_stats.parallel_branches, 0, "{seq_stats:?}");
    assert_eq!(seq_stats.parallel_equations, 0, "{seq_stats:?}");
    assert!(seq_stats.sequential_branches > 0, "{seq_stats:?}");

    assert_eq!(parallel.sorted_tuples(), sequential.sorted_tuples());
}

/// Impure branches (a quantifier probing the recursive application
/// from the predicate) run on worker threads against the frozen
/// snapshot: the dispatch counter proves it, and the fixpoint is still
/// the plain transitive closure.
#[test]
fn impure_quantifier_branches_run_on_workers() {
    let n = 32usize;
    let build = |threads: usize| {
        let mut db = Database::new();
        db.create_relation("Edges", paper::infrontrel()).unwrap();
        for t in dc_workload::chain(n).iter() {
            db.insert("Edges", t.clone()).unwrap();
        }
        db.define_constructor(witnessed()).unwrap();
        parallelised(db, threads)
    };
    let q = rel("Edges").construct("witnessed", vec![]);

    let sequential = build(1).eval(&q).unwrap();
    assert_eq!(sequential.len(), n * (n + 1) / 2, "plain chain closure");

    let par_db = build(4);
    let parallel = par_db.eval(&q).unwrap();
    assert_eq!(parallel.sorted_tuples(), sequential.sorted_tuples());
    let stats = par_db.last_fixpoint_stats().unwrap();
    assert!(
        stats.parallel_branches > 0,
        "the Fallback quantifier branch must have been dispatched: {stats:?}"
    );
}

/// `worker_start=panic` under batch dispatch: every panicked branch
/// task is retried inline on the solver thread, the retry is counted
/// as a degradation, and the final relations equal the sequential
/// reference exactly. The site fires once per dispatched task and
/// nowhere else in a solve (tasks do not shard their own scans), so
/// the retry count is exactly the dispatched-task count.
#[test]
fn worker_panic_degrades_to_sequential_reference() {
    let _g = FailpointsGuard::arm("worker_start=panic");
    let scene = dc_workload::scene(4, 10, 3, 5);

    // threads=1 never dispatches workers, so the armed site is not hit.
    let sequential = parallelised(mutual_db(&scene), 1)
        .eval(&above_query())
        .unwrap();

    let par_db = parallelised(mutual_db(&scene), 4);
    let parallel = par_db.eval(&above_query()).unwrap();
    assert_eq!(parallel.sorted_tuples(), sequential.sorted_tuples());

    let stats = par_db.last_fixpoint_stats().unwrap();
    assert!(stats.retried_branches >= 1, "{stats:?}");
    assert!(stats.degraded_branches >= 1, "{stats:?}");
    assert_eq!(
        stats.degraded_branches, stats.retried_branches,
        "every retry must have completed sequentially: {stats:?}"
    );
    assert_eq!(stats.retried_branches, stats.parallel_branches, "{stats:?}");
}

/// A pre-cancelled token aborts the multi-worker solve before any
/// commit: structured `Cancelled` error, base relations untouched,
/// and the database stays fully usable once the budget is lifted.
#[test]
fn pre_cancelled_parallel_solve_aborts_atomically() {
    let _g = FailpointsGuard::arm("");
    let scene = dc_workload::scene(6, 12, 3, 5);
    let reference = parallelised(mutual_db(&scene), 1)
        .eval(&above_query())
        .unwrap();

    let token = CancelToken::new();
    token.cancel();
    let mut db = parallelised(mutual_db(&scene), 4);
    db.set_budget(Some(Budget::unlimited().with_cancel(token)));
    let before = snapshot(&db);

    let err = db.eval(&above_query()).unwrap_err();
    assert!(matches!(
        unwrap_solve_error(err),
        SolveError::Cancelled { .. }
    ));
    assert_eq!(snapshot(&db), before, "aborted solve must be atomic");

    db.set_budget(None);
    let after = db.eval(&above_query()).unwrap();
    assert_eq!(after.sorted_tuples(), reference.sorted_tuples());
}

/// Cancellation landing mid-solve from another thread: the dispatched
/// rounds observe the token, abort with `Cancelled`, and the database
/// re-solves correctly afterwards. (If the solve wins the race it
/// simply succeeds — the re-check below still validates the result.)
#[test]
fn mid_solve_cancellation_under_dispatch_is_atomic() {
    let _g = FailpointsGuard::arm("");
    let scene = dc_workload::scene(8, 48, 3, 11);
    let reference = parallelised(mutual_db(&scene), 1)
        .eval(&above_query())
        .unwrap();

    let token = CancelToken::new();
    let mut db = parallelised(mutual_db(&scene), 4);
    db.set_budget(Some(Budget::unlimited().with_cancel(token.clone())));

    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(5));
        token.cancel();
    });
    let result = db.eval(&above_query());
    canceller.join().unwrap();

    match result {
        Err(err) => {
            assert!(matches!(
                unwrap_solve_error(err),
                SolveError::Cancelled { .. }
            ));
        }
        Ok(r) => assert_eq!(r.sorted_tuples(), reference.sorted_tuples()),
    }

    // Either way the abort (if any) was atomic: lifting the budget
    // yields the reference answer.
    db.set_budget(None);
    let after = db.eval(&above_query()).unwrap();
    assert_eq!(after.sorted_tuples(), reference.sorted_tuples());
}
