//! Fault-injection suite: every instrumented failpoint site must abort
//! cleanly (structured error, atomic rollback) or degrade gracefully
//! (worker panic → sequential retry → reference answer), under both
//! sequential and parallel execution.
//!
//! The failpoint registry is process-global, so **every test here arms
//! a [`FailpointsGuard`]** (which also holds the global serialisation
//! lock — concurrent tests cannot observe each other's failpoints).
//! The one exception is the env-gated test at the bottom, which only
//! runs when CI launches this binary with `DC_FAILPOINTS` set and
//! `--test-threads=1`.

use dc_bench::{counted, parallelised, snapshot};
use dc_calculus::builder::*;
use dc_calculus::{Branch, EvalError};
use dc_core::{CoreError, Database};
use dc_governor::{FailpointsGuard, SolveError};

fn closure_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// The four-constructor ring over a chain of `n` edges: every round
/// carries four Linear tasks with a delta each, so (parallelised) every
/// round batch-dispatches to the pool — the solver's use of
/// `worker_start`.
fn ring_db(n: usize, threads: usize) -> Database {
    parallelised(dc_bench::ring_db(&dc_workload::chain(n)), threads)
}

/// A weighted graph for one-shot (solve-free) queries, parallelised:
/// even so, a one-shot query never reaches the worker pool.
fn graph_db(threads: usize) -> Database {
    let edges = dc_workload::weighted_random_graph(120, 3.0, 40, 1);
    parallelised(dc_bench::weighted_db(&edges), threads)
}

/// `worker_start=error`: the injected fault propagates out of the
/// worker pool as a structured error (no degradation — only panics
/// degrade), and the abort is atomic. Only solver round tasks reach
/// the pool: a one-shot query runs on the calling thread.
#[test]
fn worker_start_error_aborts_cleanly() {
    let _g = FailpointsGuard::arm("worker_start=error");
    let is_worker_start = |err: &CoreError| {
        matches!(
            err,
            CoreError::Eval(EvalError::FaultInjected { site }) if site == "worker_start"
        )
    };

    let db = ring_db(24, 4);
    let before = snapshot(&db);
    let err = db.eval(&dc_bench::ring_query()).unwrap_err();
    assert!(is_worker_start(&err), "{err}");
    assert_eq!(snapshot(&db), before);

    // A sequential solve never dispatches workers, and a one-shot query
    // never does at any thread count, so the armed site is never
    // reached.
    assert_eq!(
        ring_db(24, 1).eval(&dc_bench::ring_query()).unwrap().len(),
        closure_len(24)
    );
    assert!(!graph_db(4)
        .eval(&dc_bench::two_hop_query(7))
        .unwrap()
        .is_empty());
}

/// `worker_start=panic`: the acceptance scenario for graceful
/// degradation. A panicking solver task is caught at the task boundary
/// and retried inline; the final relation equals the `threads = 1`
/// reference, with the degradation visible in the registry.
#[test]
fn worker_panic_degrades_to_sequential_reference() {
    let _g = FailpointsGuard::arm("worker_start=panic");
    assert_worker_panics_degrade();
}

fn assert_worker_panics_degrade() {
    let reference = ring_db(24, 1).eval(&dc_bench::ring_query()).unwrap();
    let db = ring_db(24, 4);
    let (out, d) = counted(&db.metrics(), || db.eval(&dc_bench::ring_query()));
    let out = out.unwrap();
    assert_eq!(out.sorted_tuples(), reference.sorted_tuples());
    assert_eq!(out.len(), closure_len(24));
    assert!(d.degraded_branches >= 1, "{d:?}");
}

/// `delta_commit=error`: a round's commit aborts before any equation
/// value moves; the database stays at its pre-solve snapshot under
/// every thread count.
#[test]
fn delta_commit_error_aborts_atomically() {
    for threads in [1usize, 4] {
        let _g = FailpointsGuard::arm("delta_commit=error");
        let db = ring_db(32, threads);
        let before = snapshot(&db);
        let err = db.eval(&dc_bench::ring_query()).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Eval(EvalError::FaultInjected { ref site }) if site == "delta_commit"
            ),
            "threads={threads}: {err}"
        );
        assert_eq!(snapshot(&db), before, "threads={threads}");
        drop(_g);

        // Disarmed, the same database solves to the full closure: the
        // aborted attempt left no residue behind.
        let _clean = FailpointsGuard::arm("");
        assert_eq!(
            db.eval(&dc_bench::ring_query()).unwrap().len(),
            closure_len(32),
            "threads={threads}"
        );
    }
}

/// `delta_commit=panic`: the panic unwinds out of the solver loop and
/// is caught at the solve isolation boundary in `apply_constructor` —
/// a structured `WorkerPanic`, not a process abort, and still atomic.
#[test]
fn delta_commit_panic_is_caught_at_the_solve_boundary() {
    for threads in [1usize, 4] {
        let _g = FailpointsGuard::arm("delta_commit=panic");
        let db = ring_db(32, threads);
        let before = snapshot(&db);
        let err = db.eval(&dc_bench::ring_query()).unwrap_err();
        match err {
            CoreError::Eval(EvalError::Solve(SolveError::WorkerPanic { message, .. })) => {
                assert!(message.contains("delta_commit"), "{message}");
            }
            other => panic!("threads={threads}: expected WorkerPanic, got {other}"),
        }
        assert_eq!(snapshot(&db), before, "threads={threads}");
    }
}

/// `index_build=error`: the evaluator's index acquisition has a real
/// error channel; an abort there is clean and atomic.
#[test]
fn index_build_error_aborts_cleanly() {
    for threads in [1usize, 4] {
        let _g = FailpointsGuard::arm("index_build=error");
        let db = ring_db(32, threads);
        let before = snapshot(&db);
        let err = db.eval(&dc_bench::ring_query()).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Eval(EvalError::FaultInjected { ref site }) if site == "index_build"
            ),
            "threads={threads}: {err}"
        );
        assert_eq!(snapshot(&db), before, "threads={threads}");
    }
}

/// `index_build=panic` inside a solve: caught at the solve boundary.
#[test]
fn index_build_panic_is_caught_at_the_solve_boundary() {
    let _g = FailpointsGuard::arm("index_build=panic");
    let db = ring_db(32, 1);
    let before = snapshot(&db);
    let err = db.eval(&dc_bench::ring_query()).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Eval(EvalError::Solve(SolveError::WorkerPanic { .. }))
        ),
        "{err}"
    );
    assert_eq!(snapshot(&db), before);
}

/// A query whose quantifier ranges over a *correlated* set former: it
/// unnests into a quantifier over `Ontop` probed on `base`, whose index
/// build is the `index_build` site.
fn correlated_query() -> dc_calculus::RangeExpr {
    let corr = set_former(vec![Branch::each(
        "o",
        rel("Ontop"),
        eq(attr("o", "base"), attr("r", "front")),
    )]);
    set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        some("t", corr, tru()),
    )])
}

fn scene_database() -> Database {
    dc_bench::scene_db(&dc_workload::scene(12, 12, 2, 7))
}

/// `index_build=error` inside an unnested quantifier aborts cleanly
/// through the ordinary error channel: an injected fault is not an
/// evaluation error the reference scan could reproduce, so the unnested
/// site does not fall back to it — a governed abort must not be
/// silently papered over.
#[test]
fn unnested_quantifier_fault_aborts_cleanly() {
    let _g = FailpointsGuard::arm("index_build=error");
    let db = scene_database();
    let before = snapshot(&db);
    let err = db.eval(&correlated_query()).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Eval(EvalError::FaultInjected { ref site }) if site == "index_build"
        ),
        "{err}"
    );
    assert_eq!(snapshot(&db), before);
    drop(_g);

    // Disarmed, the unnested path produces the reference answer.
    let _clean = FailpointsGuard::arm("");
    let unnested = db.eval(&correlated_query()).unwrap();
    let mut reference_db = scene_database();
    reference_db.set_use_indexes(false);
    let reference = reference_db.eval(&correlated_query()).unwrap();
    assert_eq!(unnested.sorted_tuples(), reference.sorted_tuples());
}

/// Env-gated end-to-end check of the `DC_FAILPOINTS` parsing + arming
/// path: only runs when CI launches this binary with
/// `DC_FAILPOINTS=worker_start=panic` (and `--test-threads=1`, since
/// this test deliberately runs against the env-armed table without a
/// guard). Everything a user would see — arming from the environment,
/// the worker panic, the graceful degradation — in one pass.
#[test]
fn env_armed_worker_panic_degrades_end_to_end() {
    if std::env::var("DC_FAILPOINTS").as_deref() != Ok("worker_start=panic") {
        return; // not the CI fault-injection leg
    }
    assert_worker_panics_degrade();
}
