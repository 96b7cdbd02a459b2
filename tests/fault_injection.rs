//! Fault-injection suite: every instrumented failpoint site must abort
//! cleanly — a structured error or a caught panic, and an atomic
//! rollback.
//!
//! The failpoint registry is process-global, so **every test here arms
//! a [`FailpointsGuard`]** (which also holds the global serialisation
//! lock — concurrent tests cannot observe each other's failpoints).

use dc_bench::snapshot;
use dc_calculus::builder::*;
use dc_calculus::{Branch, EvalError};
use dc_core::{CoreError, Database};
use dc_governor::{FailpointsGuard, SolveError};

fn closure_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// The four-constructor ring over a chain of `n` edges: every round
/// carries four Linear tasks with a delta each.
fn ring_db(n: usize) -> Database {
    dc_bench::ring_db(&dc_bench::workload::chain(n))
}

/// `delta_commit=error`: a round's commit aborts before any equation
/// value moves; the database stays at its pre-solve snapshot.
#[test]
fn delta_commit_error_aborts_atomically() {
    let _g = FailpointsGuard::arm("delta_commit=error");
    let db = ring_db(32);
    let before = snapshot(&db);
    let err = db.eval(&dc_bench::ring_query()).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Eval(EvalError::FaultInjected { ref site }) if site == "delta_commit"
        ),
        "{err}"
    );
    assert_eq!(snapshot(&db), before);
    drop(_g);

    // Disarmed, the same database solves to the full closure: the
    // aborted attempt left no residue behind.
    let _clean = FailpointsGuard::arm("");
    assert_eq!(
        db.eval(&dc_bench::ring_query()).unwrap().len(),
        closure_len(32)
    );
}

/// `delta_commit=panic`: the panic unwinds out of the solver loop and
/// is caught at the solve isolation boundary — a structured
/// `WorkerPanic`, not a process abort, and still atomic.
#[test]
fn delta_commit_panic_is_caught_at_the_solve_boundary() {
    let _g = FailpointsGuard::arm("delta_commit=panic");
    let db = ring_db(32);
    let before = snapshot(&db);
    let err = db.eval(&dc_bench::ring_query()).unwrap_err();
    match err {
        CoreError::Eval(EvalError::Solve(SolveError::WorkerPanic { message, .. })) => {
            assert!(message.contains("delta_commit"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
    assert_eq!(snapshot(&db), before);
}

/// `index_build=error`: the evaluator's index acquisition has a real
/// error channel; an abort there is clean and atomic.
#[test]
fn index_build_error_aborts_cleanly() {
    let _g = FailpointsGuard::arm("index_build=error");
    let db = ring_db(32);
    let before = snapshot(&db);
    let err = db.eval(&dc_bench::ring_query()).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Eval(EvalError::FaultInjected { ref site }) if site == "index_build"
        ),
        "{err}"
    );
    assert_eq!(snapshot(&db), before);
}

/// `index_build=panic` inside a solve: caught at the solve boundary.
#[test]
fn index_build_panic_is_caught_at_the_solve_boundary() {
    let _g = FailpointsGuard::arm("index_build=panic");
    let db = ring_db(32);
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
    dc_bench::scene_db(&dc_bench::workload::scene(12, 12, 2, 7))
}

/// `index_build=error` inside an unnested quantifier aborts cleanly
/// through the ordinary error channel: an injected fault is not an
/// evaluation error the site's scan of its range could reproduce, so the
/// unnested site does not fall back to it — a governed abort must not be
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

    // Disarmed, the unnested path produces the oracle's answer.
    let _clean = FailpointsGuard::arm("");
    dc_bench::oracle::assert_agrees(&db, &correlated_query()).unwrap();
}
