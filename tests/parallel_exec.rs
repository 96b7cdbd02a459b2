//! Differential suite for parallel execution on the one worker pool
//! (`dc-exec`): `threads = N` must produce exactly the relations
//! `threads = 1` produces — across the graph, scene, and staffing
//! workloads (one-shot queries, whose pure probe-plan branches shard
//! their scan side), across random seeds, and through the semi-naive
//! fixpoint with mid-solve delta growth (round tasks). The parallel
//! threshold is lowered to 1 everywhere so even small generated inputs
//! take the parallel paths; the reference nested-loop evaluator is the
//! third oracle where it is affordable.

use dc_bench::{
    avoids_w0_request_query, front_row_query, parallelised, scene_db, servable_request_query,
    stacked_back_query, staffing_db, two_hop_query, unburdened_front_query, visibility_query,
    weighted_db,
};
use dc_core::Strategy;

#[test]
fn two_hop_join_threads_match_sequential_across_seeds() {
    for seed in 0..6u64 {
        let edges = dc_workload::weighted_random_graph(120, 3.0, 40, seed);
        for m in [3i64, 7, 19] {
            let q = two_hop_query(m);
            let sequential = parallelised(weighted_db(&edges), 1).eval(&q).unwrap();
            for threads in [2usize, 4, 7] {
                let parallel = parallelised(weighted_db(&edges), threads).eval(&q).unwrap();
                assert_eq!(
                    parallel.sorted_tuples(),
                    sequential.sorted_tuples(),
                    "seed={seed} m={m} threads={threads}"
                );
            }
            // The reference nested-loop evaluator agrees too.
            let mut reference_db = weighted_db(&edges);
            reference_db.set_use_indexes(false);
            assert_eq!(reference_db.eval(&q).unwrap(), sequential, "seed={seed}");
        }
    }
}

#[test]
fn scene_workloads_threads_match_sequential() {
    for seed in [3u64, 11, 29] {
        let scene = dc_workload::scene(14, 14, 2, seed);
        for q in [
            visibility_query(),
            front_row_query(),
            stacked_back_query(),
            unburdened_front_query(),
        ] {
            let sequential = parallelised(scene_db(&scene), 1).eval(&q).unwrap();
            let parallel = parallelised(scene_db(&scene), 4).eval(&q).unwrap();
            assert_eq!(parallel, sequential, "seed={seed} query={q}");
        }
    }
}

#[test]
fn staffing_workloads_threads_match_sequential() {
    for seed in [5u64, 17] {
        let s = dc_workload::staffing(24, 12, 8, 2, 3, 30, seed);
        for q in [servable_request_query(), avoids_w0_request_query()] {
            let sequential = parallelised(staffing_db(&s), 1).eval(&q).unwrap();
            let parallel = parallelised(staffing_db(&s), 4).eval(&q).unwrap();
            assert_eq!(parallel, sequential, "seed={seed} query={q}");
        }
    }
}

/// The semi-naive fixpoint: every round's Linear branch binds the
/// previous round's delta as its scan/probe side while the delta grows
/// mid-solve; whatever the rounds dispatch to workers, the closure of a
/// random graph (and of a deep tree) must be identical for every
/// worker count, and must equal the reference evaluator's.
#[test]
fn fixpoint_rounds_with_growing_deltas_match_across_thread_counts() {
    let workloads = [
        ("tree d=7", dc_workload::complete_binary_tree(7)),
        ("random n=60", dc_workload::random_graph(60, 1.6, 9)),
        ("chain n=48", dc_workload::chain(48)),
    ];
    for (label, base) in workloads {
        let q = dc_bench::ahead_query();
        let seq_db = parallelised(dc_bench::ahead_db(&base, Strategy::SemiNaive), 1);
        let sequential = seq_db.eval(&q).unwrap();
        let rounds = seq_db.last_fixpoint_stats().unwrap().iterations;
        assert!(
            rounds > 3,
            "{label}: want mid-solve delta growth, got {rounds} rounds"
        );
        for threads in [2usize, 4] {
            let par_db = parallelised(dc_bench::ahead_db(&base, Strategy::SemiNaive), threads);
            let parallel = par_db.eval(&q).unwrap();
            assert_eq!(
                parallel.sorted_tuples(),
                sequential.sorted_tuples(),
                "{label} threads={threads}"
            );
            assert_eq!(
                par_db.last_fixpoint_stats().unwrap().iterations,
                rounds,
                "{label}: same round count on every thread count"
            );
        }
        let mut reference_db = dc_bench::ahead_db(&base, Strategy::SemiNaive);
        reference_db.set_use_indexes(false);
        assert_eq!(reference_db.eval(&q).unwrap(), sequential, "{label}");
    }
}

/// The naive strategy under parallel execution — and its new
/// no-change short-circuit: a cyclic closure converges with trailing
/// rounds that reproduce the accumulated value exactly (the rounds the
/// digest/length check now skips wholesale), and the result still
/// matches semi-naive and the reference path.
#[test]
fn naive_strategy_parallel_and_no_change_rounds_agree() {
    let mut base = dc_workload::cycle(12);
    for t in dc_workload::chain(12).iter() {
        base.insert(t.clone()).unwrap();
    }
    let q = dc_bench::ahead_query();
    let naive_par = parallelised(dc_bench::ahead_db(&base, Strategy::Naive), 4);
    let naive_out = naive_par.eval(&q).unwrap();
    // The naive convergence test needs one full no-change round (plus
    // the paper's trailing comparison), all short-circuited now.
    assert!(naive_par.last_fixpoint_stats().unwrap().iterations > 2);
    let semi = parallelised(dc_bench::ahead_db(&base, Strategy::SemiNaive), 1)
        .eval(&q)
        .unwrap();
    assert_eq!(naive_out, semi);
    let mut reference_db = dc_bench::ahead_db(&base, Strategy::Naive);
    reference_db.set_use_indexes(false);
    assert_eq!(reference_db.eval(&q).unwrap(), naive_out);
}

/// Error semantics survive parallel dispatch: a cross-type residual
/// raises the reference error class on every thread count.
#[test]
fn parallel_errors_match_sequential_class() {
    use dc_calculus::builder::*;
    use dc_calculus::Branch;
    let edges = dc_workload::weighted_random_graph(60, 2.0, 20, 1);
    // x.src = x.w compares STRING with INTEGER on every combination.
    let q = set_former(vec![Branch::projecting(
        vec![attr("x", "src"), attr("y", "dst")],
        vec![("x".into(), rel("Edges")), ("y".into(), rel("Edges"))],
        eq(attr("x", "dst"), attr("y", "src")).and(eq(attr("x", "src"), attr("x", "w"))),
    )]);
    for threads in [1usize, 2, 4, 7] {
        let db = parallelised(weighted_db(&edges), threads);
        // Typecheck rejects it statically; the evaluator must raise it
        // dynamically too (eval_unchecked skips the static pass).
        let err = db.eval_unchecked(&q).unwrap_err();
        assert!(
            err.to_string().contains("cannot compare"),
            "threads={threads}: {err}"
        );
    }
}

/// `thread_count` resolution: explicit knobs win, `0` means auto and
/// always lands on at least one worker, and an absurd request is capped
/// instead of asking the OS for one thread per scan tuple — a
/// 10 000-edge join under `set_threads(1_000_000)` just runs, and
/// returns the `threads = 1` relation.
#[test]
fn thread_count_resolution() {
    assert_eq!(dc_exec::thread_count(1), 1);
    assert_eq!(dc_exec::thread_count(6), 6);
    assert!(dc_exec::thread_count(0) >= 1);
    assert_eq!(dc_exec::thread_count(1_000_000), 64);

    let edges = dc_workload::weighted_random_graph(1250, 8.0, 40, 11);
    assert_eq!(edges.len(), 10_000);
    let q = two_hop_query(19);
    let sequential = parallelised(weighted_db(&edges), 1).eval(&q).unwrap();
    let capped = parallelised(weighted_db(&edges), 1_000_000)
        .eval(&q)
        .unwrap();
    assert!(!sequential.is_empty());
    assert_eq!(capped, sequential);
}
