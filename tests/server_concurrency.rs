//! Concurrency battery for the serving layer: N free-running reader
//! threads × 1 writer over graph, scene, and staffing workloads.
//!
//! What must hold, and is asserted here:
//!
//! * **No partial batches**: every read inside one session is mutually
//!   consistent — relation digests are stable across repeated reads,
//!   and multi-relation batches become visible all-or-nothing.
//! * **Differential**: reader pools of 1, 2, 4, and 7 threads observe,
//!   at every epoch they pin, exactly the relations and query results a
//!   sequential replay of the same commit script produces — byte
//!   identical, not just digest-equal.
//! * **Whole epochs only**: a session begun mid-commit pins either the
//!   old or the new epoch; its catalog digest always matches the
//!   sequential replay's digest *for that epoch*, never a blend.
//! * **Fault injection**: `snapshot_publish` / `session_commit`
//!   failpoints (panic and error actions) abort the commit atomically —
//!   readers (pinned or fresh) are unaffected, the writer gets a
//!   structured error, and the chain continues cleanly once disarmed.
//!
//! Every test that commits holds a `FailpointsGuard` (possibly arming
//! nothing): the guard overrides any env-armed registry, so the suite
//! also runs — single-threaded — under CI's
//! `DC_FAILPOINTS=snapshot_publish=panic` leg, where the failpoint
//! tests exercise the armed sites and the rest must stay green.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use dc_calculus::{EvalError, RangeExpr};
use dc_core::{Database, Strategy};
use dc_governor::{FailpointsGuard, SolveError};
use dc_server::{Server, ServerError, WriteBatch};
use dc_value::{tuple, Tuple};

// ---------------------------------------------------------------------
// Workloads and commit scripts
// ---------------------------------------------------------------------

/// Graph workload: chain closure under the `ahead` constructor.
fn graph_db() -> Database {
    dc_bench::ahead_db(&dc_bench::many_chains(6, 5), Strategy::SemiNaive)
}

fn graph_query() -> RangeExpr {
    dc_bench::ahead_query()
}

/// A commit script of `n` batches over the graph workload: each batch
/// splices a fresh edge in and retires one inserted two batches ago,
/// so the closure keeps changing shape.
fn graph_script(n: usize) -> Vec<WriteBatch> {
    (0..n)
        .map(|i| {
            let mut b = WriteBatch::new()
                .insert("Infront", tuple![format!("x{i}"), format!("y{i}")])
                .insert("Infront", tuple![format!("y{i}"), format!("z{i}")]);
            if i >= 2 {
                let j = i - 2;
                b = b.delete("Infront", tuple![format!("x{j}"), format!("y{j}")]);
            }
            b
        })
        .collect()
}

/// Scene workload: the CAD scene with the visibility query.
fn scene_server() -> Server {
    Server::new(dc_bench::scene_db(&dc_bench::workload::scene(4, 4, 2, 7)))
}

/// Staffing workload and its servable-requests query.
fn staffing_server() -> Server {
    Server::new(dc_bench::staffing_db(&dc_bench::workload::staffing(
        12, 8, 6, 2, 2, 10, 11,
    )))
}

// ---------------------------------------------------------------------
// (a) Sessions never observe partial batches
// ---------------------------------------------------------------------

/// Readers hammer digest reads inside pinned sessions while the writer
/// commits two-relation batches. Two invariants per session: repeated
/// reads are stable, and the two halves of every batch are visible
/// atomically (marker in `Infront` ⇔ marker in `Ontop`).
#[test]
fn sessions_never_observe_partial_batches() {
    let _guard = FailpointsGuard::arm("");
    let server = scene_server();
    let writes: u64 = 24;
    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        let server = &server;
        let done = &done;
        for _ in 0..4 {
            scope.spawn(move || {
                let mut sessions = 0u64;
                while !done.load(Ordering::Relaxed) || sessions == 0 {
                    let s = server.begin();
                    let d_inf = s.relation_digest("Infront").unwrap();
                    let d_top = s.relation_digest("Ontop").unwrap();
                    for k in 0..writes {
                        let marker = tuple![format!("m{k}"), format!("m{k}")];
                        let in_inf = s.contains("Infront", &marker).unwrap();
                        let in_top = s.contains("Ontop", &marker).unwrap();
                        assert_eq!(
                            in_inf, in_top,
                            "batch {k} visible in one relation but not the other"
                        );
                    }
                    // Re-reads inside the session observe the pinned
                    // epoch regardless of concurrent commits.
                    assert_eq!(s.relation_digest("Infront").unwrap(), d_inf);
                    assert_eq!(s.relation_digest("Ontop").unwrap(), d_top);
                    sessions += 1;
                }
            });
        }
        scope.spawn(move || {
            for k in 0..writes {
                let marker = tuple![format!("m{k}"), format!("m{k}")];
                server
                    .commit(
                        &WriteBatch::new()
                            .insert("Infront", marker.clone())
                            .insert("Ontop", marker),
                    )
                    .unwrap();
                thread::sleep(Duration::from_micros(200));
            }
            done.store(true, Ordering::Relaxed);
        });
    });
    assert_eq!(server.commit_count(), writes);
    assert_eq!(server.current_epoch(), writes);
}

// ---------------------------------------------------------------------
// (b) + (c) Differential: reader pools vs. sequential replay
// ---------------------------------------------------------------------

/// Per-epoch expectations from a sequential replay: catalog digest and
/// the query's exact (sorted) result.
struct Expected {
    catalog: Vec<u128>,
    results: Vec<Vec<Tuple>>,
}

fn sequential_replay(db: Database, script: &[WriteBatch], query: &RangeExpr) -> Expected {
    let server = Server::new(db);
    let mut catalog = Vec::with_capacity(script.len() + 1);
    let mut results = Vec::with_capacity(script.len() + 1);
    let record = |cat: &mut Vec<u128>, res: &mut Vec<Vec<Tuple>>| {
        let s = server.begin();
        cat.push(s.snapshot().catalog_digest());
        res.push(s.query(query).unwrap().sorted_tuples());
    };
    record(&mut catalog, &mut results);
    for batch in script {
        server.commit(batch).unwrap();
        record(&mut catalog, &mut results);
    }
    Expected { catalog, results }
}

/// The differential harness: `readers` free-running reader threads race
/// one writer through `script`; every session any reader pins must
/// match the sequential replay at its pinned epoch — whole epochs, byte
/// identical, never a blend.
fn differential_run(readers: usize) {
    let script = graph_script(10);
    let query = graph_query();
    let expected = sequential_replay(graph_db(), &script, &query);
    let server = Server::new(graph_db());
    let final_epoch = script.len() as u64;
    let done = AtomicBool::new(false);
    let observed_epochs = AtomicU64::new(0);
    thread::scope(|scope| {
        let server = &server;
        let script = &script;
        let query = &query;
        let expected = &expected;
        let done = &done;
        let observed = &observed_epochs;
        for _ in 0..readers {
            scope.spawn(move || {
                loop {
                    let s = server.begin();
                    let e = s.epoch() as usize;
                    // A session begun mid-commit pins a whole epoch:
                    // its catalog digest is exactly the replay's digest
                    // for that epoch.
                    assert_eq!(
                        s.snapshot().catalog_digest(),
                        expected.catalog[e],
                        "epoch {e}: catalog digest diverged from sequential replay"
                    );
                    // And the query result is byte-identical to the
                    // sequential replay at that epoch.
                    assert_eq!(
                        s.query(query).unwrap().sorted_tuples(),
                        expected.results[e],
                        "epoch {e}: query result diverged from sequential replay"
                    );
                    observed.fetch_or(1 << e.min(63), Ordering::Relaxed);
                    if done.load(Ordering::Relaxed) && e as u64 == final_epoch {
                        break;
                    }
                }
            });
        }
        scope.spawn(move || {
            for batch in script {
                server.commit(batch).unwrap();
                thread::sleep(Duration::from_micros(300));
            }
            done.store(true, Ordering::Relaxed);
        });
    });
    // Every reader terminated on the final epoch; the bitmask proves at
    // least first and last epochs were actually observed.
    let mask = observed_epochs.load(Ordering::Relaxed);
    assert!(mask & (1 << final_epoch) != 0);
    assert_eq!(server.current_epoch(), final_epoch);
    // The final concurrent state equals the sequential replay's.
    assert_eq!(
        server.current_snapshot().catalog_digest(),
        *expected.catalog.last().unwrap()
    );
}

#[test]
fn reader_pool_1_matches_sequential_replay() {
    let _guard = FailpointsGuard::arm("");
    differential_run(1);
}

#[test]
fn reader_pool_2_matches_sequential_replay() {
    let _guard = FailpointsGuard::arm("");
    differential_run(2);
}

#[test]
fn reader_pool_4_matches_sequential_replay() {
    let _guard = FailpointsGuard::arm("");
    differential_run(4);
}

#[test]
fn reader_pool_7_matches_sequential_replay() {
    let _guard = FailpointsGuard::arm("");
    differential_run(7);
}

/// The staffing workload exercises quantified (negated/universal)
/// queries through the serving layer: solves inside sessions against a
/// moving writer still match the sequential replay per epoch.
#[test]
fn staffing_solves_match_sequential_replay_under_write_load() {
    let _guard = FailpointsGuard::arm("");
    let query = dc_bench::servable_request_query();
    // Each batch grants one worker a qualification on a tool requests
    // actually mention, so the servable set genuinely moves per epoch.
    let script: Vec<WriteBatch> = (0..6)
        .map(|i| {
            WriteBatch::new().insert(
                "Skill",
                tuple![format!("w{}", (3 * i + 1) % 8), format!("l{}", i % 6)],
            )
        })
        .collect();
    let expected = {
        let server = staffing_server();
        let mut per_epoch = vec![server.begin().query(&query).unwrap().sorted_tuples()];
        for b in &script {
            server.commit(b).unwrap();
            per_epoch.push(server.begin().query(&query).unwrap().sorted_tuples());
        }
        per_epoch
    };
    let server = staffing_server();
    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        let server = &server;
        let query = &query;
        let expected = &expected;
        let done = &done;
        let script = &script;
        for _ in 0..3 {
            scope.spawn(move || loop {
                let s = server.begin();
                let e = s.epoch() as usize;
                assert_eq!(s.query(query).unwrap().sorted_tuples(), expected[e]);
                if done.load(Ordering::Relaxed) && e == script.len() {
                    break;
                }
            });
        }
        scope.spawn(move || {
            for b in script {
                server.commit(b).unwrap();
                thread::sleep(Duration::from_micros(300));
            }
            done.store(true, Ordering::Relaxed);
        });
    });
}

// ---------------------------------------------------------------------
// Optimistic concurrency under contention
// ---------------------------------------------------------------------

/// Several writer threads race `commit_or_conflict` on overlapping read
/// sets; every accepted commit bumps the epoch by one, every rejection
/// leaves the chain untouched, and retries drain the workload.
#[test]
fn conflicting_writers_serialize_or_retry() {
    let _guard = FailpointsGuard::arm("");
    let server = scene_server();
    let writers = 4;
    let per_writer = 6;
    thread::scope(|scope| {
        let server = &server;
        for w in 0..writers {
            scope.spawn(move || {
                for i in 0..per_writer {
                    let t = tuple![format!("w{w}_i{i}"), format!("w{w}_t{i}")];
                    loop {
                        let s = server.begin();
                        // Read the relation we are about to write: a
                        // concurrent commit on it forces a retry.
                        let _ = s.read("Infront").unwrap();
                        let batch = WriteBatch::new().insert("Infront", t.clone());
                        match server.commit_or_conflict(&s, &batch) {
                            Ok(_) => break,
                            Err(ServerError::Conflict { .. }) => continue,
                            Err(other) => panic!("unexpected commit failure: {other}"),
                        }
                    }
                }
            });
        }
    });
    let total = (writers * per_writer) as u64;
    assert_eq!(server.commit_count(), total);
    assert_eq!(server.current_epoch(), total);
    // All tuples landed exactly once.
    let s = server.begin();
    for w in 0..writers {
        for i in 0..per_writer {
            assert!(s
                .contains(
                    "Infront",
                    &tuple![format!("w{w}_i{i}"), format!("w{w}_t{i}")]
                )
                .unwrap());
        }
    }
}

// ---------------------------------------------------------------------
// Failpoints: snapshot_publish / session_commit × panic / error
// ---------------------------------------------------------------------

fn assert_injected_error(err: &ServerError, site: &str) {
    match err {
        ServerError::Eval(EvalError::FaultInjected { site: s }) if s.as_str() == site => {}
        other => panic!("expected injected fault at `{site}`, got {other:?}"),
    }
}

fn assert_worker_panic(err: &ServerError) {
    match err {
        ServerError::Eval(EvalError::Solve(SolveError::WorkerPanic { .. })) => {}
        other => panic!("expected structured WorkerPanic, got {other:?}"),
    }
}

/// One armed commit attempt against a live server: asserts the commit
/// fails with the expected structured error, the epoch and catalog are
/// untouched (no torn epoch), pinned readers are unaffected, and —
/// after disarming — the chain continues cleanly.
/// NOTE: `FailpointsGuard::arm` holds a global serial mutex for the
/// guard's lifetime, so the guard scopes below must be strictly
/// sequential — arming a second guard while one is live deadlocks.
fn failpoint_commit_roundtrip(spec: &str, site: &str, panics: bool) {
    let server = scene_server();
    // Advance the chain once so the failpoint hits a non-initial epoch.
    {
        let _clean = FailpointsGuard::arm("");
        server
            .commit(&WriteBatch::new().insert("Infront", tuple!["pre", "existing"]))
            .unwrap();
    }
    let pinned = server.begin();
    let pinned_digest = pinned.relation_digest("Infront").unwrap();
    let epoch_before = server.current_epoch();
    let catalog_before = server.current_snapshot().catalog_digest();
    {
        let _armed = FailpointsGuard::arm(spec);
        let err = server
            .commit(&WriteBatch::new().insert("Infront", tuple!["will", "fail"]))
            .unwrap_err();
        if panics {
            assert_worker_panic(&err);
        } else {
            assert_injected_error(&err, site);
        }
        // No torn epoch: chain exactly as before the attempt.
        assert_eq!(server.current_epoch(), epoch_before);
        assert_eq!(server.current_snapshot().catalog_digest(), catalog_before);
        // Readers on the old epoch unaffected — pinned and fresh alike.
        assert_eq!(pinned.relation_digest("Infront").unwrap(), pinned_digest);
        let fresh = server.begin();
        assert_eq!(fresh.relation_digest("Infront").unwrap(), pinned_digest);
        assert!(!fresh.contains("Infront", &tuple!["will", "fail"]).unwrap());
    }
    // Disarmed, the chain continues unbroken.
    let _clean = FailpointsGuard::arm("");
    let e = server
        .commit(&WriteBatch::new().insert("Infront", tuple!["now", "lands"]))
        .unwrap();
    assert_eq!(e, epoch_before + 1);
    assert!(server
        .begin()
        .contains("Infront", &tuple!["now", "lands"])
        .unwrap());
}

#[test]
fn snapshot_publish_error_aborts_atomically() {
    failpoint_commit_roundtrip("snapshot_publish=error", "snapshot_publish", false);
}

#[test]
fn snapshot_publish_panic_aborts_atomically() {
    failpoint_commit_roundtrip("snapshot_publish=panic", "snapshot_publish", true);
}

#[test]
fn session_commit_error_aborts_atomically() {
    failpoint_commit_roundtrip("session_commit=error", "session_commit", false);
}

#[test]
fn session_commit_panic_aborts_atomically() {
    failpoint_commit_roundtrip("session_commit=panic", "session_commit", true);
}

/// Readers keep serving, uninterrupted, while every concurrent commit
/// attempt panics at the publish site; once the registry is disarmed
/// the writer resumes on an unbroken chain.
#[test]
fn readers_unaffected_while_publish_panics() {
    let server = scene_server();
    let expected = {
        let _clean = FailpointsGuard::arm("");
        server
            .begin()
            .query(&dc_bench::visibility_query())
            .unwrap()
            .sorted_tuples()
    };
    let guard = FailpointsGuard::arm("snapshot_publish=panic");
    let failed = AtomicU64::new(0);
    thread::scope(|scope| {
        let server = &server;
        let failed = &failed;
        let expected = &expected;
        for _ in 0..3 {
            scope.spawn(move || {
                // Keep reading until the writer has absorbed several
                // failed commits; every result must be the epoch-0
                // answer because no commit ever lands.
                while failed.load(Ordering::Relaxed) < 5 {
                    let s = server.begin();
                    assert_eq!(s.epoch(), 0);
                    let out = s.query(&dc_bench::visibility_query()).unwrap();
                    assert_eq!(&out.sorted_tuples(), expected);
                }
            });
        }
        scope.spawn(move || {
            for i in 0..8 {
                let err = server
                    .commit(&WriteBatch::new().insert("Infront", tuple![format!("f{i}"), "x"]))
                    .unwrap_err();
                assert_worker_panic(&err);
                failed.fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    assert_eq!(server.current_epoch(), 0);
    assert_eq!(server.commit_count(), 0);
    drop(guard);
    let _clean = FailpointsGuard::arm("");
    assert_eq!(
        server
            .commit(&WriteBatch::new().insert("Infront", tuple!["a", "b"]))
            .unwrap(),
        1
    );
}

/// `commit_or_conflict` under an armed `session_commit` failpoint: the
/// injected fault beats the conflict check, the batch is not applied,
/// and the conflict counter does not move.
#[test]
fn injected_faults_do_not_count_as_conflicts() {
    let _guard = FailpointsGuard::arm("session_commit=error");
    let server = scene_server();
    let s = server.begin();
    let _ = s.read("Infront").unwrap();
    let err = server
        .commit_or_conflict(&s, &WriteBatch::new().insert("Infront", tuple!["a", "b"]))
        .unwrap_err();
    assert_injected_error(&err, "session_commit");
    assert_eq!(server.conflict_count(), 0);
    assert_eq!(server.current_epoch(), 0);
}

// ---------------------------------------------------------------------
// Digest memo carry (regression)
// ---------------------------------------------------------------------

/// Snapshot construction must carry the memoised digest `OnceLock`
/// instead of clearing it: pinned handles share storage pointer-equal
/// with the published relation, and reading a digest through a session
/// is a memo hit even for relations a commit just rewrote.
#[test]
fn snapshot_construction_carries_digest_memo() {
    let _guard = FailpointsGuard::arm("");
    let server = scene_server();
    let snap0 = server.current_snapshot();
    // Publication pre-populated every memo.
    for name in snap0.relation_names() {
        assert!(
            snap0.relation(name).unwrap().cached_digest().is_some(),
            "relation {name} published without its digest memo"
        );
    }
    server
        .commit(&WriteBatch::new().insert("Infront", tuple!["new", "edge"]))
        .unwrap();
    let snap1 = server.current_snapshot();
    // Untouched relations: pointer-equal storage, memo carried.
    assert!(dc_relation::Relation::shares_storage(
        snap0.relation("Ontop").unwrap(),
        snap1.relation("Ontop").unwrap()
    ));
    assert_eq!(
        snap0.relation("Ontop").unwrap().cached_digest(),
        snap1.relation("Ontop").unwrap().cached_digest()
    );
    // The rewritten relation detached, and publication re-populated its
    // memo so sessions still never recompute.
    assert!(!dc_relation::Relation::shares_storage(
        snap0.relation("Infront").unwrap(),
        snap1.relation("Infront").unwrap()
    ));
    assert!(snap1.relation("Infront").unwrap().cached_digest().is_some());
    // A session handle shares the published storage pointer-equal.
    let s = server.begin();
    let handle = s.read("Infront").unwrap();
    assert!(dc_relation::Relation::shares_storage(
        &handle,
        snap1.relation("Infront").unwrap()
    ));
    assert!(handle.cached_digest().is_some());
}
