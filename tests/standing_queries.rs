//! Standing-query battery: incremental view maintenance over the MVCC
//! serving layer.
//!
//! What must hold, and is asserted here:
//!
//! * **Per-epoch differential oracle**: applying a subscription's
//!   cumulative output deltas to its initial result reproduces, at
//!   *every* epoch, exactly what a from-scratch re-query on an
//!   independent replay of the same commit script produces — digest
//!   identical, under warm refreshes, cold fallbacks, and O(1)
//!   disjoint skips alike.
//! * **Gap-free epoch stream**: update `n` carries epoch
//!   `initial + n`; disjoint commits still deliver (empty) updates.
//! * **Warm/cold routing**: commits into safely-read relations refresh
//!   warm — insertions and deletions alike; a warm update retracts
//!   exactly the tuples that lost their last derivation. Systems the
//!   solver runs naive refresh cold.
//! * **Fault injection**: an armed `view_refresh` failpoint (panic or
//!   error action) fires on the warm path only — the commit still
//!   succeeds, the refresh lands cold with the correct delta, and
//!   subscriber state stays consistent for subsequent epochs.
//! * **Prepared handles**: one `PreparedQuery` serves `Session::query`
//!   across sessions and epochs, `Session::solve`, and `subscribe`,
//!   all agreeing with each other; `prepare` of an application and
//!   `prepare_solve` of the same names give the same handle.
//!
//! Every test that commits holds a `FailpointsGuard` (possibly arming
//! nothing): the guard overrides any env-armed registry, so the suite
//! also runs — single-threaded — under CI's
//! `DC_FAILPOINTS=view_refresh=panic` leg.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use dc_core::{Database, Strategy};
use dc_governor::FailpointsGuard;
use dc_relation::{algebra, Relation};
use dc_server::{Server, Subscription, SubscriptionUpdate, WriteBatch};
use dc_value::tuple;

// ---------------------------------------------------------------------
// Workload: chain closure under the `ahead` constructor, plus one
// relation the closure never reads (for disjoint commits).
// ---------------------------------------------------------------------

fn graph_db() -> Database {
    let mut db = dc_bench::ahead_db(&dc_bench::many_chains(4, 4), Strategy::SemiNaive);
    db.create_relation("Unrelated", dc_bench::workload::graphs::edge_schema())
        .unwrap();
    db.insert("Unrelated", tuple!["seed", "edge"]).unwrap();
    db
}

/// A commit script mixing insertions, a disjoint commit, a deletion
/// that breaks a chain, post-deletion insertions, and a deleted
/// shortcut whose pair is still derived — all warm.
fn mixed_script() -> Vec<WriteBatch> {
    vec![
        // Warm: splice new edges onto chain 0.
        WriteBatch::new()
            .insert("Infront", tuple!["c0_4", "w0"])
            .insert("Infront", tuple!["w0", "w1"]),
        // Disjoint: the closure never reads `Unrelated`.
        WriteBatch::new().insert("Unrelated", tuple!["a", "b"]),
        // Warm: connect two chains.
        WriteBatch::new().insert("Infront", tuple!["c1_4", "c2_0"]),
        // A deletion breaks chain 0 in the middle: retracts.
        WriteBatch::new().delete("Infront", tuple!["c0_2", "c0_3"]),
        // Warm again, from the re-captured system.
        WriteBatch::new().insert("Infront", tuple!["w1", "w2"]),
        // A shortcut over c3_1, then its deletion: the pair it adds is
        // derived through the chain too, so nothing is retracted.
        WriteBatch::new().insert("Infront", tuple!["c3_0", "c3_2"]),
        WriteBatch::new().delete("Infront", tuple!["c3_0", "c3_2"]),
        // Empty barrier commit: touches nothing, O(1) update.
        WriteBatch::new(),
    ]
}

/// Apply one update's two-way delta to a materialised result.
fn apply_update(result: &Relation, up: &SubscriptionUpdate) -> Relation {
    algebra::difference(&algebra::union(result, &up.added).unwrap(), &up.removed).unwrap()
}

/// From-scratch closure at the oracle server's current epoch.
fn oracle_solve(oracle: &Server) -> Relation {
    oracle
        .begin()
        .solve("Infront", "ahead", &[], vec![])
        .unwrap()
}

/// Drain exactly one update and sanity-check its epoch.
fn next_update(sub: &Subscription, expect_epoch: u64) -> SubscriptionUpdate {
    let up = sub.recv().expect("subscription alive").expect("no error");
    assert_eq!(up.epoch, expect_epoch, "epoch stream must be gap-free");
    up
}

// ---------------------------------------------------------------------
// (a) Per-epoch differential oracle, with warm/cold routing asserted
// ---------------------------------------------------------------------

#[test]
fn subscription_deltas_replay_to_the_from_scratch_oracle_at_every_epoch() {
    let _guard = FailpointsGuard::arm("");
    let server = Server::new(graph_db());
    let oracle = Server::new(graph_db());

    let prepared = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap();
    assert!(prepared.is_resolved());
    assert_eq!(prepared.reads(), vec!["Infront"]);

    let sub = server.subscribe(&prepared).unwrap();
    let initial = next_update(&sub, 0);
    assert!(initial.removed.is_empty());
    let mut materialised = initial.added.clone();
    assert_eq!(materialised.digest(), oracle_solve(&oracle).digest());

    // warm-expectation per scripted commit, mirroring `mixed_script`.
    let warm_expected = [true, true, true, true, true, true, true, true];
    let retracts = [false, false, false, true, false, false, false, false];
    for (i, batch) in mixed_script().into_iter().enumerate() {
        let before = oracle_solve(&oracle);
        let epoch = server.commit(&batch).unwrap();
        assert_eq!(oracle.commit(&batch).unwrap(), epoch);
        let up = next_update(&sub, epoch);
        assert_eq!(
            up.warm, warm_expected[i],
            "commit {i}: unexpected maintenance path"
        );
        let expect = oracle_solve(&oracle);
        // `removed` is non-empty exactly when a derived tuple lost its
        // last derivation — and then it is exactly those tuples.
        let lost = algebra::difference(&before, &expect).unwrap();
        assert_eq!(up.removed.sorted_tuples(), lost.sorted_tuples());
        assert_eq!(!up.removed.is_empty(), retracts[i], "commit {i}");
        materialised = apply_update(&materialised, &up);
        assert_eq!(
            materialised.digest(),
            expect.digest(),
            "commit {i}: cumulative deltas diverge from the from-scratch oracle"
        );
        assert_eq!(materialised.sorted_tuples(), expect.sorted_tuples());
    }
    assert_eq!(server.subscription_count(), 1);
}

// ---------------------------------------------------------------------
// (b) The oracle holds while raced by reader pools of 1 and 4 threads
// ---------------------------------------------------------------------

fn raced_oracle(readers: usize) {
    let _guard = FailpointsGuard::arm("");
    let server = Server::new(graph_db());
    let oracle = Server::new(graph_db());
    let prepared = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap();
    let sub = server.subscribe(&prepared).unwrap();
    let done = AtomicBool::new(false);

    thread::scope(|scope| {
        let server = &server;
        let prepared = &prepared;
        let done = &done;
        for _ in 0..readers {
            scope.spawn(move || {
                // Free-running readers re-execute the same prepared
                // handle on fresh sessions; within one session the
                // result must be stable however many epochs the writer
                // publishes meanwhile.
                let mut served = 0u32;
                while !done.load(Ordering::Relaxed) || served == 0 {
                    let session = server.begin();
                    let a = session.query(prepared).unwrap();
                    let b = session.query(prepared).unwrap();
                    assert_eq!(a.digest(), b.digest());
                    served += 1;
                }
            });
        }

        let initial = next_update(&sub, 0);
        let mut materialised = initial.added.clone();
        for batch in mixed_script() {
            let epoch = server.commit(&batch).unwrap();
            oracle.commit(&batch).unwrap();
            let up = next_update(&sub, epoch);
            materialised = apply_update(&materialised, &up);
            assert_eq!(
                materialised.digest(),
                oracle_solve(&oracle).digest(),
                "epoch {epoch}: raced subscription diverged from oracle"
            );
        }
        done.store(true, Ordering::Relaxed);
    });
}

#[test]
fn oracle_holds_under_a_single_raced_reader() {
    raced_oracle(1);
}

#[test]
fn oracle_holds_under_a_reader_pool_of_four() {
    raced_oracle(4);
}

// ---------------------------------------------------------------------
// (c) Disjoint commits: O(1) empty updates, gap-free epochs, pruning
// ---------------------------------------------------------------------

#[test]
fn disjoint_commits_deliver_empty_updates_without_reevaluation() {
    let _guard = FailpointsGuard::arm("");
    let server = Server::new(graph_db());
    let prepared = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap();
    let sub = server.subscribe(&prepared).unwrap();
    let initial = next_update(&sub, 0);

    for i in 0..5u32 {
        let epoch = server
            .commit(&WriteBatch::new().insert("Unrelated", tuple![format!("d{i}"), "x"]))
            .unwrap();
        let up = next_update(&sub, epoch);
        assert!(up.warm, "disjoint refresh must not re-evaluate");
        assert!(up.added.is_empty() && up.removed.is_empty());
    }
    // The result is byte-identical to the initial one throughout.
    let now = server.begin().query(&prepared).unwrap();
    assert_eq!(now.digest(), initial.added.digest());

    // Dropping the receiver prunes the entry at the next commit.
    drop(sub);
    assert_eq!(server.subscription_count(), 1);
    server.commit(&WriteBatch::new()).unwrap();
    assert_eq!(server.subscription_count(), 0);
}

/// A commit whose ops on the subscribed relation cancel out leaves its
/// content as it was but its storage new: the refresh reaches the new
/// storage from the one the system read through the commit's empty
/// delta, so it stays warm and delivers an empty update — and the next
/// commit refreshes warm from the system it re-captured.
#[test]
fn a_commit_whose_ops_cancel_out_refreshes_warm_with_an_empty_update() {
    let _guard = FailpointsGuard::arm("");
    let server = Server::new(graph_db());
    let prepared = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap();
    let sub = server.subscribe(&prepared).unwrap();
    let initial = next_update(&sub, 0);
    let cancelled = WriteBatch::new()
        .insert("Infront", tuple!["c0_4", "x"])
        .delete("Infront", tuple!["c0_4", "x"]);
    let up = next_update(&sub, server.commit(&cancelled).unwrap());
    assert!(up.warm, "a net-empty commit must refresh warm");
    assert!(up.added.is_empty() && up.removed.is_empty());
    let grown = WriteBatch::new().insert("Infront", tuple!["c0_4", "x"]);
    let up = next_update(&sub, server.commit(&grown).unwrap());
    assert!(up.warm);
    assert_eq!(up.added.len(), 5, "every node of chain 0 now reaches x");
    let now = server.begin().query(&prepared).unwrap();
    assert_eq!(now, algebra::union(&initial.added, &up.added).unwrap());
}

// ---------------------------------------------------------------------
// (d) Queries that are not named applications: always cold on touched
//     commits, still delta-exact
// ---------------------------------------------------------------------

#[test]
fn a_query_over_an_application_is_cold_but_delta_exact() {
    use dc_calculus::ast::Branch;
    use dc_calculus::builder::{set_former, tru};

    let _guard = FailpointsGuard::arm("");
    let server = Server::new(graph_db());
    let oracle = Server::new(graph_db());
    // `{EACH a IN Infront{ahead}: TRUE}` reads the closure but is not
    // itself an application: no materialised system to maintain.
    let ast = set_former(vec![Branch::each("a", dc_bench::ahead_query(), tru())]);
    let prepared = server.prepare(&ast).unwrap();
    assert_eq!(prepared.reads(), vec!["Infront"]);
    let sub = server.subscribe(&prepared).unwrap();
    let initial = next_update(&sub, 0);
    let mut materialised = initial.added.clone();

    for batch in mixed_script() {
        let epoch = server.commit(&batch).unwrap();
        oracle.commit(&batch).unwrap();
        let up = next_update(&sub, epoch);
        let touched = !batch.ops().iter().all(|(n, _)| n != "Infront");
        assert_eq!(
            up.warm, !touched,
            "no materialised system: touched commits re-evaluate cold"
        );
        materialised = apply_update(&materialised, &up);
        let expect = oracle.begin().query(&ast).unwrap();
        assert_eq!(materialised.sorted_tuples(), expect.sorted_tuples());
    }
}

/// A bound query over the closure is rewritten at prepare into the
/// seeded application: served, it solves only the cone of its constant,
/// and its subscription is maintained warm like any named application.
#[test]
fn a_bound_query_is_served_on_its_cone_and_refreshed_warm() {
    const DEPTH: usize = 32;
    let _guard = FailpointsGuard::arm("");
    let db = dc_bench::ahead_db(&dc_bench::many_chains(64, DEPTH), Strategy::SemiNaive);
    let server = Server::new(db);
    let q = dc_bench::bound_query(
        dc_bench::ahead_query(),
        "head",
        dc_calculus::builder::cnst("c0_0"),
    );
    let prepared = server.prepare(&q).unwrap();
    assert_eq!(prepared.reads(), vec!["Infront"]);
    let (cone, work) = dc_bench::counted(&server.metrics(), || {
        server.begin().query(&prepared).unwrap()
    });
    assert_eq!(cone.len(), DEPTH);
    assert!(
        work.delta_tuples <= 4 * DEPTH as u64,
        "served query carried {} delta tuples for a cone of {DEPTH}",
        work.delta_tuples
    );

    let sub = server.subscribe(&prepared).unwrap();
    assert_eq!(next_update(&sub, 0).added, cone);
    let (epoch, work) = dc_bench::counted(&server.metrics(), || {
        let batch = WriteBatch::new().insert("Infront", tuple![format!("c0_{DEPTH}"), "w"]);
        server.commit(&batch).unwrap()
    });
    let up = next_update(&sub, epoch);
    assert!(up.warm, "a seeded application refreshes warm");
    assert_eq!(work.refresh_warm, 1);
    assert_eq!(up.added.sorted_tuples(), vec![tuple!["c0_0", "w"]]);
    assert!(up.removed.is_empty());
}

// ---------------------------------------------------------------------
// (e) Fault injection on the warm path
// ---------------------------------------------------------------------

/// Both actions of the `view_refresh` failpoint — which fires *after*
/// publication, on the warm path only — must leave the commit
/// successful and land the refresh on the cold path with the exact
/// delta; once disarmed, the subscription is warm again from the
/// re-captured system.
fn view_refresh_fault(action: &str) {
    let server = Server::new(graph_db());
    let oracle = Server::new(graph_db());
    let prepared = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap();
    let (sub, mut materialised) = {
        let _guard = FailpointsGuard::arm("");
        let sub = server.subscribe(&prepared).unwrap();
        let initial = next_update(&sub, 0);
        (sub, initial.added.clone())
    };

    {
        let _guard = FailpointsGuard::arm(&format!("view_refresh={action}"));
        // Insert-only: would be warm, but the armed failpoint forces
        // the cold fallback. The commit itself must succeed.
        let batch = WriteBatch::new().insert("Infront", tuple!["c0_4", "f0"]);
        let epoch = server.commit(&batch).unwrap();
        oracle.commit(&batch).unwrap();
        let up = next_update(&sub, epoch);
        assert!(!up.warm, "armed view_refresh must force the cold path");
        materialised = apply_update(&materialised, &up);
        assert_eq!(materialised.digest(), oracle_solve(&oracle).digest());
    }

    {
        let _guard = FailpointsGuard::arm("");
        // Disarmed: the cold fallback re-captured the system, so the
        // next insert-only commit is warm and still oracle-exact.
        let batch = WriteBatch::new().insert("Infront", tuple!["f0", "f1"]);
        let epoch = server.commit(&batch).unwrap();
        oracle.commit(&batch).unwrap();
        let up = next_update(&sub, epoch);
        assert!(
            up.warm,
            "refresh must recover the warm path after the fault"
        );
        materialised = apply_update(&materialised, &up);
        assert_eq!(materialised.digest(), oracle_solve(&oracle).digest());
    }
}

#[test]
fn view_refresh_panic_never_corrupts_subscriber_state_or_the_commit() {
    view_refresh_fault("panic");
}

#[test]
fn view_refresh_error_never_corrupts_subscriber_state_or_the_commit() {
    view_refresh_fault("error");
}

// ---------------------------------------------------------------------
// (f) Prepared handles across sessions; WriteBatch ergonomics
// ---------------------------------------------------------------------

#[test]
fn one_prepared_handle_serves_queries_solves_and_subscriptions() {
    let _guard = FailpointsGuard::arm("");
    let server = Server::new(graph_db());
    let prepared = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap();

    // The same handle across two sessions at different epochs, against
    // the raw-AST path and the convenience solve.
    let s0 = server.begin();
    let via_prepared = s0.query(&prepared).unwrap();
    let via_ast = s0.query(&dc_bench::ahead_query()).unwrap();
    let via_solve = s0.solve("Infront", "ahead", &[], vec![]).unwrap();
    assert_eq!(via_prepared.digest(), via_ast.digest());
    assert_eq!(via_prepared.digest(), via_solve.digest());

    server
        .commit(&WriteBatch::new().insert("Infront", tuple!["c3_4", "n0"]))
        .unwrap();
    let s1 = server.begin();
    assert_ne!(
        s1.query(&prepared).unwrap().digest(),
        via_prepared.digest(),
        "the new epoch's closure grew"
    );
    // The old session still serves its pinned epoch through the handle.
    assert_eq!(s0.query(&prepared).unwrap().digest(), via_prepared.digest());

    // Unknown names are rejected at prepare time, not at use.
    assert!(server.prepare_solve("Nope", "ahead", &[], vec![]).is_err());
    assert!(server
        .prepare_solve("Infront", "nope", &[], vec![])
        .is_err());
}

/// `prepare(&Infront{ahead})` and `prepare_solve("Infront", "ahead", …)`
/// are one handle: the same read set, the same `EXPLAIN`, and the same
/// updates, warm on every commit of the mixed script.
#[test]
fn both_prepare_paths_give_the_same_handle() {
    let _guard = FailpointsGuard::arm("");
    let server = Server::new(graph_db());
    let by_expr = server.prepare(&dc_bench::ahead_query()).unwrap();
    let by_names = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap();
    assert_eq!(by_expr.reads(), by_names.reads());
    let s = server.begin();
    let explain = |p: &dc_server::PreparedQuery| p.explain(&s).unwrap().text().to_string();
    assert_eq!(explain(&by_expr), explain(&by_names));

    let subs = [
        server.subscribe(&by_expr).unwrap(),
        server.subscribe(&by_names).unwrap(),
    ];
    let [a, b] = subs.each_ref().map(|sub| next_update(sub, 0));
    assert_eq!(a.added, b.added);
    for (i, batch) in mixed_script().into_iter().enumerate() {
        let epoch = server.commit(&batch).unwrap();
        let [a, b] = subs.each_ref().map(|sub| next_update(sub, epoch));
        assert!(a.warm && b.warm, "commit {i}: both handles refresh warm");
        assert_eq!(a.added, b.added, "commit {i}");
        assert_eq!(a.removed, b.removed, "commit {i}");
    }
}

#[test]
fn writebatch_push_ops_and_extend_match_the_builder_form() {
    let _guard = FailpointsGuard::arm("");
    let by_builder = Server::new(graph_db());
    let by_push = Server::new(graph_db());

    let builder = WriteBatch::new()
        .insert("Infront", tuple!["p0", "p1"])
        .insert("Infront", tuple!["p1", "p2"])
        .delete("Infront", tuple!["c0_0", "c0_1"]);

    let mut pushed = WriteBatch::new();
    pushed.push_insert("Infront", tuple!["p0", "p1"]);
    let mut tail = WriteBatch::new();
    tail.push_insert("Infront", tuple!["p1", "p2"]);
    tail.push_delete("Infront", tuple!["c0_0", "c0_1"]);
    pushed.extend(tail);
    assert_eq!(pushed.len(), builder.len());

    by_builder.commit(&builder).unwrap();
    by_push.commit(&pushed).unwrap();
    assert_eq!(
        by_builder.current_snapshot().catalog_digest(),
        by_push.current_snapshot().catalog_digest()
    );

    // push_replace composes with the same ordered-application rule as
    // the builder's replace.
    let mut b = WriteBatch::new();
    b.push_replace("Unrelated", vec![tuple!["only", "edge"]]);
    b.push_insert("Unrelated", tuple!["second", "edge"]);
    by_push.commit(&b).unwrap();
    let rel = by_push.begin().read("Unrelated").unwrap();
    assert_eq!(rel.len(), 2);
}

// ---------------------------------------------------------------------
// (g) Systems the solver runs naive refresh cold
// ---------------------------------------------------------------------

/// `Card = {0,…,6}` with §3.3's unchecked `strange` and the checked
/// `wrap_strange` = `EACH r IN Baserel{strange()}: TRUE` over it.
fn strange_db() -> Database {
    use dc_calculus::ast::{Branch, SetFormer};
    use dc_calculus::builder::{rel, tru};
    use dc_core::{paper, Constructor};

    let mut db = Database::new();
    db.create_relation("Card", paper::cardrel()).unwrap();
    db.insert_all("Card", (0u64..=6).map(|i| tuple![i]))
        .unwrap();
    db.define_constructor_unchecked(paper::strange()).unwrap();
    let wrap = Constructor {
        name: "wrap_strange".into(),
        body: SetFormer {
            branches: vec![Branch::each(
                "r",
                rel("Baserel").construct("strange", vec![]),
                tru(),
            )],
        },
        ..paper::strange()
    };
    db.define_constructor(wrap).unwrap();
    db
}

/// The root is checked, but the system reaches an unchecked
/// constructor: the solver runs it naive, so an insert refreshes the
/// subscription cold, onto the paper's limit — what a fresh solve on an
/// independent server gives.
#[test]
fn subscription_reaching_an_unchecked_constructor_refreshes_cold() {
    let _guard = FailpointsGuard::arm("");
    let server = Server::new(strange_db());
    let oracle = Server::new(strange_db());
    let cards = |r: &Relation| -> Vec<u64> {
        r.sorted_tuples()
            .iter()
            .map(|t| t.get(0).as_card().unwrap())
            .collect()
    };

    let prepared = server
        .prepare_solve("Card", "wrap_strange", &[], vec![])
        .unwrap();
    let sub = server.subscribe(&prepared).unwrap();
    let initial = next_update(&sub, 0);
    assert_eq!(cards(&initial.added), vec![0, 2, 4, 6]);

    let batch = WriteBatch::new().insert("Card", tuple![8u64]);
    let epoch = server.commit(&batch).unwrap();
    assert_eq!(oracle.commit(&batch).unwrap(), epoch);
    let update = next_update(&sub, epoch);
    assert!(!update.warm, "a naive system never refreshes warm");
    let refreshed = apply_update(&initial.added, &update);
    let fresh = oracle
        .begin()
        .solve("Card", "wrap_strange", &[], vec![])
        .unwrap();
    assert_eq!(refreshed, fresh);
    assert_eq!(cards(&refreshed), vec![0, 2, 4, 6, 8]);
}
