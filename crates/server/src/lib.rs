//! The concurrent serving layer: snapshot-isolated sessions over an
//! MVCC commit path.
//!
//! This crate promotes the engine from a library with an internal
//! solver to a concurrently *served* system — the ROADMAP's
//! "millions of users" story. The design leans on invariants the lower
//! layers already guarantee:
//!
//! * **COW relations** ([`dc_relation::Relation`]): cloning a relation
//!   map is O(handles), so building a snapshot — or a writer's private
//!   overlay — never copies tuple sets.
//! * **Memoised content digests**: snapshot publication forces each
//!   relation's digest memo once and shares it with every pinned
//!   handle ([`Relation::snapshot_handle`]), so sessions read digests
//!   and build content-addressed solve keys at O(1).
//! * **Snapshot-evaluated solves**: a session's fixpoint runs use the
//!   solver unchanged — the catalog a session exposes simply never
//!   changes underneath them.
//!
//! # Shape
//!
//! [`Server::new`] takes over a fully defined [`dc_core::Database`]
//! and publishes it as epoch 0. [`Server::begin`] pins the current
//! [`Snapshot`] into a [`Session`] serving `query`/`solve` with zero
//! coordination between readers. A single writer applies a
//! [`WriteBatch`] on a private overlay and publishes the successor
//! snapshot atomically; [`Server::commit_or_conflict`] adds read-set
//! validation, completing the begin-snapshot / read / batched-write /
//! commit-or-conflict transaction API.
//!
//! [`Server::prepare`] compiles a query once into a reusable
//! [`PreparedQuery`]: the type-checked expression and its read set
//! ([`Server::prepare_solve`] is the same call on an application given
//! by names). A handle is accepted by [`Session::query`] on any session
//! and by [`Server::subscribe`] — the **standing query** entry point:
//! one epoch-stamped output delta per commit. A named application
//! ([`dc_core::NamedApplication`]) is maintained incrementally from its
//! fixpoint system (warm semi-naive re-entry, delete-and-rederive) when
//! the solver proves it sound; every other query, and every refusal, is
//! re-evaluated cold. See [`subscribe`] for the delivery contract.
//!
//! [`Relation::snapshot_handle`]: dc_relation::Relation::snapshot_handle

// The serving layer sits directly under user-shaped traffic: failures
// must be structured `ServerError`s, never panics. Escalate, allowing
// tests (and justified per-site opt-ins).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod error;
pub mod prepare;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod subscribe;

pub use batch::{WriteBatch, WriteOp};
pub use error::ServerError;
pub use prepare::PreparedQuery;
pub use server::Server;
pub use session::{Queryable, Session};
pub use snapshot::Snapshot;
pub use subscribe::{Subscription, SubscriptionUpdate};

// The whole point of the crate: the server and its snapshots cross
// thread boundaries freely. Sessions are Send (begin on one thread,
// serve on another) but deliberately not Sync — one session, one
// isolation scope. Subscriptions are Send (consume updates on a worker
// thread) but not Sync — one subscriber, one stream.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<WriteBatch>();
    assert_send_sync::<ServerError>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<SubscriptionUpdate>();
    assert_send::<Session>();
    assert_send::<Subscription>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::ast::{Branch, SetFormer};
    use dc_calculus::builder::*;
    use dc_core::{Constructor, Database};
    use dc_governor::{Budget, SolveError};
    use dc_relation::Relation;
    use dc_value::{tuple, Domain, Schema};

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn aheadrel() -> Schema {
        Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)])
    }

    fn ahead_ctor() -> Constructor {
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

    fn scene_db() -> Database {
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.insert_all(
            "Infront",
            vec![
                tuple!["vase", "table"],
                tuple!["table", "chair"],
                tuple!["chair", "wall"],
            ],
        )
        .unwrap();
        db.define_constructor(ahead_ctor()).unwrap();
        db
    }

    #[test]
    fn epoch_zero_serves_queries_and_solves() {
        let server = Server::new(scene_db());
        assert_eq!(server.current_epoch(), 0);
        let s = server.begin();
        assert_eq!(s.epoch(), 0);
        let out = s.query(&rel("Infront").construct("ahead", vec![])).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.contains(&tuple!["vase", "wall"]));
        // The convenience solve takes the same path.
        let out2 = s.solve("Infront", "ahead", &[], vec![]).unwrap();
        assert_eq!(out, out2);
        // One solve: the convenience call hit the session's memo.
        assert_eq!(server.metrics().snapshot().solve_runs, 1);
        assert_eq!(s.read_set(), vec!["Infront".to_string()]);
    }

    #[test]
    fn commit_publishes_new_epoch_and_pinned_sessions_keep_theirs() {
        let server = Server::new(scene_db());
        let pinned = server.begin();
        let before = pinned.read("Infront").unwrap();
        let epoch = server
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(server.current_epoch(), 1);
        // The pinned session still sees the old value…
        assert_eq!(pinned.read("Infront").unwrap(), before);
        assert!(!pinned
            .contains("Infront", &tuple!["wall", "window"])
            .unwrap());
        // …while a fresh session sees the new one.
        let fresh = server.begin();
        assert_eq!(fresh.epoch(), 1);
        assert!(fresh
            .contains("Infront", &tuple!["wall", "window"])
            .unwrap());
        assert_eq!(server.commit_count(), 1);
    }

    #[test]
    fn commit_is_atomic_on_mid_batch_failure() {
        let server = Server::new(scene_db());
        let digest = server.begin().relation_digest("Infront").unwrap();
        // Second op hits an unknown relation: the first op must not
        // land either.
        let batch = WriteBatch::new()
            .insert("Infront", tuple!["wall", "window"])
            .insert("NoSuch", tuple!["x", "y"]);
        let err = server.commit(&batch).unwrap_err();
        assert!(matches!(err, ServerError::Unknown { .. }));
        assert_eq!(server.current_epoch(), 0);
        assert_eq!(server.begin().relation_digest("Infront").unwrap(), digest);
        assert_eq!(server.commit_count(), 0);
    }

    #[test]
    fn replace_and_delete_ops_apply_in_order() {
        let server = Server::new(scene_db());
        let batch = WriteBatch::new()
            .replace(
                "Infront",
                vec![tuple!["a", "b"], tuple!["b", "c"], tuple!["c", "d"]],
            )
            .delete("Infront", tuple!["c", "d"])
            .insert("Infront", tuple!["x", "y"]);
        server.commit(&batch).unwrap();
        let s = server.begin();
        let r = s.read("Infront").unwrap();
        assert_eq!(
            r.sorted_tuples(),
            vec![tuple!["a", "b"], tuple!["b", "c"], tuple!["x", "y"]]
        );
    }

    #[test]
    fn commit_or_conflict_rejects_stale_read_sets() {
        let server = Server::new(scene_db());
        // Transaction A reads Infront at epoch 0.
        let a = server.begin();
        let _ = a.read("Infront").unwrap();
        // A concurrent commit modifies Infront (epoch 1).
        server
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap();
        // A's write now conflicts…
        let err = server
            .commit_or_conflict(&a, &WriteBatch::new().insert("Infront", tuple!["p", "q"]))
            .unwrap_err();
        assert!(
            matches!(err, ServerError::Conflict { ref relation, read_epoch: 0, committed_epoch: 1 } if relation == "Infront")
        );
        assert_eq!(server.conflict_count(), 1);
        assert_eq!(server.current_epoch(), 1, "rejected batch not applied");
        // …and the retry on a fresh session succeeds.
        let retry = server.begin();
        let _ = retry.read("Infront").unwrap();
        server
            .commit_or_conflict(
                &retry,
                &WriteBatch::new().insert("Infront", tuple!["p", "q"]),
            )
            .unwrap();
        assert_eq!(server.current_epoch(), 2);
    }

    #[test]
    fn commit_or_conflict_allows_disjoint_reads() {
        let mut db = scene_db();
        db.create_relation("Other", infrontrel()).unwrap();
        let server = Server::new(db);
        let a = server.begin();
        let _ = a.read("Other").unwrap();
        // A commit touching only Infront does not invalidate A.
        server
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap();
        server
            .commit_or_conflict(&a, &WriteBatch::new().insert("Other", tuple!["u", "v"]))
            .unwrap();
        assert_eq!(server.conflict_count(), 0);
    }

    #[test]
    fn snapshot_relations_carry_digest_memo() {
        let server = Server::new(scene_db());
        let snap = server.current_snapshot();
        // Publication pre-populated the memo: the pinned handle knows
        // its digest without recomputing.
        assert!(snap.relation("Infront").unwrap().cached_digest().is_some());
        // After a commit, the touched relation's new storage is
        // re-digested at publish, and untouched handles share storage
        // with the previous snapshot.
        let mut db2 = scene_db();
        db2.create_relation("Other", infrontrel()).unwrap();
        let server2 = Server::new(db2);
        let before = server2.current_snapshot();
        server2
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap();
        let after = server2.current_snapshot();
        assert!(after.relation("Infront").unwrap().cached_digest().is_some());
        assert!(Relation::shares_storage(
            before.relation("Other").unwrap(),
            after.relation("Other").unwrap()
        ));
    }

    #[test]
    fn catalog_digest_tracks_content_not_history() {
        let server = Server::new(scene_db());
        let d0 = server.current_snapshot().catalog_digest();
        server
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap();
        let d1 = server.current_snapshot().catalog_digest();
        assert_ne!(d0, d1);
        // Deleting the tuple restores the exact catalog content, and
        // with it the digest — epochs differ, content digests agree.
        server
            .commit(&WriteBatch::new().delete("Infront", tuple!["wall", "window"]))
            .unwrap();
        let d2 = server.current_snapshot().catalog_digest();
        assert_eq!(d0, d2);
        assert_eq!(server.current_epoch(), 2);
    }

    #[test]
    fn sessions_of_one_epoch_share_its_solved_memo() {
        let server = Server::new(scene_db());
        let q = rel("Infront").construct("ahead", vec![]);
        let before = server.metrics().snapshot();
        let (a, b) = (server.begin(), server.begin());
        assert_eq!(a.query(&q).unwrap(), b.query(&q).unwrap());
        let d = server.metrics().snapshot().since(&before);
        assert_eq!(
            (d.solve_runs, d.warm_solved_hits),
            (1, 1),
            "the second session must hit the first one's solve"
        );
    }

    /// `gated` reads `Gate` by name, through a quantifier: an input the
    /// application's key does not cover.
    fn gated_db() -> Database {
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.create_relation("Gate", infrontrel()).unwrap();
        db.insert_all(
            "Infront",
            vec![tuple!["vase", "table"], tuple!["table", "chair"]],
        )
        .unwrap();
        db.define_constructor(Constructor {
            name: "gated".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: infrontrel(),
            body: SetFormer {
                branches: vec![Branch::each(
                    "r",
                    rel("Rel"),
                    some("g", rel("Gate"), eq(attr("g", "front"), attr("r", "front"))),
                )],
            },
        })
        .unwrap();
        db
    }

    fn gated() -> dc_calculus::RangeExpr {
        rel("Infront").construct("gated", vec![])
    }

    fn open_gate() -> WriteBatch {
        WriteBatch::new().insert("Gate", tuple!["vase", "x"])
    }

    #[test]
    fn a_session_sees_a_commit_to_a_relation_a_body_reads_by_name() {
        let server = Server::new(gated_db());
        assert!(server.begin().query(&gated()).unwrap().is_empty());
        server.commit(&open_gate()).unwrap();
        assert_eq!(server.begin().query(&gated()).unwrap().len(), 1);
    }

    #[test]
    fn a_subscribed_prepared_solve_queries_the_refreshed_answer() {
        let server = Server::new(gated_db());
        let prepared = server
            .prepare_solve("Infront", "gated", &[], vec![])
            .unwrap();
        // Prepared as the application it names: the rewrite at prepare
        // does not inline a named application, so it is previewed.
        let preview = prepared.explain(&server.begin()).unwrap();
        assert!(preview.text().starts_with("EXPLAIN Infront{gated()}\n└─"));
        let sub = server.subscribe(&prepared).unwrap();
        assert!(sub.recv().unwrap().unwrap().added.is_empty());
        server.commit(&open_gate()).unwrap();
        assert_eq!(sub.recv().unwrap().unwrap().added.len(), 1);
        assert_eq!(server.begin().query(&prepared).unwrap().len(), 1);
    }

    #[test]
    fn a_query_subscription_sees_a_commit_to_a_relation_a_body_reads_by_name() {
        let server = Server::new(gated_db());
        let sub = server
            .subscribe(&server.prepare(&gated()).unwrap())
            .unwrap();
        assert!(sub.recv().unwrap().unwrap().added.is_empty());
        server.commit(&open_gate()).unwrap();
        let update = sub.recv().unwrap().unwrap();
        assert_eq!((update.added.len(), update.removed.len()), (1, 0));
    }

    /// The control: a `Database` drops its memo on every change.
    #[test]
    fn a_database_sees_a_change_to_a_relation_a_body_reads_by_name() {
        let mut db = gated_db();
        assert!(db.eval(&gated()).unwrap().is_empty());
        db.insert("Gate", tuple!["vase", "x"]).unwrap();
        assert_eq!(db.eval(&gated()).unwrap().len(), 1);
    }

    /// A stream that never repeats a state leaves the published memo
    /// holding one epoch's solves, not one per epoch.
    #[test]
    fn the_published_memo_holds_one_epochs_solves() {
        let server = Server::new(scene_db());
        let q = rel("Infront").construct("ahead", vec![]);
        for i in 0..200 {
            let edge = tuple![format!("a{i}"), format!("b{i}")];
            server
                .commit(&WriteBatch::new().insert("Infront", edge))
                .unwrap();
            assert_eq!(server.begin().query(&q).unwrap().len(), 6 + i + 1);
            let memo = server.current_snapshot().solved().len();
            assert!(memo <= 1, "epoch {}: {memo} memo entries", i + 1);
        }
    }

    /// `from(K)`: the objects behind `K`, passing the scalar parameter
    /// on to its recursive application — the shape of every seeded
    /// constructor.
    fn from_db() -> Database {
        let mut db = scene_db();
        db.define_constructor(Constructor {
            name: "from".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![("K".into(), Domain::Str)],
            result: aheadrel(),
            body: SetFormer {
                branches: vec![
                    Branch::projecting(
                        vec![attr("r", "front"), attr("r", "back")],
                        vec![("r".into(), rel("Rel"))],
                        eq(attr("r", "front"), param("K")),
                    ),
                    Branch::projecting(
                        vec![attr("f", "head"), attr("b", "back")],
                        vec![
                            (
                                "f".into(),
                                rel("Rel").construct_with("from", vec![], vec![param("K")]),
                            ),
                            ("b".into(), rel("Rel")),
                        ],
                        eq(attr("f", "tail"), attr("b", "front")),
                    ),
                ],
            },
        })
        .unwrap();
        db
    }

    #[test]
    fn explain_previews_a_constructor_that_passes_a_scalar_parameter_on() {
        let from_vase = rel("Infront").construct_with("from", vec![], vec![cnst("vase")]);
        let db_text = from_db().explain(&from_vase).unwrap().text().to_string();
        let server = Server::new(from_db());
        let s = server.begin();
        let prepared = server
            .prepare_solve("Infront", "from", &[], vec![dc_value::Value::str("vase")])
            .unwrap();
        let preview = prepared.explain(&s).unwrap();
        assert_eq!(preview.access_paths().count(), 2, "{}", preview.text());
        assert!(!preview.text().contains("rows:"), "{}", preview.text());
        assert_eq!(preview.text(), db_text);
        assert_eq!(s.query(&prepared).unwrap().len(), 3);
    }

    #[test]
    fn shutdown_cancels_sessions_and_rejects_commits() {
        let server = Server::new(scene_db()).with_session_budget(Budget::unlimited());
        let s = server.begin();
        server.shutdown();
        assert!(server.is_shut_down());
        let err = server
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap_err();
        assert!(matches!(err, ServerError::ShuttingDown));
        // The in-flight session's next governed evaluation trips.
        let err = s
            .query(&rel("Infront").construct("ahead", vec![]))
            .unwrap_err();
        match err {
            ServerError::Eval(dc_calculus::EvalError::Solve(SolveError::Cancelled { .. })) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn cancelling_one_session_leaves_siblings_alive() {
        let server = Server::new(scene_db());
        let doomed = server.begin();
        let alive = server.begin();
        doomed.cancel_token().cancel();
        assert!(doomed
            .query(&rel("Infront").construct("ahead", vec![]))
            .is_err());
        assert!(alive
            .query(&rel("Infront").construct("ahead", vec![]))
            .is_ok());
        assert!(!server.is_shut_down());
    }

    #[test]
    fn unknown_names_are_structured_errors() {
        let server = Server::new(scene_db());
        let s = server.begin();
        assert!(matches!(
            s.read("NoSuch").unwrap_err(),
            ServerError::Eval(dc_calculus::EvalError::UnknownRelation(_))
        ));
        assert!(s.solve("Infront", "nosuch", &[], vec![]).is_err());
    }
}
