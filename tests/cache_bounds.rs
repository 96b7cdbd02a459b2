//! What the engine builds and keeps stays bounded: a long
//! insert/delete commit stream leaves the server's caches and the
//! string interner flat, and a closure builds no index per round.
//!
//! Warm deletions shrink maintained values and the indexes cached over
//! them in place, and every commit forgets the indexes over the base
//! relations it changed; neither may leak. The stream cycles over a
//! fixed vocabulary, so after its first cycle neither the number of
//! cached indexes nor the `interned_strings` gauge may move. The
//! interner is process-global, so the stream is the only test here that
//! interns strings: the closure test runs over integer vertices.

use dc_core::{paper, Database, Strategy};
use dc_governor::FailpointsGuard;
use dc_server::{Server, WriteBatch};
use dc_trace::metrics::Counter;
use dc_value::{tuple, Domain, Schema};

#[test]
fn a_thousand_commit_insert_delete_stream_leaves_caches_and_interner_flat() {
    let _guard = FailpointsGuard::arm("");
    let server = Server::new(dc_bench::ahead_db(
        &dc_bench::many_chains(4, 8),
        Strategy::SemiNaive,
    ));
    let prepared = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap();
    let sub = server.subscribe(&prepared).unwrap();
    sub.recv().expect("alive").expect("initial");
    // One cycle: cut a chain, bridge two chains, heal the cut, drop the
    // bridge — the base is back where it started.
    let cycle = [
        WriteBatch::new().delete("Infront", tuple!["c0_3", "c0_4"]),
        WriteBatch::new().insert("Infront", tuple!["c1_8", "c2_0"]),
        WriteBatch::new().insert("Infront", tuple!["c0_3", "c0_4"]),
        WriteBatch::new().delete("Infront", tuple!["c1_8", "c2_0"]),
    ];
    let mut flat = None;
    for round in 0..250 {
        for batch in &cycle {
            server.commit(batch).unwrap();
            let up = sub.recv().expect("alive").expect("refresh");
            assert!(up.warm);
            // A reader on every epoch builds indexes in the published
            // snapshot's cache too.
            server.begin().query(&prepared).unwrap();
        }
        let now = (
            server.cached_index_count(),
            server.metrics().snapshot().interned_strings,
        );
        match flat {
            None => {
                assert!(now.0 > 0, "the stream exercises cached indexes");
                flat = Some(now);
            }
            Some(first) => assert_eq!(now, first, "after cycle {round}"),
        }
    }
    let m = server.metrics();
    assert_eq!(m.get(Counter::RefreshWarm), 1000);
    assert_eq!(m.get(Counter::RefreshCold), 0);
}

/// `ahead` over a chain of `edges` integer edges: the index lookups
/// that missed the cache (each one a build) while solving it.
fn index_builds_solving_a_chain(edges: i64) -> u64 {
    let infront = Schema::of(&[("front", Domain::Int), ("back", Domain::Int)]);
    let mut ahead = paper::ahead();
    ahead.base_param.1 = infront.clone();
    ahead.result = Schema::of(&[("head", Domain::Int), ("tail", Domain::Int)]);
    let mut db = Database::new();
    db.create_relation("Infront", infront).unwrap();
    for i in 0..edges {
        db.insert("Infront", tuple![i, i + 1]).unwrap();
    }
    db.define_constructor(ahead).unwrap();
    let (closure, grown) =
        dc_bench::counted(&db.metrics(), || db.eval(&dc_bench::ahead_query()).unwrap());
    assert_eq!(closure.len() as i64, edges * (edges + 1) / 2);
    assert!(grown.solve_rounds > edges as u64, "one round per edge");
    grown.warm_index_misses
}

/// A chain four times longer takes four times the semi-naive rounds
/// and builds exactly the same indexes: no round builds a structure
/// over its delta — no statistics pass, no distinct count — that the
/// next round throws away.
#[test]
fn a_closure_builds_no_index_per_round() {
    let _guard = FailpointsGuard::arm("");
    let short = index_builds_solving_a_chain(32);
    assert!(short > 0, "the closure probes cached indexes");
    assert_eq!(index_builds_solving_a_chain(128), short);
}
