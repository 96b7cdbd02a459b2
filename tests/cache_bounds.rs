//! A long insert/delete commit stream leaves the server's caches and
//! the string interner flat.
//!
//! Warm deletions shrink maintained values and the indexes cached over
//! them in place, and every commit forgets the indexes over the base
//! relations it changed; neither may leak. The stream cycles over a
//! fixed vocabulary, so after its first cycle neither the number of
//! cached indexes nor the `interned_strings` gauge may move. The
//! interner is process-global, so this file holds a single test: its
//! own test binary, with no concurrent test interning strings.

use dc_core::Strategy;
use dc_governor::FailpointsGuard;
use dc_server::{Server, WriteBatch};
use dc_trace::metrics::Counter;
use dc_value::tuple;

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
