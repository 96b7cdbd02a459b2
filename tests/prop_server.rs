//! Property test: the MVCC commit path is serializable.
//!
//! Randomized `WriteBatch`es race through `commit_or_conflict` from
//! several writer threads. The **oracle**: replaying exactly the
//! accepted batches, sequentially, in commit (epoch) order through a
//! fresh server must reproduce the concurrent server's final catalog
//! digest. If a commit were ever torn, interleaved with another, or
//! applied against a state other than its predecessor's, the digests
//! would diverge.
//!
//! Also checked per case: accepted epochs form the dense chain
//! `1..=N` (serialization order, no gaps), and the replay assigns each
//! batch the very epoch the concurrent run recorded for it.

use proptest::prelude::*;

use dc_core::Database;
use dc_governor::FailpointsGuard;
use dc_server::{Server, ServerError, WriteBatch};
use dc_value::tuple;

const RELS: [&str; 2] = ["E1", "E2"];

/// A fresh database with two edge relations — all state lives in data,
/// so the catalog digest is a complete summary of the final state.
fn base_db() -> Database {
    let mut db = Database::new();
    for name in RELS {
        db.create_relation(name, dc_bench::workload::graphs::edge_schema())
            .unwrap();
    }
    for i in 0..4u8 {
        db.insert("E1", tuple![format!("n{i}"), format!("n{}", i + 1)])
            .unwrap();
    }
    db
}

/// One randomized transaction: which relation the session reads before
/// committing, and a batch of inserts/deletes over both relations.
#[derive(Debug, Clone)]
struct TxSpec {
    reads: usize,
    /// `(relation index, insert-vs-delete, from, to)` — the second
    /// component is a coin (0 = delete, 1 = insert); the shim has no
    /// `bool` strategy.
    ops: Vec<(usize, u8, u8, u8)>,
}

fn tx_strategy() -> impl Strategy<Value = TxSpec> {
    (
        0usize..RELS.len(),
        prop::collection::vec((0usize..RELS.len(), 0u8..2, 0u8..8, 0u8..8), 1..5),
    )
        .prop_map(|(reads, ops)| TxSpec { reads, ops })
}

fn build_batch(spec: &TxSpec) -> WriteBatch {
    let mut b = WriteBatch::new();
    for &(rel, is_insert, x, y) in &spec.ops {
        let t = tuple![format!("n{x}"), format!("n{y}")];
        b = if is_insert == 1 {
            b.insert(RELS[rel], t)
        } else {
            b.delete(RELS[rel], t)
        };
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent `commit_or_conflict` ≡ sequential replay in commit
    /// order.
    #[test]
    fn optimistic_commits_are_serializable(txs in prop::collection::vec(tx_strategy(), 1..12)) {
        let _guard = FailpointsGuard::arm("");
        let server = Server::new(base_db());
        let threads = 3usize;
        // Each writer thread drains its round-robin share of the
        // transactions, retrying on conflict; every accepted commit is
        // recorded with the epoch the server assigned it.
        let accepted: Vec<(u64, WriteBatch)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let server = &server;
                    let txs = &txs;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        for spec in txs.iter().skip(w).step_by(threads) {
                            let batch = build_batch(spec);
                            loop {
                                let s = server.begin();
                                s.read(RELS[spec.reads]).unwrap();
                                match server.commit_or_conflict(&s, &batch) {
                                    Ok(epoch) => {
                                        mine.push((epoch, batch));
                                        break;
                                    }
                                    Err(ServerError::Conflict { .. }) => continue,
                                    Err(other) => panic!("unexpected commit failure: {other}"),
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            let mut all: Vec<_> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("writer thread panicked"))
                .collect();
            all.sort_by_key(|(epoch, _)| *epoch);
            all
        });

        // Every transaction eventually committed, on a dense epoch
        // chain: commit order is a total serialization order.
        prop_assert_eq!(accepted.len(), txs.len());
        prop_assert_eq!(server.commit_count(), txs.len() as u64);
        for (i, (epoch, _)) in accepted.iter().enumerate() {
            prop_assert_eq!(*epoch, i as u64 + 1);
        }

        // The oracle: sequential replay of the accepted batches, in
        // commit order, lands on the identical catalog digest.
        let replay = Server::new(base_db());
        for (epoch, batch) in &accepted {
            let got = replay.commit(batch).unwrap();
            prop_assert_eq!(got, *epoch);
        }
        prop_assert_eq!(
            replay.current_snapshot().catalog_digest(),
            server.current_snapshot().catalog_digest()
        );
        // Digest equality is not vacuous: the relations themselves
        // match tuple-for-tuple.
        let (a, b) = (server.begin(), replay.begin());
        for name in RELS {
            prop_assert_eq!(
                a.read(name).unwrap().sorted_tuples(),
                b.read(name).unwrap().sorted_tuples()
            );
        }
    }

    /// Sessions pinned across commits keep answering from their own
    /// epoch, and no epoch is served a stale access structure: an
    /// indexed server and a nested-loop reference server take the same
    /// random inserts/deletes/replaces over graph, scene, and staffing
    /// data, and after every commit every session pinned so far agrees
    /// with its reference twin on every query. Each write is (relation
    /// pick, op, tuple pick).
    #[test]
    fn pinned_sessions_match_the_nested_loop_reference(
        writes in prop::collection::vec((0usize..8, 0u8..3, 0usize..64), 1..8),
    ) {
        let _guard = FailpointsGuard::arm("");
        for ((db, queries), (mut ref_db, _)) in
            dc_bench::small_domains().into_iter().zip(dc_bench::small_domains())
        {
            let pools = dc_bench::tuple_pools(&db);
            ref_db.set_use_indexes(false);
            let (server, reference) = (Server::new(db), Server::new(ref_db));
            let mut pinned = vec![(server.begin(), reference.begin())];
            for &(r, op, k) in &writes {
                let (name, pool) = &pools[r % pools.len()];
                let t = pool[k % pool.len()].clone();
                let batch = match op {
                    0 => WriteBatch::new().insert(name.as_str(), t),
                    1 => WriteBatch::new().delete(name.as_str(), t),
                    _ => WriteBatch::new().replace(
                        name.as_str(),
                        pool.iter().skip(k % 2).step_by(2).cloned().collect(),
                    ),
                };
                prop_assert_eq!(server.commit(&batch).unwrap(), reference.commit(&batch).unwrap());
                pinned.push((server.begin(), reference.begin()));
                for (indexed, nested) in &pinned {
                    for q in &queries {
                        prop_assert_eq!(
                            indexed.query(q).unwrap(),
                            nested.query(q).unwrap(),
                            "{} at epoch {}", q, indexed.epoch()
                        );
                    }
                }
            }
        }
    }
}
