//! Cross-crate property tests: all engines compute the same transitive
//! closure, on arbitrary graphs.
//!
//! This is the load-bearing correctness property of the reproduction:
//! the §3.2 fixpoint (both strategies), the §3.4 options, the §4
//! rewrites, and the translated Horn-clause engines must agree
//! tuple-for-tuple.

use proptest::prelude::*;

use dc_bench::counted;
use dc_calculus::builder::{cnst, rel};
use dc_calculus::RangeExpr;
use dc_core::options::{ahead_step, program_iteration, transitive_closure};
use dc_core::{paper, Database, Strategy as FixpointStrategy};
use dc_prolog::{tabled, Atom, Term};
use dc_relation::Relation;
use dc_value::{tuple, Value};

fn edges_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec((0u8..10, 0u8..10), 0..30).prop_map(|pairs| {
        Relation::from_tuples(
            dc_bench::workload::graphs::edge_schema(),
            pairs
                .into_iter()
                .map(|(a, b)| tuple![format!("n{a}"), format!("n{b}")]),
        )
        .expect("valid edges")
    })
}

fn ahead_db(base: &Relation, strategy: FixpointStrategy) -> Database {
    let mut db = Database::new();
    db.set_strategy(strategy);
    db.create_relation("Infront", base.schema().clone())
        .unwrap();
    for t in base.iter() {
        db.insert("Infront", t.clone()).unwrap();
    }
    db.define_constructor(paper::ahead()).unwrap();
    db
}

fn engine_closure(base: &Relation, strategy: FixpointStrategy) -> Relation {
    ahead_db(base, strategy)
        .eval(&rel("Infront").construct("ahead", vec![]))
        .unwrap()
}

/// `{EACH a IN range: a.<attr_name> = "n<seed>"}`.
fn bound(range: RangeExpr, attr_name: &str, seed: u8) -> RangeExpr {
    dc_bench::bound_query(range, attr_name, cnst(format!("n{seed}")))
}

/// `Database::eval`, which rewrites the query by §4 where it enters, ≡
/// the query as written under the oracle.
fn rewrite_agrees(db: &Database, q: &RangeExpr) {
    dc_bench::oracle::assert_agrees(db, q).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Naive and semi-naive strategies compute the same LFP.
    #[test]
    fn strategies_agree(base in edges_strategy()) {
        let naive = engine_closure(&base, FixpointStrategy::Naive);
        let semi = engine_closure(&base, FixpointStrategy::SemiNaive);
        prop_assert_eq!(naive, semi);
    }

    /// The §3.4 options agree with the constructor semantics.
    #[test]
    fn options_agree(base in edges_strategy()) {
        let reference = engine_closure(&base, FixpointStrategy::SemiNaive);
        let tc = transitive_closure(&base, 0, 1).unwrap();
        prop_assert_eq!(&tc, &reference);
        let (iter, _) = program_iteration(base.schema().clone(), |cur| {
            ahead_step(&base, cur, 0, 1)
        }).unwrap();
        prop_assert_eq!(&iter, &reference);
    }

    /// §4 range nesting is sound on arbitrary graphs: the closure is
    /// left alone, a selection on `ahead2` is pushed into its branches.
    #[test]
    fn rewritten_query_agrees(base in edges_strategy(), seed in 0u8..10) {
        let mut db = ahead_db(&base, FixpointStrategy::SemiNaive);
        db.define_constructor(paper::ahead2()).unwrap();
        rewrite_agrees(&db, &rel("Infront").construct("ahead", vec![]));
        let ahead2 = rel("Infront").construct("ahead2", vec![]);
        rewrite_agrees(&db, &bound(ahead2, "front", seed));
    }

    /// The translated Horn program (tabled, which terminates on
    /// cycles) computes the same answers — the §3.4 lemma as a
    /// property.
    #[test]
    fn prolog_agrees(base in edges_strategy()) {
        let reference = engine_closure(&base, FixpointStrategy::SemiNaive);
        let mut names = dc_value::FxHashMap::default();
        names.insert("Rel".to_string(), "infront".to_string());
        names.insert("ahead".to_string(), "ahead".to_string());
        let clauses = dc_prolog::translate::translate_constructor(
            &paper::ahead(), &names, &dc_value::FxHashMap::default(),
        ).unwrap();
        let mut p = dc_prolog::Program::new();
        p.add_relation("infront", &base);
        for c in clauses {
            p.add_rule(c).unwrap();
        }
        let goal = Atom::new("ahead", vec![Term::var("X"), Term::var("Y")]);
        let t = tabled::solve(&p, &goal).unwrap();
        let engine_set: dc_value::FxHashSet<Vec<Value>> =
            reference.iter().map(|tup| tup.fields().to_vec()).collect();
        prop_assert_eq!(t.answers, engine_set);
    }

    /// §4 constraint propagation is sound: the seeded constructor
    /// equals the filtered full closure, on cyclic graphs too, for
    /// every seed — including seeds with no outgoing edge (empty
    /// answer) — and a bound tail is left to the full closure.
    #[test]
    fn pushdown_sound(base in edges_strategy()) {
        let db = ahead_db(&base, FixpointStrategy::SemiNaive);
        let ahead = || rel("Infront").construct("ahead", vec![]);
        for seed in 0u8..10 {
            rewrite_agrees(&db, &bound(ahead(), "head", seed));
            rewrite_agrees(&db, &bound(ahead(), "tail", seed));
        }
    }

    /// The closure is idempotent: closing the closure adds nothing.
    #[test]
    fn closure_idempotent(base in edges_strategy()) {
        let once = transitive_closure(&base, 0, 1).unwrap();
        let twice = transitive_closure(&once, 0, 1).unwrap();
        prop_assert_eq!(once, twice);
    }

    /// Monotonicity (the §3.3 lemma's consequence): adding a fact never
    /// removes derived tuples.
    #[test]
    fn closure_monotone(base in edges_strategy(), a in 0u8..10, b in 0u8..10) {
        let before = engine_closure(&base, FixpointStrategy::SemiNaive);
        let mut larger = base.clone();
        let _ = larger.insert(tuple![format!("n{a}"), format!("n{b}")]);
        let after = engine_closure(&larger, FixpointStrategy::SemiNaive);
        prop_assert!(dc_relation::algebra::is_subset(&before, &after));
    }

    /// Fixpoint iteration counts are bounded by the data (never exceed
    /// tuples-in-result + 2, since every productive round adds a
    /// tuple).
    #[test]
    fn iterations_bounded(base in edges_strategy()) {
        let mut db = Database::new();
        db.create_relation("Infront", base.schema().clone()).unwrap();
        for t in base.iter() {
            db.insert("Infront", t.clone()).unwrap();
        }
        db.define_constructor(paper::ahead()).unwrap();
        let (out, d) = counted(&db.metrics(), || {
            db.eval(&rel("Infront").construct("ahead", vec![])).unwrap()
        });
        prop_assert!(d.solve_rounds <= out.len() as u64 + 2,
            "{} rounds for {} tuples", d.solve_rounds, out.len());
    }

    /// The index-accelerated executor is a pure optimization: naive,
    /// semi-naive and the oracle compute the same relation, and the
    /// semi-naive solve takes one round per step of the longest
    /// shortest path it derives, plus the round that finds nothing new.
    #[test]
    fn index_acceleration_is_transparent(base in edges_strategy()) {
        let naive = engine_closure(&base, FixpointStrategy::Naive);
        let db = ahead_db(&base, FixpointStrategy::SemiNaive);
        let q = rel("Infront").construct("ahead", vec![]);
        let (semi, counts) = counted(&db.metrics(), || db.eval(&q).unwrap());
        prop_assert_eq!(&naive, &semi);
        prop_assert_eq!(&semi, &dc_bench::oracle::eval(&db, &q).unwrap());
        prop_assert_eq!(counts.solve_rounds, longest_shortest_path(&base) + 1);
    }

    /// No stale access structure is ever served: under random
    /// interleavings of inserts, deletes, and replaces (no-ops of each
    /// included) with queries over graph, scene, and staffing data, the
    /// indexed answer equals the oracle's after every write. Each write
    /// is (relation pick, op, tuple pick).
    #[test]
    fn indexed_answers_track_every_write(
        writes in prop::collection::vec((0usize..8, 0u8..3, 0usize..64), 1..10),
    ) {
        for (mut db, queries) in dc_bench::small_domains() {
            let pools = dc_bench::tuple_pools(&db);
            for &(r, op, k) in &writes {
                let (name, pool) = &pools[r % pools.len()];
                let t = &pool[k % pool.len()];
                // (The insert arm must find the relation unshared: that
                // is the in-place mutation a pointer-keyed cache misses.)
                match op {
                    0 => {
                        db.insert(name, t.clone()).unwrap();
                    }
                    1 => {
                        let mut value = db.relation_ref(name).unwrap().clone();
                        value.remove(t);
                        db.assign(name, &value).unwrap();
                    }
                    _ => {
                        let schema = db.relation_ref(name).unwrap().schema().clone();
                        let half = pool.iter().skip(k % 2).step_by(2).cloned();
                        db.assign(name, &Relation::from_tuples(schema, half).unwrap())
                            .unwrap();
                    }
                }
                for q in &queries {
                    dc_bench::oracle::assert_agrees(&db, q).unwrap();
                }
            }
        }
    }
}

/// The e3 convergence workload (chains of increasing depth): the
/// index-accelerated semi-naive engine agrees with the oracle and keeps
/// the round count of §3.2's loop, ≈ the longest path.
#[test]
fn e3_round_counts_do_not_regress() {
    for depth in [8usize, 32, 64] {
        let base = dc_bench::workload::chain(depth);
        let q = rel("Infront").construct("ahead", vec![]);
        let db = ahead_db(&base, FixpointStrategy::SemiNaive);
        let (out, counts) = counted(&db.metrics(), || db.eval(&q).unwrap());
        assert_eq!(
            out,
            dc_bench::oracle::eval(&db, &q).unwrap(),
            "depth {depth}"
        );
        // The right-linear rule closes a depth-n chain in ~n rounds.
        let rounds = counts.solve_rounds as usize;
        assert!(
            rounds >= depth && rounds <= depth + 2,
            "depth {depth}: {rounds} rounds"
        );
        // The solver's incremental indexes actually engaged.
        assert!(
            counts.warm_index_misses > 0,
            "expected index builds on the TC workload: {counts:?}"
        );
    }
}

/// The most edges a shortest path of `edges` takes, cycles back to
/// their start included: breadth-first from every node.
fn longest_shortest_path(edges: &Relation) -> u64 {
    let mut longest = 0;
    for start in edges.iter().map(|t| *t.get(0)) {
        let (mut seen, mut frontier, mut depth) = (Vec::new(), vec![start], 0);
        loop {
            frontier = edges
                .iter()
                .filter(|t| frontier.contains(t.get(0)))
                .map(|t| *t.get(1))
                .collect();
            frontier.retain(|v| !seen.contains(v));
            if frontier.is_empty() {
                break;
            }
            seen.extend(frontier.iter().copied());
            depth += 1;
        }
        longest = longest.max(depth);
    }
    longest
}
