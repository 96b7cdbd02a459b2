//! Warm deletions: delete-and-rederive (DRed) against a from-scratch
//! oracle.
//!
//! A standing `ahead` closure over `dc_bench::many_chains` plus edges
//! that close cycles is driven by insert/delete/replace commit streams —
//! hand-written ones for the cases DRed exists for, generated ones for
//! everything else. At every epoch:
//!
//! * the folded subscription result has the digest of an independent
//!   replay server's from-scratch solve, and the update is exactly the
//!   two-way difference between the oracle's results (so `removed` is
//!   non-empty exactly when a tuple lost its last derivation);
//! * `added ∩ removed = ∅`;
//! * every commit, deletions included, refreshed warm
//!   (`Counter::RefreshWarm`).
//!
//! Under CI's `DC_FAILPOINTS=view_refresh=panic` leg every warm attempt
//! panics: each test re-arms exactly the environment's spec and then
//! expects every refresh cold, with the same per-epoch exactness.

use dc_bench::workload::rng::SplitMix64;
use dc_core::{Database, Strategy};
use dc_governor::FailpointsGuard;
use dc_relation::{algebra, Relation};
use dc_server::{Server, Subscription, WriteBatch};
use dc_trace::metrics::Counter;
use dc_value::{tuple, Tuple};

/// Three chains of six edges; chain 0 closed into a cycle, chain 1's
/// tail looping back to its middle, and chain 2 feeding chain 1.
fn cyclic_db() -> Database {
    let mut db = dc_bench::ahead_db(&dc_bench::many_chains(3, 6), Strategy::SemiNaive);
    for (a, b) in [("c0_6", "c0_0"), ("c1_6", "c1_2"), ("c2_3", "c1_0")] {
        db.insert("Infront", tuple![a, b]).unwrap();
    }
    db
}

/// Arm exactly what the environment arms (nothing, outside the
/// failpoint leg), holding the suite's failpoint lock; returns the
/// guard and whether refreshes can go warm.
fn env_failpoints() -> (FailpointsGuard, bool) {
    let spec = std::env::var("DC_FAILPOINTS").unwrap_or_default();
    let warm = !spec.contains("view_refresh");
    (FailpointsGuard::arm(&spec), warm)
}

/// A subscribed server beside an independent replay server, and the
/// subscriber's folded result.
struct Replay {
    server: Server,
    oracle: Server,
    sub: Subscription,
    folded: Relation,
    /// Whether refreshes are expected warm.
    warm: bool,
}

impl Replay {
    fn new(db: impl Fn() -> Database, warm: bool) -> Replay {
        let server = Server::new(db());
        let oracle = Server::new(db());
        let prepared = server
            .prepare_solve("Infront", "ahead", &[], vec![])
            .unwrap();
        let sub = server.subscribe(&prepared).unwrap();
        let folded = sub.recv().expect("alive").expect("initial").added;
        let replay = Replay {
            server,
            oracle,
            sub,
            folded,
            warm,
        };
        assert_eq!(replay.folded.digest(), replay.solve().digest());
        replay
    }

    /// From-scratch closure at the oracle's current epoch.
    fn solve(&self) -> Relation {
        self.oracle
            .begin()
            .solve("Infront", "ahead", &[], vec![])
            .unwrap()
    }

    /// The current base edges.
    fn edges(&self) -> Vec<Tuple> {
        self.oracle.begin().read("Infront").unwrap().sorted_tuples()
    }

    /// Commit `batch` to both servers and check the update; returns
    /// (added, removed) sizes.
    fn commit(&mut self, batch: &WriteBatch) -> (usize, usize) {
        let before = self.solve();
        let warm_before = self.server.metrics().get(Counter::RefreshWarm);
        let epoch = self.server.commit(batch).unwrap();
        assert_eq!(self.oracle.commit(batch).unwrap(), epoch);
        let up = self.sub.recv().expect("alive").expect("refresh");
        assert_eq!(up.epoch, epoch);
        assert_eq!(up.warm, self.warm, "epoch {epoch}: maintenance path");
        let warm_refreshes = self.server.metrics().get(Counter::RefreshWarm) - warm_before;
        assert_eq!(warm_refreshes, u64::from(self.warm), "epoch {epoch}");
        assert!(
            up.added.iter().all(|t| !up.removed.contains(t)),
            "epoch {epoch}: added ∩ removed must be empty"
        );
        let after = self.solve();
        let (added, removed) = algebra::delta(&after, &before).unwrap();
        assert_eq!(
            up.added.sorted_tuples(),
            added.sorted_tuples(),
            "epoch {epoch}"
        );
        assert_eq!(
            up.removed.sorted_tuples(),
            removed.sorted_tuples(),
            "epoch {epoch}"
        );
        self.folded = algebra::difference(
            &algebra::union(&self.folded, &up.added).unwrap(),
            &up.removed,
        )
        .unwrap();
        assert_eq!(
            self.folded.digest(),
            after.digest(),
            "epoch {epoch}: the folded deltas diverge from the replay"
        );
        (up.added.len(), up.removed.len())
    }
}

#[test]
fn cutting_a_cycle_retracts_exactly_what_it_supported() {
    let (_guard, warm) = env_failpoints();
    let mut r = Replay::new(cyclic_db, warm);
    // Every pair on the 7-cycle of chain 0 is derived, each through the
    // cycle itself — the support counting-based maintenance cannot see
    // through. Cutting it leaves a 7-node chain: 21 of 49 pairs stay.
    let (added, removed) = r.commit(&WriteBatch::new().delete("Infront", tuple!["c0_6", "c0_0"]));
    assert_eq!((added, removed), (0, 49 - 21));
    // Chain 1's loop c1_2 → … → c1_6 → c1_2, cut in the middle; chain 2
    // feeds it, so the retraction reaches chain 2's pairs too.
    let (_, removed) = r.commit(&WriteBatch::new().delete("Infront", tuple!["c1_4", "c1_5"]));
    assert!(removed > 0);
    // Close the cycle again and cut it elsewhere in one commit.
    r.commit(
        &WriteBatch::new()
            .insert("Infront", tuple!["c0_6", "c0_0"])
            .delete("Infront", tuple!["c0_3", "c0_4"]),
    );
}

#[test]
fn a_tuple_with_a_second_derivation_is_rederived_not_retracted() {
    let (_guard, warm) = env_failpoints();
    let mut r = Replay::new(cyclic_db, warm);
    // A shortcut c2_0 → c2_2 beside the chain path c2_0 → c2_1 → c2_2:
    // the pair it adds is already derived, so the insert adds nothing…
    assert_eq!(
        r.commit(&WriteBatch::new().insert("Infront", tuple!["c2_0", "c2_2"])),
        (0, 0)
    );
    // …and deleting it removes nothing: every pair it supported is
    // re-derived through the chain.
    assert_eq!(
        r.commit(&WriteBatch::new().delete("Infront", tuple!["c2_0", "c2_2"])),
        (0, 0)
    );
    // With the shortcut back, cutting the chain under it retracts only
    // the pairs that start at c2_1 and cross the cut; (c2_0, c2_2) and
    // everything after it survive through the shortcut.
    r.commit(&WriteBatch::new().insert("Infront", tuple!["c2_0", "c2_2"]));
    let before = r.solve();
    let (_, removed) = r.commit(&WriteBatch::new().delete("Infront", tuple!["c2_1", "c2_2"]));
    assert!(removed > 0);
    let after = r.solve();
    assert!(after.contains(&tuple!["c2_0", "c2_2"]));
    assert!(before.contains(&tuple!["c2_1", "c2_2"]) && !after.contains(&tuple!["c2_1", "c2_2"]));
}

#[test]
fn a_replace_is_its_net_delete_plus_insert() {
    let (_guard, warm) = env_failpoints();
    let mut r = Replay::new(cyclic_db, warm);
    // Replace the base by itself minus the cycle-closing edges plus one
    // new edge, then restore it.
    let original = r.edges();
    let cut: Vec<Tuple> = original
        .iter()
        .filter(|t| t != &&tuple!["c0_6", "c0_0"] && t != &&tuple!["c1_6", "c1_2"])
        .cloned()
        .chain([tuple!["c0_6", "c2_0"]])
        .collect();
    let (added, removed) = r.commit(&WriteBatch::new().replace("Infront", cut));
    assert!(added > 0 && removed > 0);
    r.commit(&WriteBatch::new().replace("Infront", original));
    // An insert undone in the same batch is no change at all.
    assert_eq!(
        r.commit(
            &WriteBatch::new()
                .insert("Infront", tuple!["x", "y"])
                .delete("Infront", tuple!["x", "y"])
        ),
        (0, 0)
    );
}

/// One generated commit: one to three ops over the current edges and
/// the chains' node pool, now and then a whole-relation replace.
fn generated_batch(rng: &mut SplitMix64, edges: &[Tuple]) -> WriteBatch {
    let node = |rng: &mut SplitMix64| format!("c{}_{}", rng.below(3), rng.below(7));
    let pick = |rng: &mut SplitMix64| edges[rng.below(edges.len() as u64) as usize].clone();
    let mut batch = WriteBatch::new();
    for _ in 0..=rng.below(3) {
        match rng.below(10) {
            0..=3 => batch.push_insert("Infront", tuple![node(rng), node(rng)]),
            4..=7 if !edges.is_empty() => batch.push_delete("Infront", pick(rng)),
            8 if !edges.is_empty() => {
                // Delete and re-insert: no net change to that edge.
                let e = pick(rng);
                batch.push_delete("Infront", e.clone());
                batch.push_insert("Infront", e);
            }
            _ => {
                let mut kept: Vec<Tuple> = edges
                    .iter()
                    .filter(|_| rng.below(8) != 0)
                    .cloned()
                    .collect();
                kept.push(tuple![node(rng), node(rng)]);
                kept.sort();
                kept.dedup();
                batch.push_replace("Infront", kept);
            }
        }
    }
    batch
}

#[test]
fn generated_streams_replay_to_the_oracle_at_every_epoch() {
    let (_guard, warm) = env_failpoints();
    for seed in 1..=4u64 {
        let mut r = Replay::new(cyclic_db, warm);
        let mut rng = SplitMix64::new(seed);
        let mut retracted = 0;
        for _ in 0..40 {
            let batch = generated_batch(&mut rng, &r.edges());
            if r.commit(&batch).1 > 0 {
                retracted += 1;
            }
        }
        assert!(retracted > 0, "seed {seed}: the stream never retracted");
    }
}
