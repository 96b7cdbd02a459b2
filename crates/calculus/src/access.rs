//! The one access cache: hash indexes keyed by the **storage identity**
//! of the relations they index.
//!
//! §4 of the paper attaches physical access paths to the relation they
//! index. [`AccessCache`] does the same for every index the evaluator
//! amortises: an entry is keyed by
//! [`Relation::storage_id`], which names one tuple storage *at one
//! content*, so
//!
//! > an entry is valid iff the id it was built from is the id being
//! > read.
//!
//! There is no version, epoch, or invalidation protocol — a mutated
//! relation has a new id and simply misses. What remains for an owner
//! is garbage collection: [`AccessCache::forget`] the id a relation had
//! before it changed, at the site where it changed. The owners are the
//! things that own relation handles for longer than one evaluation —
//! `dc-core`'s `Database` and fixpoint solve, `dc-server`'s snapshots —
//! and they hand the cache to evaluators through
//! [`Catalog::access`](crate::Catalog::access). An evaluator over a
//! catalog that offers none uses a private cache of this same type.
//!
//! The cache holds no statistics. The planner's distinct counts are
//! bucket counts: a column's count is
//! [`HashIndex::distinct_keys`] of its single-column index, obtained
//! through [`AccessCache::index`] like any probe's index — so counting
//! a column the plan then probes builds the index once, for both.
//!
//! # The maintained-index invariant
//!
//! A relation that *changes by a known delta* — the semi-naive
//! accumulator growing by a round's new tuples, or shrinking by the
//! tuples a warm deletion removes — keeps its indexes through
//! [`AccessCache::advance`]: the entries move from the old id to the
//! changed relation's id and absorb exactly the delta — every index
//! `remove`s each removed tuple and `add`s each added one. A bucket a
//! removal empties is dropped, so the counts the planner reads stay
//! exact in both directions.
//!
//! # Sharing
//!
//! The cache is `Send + Sync`: the reader sessions of a server snapshot
//! share one. Content is a function of the key (a relation's storage at
//! one content, plus positions), so when two threads build the same
//! entry the first insert wins and every reader sees the same `Arc`
//! from then on. Locks are
//! held for map probes and inserts only, never across a build, and
//! every acquisition tolerates poisoning: a panicking evaluation (fault
//! injection is part of the test battery) must not wedge its siblings.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dc_governor::fail::{self, InjectedFault, Site};
use dc_index::HashIndex;
use dc_relation::Relation;
use dc_trace::metrics::{Counter, MetricsRegistry};
use dc_value::FxHashMap;

/// Everything cached about one relation storage.
#[derive(Clone, Default)]
struct Slot {
    /// One index per distinct position list (a handful at most, so a
    /// scan beats hashing the positions).
    indexes: Vec<Arc<HashIndex>>,
}

impl Slot {
    fn index(&self, positions: &[usize]) -> Option<Arc<HashIndex>> {
        self.indexes
            .iter()
            .find(|i| i.positions() == positions)
            .cloned()
    }
}

type Slots = FxHashMap<u64, Slot>;

/// Get-or-build cache of access structures keyed by storage identity —
/// see the [module docs](self).
pub struct AccessCache {
    slots: RwLock<Slots>,
    /// Where hits and misses are counted (the owner's registry).
    metrics: Option<Arc<MetricsRegistry>>,
}

impl AccessCache {
    /// An empty cache counting its traffic into `metrics`, if given.
    pub fn new(metrics: Option<Arc<MetricsRegistry>>) -> AccessCache {
        AccessCache {
            slots: RwLock::default(),
            metrics,
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Slots> {
        self.slots.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Slots> {
        self.slots.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The hash index over `rel` on `positions` if one is cached —
    /// never a build, and not counted as a lookup: how a plan preview
    /// reads the counts indexes already hold.
    pub fn cached(&self, rel: &Relation, positions: &[usize]) -> Option<Arc<HashIndex>> {
        self.read()
            .get(&rel.storage_id())
            .and_then(|s| s.index(positions))
    }

    /// The hash index over `rel` on `positions`, built on first
    /// request. Fallible only through the `index_build` failpoint,
    /// which fires at the build.
    pub fn index(
        &self,
        rel: &Relation,
        positions: &[usize],
    ) -> Result<Arc<HashIndex>, InjectedFault> {
        let hit = self.cached(rel, positions);
        if let Some(m) = &self.metrics {
            m.inc(if hit.is_some() {
                Counter::WarmIndexHits
            } else {
                Counter::WarmIndexMisses
            });
        }
        if let Some(idx) = hit {
            return Ok(idx);
        }
        fail::check(Site::IndexBuild)?;
        let built = Arc::new(HashIndex::build(rel, positions.to_vec()));
        let mut slots = self.write();
        let slot = slots.entry(rel.storage_id()).or_default();
        Ok(slot.index(positions).unwrap_or_else(|| {
            slot.indexes.push(built.clone());
            built
        }))
    }

    /// `new` is the relation that had id `old`, minus exactly the
    /// tuples of `removed` (all of which it held) plus exactly those of
    /// `added` (none of which it held): move the indexes cached under
    /// `old` to `new`'s id and absorb both sides. Work is proportional
    /// to the two deltas; an empty side costs nothing per tuple.
    pub fn advance(&self, old: u64, new: &Relation, added: &Relation, removed: &Relation) {
        let id = new.storage_id();
        if id == old {
            return;
        }
        let mut slots = self.write();
        let Some(mut slot) = slots.remove(&old) else {
            return;
        };
        for idx in &mut slot.indexes {
            // Evaluators hold these `Arc`s only while a plan runs, so
            // `make_mut` almost never copies.
            let idx = Arc::make_mut(idx);
            for t in removed.iter() {
                idx.remove(t);
            }
            for t in added.iter() {
                idx.add(t.clone());
            }
        }
        slots.insert(id, slot);
    }

    /// Drop everything cached about the storage `id` — the owner's
    /// call when the relation that had this id changed or went away.
    pub fn forget(&self, id: u64) {
        self.write().remove(&id);
    }

    /// Drop everything *except* what is cached about the storages
    /// `keep` — how a converged solve hands on the indexes over its
    /// equation values and nothing else.
    pub fn retain(&self, keep: &[u64]) {
        self.write().retain(|id, _| keep.contains(id));
    }

    /// Number of hash indexes currently cached.
    pub fn index_count(&self) -> usize {
        self.read().values().map(|s| s.indexes.len()).sum()
    }
}

/// A copy holding the same entries (the indexes themselves are
/// `Arc`-shared) and counting into the same registry: how a successor
/// snapshot or a warm re-entry starts from its predecessor's cache.
impl Clone for AccessCache {
    fn clone(&self) -> AccessCache {
        AccessCache {
            slots: RwLock::new(self.read().clone()),
            metrics: self.metrics.clone(),
        }
    }
}

// The cache crosses thread boundaries by design (reader sessions);
// assert the contract at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AccessCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dc_value::{tuple, Domain, Schema};

    fn pairs(ts: &[(i64, i64)]) -> Relation {
        Relation::from_tuples(
            Schema::of(&[("a", Domain::Int), ("b", Domain::Int)]),
            ts.iter().map(|&(a, b)| tuple![a, b]),
        )
        .unwrap()
    }

    #[test]
    fn entries_follow_the_storage_not_the_name() {
        let cache = AccessCache::new(None);
        let r = pairs(&[(1, 2), (1, 3)]);
        let idx = cache.index(&r, &[0]).unwrap();
        assert_eq!(idx.probe_slice(&[1i64.into()]).len(), 2);
        // Any handle on the same storage hits the same entry.
        assert!(Arc::ptr_eq(&idx, &cache.index(&r.clone(), &[0]).unwrap()));
        assert!(Arc::ptr_eq(
            &idx,
            &cache.index(&r.snapshot_handle(), &[0]).unwrap()
        ));
        assert_eq!(cache.index_count(), 1);
        assert_eq!(idx.distinct_keys(), 1);
        // A different position list is a different index.
        cache.index(&r, &[1]).unwrap();
        assert_eq!(cache.index_count(), 2);
        // The relation changes — in place, it is unshared here — and
        // with it the id: the new value gets its own, correct entries.
        let mut grown = r;
        grown.insert(tuple![1i64, 4i64]).unwrap();
        let idx2 = cache.index(&grown, &[0]).unwrap();
        assert!(!Arc::ptr_eq(&idx, &idx2));
        assert_eq!(idx2.probe_slice(&[1i64.into()]).len(), 3);
        assert_eq!(cache.index(&grown, &[1]).unwrap().distinct_keys(), 3);
        // Equal content in separate storage is a separate entry.
        let twin = pairs(&[(1, 2), (1, 3), (1, 4)]);
        assert!(!Arc::ptr_eq(&idx2, &cache.index(&twin, &[0]).unwrap()));
    }

    #[test]
    fn advance_is_the_maintained_index_invariant() {
        let cache = AccessCache::new(None);
        let mut value = pairs(&[(1, 2), (2, 3)]);
        let idx = cache.index(&value, &[0]).unwrap();
        assert_eq!(idx.distinct_keys(), 2);
        drop(idx);
        for round in 0..3i64 {
            let delta = pairs(&[(round + 3, round + 4), (1, round + 10)]);
            let old = value.storage_id();
            dc_relation::algebra::union_into(&mut value, &delta).unwrap();
            cache.advance(old, &value, &delta, &pairs(&[]));
            // Served without a rebuild, and exactly what a rebuild
            // would produce — bucket count included.
            assert_eq!(cache.index_count(), 1, "moved, not duplicated");
            let served = cache.index(&value, &[0]).unwrap();
            let fresh = HashIndex::build(&value, vec![0]);
            assert_eq!(served.len(), fresh.len());
            assert_eq!(served.distinct_keys(), fresh.distinct_keys());
            for t in value.iter() {
                let key = [t.fields()[0]];
                assert_eq!(
                    served.probe_slice(&key).len(),
                    fresh.probe_slice(&key).len()
                );
            }
        }
        // Nothing is left under any earlier id.
        cache.retain(&[value.storage_id()]);
        assert_eq!(cache.index_count(), 1);
    }

    #[test]
    fn advance_with_removals_matches_a_rebuild() {
        let cache = AccessCache::new(None);
        let mut value = pairs(&[(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6)]);
        cache.index(&value, &[0]).unwrap();
        cache.index(&value, &[1]).unwrap();
        // Shrink (emptying the bucket of key 3 on [0]), then shrink and
        // grow in one step.
        for (added, removed) in [
            (pairs(&[]), pairs(&[(1, 3), (3, 4)])),
            (pairs(&[(5, 6), (1, 9)]), pairs(&[(4, 5), (1, 2)])),
        ] {
            let old = value.storage_id();
            for t in removed.iter() {
                value.remove(t);
            }
            dc_relation::algebra::union_into(&mut value, &added).unwrap();
            cache.advance(old, &value, &added, &removed);
            assert_eq!(cache.index_count(), 2, "moved, not duplicated");
            for positions in [[0], [1]] {
                let served = cache.index(&value, &positions).unwrap();
                let fresh = HashIndex::build(&value, positions.to_vec());
                assert_eq!(served.len(), fresh.len());
                // Exact, not an upper bound: emptied buckets are gone.
                assert_eq!(served.distinct_keys(), fresh.distinct_keys());
                for k in 0..10i64 {
                    let mut got = served.probe_slice(&[k.into()]).to_vec();
                    let mut want = fresh.probe_slice(&[k.into()]).to_vec();
                    got.sort();
                    want.sort();
                    assert_eq!(got, want, "positions {positions:?}, key {k}");
                }
            }
        }
    }

    #[test]
    fn forget_and_retain_drop_the_entries_of_an_id() {
        let cache = AccessCache::new(None);
        let (a, b) = (pairs(&[(1, 1)]), pairs(&[(2, 2)]));
        cache.index(&a, &[0]).unwrap();
        cache.index(&b, &[0]).unwrap();
        cache.index(&b, &[1]).unwrap();
        cache.forget(b.storage_id());
        assert_eq!(cache.index_count(), 1);
        cache.retain(&[a.storage_id()]);
        assert_eq!(cache.index_count(), 1);
        cache.retain(&[]);
        assert_eq!(cache.index_count(), 0);
    }

    #[test]
    fn traffic_is_counted_once_per_lookup_into_the_owners_registry() {
        let metrics = Arc::new(MetricsRegistry::new());
        let cache = AccessCache::new(Some(metrics.clone()));
        let r = pairs(&[(1, 2)]);
        assert!(cache.cached(&r, &[0]).is_none());
        cache.index(&r, &[0]).unwrap();
        cache.index(&r, &[0]).unwrap();
        // A peek is not a lookup: it neither builds nor counts.
        assert_eq!(cache.cached(&r, &[0]).unwrap().distinct_keys(), 1);
        assert!(cache.cached(&r, &[1]).is_none());
        // A copy counts into the same registry.
        cache.clone().index(&r, &[0]).unwrap();
        let m = metrics.snapshot();
        assert_eq!((m.warm_index_misses, m.warm_index_hits), (1, 2));
        assert_eq!(cache.index_count(), 1);
    }
}
