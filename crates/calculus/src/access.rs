//! The one access cache: indexes, statistics, and decorrelated ranges
//! keyed by the **storage identity** of the relations they describe.
//!
//! §4 of the paper attaches physical access paths to the relation they
//! index. [`AccessCache`] does the same for every derived structure the
//! evaluator amortises: an entry is keyed by
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
//! # The maintained-index invariant
//!
//! A relation that *grows* (the semi-naive accumulator) keeps its
//! structures through [`AccessCache::advance`]: the entries move from
//! the old id to the grown relation's id and absorb exactly the delta —
//! every index `add`s each delta tuple and the statistics absorb the
//! same tuples, in this one place. Statistics are therefore updated iff
//! the indexes are, and a snapshot served to the planner always
//! describes the relation the probed indexes describe.
//!
//! # Sharing
//!
//! The cache is `Send + Sync`; workers of a parallel round insert
//! straight into the solve's cache. Content is a function of the key
//! (a relation's storage at one content, plus positions or range
//! syntax), so when two threads build the same entry the first insert
//! wins and every reader sees the same `Arc` from then on. Locks are
//! held for map probes and inserts only, never across a build, and
//! every acquisition tolerates poisoning: a panicking evaluation (fault
//! injection is part of the test battery) must not wedge its siblings.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dc_governor::fail::{self, InjectedFault, Site};
use dc_index::{HashIndex, RelationStats, StatsBuilder};
use dc_relation::Relation;
use dc_trace::metrics::{Counter, MetricsRegistry};
use dc_value::FxHashMap;

use crate::ast::RangeExpr;
use crate::eval::DecorrEntry;

/// A cached decorrelation decision for one correlated quantified
/// range. Both outcomes are kept, so a refused rewrite is not
/// re-analysed per evaluator any more than a built one is
/// re-materialised.
#[derive(Clone)]
pub enum DecorrCached {
    /// The range decorrelated; the entry holds the materialised join
    /// bucketed on the joint key.
    Built(Arc<DecorrEntry>),
    /// Decorrelation was refused (unsupported shape, unsplittable
    /// predicate, profitability gate, build error) — the evaluator
    /// falls back to the reference scan without re-running the
    /// analysis.
    Refused,
}

/// Everything cached about one relation storage.
#[derive(Clone, Default)]
struct Slot {
    /// One index per distinct position list (a handful at most, so a
    /// scan beats hashing the positions).
    indexes: Vec<Arc<HashIndex>>,
    stats: Option<Arc<RelationStats>>,
    /// The incrementally maintained form behind `stats`, present once
    /// the relation has grown under [`AccessCache::advance`].
    builder: Option<StatsBuilder>,
}

impl Slot {
    fn index(&self, positions: &[usize]) -> Option<Arc<HashIndex>> {
        self.indexes
            .iter()
            .find(|i| i.positions() == positions)
            .cloned()
    }
}

#[derive(Clone, Default)]
struct Entries {
    slots: FxHashMap<u64, Slot>,
    /// Per range syntax: the decision under each list of storage ids
    /// the range's reads resolved to when it was made.
    decorr: FxHashMap<RangeExpr, Vec<(Vec<u64>, DecorrCached)>>,
}

impl Entries {
    fn retain_decorr(&mut self, keep: impl Fn(&[u64]) -> bool) {
        self.decorr.retain(|_, decisions| {
            decisions.retain(|(ids, _)| keep(ids));
            !decisions.is_empty()
        });
    }
}

/// Get-or-build cache of access structures keyed by storage identity —
/// see the [module docs](self).
pub struct AccessCache {
    entries: RwLock<Entries>,
    /// Where hits and misses are counted (the owner's registry).
    metrics: Option<Arc<MetricsRegistry>>,
}

impl AccessCache {
    /// An empty cache counting its traffic into `metrics`, if given.
    pub fn new(metrics: Option<Arc<MetricsRegistry>>) -> AccessCache {
        AccessCache {
            entries: RwLock::default(),
            metrics,
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Entries> {
        self.entries.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Entries> {
        self.entries.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count one lookup of a kind: a hit, or the miss that precedes
    /// the build.
    fn count<T>(&self, hit: Option<T>, hits: Counter, misses: Counter) -> Option<T> {
        if let Some(m) = &self.metrics {
            m.inc(if hit.is_some() { hits } else { misses });
        }
        hit
    }

    /// The hash index over `rel` on `positions`, built on first
    /// request. Fallible only through the `index_build` failpoint,
    /// which fires at the build.
    pub fn index(
        &self,
        rel: &Relation,
        positions: &[usize],
    ) -> Result<Arc<HashIndex>, InjectedFault> {
        let id = rel.storage_id();
        let hit = self.read().slots.get(&id).and_then(|s| s.index(positions));
        if let Some(idx) = self.count(hit, Counter::WarmIndexHits, Counter::WarmIndexMisses) {
            return Ok(idx);
        }
        fail::check(Site::IndexBuild)?;
        let built = Arc::new(HashIndex::build(rel, positions.to_vec()));
        let mut entries = self.write();
        let slot = entries.slots.entry(id).or_default();
        Ok(slot.index(positions).unwrap_or_else(|| {
            slot.indexes.push(built.clone());
            built
        }))
    }

    /// Statistics of `rel`, collected on first request.
    pub fn stats(&self, rel: &Relation) -> Arc<RelationStats> {
        let id = rel.storage_id();
        let hit = self.read().slots.get(&id).and_then(|s| s.stats.clone());
        if let Some(s) = self.count(hit, Counter::WarmStatsHits, Counter::WarmStatsMisses) {
            return s;
        }
        let collected = Arc::new(RelationStats::collect(rel));
        let mut entries = self.write();
        let slot = entries.slots.entry(id).or_default();
        slot.stats.get_or_insert(collected).clone()
    }

    /// The decorrelation decision cached for `range` over relations
    /// with exactly the storage ids `reads`.
    pub fn decorr(&self, range: &RangeExpr, reads: &[u64]) -> Option<DecorrCached> {
        let hit = self.read().decorr.get(range).and_then(|decisions| {
            let (_, hit) = decisions.iter().find(|(ids, _)| ids == reads)?;
            Some(hit.clone())
        });
        self.count(hit, Counter::WarmDecorrHits, Counter::WarmDecorrMisses)
    }

    /// Keep a decorrelation decision (the earlier one stays if another
    /// thread got there first — they are equal).
    pub fn put_decorr(&self, range: &RangeExpr, reads: Vec<u64>, decision: DecorrCached) {
        let mut entries = self.write();
        let decisions = entries.decorr.entry(range.clone()).or_default();
        if !decisions.iter().any(|(ids, _)| *ids == reads) {
            decisions.push((reads, decision));
        }
    }

    /// `grown` is the relation that had id `old`, plus exactly the
    /// tuples of `delta` (none of which it held before): move the
    /// entries cached under `old` to `grown`'s id and absorb the delta.
    /// Decorrelation decisions that read `old` cannot absorb a delta
    /// and are dropped.
    pub fn advance(&self, old: u64, grown: &Relation, delta: &Relation) {
        let new = grown.storage_id();
        if new == old {
            return;
        }
        let mut entries = self.write();
        entries.retain_decorr(|ids| !ids.contains(&old));
        let Some(mut slot) = entries.slots.remove(&old) else {
            return;
        };
        for idx in &mut slot.indexes {
            // Evaluators hold these `Arc`s only while a plan runs, so
            // `make_mut` almost never copies.
            let idx = Arc::make_mut(idx);
            for t in delta.iter() {
                idx.add(t.clone());
            }
        }
        if slot.stats.is_some() {
            match &mut slot.builder {
                Some(b) => delta.iter().for_each(|t| b.add(t)),
                none => *none = Some(StatsBuilder::from_relation(grown)),
            }
            slot.stats = slot.builder.as_ref().map(|b| Arc::new(b.snapshot()));
        }
        entries.slots.insert(new, slot);
    }

    /// Drop everything cached about the storage `id` — the owner's
    /// call when the relation that had this id changed or went away.
    pub fn forget(&self, id: u64) {
        let mut entries = self.write();
        entries.slots.remove(&id);
        entries.retain_decorr(|ids| !ids.contains(&id));
    }

    /// Drop everything *except* what is cached about the storages
    /// `keep` — how a converged solve hands on the structures over its
    /// equation values and nothing else.
    pub fn retain(&self, keep: &[u64]) {
        let mut entries = self.write();
        entries.slots.retain(|id, _| keep.contains(id));
        entries.retain_decorr(|ids| ids.iter().all(|id| keep.contains(id)));
    }

    /// Number of hash indexes currently cached.
    pub fn index_count(&self) -> usize {
        self.read().slots.values().map(|s| s.indexes.len()).sum()
    }
}

/// A copy holding the same entries (the structures themselves are
/// `Arc`-shared) and counting into the same registry: how a successor
/// snapshot or a warm re-entry starts from its predecessor's cache.
impl Clone for AccessCache {
    fn clone(&self) -> AccessCache {
        AccessCache {
            entries: RwLock::new(self.read().clone()),
            metrics: self.metrics.clone(),
        }
    }
}

// The cache crosses thread boundaries by design (round workers, reader
// sessions); assert the contract at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AccessCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::rel;
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
            &cache.stats(&r),
            &cache.stats(&r.snapshot_handle())
        ));
        assert_eq!(cache.index_count(), 1);
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
        assert_eq!(cache.stats(&grown).cardinality, 3);
        // Equal content in separate storage is a separate entry.
        let twin = pairs(&[(1, 2), (1, 3), (1, 4)]);
        assert!(!Arc::ptr_eq(&idx2, &cache.index(&twin, &[0]).unwrap()));
    }

    #[test]
    fn advance_is_the_maintained_index_invariant() {
        let cache = AccessCache::new(None);
        let mut value = pairs(&[(1, 2), (2, 3)]);
        let idx = cache.index(&value, &[0]).unwrap();
        let stats = cache.stats(&value);
        assert_eq!(stats.distinct, vec![2, 2]);
        drop(idx);
        for round in 0..3i64 {
            let delta = pairs(&[(round + 3, round + 4), (1, round + 10)]);
            let old = value.storage_id();
            dc_relation::algebra::union_into(&mut value, &delta).unwrap();
            cache.advance(old, &value, &delta);
            // Served without a rebuild, and exactly what a rebuild
            // would produce.
            assert_eq!(cache.index_count(), 1, "moved, not duplicated");
            let served = cache.index(&value, &[0]).unwrap();
            let fresh = HashIndex::build(&value, vec![0]);
            assert_eq!(served.len(), fresh.len());
            for t in value.iter() {
                let key = [t.fields()[0].clone()];
                assert_eq!(
                    served.probe_slice(&key).len(),
                    fresh.probe_slice(&key).len()
                );
            }
            assert_eq!(*cache.stats(&value), RelationStats::collect(&value));
        }
        // Nothing is left under any earlier id.
        cache.retain(&[value.storage_id()]);
        assert_eq!(cache.index_count(), 1);
    }

    #[test]
    fn forget_and_retain_drop_decorr_entries_that_read_the_id() {
        let cache = AccessCache::new(None);
        let (a, b) = (pairs(&[(1, 1)]), pairs(&[(2, 2)]));
        let (ia, ib) = (a.storage_id(), b.storage_id());
        let range = rel("V");
        cache.put_decorr(&range, vec![ia], DecorrCached::Refused);
        cache.put_decorr(&range, vec![ia, ib], DecorrCached::Refused);
        cache.index(&a, &[0]).unwrap();
        cache.index(&b, &[0]).unwrap();
        // Keys are exact: a subset of the ids is a different entry.
        assert!(cache.decorr(&range, &[ib]).is_none());
        assert!(cache.decorr(&range, &[ia, ib]).is_some());
        cache.forget(ib);
        assert!(cache.decorr(&range, &[ia, ib]).is_none());
        assert!(cache.decorr(&range, &[ia]).is_some());
        assert_eq!(cache.index_count(), 1);
        cache.retain(&[]);
        assert!(cache.decorr(&range, &[ia]).is_none());
        assert_eq!(cache.index_count(), 0);
    }

    #[test]
    fn traffic_is_counted_once_per_lookup_into_the_owners_registry() {
        let metrics = Arc::new(MetricsRegistry::new());
        let cache = AccessCache::new(Some(metrics.clone()));
        let r = pairs(&[(1, 2)]);
        cache.index(&r, &[0]).unwrap();
        cache.index(&r, &[0]).unwrap();
        cache.stats(&r);
        cache.stats(&r);
        cache.stats(&r);
        assert!(cache.decorr(&rel("V"), &[]).is_none());
        // A copy counts into the same registry.
        cache.clone().index(&r, &[0]).unwrap();
        let m = metrics.snapshot();
        assert_eq!((m.warm_index_misses, m.warm_index_hits), (1, 2));
        assert_eq!((m.warm_stats_misses, m.warm_stats_hits), (1, 2));
        assert_eq!((m.warm_decorr_misses, m.warm_decorr_hits), (1, 0));
    }
}
