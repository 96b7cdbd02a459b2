//! The [`Relation`] type: a keyed set of tuples.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use dc_value::{FxHashMap, FxHashSet, FxHasher, Schema, Tuple};

use crate::error::RelationError;

/// Source of [`Relation::storage_id`] values; `0` is never handed out.
static NEXT_STORAGE_ID: AtomicU64 = AtomicU64::new(1);

/// The shared tuple storage behind a [`Relation`]: the set itself plus
/// two lazily filled cells that ride with the storage — the content
/// digest and the storage id. Both are invalidated wherever the set is
/// mutated — on a COW detach the clone starts with empty cells, and
/// in-place mutation (unique storage) clears them explicitly
/// ([`TupleStore::set_mut`]) — so a populated cell always describes the
/// current set.
#[derive(Debug)]
struct TupleStore {
    set: FxHashSet<Tuple>,
    digest: OnceLock<u128>,
    id: OnceLock<u64>,
}

impl TupleStore {
    fn new(set: FxHashSet<Tuple>) -> TupleStore {
        TupleStore {
            set,
            digest: OnceLock::new(),
            id: OnceLock::new(),
        }
    }

    /// The set, for mutation: clears the digest and the storage id.
    fn set_mut(&mut self) -> &mut FxHashSet<Tuple> {
        self.forget();
        &mut self.set
    }

    /// Clear the digest and the storage id after the set changed.
    fn forget(&mut self) {
        self.digest.take();
        self.id.take();
    }
}

impl Clone for TupleStore {
    fn clone(&self) -> TupleStore {
        // A clone happens exactly when a shared storage is about to be
        // mutated (`Arc::make_mut`): start with empty memo cells.
        TupleStore::new(self.set.clone())
    }
}

/// A relation value: a set of tuples over a schema, with key uniqueness
/// maintained as an invariant (§2.2 of the paper).
///
/// # Semantics
///
/// * Pure set semantics: inserting a duplicate tuple is a no-op.
/// * If the schema designates a proper key, two *distinct* tuples with
///   equal key projections cannot coexist; [`Relation::insert`] reports
///   a [`RelationError::KeyViolation`], which is the engine-level
///   equivalent of the paper's `<exception>` branch.
/// * Iteration order of [`Relation::iter`] is unspecified;
///   [`Relation::sorted_tuples`] gives a deterministic order for display
///   and test assertions.
///
/// # Copy-on-write storage
///
/// The tuple set (and the key map, when present) lives behind an
/// [`Arc`], so `Relation::clone` is a pointer bump: catalog resolution,
/// fixpoint peer binding, memo hits, and oscillation snapshots all
/// share one storage. Mutation goes through [`Arc::make_mut`], which
/// copies the set only when it is actually shared — and every mutator
/// checks for no-ops (duplicate insert, absent remove) *before*
/// touching the `Arc`, so a no-op on a shared relation never copies.
/// Value semantics are unchanged: a mutation through one handle is
/// never observable through another.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    tuples: Arc<TupleStore>,
    /// Key projection → tuple, maintained only for schemas with a proper
    /// key. `None` ⇔ whole tuple is the key, so `tuples` suffices.
    key_map: Option<Arc<FxHashMap<Tuple, Tuple>>>,
}

impl Relation {
    /// The empty relation over `schema`.
    pub fn new(schema: Schema) -> Relation {
        let key_map = schema
            .has_proper_key()
            .then(|| Arc::new(FxHashMap::default()));
        Relation {
            schema,
            tuples: Arc::new(TupleStore::new(FxHashSet::default())),
            key_map,
        }
    }

    /// Build a relation from tuples, checking each against the schema
    /// and the key constraint.
    pub fn from_tuples<I>(schema: Schema, tuples: I) -> Result<Relation, RelationError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut rel = Relation::new(schema);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// The schema of this relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.set.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.set.is_empty()
    }

    /// Membership test (`r IN Rel`).
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.set.contains(tuple)
    }

    /// Look up the tuple with the given key projection, if the schema
    /// has a proper key.
    pub fn get_by_key(&self, key: &Tuple) -> Option<&Tuple> {
        self.key_map.as_ref()?.get(key)
    }

    /// Insert a tuple. Returns `Ok(true)` if it was new, `Ok(false)` if
    /// already present, and an error on schema or key violations.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool, RelationError> {
        self.schema.check_tuple(&tuple)?;
        self.insert_unchecked(tuple)
    }

    /// Insert without schema checking — used by the fixpoint engine on
    /// tuples it constructed itself from already-checked inputs. Still
    /// maintains the key invariant.
    ///
    /// Unique storage without a key map — every evaluator output — takes
    /// one hash: the set's own `insert` decides duplicates, and the
    /// digest and storage-id memos are cleared only when a tuple was
    /// actually added, so a duplicate keeps both. Otherwise every check
    /// (duplicate, key conflict) runs against the shared storage
    /// *before* [`Arc::make_mut`], so rejected or no-op inserts on a
    /// shared relation never trigger a copy.
    pub fn insert_unchecked(&mut self, tuple: Tuple) -> Result<bool, RelationError> {
        if self.key_map.is_none() {
            if let Some(store) = Arc::get_mut(&mut self.tuples) {
                let added = store.set.insert(tuple);
                if added {
                    store.forget();
                }
                return Ok(added);
            }
        }
        if self.tuples.set.contains(&tuple) {
            return Ok(false);
        }
        if let Some(map) = &mut self.key_map {
            let key = self.schema.key_of(&tuple);
            if let Some(existing) = map.get(&key) {
                return Err(RelationError::KeyViolation {
                    key,
                    existing: existing.clone(),
                    incoming: tuple,
                });
            }
            Arc::make_mut(map).insert(key, tuple.clone());
        }
        Arc::make_mut(&mut self.tuples).set_mut().insert(tuple);
        Ok(true)
    }

    /// Remove a tuple; returns whether it was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        if !self.tuples.set.contains(tuple) {
            return false;
        }
        Arc::make_mut(&mut self.tuples).set_mut().remove(tuple);
        if let Some(map) = &mut self.key_map {
            Arc::make_mut(map).remove(&self.schema.key_of(tuple));
        }
        true
    }

    /// Remove all tuples. Shared storage is released, not cleared in
    /// place, so other handles keep their value.
    pub fn clear(&mut self) {
        if !self.tuples.set.is_empty() {
            self.tuples = Arc::new(TupleStore::new(FxHashSet::default()));
        }
        if let Some(map) = &mut self.key_map {
            if !map.is_empty() {
                *map = Arc::new(FxHashMap::default());
            }
        }
    }

    /// Whole-relation assignment with constraint checking: the paper's
    /// `rel := rex` compiles to a key-constraint test over `rex` followed
    /// by the assignment, or an exception (§2.2). `source` keeps its own
    /// schema's attribute names; only arity/domain compatibility and this
    /// relation's key constraint are enforced.
    pub fn assign(&mut self, source: &Relation) -> Result<(), RelationError> {
        if !self.schema.union_compatible(source.schema()) {
            return Err(RelationError::Incompatible {
                context: "assignment".into(),
            });
        }
        let mut staged = Relation::new(self.schema.clone());
        for t in source.iter() {
            staged.insert(t.clone())?;
        }
        *self = staged;
        Ok(())
    }

    /// Iterate over the tuples (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.set.iter()
    }

    /// Tuples in sorted order (deterministic; for display and tests).
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.tuples.set.iter().cloned().collect();
        v.sort();
        v
    }

    /// Direct access to the underlying set (read-only).
    pub fn as_set(&self) -> &FxHashSet<Tuple> {
        &self.tuples.set
    }

    /// Do two relations share the same underlying tuple storage?
    ///
    /// True after a `clone` until either side mutates. Used by tests to
    /// assert that catalog resolution, fixpoint peer binding, and memo
    /// hits are pointer bumps rather than tuple-set copies.
    pub fn shares_storage(a: &Relation, b: &Relation) -> bool {
        Arc::ptr_eq(&a.tuples, &b.tuples)
    }

    /// Hash-partition the tuple set into `n` shard views for scan
    /// sharding (the evaluator runs one pool task per shard): each
    /// tuple lands in exactly one shard, chosen by a seeded hash of the
    /// whole tuple so skewed join keys cannot starve shards. The views
    /// hold `Tuple` handles — `Arc` bumps into this relation's storage,
    /// never tuple copies — so splitting is O(n) pointer work.
    ///
    /// The assignment of tuples to shards is deterministic within one
    /// process (it depends only on tuple content and `n`; a string
    /// hashes as its interner id, which depends on interning order),
    /// which is half of scan sharding's determinism argument: equal
    /// relations always produce equal shard *sets*, and a merge that
    /// unions shard outputs in shard order therefore reproduces the
    /// sequential result exactly.
    pub fn hash_shards(&self, n: usize) -> Vec<Vec<Tuple>> {
        let n = n.max(1);
        let mut shards: Vec<Vec<Tuple>> = Vec::with_capacity(n);
        let per = self.len() / n + 1;
        shards.resize_with(n, || Vec::with_capacity(per));
        for t in self.tuples.set.iter() {
            let mut h = FxHasher::default();
            // Seed so the shard hash is not the bucket hash of the
            // set's own table (which would empty most shards).
            h.write_u64(0xa076_1d64_78bd_642f);
            t.hash(&mut h);
            shards[(h.finish() % n as u64) as usize].push(t.clone());
        }
        shards
    }

    /// A 128-bit, order-independent content digest of the tuple set,
    /// **memoised per storage**: the first call pays one O(n) pass (two
    /// independent 64-bit tuple hashes combined commutatively), every
    /// later call on any handle sharing the storage is O(1) — including
    /// handles cloned before or after the computation. Mutation (which
    /// either detaches the storage or clears the cell in place)
    /// invalidates the memo.
    ///
    /// Equal tuple sets always produce equal digests regardless of
    /// insertion order or storage identity — within one process: a
    /// string hashes as its interner id (`dc_value::Sym`), and ids
    /// depend on interning order, so a digest is never comparable
    /// across processes. Distinct sets collide with
    /// negligible probability under a random-oracle model of the mixed
    /// per-tuple hash — callers using the digest as an identity key
    /// (the fixpoint `AppKey`) accept that probabilistic equality, the
    /// same trade every content-addressed cache makes.
    ///
    /// Each per-tuple hash is passed through a non-linear finalizer
    /// before the commutative sum: FxHash's last operation is a
    /// multiply, so summing its raw outputs would cancel the constant
    /// and make collisions linear-algebra-trivial (e.g. integer sets
    /// `{0,3}` and `{1,2}` would collide). The finalizer breaks that
    /// linearity.
    pub fn digest(&self) -> u128 {
        *self.tuples.digest.get_or_init(|| {
            let (mut lo, mut hi) = (0u64, 0u64);
            for t in &self.tuples.set {
                let mut h1 = FxHasher::default();
                h1.write_u64(0x9e37_79b9_7f4a_7c15);
                t.hash(&mut h1);
                let mut h2 = FxHasher::default();
                h2.write_u64(0xd1b5_4a32_d192_ed03);
                t.hash(&mut h2);
                // Wrapping sums are commutative: the digest is
                // independent of iteration order.
                lo = lo.wrapping_add(mix64(h1.finish()));
                hi = hi.wrapping_add(mix64(h2.finish()));
            }
            ((hi as u128) << 64) | lo as u128
        })
    }

    /// Peek the memoised digest without computing it: `Some` iff some
    /// handle sharing this storage already paid the O(n) pass (and no
    /// mutation has invalidated it since). Lets callers distinguish a
    /// cache hit from the recompute that [`Relation::digest`] would
    /// happily perform.
    pub fn cached_digest(&self) -> Option<u128> {
        self.tuples.digest.get().copied()
    }

    /// The identity of this relation's tuple storage *at its current
    /// content*: a process-unique number drawn on first request and
    /// memoised next to the digest. Clones (and
    /// [`Relation::snapshot_handle`]s) share it; every effective
    /// mutation — in place on unique storage or through a COW detach —
    /// leaves the mutated handle with a fresh one; no-op mutators keep
    /// it. Two relations with equal content but separate storage have
    /// different ids.
    ///
    /// Derived access structures (hash indexes) key on it: an
    /// entry built from id `n` describes exactly the relation whose id
    /// is still `n`. The `Arc` pointer alone could not serve — unshared
    /// storage is mutated in place (the fixpoint commit relies on it),
    /// so one pointer holds many contents over time.
    pub fn storage_id(&self) -> u64 {
        *self
            .tuples
            .id
            .get_or_init(|| NEXT_STORAGE_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// A handle destined for a published snapshot: forces the digest
    /// memo, then clones. The returned handle shares storage with
    /// `self` (publication stays O(1) per relation) **and** carries the
    /// populated memo cell, so sessions pinning the snapshot read
    /// digests — and build content-addressed solve keys — without ever
    /// recomputing. This is deliberate: a naive snapshot construction
    /// that rebuilt storage would clear the `OnceLock` and charge every
    /// hot read session an O(n log n) recompute per pinned relation.
    pub fn snapshot_handle(&self) -> Relation {
        self.digest();
        self.clone()
    }
}

/// The splitmix64 finalizer: a bijective, highly non-linear 64-bit
/// mixer. Applied to each per-tuple hash before the digest's
/// commutative sum — see [`Relation::digest`].
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Set equality: same tuples, regardless of schema attribute names (the
/// paper compares `Ahead = Oldahead` inside the fixpoint loop where the
/// two sides share a type). Shared storage short-circuits to `true`
/// without touching the tuples.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.tuples, &other.tuples) || self.tuples.set == other.tuples.set
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.sorted_tuples().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_value::{tuple, Attribute, Domain};

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn keyed() -> Schema {
        Schema::with_key(
            vec![
                Attribute::new("part", Domain::Str),
                Attribute::new("weight", Domain::Int),
            ],
            &["part"],
        )
        .unwrap()
    }

    #[test]
    fn insert_and_membership() {
        let mut r = Relation::new(infrontrel());
        assert!(r.insert(tuple!["vase", "table"]).unwrap());
        assert!(!r.insert(tuple!["vase", "table"]).unwrap());
        assert!(r.contains(&tuple!["vase", "table"]));
        assert!(!r.contains(&tuple!["table", "vase"]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn schema_violations_rejected() {
        let mut r = Relation::new(infrontrel());
        assert!(r.insert(tuple!["a"]).is_err());
        assert!(r.insert(tuple![1i64, "b"]).is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn key_constraint_enforced() {
        let mut r = Relation::new(keyed());
        r.insert(tuple!["bolt", 5i64]).unwrap();
        let err = r.insert(tuple!["bolt", 9i64]).unwrap_err();
        assert!(matches!(err, RelationError::KeyViolation { .. }));
        // Same tuple again is fine (set semantics).
        assert!(!r.insert(tuple!["bolt", 5i64]).unwrap());
        assert_eq!(r.get_by_key(&tuple!["bolt"]), Some(&tuple!["bolt", 5i64]));
    }

    #[test]
    fn remove_updates_key_index() {
        let mut r = Relation::new(keyed());
        r.insert(tuple!["bolt", 5i64]).unwrap();
        assert!(r.remove(&tuple!["bolt", 5i64]));
        assert!(!r.remove(&tuple!["bolt", 5i64]));
        // Key slot is free again.
        r.insert(tuple!["bolt", 9i64]).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn assign_checks_key_constraint() {
        let src_schema = infrontrel(); // no key
        let mut src = Relation::new(src_schema);
        src.insert(tuple!["bolt", "x"]).unwrap();
        src.insert(tuple!["bolt", "y"]).unwrap();

        // Target schema: key on first attribute over strings.
        let target_schema = Schema::with_key(
            vec![
                Attribute::new("part", Domain::Str),
                Attribute::new("note", Domain::Str),
            ],
            &["part"],
        )
        .unwrap();
        let mut target = Relation::new(target_schema);
        let err = target.assign(&src).unwrap_err();
        assert!(matches!(err, RelationError::KeyViolation { .. }));
        // Failed assignment leaves the target untouched.
        assert!(target.is_empty());
    }

    #[test]
    fn assign_replaces_contents() {
        let mut a = Relation::new(infrontrel());
        a.insert(tuple!["a", "b"]).unwrap();
        let mut b = Relation::new(infrontrel());
        b.insert(tuple!["c", "d"]).unwrap();
        a.assign(&b).unwrap();
        assert_eq!(a, b);
        assert!(!a.contains(&tuple!["a", "b"]));
    }

    #[test]
    fn assign_incompatible_schema() {
        let mut a = Relation::new(infrontrel());
        let b = Relation::new(Schema::of(&[("n", Domain::Int)]));
        assert!(matches!(
            a.assign(&b),
            Err(RelationError::Incompatible { .. })
        ));
    }

    #[test]
    fn equality_is_set_equality() {
        let mut a = Relation::new(infrontrel());
        let mut b = Relation::new(Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)]));
        a.insert(tuple!["x", "y"]).unwrap();
        b.insert(tuple!["x", "y"]).unwrap();
        assert_eq!(a, b);
        b.insert(tuple!["y", "z"]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn sorted_and_display_deterministic() {
        let mut r = Relation::new(infrontrel());
        r.insert(tuple!["b", "c"]).unwrap();
        r.insert(tuple!["a", "b"]).unwrap();
        let s = r.sorted_tuples();
        assert_eq!(s[0], tuple!["a", "b"]);
        assert_eq!(r.to_string(), "{<\"a\", \"b\">, <\"b\", \"c\">}");
    }

    #[test]
    fn clear_empties_and_reuses() {
        let mut r = Relation::new(keyed());
        r.insert(tuple!["bolt", 1i64]).unwrap();
        r.clear();
        assert!(r.is_empty());
        r.insert(tuple!["bolt", 2i64]).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        let mut a = Relation::new(infrontrel());
        a.insert(tuple!["a", "b"]).unwrap();
        let b = a.clone();
        assert!(Relation::shares_storage(&a, &b));
        // No-op mutations on a shared handle must not copy.
        let mut c = a.clone();
        assert!(!c.insert(tuple!["a", "b"]).unwrap());
        assert!(!c.remove(&tuple!["z", "z"]));
        assert!(Relation::shares_storage(&a, &c));
        // A real mutation detaches exactly the mutated handle.
        c.insert(tuple!["b", "c"]).unwrap();
        assert!(!Relation::shares_storage(&a, &c));
        assert!(Relation::shares_storage(&a, &b));
        assert_eq!(a.len(), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn snapshot_handle_reuses_digest_memo_pointer_equal() {
        let mut r = Relation::new(infrontrel());
        r.insert(tuple!["a", "b"]).unwrap();
        r.insert(tuple!["b", "c"]).unwrap();
        assert_eq!(r.cached_digest(), None, "memo starts empty");
        let d = r.digest();
        // The snapshot handle shares storage (pointer-equal memo cell)
        // and sees the memo as already populated — no recompute.
        let snap = r.snapshot_handle();
        assert!(Relation::shares_storage(&r, &snap));
        assert_eq!(snap.cached_digest(), Some(d));
        // Clones of the snapshot handle (what sessions pin) inherit it.
        let pinned = snap.clone();
        assert!(Relation::shares_storage(&snap, &pinned));
        assert_eq!(pinned.cached_digest(), Some(d));
        // snapshot_handle also *populates* a cold memo so sessions
        // never pay the O(n) pass themselves.
        let mut cold = Relation::new(infrontrel());
        cold.insert(tuple!["x", "y"]).unwrap();
        assert_eq!(cold.cached_digest(), None);
        let published = cold.snapshot_handle();
        assert!(published.cached_digest().is_some());
        assert_eq!(cold.cached_digest(), published.cached_digest());
        // Mutation still invalidates: a detached write starts cold.
        let mut next = published.clone();
        next.insert(tuple!["y", "z"]).unwrap();
        assert!(!Relation::shares_storage(&published, &next));
        assert_eq!(next.cached_digest(), None);
        assert_eq!(published.cached_digest(), Some(cold.digest()));
    }

    #[test]
    fn clear_leaves_shared_handles_intact() {
        let mut a = Relation::new(keyed());
        a.insert(tuple!["bolt", 1i64]).unwrap();
        let b = a.clone();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(b.len(), 1);
        // The cleared handle's key slot is free again; `b` keeps its
        // own key map.
        a.insert(tuple!["bolt", 2i64]).unwrap();
        assert_eq!(b.get_by_key(&tuple!["bolt"]), Some(&tuple!["bolt", 1i64]));
    }

    #[test]
    fn key_violation_on_shared_handle_does_not_copy_or_corrupt() {
        let mut a = Relation::new(keyed());
        a.insert(tuple!["bolt", 1i64]).unwrap();
        let mut b = a.clone();
        assert!(b.insert(tuple!["bolt", 9i64]).is_err());
        assert!(Relation::shares_storage(&a, &b));
        assert_eq!(a, b);
    }

    #[test]
    fn digest_is_order_independent_and_content_addressed() {
        let a =
            Relation::from_tuples(infrontrel(), vec![tuple!["a", "b"], tuple!["b", "c"]]).unwrap();
        let mut b = Relation::new(infrontrel());
        b.insert(tuple!["b", "c"]).unwrap();
        b.insert(tuple!["a", "b"]).unwrap();
        // Same content, independent storages, different insertion order.
        assert_eq!(a.digest(), b.digest());
        // Different content differs.
        let mut c = a.clone();
        c.insert(tuple!["c", "d"]).unwrap();
        assert_ne!(a.digest(), c.digest());
        // Empty relations share the zero digest.
        assert_eq!(
            Relation::new(infrontrel()).digest(),
            Relation::new(keyed()).digest()
        );
    }

    #[test]
    fn digest_sum_is_not_linear_in_tuple_values() {
        // Regression: without a non-linear per-tuple finalizer, the
        // commutative sum of FxHash outputs is linear in the hashed
        // words, so equal-sum integer sets like {0,3} and {1,2}
        // collide. Check all 2-element subsets of a small range.
        let nums = Schema::of(&[("n", Domain::Int)]);
        let rel_of = |a: i64, b: i64| {
            Relation::from_tuples(nums.clone(), vec![tuple![a], tuple![b]]).unwrap()
        };
        assert_ne!(rel_of(0, 3).digest(), rel_of(1, 2).digest());
        let mut seen = std::collections::HashMap::new();
        for a in 0i64..40 {
            for b in (a + 1)..40 {
                if let Some((pa, pb)) = seen.insert(rel_of(a, b).digest(), (a, b)) {
                    panic!("digest collision: {{{pa},{pb}}} vs {{{a},{b}}}");
                }
            }
        }
    }

    #[test]
    fn digest_memo_survives_sharing_and_dies_on_mutation() {
        let mut a = Relation::from_tuples(infrontrel(), vec![tuple!["a", "b"]]).unwrap();
        let before = a.digest();
        // A clone shares the storage and therefore the memoised digest.
        let shared = a.clone();
        assert!(Relation::shares_storage(&a, &shared));
        assert_eq!(shared.digest(), before);
        // In-place mutation (unique or shared) must invalidate.
        a.insert(tuple!["b", "c"]).unwrap();
        assert_ne!(a.digest(), before);
        // The untouched handle keeps the old content and digest.
        assert_eq!(shared.digest(), before);
        // Remove back down to the original content: digests re-agree
        // (content-addressed, not history-addressed).
        a.remove(&tuple!["b", "c"]);
        assert_eq!(a.digest(), before);
    }

    #[test]
    fn hash_shards_partition_exactly_and_deterministically() {
        let r = Relation::from_tuples(
            infrontrel(),
            (0..200).map(|i| tuple![format!("a{i}"), format!("b{i}")]),
        )
        .unwrap();
        for n in [1usize, 3, 8] {
            let shards = r.hash_shards(n);
            assert_eq!(shards.len(), n);
            let total: usize = shards.iter().map(Vec::len).sum();
            assert_eq!(total, r.len(), "every tuple lands in exactly one shard");
            let mut seen = FxHashSet::default();
            for s in &shards {
                for t in s {
                    assert!(r.contains(t));
                    assert!(seen.insert(t.clone()), "no tuple in two shards");
                }
            }
        }
        // Deterministic: same content (different storage) ⇒ same shards.
        let r2 = Relation::from_tuples(infrontrel(), r.sorted_tuples()).unwrap();
        let (a, b) = (r.hash_shards(4), r2.hash_shards(4));
        for (sa, sb) in a.iter().zip(&b) {
            let mut sa = sa.clone();
            let mut sb = sb.clone();
            sa.sort();
            sb.sort();
            assert_eq!(sa, sb);
        }
        // n = 0 is clamped to one shard.
        assert_eq!(r.hash_shards(0).len(), 1);
    }

    #[test]
    fn duplicate_insert_into_unique_storage_keeps_memos() {
        let mut r = Relation::from_tuples(infrontrel(), vec![tuple!["a", "b"]]).unwrap();
        let (id, digest) = (r.storage_id(), r.digest());
        assert!(!r.insert_unchecked(tuple!["a", "b"]).unwrap());
        assert_eq!(r.storage_id(), id);
        assert_eq!(r.cached_digest(), Some(digest));
    }

    #[test]
    fn duplicate_insert_into_shared_storage_does_not_detach() {
        let mut r = Relation::from_tuples(infrontrel(), vec![tuple!["a", "b"]]).unwrap();
        let snap = r.snapshot_handle();
        assert!(!r.insert_unchecked(tuple!["a", "b"]).unwrap());
        assert!(Relation::shares_storage(&r, &snap));
        assert_eq!(r.storage_id(), snap.storage_id());
        assert!(r.cached_digest().is_some());
    }

    #[test]
    fn new_tuple_clears_the_digest_memo() {
        let mut r = Relation::from_tuples(infrontrel(), vec![tuple!["a", "b"]]).unwrap();
        let (id, digest) = (r.storage_id(), r.digest());
        assert!(r.insert_unchecked(tuple!["b", "c"]).unwrap());
        assert_eq!(r.cached_digest(), None);
        assert_ne!(r.storage_id(), id);
        assert_ne!(r.digest(), digest);
    }

    #[test]
    fn key_constrained_insert_unchecked_still_reports_key_violation() {
        let mut r = Relation::new(keyed());
        assert!(r.insert_unchecked(tuple!["bolt", 5i64]).unwrap());
        assert!(matches!(
            r.insert_unchecked(tuple!["bolt", 9i64]),
            Err(RelationError::KeyViolation { .. })
        ));
        assert!(!r.insert_unchecked(tuple!["bolt", 5i64]).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn from_tuples_builder() {
        let r = Relation::from_tuples(
            infrontrel(),
            vec![tuple!["a", "b"], tuple!["b", "c"], tuple!["a", "b"]],
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }
}
