//! Hash index over a subset of attribute positions.

use dc_value::{FxHashMap, Tuple, Value};

use dc_relation::Relation;

/// A hash index mapping the projection of a tuple onto `positions` to
/// the list of matching tuples.
///
/// Built once per join operand by the evaluator (through
/// `dc_calculus::AccessCache`) and maintained incrementally inside
/// semi-naive fixpoint loops.
///
/// # Thread sharing
///
/// `HashIndex` is `Send + Sync` (asserted at compile time below): all
/// of its storage bottoms out in immutable `Arc`-backed tuples of
/// `Copy` values. The evaluator's scan sharding relies on this to hand
/// one `Arc<HashIndex>` to every pool worker and probe it concurrently —
/// probes are `&self` and never mutate, so no synchronisation beyond
/// the `Arc` is needed. Mutation (`add`, `remove`) requires `&mut self` and is
/// therefore confined to the single-threaded maintenance sites (the
/// fixpoint commit), never to a shared probe-side handle.
#[derive(Debug, Clone)]
pub struct HashIndex {
    positions: Vec<usize>,
    buckets: FxHashMap<Tuple, Vec<Tuple>>,
    len: usize,
}

impl HashIndex {
    /// An empty index on the given positions.
    pub fn new(positions: Vec<usize>) -> HashIndex {
        HashIndex {
            positions,
            buckets: FxHashMap::default(),
            len: 0,
        }
    }

    /// Build an index over all tuples of a relation.
    pub fn build(rel: &Relation, positions: Vec<usize>) -> HashIndex {
        let mut idx = HashIndex::new(positions);
        for t in rel.iter() {
            idx.add(t.clone());
        }
        idx
    }

    /// The indexed positions.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys — on a single-column index, the column's
    /// distinct-value count, which is what the join planner reads.
    pub fn distinct_keys(&self) -> usize {
        self.buckets.len()
    }

    /// Add one tuple (no dedup — the caller owns set semantics).
    pub fn add(&mut self, tuple: Tuple) {
        let key = tuple.project(&self.positions);
        self.buckets.entry(key).or_default().push(tuple);
        self.len += 1;
    }

    /// Remove one tuple; returns whether it was indexed. O(bucket): the
    /// bucket is found by the tuple's key and scanned for the tuple,
    /// and a bucket left empty is dropped, so
    /// [`HashIndex::distinct_keys`] stays exact.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let key = tuple.project(&self.positions);
        let Some(bucket) = self.buckets.get_mut(&key) else {
            return false;
        };
        let Some(at) = bucket.iter().position(|t| t == tuple) else {
            return false;
        };
        bucket.swap_remove(at);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        self.len -= 1;
        true
    }

    /// All tuples whose projection equals the given value slice — the
    /// key fields in `positions` order, assembled by the caller (the
    /// join executor reuses one scratch buffer) rather than
    /// materialised as a `Tuple` per probe.
    pub fn probe_slice(&self, key: &[Value]) -> &[Tuple] {
        self.buckets.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate over `(key, bucket)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &[Tuple])> {
        self.buckets.iter().map(|(k, v)| (k, v.as_slice()))
    }
}

// Compile-time audit of the cross-thread sharing contract: scan
// sharding shares read-only indexes (and the relations next to them)
// across worker threads. A field change that
// introduced interior mutability or a non-`Send` payload would fail
// this assertion instead of surfacing as a data race. Keys and buckets
// hash and compare `Value`s as words: a `Value` that grew past 16 bytes
// (a boxed payload, a wider id) fails here too.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HashIndex>();
    assert!(std::mem::size_of::<Value>() == 16);
};

#[cfg(test)]
mod tests {
    use super::*;
    use dc_value::{tuple, Domain, Schema};

    fn edges(ts: &[(&str, &str)]) -> Relation {
        Relation::from_tuples(
            Schema::of(&[("front", Domain::Str), ("back", Domain::Str)]),
            ts.iter().map(|(a, b)| tuple![*a, *b]),
        )
        .unwrap()
    }

    #[test]
    fn build_and_probe() {
        let r = edges(&[("a", "b"), ("a", "c"), ("b", "c")]);
        let idx = HashIndex::build(&r, vec![0]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        let hits = idx.probe_slice(&["a".into()]);
        assert_eq!(hits.len(), 2);
        assert!(idx.probe_slice(&["z".into()]).is_empty());
    }

    #[test]
    fn multi_position_keys() {
        let r = edges(&[("a", "b"), ("a", "c")]);
        let idx = HashIndex::build(&r, vec![0, 1]);
        assert_eq!(idx.probe_slice(&["a".into(), "b".into()]).len(), 1);
        assert_eq!(idx.probe_slice(&["a".into(), "z".into()]).len(), 0);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn incremental_add() {
        let mut idx = HashIndex::new(vec![1]);
        assert!(idx.is_empty());
        idx.add(tuple!["a", "b"]);
        idx.add(tuple!["x", "b"]);
        assert_eq!(idx.probe_slice(&["b".into()]).len(), 2);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn remove_matches_a_rebuild() {
        let mut idx = HashIndex::build(&edges(&[("a", "b"), ("a", "c"), ("b", "c")]), vec![0]);
        assert!(idx.remove(&tuple!["a", "b"]));
        assert!(!idx.remove(&tuple!["a", "b"]), "already gone");
        assert!(!idx.remove(&tuple!["z", "z"]), "never indexed");
        assert_eq!((idx.len(), idx.distinct_keys()), (2, 2));
        assert!(idx.remove(&tuple!["b", "c"]));
        assert_eq!(idx.distinct_keys(), 1, "an emptied bucket is dropped");
        assert_eq!(idx.probe_slice(&["a".into()]), [tuple!["a", "c"]]);
    }

    #[test]
    fn iter_covers_all() {
        let r = edges(&[("a", "b"), ("b", "c")]);
        let idx = HashIndex::build(&r, vec![0]);
        let total: usize = idx.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 2);
    }
}
