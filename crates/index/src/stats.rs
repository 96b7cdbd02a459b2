//! Per-relation statistics, kept for tests and benchmarks only.
//!
//! The engine collects and maintains no statistics: the join
//! planner asks for a column's distinct count when a decision reads it,
//! and the answer is the bucket count of the column's
//! [`HashIndex`](crate::HashIndex) (`HashIndex::distinct_keys`), which
//! index maintenance keeps exact in both directions.
//!
//! * [`RelationStats`] — cardinality and per-column distinct counts in
//!   one pass ([`RelationStats::collect`]): the oracle tests compare
//!   index-served counts and planner decisions against.
//! * [`StatsBuilder`] — the incrementally updated form, kept only
//!   because the benchmark's per-layer `index.stats_add_ns` row times
//!   [`StatsBuilder::add`].

use dc_value::{FxHashSet, Value};

use dc_relation::Relation;

/// Cardinality statistics of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStats {
    /// Number of tuples.
    pub cardinality: usize,
    /// Distinct value count per attribute position.
    pub distinct: Vec<usize>,
}

impl RelationStats {
    /// Collect statistics in one pass over the relation.
    pub fn collect(rel: &Relation) -> RelationStats {
        let arity = rel.schema().arity();
        let mut seen: Vec<FxHashSet<Value>> = (0..arity).map(|_| FxHashSet::default()).collect();
        for t in rel.iter() {
            for (slot, &v) in seen.iter_mut().zip(t.iter()) {
                slot.insert(v);
            }
        }
        RelationStats {
            cardinality: rel.len(),
            distinct: seen.into_iter().map(|s| s.len()).collect(),
        }
    }
}

/// Incrementally updated relation statistics: [`RelationStats`]
/// absorbed one tuple at a time (benchmark surface only — see the
/// module docs).
#[derive(Debug, Clone, Default)]
pub struct StatsBuilder {
    cardinality: usize,
    /// Distinct values seen per attribute position.
    seen: Vec<FxHashSet<Value>>,
}

impl StatsBuilder {
    /// An empty builder for relations of the given arity.
    pub fn new(arity: usize) -> StatsBuilder {
        StatsBuilder {
            cardinality: 0,
            seen: (0..arity).map(|_| FxHashSet::default()).collect(),
        }
    }

    /// Seed a builder from an existing relation (one pass).
    pub fn from_relation(rel: &Relation) -> StatsBuilder {
        let mut b = StatsBuilder::new(rel.schema().arity());
        for t in rel.iter() {
            b.add(t);
        }
        b
    }

    /// Absorb one committed tuple — O(arity). The caller owns set
    /// semantics: feeding a duplicate inflates the cardinality.
    pub fn add(&mut self, tuple: &dc_value::Tuple) {
        self.cardinality += 1;
        for (slot, &v) in self.seen.iter_mut().zip(tuple.iter()) {
            slot.insert(v);
        }
    }

    /// The statistics absorbed so far — O(arity).
    pub fn snapshot(&self) -> RelationStats {
        RelationStats {
            cardinality: self.cardinality,
            distinct: self.seen.iter().map(FxHashSet::len).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_value::{tuple, Domain, Schema};

    fn rel() -> Relation {
        Relation::from_tuples(
            Schema::of(&[("front", Domain::Str), ("back", Domain::Str)]),
            vec![tuple!["a", "b"], tuple!["a", "c"], tuple!["b", "c"]],
        )
        .unwrap()
    }

    #[test]
    fn collect_counts() {
        let s = RelationStats::collect(&rel());
        assert_eq!(s.cardinality, 3);
        assert_eq!(s.distinct, vec![2, 2]);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::new(Schema::of(&[("x", Domain::Int)]));
        let s = RelationStats::collect(&r);
        assert_eq!(s.cardinality, 0);
        assert_eq!(s.distinct, vec![0]);
    }

    #[test]
    fn single_column_bucket_counts_are_the_distinct_counts() {
        let r = rel();
        let exact = RelationStats::collect(&r);
        for (column, &distinct) in exact.distinct.iter().enumerate() {
            let idx = crate::HashIndex::build(&r, vec![column]);
            assert_eq!(idx.distinct_keys(), distinct, "column {column}");
        }
    }

    #[test]
    fn builder_matches_collect() {
        let r = rel();
        let mut b = StatsBuilder::new(r.schema().arity());
        for t in r.iter() {
            b.add(t);
        }
        assert_eq!(b.snapshot(), RelationStats::collect(&r));
        assert_eq!(
            StatsBuilder::from_relation(&r).snapshot(),
            RelationStats::collect(&r)
        );
    }

    #[test]
    fn builder_incremental_growth() {
        let mut b = StatsBuilder::new(2);
        assert_eq!(b.snapshot().cardinality, 0);
        b.add(&tuple!["a", "b"]);
        b.add(&tuple!["a", "c"]);
        let s = b.snapshot();
        assert_eq!(s.cardinality, 2);
        assert_eq!(s.distinct, vec![1, 2]);
    }
}
