//! Simple per-relation statistics for the optimizer.
//!
//! The paper's three-level strategy (§4) moves analysis work to
//! compilation; the runtime level still needs cheap cardinality facts to
//! pick hash-join build sides. These are the 1985-appropriate
//! statistics: cardinality and per-attribute distinct counts.
//!
//! Two forms exist:
//!
//! * [`RelationStats`] — an immutable snapshot consumed by the join
//!   planner (`dc-calculus`'s `joinplan`), obtainable in one pass via
//!   [`RelationStats::collect`].
//! * [`StatsBuilder`] — the *incrementally maintained* form kept next
//!   to maintained `HashIndex`es over a relation that grows by deltas.
//!   [`StatsBuilder::add`] absorbs one tuple in O(arity);
//!   [`StatsBuilder::snapshot`] produces a planner-ready
//!   [`RelationStats`] in O(arity), with no pass over the relation.
//!
//! # Maintenance invariant
//!
//! A `StatsBuilder` tracking a relation is updated **at the same site,
//! with the same delta tuples, as every maintained `HashIndex` over
//! that relation**: stats are updated iff the indexes are. That site is
//! `dc_calculus::AccessCache::advance`, which holds both under the
//! relation's storage id; serving stats from anywhere else would break
//! the agreement between a planner snapshot and the probed indexes.
//!
//! The cardinality is exact in both directions. The distinct counts
//! are exact while the relation only grows and an **upper bound** once
//! it has shrunk: [`StatsBuilder::remove`] cannot tell whether a removed
//! tuple held the last occurrence of a value without a per-value count,
//! so it leaves the distinct sets alone. An overestimated distinct
//! count only makes the planner's `1 / distinct` selectivity
//! optimistic; a relation replaced wholesale has a new storage id and
//! starts from a fresh, exact collection.

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

    /// Estimated selectivity of an equality predicate `attr = const`:
    /// `1 / distinct(attr)`, the classic System-R assumption.
    pub fn eq_selectivity(&self, position: usize) -> f64 {
        match self.distinct.get(position) {
            Some(&d) if d > 0 => 1.0 / d as f64,
            _ => 1.0,
        }
    }
}

/// Incrementally maintained relation statistics: the long-lived form
/// of [`RelationStats`], updated per committed tuple instead of
/// recollected per consumer (see the module docs for the maintenance
/// invariant binding it to index maintenance).
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

    /// Seed a builder from an existing relation (one pass) — how a
    /// collected statistics entry becomes maintainable the first time
    /// its relation grows by a delta.
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

    /// Retract one tuple the relation held — O(1). The cardinality
    /// stays exact; the distinct counts become an upper bound (see the
    /// module docs).
    pub fn remove(&mut self, _tuple: &dc_value::Tuple) {
        self.cardinality = self.cardinality.saturating_sub(1);
    }

    /// Number of tuples held.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// A planner-ready snapshot — O(arity), no pass over the relation.
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
        assert_eq!(s.eq_selectivity(0), 1.0);
    }

    #[test]
    fn selectivity() {
        let s = RelationStats::collect(&rel());
        assert!((s.eq_selectivity(0) - 0.5).abs() < 1e-9);
        // Out-of-range position defaults to 1.0 (no information).
        assert_eq!(s.eq_selectivity(9), 1.0);
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
        assert_eq!(b.cardinality(), 2);
    }

    #[test]
    fn builder_removal_keeps_cardinality_exact_and_distinct_an_upper_bound() {
        let mut r = rel();
        let mut b = StatsBuilder::from_relation(&r);
        r.remove(&tuple!["b", "c"]);
        b.remove(&tuple!["b", "c"]);
        let (kept, exact) = (b.snapshot(), RelationStats::collect(&r));
        assert_eq!(kept.cardinality, exact.cardinality);
        assert_eq!(exact.distinct, vec![1, 2]);
        assert_eq!(kept.distinct, vec![2, 2]);
        assert!(kept
            .distinct
            .iter()
            .zip(&exact.distinct)
            .all(|(k, e)| k >= e));
    }
}
