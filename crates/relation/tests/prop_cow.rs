//! Property tests for copy-on-write aliasing semantics: `Relation`
//! clones share storage until mutated, and a mutation through one
//! handle is never observable through another — in either direction.

use proptest::prelude::*;

use dc_relation::Relation;
use dc_value::{tuple, Domain, Schema, Tuple};

fn schema() -> Schema {
    Schema::of(&[("a", Domain::Int), ("b", Domain::Int)])
}

fn rel_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec((0i64..6, 0i64..6), 0..20).prop_map(|pairs| {
        Relation::from_tuples(schema(), pairs.into_iter().map(|(a, b)| tuple![a, b]))
            .expect("valid tuples")
    })
}

/// A random mutation: insert (op 0), remove (op 1), or clear (op 2 —
/// rare).
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    prop::collection::vec((0u8..8, 0i64..6, 0i64..6), 1..12).prop_map(|ops| {
        ops.into_iter()
            .map(|(op, a, b)| (if op == 7 { 2 } else { op % 2 }, a, b))
            .collect()
    })
}

fn apply(rel: &mut Relation, ops: &[(u8, i64, i64)]) {
    for (op, a, b) in ops {
        let t: Tuple = tuple![*a, *b];
        match op {
            0 => {
                rel.insert(t).expect("schema-valid insert");
            }
            1 => {
                rel.remove(&t);
            }
            _ => rel.clear(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Mutating a clone never observes through the original.
    #[test]
    fn mutating_clone_leaves_original_intact(
        base in rel_strategy(),
        ops in ops_strategy(),
    ) {
        let snapshot = base.sorted_tuples();
        let mut cloned = base.clone();
        prop_assert!(Relation::shares_storage(&base, &cloned));
        apply(&mut cloned, &ops);
        prop_assert_eq!(base.sorted_tuples(), snapshot);
        // And the clone is a plain value: re-deriving it from its own
        // tuples reproduces it.
        let rebuilt = Relation::from_tuples(
            cloned.schema().clone(),
            cloned.sorted_tuples(),
        ).expect("clone holds valid tuples");
        prop_assert_eq!(cloned, rebuilt);
    }

    /// The symmetric direction: mutating the original never observes
    /// through a clone taken earlier.
    #[test]
    fn mutating_original_leaves_clone_intact(
        base in rel_strategy(),
        ops in ops_strategy(),
    ) {
        let mut original = base;
        let cloned = original.clone();
        let snapshot = cloned.sorted_tuples();
        apply(&mut original, &ops);
        prop_assert_eq!(cloned.sorted_tuples(), snapshot);
    }

    /// No-op mutations (duplicate inserts, absent removes) keep the
    /// storage shared — the cheap path the fixpoint engine relies on.
    #[test]
    fn noop_mutations_preserve_sharing(base in rel_strategy()) {
        let mut cloned = base.clone();
        for t in base.sorted_tuples() {
            prop_assert!(!cloned.insert(t).expect("duplicate insert is a no-op"));
        }
        prop_assert!(!cloned.remove(&tuple![99i64, 99i64]));
        prop_assert!(Relation::shares_storage(&base, &cloned));
    }

    /// The storage id tracks storage *and* content: clones and snapshot
    /// handles share it, every effective mutation — in place on unique
    /// storage and through a COW detach alike — changes it, no-op
    /// mutators keep it, and equal content in separate storage differs.
    #[test]
    fn storage_id_changes_exactly_on_effective_mutation(
        base in rel_strategy(),
        ops in ops_strategy(),
    ) {
        let id = base.storage_id();
        prop_assert_eq!(base.clone().storage_id(), id);
        prop_assert_eq!(base.snapshot_handle().storage_id(), id);
        let twin = Relation::from_tuples(schema(), base.sorted_tuples()).expect("valid tuples");
        prop_assert_eq!(&twin, &base);
        prop_assert_ne!(twin.storage_id(), id);
        // `shared` detaches from `base` on its first effective
        // mutation; `unique` (the twin) is mutated in place throughout.
        let (mut shared, mut unique) = (base.clone(), twin);
        for op in &ops {
            for rel in [&mut shared, &mut unique] {
                let (before, id_before) = (rel.sorted_tuples(), rel.storage_id());
                apply(rel, std::slice::from_ref(op));
                prop_assert_eq!(
                    rel.storage_id() != id_before,
                    rel.sorted_tuples() != before,
                    "op {:?}", op
                );
            }
        }
        prop_assert_eq!(base.storage_id(), id);
    }
}
