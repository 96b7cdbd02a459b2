//! Property-based tests for the value layer.

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

use proptest::prelude::*;

use dc_index::HashIndex;
use dc_value::fxhash::hash_one;
use dc_value::{Domain, Tuple, Value};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(Value::Card),
        "[a-z]{0,8}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Fresh strings, interned in *reverse* lexical order — so the later a
/// string sorts, the smaller its interner id. A per-case prefix keeps
/// every string unseen by the interner until this call.
fn interned_in_reverse(words: &[String]) -> Vec<String> {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, AtomicOrdering::Relaxed);
    let mut fresh: Vec<String> = words.iter().map(|w| format!("rev{case}:{w}")).collect();
    fresh.sort_unstable_by(|a, b| b.cmp(a));
    for w in &fresh {
        Value::str(w);
    }
    fresh
}

proptest! {
    /// Interning order is not value order: over strings interned in
    /// reverse lexical order, `Ord` is still the strings' order, `==`
    /// is string equality, equal strings hash equal, and `as_str`
    /// round-trips.
    #[test]
    fn interned_strings_keep_string_semantics(
        words in prop::collection::vec("[a-c]{0,3}", 1..10),
    ) {
        let words = interned_in_reverse(&words);
        for a in &words {
            let va = Value::str(a);
            prop_assert_eq!(va.as_str(), Some(a.as_str()));
            for b in &words {
                let vb = Value::str(b);
                prop_assert_eq!(va.cmp(&vb), a.cmp(b));
                prop_assert_eq!(va.try_cmp(&vb), Some(a.cmp(b)));
                prop_assert_eq!(va == vb, a == b);
                if a == b {
                    prop_assert_eq!(hash_one(&va), hash_one(&vb));
                }
            }
        }
        let mut by_value: Vec<Value> = words.iter().map(Value::str).collect();
        by_value.sort();
        let mut by_string = words.clone();
        by_string.sort();
        let printed: Vec<&str> = by_value.iter().filter_map(Value::as_str).collect();
        prop_assert_eq!(printed, by_string);
    }

    /// A hash index over tuples of reverse-interned strings answers
    /// probes whose keys are interned afresh from new `String`s.
    #[test]
    fn index_probes_with_freshly_interned_keys(
        words in prop::collection::vec("[a-c]{0,3}", 1..10),
    ) {
        let words = interned_in_reverse(&words);
        let mut index = HashIndex::new(vec![0]);
        for (i, w) in words.iter().enumerate() {
            index.add(Tuple::new(vec![Value::str(w), Value::Int(i as i64)]));
        }
        for w in &words {
            let key = [Value::str(w.clone())];
            let hits = index.probe_slice(&key);
            let expected = words.iter().filter(|v| *v == w).count();
            prop_assert_eq!(hits.len(), expected);
            prop_assert!(hits.iter().all(|t| t.get(0).as_str() == Some(w.as_str())));
        }
        prop_assert!(index.probe_slice(&[Value::str(format!("{}!", words[0]))]).is_empty());
    }

    /// Hash/Eq consistency: equal values hash equally.
    #[test]
    fn hash_eq_consistent(v in value_strategy()) {
        let w = v;
        prop_assert_eq!(&v, &w);
        prop_assert_eq!(hash_one(&v), hash_one(&w));
    }

    /// The total order is antisymmetric and total.
    #[test]
    fn total_order(a in value_strategy(), b in value_strategy()) {
        use std::cmp::Ordering;
        let ab = a.cmp(&b);
        let ba = b.cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            prop_assert_eq!(&a, &b);
        }
    }

    /// try_cmp agrees with the total order within a base type.
    #[test]
    fn try_cmp_within_type(a in any::<i64>(), b in any::<i64>()) {
        let (va, vb) = (Value::Int(a), Value::Int(b));
        prop_assert_eq!(va.try_cmp(&vb), Some(a.cmp(&b)));
        prop_assert_eq!(va.cmp(&vb), a.cmp(&b));
    }

    /// Addition is commutative when defined; sub inverts add.
    #[test]
    fn arithmetic_laws(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let (va, vb) = (Value::Int(a), Value::Int(b));
        prop_assert_eq!(va.add(&vb).unwrap(), vb.add(&va).unwrap());
        let sum = va.add(&vb).unwrap();
        prop_assert_eq!(sum.sub(&vb).unwrap(), va);
    }

    /// MOD result is always in [0, n) for positive n (MODULA-2
    /// semantics).
    #[test]
    fn mod_range(a in any::<i64>(), n in 1i64..1000) {
        let r = Value::Int(a).rem(&Value::Int(n)).unwrap();
        let r = r.as_int().unwrap();
        prop_assert!((0..n).contains(&r));
    }

    /// Domain admission: a range domain admits exactly its interval.
    #[test]
    fn range_domain_admission(lo in -100i64..100, width in 0i64..100, v in -300i64..300) {
        let hi = lo + width;
        let d = Domain::IntRange(lo, hi);
        let ok = d.check(&Value::Int(v)).is_ok();
        prop_assert_eq!(ok, (lo..=hi).contains(&v));
    }

    /// Tuple projection then arity agrees; concat arity adds.
    #[test]
    fn tuple_laws(fields in prop::collection::vec(value_strategy(), 0..6),
                  other in prop::collection::vec(value_strategy(), 0..6)) {
        let t = Tuple::new(fields.clone());
        prop_assert_eq!(t.arity(), fields.len());
        let u = Tuple::new(other.clone());
        let c = t.concat(&u);
        prop_assert_eq!(c.arity(), fields.len() + other.len());
        // Projection onto all positions is the identity.
        let all: Vec<usize> = (0..t.arity()).collect();
        prop_assert_eq!(t.project(&all), t.clone());
        // Tuple equality follows field equality.
        prop_assert_eq!(Tuple::new(fields.clone()), t);
    }

    /// Tuples hash consistently with equality.
    #[test]
    fn tuple_hash_eq(fields in prop::collection::vec(value_strategy(), 0..5)) {
        let a = Tuple::new(fields.clone());
        let b = Tuple::new(fields);
        prop_assert_eq!(hash_one(&a), hash_one(&b));
    }
}
