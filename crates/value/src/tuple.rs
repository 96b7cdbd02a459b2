//! Immutable fixed-arity tuples.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// A row of a relation.
///
/// Tuples are immutable and cheap to clone (`Arc`-backed): fixpoint
/// iteration copies tuples between the delta, accumulator, and result
/// sets constantly, so cloning is one refcount bump on the field slice.
/// The fields themselves are `Copy` words (strings are interned), so
/// building, projecting and hashing a tuple touches no other refcount.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    fields: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(fields: impl Into<Vec<Value>>) -> Tuple {
        Tuple {
            fields: Arc::from(fields.into()),
        }
    }

    /// The empty tuple (arity 0).
    pub fn empty() -> Tuple {
        Tuple {
            fields: Arc::from(Vec::new()),
        }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Field at position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.fields[i]
    }

    /// All fields as a slice.
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }

    /// A tuple holding a copy of `fields`: one allocation, for callers
    /// that assemble fields in a reused buffer.
    pub fn from_slice(fields: &[Value]) -> Tuple {
        Tuple {
            fields: Arc::from(fields),
        }
    }

    /// Project onto the given positions, producing a new tuple (one
    /// allocation: the field slice is collected straight into its `Arc`).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple {
            fields: positions.iter().map(|&i| self.fields[i]).collect(),
        }
    }

    /// Concatenate two tuples (used by join targets).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.fields);
        v.extend_from_slice(&other.fields);
        Tuple::new(v)
    }

    /// Iterate over the fields.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.fields.iter()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple::new(v)
    }
}

/// Tuples borrow as value slices, so hash maps keyed by `Tuple` can be
/// probed with a scratch `&[Value]` — no per-probe `Tuple` (and `Arc`)
/// allocation on join hot paths. Sound because the derived `Hash`/`Eq`
/// of `Tuple` delegate to the field slice.
impl std::borrow::Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        self.fields()
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple!["a", 3i64]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple!["vase", "table"];
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), &Value::str("vase"));
        assert_eq!(t.get(1), &Value::str("table"));
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::empty();
        assert_eq!(t.arity(), 0);
        assert_eq!(t.to_string(), "<>");
    }

    #[test]
    fn projection() {
        let t = tuple![1i64, 2i64, 3i64];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![3i64, 1i64]);
    }

    #[test]
    fn from_slice_copies_fields() {
        let t = tuple![1i64, "x"];
        assert_eq!(Tuple::from_slice(t.fields()), t);
        assert_eq!(Tuple::from_slice(&[]), Tuple::empty());
    }

    #[test]
    fn concat() {
        let a = tuple![1i64];
        let b = tuple!["x", true];
        assert_eq!(a.concat(&b), tuple![1i64, "x", true]);
    }

    #[test]
    fn clone_is_shallow() {
        let t = tuple!["long-ish string payload"];
        let u = t.clone();
        // Arc payload is shared, not copied.
        assert!(std::ptr::eq(t.fields().as_ptr(), u.fields().as_ptr()));
    }

    #[test]
    fn equality_and_hash_follow_fields() {
        use crate::fxhash::hash_one;
        let a = tuple![1i64, "x"];
        let b = tuple![1i64, "x"];
        assert_eq!(a, b);
        assert_eq!(hash_one(&a), hash_one(&b));
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1i64, "a"].to_string(), "<1, \"a\">");
    }
}
