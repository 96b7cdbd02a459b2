//! Dynamically typed scalar values.

use std::cmp::Ordering;
use std::fmt;

use crate::error::ValueError;
use crate::sym::Sym;

/// A scalar value flowing through the engine.
///
/// Strings are interned ([`Sym`]), so a `Value` is a `Copy` 16-byte
/// scalar: hashing and equality are word operations, and copying a
/// tuple's fields touches no refcount. Ordering still compares the
/// strings themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// Signed integer (`INTEGER`).
    Int(i64),
    /// Unsigned integer (`CARDINAL`).
    Card(u64),
    /// String, interned.
    Str(Sym),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Sym::intern(s.as_ref()))
    }

    /// Short tag used in error messages and plan explanations.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "INTEGER",
            Value::Card(_) => "CARDINAL",
            Value::Str(_) => "STRING",
            Value::Bool(_) => "BOOLEAN",
        }
    }

    /// Comparison between values of the same base type.
    ///
    /// Returns `None` for cross-type comparisons, which the calculus type
    /// checker rejects statically; the runtime treats them as errors.
    pub fn try_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Card(a), Value::Card(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    fn binop(
        &self,
        other: &Value,
        op: &'static str,
        int_op: impl Fn(i64, i64) -> Result<i64, ValueError>,
        card_op: impl Fn(u64, u64) -> Result<u64, ValueError>,
    ) -> Result<Value, ValueError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => int_op(*a, *b).map(Value::Int),
            (Value::Card(a), Value::Card(b)) => card_op(*a, *b).map(Value::Card),
            _ => Err(ValueError::IncompatibleOperands {
                op,
                lhs: *self,
                rhs: *other,
            }),
        }
    }

    /// Checked addition.
    pub fn add(&self, other: &Value) -> Result<Value, ValueError> {
        self.binop(
            other,
            "+",
            |a, b| a.checked_add(b).ok_or(ValueError::Overflow),
            |a, b| a.checked_add(b).ok_or(ValueError::Overflow),
        )
    }

    /// Checked subtraction; `CARDINAL` underflow is an error, matching
    /// MODULA-2 semantics.
    pub fn sub(&self, other: &Value) -> Result<Value, ValueError> {
        self.binop(
            other,
            "-",
            |a, b| a.checked_sub(b).ok_or(ValueError::Overflow),
            |a, b| a.checked_sub(b).ok_or(ValueError::CardinalUnderflow),
        )
    }

    /// Checked multiplication.
    pub fn mul(&self, other: &Value) -> Result<Value, ValueError> {
        self.binop(
            other,
            "*",
            |a, b| a.checked_mul(b).ok_or(ValueError::Overflow),
            |a, b| a.checked_mul(b).ok_or(ValueError::Overflow),
        )
    }

    /// Checked division (`DIV`).
    pub fn div(&self, other: &Value) -> Result<Value, ValueError> {
        self.binop(
            other,
            "DIV",
            |a, b| {
                if b == 0 {
                    Err(ValueError::DivisionByZero)
                } else {
                    a.checked_div(b).ok_or(ValueError::Overflow)
                }
            },
            |a, b| a.checked_div(b).ok_or(ValueError::DivisionByZero),
        )
    }

    /// Checked modulus (`MOD`, as in the paper's `primetype` annotation:
    /// `p MOD n # 0`).
    pub fn rem(&self, other: &Value) -> Result<Value, ValueError> {
        self.binop(
            other,
            "MOD",
            |a, b| {
                if b == 0 {
                    Err(ValueError::DivisionByZero)
                } else {
                    Ok(a.rem_euclid(b))
                }
            },
            |a, b| {
                if b == 0 {
                    Err(ValueError::DivisionByZero)
                } else {
                    Ok(a % b)
                }
            },
        )
    }

    /// Extract a boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Extract an `i64`, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a `u64`, if this is a `Card`.
    pub fn as_card(&self) -> Option<u64> {
        match self {
            Value::Card(c) => Some(*c),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Card(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

/// Total order across all values: within a base type the natural order,
/// across base types an arbitrary but fixed order (Int < Card < Str <
/// Bool). Used for deterministic output ordering, never for predicate
/// semantics (cross-type predicate comparison is a type error).
impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Int(_) => 0,
                Value::Card(_) => 1,
                Value::Str(_) => 2,
                Value::Bool(_) => 3,
            }
        }
        self.try_cmp(other)
            .unwrap_or_else(|| rank(self).cmp(&rank(other)))
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Card(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "\"{v}\""),
            Value::Bool(v) => write!(f, "{}", if *v { "TRUE" } else { "FALSE" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_int() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(Value::Int(2).sub(&Value::Int(3)).unwrap(), Value::Int(-1));
        assert_eq!(Value::Int(4).mul(&Value::Int(3)).unwrap(), Value::Int(12));
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Int(7).rem(&Value::Int(3)).unwrap(), Value::Int(1));
    }

    #[test]
    fn arithmetic_card() {
        assert_eq!(Value::Card(2).add(&Value::Card(3)).unwrap(), Value::Card(5));
        assert_eq!(
            Value::Card(2).sub(&Value::Card(3)),
            Err(ValueError::CardinalUnderflow)
        );
    }

    #[test]
    fn division_by_zero() {
        assert_eq!(
            Value::Int(1).div(&Value::Int(0)),
            Err(ValueError::DivisionByZero)
        );
        assert_eq!(
            Value::Card(1).rem(&Value::Card(0)),
            Err(ValueError::DivisionByZero)
        );
    }

    #[test]
    fn overflow_detected() {
        assert_eq!(
            Value::Int(i64::MAX).add(&Value::Int(1)),
            Err(ValueError::Overflow)
        );
        assert_eq!(
            Value::Card(u64::MAX).mul(&Value::Card(2)),
            Err(ValueError::Overflow)
        );
    }

    #[test]
    fn cross_type_arithmetic_rejected() {
        assert!(matches!(
            Value::Int(1).add(&Value::Card(1)),
            Err(ValueError::IncompatibleOperands { .. })
        ));
    }

    #[test]
    fn mod_euclid_for_negatives() {
        // `p MOD n` in MODULA-2 is non-negative for positive n.
        assert_eq!(Value::Int(-1).rem(&Value::Int(5)).unwrap(), Value::Int(4));
    }

    #[test]
    fn comparisons() {
        assert_eq!(Value::Int(1).try_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("a").try_cmp(&Value::str("b")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Int(1).try_cmp(&Value::Card(1)), None);
    }

    #[test]
    fn total_order_is_total() {
        let mut vals = [
            Value::str("b"),
            Value::Bool(true),
            Value::Int(3),
            Value::Card(1),
            Value::str("a"),
            Value::Int(-1),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Int(-1));
        assert_eq!(vals[1], Value::Int(3));
        assert_eq!(vals[2], Value::Card(1));
        assert_eq!(vals[3], Value::str("a"));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::str("t").to_string(), "\"t\"");
        assert_eq!(Value::Bool(false).to_string(), "FALSE");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3u64), Value::Card(3));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Card(3).as_card(), Some(3));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(1).as_bool(), None);
    }
}
