//! Scalar domains: the DBPL type calculus of the paper's §2.1.
//!
//! The paper illustrates types as domain predicates:
//!
//! ```text
//! partidtype IS RANGE 1..100
//! partidtype = { EACH p IN integer: 1 <= p AND p <= 100 }
//! ```
//!
//! [`Domain`] captures exactly that expressible fragment: base types plus
//! subrange restrictions. Admission checking ([`Domain::check`]) is the
//! run-time test the paper's type checker compiles to
//! (`IF (1<=ix) AND (ix<=100) THEN p:=ix ELSE <exception>`).

use std::fmt;

use crate::error::TypeError;
use crate::value::Value;

/// A scalar domain (DBPL base type, possibly range-restricted).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Signed integers (`INTEGER`).
    Int,
    /// Unsigned integers (`CARDINAL`, used by the paper's `strange`
    /// constructor example, §3.3).
    Card,
    /// Strings (`parttype` keys like `"table"` in the `hidden_by`
    /// selector example, §3.1).
    Str,
    /// Booleans.
    Bool,
    /// `RANGE lo..hi` over `INTEGER`, inclusive on both ends.
    IntRange(i64, i64),
    /// `RANGE lo..hi` over `CARDINAL`, inclusive on both ends.
    CardRange(u64, u64),
}

impl Domain {
    /// The base domain with range restrictions stripped.
    pub fn base(&self) -> Domain {
        match self {
            Domain::IntRange(..) => Domain::Int,
            Domain::CardRange(..) => Domain::Card,
            other => other.clone(),
        }
    }

    /// Does `value` belong to this domain's base type, regardless of any
    /// range constraint?
    pub fn admits_base(&self, value: &Value) -> bool {
        matches!(
            (self.base(), value),
            (Domain::Int, Value::Int(_))
                | (Domain::Card, Value::Card(_))
                | (Domain::Str, Value::Str(_))
                | (Domain::Bool, Value::Bool(_))
        )
    }

    /// Full admission check: base type and range constraint.
    ///
    /// Mirrors the run-time code the paper's type checker generates for
    /// subtype assignment (§2.1).
    pub fn check(&self, value: &Value) -> Result<(), TypeError> {
        if !self.admits_base(value) {
            return Err(TypeError::DomainMismatch {
                expected: self.clone(),
                value: *value,
            });
        }
        let in_range = match (self, value) {
            (Domain::IntRange(lo, hi), Value::Int(v)) => lo <= v && v <= hi,
            (Domain::CardRange(lo, hi), Value::Card(v)) => lo <= v && v <= hi,
            _ => true,
        };
        if in_range {
            Ok(())
        } else {
            Err(TypeError::RangeViolation {
                expected: self.clone(),
                value: *value,
            })
        }
    }

    /// Are two domains compatible for comparison purposes (same base)?
    pub fn comparable_with(&self, other: &Domain) -> bool {
        self.base() == other.base()
    }

    /// Is this a numeric domain (arithmetic allowed)?
    pub fn is_numeric(&self) -> bool {
        matches!(self.base(), Domain::Int | Domain::Card)
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Int => write!(f, "INTEGER"),
            Domain::Card => write!(f, "CARDINAL"),
            Domain::Str => write!(f, "STRING"),
            Domain::Bool => write!(f, "BOOLEAN"),
            Domain::IntRange(lo, hi) => write!(f, "RANGE {lo}..{hi}"),
            Domain::CardRange(lo, hi) => write!(f, "CARDINAL RANGE {lo}..{hi}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_strips_ranges() {
        assert_eq!(Domain::IntRange(1, 100).base(), Domain::Int);
        assert_eq!(Domain::CardRange(0, 9).base(), Domain::Card);
        assert_eq!(Domain::Str.base(), Domain::Str);
    }

    #[test]
    fn admits_base_types() {
        assert!(Domain::Int.admits_base(&Value::Int(-3)));
        assert!(!Domain::Int.admits_base(&Value::Card(3)));
        assert!(Domain::Str.admits_base(&Value::str("t")));
        assert!(Domain::Bool.admits_base(&Value::Bool(true)));
    }

    #[test]
    fn partidtype_range_example() {
        // The paper's `partidtype IS RANGE 1..100`.
        let partid = Domain::IntRange(1, 100);
        assert!(partid.check(&Value::Int(1)).is_ok());
        assert!(partid.check(&Value::Int(100)).is_ok());
        assert!(matches!(
            partid.check(&Value::Int(0)),
            Err(TypeError::RangeViolation { .. })
        ));
        assert!(matches!(
            partid.check(&Value::str("x")),
            Err(TypeError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn cardinal_range() {
        let d = Domain::CardRange(2, 5);
        assert!(d.check(&Value::Card(2)).is_ok());
        assert!(d.check(&Value::Card(6)).is_err());
        assert!(d.check(&Value::Int(3)).is_err());
    }

    #[test]
    fn comparability() {
        assert!(Domain::IntRange(1, 5).comparable_with(&Domain::Int));
        assert!(!Domain::Int.comparable_with(&Domain::Card));
        assert!(Domain::Int.is_numeric());
        assert!(Domain::Card.is_numeric());
        assert!(!Domain::Str.is_numeric());
    }

    #[test]
    fn display() {
        assert_eq!(Domain::IntRange(1, 100).to_string(), "RANGE 1..100");
        assert_eq!(Domain::Card.to_string(), "CARDINAL");
    }
}
