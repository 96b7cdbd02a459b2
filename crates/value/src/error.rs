//! Error types for the value layer.

use std::fmt;

use crate::domain::Domain;
use crate::value::Value;

/// Errors raised when values are combined or coerced incorrectly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    /// Arithmetic between incompatible values (`1 + "a"`).
    IncompatibleOperands {
        /// Textual operator, e.g. `"+"`.
        op: &'static str,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Division or modulus by zero.
    DivisionByZero,
    /// Integer overflow during arithmetic.
    Overflow,
    /// A `CARDINAL` operation would go below zero (the paper uses
    /// MODULA-2 `CARDINAL` in its `strange` example, §3.3).
    CardinalUnderflow,
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::IncompatibleOperands { op, lhs, rhs } => {
                write!(f, "incompatible operands for `{op}`: {lhs} and {rhs}")
            }
            ValueError::DivisionByZero => write!(f, "division by zero"),
            ValueError::Overflow => write!(f, "integer overflow"),
            ValueError::CardinalUnderflow => write!(f, "CARDINAL result below zero"),
        }
    }
}

impl std::error::Error for ValueError {}

/// Errors raised when a value does not fit a domain or a tuple does not
/// fit a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// The value's base type is not the domain's base type.
    DomainMismatch {
        /// Expected domain.
        expected: Domain,
        /// Offending value.
        value: Value,
    },
    /// The value is of the right base type but violates a subrange
    /// constraint (`RANGE 1..100` with value 200).
    RangeViolation {
        /// Expected domain.
        expected: Domain,
        /// Offending value.
        value: Value,
    },
    /// A tuple has the wrong number of fields for a schema.
    ArityMismatch {
        /// Attributes in the schema.
        expected: usize,
        /// Fields in the tuple.
        actual: usize,
    },
    /// An attribute name was not found in a schema.
    UnknownAttribute {
        /// The name that failed to resolve.
        name: String,
    },
    /// Two schemas that had to be identical were not.
    SchemaMismatch {
        /// Description of the context in which the mismatch occurred.
        context: String,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::DomainMismatch { expected, value } => {
                write!(f, "value {value} does not belong to domain {expected}")
            }
            TypeError::RangeViolation { expected, value } => {
                write!(f, "value {value} violates range constraint of {expected}")
            }
            TypeError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "tuple arity {actual} does not match schema arity {expected}"
                )
            }
            TypeError::UnknownAttribute { name } => {
                write!(f, "unknown attribute `{name}`")
            }
            TypeError::SchemaMismatch { context } => {
                write!(f, "schema mismatch: {context}")
            }
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = ValueError::IncompatibleOperands {
            op: "+",
            lhs: Value::Int(1),
            rhs: Value::str("a"),
        };
        assert!(e.to_string().contains('+'));
        let t = TypeError::ArityMismatch {
            expected: 2,
            actual: 3,
        };
        assert!(t.to_string().contains('3'));
        let u = TypeError::UnknownAttribute {
            name: "front".into(),
        };
        assert!(u.to_string().contains("front"));
    }
}
