//! Dynamically typed SQL values and three-valued logic.
//!
//! The paper's correctness arguments (Theorem 3.1) hinge on SQL's NULL
//! semantics: comparison predicates over NULL evaluate to *unknown*, and
//! where-clause truncation discards tuples whose predicate is not *true*.
//! [`Value`] and [`Truth`] implement exactly those semantics.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::schema::DataType;

/// A run-time SQL value.
///
/// Cloning is cheap: strings are reference counted.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Participates in comparisons as *unknown* (see [`Truth`]).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Immutable UTF-8 string.
    Str(Arc<str>),
    /// Boolean (used for materialized predicate results).
    Bool(bool),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True iff this value is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The run-time type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Interpret as `f64` for arithmetic/aggregation. Integers widen.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Interpret as `i64` if integral.
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interpret as string slice.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison: returns [`Truth::Unknown`] if either side is NULL,
    /// and errors on genuinely incomparable run-time types (e.g. string vs
    /// int), which indicates a planning bug rather than a data condition.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(None),
            (Value::Int(a), Value::Int(b)) => Ok(Some(a.cmp(b))),
            (Value::Float(a), Value::Float(b)) => Ok(Some(total_cmp(*a, *b))),
            (Value::Int(a), Value::Float(b)) => Ok(Some(total_cmp(*a as f64, *b))),
            (Value::Float(a), Value::Int(b)) => Ok(Some(total_cmp(*a, *b as f64))),
            (Value::Str(a), Value::Str(b)) => Ok(Some(a.as_ref().cmp(b.as_ref()))),
            (Value::Bool(a), Value::Bool(b)) => Ok(Some(a.cmp(b))),
            (a, b) => Err(Error::TypeMismatch {
                context: "comparison".into(),
                left: format!("{a}"),
                right: format!("{b}"),
            }),
        }
    }

    /// Total ordering used for sorting output and for deterministic
    /// multiset comparison in tests. NULL sorts first; cross-type order is
    /// by type tag. This is *not* SQL comparison semantics.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 2, // numeric types compare by value
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => total_cmp(*a, *b),
            (Value::Int(a), Value::Float(b)) => total_cmp(*a as f64, *b),
            (Value::Float(a), Value::Int(b)) => total_cmp(*a, *b as f64),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }
}

#[inline]
fn total_cmp(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// Grouping equality: NULLs compare equal to each other (SQL `GROUP BY`
/// semantics), floats compare by bit pattern via total order, and `1`
/// (Int) equals `1.0` (Float) so that mixed-type keys group naturally.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and integral floats must hash alike because they compare
            // equal under `total_cmp`.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// SQL three-valued logic.
///
/// Predicates evaluate to one of three truth values. *Where-clause
/// truncation* (\[21\] in the paper) keeps only tuples whose predicate is
/// [`Truth::True`]; both `False` and `Unknown` discard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Truth {
    True,
    False,
    Unknown,
}

impl Truth {
    /// Kleene conjunction.
    #[inline]
    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Kleene disjunction.
    #[inline]
    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Kleene negation: `NOT unknown = unknown`.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// Where-clause truncation: only `True` passes.
    #[inline]
    pub fn passes(self) -> bool {
        self == Truth::True
    }

    /// Lift a two-valued bool.
    #[inline]
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Truth::True => write!(f, "true"),
            Truth::False => write!(f, "false"),
            Truth::Unknown => write!(f, "unknown"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null).unwrap(), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null).unwrap(), None);
    }

    #[test]
    fn numeric_comparisons_coerce() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)).unwrap(),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)).unwrap(),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incomparable_types_error() {
        assert!(Value::Int(1).sql_cmp(&Value::str("x")).is_err());
    }

    #[test]
    fn kleene_tables() {
        use Truth::*;
        // AND
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(False), False);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
        // OR
        assert_eq!(False.or(False), False);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(Unknown.or(Unknown), Unknown);
        // NOT
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(True.not(), False);
    }

    #[test]
    fn where_truncation() {
        assert!(Truth::True.passes());
        assert!(!Truth::False.passes());
        assert!(!Truth::Unknown.passes());
    }

    #[test]
    fn group_equality_treats_null_as_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn int_and_float_group_together() {
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        Value::Int(3).hash(&mut h1);
        Value::Float(3.0).hash(&mut h2);
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::str("HTTP").to_string(), "HTTP");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
    }
}
