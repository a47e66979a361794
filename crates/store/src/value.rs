//! Dynamically-typed cell values with a total order.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The type of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ValueType {
    Null,
    Bool,
    Int,
    Float,
    Text,
}

/// One table cell.
///
/// `Float` cells are ordered with `f64::total_cmp`, so `Value` has a
/// total order and can key B-tree indexes. NaNs are representable but
/// sort after all other floats; inserting them is discouraged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float (totally ordered via `total_cmp`).
    Float(f64),
    /// UTF-8 text: a shared, immutable handle, so cloning a cell (into
    /// a fetched row, a cache entry, a result row) bumps a reference
    /// count instead of copying bytes.
    Text(Arc<str>),
}

impl Value {
    /// The value's type tag.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Text(_) => ValueType::Text,
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view (exact `Int` only).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: `Int` widened to `f64`, `Float` as-is.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Type-tag rank used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // ints and floats compare numerically
            Value::Text(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Cross numeric comparison: widen to f64 (total_cmp keeps
            // the order total).
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash identically when they compare
            // equal; hash the f64 bit pattern of the numeric value,
            // normalizing integral floats through i64 where exact.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(Arc::from(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// A row is a `Vec<Value>` and a gesture returns tens of thousands
    /// of 14-cell rows: a cell stays three words.
    #[test]
    fn a_cell_is_three_words() {
        assert!(std::mem::size_of::<Value>() <= 24);
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Float(2.5));
        assert!(Value::Text("a".into()) < Value::Text("b".into()));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.9) < Value::Int(2));
    }

    #[test]
    fn nulls_sort_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::from(""));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(
            hash_of(&Value::Text("x".into())),
            hash_of(&Value::Text("x".into()))
        );
    }

    #[test]
    fn total_order_with_nan() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // total_cmp: NaN (positive) sorts above all numbers.
        assert!(nan > one);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn views() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Text("hi".into()).as_text(), Some("hi"));
        assert_eq!(Value::Text("hi".into()).as_int(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::from("x"), Value::Text("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Text("a".into()).to_string(), "\"a\"");
    }
}
