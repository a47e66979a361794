//! Error type for the embedded store.

use crate::value::ValueType;
use std::fmt;

/// Errors from schema validation, inserts, queries, or snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A column name that does not exist in the schema.
    UnknownColumn(String),
    /// A table name that does not exist in the catalog.
    UnknownTable(String),
    /// A table with the same name already exists.
    DuplicateTable(String),
    /// A row's arity or a cell's type does not match the schema.
    TypeMismatch {
        /// Offending column.
        column: String,
        /// Schema type.
        expected: ValueType,
        /// Supplied type.
        got: ValueType,
    },
    /// Row arity differs from the schema's column count.
    ArityMismatch {
        /// Schema arity.
        expected: usize,
        /// Supplied arity.
        got: usize,
    },
    /// NULL in a non-nullable column.
    NullViolation(String),
    /// Snapshot (de)serialization failed.
    Snapshot(String),
    /// Table invariant violation (sort order, exact-widening limits,
    /// key index ordinals).
    Columnar(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            StoreError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            StoreError::DuplicateTable(t) => write!(f, "table {t:?} already exists"),
            StoreError::TypeMismatch {
                column,
                expected,
                got,
            } => {
                write!(f, "column {column:?} expects {expected:?}, got {got:?}")
            }
            StoreError::ArityMismatch { expected, got } => {
                write!(f, "row arity {got} does not match schema arity {expected}")
            }
            StoreError::NullViolation(c) => {
                write!(f, "NULL in non-nullable column {c:?}")
            }
            StoreError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            StoreError::Columnar(msg) => write!(f, "columnar error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        let e = StoreError::TypeMismatch {
            column: "mw".into(),
            expected: ValueType::Float,
            got: ValueType::Text,
        };
        let s = e.to_string();
        assert!(s.contains("mw") && s.contains("Float") && s.contains("Text"));
    }
}
