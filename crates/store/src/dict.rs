//! Dictionary encoding for low-cardinality string columns.
//!
//! Predicate columns like `source` and `activity_type` hold a handful
//! of distinct strings repeated across millions of rows. A
//! [`Dictionary`] interns each distinct string once and the segment
//! stores one `u32` code per row, so equality and set-membership
//! kernels compare integers (or pre-computed per-code verdicts)
//! instead of walking bytes.
//!
//! The same table is the store's text pool: [`Dictionary::cell_of`]
//! hands out the one shared [`Value::Text`] allocation per distinct
//! string, which is how a source's table keeps a million rows naming a
//! few thousand accessions and ligands from owning a million copies,
//! and how every batch it ships shares them: a gathered segment's
//! dictionary holds the same allocations (`Segment::gather`).

use crate::value::Value;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// An append-only intern table mapping strings to dense `u32` codes.
///
/// Codes are assigned in first-intern order and never change, so a
/// segment's code vector stays valid as new values arrive.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    /// Codes by string. A dictionary gathered from another's strings
    /// starts without it and builds it on its first intern, so a batch
    /// that is only read never hashes its text.
    map: FxHashMap<Arc<str>, u32>,
}

impl PartialEq for Dictionary {
    fn eq(&self, other: &Dictionary) -> bool {
        self.values == other.values
    }
}

impl Eq for Dictionary {}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// A dictionary of `values`, coded in order, for a builder that
    /// deduplicated them already: no string is hashed until something is
    /// interned. The values must be distinct; a repeated string would
    /// hold two codes.
    pub fn from_distinct(values: Vec<Arc<str>>) -> Dictionary {
        debug_assert!(
            values.len()
                == values
                    .iter()
                    .collect::<std::collections::HashSet<_>>()
                    .len(),
            "the values of a dictionary are distinct"
        );
        Dictionary {
            values,
            map: FxHashMap::default(),
        }
    }

    /// Intern `s`, returning its code (existing or freshly assigned).
    /// A new string keeps the caller's allocation, so interning copies
    /// no bytes, and a repeat allocates nothing.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        if self.map.len() < self.values.len() {
            self.map = (0..)
                .zip(&self.values)
                .map(|(code, s)| (Arc::clone(s), code))
                .collect();
        }
        if let Some(&code) = self.map.get(&**s) {
            return code;
        }
        let code = self.values.len() as u32;
        self.values.push(Arc::clone(s));
        self.map.insert(Arc::clone(s), code);
        code
    }

    /// The shared text cell for `code`: every call for one code returns
    /// a handle to the same allocation.
    pub fn cell_of(&self, code: u32) -> Option<Value> {
        self.values
            .get(code as usize)
            .map(|s| Value::Text(Arc::clone(s)))
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All interned strings in code order.
    pub fn values(&self) -> &[Arc<str>] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        assert!(d.is_empty());
        let a = d.intern(&Arc::from("assay-a"));
        let b = d.intern(&Arc::from("assay-b"));
        assert_eq!(d.intern(&Arc::from("assay-a")), a);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.values(), &[Arc::from("assay-a"), Arc::from("assay-b")]);
    }

    #[test]
    fn cells_of_equal_strings_share_one_allocation() {
        let mut d = Dictionary::new();
        let a = d.intern(&Arc::from("P00001"));
        let a = d.cell_of(a).unwrap();
        let b = d.intern(&Arc::from(String::from("P00001")));
        let b = d.cell_of(b).unwrap();
        let (Value::Text(a), Value::Text(b)) = (&a, &b) else {
            panic!("text cells");
        };
        assert!(Arc::ptr_eq(a, b));
        let Some(Value::Text(c)) = d.cell_of(0) else {
            panic!("code 0 is interned");
        };
        assert!(Arc::ptr_eq(a, &c));
        assert_eq!(d.len(), 1);
        assert_eq!(d.cell_of(1), None);
    }

    #[test]
    fn a_gathered_dictionary_interns_as_a_built_one() {
        let mut d = Dictionary::from_distinct(vec![Arc::from("L2"), Arc::from("L1")]);
        assert_eq!(d.intern(&Arc::from("L1")), 1);
        assert_eq!(d.intern(&Arc::from("L3")), 2);
        assert_eq!(d.intern(&Arc::from("L2")), 0);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn an_intern_keeps_the_first_allocation() {
        let mut d = Dictionary::new();
        let first: Arc<str> = Arc::from("L1");
        assert_eq!(d.intern(&first), 0);
        assert_eq!(d.intern(&Arc::from("L1")), 0);
        assert!(Arc::ptr_eq(&d.values()[0], &first));
        assert_eq!(d.intern(&Arc::from("L2")), 1);
    }
}
