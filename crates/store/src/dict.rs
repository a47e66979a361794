//! Dictionary encoding for low-cardinality string columns.
//!
//! Predicate columns like `source` and `activity_type` hold a handful
//! of distinct strings repeated across millions of rows. A
//! [`Dictionary`] interns each distinct string once and the segment
//! stores one `u32` code per row, so equality and set-membership
//! kernels compare integers (or pre-computed per-code verdicts)
//! instead of walking bytes.

use rustc_hash::FxHashMap;

/// An append-only intern table mapping strings to dense `u32` codes.
///
/// Codes are assigned in first-intern order and never change, so a
/// segment's code vector stays valid as new values arrive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dictionary {
    values: Vec<String>,
    map: FxHashMap<String, u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Rebuild a dictionary from a code-ordered value list (snapshot
    /// loading). Duplicate values would make codes ambiguous.
    pub fn from_values(values: Vec<String>) -> crate::Result<Dictionary> {
        let mut map = FxHashMap::default();
        for (code, v) in values.iter().enumerate() {
            if map.insert(v.clone(), code as u32).is_some() {
                return Err(crate::StoreError::Columnar(format!(
                    "duplicate dictionary value {v:?}"
                )));
            }
        }
        Ok(Dictionary { values, map })
    }

    /// Intern `s`, returning its code (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.map.get(s) {
            return code;
        }
        let code = self.values.len() as u32;
        self.values.push(s.to_owned());
        self.map.insert(s.to_owned(), code);
        code
    }

    /// The string for `code`.
    pub fn value_of(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
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
    pub fn values(&self) -> &[String] {
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
        let a = d.intern("assay-a");
        let b = d.intern("assay-b");
        assert_eq!(d.intern("assay-a"), a);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.value_of(a), Some("assay-a"));
        assert_eq!(d.value_of(99), None);
        assert_eq!(d.values(), &["assay-a".to_owned(), "assay-b".to_owned()]);
    }
}
