//! Typed columnar segments and zero-copy column views.
//!
//! A [`Segment`] stores one column as a contiguous typed buffer — one
//! `Vec<i64>`/`Vec<f64>`/`Vec<bool>` per numeric/boolean column, or a
//! `Vec<u32>` of codes plus a [`Dictionary`] for strings — paired with
//! a validity [`Bitmap`] (bit set ⇔ cell non-NULL). NULL cells occupy
//! a default slot in the typed buffer so offsets stay dense.
//!
//! Executors never copy the data out: a [`ColumnSlice`] borrows the
//! buffers and is `Copy`, so kernels receive plain slices the compiler
//! can auto-vectorize over.

use crate::bitmap::Bitmap;
use crate::dict::Dictionary;
use crate::value::{Value, ValueType};
use crate::{Result, StoreError};
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Largest `i64` magnitude exactly representable as `f64`. Ints wider
/// than this cannot be widened into a Float segment without changing
/// comparison results versus the row path's exact `i64` ordering.
const MAX_EXACT_INT_IN_F64: i64 = 1 << 53;

/// The typed buffer behind one column.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats (`Int` cells widened where exact).
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dictionary-encoded strings: one code per row.
    Str {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The intern table the codes point into.
        dict: Dictionary,
    },
}

/// One column of a columnar table: typed data plus validity.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    data: SegmentData,
    validity: Bitmap,
}

impl Segment {
    /// An empty segment for a declared column type. `ValueType::Null`
    /// is not a storable column type.
    pub fn new(ty: ValueType) -> Result<Segment> {
        let data = match ty {
            ValueType::Int => SegmentData::Int(Vec::new()),
            ValueType::Float => SegmentData::Float(Vec::new()),
            ValueType::Bool => SegmentData::Bool(Vec::new()),
            ValueType::Text => SegmentData::Str {
                codes: Vec::new(),
                dict: Dictionary::new(),
            },
            ValueType::Null => {
                return Err(StoreError::Columnar(
                    "Null is not a storable column type".to_string(),
                ))
            }
        };
        Ok(Segment {
            data,
            validity: Bitmap::new(0),
        })
    }

    /// A segment over a filled typed buffer, every cell valid: the bulk
    /// form of [`push_value`](Segment::push_value), for a builder that
    /// typed its cells already. A `Str` buffer's codes must be the
    /// dictionary's.
    pub fn from_data(data: SegmentData) -> Segment {
        let len = match &data {
            SegmentData::Int(d) => d.len(),
            SegmentData::Float(d) => d.len(),
            SegmentData::Bool(d) => d.len(),
            SegmentData::Str { codes, .. } => codes.len(),
        };
        Segment {
            data,
            validity: Bitmap::full(len),
        }
    }

    /// The cells at `rows`, in that order, as a new segment of this
    /// type: numbers and flags are copied from the typed buffer, and
    /// text is re-coded into a dictionary of the distinct strings met,
    /// which holds this segment dictionary's own allocations, so no
    /// text is copied or hashed. `complete` says every cell is valid
    /// (the column is required), which spares a validity test per row.
    /// Panics past the segment's rows, as slice indexing does.
    pub(crate) fn gather(&self, rows: &[u32], complete: bool) -> Segment {
        let valid = |r: u32| complete || self.validity.get(r as usize);
        let validity = if complete {
            Bitmap::full(rows.len())
        } else {
            let mut validity = Bitmap::new(rows.len());
            for (i, &r) in rows.iter().enumerate() {
                if valid(r) {
                    validity.set(i);
                }
            }
            validity
        };
        let data = match &self.data {
            SegmentData::Int(d) => SegmentData::Int(rows.iter().map(|&r| d[r as usize]).collect()),
            SegmentData::Float(d) => {
                SegmentData::Float(rows.iter().map(|&r| d[r as usize]).collect())
            }
            SegmentData::Bool(d) => {
                SegmentData::Bool(rows.iter().map(|&r| d[r as usize]).collect())
            }
            // A lookup table when the dictionary is not much larger than
            // the gather, a hash map when it is.
            SegmentData::Str { codes, dict } if dict.len() <= 4 * rows.len() => {
                recode(rows, codes, dict, valid, &mut vec![u32::MAX; dict.len()])
            }
            SegmentData::Str { codes, dict } => {
                recode(rows, codes, dict, valid, &mut FxHashMap::default())
            }
        };
        Segment { data, validity }
    }

    /// Number of rows (valid or not).
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True when the segment holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Append one cell. NULL stores a default slot with validity 0;
    /// type mismatches (beyond the schema's Int→Float widening) error.
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            match &mut self.data {
                SegmentData::Int(d) => d.push(0),
                SegmentData::Float(d) => d.push(0.0),
                SegmentData::Bool(d) => d.push(false),
                SegmentData::Str { codes, .. } => codes.push(0),
            }
            self.validity.push(false);
            return Ok(());
        }
        match (&mut self.data, v) {
            (SegmentData::Int(d), Value::Int(i)) => d.push(*i),
            (SegmentData::Float(d), Value::Float(f)) => d.push(*f),
            // The schema admits Int cells in Float columns; widen only
            // where exact so kernel comparisons replicate `Value::cmp`.
            (SegmentData::Float(d), Value::Int(i)) => {
                if i.abs() > MAX_EXACT_INT_IN_F64 {
                    return Err(StoreError::Columnar(format!(
                        "integer {i} in a Float column is not exactly representable as f64"
                    )));
                }
                d.push(*i as f64);
            }
            (SegmentData::Bool(d), Value::Bool(b)) => d.push(*b),
            (SegmentData::Str { codes, dict }, Value::Text(s)) => {
                codes.push(dict.intern(s));
            }
            (_, v) => {
                return Err(StoreError::TypeMismatch {
                    column: String::new(),
                    expected: self.value_type(),
                    got: v.value_type(),
                })
            }
        }
        self.validity.push(true);
        Ok(())
    }

    /// The declared column type.
    pub fn value_type(&self) -> ValueType {
        match &self.data {
            SegmentData::Int(_) => ValueType::Int,
            SegmentData::Float(_) => ValueType::Float,
            SegmentData::Bool(_) => ValueType::Bool,
            SegmentData::Str { .. } => ValueType::Text,
        }
    }

    /// Zero-copy view of the whole segment.
    pub fn slice(&self) -> ColumnSlice<'_> {
        let data = match &self.data {
            SegmentData::Int(d) => ColumnData::Int(d),
            SegmentData::Float(d) => ColumnData::Float(d),
            SegmentData::Bool(d) => ColumnData::Bool(d),
            SegmentData::Str { codes, dict } => ColumnData::Str { codes, dict },
        };
        ColumnSlice {
            data,
            validity: &self.validity,
        }
    }

    /// The raw typed buffer (row-aligned with `validity`).
    pub fn data(&self) -> &SegmentData {
        &self.data
    }

    /// The validity bitmap (bit set ⇔ non-NULL).
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }
}

/// A source dictionary's codes mapped to a gathered segment's, each
/// `u32::MAX` until assigned.
trait Recoded {
    fn slot(&mut self, code: u32) -> &mut u32;
}

impl Recoded for Vec<u32> {
    fn slot(&mut self, code: u32) -> &mut u32 {
        &mut self[code as usize]
    }
}

impl Recoded for FxHashMap<u32, u32> {
    fn slot(&mut self, code: u32) -> &mut u32 {
        self.entry(code).or_insert(u32::MAX)
    }
}

/// The text cells at `rows`, re-coded into a dictionary of the distinct
/// strings met, in first-met order.
fn recode(
    rows: &[u32],
    codes: &[u32],
    dict: &Dictionary,
    valid: impl Fn(u32) -> bool,
    recoded: &mut impl Recoded,
) -> SegmentData {
    let mut values: Vec<Arc<str>> = Vec::new();
    // Rows of one key arrive in a run: the previous cell's code answers
    // most of them without a lookup.
    let mut last = (u32::MAX, 0);
    let codes = rows
        .iter()
        .map(|&r| {
            // A NULL cell keeps a placeholder code, as `push_value`
            // stores one.
            if !valid(r) {
                return 0;
            }
            let code = codes[r as usize];
            if code != last.0 {
                let slot = recoded.slot(code);
                if *slot == u32::MAX {
                    values.push(Arc::clone(&dict.values()[code as usize]));
                    *slot = values.len() as u32 - 1;
                }
                last = (code, *slot);
            }
            last.1
        })
        .collect();
    SegmentData::Str {
        codes,
        dict: Dictionary::from_distinct(values),
    }
}

/// Borrowed typed column data.
#[derive(Debug, Clone, Copy)]
pub enum ColumnData<'a> {
    /// 64-bit integers.
    Int(&'a [i64]),
    /// 64-bit floats.
    Float(&'a [f64]),
    /// Booleans.
    Bool(&'a [bool]),
    /// Dictionary codes plus the intern table.
    Str {
        /// Per-row dictionary codes.
        codes: &'a [u32],
        /// The intern table the codes point into.
        dict: &'a Dictionary,
    },
}

/// A zero-copy view of one column: typed buffer plus validity. `Copy`,
/// so kernels take it by value.
#[derive(Debug, Clone, Copy)]
pub struct ColumnSlice<'a> {
    /// The typed buffer.
    pub data: ColumnData<'a>,
    /// Validity bitmap (bit set ⇔ non-NULL).
    pub validity: &'a Bitmap,
}

impl<'a> ColumnSlice<'a> {
    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True when the view covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Materialize one cell as a [`Value`] (generic fallback path;
    /// kernels use the typed buffers directly).
    pub fn value_at(&self, i: usize) -> Value {
        if !self.validity.get(i) {
            return Value::Null;
        }
        match self.data {
            ColumnData::Int(d) => Value::Int(d[i]),
            ColumnData::Float(d) => Value::Float(d[i]),
            ColumnData::Bool(d) => Value::Bool(d[i]),
            ColumnData::Str { codes, dict } => {
                dict.cell_of(codes[i]).unwrap_or_else(|| Value::from(""))
            }
        }
    }

    /// The integer in cell `i`, read from the typed buffer (as
    /// [`Value::as_int`] reads it): `None` for a NULL cell or a column
    /// that is not `Int`.
    #[inline]
    pub fn int_at(&self, i: usize) -> Option<i64> {
        match self.data {
            ColumnData::Int(d) if self.validity.get(i) => Some(d[i]),
            _ => None,
        }
    }

    /// The numeric view of cell `i` (`Int` widened to `f64`, as
    /// [`Value::as_f64`] reads it), read from the typed buffer: `None`
    /// for a NULL cell or a column that is not numeric.
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if !self.validity.get(i) {
            return None;
        }
        match self.data {
            ColumnData::Float(d) => Some(d[i]),
            ColumnData::Int(d) => Some(d[i] as f64),
            ColumnData::Bool(_) | ColumnData::Str { .. } => None,
        }
    }

    /// The text of cell `i`, borrowed from the column's dictionary, so
    /// no handle is cloned: `None` for a NULL cell or a column that is
    /// not text.
    pub fn text_at(&self, i: usize) -> Option<&'a str> {
        match self.data {
            ColumnData::Str { codes, dict } if self.validity.get(i) => {
                dict.values().get(codes[i] as usize).map(|s| &**s)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_push_and_read_back() {
        let mut s = Segment::new(ValueType::Int).unwrap();
        s.push_value(&Value::Int(5)).unwrap();
        s.push_value(&Value::Null).unwrap();
        s.push_value(&Value::Int(-3)).unwrap();
        assert_eq!(s.len(), 3);
        let v = s.slice();
        assert_eq!(v.value_at(0), Value::Int(5));
        assert_eq!(v.value_at(1), Value::Null);
        assert_eq!(v.value_at(2), Value::Int(-3));
        assert!(matches!(s.data(), SegmentData::Int(d) if d == &[5, 0, -3]));
    }

    #[test]
    fn float_widens_exact_ints_only() {
        let mut s = Segment::new(ValueType::Float).unwrap();
        s.push_value(&Value::Int(7)).unwrap();
        s.push_value(&Value::Float(2.5)).unwrap();
        assert_eq!(s.slice().value_at(0), Value::Float(7.0));
        let giant = Value::Int((1 << 53) + 1);
        assert!(matches!(s.push_value(&giant), Err(StoreError::Columnar(_))));
    }

    #[test]
    fn strings_dictionary_encode() {
        let mut s = Segment::new(ValueType::Text).unwrap();
        for v in ["a", "b", "a", "a"] {
            s.push_value(&Value::from(v)).unwrap();
        }
        match s.data() {
            SegmentData::Str { codes, dict } => {
                assert_eq!(codes, &[0, 1, 0, 0]);
                assert_eq!(dict.len(), 2);
            }
            other => panic!("unexpected data {other:?}"),
        }
        assert_eq!(s.slice().value_at(3), Value::from("a"));
        s.push_value(&Value::Null).unwrap();
        let texts: Vec<_> = (0..5).map(|i| s.slice().text_at(i)).collect();
        assert_eq!(texts, [Some("a"), Some("b"), Some("a"), Some("a"), None]);
        // A text is the dictionary's one allocation, whichever row.
        let at = |i| s.slice().text_at(i).unwrap().as_ptr();
        assert_eq!(at(0), at(3));
        let mut ints = Segment::new(ValueType::Int).unwrap();
        ints.push_value(&Value::Int(1)).unwrap();
        assert_eq!(ints.slice().text_at(0), None);
        assert_eq!(s.slice().int_at(0), None);
        assert_eq!(s.slice().f64_at(0), None);
    }

    #[test]
    fn typed_getters_read_what_value_at_reads() {
        let mut ints = Segment::new(ValueType::Int).unwrap();
        let mut floats = Segment::new(ValueType::Float).unwrap();
        for v in [Value::Int(-3), Value::Null, Value::Int(7)] {
            ints.push_value(&v).unwrap();
            floats.push_value(&v).unwrap();
        }
        floats.push_value(&Value::Float(2.5)).unwrap();
        for i in 0..3 {
            let cell = ints.slice().value_at(i);
            assert_eq!(ints.slice().int_at(i), cell.as_int());
            assert_eq!(ints.slice().f64_at(i), cell.as_f64());
        }
        for i in 0..4 {
            let cell = floats.slice().value_at(i);
            assert_eq!(floats.slice().f64_at(i), cell.as_f64());
            assert_eq!(floats.slice().int_at(i), None);
        }
    }

    #[test]
    fn a_filled_buffer_reads_as_pushed_cells() {
        let mut dict = Dictionary::new();
        let codes = ["b", "a", "b"].map(|t| dict.intern(&t.into())).to_vec();
        let texts = Segment::from_data(SegmentData::Str { codes, dict });
        let mut pushed = Segment::new(ValueType::Text).unwrap();
        for t in ["b", "a", "b"] {
            pushed.push_value(&Value::from(t)).unwrap();
        }
        assert_eq!(texts, pushed);
        let floats = Segment::from_data(SegmentData::Float(vec![1.5, -2.0]));
        assert_eq!(floats.len(), 2);
        assert_eq!(floats.validity().count_ones(), 2);
        assert_eq!(floats.slice().f64_at(1), Some(-2.0));
        assert!(Segment::from_data(SegmentData::Int(Vec::new())).is_empty());
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut s = Segment::new(ValueType::Int).unwrap();
        assert!(matches!(
            s.push_value(&Value::from("x")),
            Err(StoreError::TypeMismatch { .. })
        ));
        assert!(Segment::new(ValueType::Null).is_err());
    }
}
