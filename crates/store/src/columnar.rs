//! Columnar tables: one typed [`Segment`] per schema column.
//!
//! A [`ColumnarTable`] is the column-oriented counterpart of
//! [`crate::Table`]: same schema language, same predicate semantics,
//! but rows live as contiguous typed buffers so the query executor can
//! take zero-copy [`ColumnSlice`] views and run vectorized kernels
//! over row ranges instead of gathering row ids. A table sorted by an
//! integer column (the Euler-tour leaf rank, in the query engine's
//! use) answers interval scopes with a binary search that yields a
//! contiguous row range — the optimizer's interval rewrite becomes a
//! range-slice, not a row-id gather.

use crate::bitmap::Bitmap;
use crate::expr::BoundPredicate;
use crate::kernel;
use crate::schema::Schema;
use crate::segment::{ColumnSlice, Segment, SegmentData};
use crate::value::{Value, ValueType};
use crate::{Result, StoreError};
use std::ops::Range;

/// A column-oriented table with optional sort metadata.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    name: String,
    schema: Schema,
    segments: Vec<Segment>,
    len: usize,
    /// Column index declared ascending-sorted (non-null Int), if any.
    sorted_by: Option<usize>,
}

impl ColumnarTable {
    /// An empty columnar table for a schema. Every column must have a
    /// storable type (no `ValueType::Null` columns).
    pub fn new(name: impl Into<String>, schema: Schema) -> Result<ColumnarTable> {
        let segments = schema
            .columns()
            .iter()
            .map(|c| Segment::new(c.ty))
            .collect::<Result<Vec<_>>>()?;
        Ok(ColumnarTable {
            name: name.into(),
            schema,
            segments,
            len: 0,
            sorted_by: None,
        })
    }

    /// Build a table by appending rows in order.
    pub fn from_rows<I>(name: impl Into<String>, schema: Schema, rows: I) -> Result<ColumnarTable>
    where
        I: IntoIterator,
        I::Item: AsRef<[Value]>,
    {
        let mut t = ColumnarTable::new(name, schema)?;
        for row in rows {
            t.append_row(row.as_ref())?;
        }
        Ok(t)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The declared sort column, if [`declare_sorted`] has run.
    ///
    /// [`declare_sorted`]: ColumnarTable::declare_sorted
    pub fn sorted_by(&self) -> Option<usize> {
        self.sorted_by
    }

    /// Append one validated row to every segment.
    pub fn append_row(&mut self, row: &[Value]) -> Result<()> {
        self.schema.validate_row(row)?;
        // Pre-check the one failure `validate_row` cannot see (Int in
        // a Float column too wide to widen exactly) so a mid-row error
        // cannot leave segments at different lengths.
        for (cell, seg) in row.iter().zip(&self.segments) {
            if seg.value_type() == ValueType::Float {
                if let Value::Int(i) = cell {
                    if i.abs() > (1 << 53) {
                        return Err(StoreError::Columnar(format!(
                            "integer {i} in a Float column is not exactly representable as f64"
                        )));
                    }
                }
            }
        }
        if let Some(col) = self.sorted_by {
            let last = self
                .len
                .checked_sub(1)
                .map(|i| self.segments[col].slice().value_at(i));
            if row[col].is_null() || matches!(&last, Some(prev) if prev > &row[col]) {
                return Err(StoreError::Columnar(format!(
                    "append violates declared sort order on column {col}"
                )));
            }
        }
        for (cell, seg) in row.iter().zip(&mut self.segments) {
            seg.push_value(cell)?;
        }
        self.len += 1;
        Ok(())
    }

    /// Declare `column` ascending-sorted; verifies it is a fully
    /// non-NULL Int column in non-decreasing order. Enables
    /// [`range_of_i64`] binary searches.
    ///
    /// [`range_of_i64`]: ColumnarTable::range_of_i64
    pub fn declare_sorted(&mut self, column: &str) -> Result<()> {
        let col = self.schema.column_index(column)?;
        let seg = &self.segments[col];
        let SegmentData::Int(data) = seg.data() else {
            return Err(StoreError::Columnar(format!(
                "sort column {column:?} must be Int, is {:?}",
                seg.value_type()
            )));
        };
        if seg.validity().count_ones() != self.len {
            return Err(StoreError::Columnar(format!(
                "sort column {column:?} contains NULLs"
            )));
        }
        if data.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Columnar(format!(
                "column {column:?} is not sorted ascending"
            )));
        }
        self.sorted_by = Some(col);
        Ok(())
    }

    /// The contiguous row range whose sort-column values fall in the
    /// half-open interval `[lo, hi)`. Errors unless a sort column has
    /// been declared.
    pub fn range_of_i64(&self, lo: i64, hi: i64) -> Result<Range<usize>> {
        let col = self.sorted_by.ok_or_else(|| {
            StoreError::Columnar("range_of_i64 requires a declared sort column".to_string())
        })?;
        let SegmentData::Int(data) = self.segments[col].data() else {
            unreachable!("declare_sorted only accepts Int columns");
        };
        let start = data.partition_point(|&v| v < lo);
        let end = data.partition_point(|&v| v < hi);
        Ok(start..end.max(start))
    }

    /// Zero-copy view of one column.
    pub fn column(&self, index: usize) -> ColumnSlice<'_> {
        self.segments[index].slice()
    }

    /// Zero-copy views of every column, in schema order.
    pub fn columns(&self) -> Vec<ColumnSlice<'_>> {
        self.segments.iter().map(Segment::slice).collect()
    }

    /// Materialize one row (generic fallback; hot paths read columns).
    pub fn get_row(&self, index: usize) -> Vec<Value> {
        self.segments
            .iter()
            .map(|s| s.slice().value_at(index))
            .collect()
    }

    /// Evaluate a bound predicate over a row range with the vectorized
    /// kernels, returning a selection bitmap over the whole table.
    pub fn eval(&self, pred: &BoundPredicate, rows: Range<usize>) -> Bitmap {
        let columns = self.columns();
        kernel::eval_predicate(pred, &columns, rows, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CompareOp, Predicate};
    use crate::schema::Column;

    fn activity_schema() -> Schema {
        Schema::new(vec![
            Column::required("leaf_rank", ValueType::Int),
            Column::required("source", ValueType::Text),
            Column::nullable("value_nm", ValueType::Float),
        ])
    }

    fn sample() -> ColumnarTable {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(0), Value::from("assay-a"), Value::Float(10.0)],
            vec![Value::Int(2), Value::from("assay-b"), Value::Float(100.0)],
            vec![Value::Int(2), Value::from("assay-a"), Value::Null],
            vec![Value::Int(5), Value::from("assay-b"), Value::Float(2.5)],
            vec![Value::Int(9), Value::from("assay-a"), Value::Float(7.0)],
        ];
        let mut t = ColumnarTable::from_rows("activity", activity_schema(), rows).unwrap();
        t.declare_sorted("leaf_rank").unwrap();
        t
    }

    #[test]
    fn append_and_read_back() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(
            t.get_row(2),
            vec![Value::Int(2), Value::from("assay-a"), Value::Null]
        );
        assert_eq!(t.sorted_by(), Some(0));
    }

    #[test]
    fn interval_range_binary_search() {
        let t = sample();
        assert_eq!(t.range_of_i64(2, 6).unwrap(), 1..4);
        assert_eq!(t.range_of_i64(0, 10).unwrap(), 0..5);
        assert_eq!(t.range_of_i64(3, 5).unwrap(), 3..3);
        assert_eq!(t.range_of_i64(10, 20).unwrap(), 5..5);
        let unsorted = ColumnarTable::new("x", activity_schema()).unwrap();
        assert!(unsorted.range_of_i64(0, 1).is_err());
    }

    #[test]
    fn sorted_declaration_verifies() {
        let rows = vec![
            vec![Value::Int(5), Value::from("a"), Value::Null],
            vec![Value::Int(3), Value::from("a"), Value::Null],
        ];
        let mut t = ColumnarTable::from_rows("x", activity_schema(), rows).unwrap();
        assert!(t.declare_sorted("leaf_rank").is_err());
        assert!(t.declare_sorted("source").is_err());
        // Appends that would break a declared order are rejected.
        let mut t = sample();
        let bad = vec![Value::Int(1), Value::from("a"), Value::Null];
        assert!(t.append_row(&bad).is_err());
        let ok = vec![Value::Int(9), Value::from("a"), Value::Null];
        t.append_row(&ok).unwrap();
    }

    #[test]
    fn eval_matches_row_semantics() {
        let t = sample();
        let pred = Predicate::And(vec![
            Predicate::eq("source", "assay-a"),
            Predicate::cmp("value_nm", CompareOp::Le, 10.0),
        ])
        .bind(t.schema())
        .unwrap();
        let sel = t.eval(&pred, 0..t.len());
        let expect: Vec<usize> = (0..t.len())
            .filter(|&i| pred.matches(&t.get_row(i)))
            .collect();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), expect);
        assert_eq!(expect, vec![0, 4]);
    }
}
