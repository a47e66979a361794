//! Tables: one typed [`Segment`] per schema column, with at most one
//! hash key index.
//!
//! Rows are addressed by ordinal and built on demand ([`Table::row`],
//! [`Table::cell`]); what the store holds is the columns. The query
//! executor takes zero-copy [`ColumnSlice`] views and runs vectorized
//! kernels over row ranges instead of gathering rows. A table is built
//! a row at a time ([`Table::append_row`]), from filled segments at
//! once ([`Table::from_segments`]), or gathered from another table's
//! rows by position ([`Table::gather`]: what a source ships). A keyed
//! table (a source's federation key, the overlay's ligand id) answers
//! equality on its key column from a hash index that
//! [`Table::append_row`] keeps current.

use crate::bitmap::Bitmap;
use crate::expr::BoundPredicate;
use crate::kernel;
use crate::schema::Schema;
use crate::segment::{ColumnSlice, Segment};
use crate::value::{Value, ValueType};
use crate::{Result, StoreError};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// Largest `Int` magnitude a Float column accepts: wider integers have
/// no exact `f64`, so the segment could not hold them unchanged.
const MAX_EXACT_INT_IN_F64: u64 = 1 << 53;

/// The index of a table's key column: its rows by key cell, in append
/// order.
#[derive(Debug, Clone)]
struct KeyIndex {
    column: usize,
    rows: FxHashMap<Value, Vec<u32>>,
}

/// A column-oriented table with an optional key index.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    /// Shared, so tables built to one schema do not each copy it.
    schema: Arc<Schema>,
    segments: Vec<Segment>,
    len: usize,
    key: Option<KeyIndex>,
}

impl Table {
    /// An empty table for a schema. Every column must have a storable
    /// type (no `ValueType::Null` columns).
    pub fn new(name: impl Into<String>, schema: impl Into<Arc<Schema>>) -> Result<Table> {
        let schema = schema.into();
        let segments = schema
            .columns()
            .iter()
            .map(|c| Segment::new(c.ty))
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            name: name.into(),
            schema,
            segments,
            len: 0,
            key: None,
        })
    }

    /// Build a table by appending rows in order.
    pub fn from_rows<I>(
        name: impl Into<String>,
        schema: impl Into<Arc<Schema>>,
        rows: I,
    ) -> Result<Table>
    where
        I: IntoIterator,
        I::Item: AsRef<[Value]>,
    {
        let mut t = Table::new(name, schema)?;
        for row in rows {
            t.append_row(row.as_ref())?;
        }
        Ok(t)
    }

    /// A table over filled segments, one per schema column in order and
    /// all of one length: the bulk form of appending rows. A segment of
    /// another type or length, or a NULL in a required column, is
    /// refused.
    pub fn from_segments(
        name: impl Into<String>,
        schema: impl Into<Arc<Schema>>,
        segments: Vec<Segment>,
    ) -> Result<Table> {
        let schema = schema.into();
        let len = segments.first().map_or(0, Segment::len);
        if segments.len() != schema.arity() || u32::try_from(len).is_err() {
            return Err(StoreError::Columnar(format!(
                "{} segments of {len} rows for {} columns",
                segments.len(),
                schema.arity()
            )));
        }
        for (column, segment) in schema.columns().iter().zip(&segments) {
            let complete = column.nullable || segment.validity().count_ones() == len;
            if segment.value_type() != column.ty || segment.len() != len || !complete {
                return Err(StoreError::Columnar(format!(
                    "segment does not fit column {:?}",
                    column.name
                )));
            }
        }
        Ok(Table {
            name: name.into(),
            schema,
            segments,
            len,
            key: None,
        })
    }

    /// The rows at `rows`, in that order, of the columns at `columns`,
    /// in that order, as a new unkeyed table: numbers are copied from
    /// the typed buffers, and text is re-coded into a dictionary per
    /// column of the distinct strings gathered, holding this table's
    /// allocations, so no text is copied or hashed. Taking every column
    /// in schema order shares the schema too. Panics past the table's
    /// rows or columns, as slice indexing does.
    pub fn gather(&self, rows: &[u32], columns: &[usize]) -> Table {
        let schema = if columns.iter().copied().eq(0..self.schema.arity()) {
            Arc::clone(&self.schema)
        } else {
            let all = self.schema.columns();
            Arc::new(Schema::new(
                columns.iter().map(|&c| all[c].clone()).collect(),
            ))
        };
        Table {
            name: self.name.clone(),
            schema,
            // A required column holds no NULL (`append_row` and
            // `from_segments` refuse one).
            segments: columns
                .iter()
                .map(|&c| self.segments[c].gather(rows, !self.schema.columns()[c].nullable))
                .collect(),
            len: rows.len(),
            key: None,
        }
    }

    /// Make `column` the table's key: its rows are indexed by their
    /// cell in it, now and on every later append. Replaces any key
    /// declared before.
    pub fn with_key(mut self, column: &str) -> Result<Table> {
        let column = self.schema.column_index(column)?;
        let mut rows: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
        for i in 0..self.len {
            // `append_row` keeps every ordinal within `u32`.
            rows.entry(self.cell(i, column)).or_default().push(i as u32);
        }
        self.key = Some(KeyIndex { column, rows });
        Ok(self)
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

    /// The key column, if [`with_key`] declared one.
    ///
    /// [`with_key`]: Table::with_key
    pub fn key_column(&self) -> Option<usize> {
        self.key.as_ref().map(|k| k.column)
    }

    /// Append one validated row to every segment and the key index.
    /// An error leaves the table as it was.
    pub fn append_row(&mut self, row: &[Value]) -> Result<()> {
        self.schema.validate_row(row)?;
        // Pre-check the failures `validate_row` cannot see (an Int in a
        // Float column too wide to widen exactly, a row past the key
        // index's `u32` ordinals) so a mid-row error cannot leave
        // segments at different lengths.
        for (cell, seg) in row.iter().zip(&self.segments) {
            if let (ValueType::Float, Value::Int(i)) = (seg.value_type(), cell) {
                if i.unsigned_abs() > MAX_EXACT_INT_IN_F64 {
                    return Err(StoreError::Columnar(format!(
                        "integer {i} in a Float column is not exactly representable as f64"
                    )));
                }
            }
        }
        let at = u32::try_from(self.len)
            .map_err(|_| StoreError::Columnar("a table holds at most 2^32 rows".to_string()))?;
        for (cell, seg) in row.iter().zip(&mut self.segments) {
            seg.push_value(cell)?;
        }
        if let Some(key) = &mut self.key {
            match key.rows.get_mut(&row[key.column]) {
                Some(rows) => rows.push(at),
                // The stored cell, not the caller's: a text key shares
                // its segment dictionary's allocation.
                None => {
                    let cell = self.segments[key.column].slice().value_at(self.len);
                    key.rows.insert(cell, vec![at]);
                }
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Ordinals of the rows whose key cell equals `key`, in append
    /// order. Empty when nothing matches or the table has no key.
    pub fn key_rows(&self, key: &Value) -> &[u32] {
        self.key
            .as_ref()
            .and_then(|k| k.rows.get(key))
            .map_or(&[], Vec::as_slice)
    }

    /// Zero-copy view of one column.
    pub fn column(&self, index: usize) -> ColumnSlice<'_> {
        self.segments[index].slice()
    }

    /// Zero-copy views of every column, in schema order.
    pub fn columns(&self) -> Vec<ColumnSlice<'_>> {
        self.segments.iter().map(Segment::slice).collect()
    }

    /// The cell at (`row`, `column`). A text cell is a handle to its
    /// segment dictionary's one allocation for that string. Panics
    /// past the table's rows or columns, as slice indexing does.
    pub fn cell(&self, row: usize, column: usize) -> Value {
        self.segments[column].slice().value_at(row)
    }

    /// Row `index`, built from the columns: one allocation.
    pub fn row(&self, index: usize) -> Vec<Value> {
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

    /// Snapshot view of (schema, rows, key index) used by
    /// [`crate::snapshot`].
    pub(crate) fn to_snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            name: self.name.clone(),
            schema: Schema::clone(&self.schema),
            rows: (0..self.len).map(|i| self.row(i)).collect(),
            indexes: self
                .key_column()
                .map(|column| (column, HASH.to_string()))
                .into_iter()
                .collect(),
        }
    }

    /// Rebuild a table from a snapshot. Its one `"Hash"` entry names
    /// the key; a `"BTree"` entry, written when the store still kept
    /// ordered indexes, loads as no index. Anything else is an error.
    pub(crate) fn from_snapshot(snap: TableSnapshot) -> Result<Table> {
        let refuse = |what: String| {
            Err(StoreError::Snapshot(format!(
                "table `{}`: {what}",
                snap.name
            )))
        };
        let mut key = None;
        for (column, kind) in &snap.indexes {
            let Some(def) = snap.schema.columns().get(*column) else {
                return refuse(format!(
                    "index on column {column}, past its {} columns",
                    snap.schema.arity()
                ));
            };
            match kind.as_str() {
                HASH if key.is_none() => key = Some(def.name.clone()),
                HASH => return refuse(format!("a second key index, on column {column}")),
                "BTree" => {}
                other => return refuse(format!("unknown index kind {other:?}")),
            }
        }
        let mut table = Table::new(snap.name, snap.schema)?;
        if let Some(key) = key {
            table = table.with_key(&key)?;
        }
        for row in &snap.rows {
            table.append_row(row)?;
        }
        Ok(table)
    }
}

/// The snapshot tag of a key index.
const HASH: &str = "Hash";

/// Serializable table state: rows in row-major order, and the index
/// list as `(column, kind)` pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TableSnapshot {
    pub(crate) name: String,
    pub(crate) schema: Schema,
    pub(crate) rows: Vec<Vec<Value>>,
    pub(crate) indexes: Vec<(usize, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CompareOp, Predicate};
    use crate::schema::Column;
    use crate::segment::SegmentData;

    fn activity_schema() -> Schema {
        Schema::new(vec![
            Column::required("leaf_rank", ValueType::Int),
            Column::required("source", ValueType::Text),
            Column::nullable("value_nm", ValueType::Float),
        ])
    }

    fn sample() -> Table {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(0), Value::from("assay-a"), Value::Float(10.0)],
            vec![Value::Int(2), Value::from("assay-b"), Value::Float(100.0)],
            vec![Value::Int(2), Value::from("assay-a"), Value::Null],
            vec![Value::Int(5), Value::from("assay-b"), Value::Float(2.5)],
            vec![Value::Int(9), Value::from("assay-a"), Value::Float(7.0)],
        ];
        Table::from_rows("activity", activity_schema(), rows).unwrap()
    }

    #[test]
    fn append_and_read_back() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(
            t.row(2),
            vec![Value::Int(2), Value::from("assay-a"), Value::Null]
        );
        assert_eq!(t.cell(3, 2), Value::Float(2.5));
        assert_eq!(t.key_column(), None);
    }

    #[test]
    fn append_validates() {
        let mut t = sample();
        assert!(t.append_row(&[Value::Int(9)]).is_err());
        assert!(t
            .append_row(&[Value::from("x"), Value::from("y"), Value::Null])
            .is_err());
        assert!(t
            .append_row(&[Value::Null, Value::from("y"), Value::Null])
            .is_err());
        assert_eq!(t.len(), 5);
    }

    /// The segment holds a Float column's `Int` cells as `f64`, so it
    /// takes exactly those an `f64` holds: up to 2^53 in magnitude.
    #[test]
    fn an_int_past_two_to_the_53_in_a_float_column_is_refused() {
        let schema = Schema::new(vec![
            Column::required("id", ValueType::Text),
            Column::required("mw", ValueType::Float),
        ]);
        let mut t = Table::new("ligand", schema)
            .unwrap()
            .with_key("id")
            .unwrap();
        let bound = 1i64 << 53;
        for mw in [bound, -bound] {
            t.append_row(&[Value::from("L1"), Value::Int(mw)]).unwrap();
        }
        assert_eq!(t.cell(0, 1), Value::Float(bound as f64));
        for mw in [bound + 1, -bound - 1, i64::MIN, i64::MAX] {
            let err = t.append_row(&[Value::from("L2"), Value::Int(mw)]);
            assert!(matches!(err, Err(StoreError::Columnar(_))), "{mw}");
        }
        // Nothing of the refused rows was kept.
        assert_eq!(t.len(), 2);
        assert_eq!(t.column(0).len(), 2);
        assert_eq!(t.column(1).len(), 2);
        assert!(t.key_rows(&Value::from("L2")).is_empty());
        assert_eq!(t.key_rows(&Value::from("L1")), &[0, 1]);
    }

    #[test]
    fn key_rows_in_append_order_and_kept_current() {
        let t = sample().with_key("source").unwrap();
        assert_eq!(t.key_column(), Some(1));
        assert_eq!(t.key_rows(&Value::from("assay-a")), &[0, 2, 4]);
        assert_eq!(t.key_rows(&Value::from("assay-b")), &[1, 3]);
        assert!(t.key_rows(&Value::from("nope")).is_empty());
        let mut t = t;
        t.append_row(&[Value::Int(9), Value::from("assay-c"), Value::Null])
            .unwrap();
        t.append_row(&[Value::Int(10), Value::from("assay-b"), Value::Null])
            .unwrap();
        assert_eq!(t.key_rows(&Value::from("assay-c")), &[5]);
        assert_eq!(t.key_rows(&Value::from("assay-b")), &[1, 3, 6]);
        // A numeric key matches across Int and Float, as `Value` does.
        let t = sample().with_key("value_nm").unwrap();
        assert_eq!(t.key_rows(&Value::Int(10)), &[0]);
        assert_eq!(t.key_rows(&Value::Null), &[2]);
        // An unkeyed table answers no key.
        assert!(sample().key_rows(&Value::from("assay-a")).is_empty());
        assert!(sample().with_key("bogus").is_err());
    }

    #[test]
    fn segments_build_the_table_rows_would() {
        let t = sample();
        let segments = (0..3)
            .map(|c| {
                let mut s = Segment::new(t.schema().columns()[c].ty).unwrap();
                (0..t.len()).for_each(|i| s.push_value(&t.cell(i, c)).unwrap());
                s
            })
            .collect::<Vec<_>>();
        let built = Table::from_segments("activity", activity_schema(), segments.clone()).unwrap();
        assert_eq!(
            (0..5).map(|i| built.row(i)).collect::<Vec<_>>(),
            (0..5).map(|i| t.row(i)).collect::<Vec<_>>()
        );
        // Too few segments, one too short, a NULL in a required column.
        assert!(Table::from_segments("x", activity_schema(), segments[..2].to_vec()).is_err());
        let mut short = segments.clone();
        short[2] = Segment::from_data(SegmentData::Float(vec![1.0]));
        assert!(Table::from_segments("x", activity_schema(), short).is_err());
        let mut nulls = segments;
        let mut ranks = Segment::new(ValueType::Int).unwrap();
        for v in [
            Value::Int(0),
            Value::Null,
            Value::Int(2),
            Value::Int(5),
            Value::Int(9),
        ] {
            ranks.push_value(&v).unwrap();
        }
        nulls[0] = ranks;
        assert!(Table::from_segments("x", activity_schema(), nulls).is_err());
    }

    #[test]
    fn a_gather_reads_as_the_rows_it_names() {
        let t = sample();
        let all = t.gather(&[4, 2, 2, 0], &[0, 1, 2]);
        assert!(
            std::ptr::eq(all.schema(), t.schema()),
            "the schema is shared"
        );
        assert_eq!(
            (0..4).map(|i| all.row(i)).collect::<Vec<_>>(),
            [4, 2, 2, 0].map(|i| t.row(i))
        );
        // A NULL survives, and text is the source's allocation.
        assert_eq!(all.cell(1, 2), Value::Null);
        assert_eq!(
            all.column(1).text_at(3).unwrap().as_ptr(),
            t.column(1).text_at(0).unwrap().as_ptr()
        );
        let picked = t.gather(&[3, 1], &[2, 0]);
        assert_eq!(picked.schema().columns()[0].name, "value_nm");
        assert_eq!(picked.row(0), [Value::Float(2.5), Value::Int(5)]);
        assert_eq!(picked.key_column(), None);
        assert!(t.gather(&[], &[1]).is_empty());
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
        let expect: Vec<usize> = (0..t.len()).filter(|&i| pred.matches(&t.row(i))).collect();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), expect);
        assert_eq!(expect, vec![0, 4]);
    }
}
