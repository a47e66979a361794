//! Row tables with secondary indexes.

use crate::expr::BoundPredicate;
use crate::schema::Schema;
use crate::value::Value;
use crate::{Result, StoreError};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Identifier of a row within one table. Stable across deletes
/// (deleted ids are never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// Secondary index flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexKind {
    /// Equality-only hash index.
    Hash,
    /// Ordered B-tree index: equality + range scans.
    BTree,
}

#[derive(Debug, Clone)]
enum IndexData {
    Hash(FxHashMap<Value, Vec<RowId>>),
    BTree(BTreeMap<Value, Vec<RowId>>),
}

#[derive(Debug, Clone)]
struct SecondaryIndex {
    column: usize,
    kind: IndexKind,
    data: IndexData,
}

impl SecondaryIndex {
    fn new(column: usize, kind: IndexKind) -> SecondaryIndex {
        let data = match kind {
            IndexKind::Hash => IndexData::Hash(FxHashMap::default()),
            IndexKind::BTree => IndexData::BTree(BTreeMap::new()),
        };
        SecondaryIndex { column, kind, data }
    }

    fn insert(&mut self, key: Value, id: RowId) {
        match &mut self.data {
            IndexData::Hash(m) => m.entry(key).or_default().push(id),
            IndexData::BTree(m) => m.entry(key).or_default().push(id),
        }
    }

    fn remove(&mut self, key: &Value, id: RowId) {
        let bucket = match &mut self.data {
            IndexData::Hash(m) => m.get_mut(key),
            IndexData::BTree(m) => m.get_mut(key),
        };
        if let Some(bucket) = bucket {
            bucket.retain(|&r| r != id);
        }
    }

    fn lookup(&self, key: &Value) -> &[RowId] {
        let bucket = match &self.data {
            IndexData::Hash(m) => m.get(key),
            IndexData::BTree(m) => m.get(key),
        };
        bucket.map_or(&[], Vec::as_slice)
    }
}

/// A named row table with optional secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Row storage; `None` marks a deleted row (tombstone).
    rows: Vec<Option<Vec<Value>>>,
    live_rows: usize,
    indexes: Vec<SecondaryIndex>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            live_rows: 0,
            indexes: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live_rows
    }

    /// True when the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_rows == 0
    }

    /// Insert a validated row, maintaining all indexes.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId> {
        self.schema.validate_row(&row)?;
        let id = RowId(self.rows.len() as u64);
        for idx in &mut self.indexes {
            idx.insert(row[idx.column].clone(), id);
        }
        self.rows.push(Some(row));
        self.live_rows += 1;
        Ok(id)
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> Result<&[Value]> {
        self.rows
            .get(id.0 as usize)
            .and_then(|r| r.as_deref())
            .ok_or(StoreError::UnknownRow(id.0))
    }

    /// Delete a row by id (tombstoned; the id is never reused).
    pub fn delete(&mut self, id: RowId) -> Result<()> {
        let slot = self
            .rows
            .get_mut(id.0 as usize)
            .ok_or(StoreError::UnknownRow(id.0))?;
        let row = slot.take().ok_or(StoreError::UnknownRow(id.0))?;
        for idx in &mut self.indexes {
            idx.remove(&row[idx.column], id);
        }
        self.live_rows -= 1;
        Ok(())
    }

    /// Replace a row in place, maintaining indexes.
    pub fn update(&mut self, id: RowId, new_row: Vec<Value>) -> Result<()> {
        self.schema.validate_row(&new_row)?;
        let slot = self
            .rows
            .get_mut(id.0 as usize)
            .ok_or(StoreError::UnknownRow(id.0))?;
        let old = slot.as_ref().ok_or(StoreError::UnknownRow(id.0))?.clone();
        for idx in &mut self.indexes {
            if old[idx.column] != new_row[idx.column] {
                idx.remove(&old[idx.column], id);
                idx.insert(new_row[idx.column].clone(), id);
            }
        }
        *slot = Some(new_row);
        Ok(())
    }

    /// Iterate over all live rows.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[Value])> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_deref().map(|row| (RowId(i as u64), row)))
    }

    /// Full-scan selection with a bound predicate. Lazy: no
    /// intermediate `Vec<RowId>` is materialized; callers that need
    /// one can `collect()`.
    pub fn select<'a>(&'a self, pred: &'a BoundPredicate) -> impl Iterator<Item = RowId> + 'a {
        self.scan()
            .filter(move |(_, row)| pred.matches(row))
            .map(|(id, _)| id)
    }

    /// Create a secondary index over a column; backfills existing rows.
    pub fn create_index(&mut self, column: &str, kind: IndexKind) -> Result<()> {
        let col = self.schema.column_index(column)?;
        if self
            .indexes
            .iter()
            .any(|i| i.column == col && i.kind == kind)
        {
            return Err(StoreError::Index(format!(
                "{kind:?} index on {column:?} already exists"
            )));
        }
        let mut index = SecondaryIndex::new(col, kind);
        for (id, row) in self.scan() {
            index.insert(row[col].clone(), id);
        }
        self.indexes.push(index);
        Ok(())
    }

    /// True when any index covers the column.
    pub fn has_index(&self, column: &str) -> bool {
        self.schema
            .column_index(column)
            .is_ok_and(|c| self.indexes.iter().any(|i| i.column == c))
    }

    /// True when an ordered index covers the column.
    pub fn has_range_index(&self, column: &str) -> bool {
        self.schema.column_index(column).is_ok_and(|c| {
            self.indexes
                .iter()
                .any(|i| i.column == c && i.kind == IndexKind::BTree)
        })
    }

    /// Resolve the equality access path for `column` once — the best
    /// available index, or a full scan when the column is unindexed —
    /// so a batch of keys probes it without re-resolving the name.
    pub fn eq_lookup(&self, column: &str) -> Result<EqLookup<'_>> {
        let column = self.schema.column_index(column)?;
        Ok(EqLookup {
            table: self,
            column,
            index: self.indexes.iter().find(|i| i.column == column),
        })
    }

    /// One key through [`Table::eq_lookup`], collected.
    #[cfg(test)]
    pub(crate) fn lookup_eq(&self, column: &str, key: &Value) -> Result<Vec<RowId>> {
        Ok(self.eq_lookup(column)?.rows(key).collect())
    }

    /// Inclusive range scan via a B-tree index; falls back to a full
    /// scan when no ordered index exists. Lazy: ids stream straight
    /// out of the index buckets (or the scan) with no intermediate
    /// `Vec<RowId>`.
    pub fn lookup_range<'a>(
        &'a self,
        column: &str,
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> Result<impl Iterator<Item = RowId> + 'a> {
        let col = self.schema.column_index(column)?;
        let btree = self
            .indexes
            .iter()
            .find_map(|i| match (&i.data, i.column == col) {
                (IndexData::BTree(m), true) => Some(m),
                _ => None,
            });
        Ok(match btree {
            Some(m) => EitherIter::Index(
                m.range::<Value, _>((lo, hi))
                    .flat_map(|(_, ids)| ids.iter().copied()),
            ),
            None => {
                let in_range = move |v: &Value| {
                    let lo_ok = match lo {
                        Bound::Included(b) => v >= b,
                        Bound::Excluded(b) => v > b,
                        Bound::Unbounded => true,
                    };
                    let hi_ok = match hi {
                        Bound::Included(b) => v <= b,
                        Bound::Excluded(b) => v < b,
                        Bound::Unbounded => true,
                    };
                    lo_ok && hi_ok && !v.is_null()
                };
                EitherIter::Scan(
                    self.scan()
                        .filter(move |(_, row)| in_range(&row[col]))
                        .map(|(id, _)| id),
                )
            }
        })
    }

    /// Snapshot view of (schema, live rows, index definitions) used by
    /// [`crate::snapshot`].
    pub(crate) fn to_snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: self.scan().map(|(_, r)| r.to_vec()).collect(),
            indexes: self.indexes.iter().map(|i| (i.column, i.kind)).collect(),
        }
    }

    /// Rebuild a table from a snapshot (row ids are re-densified).
    pub(crate) fn from_snapshot(snap: TableSnapshot) -> Result<Table> {
        let mut table = Table::new(snap.name, snap.schema);
        for (column, kind) in snap.indexes {
            let Some(def) = table.schema.columns().get(column) else {
                return Err(StoreError::Snapshot(format!(
                    "table `{}`: index on column {column}, past its {} columns",
                    table.name,
                    table.schema.columns().len()
                )));
            };
            let name = def.name.clone();
            table.create_index(&name, kind)?;
        }
        for row in snap.rows {
            table.insert(row)?;
        }
        Ok(table)
    }
}

/// One column's equality access path (see [`Table::eq_lookup`]).
#[derive(Debug, Clone, Copy)]
pub struct EqLookup<'a> {
    table: &'a Table,
    column: usize,
    index: Option<&'a SecondaryIndex>,
}

impl<'a> EqLookup<'a> {
    /// Ids of the live rows whose cell equals `key`, streamed straight
    /// out of the index bucket (or the scan): no `Vec<RowId>` per key.
    pub fn rows(&self, key: &'a Value) -> impl Iterator<Item = RowId> + 'a {
        let column = self.column;
        match self.index {
            Some(index) => EitherIter::Index(index.lookup(key).iter().copied()),
            None => EitherIter::Scan(
                self.table
                    .scan()
                    .filter(move |(_, row)| &row[column] == key)
                    .map(|(id, _)| id),
            ),
        }
    }
}

/// Two-armed iterator so [`Table::lookup_range`] and [`EqLookup::rows`]
/// can stream from either the index buckets or the fallback scan
/// without boxing.
enum EitherIter<L, R> {
    Index(L),
    Scan(R),
}

impl<L, R, T> Iterator for EitherIter<L, R>
where
    L: Iterator<Item = T>,
    R: Iterator<Item = T>,
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            EitherIter::Index(it) => it.next(),
            EitherIter::Scan(it) => it.next(),
        }
    }
}

/// Serializable table state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TableSnapshot {
    pub(crate) name: String,
    pub(crate) schema: Schema,
    pub(crate) rows: Vec<Vec<Value>>,
    pub(crate) indexes: Vec<(usize, IndexKind)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CompareOp, Predicate};
    use crate::schema::Column;
    use crate::value::ValueType;

    fn ligand_table() -> Table {
        let schema = Schema::new(vec![
            Column::required("id", ValueType::Int),
            Column::required("name", ValueType::Text),
            Column::required("mw", ValueType::Float),
        ]);
        let mut t = Table::new("ligand", schema);
        for (id, name, mw) in [
            (1, "aspirin", 180.2),
            (2, "caffeine", 194.2),
            (3, "ibuprofen", 206.3),
        ] {
            t.insert(vec![Value::Int(id), Value::from(name), Value::Float(mw)])
                .unwrap();
        }
        t
    }

    #[test]
    fn insert_get_len() {
        let t = ligand_table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(RowId(1)).unwrap()[1], Value::from("caffeine"));
        assert!(t.get(RowId(9)).is_err());
    }

    #[test]
    fn insert_validates() {
        let mut t = ligand_table();
        assert!(t.insert(vec![Value::Int(4)]).is_err());
        assert!(t
            .insert(vec![Value::from("x"), Value::from("y"), Value::Float(1.0)])
            .is_err());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn delete_tombstones() {
        let mut t = ligand_table();
        t.delete(RowId(1)).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.get(RowId(1)).is_err());
        assert!(t.delete(RowId(1)).is_err(), "double delete");
        // Remaining rows still reachable; new inserts get fresh ids.
        let id = t
            .insert(vec![
                Value::Int(4),
                Value::from("naproxen"),
                Value::Float(230.3),
            ])
            .unwrap();
        assert_eq!(id, RowId(3));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn update_rewrites_row_and_indexes() {
        let mut t = ligand_table();
        t.create_index("name", IndexKind::Hash).unwrap();
        t.update(
            RowId(0),
            vec![
                Value::Int(1),
                Value::from("acetylsalicylic acid"),
                Value::Float(180.2),
            ],
        )
        .unwrap();
        assert!(t
            .lookup_eq("name", &Value::from("aspirin"))
            .unwrap()
            .is_empty());
        assert_eq!(
            t.lookup_eq("name", &Value::from("acetylsalicylic acid"))
                .unwrap(),
            vec![RowId(0)]
        );
    }

    #[test]
    fn select_with_predicate() {
        let t = ligand_table();
        let pred = Predicate::cmp("mw", CompareOp::Gt, 190.0)
            .bind(t.schema())
            .unwrap();
        let ids: Vec<RowId> = t.select(&pred).collect();
        assert_eq!(ids, vec![RowId(1), RowId(2)]);
    }

    #[test]
    fn hash_index_lookup() {
        let mut t = ligand_table();
        t.create_index("name", IndexKind::Hash).unwrap();
        assert!(t.has_index("name"));
        assert!(!t.has_range_index("name"));
        assert_eq!(
            t.lookup_eq("name", &Value::from("caffeine")).unwrap(),
            vec![RowId(1)]
        );
        assert!(t
            .lookup_eq("name", &Value::from("nope"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn btree_index_range() {
        let mut t = ligand_table();
        t.create_index("mw", IndexKind::BTree).unwrap();
        assert!(t.has_range_index("mw"));
        let lo = Value::Float(190.0);
        let hi = Value::Float(200.0);
        let ids: Vec<RowId> = t
            .lookup_range("mw", Bound::Included(&lo), Bound::Included(&hi))
            .unwrap()
            .collect();
        assert_eq!(ids, vec![RowId(1)]);
        // Unbounded below.
        let ids: Vec<RowId> = t
            .lookup_range("mw", Bound::Unbounded, Bound::Excluded(&lo))
            .unwrap()
            .collect();
        assert_eq!(ids, vec![RowId(0)]);
    }

    #[test]
    fn range_without_index_falls_back_to_scan() {
        let t = ligand_table();
        let lo = Value::Float(190.0);
        assert_eq!(
            t.lookup_range("mw", Bound::Included(&lo), Bound::Unbounded)
                .unwrap()
                .count(),
            2
        );
    }

    #[test]
    fn eq_without_index_falls_back_to_scan() {
        let t = ligand_table();
        assert_eq!(t.lookup_eq("id", &Value::Int(3)).unwrap(), vec![RowId(2)]);
    }

    #[test]
    fn index_backfill_and_maintenance() {
        let mut t = ligand_table();
        t.create_index("mw", IndexKind::BTree).unwrap();
        // Backfilled:
        assert_eq!(
            t.lookup_eq("mw", &Value::Float(194.2)).unwrap(),
            vec![RowId(1)]
        );
        // Maintained on insert:
        t.insert(vec![Value::Int(4), Value::from("x"), Value::Float(194.2)])
            .unwrap();
        assert_eq!(t.lookup_eq("mw", &Value::Float(194.2)).unwrap().len(), 2);
        // Maintained on delete:
        t.delete(RowId(1)).unwrap();
        assert_eq!(
            t.lookup_eq("mw", &Value::Float(194.2)).unwrap(),
            vec![RowId(3)]
        );
        // Duplicate index rejected:
        assert!(t.create_index("mw", IndexKind::BTree).is_err());
        // But a different kind on the same column is fine:
        assert!(t.create_index("mw", IndexKind::Hash).is_ok());
    }

    #[test]
    fn index_and_scan_agree() {
        let mut t = ligand_table();
        t.create_index("mw", IndexKind::BTree).unwrap();
        for probe in [180.2, 194.2, 206.3, 999.0] {
            let key = Value::Float(probe);
            let mut via_index = t.lookup_eq("mw", &key).unwrap();
            let mut via_scan: Vec<RowId> = t
                .scan()
                .filter(|(_, r)| r[2] == key)
                .map(|(id, _)| id)
                .collect();
            via_index.sort();
            via_scan.sort();
            assert_eq!(via_index, via_scan, "probe {probe}");
        }
    }
}
