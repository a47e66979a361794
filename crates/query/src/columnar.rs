//! The activity batch: the one form activity rows take from the fetch
//! to the result.
//!
//! [`ActivityColumns`] holds resolved, rank-sorted activity rows as a
//! store [`Table`] in the activity-half layout: eight typed segments.
//! A fetch returns one, a semantic-cache entry holds one, the [local
//! build](crate::local) folds one into the aggregate view and keeps one
//! as the columnar mirror. One constructor,
//! `ActivityColumns::widen`, builds them all from the typed columns the
//! sources shipped by the same rules ([`AssayRows::unify`], then the
//! conflict rule where the deployment resolves conflicts, then a stable
//! sort by leaf rank), so every access path returns the same rows. No
//! `Value` row exists between a source's segments and the batch:
//! numbers are copied buffer to buffer, and text moves as dictionary
//! codes, re-coded once per distinct string.
//!
//! A leaf interval is a binary-searched row *range* of a batch
//! ([`ActivityColumns::rows_in`]): a cache hit slices its entry that
//! way, and with the mirror fresh the optimizer's interval rewrite
//! becomes a range over contiguous typed buffers
//! ([`Access::ColumnarScan`]) whose predicate leaves run as vectorized
//! bitmap kernels (design decision D12 in DESIGN.md). No access path
//! builds a row: the executor's residual and finish stages read the
//! cells from the columns in place and build only the rows a query
//! returns (design decision D16).
//!
//! [`Access::ColumnarScan`]: crate::plan::Access::ColumnarScan

use crate::dataset::{activity_half_schema, AssayCells, AssayRows, Dataset};
use crate::Result;
use drugtree_phylo::index::LeafInterval;
use drugtree_store::dict::Dictionary;
use drugtree_store::segment::{ColumnData, Segment, SegmentData};
use drugtree_store::table::Table;
use rustc_hash::FxHashMap;
use std::ops::Range;
use std::sync::Arc;

/// The batch's `leaf_rank` column.
pub(crate) const RANK: usize = 0;
/// The batch's `ligand_id` column.
pub(crate) const LIGAND_ID: usize = 2;
/// The batch's `p_activity` column.
pub(crate) const P_ACTIVITY: usize = 5;

/// Activity rows, column-oriented and rank-sorted. Never mutated once
/// built; shared as an `Arc` between a cache entry and the queries
/// reading it. `ActivityColumns::widen` is the only constructor, and it
/// sorts, so no holder checks the order again:
///
/// ```compile_fail
/// fn unsorted(table: drugtree_store::table::Table) -> drugtree_query::ActivityColumns {
///     drugtree_query::ActivityColumns { table }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ActivityColumns {
    table: Table,
}

/// A shipped row that widened: the batch it came in and its row there,
/// its leaf rank and its pActivity.
#[derive(Debug, Clone, Copy)]
struct Kept {
    rank: u32,
    batch: u32,
    row: u32,
    p_activity: f64,
}

impl Kept {
    /// The stable order: by rank, then by position among the shipped
    /// rows (batch, then row).
    fn order(&self) -> (u32, u32, u32) {
        (self.rank, self.batch, self.row)
    }
}

impl ActivityColumns {
    /// Widen what assay sources shipped (every source's batches, in
    /// source order) into a batch, and count the rows that are no
    /// activity record. One pass reads each row's rank and pActivity
    /// ([`AssayRows::unify`]: the rank once per distinct accession
    /// code); where the deployment
    /// [resolves conflicts](Dataset::resolves_conflicts), only the most
    /// recent measurement of each (leaf, ligand, activity type) is
    /// kept, the first in row order on a tie; then the kept rows are
    /// stably sorted by rank, so rows within a leaf keep source order,
    /// then scan order, and their cells are copied from the shipped
    /// columns into typed buffers, text re-coded once per distinct
    /// string into the batch's dictionaries.
    pub(crate) fn widen(dataset: &Dataset, shipped: &[Table]) -> Result<(ActivityColumns, usize)> {
        let views: Vec<AssayRows> = shipped.iter().map(|t| AssayRows::new(dataset, t)).collect();
        let mut kept = Vec::with_capacity(shipped.iter().map(Table::len).sum());
        for (batch, rows) in (0..).zip(&views) {
            for row in 0..rows.len() {
                if let Some((rank, p_activity)) = rows.unify(row) {
                    kept.push(Kept {
                        rank,
                        batch,
                        row: row as u32,
                        p_activity,
                    });
                }
            }
        }
        let unmapped = shipped.iter().map(Table::len).sum::<usize>() - kept.len();
        let mut text = [
            AssayCells::ACCESSION,
            AssayCells::LIGAND,
            AssayCells::KIND,
            AssayCells::SOURCE,
        ]
        .map(|column| TextColumn::new(&views, column));
        if dataset.resolves_conflicts() {
            keep_most_recent(&views, &mut text, &mut kept);
        }
        // Positions are distinct, so this order is the stable one.
        kept.sort_unstable_by_key(Kept::order);

        let cells = |k: &Kept| match views[k.batch as usize].cells() {
            Some(cells) => (cells, k.row as usize),
            None => unreachable!("a kept row has the assay schema's cells"),
        };
        let ranks = kept.iter().map(|k| i64::from(k.rank)).collect();
        let values = kept
            .iter()
            .map(|k| {
                let (cells, row) = cells(k);
                cells.value_nm.f64_at(row).unwrap_or(f64::NAN)
            })
            .collect();
        let potencies = kept.iter().map(|k| k.p_activity).collect();
        let years = kept
            .iter()
            .map(|k| {
                let (cells, row) = cells(k);
                cells.year[row]
            })
            .collect();
        let [accessions, ligands, kinds, sources] =
            text.map(|column| column.into_segment(&views, &kept));
        let segments = vec![
            Segment::from_data(SegmentData::Int(ranks)),
            accessions,
            ligands,
            kinds,
            Segment::from_data(SegmentData::Float(values)),
            Segment::from_data(SegmentData::Float(potencies)),
            sources,
            Segment::from_data(SegmentData::Int(years)),
        ];
        let table = Table::from_segments("activity", Arc::clone(activity_half_schema()), segments)?;
        Ok((ActivityColumns { table }, unmapped))
    }

    /// Number of activity rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The contiguous row range covering a leaf interval, by binary
    /// search of the rank segment — the zero-gather form of the
    /// optimizer's interval rewrite, and a cache hit's slice of its
    /// entry.
    pub fn rows_in(&self, interval: LeafInterval) -> Range<usize> {
        // `widen` sorts the rows by rank, the one Int column it fills.
        let ColumnData::Int(ranks) = self.table.column(RANK).data else {
            return 0..0;
        };
        let at = |rank: u32| ranks.partition_point(|&r| r < i64::from(rank));
        let lo = at(interval.lo);
        lo..at(interval.hi).max(lo)
    }

    /// The underlying columnar table (activity-half schema).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Bytes held by the typed segments (approximate, for reporting).
    pub fn memory_bytes(&self) -> usize {
        // 8 bytes per numeric cell, 4 per dictionary code; validity is
        // 1 bit per cell. Close enough for capacity planning output.
        let per_row: usize = self
            .table
            .schema()
            .columns()
            .iter()
            .map(|c| match c.ty {
                drugtree_store::value::ValueType::Text => 4,
                _ => 8,
            })
            .sum();
        self.table.len() * (per_row + self.table.schema().arity().div_ceil(8))
    }
}

/// One text column being filled: the distinct strings its codes name,
/// each the shipped allocation of it. Each code of a shipped batch is
/// re-coded once, on first use, through a map keyed by the borrowed
/// text, so a string is hashed once per batch it arrives in, never once
/// per row, and the batch's dictionary is built from the distinct
/// strings without hashing them again.
struct TextColumn<'t> {
    /// Which of the shipped text columns this is.
    column: usize,
    values: Vec<Arc<str>>,
    by_text: FxHashMap<&'t str, u32>,
    /// Per shipped batch, the batch code of each of its codes;
    /// `u32::MAX` until first used.
    recoded: Vec<Vec<u32>>,
}

impl<'t> TextColumn<'t> {
    fn new(views: &[AssayRows<'t>], column: usize) -> TextColumn<'t> {
        let distinct = |v: &AssayRows| v.cells().map_or(0, |c| c.text[column].1.len());
        let recoded: Vec<Vec<u32>> = views.iter().map(|v| vec![u32::MAX; distinct(v)]).collect();
        let most = recoded.iter().map(Vec::len).max().unwrap_or(0);
        TextColumn {
            column,
            values: Vec::with_capacity(most),
            by_text: FxHashMap::with_capacity_and_hasher(most, Default::default()),
            recoded,
        }
    }

    /// The batch code of a kept row's cell.
    fn code(&mut self, views: &[AssayRows<'t>], k: &Kept) -> u32 {
        let Some(cells) = views[k.batch as usize].cells() else {
            unreachable!("a kept row has the assay schema's cells");
        };
        let (codes, shipped) = cells.text[self.column];
        let code = codes[k.row as usize] as usize;
        let slot = &mut self.recoded[k.batch as usize][code];
        if *slot == u32::MAX {
            let text = &shipped.values()[code];
            let values = &mut self.values;
            *slot = *self.by_text.entry(&**text).or_insert_with(|| {
                values.push(Arc::clone(text));
                values.len() as u32 - 1
            });
        }
        *slot
    }

    /// The column of the `kept` rows, in that order.
    fn into_segment(mut self, views: &[AssayRows<'t>], kept: &[Kept]) -> Segment {
        let codes = kept.iter().map(|k| self.code(views, k)).collect();
        Segment::from_data(SegmentData::Str {
            codes,
            dict: Dictionary::from_distinct(self.values),
        })
    }
}

/// Keep the most recent measurement per (rank, ligand, type) among the
/// `kept` rows, the first in row order on a tie, in place. Ligand and
/// type are compared by their batch codes, so the rule hashes integers.
fn keep_most_recent<'t>(
    views: &[AssayRows<'t>],
    text: &mut [TextColumn<'t>; 4],
    kept: &mut Vec<Kept>,
) {
    let year = |k: &Kept| {
        views[k.batch as usize]
            .cells()
            .map_or(0, |c| c.year[k.row as usize])
    };
    let mut best: FxHashMap<(u32, u32, u32), usize> = FxHashMap::default();
    for (i, k) in kept.iter().enumerate() {
        let key = (
            k.rank,
            text[AssayCells::LIGAND].code(views, k),
            text[AssayCells::KIND].code(views, k),
        );
        match best.get(&key) {
            Some(&held) if year(&kept[held]) >= year(k) => {}
            _ => {
                best.insert(key, i);
            }
        }
    }
    let mut keep = vec![false; kept.len()];
    for i in best.into_values() {
        keep[i] = true;
    }
    let mut keep = keep.into_iter();
    kept.retain(|_| keep.next().unwrap_or(false));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dataset::test_fixtures::small_dataset;
    use crate::local::{Keep, LocalBuild};
    use drugtree_sources::assay_db::assay_schema;
    use drugtree_sources::source::SourceCapabilities;
    use drugtree_store::expr::{CompareOp, Predicate};
    use drugtree_store::value::Value;

    /// A batch of one row per rank, in the order given, each naming
    /// `tag` as its ligand; no dataset needed.
    pub(crate) fn batch_of(ranks: &[u32], tag: &str) -> Arc<ActivityColumns> {
        let rows = ranks.iter().map(|&rank| {
            [
                Value::Int(i64::from(rank)),
                Value::from("P"),
                Value::from(tag),
                Value::from("Ki"),
                Value::Float(10.0),
                Value::Float(8.0),
                Value::from("s"),
                Value::Int(2012),
            ]
        });
        let table = Table::from_rows("activity", Arc::clone(activity_half_schema()), rows).unwrap();
        Arc::new(ActivityColumns { table })
    }

    /// The ranks of a batch's rows in `range`.
    pub(crate) fn ranks(batch: &ActivityColumns, range: Range<usize>) -> Vec<i64> {
        range
            .map(|i| batch.table().cell(i, RANK).as_int().unwrap())
            .collect()
    }

    fn mirror_and_dataset() -> (Arc<ActivityColumns>, Dataset) {
        let d = small_dataset(SourceCapabilities::full());
        let c = LocalBuild::build(&d, Keep::Mirror).unwrap().mirror.unwrap();
        (c, d)
    }

    fn raw(accession: &str, ligand: &str, value_nm: f64, year: i64) -> Vec<Value> {
        vec![
            Value::from(accession),
            Value::from(ligand),
            Value::from("Ki"),
            Value::Float(value_nm),
            Value::from("lab"),
            Value::Int(year),
        ]
    }

    /// What an assay source holding `rows` ships for a scan.
    fn shipped(rows: &[Vec<Value>]) -> Table {
        Table::from_rows("assays", assay_schema(), rows).unwrap()
    }

    #[test]
    fn build_mirrors_all_activity_rows() {
        let (c, d) = mirror_and_dataset();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        // Rank-sorted: the whole tree is one contiguous range.
        assert!(ranks(&c, 0..4).is_sorted());
        assert_eq!(c.rows_in(d.index.interval(d.tree.root())), 0..4);
    }

    #[test]
    fn interval_maps_to_contiguous_range() {
        let (c, d) = mirror_and_dataset();
        let clade_a = d.index.by_label("cladeA").unwrap();
        let range = c.rows_in(d.index.interval(clade_a));
        // cladeA holds P1 (2 records) and P2 (1 record); P4 is empty.
        assert_eq!(range.len(), 3);
        for rank in ranks(&c, range) {
            assert!(d.index.interval(clade_a).contains_rank(rank as u32));
        }
    }

    /// Widening keeps activity records alone, sorts them stably by rank
    /// across the shipped batches and reads each cell as the source
    /// shipped it.
    #[test]
    fn widening_sorts_stably_and_drops_what_is_no_record() {
        let d = small_dataset(SourceCapabilities::full());
        let first = vec![
            raw("P3", "L3", 1.0, 2013),
            raw("P1", "L2", 2000.0, 2011),
            raw("QX", "L1", 10.0, 2012),
        ];
        let second = vec![raw("P1", "L1", 10.0, 2012), raw("P2", "L1", -1.0, 2012)];
        let batches = [shipped(&first), shipped(&second)];
        let (batch, unmapped) = ActivityColumns::widen(&d, &batches).unwrap();
        assert_eq!(unmapped, 2);
        assert_eq!(ranks(&batch, 0..batch.len()), [0, 0, 2]);
        let row = batch.table().row(1);
        assert_eq!(row[1..5], second[0][..4]);
        assert_eq!(row[5], Value::Float(8.0));
        assert_eq!(row[6..], second[0][4..]);
        assert_eq!(batch.table().cell(0, LIGAND_ID), Value::from("L2"));
        // A text is one code however many batches shipped it, and the
        // batch keeps one batch's allocation of it.
        let lab = batch.table().column(6);
        assert_eq!(
            lab.text_at(0).unwrap().as_ptr(),
            lab.text_at(1).unwrap().as_ptr()
        );
        let ColumnData::Str { dict, .. } = lab.data else {
            panic!("source is text");
        };
        assert_eq!(dict.len(), 1);
        assert!(ActivityColumns::widen(&d, &[]).unwrap().0.is_empty());
        // A batch of another shape widens no row.
        let projected = batches[0].gather(&[0, 1], &[0, 1, 2, 3, 4]);
        assert_eq!(ActivityColumns::widen(&d, &[projected]).unwrap().1, 2);
    }

    #[test]
    fn conflicts_keep_the_most_recent_in_row_order() {
        let d = small_dataset(SourceCapabilities::full());
        let batches = [
            shipped(&[raw("P1", "L1", 10.0, 2010), raw("P1", "L2", 10.0, 2011)]),
            shipped(&[raw("P1", "L1", 20.0, 2013), raw("P1", "L1", 30.0, 2013)]),
        ];
        let views: Vec<AssayRows> = batches.iter().map(|t| AssayRows::new(&d, t)).collect();
        let mut kept: Vec<Kept> = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .map(|(batch, row)| Kept {
                rank: 0,
                batch,
                row,
                p_activity: 8.0,
            })
            .to_vec();
        let mut text = [0, 1, 2, 3].map(|column| TextColumn::new(&views, column));
        keep_most_recent(&views, &mut text, &mut kept);
        let at: Vec<(u32, u32)> = kept.iter().map(|k| (k.batch, k.row)).collect();
        assert_eq!(at, [(0, 1), (1, 0)]);
    }

    #[test]
    fn kernels_select_matching_rows() {
        let (c, _) = mirror_and_dataset();
        let pred = Predicate::cmp("p_activity", CompareOp::Ge, 8.0)
            .bind(c.table().schema())
            .unwrap();
        let sel = c.table().eval(&pred, 0..c.len());
        let expect: Vec<usize> = (0..c.len())
            .filter(|&i| pred.matches(&c.table().row(i)))
            .collect();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), expect);
        assert!(!expect.is_empty());
    }

    #[test]
    fn memory_accounting_scales_with_rows() {
        let (c, _) = mirror_and_dataset();
        assert!(c.memory_bytes() >= c.len() * 8);
    }
}
