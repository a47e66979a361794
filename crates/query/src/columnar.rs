//! The activity batch: the one form activity rows take from the fetch
//! to the result.
//!
//! [`ActivityColumns`] holds resolved, rank-sorted activity rows as a
//! store [`Table`] in the activity-half layout: eight typed segments.
//! A fetch returns one, a semantic-cache entry holds one, the [local
//! build](crate::local) folds one into the aggregate view and keeps one
//! as the columnar mirror. One constructor,
//! `ActivityColumns::widen`, builds them all from raw source rows by
//! the same rules ([`unify_assay_row`], then the conflict rule where
//! the deployment resolves conflicts, then a stable sort by leaf rank),
//! so every access path returns the same rows.
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

use crate::dataset::{activity_half_schema, unify_assay_row, Dataset};
use crate::Result;
use drugtree_phylo::index::LeafInterval;
use drugtree_store::dict::Dictionary;
use drugtree_store::segment::{ColumnData, Segment, SegmentData};
use drugtree_store::table::Table;
use drugtree_store::value::Value;
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

/// A source row that widened: its position among the source rows, its
/// leaf rank and its pActivity.
#[derive(Debug, Clone, Copy)]
struct Kept {
    rank: u32,
    at: usize,
    p_activity: f64,
}

impl ActivityColumns {
    /// Widen raw assay-source rows (every source's, in source order)
    /// into a batch, and count the rows that are no activity record.
    /// One pass reads each row's rank and pActivity
    /// ([`unify_assay_row`]); where the deployment
    /// [resolves conflicts](Dataset::resolves_conflicts), only the most
    /// recent measurement of each (leaf, ligand, activity type) is
    /// kept, the first in row order on a tie; then the kept rows are
    /// stably sorted by rank, so rows within a leaf keep source order,
    /// then scan order, and their cells are written straight into typed
    /// buffers.
    pub(crate) fn widen(
        dataset: &Dataset,
        rows: &[Vec<Value>],
    ) -> Result<(ActivityColumns, usize)> {
        let mut kept = Vec::with_capacity(rows.len());
        for (at, row) in rows.iter().enumerate() {
            if let Some((rank, p_activity)) = unify_assay_row(dataset, row) {
                kept.push(Kept {
                    rank,
                    at,
                    p_activity,
                });
            }
        }
        let unmapped = rows.len() - kept.len();
        if dataset.resolves_conflicts() {
            keep_most_recent(rows, &mut kept);
        }
        // Positions are distinct, so this order is the stable one.
        kept.sort_unstable_by_key(|k| (k.rank, k.at));
        Ok((ActivityColumns::fill(rows, &kept)?, unmapped))
    }

    /// Write the `kept` rows, in that order, into the eight segments.
    fn fill(rows: &[Vec<Value>], kept: &[Kept]) -> Result<ActivityColumns> {
        let n = kept.len();
        let (mut ranks, mut years) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut values, mut potencies) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let [mut accessions, mut ligands, mut kinds, mut sources] =
            std::array::from_fn(|_| TextColumn::with_capacity(n));
        for k in kept {
            // `unify_assay_row` kept only rows of this shape.
            let [Value::Text(accession), Value::Text(ligand), Value::Text(kind), value_nm, Value::Text(source), Value::Int(year), ..] =
                &rows[k.at][..]
            else {
                unreachable!("a kept row has the source schema's cells");
            };
            ranks.push(i64::from(k.rank));
            accessions.push(accession);
            ligands.push(ligand);
            kinds.push(kind);
            values.push(value_nm.as_f64().unwrap_or(f64::NAN));
            potencies.push(k.p_activity);
            sources.push(source);
            years.push(*year);
        }
        let segments = vec![
            Segment::from_data(SegmentData::Int(ranks)),
            accessions.into_segment(),
            ligands.into_segment(),
            kinds.into_segment(),
            Segment::from_data(SegmentData::Float(values)),
            Segment::from_data(SegmentData::Float(potencies)),
            sources.into_segment(),
            Segment::from_data(SegmentData::Int(years)),
        ];
        let table = Table::from_segments("activity", Arc::clone(activity_half_schema()), segments)?;
        Ok(ActivityColumns { table })
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

/// One text column being filled: its codes and its dictionary, which
/// keeps the source's allocation of each distinct string. Source cells
/// are handles to their source dictionary's one allocation per string,
/// so a map from a cell's address to its code answers a repeat without
/// hashing the text; a string met at a second address still gets its
/// one code from the dictionary. The cells are borrowed for the whole
/// fill, so an address names one live allocation.
struct TextColumn {
    codes: Vec<u32>,
    dict: Dictionary,
    by_address: FxHashMap<*const u8, u32>,
    /// The previous cell's address and code: rows of one leaf, filled
    /// in a run, repeat their accession.
    last: (*const u8, u32),
}

impl TextColumn {
    fn with_capacity(n: usize) -> TextColumn {
        TextColumn {
            codes: Vec::with_capacity(n),
            dict: Dictionary::new(),
            by_address: FxHashMap::default(),
            last: (std::ptr::null(), 0),
        }
    }

    fn push(&mut self, text: &Arc<str>) {
        let address = text.as_ptr();
        if self.last.0 != address {
            let dict = &mut self.dict;
            let code = *self
                .by_address
                .entry(address)
                .or_insert_with(|| dict.intern(text));
            self.last = (address, code);
        }
        self.codes.push(self.last.1);
    }

    fn into_segment(self) -> Segment {
        Segment::from_data(SegmentData::Str {
            codes: self.codes,
            dict: self.dict,
        })
    }
}

/// Keep the most recent measurement per (rank, ligand, type) among the
/// `kept` rows, the first in row order on a tie, in place.
fn keep_most_recent(rows: &[Vec<Value>], kept: &mut Vec<Kept>) {
    let year = |k: &Kept| rows[k.at][5].as_int().unwrap_or(0);
    let mut best: FxHashMap<(u32, &str, &str), usize> = FxHashMap::default();
    for (i, k) in kept.iter().enumerate() {
        let row = &rows[k.at];
        let key = (
            k.rank,
            row[1].as_text().unwrap_or_default(),
            row[2].as_text().unwrap_or_default(),
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
    use drugtree_sources::source::SourceCapabilities;
    use drugtree_store::expr::{CompareOp, Predicate};

    /// A batch of one row per rank, in the order given, each naming
    /// `tag` as its ligand; no dataset needed.
    pub(crate) fn batch_of(ranks: &[u32], tag: &str) -> Arc<ActivityColumns> {
        let rows: Vec<Vec<Value>> = ranks
            .iter()
            .map(|_| {
                vec![
                    Value::from("P"),
                    Value::from(tag),
                    Value::from("Ki"),
                    Value::Float(10.0),
                    Value::from("s"),
                    Value::Int(2012),
                ]
            })
            .collect();
        let kept: Vec<Kept> = ranks
            .iter()
            .enumerate()
            .map(|(at, &rank)| Kept {
                rank,
                at,
                p_activity: 8.0,
            })
            .collect();
        Arc::new(ActivityColumns::fill(&rows, &kept).unwrap())
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
    /// and reads each cell as the source shipped it.
    #[test]
    fn widening_sorts_stably_and_drops_what_is_no_record() {
        let d = small_dataset(SourceCapabilities::full());
        let rows = vec![
            raw("P3", "L3", 1.0, 2013),
            raw("P1", "L2", 2000.0, 2011),
            raw("QX", "L1", 10.0, 2012),
            raw("P1", "L1", 10.0, 2012),
            raw("P2", "L1", -1.0, 2012),
        ];
        let (batch, unmapped) = ActivityColumns::widen(&d, &rows).unwrap();
        assert_eq!(unmapped, 2);
        assert_eq!(ranks(&batch, 0..batch.len()), [0, 0, 2]);
        let row = batch.table().row(1);
        assert_eq!(row[1..5], rows[3][..4]);
        assert_eq!(row[5], Value::Float(8.0));
        assert_eq!(row[6..], rows[3][4..]);
        assert_eq!(batch.table().cell(0, LIGAND_ID), Value::from("L2"));
        // A text is one code however many allocations shipped it.
        let lab = batch.table().column(6);
        assert_eq!(
            lab.text_at(0).unwrap().as_ptr(),
            lab.text_at(2).unwrap().as_ptr()
        );
        assert!(ActivityColumns::widen(&d, &[]).unwrap().0.is_empty());
    }

    #[test]
    fn conflicts_keep_the_most_recent_in_row_order() {
        let mut kept: Vec<Kept> = (0..4)
            .map(|at| Kept {
                rank: 0,
                at,
                p_activity: 8.0,
            })
            .collect();
        let rows = vec![
            raw("P1", "L1", 10.0, 2010),
            raw("P1", "L2", 10.0, 2011),
            raw("P1", "L1", 20.0, 2013),
            raw("P1", "L1", 30.0, 2013),
        ];
        keep_most_recent(&rows, &mut kept);
        assert_eq!(kept.iter().map(|k| k.at).collect::<Vec<_>>(), [1, 2]);
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
