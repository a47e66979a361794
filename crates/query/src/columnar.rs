//! The columnar activity mirror: local column store for the overlay.
//!
//! [`ActivityColumns`] holds the [local build](crate::local)'s resolved,
//! rank-sorted rows as a store [`Table`] in the activity-half layout.
//! With the mirror fresh, the optimizer's interval rewrite stops being a
//! per-leaf key gather and becomes a binary-searched row *range* over
//! contiguous typed buffers ([`Access::ColumnarScan`]), and predicate
//! leaves run as vectorized bitmap kernels — the "sub-millisecond local
//! compute" half of the paper's latency story, with the fetch path's
//! answers unchanged behind the same executor API (design decision D12
//! in DESIGN.md).
//!
//! The build calls the fetch path's own row pipeline —
//! [`unify_assay_row`](crate::dataset::unify_assay_row), then
//! `dataset::resolve_activity_rows` — so a columnar scan returns the
//! same rows a federated fetch would. A scan builds no row: it hands
//! the positions its kernels selected to the executor's residual and
//! finish stages, the ones every access path runs, which read the
//! cells from the columns in place and build only the rows a query
//! returns (design decision D16).
//!
//! [`Access::ColumnarScan`]: crate::plan::Access::ColumnarScan

use crate::dataset::{activity_half_schema, RankedRows};
use crate::Result;
use drugtree_phylo::index::LeafInterval;
use drugtree_store::table::Table;
use std::ops::Range;

/// All activity rows, column-oriented and rank-sorted.
#[derive(Debug, Clone)]
pub struct ActivityColumns {
    table: Table,
}

impl ActivityColumns {
    /// Take ownership of resolved, rank-sorted rows as the mirror's table.
    pub(crate) fn new(rows: RankedRows) -> Result<ActivityColumns> {
        let schema = activity_half_schema().clone();
        let mut table = Table::from_rows("activity", schema, rows.into_vec())?;
        table.declare_sorted("leaf_rank")?;
        Ok(ActivityColumns { table })
    }

    /// Number of mirrored activity rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no rows are mirrored.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The contiguous row range covering a leaf interval — the
    /// zero-gather form of the optimizer's interval rewrite.
    pub fn rows_in(&self, interval: LeafInterval) -> Result<Range<usize>> {
        Ok(self
            .table
            .range_of_i64(i64::from(interval.lo), i64::from(interval.hi))?)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::small_dataset;
    use crate::dataset::Dataset;
    use crate::local::{Keep, LocalBuild};
    use drugtree_sources::source::SourceCapabilities;
    use drugtree_store::expr::{CompareOp, Predicate};

    fn mirror_and_dataset() -> (ActivityColumns, Dataset) {
        let d = small_dataset(SourceCapabilities::full());
        let c = LocalBuild::build(&d, Keep::Mirror).unwrap().mirror.unwrap();
        (c, d)
    }

    #[test]
    fn build_mirrors_all_activity_rows() {
        let (c, d) = mirror_and_dataset();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.table().sorted_by(), Some(0));
        // Rank-sorted: the whole tree is one contiguous range.
        let all = c.rows_in(d.index.interval(d.tree.root())).unwrap();
        assert_eq!(all, 0..4);
    }

    #[test]
    fn interval_maps_to_contiguous_range() {
        let (c, d) = mirror_and_dataset();
        let clade_a = d.index.by_label("cladeA").unwrap();
        let range = c.rows_in(d.index.interval(clade_a)).unwrap();
        // cladeA holds P1 (2 records) and P2 (1 record); P4 is empty.
        assert_eq!(range.len(), 3);
        for i in range {
            let rank = c.table().cell(i, 0).as_int().unwrap();
            assert!(d.index.interval(clade_a).contains_rank(rank as u32));
        }
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
