//! Overlay statistics: the optimizer's knowledge of the data.
//!
//! Collected once after integration (one scan per assay source, one per
//! replica group — an ingest-time cost the paper's interactive queries
//! amortize), the statistics answer three planning questions:
//!
//! 1. **Pruning (D4)** — "can this subtree/leaf contribute at all?"
//!    via per-leaf record counts (prefix sums → O(1) per interval) and
//!    per-leaf maximum pActivity (sparse table → O(1) range max).
//! 2. **Selectivity** — "how selective is this predicate?" via
//!    equi-width histograms on the numeric columns.
//! 3. **Value pushdown across sources** — "was every fact measured
//!    once?" Where the deployment resolves conflicts, a source filters
//!    before the resolve step, so a value bound is pushed only while
//!    the collection pass's answer (yes) still holds.

use crate::dataset::{AssayCells, AssayRows, Dataset, SourceEpoch};
use crate::Result;
use drugtree_phylo::index::LeafInterval;
use drugtree_sources::source::{FetchRequest, SourceKind};
use drugtree_store::expr::{CompareOp, Predicate};
use drugtree_store::value::Value;
use rustc_hash::{FxHashSet, FxHasher};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// An equi-width histogram over one numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Build from observed values with `nbuckets` buckets.
    pub fn build(values: impl IntoIterator<Item = f64>, nbuckets: usize) -> Histogram {
        let values: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        let nbuckets = nbuckets.max(1);
        if values.is_empty() {
            return Histogram {
                min: 0.0,
                max: 0.0,
                buckets: vec![0; nbuckets],
                total: 0,
            };
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut buckets = vec![0u64; nbuckets];
        let width = ((max - min) / nbuckets as f64).max(f64::MIN_POSITIVE);
        for v in &values {
            let b = (((v - min) / width) as usize).min(nbuckets - 1);
            buckets[b] += 1;
        }
        Histogram {
            min,
            max,
            buckets,
            total: values.len() as u64,
        }
    }

    /// Number of observed values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Estimated fraction of values satisfying `op value` (in [0, 1]).
    ///
    /// Edge cases are pinned rather than extrapolated: a NaN literal
    /// matches nothing (except `Ne`, which every stored value
    /// satisfies), infinite literals clamp to all-or-nothing, and `Eq`
    /// estimates one row's share in the probed bucket (zero for an
    /// empty bucket or an out-of-range probe) instead of a whole
    /// bucket's share — so a single-bucket histogram no longer claims
    /// every row equals any probed value.
    pub fn selectivity(&self, op: CompareOp, value: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if value.is_nan() {
            // IEEE comparisons against NaN are all false; `Ne` is the
            // lone complement that is always true.
            return if op == CompareOp::Ne { 1.0 } else { 0.0 };
        }
        if value.is_infinite() {
            let everything_below = value.is_sign_positive();
            return match op {
                CompareOp::Lt | CompareOp::Le => {
                    if everything_below {
                        1.0
                    } else {
                        0.0
                    }
                }
                CompareOp::Gt | CompareOp::Ge => {
                    if everything_below {
                        0.0
                    } else {
                        1.0
                    }
                }
                // Only finite values are binned (see `build`), so no
                // stored value equals an infinity.
                CompareOp::Eq => 0.0,
                CompareOp::Ne => 1.0,
            };
        }
        let frac_below = self.fraction_below(value);
        let eq = self.point_mass(value);
        match op {
            CompareOp::Lt => frac_below,
            CompareOp::Le => (frac_below + eq).min(1.0),
            CompareOp::Gt => 1.0 - (frac_below + eq).min(1.0),
            CompareOp::Ge => 1.0 - frac_below,
            CompareOp::Eq => eq,
            CompareOp::Ne => 1.0 - eq,
        }
        .clamp(0.0, 1.0)
    }

    /// Estimated fraction of values exactly equal to `value`: one
    /// row's share when the probed bucket is non-empty (values within
    /// a bucket are assumed distinct), zero for empty buckets and for
    /// probes outside `[min, max]`; a constant column (`min == max`)
    /// is all-or-nothing.
    fn point_mass(&self, value: f64) -> f64 {
        if self.total == 0 || value < self.min || value > self.max {
            return 0.0;
        }
        if self.min == self.max {
            return if value == self.min { 1.0 } else { 0.0 };
        }
        let width = ((self.max - self.min) / self.buckets.len() as f64).max(f64::MIN_POSITIVE);
        let b = (((value - self.min) / width) as usize).min(self.buckets.len() - 1);
        if self.buckets[b] == 0 {
            0.0
        } else {
            1.0 / self.total as f64
        }
    }

    /// Estimated fraction of values strictly below `value`.
    fn fraction_below(&self, value: f64) -> f64 {
        if self.total == 0 || value <= self.min {
            return 0.0;
        }
        if value > self.max {
            return 1.0;
        }
        let width = ((self.max - self.min) / self.buckets.len() as f64).max(f64::MIN_POSITIVE);
        let pos = (value - self.min) / width;
        let full = pos.floor() as usize;
        let below: u64 = self.buckets.iter().take(full.min(self.buckets.len())).sum();
        let partial = if full < self.buckets.len() {
            self.buckets[full] as f64 * (pos - pos.floor())
        } else {
            0.0
        };
        ((below as f64 + partial) / self.total as f64).clamp(0.0, 1.0)
    }
}

/// O(1) range-maximum over a fixed array (sparse table).
#[derive(Debug, Clone)]
pub struct RangeMax {
    /// table[k][i] = max of [i, i + 2^k).
    table: Vec<Vec<f64>>,
}

impl RangeMax {
    /// Build over the values.
    pub fn build(values: &[f64]) -> RangeMax {
        let n = values.len();
        let mut table = vec![values.to_vec()];
        let mut k = 1;
        while (1 << k) <= n {
            let prev = &table[k - 1];
            let half = 1 << (k - 1);
            let row: Vec<f64> = (0..=(n - (1 << k)))
                .map(|i| prev[i].max(prev[i + half]))
                .collect();
            table.push(row);
            k += 1;
        }
        RangeMax { table }
    }

    /// Maximum over `[lo, hi)`; `None` for an empty range.
    pub fn max(&self, lo: u32, hi: u32) -> Option<f64> {
        let (lo, hi) = (lo as usize, hi as usize);
        let n = self.table.first().map_or(0, Vec::len);
        if lo >= hi || lo >= n {
            return None;
        }
        let hi = hi.min(n);
        let len = hi - lo;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        Some(self.table[k][lo].max(self.table[k][hi - (1 << k)]))
    }
}

/// The statistics bundle.
#[derive(Debug, Clone)]
pub struct OverlayStats {
    /// Per-leaf activity record counts.
    counts: Vec<u64>,
    /// Prefix sums of `counts` (length n+1).
    prefix: Vec<u64>,
    /// Per-leaf maximum pActivity (NEG_INFINITY for empty leaves).
    max_p: RangeMax,
    /// pActivity histogram.
    pub p_activity: Histogram,
    /// Molecular-weight histogram (from the local ligand table).
    pub mw: Histogram,
    /// Simulated cost of the collection pass.
    pub collection_cost: Duration,
    /// The source epoch read before the collection scan (D4).
    pub(crate) epoch: SourceEpoch,
    /// Where the deployment resolves conflicts: the pass saw each
    /// (leaf, ligand, activity type) once and every replica held as
    /// many records as its group.
    facts_once: bool,
}

impl OverlayStats {
    /// Collect statistics with one scan per replica group (the
    /// cheapest member) and one per other assay source. Counts are not
    /// deduplicated: they are estimates.
    pub fn collect(dataset: &Dataset) -> Result<OverlayStats> {
        let epoch = dataset.source_epoch();
        let n = dataset.leaf_count();
        let mut counts = vec![0u64; n];
        let mut max_p = vec![f64::NEG_INFINITY; n];
        let mut p_values = Vec::new();
        let mut cost = Duration::ZERO;
        let mut facts = dataset.resolves_conflicts().then(FxHashSet::default);
        let mut repeated = false;

        for source in dataset.registry.distinct_by_kind(SourceKind::Assay) {
            let resp = source.fetch(&FetchRequest::scan())?;
            cost += resp.cost;
            let rows = AssayRows::new(dataset, &resp.table);
            for i in 0..rows.len() {
                if let Some((rank, p)) = rows.unify(i) {
                    if let (Some(facts), Some(cells)) = (&mut facts, rows.cells()) {
                        // Ligand and type by hash: a collision only
                        // makes the answer more cautious.
                        let mut h = FxHasher::default();
                        cells.text(AssayCells::LIGAND, i).hash(&mut h);
                        cells.text(AssayCells::KIND, i).hash(&mut h);
                        repeated |= !facts.insert((rank, h.finish()));
                    }
                    let rank = rank as usize;
                    counts[rank] += 1;
                    max_p[rank] = max_p[rank].max(p);
                    p_values.push(p);
                }
            }
        }

        let mut prefix = vec![0u64; n + 1];
        for (i, &c) in counts.iter().enumerate() {
            prefix[i + 1] = prefix[i] + c;
        }

        // Ligand MW histogram from the local table.
        let ligands = dataset
            .overlay
            .catalog()
            .table(drugtree_integrate::overlay::tables::LIGAND)?;
        let mw_col = ligands.schema().column_index("mw")?;
        let mws: Vec<f64> = (0..ligands.len())
            .filter_map(|i| ligands.cell(i, mw_col).as_f64())
            .collect();

        Ok(OverlayStats {
            counts,
            prefix,
            max_p: RangeMax::build(&max_p),
            p_activity: Histogram::build(p_values, 32),
            mw: Histogram::build(mws, 32),
            collection_cost: cost,
            epoch,
            facts_once: facts.is_some() && !repeated && replicas_agree(dataset),
        })
    }

    /// True when the pass saw every fact measured once and its epoch
    /// holds at `epoch`: a filter at the sources then cannot keep a
    /// superseded measurement (D3a). Always false where the deployment
    /// does not resolve conflicts (there it is not asked).
    pub(crate) fn facts_measured_once(&self, epoch: SourceEpoch) -> bool {
        self.facts_once && self.epoch.holds_at(epoch)
    }

    /// Activity records attached to one leaf.
    pub fn leaf_count(&self, rank: u32) -> u64 {
        self.counts.get(rank as usize).copied().unwrap_or(0)
    }

    /// Total records under an interval, O(1).
    pub fn interval_count(&self, iv: LeafInterval) -> u64 {
        let lo = (iv.lo as usize).min(self.prefix.len() - 1);
        let hi = (iv.hi as usize).min(self.prefix.len() - 1);
        if lo >= hi {
            0
        } else {
            self.prefix[hi] - self.prefix[lo]
        }
    }

    /// Maximum pActivity under an interval, O(1); `None` when the
    /// interval holds no records. A concentration too small for its
    /// molar value to be represented has a pActivity of +∞, kept here.
    pub fn interval_max_p(&self, iv: LeafInterval) -> Option<f64> {
        match self.max_p.max(iv.lo, iv.hi) {
            Some(v) if v > f64::NEG_INFINITY => Some(v),
            _ => None,
        }
    }

    /// Total records overall.
    pub fn total_count(&self) -> u64 {
        *self.prefix.last().unwrap_or(&0)
    }

    /// Estimate the fraction of activity rows a predicate keeps.
    /// Conjunctions multiply (independence assumption), disjunctions
    /// saturate-add; unknown shapes estimate 1.0 (no reduction).
    pub fn predicate_selectivity(&self, pred: &Predicate) -> f64 {
        match pred {
            Predicate::True => 1.0,
            Predicate::Compare { column, op, value } => {
                let v = match value {
                    Value::Int(i) => *i as f64,
                    Value::Float(f) => *f,
                    _ => return 0.5,
                };
                match column.as_str() {
                    "p_activity" => self.p_activity.selectivity(*op, v),
                    "mw" => self.mw.selectivity(*op, v),
                    _ => 0.5,
                }
            }
            Predicate::Between { column, lo, hi } => {
                let ge = Predicate::Compare {
                    column: column.clone(),
                    op: CompareOp::Ge,
                    value: lo.clone(),
                };
                let le = Predicate::Compare {
                    column: column.clone(),
                    op: CompareOp::Le,
                    value: hi.clone(),
                };
                (self.predicate_selectivity(&ge) + self.predicate_selectivity(&le) - 1.0)
                    .clamp(0.0, 1.0)
            }
            Predicate::InSet { values, .. } => (values.len() as f64 * 0.05).clamp(0.0, 1.0),
            Predicate::IsNull { .. } => 0.05,
            Predicate::And(ps) => ps.iter().map(|p| self.predicate_selectivity(p)).product(),
            Predicate::Or(ps) => ps
                .iter()
                .map(|p| self.predicate_selectivity(p))
                .fold(0.0, |acc, s| (acc + s).min(1.0)),
            Predicate::Not(p) => 1.0 - self.predicate_selectivity(p),
        }
    }
}

/// True when every replicated assay source holds as many records as
/// each member of its group: the pass scanned one member, so only then
/// did it see what the others hold.
fn replicas_agree(dataset: &Dataset) -> bool {
    let registry = &dataset.registry;
    registry.all().iter().all(|s| {
        registry.replica_group_of(s.name()).is_none_or(|group| {
            group.iter().all(|name| {
                registry
                    .by_name(name)
                    .is_ok_and(|m| m.record_count() == s.record_count())
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::small_dataset;
    use drugtree_sources::source::SourceCapabilities;

    #[test]
    fn histogram_selectivity() {
        let h = Histogram::build((0..100).map(f64::from), 10);
        assert_eq!(h.total(), 100);
        let s = h.selectivity(CompareOp::Lt, 50.0);
        assert!((s - 0.5).abs() < 0.06, "got {s}");
        assert!(h.selectivity(CompareOp::Lt, -5.0) == 0.0);
        assert!(h.selectivity(CompareOp::Ge, -5.0) == 1.0);
        assert!(h.selectivity(CompareOp::Gt, 200.0) <= 0.11);
        let eq = h.selectivity(CompareOp::Eq, 42.0);
        assert!(eq > 0.0 && eq <= 0.11);
    }

    #[test]
    fn histogram_empty_and_constant() {
        let h = Histogram::build(std::iter::empty(), 8);
        assert_eq!(h.total(), 0);
        assert_eq!(h.selectivity(CompareOp::Lt, 1.0), 0.0);
        let h = Histogram::build([5.0, 5.0, 5.0], 8);
        assert_eq!(h.total(), 3);
        assert!(h.selectivity(CompareOp::Ge, 5.0) > 0.9);
    }

    #[test]
    fn range_max() {
        let rm = RangeMax::build(&[1.0, 5.0, 2.0, 9.0, 3.0]);
        assert_eq!(rm.max(0, 5), Some(9.0));
        assert_eq!(rm.max(0, 3), Some(5.0));
        assert_eq!(rm.max(2, 3), Some(2.0));
        assert_eq!(rm.max(4, 5), Some(3.0));
        assert_eq!(rm.max(3, 3), None);
        assert_eq!(rm.max(9, 12), None);
        let empty = RangeMax::build(&[]);
        assert_eq!(empty.max(0, 1), None);
    }

    #[test]
    fn histogram_single_bucket_and_out_of_range() {
        // A single bucket no longer claims every row equals the probe:
        // `Eq` is one row's share of the (non-empty) bucket.
        let h = Histogram::build([1.0, 2.0, 3.0, 4.0], 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.selectivity(CompareOp::Eq, 2.0), 0.25);
        assert_eq!(h.selectivity(CompareOp::Ne, 2.0), 0.75);
        assert_eq!(h.selectivity(CompareOp::Lt, 1.0), 0.0);
        assert_eq!(h.selectivity(CompareOp::Ge, 1.0), 1.0);
        // Probes entirely outside the observed [min, max] clamp to 0 or 1.
        assert_eq!(h.selectivity(CompareOp::Lt, -100.0), 0.0);
        assert_eq!(h.selectivity(CompareOp::Ge, -100.0), 1.0);
        assert_eq!(h.selectivity(CompareOp::Lt, 100.0), 1.0);
        assert_eq!(h.selectivity(CompareOp::Ge, 100.0), 0.0);
        assert_eq!(h.selectivity(CompareOp::Eq, 100.0), 0.0);
        assert_eq!(h.selectivity(CompareOp::Ne, 100.0), 1.0);
        // nbuckets = 0 is clamped to one bucket rather than panicking;
        // a constant column stays all-or-nothing on the exact value.
        let h = Histogram::build([7.0], 0);
        assert_eq!(h.total(), 1);
        assert_eq!(h.selectivity(CompareOp::Eq, 7.0), 1.0);
        assert_eq!(h.selectivity(CompareOp::Ne, 7.0), 0.0);
    }

    #[test]
    fn histogram_nan_and_infinite_literals() {
        let h = Histogram::build((0..100).map(f64::from), 10);
        // NaN comparisons are all false except `Ne`, which is always
        // true — no extrapolated garbage from the bucket arithmetic.
        for op in [
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
            CompareOp::Eq,
        ] {
            assert_eq!(h.selectivity(op, f64::NAN), 0.0, "{op:?} NaN");
        }
        assert_eq!(h.selectivity(CompareOp::Ne, f64::NAN), 1.0);
        // +inf: every stored value is below it; none equals it.
        assert_eq!(h.selectivity(CompareOp::Lt, f64::INFINITY), 1.0);
        assert_eq!(h.selectivity(CompareOp::Le, f64::INFINITY), 1.0);
        assert_eq!(h.selectivity(CompareOp::Gt, f64::INFINITY), 0.0);
        assert_eq!(h.selectivity(CompareOp::Ge, f64::INFINITY), 0.0);
        assert_eq!(h.selectivity(CompareOp::Eq, f64::INFINITY), 0.0);
        assert_eq!(h.selectivity(CompareOp::Ne, f64::INFINITY), 1.0);
        // -inf mirrors.
        assert_eq!(h.selectivity(CompareOp::Lt, f64::NEG_INFINITY), 0.0);
        assert_eq!(h.selectivity(CompareOp::Le, f64::NEG_INFINITY), 0.0);
        assert_eq!(h.selectivity(CompareOp::Gt, f64::NEG_INFINITY), 1.0);
        assert_eq!(h.selectivity(CompareOp::Ge, f64::NEG_INFINITY), 1.0);
        assert_eq!(h.selectivity(CompareOp::Eq, f64::NEG_INFINITY), 0.0);
        assert_eq!(h.selectivity(CompareOp::Ne, f64::NEG_INFINITY), 1.0);
        // An empty histogram stays 0.0 for every op, NaN included.
        let empty = Histogram::build(std::iter::empty(), 4);
        assert_eq!(empty.selectivity(CompareOp::Ne, f64::NAN), 0.0);
        assert_eq!(empty.selectivity(CompareOp::Lt, f64::INFINITY), 0.0);
    }

    #[test]
    fn histogram_eq_empty_bucket_is_zero() {
        // Bimodal data: the middle buckets are empty, so an equality
        // probe landing there estimates zero rather than a fake mass.
        let values = (0..10).map(f64::from).chain((90..100).map(f64::from));
        let h = Histogram::build(values, 10);
        assert_eq!(h.selectivity(CompareOp::Eq, 50.0), 0.0);
        assert_eq!(h.selectivity(CompareOp::Ne, 50.0), 1.0);
        let hit = h.selectivity(CompareOp::Eq, 5.0);
        assert!(hit > 0.0 && hit <= 0.06, "got {hit}");
    }

    #[test]
    fn range_max_degenerate_ranges() {
        let rm = RangeMax::build(&[4.0, 1.0, 8.0]);
        // Inverted bounds (lo > hi) are an empty range, not a panic.
        assert_eq!(rm.max(2, 1), None);
        assert_eq!(rm.max(3, 0), None);
        // Zero-width and fully out-of-range probes are empty too.
        assert_eq!(rm.max(1, 1), None);
        assert_eq!(rm.max(5, 9), None);
        // A range overhanging the end clamps to the array.
        assert_eq!(rm.max(1, 100), Some(8.0));
        // Single-element build answers its only range.
        let one = RangeMax::build(&[2.5]);
        assert_eq!(one.max(0, 1), Some(2.5));
        assert_eq!(one.max(1, 2), None);
        // Empty build with inverted bounds stays None.
        let empty = RangeMax::build(&[]);
        assert_eq!(empty.max(3, 1), None);
    }

    #[test]
    fn collect_from_sources() {
        let d = small_dataset(SourceCapabilities::full());
        let stats = OverlayStats::collect(&d).unwrap();
        assert_eq!(stats.total_count(), 4);
        assert_eq!(stats.leaf_count(0), 2); // P1 has two records
        assert_eq!(stats.leaf_count(3), 0); // P4 is empty
        assert_eq!(stats.interval_count(LeafInterval { lo: 0, hi: 2 }), 3);
        assert_eq!(stats.interval_count(LeafInterval { lo: 3, hi: 4 }), 0);
        assert!(stats.collection_cost > Duration::ZERO);
        // P3-L3 at 1 nM -> pActivity 9 is the global max.
        let max = stats.interval_max_p(LeafInterval { lo: 0, hi: 4 }).unwrap();
        assert!((max - 9.0).abs() < 1e-9);
        assert!(stats
            .interval_max_p(LeafInterval { lo: 3, hi: 4 })
            .is_none());
    }

    #[test]
    fn an_infinite_p_activity_is_a_maximum() {
        let d = small_dataset(SourceCapabilities::full());
        // 5e-324 nM underflows to 0 M: pActivity +∞.
        let record = crate::dataset::test_fixtures::activity("P4", "L2", 5e-324, 2013);
        d.registry.by_kind(SourceKind::Assay)[0]
            .ingest(drugtree_sources::assay_db::assay_row(&record))
            .unwrap();
        let stats = OverlayStats::collect(&d).unwrap();
        let p4 = LeafInterval { lo: 3, hi: 4 };
        assert_eq!(stats.interval_max_p(p4), Some(f64::INFINITY));
    }

    #[test]
    fn predicate_selectivity_composition() {
        let d = small_dataset(SourceCapabilities::full());
        let stats = OverlayStats::collect(&d).unwrap();
        let narrow = Predicate::cmp("p_activity", CompareOp::Ge, 8.5);
        let wide = Predicate::cmp("p_activity", CompareOp::Ge, 5.0);
        assert!(stats.predicate_selectivity(&narrow) < stats.predicate_selectivity(&wide));
        assert_eq!(stats.predicate_selectivity(&Predicate::True), 1.0);
        let conj = narrow.clone().and(wide);
        assert!(stats.predicate_selectivity(&conj) <= stats.predicate_selectivity(&narrow) + 1e-12);
        let not = Predicate::Not(Box::new(narrow.clone()));
        let s = stats.predicate_selectivity(&narrow) + stats.predicate_selectivity(&not);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
