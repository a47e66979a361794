//! Materialized per-subtree aggregate views.
//!
//! A collapsed tree UI labels every visible branch with "n ligands,
//! best pKi x.y". Recomputing that on every pan would re-fetch the
//! world; the view folds all per-node aggregates in one pass over the
//! activity batch of the [local build](crate::local) and answers
//! aggregate queries in microseconds. The build's freshness record tells when a
//! source change makes it stale (experiment E7 measures the
//! build-cost/speedup trade).

use crate::columnar::{ActivityColumns, LIGAND_ID, P_ACTIVITY, RANK};
use crate::dataset::Dataset;
use crate::Result;
use drugtree_phylo::tree::NodeId;
use drugtree_store::value::Value;
use rustc_hash::FxHashSet;

use crate::ast::Metric;

/// Per-node aggregates over the full (unfiltered) activity overlay.
#[derive(Debug, Clone)]
pub struct MaterializedAggregates {
    count: Vec<u64>,
    distinct_ligands: Vec<u64>,
    max_p: Vec<f64>,
    sum_p: Vec<f64>,
}

impl MaterializedAggregates {
    /// The view alone, without a freshness record: the local build's
    /// scan, folded. A thin wrapper kept for the benchmark harness;
    /// the executor and the adaptive runtime build through
    /// [`LocalBuild`](crate::local::LocalBuild) with `Keep::View`.
    pub fn build(dataset: &Dataset) -> Result<MaterializedAggregates> {
        MaterializedAggregates::fold(dataset, &crate::local::scan(dataset)?.0)
    }

    /// Fold a batch's rows up each leaf-to-root path. The batch is
    /// rank-sorted, the order the naive plan sums in, so a float sum
    /// (and hence `mean_p_activity`) is bit-for-bit the naive plan's.
    pub(crate) fn fold(
        dataset: &Dataset,
        batch: &ActivityColumns,
    ) -> Result<MaterializedAggregates> {
        let n = dataset.tree.len();
        let mut count = vec![0u64; n];
        let mut max_p = vec![f64::NEG_INFINITY; n];
        let mut sum_p = vec![0.0f64; n];
        let mut ligand_sets: Vec<FxHashSet<&str>> = vec![FxHashSet::default(); n];
        let table = batch.table();
        let (ranks, ligands, potencies) = (
            table.column(RANK),
            table.column(LIGAND_ID),
            table.column(P_ACTIVITY),
        );
        for i in 0..batch.len() {
            // The batch's columns are typed and complete; skip rather
            // than panic if not.
            let (Some(rank), Some(ligand), Some(p)) =
                (ranks.int_at(i), ligands.text_at(i), potencies.f64_at(i))
            else {
                continue;
            };
            // Fold up the ancestor path (including the leaf).
            let mut node = dataset.index.leaf_at(rank as u32)?;
            loop {
                let i = node.index();
                count[i] += 1;
                max_p[i] = max_p[i].max(p);
                sum_p[i] += p;
                ligand_sets[i].insert(ligand);
                let parent = dataset.index.parent(node);
                if parent == node {
                    break;
                }
                node = parent;
            }
        }

        Ok(MaterializedAggregates {
            count,
            distinct_ligands: ligand_sets.iter().map(|s| s.len() as u64).collect(),
            max_p,
            sum_p,
        })
    }

    /// The metric value for one node, as a result cell.
    pub fn value(&self, node: NodeId, metric: Metric) -> Value {
        let i = node.index();
        match metric {
            Metric::Count => Value::Int(self.count[i] as i64),
            Metric::DistinctLigands => Value::Int(self.distinct_ligands[i] as i64),
            Metric::MaxPActivity => {
                if self.count[i] == 0 {
                    Value::Null
                } else {
                    Value::Float(self.max_p[i])
                }
            }
            Metric::MeanPActivity => {
                if self.count[i] == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum_p[i] / self.count[i] as f64)
                }
            }
        }
    }

    /// Records under a node.
    pub fn count(&self, node: NodeId) -> u64 {
        self.count[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::small_dataset;
    use drugtree_sources::source::SourceCapabilities;

    fn view_and_dataset() -> (MaterializedAggregates, Dataset) {
        let d = small_dataset(SourceCapabilities::full());
        let v = MaterializedAggregates::build(&d).unwrap();
        (v, d)
    }

    #[test]
    fn aggregates_fold_up_the_tree() {
        let (v, d) = view_and_dataset();
        let root = d.tree.root();
        let clade_a = d.index.by_label("cladeA").unwrap();
        let clade_b = d.index.by_label("cladeB").unwrap();
        assert_eq!(v.count(root), 4);
        assert_eq!(v.count(clade_a), 3);
        assert_eq!(v.count(clade_b), 1);

        assert_eq!(v.value(clade_a, Metric::DistinctLigands), Value::Int(2)); // L1, L2
        assert_eq!(v.value(root, Metric::DistinctLigands), Value::Int(3));

        // Best potency at root = P3's 1 nM -> p=9.
        match v.value(root, Metric::MaxPActivity) {
            Value::Float(p) => assert!((p - 9.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_nodes_yield_null_potency() {
        let (v, d) = view_and_dataset();
        let p4 = d.index.by_label("P4").unwrap();
        assert_eq!(v.value(p4, Metric::MaxPActivity), Value::Null);
        assert_eq!(v.value(p4, Metric::MeanPActivity), Value::Null);
        assert_eq!(v.value(p4, Metric::Count), Value::Int(0));
    }

    #[test]
    fn mean_is_consistent() {
        let (v, d) = view_and_dataset();
        let p1 = d.index.by_label("P1").unwrap();
        // P1: 10 nM (p=8) and 2000 nM (p≈5.7).
        match v.value(p1, Metric::MeanPActivity) {
            Value::Float(m) => {
                let expected = (8.0 + -(2000.0f64 * 1e-9).log10()) / 2.0;
                assert!((m - expected).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }
}
