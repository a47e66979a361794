//! Materialized per-subtree aggregate views.
//!
//! A collapsed tree UI labels every visible branch with "n ligands,
//! best pKi x.y". Recomputing that on every pan would re-fetch the
//! world; the view materializes all per-node aggregates in one pass and
//! answers aggregate queries in microseconds. Staleness is detected by
//! comparing source record counts (experiment E7 measures the
//! build-cost/speedup trade).

use crate::cache::rank_of;
use crate::dataset::{unify_assay_row, Dataset};
use crate::exec::dedupe_most_recent;
use crate::Result;
use drugtree_phylo::tree::NodeId;
use drugtree_sources::source::{FetchRequest, SourceKind};
use drugtree_store::value::Value;
use rustc_hash::FxHashSet;
use std::time::Duration;

use crate::ast::Metric;

/// Per-node aggregates over the full (unfiltered) activity overlay.
#[derive(Debug, Clone)]
pub struct MaterializedAggregates {
    count: Vec<u64>,
    distinct_ligands: Vec<u64>,
    max_p: Vec<f64>,
    sum_p: Vec<f64>,
    /// (source name, record count) at build time, for staleness checks.
    source_counts: Vec<(String, usize)>,
    /// Simulated cost of the build pass.
    pub build_cost: Duration,
}

impl MaterializedAggregates {
    /// Build by scanning every distinct assay source once and folding
    /// each measurement up the leaf-to-root path, in leaf-rank order —
    /// the order the naive plan sums in, so a float sum (and hence
    /// `mean_p_activity`) is bit-for-bit the naive plan's. Rows run
    /// through the fetch path's unification and, across more than one
    /// source, its most-recent dedupe, so a measurement two sources
    /// share counts once.
    pub fn build(dataset: &Dataset) -> Result<MaterializedAggregates> {
        let mut build_cost = Duration::ZERO;
        let mut source_counts = Vec::new();
        let sources = dataset.registry.distinct_by_kind(SourceKind::Assay);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for source in &sources {
            let resp = source.fetch(&FetchRequest::scan())?;
            build_cost += resp.cost;
            source_counts.push((source.name().to_string(), source.record_count()));
            rows.extend(
                resp.rows
                    .into_iter()
                    .filter_map(|raw| unify_assay_row(dataset, raw)),
            );
        }
        if sources.len() > 1 {
            rows = dedupe_most_recent(rows);
        }
        // Stable: rows of one leaf keep their scan order, as they do
        // under the fetch path's rank sort.
        rows.sort_by_key(|row| rank_of(row));

        let n = dataset.tree.len();
        let mut count = vec![0u64; n];
        let mut max_p = vec![f64::NEG_INFINITY; n];
        let mut sum_p = vec![0.0f64; n];
        let mut ligand_sets: Vec<FxHashSet<&str>> = vec![FxHashSet::default(); n];
        for row in &rows {
            // `unify_assay_row` produced this row, so the column types
            // are fixed; skip rather than panic if not.
            let (Some(rank), Some(ligand), Some(p)) =
                (row[0].as_int(), row[2].as_text(), row[5].as_f64())
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
            source_counts,
            build_cost,
        })
    }

    /// True when no assay source has changed since the build.
    pub fn is_fresh(&self, dataset: &Dataset) -> bool {
        dataset
            .registry
            .distinct_by_kind(SourceKind::Assay)
            .iter()
            .all(|s| {
                self.source_counts
                    .iter()
                    .any(|(name, n)| name == s.name() && *n == s.record_count())
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

    #[test]
    fn staleness_detection() {
        let (v, d) = view_and_dataset();
        assert!(v.is_fresh(&d));
        // Ingest a new record into the simulated source.
        let source = d.registry.by_name("assay-sim").unwrap();
        // Downcast path: the registry stores dyn DataSource; the test
        // fixture's source supports ingest through the concrete type,
        // so we simulate staleness by registering count drift instead.
        // (ingest is exercised end-to-end in the executor tests.)
        drop(source);
        let mut stale = v;
        stale.source_counts[0].1 += 1;
        assert!(!stale.is_fresh(&d));
    }

    #[test]
    fn a_measurement_two_sources_share_counts_once() {
        use crate::ast::{Query, Scope};
        use crate::dataset::test_fixtures::{activity, test_latency};
        use crate::exec::Executor;
        use crate::optimizer::{Optimizer, OptimizerConfig};
        use drugtree_sources::assay_db::assay_source;
        use drugtree_sources::SourceRegistry;
        use std::sync::Arc;
        // Two labs, not replicas, both measured P1–L1: lab-a 10 nM in
        // 2010, lab-b 20 nM in 2013. Every row path keeps lab-b's.
        let mut d = small_dataset(SourceCapabilities::full());
        let mut registry = SourceRegistry::new();
        for (name, records) in [
            (
                "lab-a",
                [("P1", "L1", 10.0, 2010), ("P2", "L1", 50.0, 2012)],
            ),
            ("lab-b", [("P1", "L1", 20.0, 2013), ("P3", "L3", 1.0, 2013)]),
        ] {
            let records = records.map(|(p, l, nm, year)| activity(p, l, nm, year));
            let source = assay_source(name, &records, SourceCapabilities::full(), test_latency());
            registry.register(Arc::new(source.unwrap())).unwrap();
        }
        d.registry = registry;

        let naive = Executor::new(Optimizer::new(OptimizerConfig::naive()));
        let mut viewed = Executor::new(Optimizer::new(OptimizerConfig::full()));
        viewed.build_matview(&d).unwrap();
        for metric in [
            Metric::Count,
            Metric::DistinctLigands,
            Metric::MaxPActivity,
            Metric::MeanPActivity,
        ] {
            let q = Query::activities(Scope::Tree).aggregate(metric);
            let expected = naive.execute(&d, &q).unwrap();
            let got = viewed.execute(&d, &q).unwrap();
            assert_eq!(got.metrics.source_requests, 0, "the view answers");
            assert_eq!(got.rows, expected.rows, "{metric:?}");
        }
        let clade_a = d.index.by_label("cladeA").unwrap();
        assert_eq!(MaterializedAggregates::build(&d).unwrap().count(clade_a), 2);
    }

    #[test]
    fn build_cost_charged() {
        let (v, _) = view_and_dataset();
        assert!(v.build_cost > Duration::ZERO);
    }
}
