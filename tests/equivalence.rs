//! The golden optimizer-correctness test: **every optimizer
//! configuration must return exactly the naive plan's results** for
//! every query in a generated workload. Optimizations may only change
//! *cost*, never *answers*.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_query::ast::{Metric, QueryKind};
use drugtree_query::dataset::test_fixtures::{activity, small_dataset, test_latency};
use drugtree_sources::assay_db::assay_source;
use drugtree_sources::source::SourceCapabilities;
use drugtree_sources::SourceRegistry;
use drugtree_workload::queries::{mixed_stream, QueryWorkloadConfig};
use std::sync::Arc;

fn sorted_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Rank-insensitive comparison for top-k: equal-key rows may tie-break
/// differently between plans, so compare the multiset of ranking keys
/// instead of exact rows.
fn topk_keys(rows: &[Vec<Value>], column: usize) -> Vec<Value> {
    let mut keys: Vec<Value> = rows.iter().map(|r| r[column].clone()).collect();
    keys.sort();
    keys
}

#[test]
fn all_optimizer_configs_agree_with_naive() {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(96).ligands(24).seed(17));
    let queries = mixed_stream(
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: 48,
            seed: 23,
            scope_theta: 0.8,
        },
    );

    // Reference: the naive executor.
    let naive = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::naive())
        .with_stats(false)
        .build()
        .unwrap();

    // Challengers: full, plus each single-rule ablation, each with its
    // own dataset/cache so runs are independent.
    let mut challengers = vec![("full".to_string(), OptimizerConfig::full())];
    for rule in drugtree_query::phases::ablatable_rules() {
        challengers.push((
            format!("full-minus-{}", rule.name),
            OptimizerConfig::ablate(rule.name).expect("known rule"),
        ));
    }

    for (name, config) in challengers {
        let challenger = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(config)
            .with_matview()
            .build()
            .unwrap();
        for (i, query) in queries.iter().enumerate() {
            let expected = naive.execute(query).unwrap();
            let got = challenger.execute(query).unwrap();
            assert_eq!(
                expected.columns, got.columns,
                "[{name}] query {i} columns differ: {query:?}"
            );
            match &query.kind {
                QueryKind::TopK { by, .. } => {
                    let col = expected.columns.iter().position(|c| c == by).unwrap();
                    assert_eq!(
                        topk_keys(&expected.rows, col),
                        topk_keys(&got.rows, col),
                        "[{name}] query {i} top-k keys differ: {query:?}"
                    );
                }
                _ => {
                    assert_eq!(
                        sorted_rows(expected.rows.clone()),
                        sorted_rows(got.rows.clone()),
                        "[{name}] query {i} rows differ: {query:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn repeated_execution_is_idempotent_under_caching() {
    let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(64).ligands(16));
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .unwrap();
    let queries = mixed_stream(
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: 24,
            seed: 31,
            scope_theta: 1.2,
        },
    );
    // First pass warms the cache; second pass must return identical
    // answers (many now from the cache).
    let first: Vec<_> = queries
        .iter()
        .map(|q| system.execute(q).unwrap().rows)
        .collect();
    let second: Vec<_> = queries
        .iter()
        .map(|q| system.execute(q).unwrap().rows)
        .collect();
    assert_eq!(first, second);
    assert!(
        system.report().cache.hits > 0,
        "second pass should hit the cache"
    );
}

#[test]
fn multi_source_partitioning_is_transparent() {
    // The same records served by 1 source or split across 4 must give
    // identical query answers.
    let one = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(64)
            .ligands(16)
            .assay_sources(1),
    );
    let four = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(64)
            .ligands(16)
            .assay_sources(4),
    );
    assert_eq!(one.activities, four.activities);

    let sys_one = DrugTree::builder()
        .dataset(one.build_dataset())
        .build()
        .unwrap();
    let sys_four = DrugTree::builder()
        .dataset(four.build_dataset())
        .build()
        .unwrap();
    for text in [
        "activities in tree",
        "activities where p_activity >= 6.5",
        "aggregate count in tree",
        "count per leaf in tree",
    ] {
        let a = sorted_rows(sys_one.query(text).unwrap().rows);
        let b = sorted_rows(sys_four.query(text).unwrap().rows);
        assert_eq!(a, b, "{text}");
    }
}

/// Two labs, not replicas, measured P1–L1: lab-a 10 nM (pActivity 8)
/// in 2010, lab-b 500 nM (pActivity 6.3) in 2013. Lab-b's is the fact,
/// so no P1–L1 row has pActivity >= 7 on any plan; a value bound pushed
/// to the sources would ship lab-a's row alone.
#[test]
fn a_fact_two_labs_measured_is_its_latest_measurement_on_every_plan() {
    let system = |config: OptimizerConfig, local: bool| {
        let mut dataset = small_dataset(SourceCapabilities::full());
        dataset.registry = SourceRegistry::new();
        for (name, nm, year) in [("lab-a", 10.0, 2010), ("lab-b", 500.0, 2013)] {
            let records = [
                activity("P1", "L1", nm, year),
                activity("P3", "L3", 1.0, 2013),
            ];
            let source = assay_source(name, &records, SourceCapabilities::full(), test_latency());
            dataset
                .registry
                .register(Arc::new(source.unwrap()))
                .unwrap();
        }
        let builder = DrugTree::builder().dataset(dataset).optimizer(config);
        let builder = if local {
            builder.with_matview().with_columnar()
        } else {
            builder
        };
        builder.build().unwrap()
    };
    let naive = system(OptimizerConfig::naive(), false);
    let full = system(OptimizerConfig::full(), false);
    let local = system(OptimizerConfig::full(), true);
    let potent = "activities in subtree('cladeA') where p_activity >= 7";
    assert!(naive.query(potent).unwrap().rows.is_empty());
    assert!(!full.explain(potent).unwrap().contains("# pushdown"));
    for text in [potent, "aggregate mean_p_activity in tree"] {
        let expected = naive.query(text).unwrap().rows;
        assert_eq!(full.query(text).unwrap().rows, expected, "{text}");
        assert_eq!(local.query(text).unwrap().rows, expected, "{text}");
    }
    // A filter on the fact's key keeps or drops all its measurements.
    let plan = full.explain("activities where ligand_id = 'L1'").unwrap();
    assert!(plan.contains("# pushdown: ligand_id"), "{plan}");
}

/// The statistics let a value bound reach the sources only while they
/// still describe them: lab-b's later deposition re-measures lab-a's
/// P1–L1 (10 nM in 2010, then 500 nM in 2013), and the next plan, with
/// no refresh in between, pushes no value bound and keeps the 2013 fact.
#[test]
fn a_re_measurement_after_the_statistics_stops_value_pushdown() {
    let mut dataset = small_dataset(SourceCapabilities::full());
    dataset.registry = SourceRegistry::new();
    for (name, records) in [
        ("lab-a", [activity("P1", "L1", 10.0, 2010)]),
        ("lab-b", [activity("P2", "L2", 50.0, 2012)]),
    ] {
        let source = assay_source(name, &records, SourceCapabilities::full(), test_latency());
        dataset
            .registry
            .register(Arc::new(source.unwrap()))
            .unwrap();
    }
    let full = DrugTree::builder()
        .dataset(dataset)
        .optimizer(OptimizerConfig::full())
        .build()
        .unwrap();
    let potent = "activities in subtree('cladeA') where p_activity >= 7";
    let plan = full.explain(potent).unwrap();
    assert!(plan.contains("# pushdown: value_nm"), "{plan}");

    let lab_b = full.dataset().registry.by_name("lab-b").unwrap();
    lab_b
        .ingest(drugtree_sources::assay_db::assay_row(&activity(
            "P1", "L1", 500.0, 2013,
        )))
        .unwrap();
    let plan = full.explain(potent).unwrap();
    assert!(!plan.contains("# pushdown"), "{plan}");
    let naive = Executor::new(Optimizer::new(OptimizerConfig::naive()));
    let query = drugtree_query::parser::parse_query(potent).unwrap();
    let expected = naive.execute(full.dataset(), &query).unwrap().rows;
    assert!(expected.iter().all(|r| r[1] != Value::from("P1")));
    assert_eq!(full.query(potent).unwrap().rows, expected);
}

#[test]
fn local_structures_return_the_naive_plans_mean_bit_for_bit() {
    // `mean_p_activity` is a float sum, so it depends on the order of
    // summation. The naive plan sums in leaf-rank order; the
    // materialized view and the columnar sum kernel must do the same,
    // to the last bit — not merely to nine decimal places.
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(4096).ligands(64).seed(1101));
    let naive = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::naive())
        .with_stats(false)
        .build()
        .unwrap();
    let matview = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .with_matview()
        .build()
        .unwrap();
    let columnar = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .with_columnar()
        .build()
        .unwrap();

    // Every labelled clade of at least two leaves: the root's whole
    // 4,096-leaf sum down to two-leaf cherries. Each clade is some
    // parent's child, so each is compared at every size in between.
    let clades: Vec<String> = bundle
        .tree
        .node_ids()
        .filter(|&id| !bundle.tree.node_unchecked(id).is_leaf())
        .filter_map(|id| bundle.tree.node_unchecked(id).label.clone())
        .collect();
    assert!(clades.len() > 1000, "{} labelled clades", clades.len());

    let mut means = 0;
    for label in &clades {
        let query =
            Query::activities(Scope::Subtree(label.clone())).aggregate(Metric::MeanPActivity);
        let expected = naive.execute(&query).unwrap();
        for (name, system) in [("matview", &matview), ("columnar", &columnar)] {
            let got = system.execute(&query).unwrap();
            assert_eq!(got.metrics.source_requests, 0, "[{name}] answered locally");
            assert_eq!(expected.rows.len(), got.rows.len());
            for (e, g) in expected.rows.iter().zip(&got.rows) {
                assert_eq!(e[..3], g[..3], "[{name}] {label}");
                match (&e[3], &g[3]) {
                    (Value::Float(e), Value::Float(g)) => {
                        means += 1;
                        assert_eq!(
                            e.to_bits(),
                            g.to_bits(),
                            "[{name}] mean under {label} differs: naive {e:?}, got {g:?}"
                        );
                    }
                    (e, g) => assert_eq!(e, g, "[{name}] {label}"),
                }
            }
        }
    }
    assert!(means > 1000, "compared {means} means");
}
