//! The golden optimizer-correctness test: **every optimizer
//! configuration must return exactly the naive plan's results** for
//! every query in a generated workload. Optimizations may only change
//! *cost*, never *answers*.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_query::ast::{Metric, QueryKind};
use drugtree_workload::queries::{mixed_stream, QueryWorkloadConfig};

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
