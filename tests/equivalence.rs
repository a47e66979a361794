//! The golden optimizer-correctness test: **every optimizer
//! configuration must return exactly the naive plan's results** for
//! every query in a generated workload. Optimizations may only change
//! *cost*, never *answers*.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_chem::affinity::ActivityRecord;
use drugtree_query::ast::Metric;
use drugtree_query::dataset::test_fixtures::{activity, small_dataset, test_latency};
use drugtree_query::local::Keep;
use drugtree_query::plan::Access;
use drugtree_sources::assay_db::assay_source;
use drugtree_sources::source::{SourceCapabilities, SourceKind};
use drugtree_sources::SourceRegistry;
use drugtree_store::expr::Predicate;
use drugtree_workload::queries::{mixed_stream, QueryWorkloadConfig};
use std::sync::Arc;
use support::{normalise, system, Matrix, Step, Systems};

mod support;

/// The mixed workload on the naive plan and every system of the
/// ablation matrix: `full()` and each single-rule ablation, with and
/// without the view and the mirror, each warm and cold.
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
    let systems = Systems::new(&Matrix::with_ablations(), || bundle.build_dataset());
    let steps: Vec<Step> = queries.into_iter().map(Step::Query).collect();
    systems
        .run(&steps)
        .unwrap_or_else(|divergence| panic!("{divergence}"));
}

#[test]
fn repeated_execution_is_idempotent_under_caching() {
    let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(64).ligands(16));
    let system = system(bundle.build_dataset(), OptimizerConfig::full(), None);
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
    let spec = WorkloadSpec::default().leaves(64).ligands(16);
    let one = SyntheticBundle::generate(&spec.clone().assay_sources(1));
    let four = SyntheticBundle::generate(&spec.assay_sources(4));
    assert_eq!(one.activities, four.activities);

    let sys_one = system(one.build_dataset(), OptimizerConfig::full(), None);
    let sys_four = system(four.build_dataset(), OptimizerConfig::full(), None);
    for text in [
        "activities in tree",
        "activities where p_activity >= 6.5",
        "aggregate count in tree",
        "count per leaf in tree",
    ] {
        let a = normalise(&sys_one.query(text).unwrap().rows);
        let b = normalise(&sys_four.query(text).unwrap().rows);
        assert_eq!(a, b, "{text}");
    }
}

/// `bundle`'s records split between two assay sources: one evaluates
/// every predicate, the other is dump-only.
fn mixed_capabilities(bundle: &SyntheticBundle) -> Dataset {
    let mut dataset = bundle.build_dataset();
    let mut registry = SourceRegistry::new();
    for source in dataset.registry.all() {
        if source.kind() != SourceKind::Assay {
            registry.register(Arc::clone(source)).unwrap();
        }
    }
    let (even, odd): (Vec<_>, Vec<_>) = (0..bundle.activities.len()).partition(|i| i % 2 == 0);
    for (name, caps, picked) in [
        ("assay-full", SourceCapabilities::full(), even),
        ("assay-dump", SourceCapabilities::minimal(), odd),
    ] {
        let records: Vec<ActivityRecord> = picked
            .iter()
            .map(|&i| bundle.activities[i].clone())
            .collect();
        let source = assay_source(name, &records, caps, test_latency()).unwrap();
        registry.register(Arc::new(source)).unwrap();
    }
    dataset.registry = registry;
    dataset
}

/// A federation of a `full()` and a `minimal()` assay source: no fetch
/// carries a pushdown, since the dump-only source evaluates none, and no
/// probe key holds a remote conjunct (at most the pruning bound on the
/// local `p_activity`); every answer is the naive plan's.
#[test]
fn a_mixed_capability_federation_pushes_nothing_and_agrees_with_naive() {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(64).ligands(16).seed(29));
    let mut steps: Vec<Step> = [
        "activities where p_activity >= 6.5",
        "activities where year >= 2012 and activity_type = 'Ki'",
        "activities where p_activity between 5 and 8 and year < 2015",
        "aggregate count in tree where p_activity >= 7",
    ]
    .map(|text| Step::Text(text.into()))
    .into();
    let stream = mixed_stream(
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: 32,
            seed: 41,
            scope_theta: 0.8,
        },
    );
    steps.extend(stream.into_iter().map(Step::Query));

    let planned = system(mixed_capabilities(&bundle), OptimizerConfig::full(), None);
    let mut probes = 0;
    for step in &steps {
        let query = match step {
            Step::Text(text) => Query::parse(text).unwrap(),
            Step::Query(query) => query.clone(),
            other => panic!("{other:?}"),
        };
        let plan = planned
            .executor()
            .analyze(planned.dataset(), &query)
            .unwrap()
            .plan;
        let fetches = match &plan.access {
            Access::Fetch { fetches, .. } => fetches.as_slice(),
            Access::CacheProbe(probe) => {
                probes += 1;
                let key = probe.key().map(Predicate::columns).unwrap_or_default();
                assert!(key.iter().all(|c| *c == "p_activity"), "{query}: {key:?}");
                probe.on_miss()
            }
            _ => &[],
        };
        assert!(fetches.iter().all(|f| f.pushdown().is_none()), "{query}");
    }
    assert!(probes > 0, "the cache wraps the fetches");

    let systems = Systems::new(&Matrix::with_ablations(), || mixed_capabilities(&bundle));
    systems
        .run(&steps)
        .unwrap_or_else(|divergence| panic!("{divergence}"));
}

/// The 4-leaf fixture behind two labs' assay sources, not replicas.
fn labs(lab_a: &[ActivityRecord], lab_b: &[ActivityRecord]) -> Dataset {
    let mut dataset = small_dataset(SourceCapabilities::full());
    dataset.registry = SourceRegistry::new();
    for (name, records) in [("lab-a", lab_a), ("lab-b", lab_b)] {
        let source = assay_source(name, records, SourceCapabilities::full(), test_latency());
        let registry = &mut dataset.registry;
        registry.register(Arc::new(source.unwrap())).unwrap();
    }
    dataset
}

/// Two labs, not replicas, measured P1–L1: lab-a 10 nM (pActivity 8)
/// in 2010, lab-b 500 nM (pActivity 6.3) in 2013. Lab-b's is the fact,
/// so no P1–L1 row has pActivity >= 7 on any plan; a value bound pushed
/// to the sources would ship lab-a's row alone.
#[test]
fn a_fact_two_labs_measured_is_its_latest_measurement_on_every_plan() {
    let other = activity("P3", "L3", 1.0, 2013);
    let lab_a = [activity("P1", "L1", 10.0, 2010), other.clone()];
    let lab_b = [activity("P1", "L1", 500.0, 2013), other];
    let systems = Systems::new(&Matrix::fixed(), || labs(&lab_a, &lab_b));
    let potent = "activities in subtree('cladeA') where p_activity >= 7";
    assert!(systems.naive().query(potent).unwrap().rows.is_empty());
    let full = systems.get("full");
    assert!(!full.explain(potent).unwrap().contains("# pushdown"));
    let steps = [potent, "aggregate mean_p_activity in tree"].map(|t| Step::Text(t.into()));
    assert_eq!(systems.run(&steps).unwrap_or_else(|d| panic!("{d}")), 2);
    // A filter on the fact's key keeps or drops all its measurements.
    let plan = full.explain("activities where ligand_id = 'L1'").unwrap();
    assert!(plan.contains("# pushdown: ligand_id"), "{plan}");
}

/// The statistics let a value bound reach the sources only while they
/// still describe them: lab-b's later deposition re-measures lab-a's
/// P1–L1 (10 nM in 2010, then 500 nM in 2013), and the next plans, with
/// no refresh in between, push no value bound and keep the 2013 fact.
#[test]
fn a_re_measurement_after_the_statistics_stops_value_pushdown() {
    let lab_a = [activity("P1", "L1", 10.0, 2010)];
    let lab_b = [activity("P2", "L2", 50.0, 2012)];
    let systems = Systems::new(&Matrix::fixed(), || labs(&lab_a, &lab_b));
    let potent = "activities in subtree('cladeA') where p_activity >= 7";
    let plan = systems.get("full").explain(potent).unwrap();
    assert!(plan.contains("# pushdown: value_nm"), "{plan}");

    let record = activity("P1", "L1", 500.0, 2013);
    let steps = [Step::Ingest(record, 1), Step::Text(potent.into())];
    assert_eq!(systems.run(&steps).unwrap_or_else(|d| panic!("{d}")), 1);
    let plan = systems.get("full").explain(potent).unwrap();
    assert!(!plan.contains("# pushdown"), "{plan}");
    let expected = systems.naive().query(potent).unwrap().rows;
    assert!(expected.iter().all(|r| r[1] != Value::from("P1")));
}

#[test]
fn local_structures_return_the_naive_plans_mean_bit_for_bit() {
    // `mean_p_activity` is a float sum, so it depends on the order of
    // summation. The naive plan sums in leaf-rank order; the
    // materialized view and the columnar sum kernel must do the same,
    // to the last bit — not merely to nine decimal places.
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(4096).ligands(64).seed(1101));
    let naive = system(bundle.build_dataset(), OptimizerConfig::naive(), None);
    let full = OptimizerConfig::full();
    let matview = system(bundle.build_dataset(), full, Some(Keep::View));
    let columnar = system(bundle.build_dataset(), full, Some(Keep::Mirror));

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

/// A top-k ranks by a column where most rows tie (`year`,
/// `activity_type`, `source`), so which tied rows make the cut, and in
/// what order, is decided by the tie rule alone: rank order. The naive
/// plan's answer is the scope's listing, stably sorted by the key and
/// cut at k; every system, warm and cold, returns exactly its rows —
/// every column, in order — the mirror's positions included.
#[test]
fn a_top_k_over_tied_columns_returns_the_naive_plans_rows_in_order() {
    let spec = WorkloadSpec::default()
        .leaves(512)
        .ligands(128)
        .seed(29)
        .assay_sources(2);
    let bundle = SyntheticBundle::generate(&spec);
    // The largest clade below the root, and the smallest of 64 leaves
    // or more.
    let mut clades: Vec<(u32, String)> = bundle
        .tree
        .node_ids()
        .filter(|&id| id != bundle.tree.root() && !bundle.tree.node_unchecked(id).is_leaf())
        .filter_map(|id| {
            let label = bundle.tree.node_unchecked(id).label.clone()?;
            Some((bundle.index.interval(id).len(), label))
        })
        .collect();
    clades.sort();
    let largest = &clades.last().unwrap().1;
    let middle = &clades.iter().find(|(leaves, _)| *leaves >= 64).unwrap().1;

    let mut steps = Vec::new();
    for scope in [
        "in tree".to_string(),
        format!("in subtree('{largest}')"),
        format!("in subtree('{middle}')"),
    ] {
        for column in ["year", "activity_type", "source"] {
            for direction in ["asc", "desc"] {
                let text = format!("activities {scope} top 25 by {column} {direction}");
                steps.push(Step::Text(text));
            }
        }
    }
    let systems = Systems::new(&Matrix::fixed(), || bundle.build_dataset());
    let mut naive = Vec::new();
    let answered = systems.run_with(&steps, |answer| {
        let rows = &answer.result.rows;
        if answer.system != "naive" {
            if *rows != naive {
                return Err(format!("{:?}: not the naive rows", answer.query));
            }
            return Ok(());
        }
        let QueryKind::TopK { by, k, descending } = &answer.query.kind else {
            return Err(format!("{:?} is not a top-k", answer.query));
        };
        let key = answer.result.columns.iter().position(|c| c == by).unwrap();
        let listing = Query {
            kind: QueryKind::Activities,
            ..answer.query.clone()
        };
        let mut expected = systems.naive().execute(&listing).unwrap().rows;
        // Stable: ties keep the listing's rank order.
        expected.sort_by(|a, b| {
            let ord = a[key].cmp(&b[key]);
            if *descending {
                ord.reverse()
            } else {
                ord
            }
        });
        // The cut falls inside a run of ties.
        assert_eq!(expected[k - 1][key], expected[*k][key], "{listing:?}");
        expected.truncate(*k);
        naive = rows.clone();
        if *rows != expected {
            return Err(format!("{:?}: not the listing's first rows", answer.query));
        }
        Ok(())
    });
    assert_eq!(answered.unwrap_or_else(|d| panic!("{d}")), steps.len());
}
