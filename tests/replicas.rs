//! Replica selection: when several sources hold the same data, the
//! optimizer serves the query from the cheapest one — and turning the
//! rule off only changes cost, never answers, even when a replica holds
//! two measurements of one fact.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_query::dataset::test_fixtures::{activity, small_dataset, test_latency};
use drugtree_query::local::Keep;
use drugtree_sources::assay_db::{assay_row, assay_source};
use drugtree_sources::source::SourceCapabilities;
use drugtree_sources::SourceRegistry;
use std::sync::Arc;
use support::{normalise, system, Answer, Matrix, Step, Systems};

mod support;

/// 64 leaves behind three assay sources.
fn three_sources() -> WorkloadSpec {
    let spec = WorkloadSpec::default().leaves(64).ligands(16);
    spec.seed(55).assay_sources(3)
}

fn replicated_bundle() -> SyntheticBundle {
    SyntheticBundle::generate(&three_sources().replicated(true))
}

#[test]
fn cheapest_replica_serves_the_query() {
    let bundle = replicated_bundle();
    let system = system(bundle.build_dataset(), OptimizerConfig::full(), None);

    let plan = system.explain("activities in tree").unwrap();
    assert!(
        plan.contains("replica-selection: assay-0"),
        "fastest replica (assay-0) should be chosen:\n{plan}"
    );
    // Exactly one SourceFetch in the plan.
    assert_eq!(plan.matches("SourceFetch").count(), 1, "{plan}");

    system.query("activities in tree").unwrap();
    // Only the chosen replica saw traffic: the builder's stats scan
    // reads the cheapest replica of a group, which is the chosen one.
    let requests = |name: &str| {
        system
            .dataset()
            .registry
            .by_name(name)
            .unwrap()
            .metrics()
            .requests
    };
    assert_eq!(requests("assay-1"), 0, "idle replica saw no traffic");
    assert_eq!(requests("assay-2"), 0, "idle replica saw no traffic");
    assert!(requests("assay-0") > 0, "chosen replica served the fetch");
}

#[test]
fn replica_selection_changes_cost_not_answers() {
    let bundle = replicated_bundle();
    let with = system(bundle.build_dataset(), OptimizerConfig::full(), None);
    let ablated = OptimizerConfig::ablate("replica_selection").unwrap();
    let without = system(bundle.build_dataset(), ablated, None);

    for text in [
        "activities in tree",
        "activities where p_activity >= 6.5",
        "aggregate count in tree",
    ] {
        let a = with.query(text).unwrap();
        let b = without.query(text).unwrap();
        assert_eq!(normalise(&a.rows), normalise(&b.rows), "{text}");
        assert!(
            a.metrics.virtual_cost <= b.metrics.virtual_cost,
            "{text}: selection {:?} should not exceed fetch-all {:?}",
            a.metrics.virtual_cost,
            b.metrics.virtual_cost
        );
    }
}

#[test]
fn partitioned_sources_are_unaffected_by_the_rule() {
    // Without declared replicas the rule must fetch every source.
    let bundle = SyntheticBundle::generate(&three_sources());
    let system = system(bundle.build_dataset(), OptimizerConfig::full(), None);
    let plan = system.explain("activities in tree").unwrap();
    assert_eq!(plan.matches("SourceFetch").count(), 3, "{plan}");
    let r = system.query("activities in tree").unwrap();
    assert_eq!(r.rows.len(), bundle.activities.len());
}

#[test]
fn replicated_matview_does_not_double_count() {
    // A view built over replicas must count each record once, and
    // aggregate answers must match the fetch path's.
    let bundle = replicated_bundle();
    let with_view = system(
        bundle.build_dataset(),
        OptimizerConfig::full(),
        Some(Keep::View),
    );
    let ablated = OptimizerConfig::ablate("use_matview").unwrap();
    let without_view = system(bundle.build_dataset(), ablated, None);
    let a = with_view.query("aggregate count in tree").unwrap();
    assert_eq!(a.metrics.source_requests, 0, "view must answer");
    let b = without_view.query("aggregate count in tree").unwrap();
    assert_eq!(a.rows, b.rows);
    // The per-clade counts sum to the true record count.
    let total: i64 = a.rows.iter().map(|r| r[3].as_int().unwrap()).sum();
    assert_eq!(total as usize, bundle.activities.len());
}

/// The 4-leaf fixture behind a replica pair whose copies each hold P1–L1
/// twice: 10 nM in 2010 and 20 nM in 2013. The deployment has two assay
/// sources, so every plan keeps the 2013 measurement alone, whichever
/// replica (or both) it reads.
fn replica_pair_with_a_repeated_fact() -> Dataset {
    let records = [
        activity("P1", "L1", 10.0, 2010),
        activity("P1", "L2", 2000.0, 2011),
        activity("P1", "L1", 20.0, 2013),
        activity("P2", "L1", 100.0, 2012),
        activity("P3", "L3", 1.0, 2013),
    ];
    let mut registry = SourceRegistry::new();
    for name in ["copy-a", "copy-b"] {
        let source = assay_source(name, &records, SourceCapabilities::full(), test_latency());
        registry.register(Arc::new(source.unwrap())).unwrap();
    }
    registry
        .declare_replicas(vec!["copy-a".into(), "copy-b".into()])
        .unwrap();
    let mut dataset = small_dataset(SourceCapabilities::full());
    dataset.registry = registry;
    dataset
}

#[test]
fn a_repeated_fact_in_a_replica_pair_is_one_row_on_every_plan() {
    let systems = Systems::new(&Matrix::with_ablations(), replica_pair_with_a_repeated_fact);
    let count = systems
        .naive()
        .query("aggregate count in subtree('cladeA')")
        .unwrap();
    let p1 = count
        .rows
        .iter()
        .find(|r| r[0] == Value::from("P1"))
        .unwrap();
    assert_eq!(p1[3], Value::Int(2), "P1: L1 once (2013) and L2");
    let steps = [
        "aggregate count in subtree('cladeA')",
        "activities in subtree('cladeA')",
        "aggregate mean_p_activity in subtree('cladeA')",
    ]
    .map(|text| Step::Text(text.to_string()));
    // `full()` with the view and the mirror answers locally, warm or cold.
    let local = |answer: &Answer<'_, '_>| {
        let requests = answer.result.metrics.source_requests;
        if answer.system.starts_with("full+view+mirror") && requests != 0 {
            return Err(format!("{requests} source requests"));
        }
        Ok(())
    };
    let answered = systems
        .run_with(&steps, local)
        .unwrap_or_else(|divergence| panic!("{divergence}"));
    assert_eq!(answered, steps.len());
}

/// The view and the mirror share one freshness record, and it counts
/// every assay source: a deposition that reaches only the replica the
/// build did not scan (copy-b; the build scans the first cheapest) makes
/// both stale, and once it reaches both copies the next plans fetch the
/// naive plan's answer.
#[test]
fn an_ingest_into_either_replica_makes_the_view_and_the_mirror_stale() {
    let pair = replica_pair_with_a_repeated_fact();
    let system = system(pair, OptimizerConfig::full(), Some(Keep::Both));
    let naive = Executor::new(Optimizer::new(OptimizerConfig::naive()));
    let queries = [
        Query::activities(Scope::Tree).aggregate(Metric::Count),
        Query::activities(Scope::Subtree("cladeA".into())),
    ];
    let local_requests = |q: &Query| {
        system.executor().invalidate();
        system.execute(q).unwrap().metrics.source_requests
    };
    assert!(queries.iter().all(|q| local_requests(q) == 0));

    let row = assay_row(&activity("P2", "L2", 30.0, 2013));
    for name in ["copy-b", "copy-a"] {
        let source = system.dataset().registry.by_name(name).unwrap();
        source.ingest(row.clone()).unwrap();
        assert!(
            queries.iter().all(|q| local_requests(q) > 0),
            "after {name}"
        );
    }
    for q in &queries {
        let expected = naive.execute(system.dataset(), q).unwrap().rows;
        assert_eq!(system.execute(q).unwrap().rows, expected, "{q:?}");
    }
}

/// A pair whose unscanned copy drifted before the statistics were
/// collected: copy-b alone re-measured P1–L1 (10 nM in 2010, then
/// 500 nM in 2013). The statistics read copy-a only, so they do not
/// claim each fact was measured once, and a plan that reads both copies
/// pushes no value bound and keeps the 2013 fact. (With replica
/// selection on, a plan reads one copy: a drifted pair answers from the
/// copy it reads.)
#[test]
fn a_drifted_replica_gets_no_value_pushdown() {
    let records = [activity("P1", "L1", 10.0, 2010)];
    let mut registry = SourceRegistry::new();
    for name in ["copy-a", "copy-b"] {
        let source = assay_source(name, &records, SourceCapabilities::full(), test_latency());
        registry.register(Arc::new(source.unwrap())).unwrap();
    }
    registry
        .declare_replicas(vec!["copy-a".into(), "copy-b".into()])
        .unwrap();
    let late = assay_row(&activity("P1", "L1", 500.0, 2013));
    registry.by_name("copy-b").unwrap().ingest(late).unwrap();
    let mut dataset = small_dataset(SourceCapabilities::full());
    dataset.registry = registry;
    let ablated = OptimizerConfig::ablate("replica_selection").unwrap();
    let system = system(dataset, ablated, None);

    let potent = "activities in subtree('cladeA') where p_activity >= 7";
    let plan = system.explain(potent).unwrap();
    assert!(!plan.contains("# pushdown"), "{plan}");
    let naive = Executor::new(Optimizer::new(OptimizerConfig::naive()));
    let query = drugtree_query::parser::parse_query(potent).unwrap();
    let expected = naive.execute(system.dataset(), &query).unwrap().rows;
    assert!(expected.is_empty(), "{expected:?}");
    assert_eq!(system.query(potent).unwrap().rows, expected);
}
