//! Golden EXPLAIN tests: the rendered plan text is the contract
//! between `OptimizerConfig` and the rest of the system (experiment
//! logs, the differential oracle's divergence reports, DESIGN.md
//! walkthroughs all quote it). Two exact-text goldens pin the full and
//! naive renderings, and one test per plan-changing optimizer rule
//! asserts that toggling exactly that rule changes exactly the plan
//! text it owns.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_chem::affinity::ActivityType;
use drugtree_query::ast::Metric;
use drugtree_query::dataset::test_fixtures::{small_dataset, test_latency};
use drugtree_query::local::{Keep, LocalBuild};
use drugtree_query::plan::PhysicalPlan;
use drugtree_query::stats::OverlayStats;
use drugtree_query::{Dataset, Optimizer, OptimizerConfig, PlanInputs, Query, Scope};
use drugtree_store::expr::{CompareOp, Predicate};
use std::time::Duration;

fn planned(d: &Dataset, config: OptimizerConfig, q: &Query) -> PhysicalPlan {
    let stats = OverlayStats::collect(d).expect("stats");
    let view = LocalBuild::build(d, Keep::View).expect("view");
    let inputs = PlanInputs {
        stats: Some(&stats),
        local: Some(&view),
        ..PlanInputs::new(d)
    };
    Optimizer::new(config).plan(&inputs, q).expect("plans")
}

fn full_caps() -> drugtree_sources::source::SourceCapabilities {
    drugtree_sources::source::SourceCapabilities::full()
}

/// The reference query for fetch-path goldens: a subtree scope with a
/// pushable integer conjunct (kept integer so the rendered predicate
/// text has no float noise).
fn year_query() -> Query {
    Query::activities(Scope::Subtree("cladeA".into())).filter(Predicate::cmp(
        "year",
        CompareOp::Ge,
        2012i64,
    ))
}

#[test]
fn golden_full_explain() {
    let d = small_dataset(full_caps());
    let plan = planned(&d, OptimizerConfig::full(), &year_query());
    assert_eq!(
        plan.explain(),
        "\
Plan: scope=n1 interval=[0, 2) pruned_leaves=0 est_cost=12ms est_rows=2
  CacheProbe pushdown=year >= 2012
    miss-> SourceFetch source=assay-sim keys=2 pushdown=year >= 2012 batched=true max_batch=100 concurrent=true est_cost=12ms est_rows=2
  Residual: year >= 2012
  LigandJoin
  Collect
  # interval-rewrite: scope -> [0, 2)
  # selectivity-ordering: residual conjuncts reordered
  # pushdown: year >= 2012
  # batching: keyed lookups coalesced
  RuleTrace analyze: interval_rewrite=changed similarity_resolve=n/a substructure_resolve=n/a column_discovery=changed
  RuleTrace canonicalize: canonicalize=no-change
  RuleTrace optimize: selectivity_ordering=changed stats_pruning=no-change pushdown=changed cardinality_estimate=changed replica_selection=n/a use_matview=n/a columnar_scan=n/a semantic_cache=changed
  RuleTrace lower: batching=changed concurrent_dispatch=changed lower_fetches=changed access_select=changed finish_build=changed
"
    );
}

#[test]
fn golden_naive_explain() {
    let d = small_dataset(full_caps());
    let plan = planned(&d, OptimizerConfig::naive(), &year_query());
    assert_eq!(
        plan.explain(),
        "\
Plan: scope=n1 interval=[0, 2) pruned_leaves=0 est_cost=23ms est_rows=3
  Fetch concurrent_sources=false
    SourceFetch source=assay-sim keys=2 pushdown=- batched=false max_batch=1 concurrent=false est_cost=23ms est_rows=3
  Residual: year >= 2012
  LigandJoin
  Collect
  # interval-rewrite: scope -> [0, 2)
  RuleTrace analyze: interval_rewrite=changed similarity_resolve=n/a substructure_resolve=n/a column_discovery=changed
  RuleTrace canonicalize: canonicalize=off
  RuleTrace optimize: selectivity_ordering=off stats_pruning=off pushdown=off cardinality_estimate=changed replica_selection=off use_matview=off columnar_scan=off semantic_cache=off
  RuleTrace lower: batching=off concurrent_dispatch=off lower_fetches=changed access_select=changed finish_build=changed
"
    );
}

/// EXPLAIN under `full()` and under `ablate(rule)` for a query.
fn toggled(d: &Dataset, rule: &str, q: &Query) -> (String, String) {
    let on = planned(d, OptimizerConfig::full(), q).explain();
    let off = planned(d, OptimizerConfig::ablate(rule).expect("known rule"), q).explain();
    (on, off)
}

#[test]
fn toggle_canonicalize() {
    let d = small_dataset(full_caps());
    // No source evaluates a `not` (`SourceCapabilities::
    // supports_predicate` refuses every one), so the doubly negated
    // conjunct ships unpushed unless canonicalization strips it.
    let q = Query::activities(Scope::Subtree("cladeA".into())).filter(Predicate::Not(Box::new(
        Predicate::Not(Box::new(Predicate::cmp("year", CompareOp::Ge, 2012i64))),
    )));
    let (on, off) = toggled(&d, "canonicalize", &q);
    assert!(on.contains("CacheProbe pushdown=year >= 2012"), "{on}");
    assert!(on.contains("SourceFetch source=assay-sim keys=2 pushdown=year >= 2012"));
    assert!(on.contains("# pushdown: year >= 2012"), "{on}");
    assert!(on.contains("Residual: year >= 2012"), "{on}");
    assert!(on.contains("canonicalize=changed"), "{on}");
    assert!(off.contains("CacheProbe pushdown=-\n"), "{off}");
    assert!(off.contains("keys=2 pushdown=- "), "{off}");
    assert!(!off.contains("# pushdown"), "{off}");
    assert!(off.contains("Residual: not not year >= 2012"), "{off}");
    assert!(off.contains("canonicalize=off"), "{off}");
}

#[test]
fn toggle_pushdown() {
    let d = small_dataset(full_caps());
    let (on, off) = toggled(&d, "pushdown", &year_query());
    assert!(on.contains("pushdown=year >= 2012"), "{on}");
    assert!(on.contains("# pushdown: year >= 2012"), "{on}");
    assert!(off.contains("pushdown=-"), "{off}");
    assert!(!off.contains("# pushdown"), "{off}");
}

#[test]
fn toggle_batching() {
    let d = small_dataset(full_caps());
    let (on, off) = toggled(&d, "batching", &year_query());
    assert!(on.contains("batched=true max_batch=100"), "{on}");
    assert!(on.contains("# batching: keyed lookups coalesced"), "{on}");
    assert!(off.contains("batched=false max_batch=1"), "{off}");
    assert!(!off.contains("# batching"), "{off}");
}

#[test]
fn toggle_concurrent_dispatch() {
    let d = small_dataset(full_caps());
    let (on, off) = toggled(&d, "concurrent_dispatch", &year_query());
    assert!(on.contains("concurrent=true"), "{on}");
    assert!(off.contains("concurrent=false"), "{off}");
    assert!(!off.contains("concurrent=true"), "{off}");
}

#[test]
fn toggle_stats_pruning() {
    let d = small_dataset(full_caps());
    // Only P3 (1 nM -> p = 9) clears the bound; the other three leaves
    // are pruned by per-leaf count/max statistics.
    let q = Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 8.5));
    let (on, off) = toggled(&d, "stats_pruning", &q);
    assert!(on.contains("pruned_leaves=3"), "{on}");
    assert!(on.contains("# stats-pruning: 3 leaves dropped"), "{on}");
    assert!(on.contains("keys=1"), "{on}");
    assert!(off.contains("pruned_leaves=0"), "{off}");
    assert!(off.contains("keys=4"), "{off}");
    assert!(!off.contains("# stats-pruning"), "{off}");
}

#[test]
fn toggle_semantic_cache() {
    let d = small_dataset(full_caps());
    let (on, off) = toggled(&d, "semantic_cache", &year_query());
    assert!(on.contains("CacheProbe"), "{on}");
    assert!(off.contains("Fetch concurrent_sources=true"), "{off}");
    assert!(!off.contains("CacheProbe"), "{off}");
}

#[test]
fn toggle_selectivity_ordering() {
    let d = small_dataset(full_caps());
    let q = Query::activities(Scope::Tree)
        .filter(Predicate::cmp("p_activity", CompareOp::Ge, 5.0))
        .filter(Predicate::cmp("p_activity", CompareOp::Ge, 8.9));
    let (on, off) = toggled(&d, "selectivity_ordering", &q);
    assert!(
        on.contains("# selectivity-ordering: residual conjuncts reordered"),
        "{on}"
    );
    assert!(!off.contains("# selectivity-ordering"), "{off}");
}

#[test]
fn toggle_use_matview() {
    let d = small_dataset(full_caps());
    let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
    let (on, off) = toggled(&d, "use_matview", &q);
    assert!(on.contains("MaterializedView"), "{on}");
    assert!(
        on.contains("# matview: aggregate served from materialized view"),
        "{on}"
    );
    assert!(!off.contains("MaterializedView"), "{off}");
    assert!(off.contains("AggregateChildren metric=count"), "{off}");
}

/// A two-leaf dataset with a declared replica pair: `assay-near`
/// (10 ms RTT) and `assay-far` (80 ms RTT) carrying identical records.
/// The shared fixture has a single source; replica selection needs a
/// declared group, with one member measurably slower.
fn replica_dataset() -> Dataset {
    use drugtree_chem::affinity::ActivityRecord;
    use drugtree_integrate::overlay::OverlayBuilder;
    use drugtree_phylo::index::TreeIndex;
    use drugtree_phylo::newick::parse_newick;
    use drugtree_sources::assay_db::assay_source;
    use drugtree_sources::clock::VirtualClock;
    use drugtree_sources::federation::SourceRegistry;
    use drugtree_sources::ligand_db::LigandRecord;
    use drugtree_sources::protein_db::ProteinRecord;
    use std::sync::Arc;

    let tree = parse_newick("(P1:1,P2:1)root;").expect("newick");
    let index = TreeIndex::build(&tree);
    let proteins: Vec<ProteinRecord> = ["P1", "P2"]
        .iter()
        .map(|acc| ProteinRecord {
            accession: (*acc).into(),
            name: format!("protein {acc}"),
            organism: "synthetic".into(),
            sequence: "MKVLAT".into(),
            gene: None,
        })
        .collect();
    let ligands = vec![LigandRecord::from_smiles("L1", "ethanol", "CCO").expect("smiles")];
    let acts = vec![ActivityRecord {
        protein_accession: "P1".into(),
        ligand_id: "L1".into(),
        activity_type: ActivityType::Ki,
        value_nm: 10.0,
        source: "sim".into(),
        year: 2012,
    }];
    let overlay = OverlayBuilder::new(&tree, &index)
        .build(&proteins, &ligands)
        .expect("overlay");
    let mut registry = SourceRegistry::new();
    let mut slow = test_latency();
    slow.base_rtt = Duration::from_millis(80);
    registry
        .register(Arc::new(
            assay_source("assay-near", &acts, full_caps(), test_latency()).expect("source"),
        ))
        .expect("register");
    registry
        .register(Arc::new(
            assay_source("assay-far", &acts, full_caps(), slow).expect("source"),
        ))
        .expect("register");
    registry
        .declare_replicas(vec!["assay-near".into(), "assay-far".into()])
        .expect("group");
    Dataset::new(tree, index, overlay, registry, VirtualClock::new()).expect("dataset")
}

#[test]
fn toggle_replica_selection() {
    let d = replica_dataset();
    let q = Query::activities(Scope::Tree);
    let (on, off) = toggled(&d, "replica_selection", &q);
    assert!(
        on.contains("# replica-selection: assay-near chosen from"),
        "{on}"
    );
    assert!(on.contains("source=assay-near"), "{on}");
    assert!(!on.contains("source=assay-far"), "{on}");
    assert!(off.contains("source=assay-near"), "{off}");
    assert!(off.contains("source=assay-far"), "{off}");
    assert!(!off.contains("# replica-selection"), "{off}");
}
