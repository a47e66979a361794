//! The self-driving layer through the `DrugTree` facade: what stays of
//! it (the auto-materialization advisor) may change a query's *cost*,
//! never its *answer* — across the view's whole life: before it is
//! built, while it serves, and after a source change made it stale.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_query::AdaptiveRuntime;
use drugtree_sources::assay_db::assay_row;
use drugtree_sources::source::SourceKind;
use drugtree_workload::queries::{class_stream, QueryWorkloadConfig};
use std::sync::Arc;
use std::time::Duration;

/// A full-optimizer system with the adaptive runtime installed, plus
/// the runtime and the sink its `adapt` stream lands in.
fn adaptive_system(bundle: &SyntheticBundle) -> (DrugTree, Arc<AdaptiveRuntime>, Arc<VecSink>) {
    let sink = Arc::new(VecSink::new());
    let runtime = Arc::new(AdaptiveRuntime::new().with_export(Arc::clone(&sink) as Arc<dyn Sink>));
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .with_adaptive(Arc::clone(&runtime))
        .build()
        .unwrap();
    (system, runtime, sink)
}

fn matview_events(sink: &VecSink, action: &str) -> Vec<String> {
    let action = format!("\"action\":\"{action}\"");
    sink.lines()
        .into_iter()
        .filter(|l| l.contains("\"loop_name\":\"matview\"") && l.contains(&action))
        .collect()
}

/// The dashboard refresh both bugfix scenarios replay: a whole-tree
/// aggregate with the cache dropped first, checked against the naive
/// plan over the same dataset.
struct Dashboard {
    system: DrugTree,
    naive: Executor,
    query: Query,
}

impl Dashboard {
    fn new(system: DrugTree) -> Dashboard {
        Dashboard {
            system,
            naive: Executor::new(Optimizer::new(OptimizerConfig::naive())),
            query: drugtree_query::parser::parse_query("aggregate count in tree").unwrap(),
        }
    }

    fn refresh(&self) -> ExecMetrics {
        self.system.executor().invalidate();
        let got = self.system.execute(&self.query).unwrap();
        let want = self
            .naive
            .execute(self.system.dataset(), &self.query)
            .unwrap();
        assert_eq!(got.rows, want.rows, "the naive plan is the specification");
        got.metrics
    }

    /// Refresh until a refresh ends with a view the advisor built for
    /// the sources as they are now; the charged latency of every
    /// candidate it took.
    fn heat(&self, runtime: &AdaptiveRuntime) -> Vec<Duration> {
        let mut charged = Vec::new();
        loop {
            assert!(charged.len() < 50, "the advisor never crossed break-even");
            charged.push(self.refresh().charged_cost);
            if runtime
                .view()
                .is_some_and(|v| v.is_fresh(self.system.dataset().source_epoch()))
            {
                return charged;
            }
        }
    }
}

/// Bugfix: one source change used to wedge the advisor for good — the
/// stale view was never used (the planner refuses it), never rebuilt
/// (one was installed) and never evicted (it had taken hits).
#[test]
fn a_source_change_drops_the_view_and_the_next_break_even_rebuilds_it() {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(128).ligands(32).seed(2201));
    let (system, runtime, sink) = adaptive_system(&bundle);
    let dash = Dashboard::new(system);

    // Each build comes at the first query whose charged latency takes
    // the foregone total past the break-even proxy.
    let proxy = dash.system.executor().stats().unwrap().collection_cost;
    let crosses_once = |charged: &[Duration]| {
        let foregone: Duration = charged.iter().sum();
        foregone > proxy && foregone - charged[charged.len() - 1] <= proxy
    };
    let first = dash.heat(&runtime);
    assert!(crosses_once(&first), "{first:?} vs {proxy:?}");
    for _ in 0..5 {
        assert_eq!(dash.refresh().source_requests, 0, "served by the view");
    }

    // A remote deposition, and no refresh: the deployment runs none.
    let record = drugtree_chem::affinity::ActivityRecord {
        protein_accession: "P0000".into(),
        ligand_id: "L0000".into(),
        activity_type: drugtree_chem::ActivityType::Ki,
        value_nm: 77.0,
        source: "late-deposition".into(),
        year: 2013,
    };
    dash.system.dataset().registry.by_kind(SourceKind::Assay)[0]
        .ingest(assay_row(&record))
        .unwrap();

    // The ledger restarted at the eviction. Without the pruning the
    // statistics no longer prove, a candidate may cost less than before
    // the ingest, so the rebuild may take more queries than the build.
    let after = dash.heat(&runtime);
    assert!(crosses_once(&after), "{after:?} vs {proxy:?}");
    for _ in 0..5 {
        assert_eq!(dash.refresh().source_requests, 0, "served by the new view");
    }
    assert_eq!(matview_events(&sink, "apply").len(), 2);
    let evicts = matview_events(&sink, "evict");
    assert_eq!(evicts.len(), 1, "{evicts:?}");
    assert!(evicts[0].contains("source changed"), "{evicts:?}");
    assert_eq!(runtime.snapshot().advisor.hits, 5, "the ledger restarted");
}

/// Bugfix: the amortisation ledger was always zero — a view-served
/// plan's shape never matched the candidate's it replaced.
#[test]
fn the_amortisation_ledger_credits_what_the_hits_replaced() {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(128).ligands(32).seed(2201));
    let (system, runtime, _sink) = adaptive_system(&bundle);
    let dash = Dashboard::new(system);

    let candidates = dash.heat(&runtime);
    let mean = candidates.iter().sum::<Duration>() / candidates.len() as u32;
    let hits = 7;
    for _ in 0..hits {
        assert_eq!(dash.refresh().charged_cost, Duration::ZERO);
    }
    let advisor = runtime.snapshot().advisor;
    assert_eq!(advisor.hits, u64::from(hits));
    assert_eq!(advisor.saved, mean * hits);
    assert!(advisor.saved > advisor.build_cost, "the view paid off");
}

/// ROADMAP 5(c): the four-class stream, three passes, cache dropped
/// before every query — the adaptive system returns the plain system's
/// rows for every query, builds its view exactly once, and a second
/// run exports the same `adapt` stream byte for byte.
#[test]
fn the_adaptive_layer_never_changes_an_answer() {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(256).ligands(64).seed(22));
    let stream: Vec<Query> = drugtree_workload::queries::QueryClass::ALL
        .iter()
        .flat_map(|&class| {
            class_stream(
                class,
                &bundle.tree,
                &bundle.index,
                &bundle.ligands,
                &QueryWorkloadConfig {
                    len: 60,
                    ..QueryWorkloadConfig::default()
                },
            )
        })
        .collect();
    let run = |system: &DrugTree| -> Vec<Vec<Vec<Value>>> {
        (0..3)
            .flat_map(|_| stream.iter())
            .map(|q| {
                system.executor().invalidate();
                system.execute(q).unwrap().rows
            })
            .collect()
    };

    let plain = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .unwrap();
    let want = run(&plain);
    assert_eq!(want.len(), 720);

    let (system, runtime, sink) = adaptive_system(&bundle);
    let got = run(&system);
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "query {i} of the stream");
    }
    assert_eq!(
        matview_events(&sink, "apply").len(),
        1,
        "built exactly once"
    );
    let advisor = runtime.snapshot().advisor;
    assert_eq!(advisor.evictions, 0);
    assert!(advisor.hits > 0 && advisor.saved > Duration::ZERO);

    let (again, _, sink_again) = adaptive_system(&bundle);
    run(&again);
    assert_eq!(
        sink.lines(),
        sink_again.lines(),
        "byte-identical adapt stream"
    );
}
