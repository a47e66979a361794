//! A fetch plan names the leaves it asks for; their accession keys are
//! built when the fetch runs. For every scope, each assay source must
//! be asked for exactly `SortedKeys::new(accessions_in(scope) minus the
//! pruned leaves)`, where the pruned leaves are worked out here from
//! the sources' own records: a leaf with no record, or, under a
//! `p_activity >=` bound, none that clears it. A scope with no record
//! at all is proved empty and asks for nothing.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_phylo::index::LeafInterval;
use drugtree_query::dataset::test_fixtures::small_dataset;
use drugtree_query::dataset::AssayRows;
use drugtree_query::Dataset;
use drugtree_sources::batcher::SortedKeys;
use drugtree_sources::latency::LatencyModel;
use drugtree_sources::source::{
    DataSource, FetchRequest, FetchResponse, MetricsSnapshot, SourceCapabilities, SourceKind,
};
use drugtree_sources::sync::Mutex;
use drugtree_sources::SourceRegistry;
use drugtree_store::expr::{CompareOp, Predicate};
use drugtree_store::schema::Schema;
use drugtree_store::value::Value;
use std::sync::Arc;
use support::system;

mod support;

/// An assay source that records every key it is asked for.
struct Recording {
    inner: Arc<dyn DataSource>,
    keys: Mutex<Vec<Value>>,
}

impl DataSource for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn key_column(&self) -> &str {
        self.inner.key_column()
    }
    fn capabilities(&self) -> SourceCapabilities {
        self.inner.capabilities()
    }
    fn fetch(&self, request: &FetchRequest) -> drugtree_sources::Result<FetchResponse> {
        if let Some(keys) = &request.keys {
            self.keys.lock().extend(keys.iter().cloned());
        }
        self.inner.fetch(request)
    }
    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
    fn record_count(&self) -> usize {
        self.inner.record_count()
    }
    fn latency_model(&self) -> LatencyModel {
        self.inner.latency_model()
    }
}

/// Per leaf rank, the best pActivity among the sources' records, or
/// `None` for a leaf none of them holds a record of.
fn best_by_rank(dataset: &Dataset) -> Vec<Option<f64>> {
    let mut best: Vec<Option<f64>> = vec![None; dataset.leaf_count()];
    for source in dataset.registry.by_kind(SourceKind::Assay) {
        let shipped = source.fetch(&FetchRequest::scan()).unwrap().table;
        let rows = AssayRows::new(dataset, &shipped);
        for i in 0..rows.len() {
            let Some((rank, p)) = rows.unify(i) else {
                continue;
            };
            let slot = &mut best[rank as usize];
            *slot = Some(slot.map_or(p, |held: f64| held.max(p)));
        }
    }
    best
}

/// Which kinds of scope a run met.
#[derive(Default)]
struct Seen {
    pruned: bool,
    unpruned: bool,
    proved_empty: bool,
}

/// Run a listing of every interval in `scopes`, with and without each
/// bound, cold, through the full planner with statistics, and compare
/// the keys every assay source was asked for with what the records
/// say. Returns the kinds of scope met.
fn check(dataset: Dataset, scopes: &[LeafInterval], bounds: &[f64]) -> Seen {
    let best = best_by_rank(&dataset);
    let sources = dataset.registry.all().to_vec();
    let mut registry = SourceRegistry::new();
    let mut recorders = Vec::new();
    for source in sources {
        if source.kind() == SourceKind::Assay {
            let recording = Arc::new(Recording {
                inner: source,
                keys: Mutex::new(Vec::new()),
            });
            recorders.push(Arc::clone(&recording));
            registry.register(recording).unwrap();
        } else {
            registry.register(source).unwrap();
        }
    }
    let Dataset {
        tree,
        index,
        overlay,
        clock,
        ..
    } = dataset;
    let dataset = Dataset::new(tree, index, overlay, registry, clock).unwrap();
    let system = system(dataset, OptimizerConfig::full(), None);
    let (dataset, executor) = (system.dataset(), system.executor());

    let mut seen = Seen::default();
    for &scope in scopes {
        for bound in bounds.iter().map(Some).chain([None]) {
            let mut query = Query::activities(Scope::Interval(scope));
            if let Some(&bound) = bound {
                query = query.filter(Predicate::cmp("p_activity", CompareOp::Ge, bound));
            }
            let in_scope: Vec<(u32, &Value)> = dataset.accessions_in(scope).collect();
            let kept = |rank: u32| match (best[rank as usize], bound) {
                (None, _) => false,
                (Some(p), Some(&bound)) => p >= bound,
                (Some(_), None) => true,
            };
            let proved_empty = in_scope
                .iter()
                .all(|&(rank, _)| best[rank as usize].is_none());
            let want = if proved_empty {
                Vec::new()
            } else {
                let leaves = in_scope.iter().filter(|&&(rank, _)| kept(rank));
                SortedKeys::new(leaves.map(|(_, accession)| (*accession).clone()).collect())
                    .to_vec()
            };
            for recorder in &recorders {
                recorder.keys.lock().clear();
            }
            executor.invalidate();
            let result = executor.execute(dataset, &query).unwrap();
            for recorder in &recorders {
                let got = recorder.keys.lock();
                assert_eq!(
                    *got,
                    want,
                    "{} asked for other keys: {query}",
                    recorder.name()
                );
            }
            if proved_empty {
                seen.proved_empty = true;
            } else {
                let pruned = in_scope.len() - want.len();
                assert_eq!(result.metrics.pruned_leaves, pruned, "{query}");
                seen.pruned |= pruned > 0;
                seen.unpruned |= pruned == 0;
            }
        }
    }
    seen
}

/// Every single leaf and every aligned power-of-two span.
fn scopes(leaves: u32) -> Vec<LeafInterval> {
    let mut scopes = Vec::new();
    let mut span = 1;
    while span <= leaves {
        scopes.extend((0..leaves).step_by(span as usize).map(|lo| LeafInterval {
            lo,
            hi: (lo + span).min(leaves),
        }));
        span *= 2;
    }
    scopes
}

#[test]
fn a_fetch_asks_for_the_leaves_statistics_kept_on_the_small_dataset() {
    let seen = check(
        small_dataset(SourceCapabilities::full()),
        &scopes(4),
        &[6.5, 8.5],
    );
    assert!(seen.pruned && seen.unpruned && seen.proved_empty);
}

#[test]
fn a_fetch_asks_for_the_leaves_statistics_kept_on_a_three_source_federation() {
    let spec = WorkloadSpec::default().leaves(64).ligands(16);
    let bundle = SyntheticBundle::generate(&spec.seed(55).assay_sources(3));
    let dataset = bundle.build_dataset();
    assert_eq!(dataset.registry.by_kind(SourceKind::Assay).len(), 3);
    let seen = check(dataset, &scopes(64), &[7.0]);
    assert!(seen.pruned && seen.unpruned && seen.proved_empty);
}
