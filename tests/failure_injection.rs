//! Failure injection: the executor must ride through transient source
//! failures (retry + backoff), pay for them in virtual time, and
//! surface a clean error when a source is truly down.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_chem::affinity::{ActivityRecord, ActivityType};
use drugtree_integrate::overlay::OverlayBuilder;
use drugtree_phylo::newick::parse_newick;
use drugtree_query::exec::RetryPolicy;
use drugtree_sources::assay_db::assay_source;
use drugtree_sources::clock::VirtualClock;
use drugtree_sources::federation::SourceRegistry;
use drugtree_sources::flaky::FlakySource;
use drugtree_sources::latency::LatencyModel;
use drugtree_sources::protein_db::ProteinRecord;
use drugtree_sources::source::{DataSource, SourceCapabilities};
use std::sync::Arc;
use std::time::Duration;

/// A 4-leaf dataset whose assay source fails `rate` of requests.
fn flaky_dataset(rate: f64, seed: u64) -> (Dataset, Arc<FlakySource>) {
    let tree = parse_newick("((P1:1,P2:1)cladeA:1,(P3:1,P4:1)cladeB:1)root;").unwrap();
    let index = drugtree_phylo::TreeIndex::build(&tree);
    let proteins: Vec<ProteinRecord> = ["P1", "P2", "P3", "P4"]
        .iter()
        .map(|acc| ProteinRecord {
            accession: (*acc).into(),
            name: (*acc).into(),
            organism: "t".into(),
            sequence: "MK".into(),
            gene: None,
        })
        .collect();
    let activities: Vec<ActivityRecord> = [("P1", 10.0), ("P2", 100.0), ("P3", 1.0)]
        .iter()
        .map(|(acc, nm)| ActivityRecord {
            protein_accession: (*acc).into(),
            ligand_id: "L1".into(),
            activity_type: ActivityType::Ki,
            value_nm: *nm,
            source: "sim".into(),
            year: 2012,
        })
        .collect();
    let inner = Arc::new(
        assay_source(
            "assay-flaky",
            &activities,
            SourceCapabilities::full(),
            LatencyModel {
                base_rtt: Duration::from_millis(10),
                per_row: Duration::from_millis(1),
                per_row_scanned: Duration::ZERO,
                jitter: 0.0,
                seed: 0,
            },
        )
        .unwrap(),
    );
    let flaky = Arc::new(FlakySource::new(
        inner,
        rate,
        Duration::from_millis(200),
        seed,
    ));
    let mut registry = SourceRegistry::new();
    registry
        .register(flaky.clone() as Arc<dyn DataSource>)
        .unwrap();
    let overlay = OverlayBuilder::new(&tree, &index)
        .build(&proteins, &[])
        .unwrap();
    let dataset = Dataset::new(tree, index, overlay, registry, VirtualClock::new()).unwrap();
    (dataset, flaky)
}

#[test]
fn retries_ride_through_intermittent_failures() {
    // 35% failure rate: with 5 attempts the executor should complete
    // every query in a long stream.
    let (dataset, flaky) = flaky_dataset(0.35, 9);
    let mut executor = Executor::new(Optimizer::new(OptimizerConfig::naive()));
    executor.set_retry_policy(RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(25),
    });

    let mut total_retries = 0usize;
    for _ in 0..20 {
        let r = executor
            .execute(&dataset, &Query::activities(Scope::Tree))
            .unwrap();
        assert_eq!(r.rows.len(), 3, "results unaffected by flakiness");
        total_retries += r.metrics.retries;
    }
    assert!(
        total_retries > 0,
        "the flaky source must have failed sometimes"
    );
    assert!(flaky.failures() > 0);
}

#[test]
fn retries_cost_virtual_time() {
    let stable = {
        let (dataset, _) = flaky_dataset(0.0, 5);
        let e = Executor::new(Optimizer::new(OptimizerConfig::naive()));
        e.execute(&dataset, &Query::activities(Scope::Tree))
            .unwrap()
            .metrics
            .virtual_cost
    };
    // Deterministically failing first request: seed/rate chosen so the
    // first roll fails (rate ~1 for the first attempt only is hard to
    // construct; instead compare aggregate cost at a high rate).
    let (dataset, _) = flaky_dataset(0.5, 5);
    let mut e = Executor::new(Optimizer::new(OptimizerConfig::naive()));
    e.set_retry_policy(RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(25),
    });
    let mut flaky_total = Duration::ZERO;
    let mut retries = 0;
    for _ in 0..10 {
        let r = e
            .execute(&dataset, &Query::activities(Scope::Tree))
            .unwrap();
        flaky_total += r.metrics.virtual_cost;
        retries += r.metrics.retries;
    }
    assert!(retries > 0);
    assert!(
        flaky_total > stable * 10,
        "failures must make the session slower: {flaky_total:?} vs 10x{stable:?}"
    );
}

#[test]
fn hard_down_source_surfaces_an_error() {
    let (dataset, flaky) = flaky_dataset(1.0, 3);
    let mut executor = Executor::new(Optimizer::new(OptimizerConfig::naive()));
    executor.set_retry_policy(RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(10),
    });
    let err = executor
        .execute(&dataset, &Query::activities(Scope::Tree))
        .unwrap_err();
    assert!(
        err.to_string().contains("transient"),
        "error should identify the transient failure: {err}"
    );
    // All three attempts were burned before giving up.
    assert_eq!(flaky.attempts(), 3);
    drop(dataset);
}

#[test]
fn cache_hits_bypass_flaky_sources_entirely() {
    let (dataset, flaky) = flaky_dataset(0.4, 11);
    let mut executor = Executor::new(Optimizer::new(OptimizerConfig::full()));
    executor.set_retry_policy(RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(25),
    });
    // Warm the cache (may take retries).
    executor
        .execute(&dataset, &Query::activities(Scope::Tree))
        .unwrap();
    let attempts_after_warm = flaky.attempts();
    // Drill-downs are now immune to the source's health.
    for label in ["cladeA", "cladeB", "P1"] {
        let r = executor
            .execute(&dataset, &Query::activities(Scope::Subtree(label.into())))
            .unwrap();
        assert_eq!(r.metrics.cache_hit, Some(true));
        assert_eq!(r.metrics.retries, 0);
    }
    assert_eq!(
        flaky.attempts(),
        attempts_after_warm,
        "no further source traffic"
    );
}
