//! Concurrency: one DrugTree system served to many simultaneous
//! clients. The executor's semantic cache is shared state; answers
//! must stay correct and the cache coherent under parallel load.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_workload::queries::{mixed_stream, QueryWorkloadConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use support::system;

mod support;

#[test]
fn parallel_clients_get_identical_answers() {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(96).ligands(24).seed(77));
    let shared = system(bundle.build_dataset(), OptimizerConfig::full(), None);
    let queries = mixed_stream(
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: 24,
            seed: 3,
            scope_theta: 1.0,
        },
    );

    // Reference answers, computed single-threaded on a separate system.
    let reference_system = system(bundle.build_dataset(), OptimizerConfig::full(), None);
    let reference: Vec<Vec<Vec<Value>>> = queries
        .iter()
        .map(|q| {
            let mut rows = reference_system.execute(q).unwrap().rows;
            rows.sort();
            rows
        })
        .collect();

    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..8 {
            let system = &shared;
            let queries = &queries;
            let reference = &reference;
            let mismatches = &mismatches;
            s.spawn(move || {
                // Each thread walks the workload from a different phase
                // so cache hits and misses interleave.
                for i in 0..queries.len() {
                    let idx = (i + t * 3) % queries.len();
                    let mut rows = system.execute(&queries[idx]).unwrap().rows;
                    rows.sort();
                    if rows != reference[idx] {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(mismatches.load(Ordering::Relaxed), 0);

    // The shared cache saw real traffic from all threads.
    let stats = shared.report().cache;
    assert!(stats.hits + stats.misses >= queries.len() as u64);
}

#[test]
fn parallel_sessions_share_the_cache() {
    let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(64).ligands(16).seed(5));
    let system = system(bundle.build_dataset(), OptimizerConfig::full(), None);

    // Warm the cache from one "client".
    system.query("activities in tree").unwrap();

    // Many clients drill into subtrees concurrently: every query is a
    // containment hit, so no thread ever touches the sources.
    let requests_before: u64 = system
        .dataset()
        .registry
        .all()
        .iter()
        .map(|s| s.metrics().requests)
        .sum();
    std::thread::scope(|s| {
        for _ in 0..6 {
            let system = &system;
            s.spawn(move || {
                for label in ["clade1", "clade2", "clade3"] {
                    let r = system
                        .query(&format!("activities in subtree('{label}')"))
                        .unwrap();
                    assert_eq!(r.metrics.cache_hit, Some(true));
                }
            });
        }
    });
    let requests_after: u64 = system
        .dataset()
        .registry
        .all()
        .iter()
        .map(|s| s.metrics().requests)
        .sum();
    assert_eq!(requests_before, requests_after);
}
