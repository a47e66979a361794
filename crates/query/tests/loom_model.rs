//! Loom model check for the sharded semantic cache: invalidation
//! racing concurrent probes.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the shard mutexes,
//! taken via `drugtree_sources::sync`, swap for loom's instrumented
//! types, and every schedule perturbation lands directly on the
//! probe/invalidate interleaving). Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p drugtree-query --test loom_model --release
//! ```

#![cfg(loom)]
// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_phylo::index::LeafInterval;
use drugtree_query::cache::{CacheConfig, ShardedSemanticCache};
use drugtree_store::value::Value;
use std::sync::Arc;

fn iv(lo: u32, hi: u32) -> LeafInterval {
    LeafInterval { lo, hi }
}

fn row(rank: i64) -> Vec<Value> {
    vec![Value::Int(rank), Value::from("x")]
}

/// An invalidation sweeping the shards races a prober hammering the
/// same interval. Under every schedule: a hit returns the full,
/// untorn row set (never a partially-invalidated entry) and shares the
/// inserted snapshot rather than a copy of it, hits are
/// monotone (once the prober observes the invalidation, the entry
/// never resurrects), the atomic counters account for every probe,
/// and the cache ends empty.
#[test]
fn invalidation_racing_probes_never_tears_results() {
    loom::model(|| {
        let cache = Arc::new(ShardedSemanticCache::new(CacheConfig {
            max_entries: 16,
            max_rows: 1600,
            shards: 4,
        }));
        let rows = Arc::new(vec![row(1), row(2), row(3)]);
        cache.insert(iv(0, 8), None, Arc::clone(&rows));

        let prober = {
            let (c, expect) = (Arc::clone(&cache), Arc::clone(&rows));
            loom::thread::spawn(move || {
                let mut hits = Vec::new();
                for _ in 0..4 {
                    match c.probe(iv(0, 8), None) {
                        Some(hit) => {
                            assert_eq!(hit.rows(), &expect[..], "hit returned a torn row set");
                            assert!(
                                Arc::ptr_eq(&hit.entry_rows, &expect),
                                "hit copied the entry instead of sharing it"
                            );
                            hits.push(true);
                        }
                        None => hits.push(false),
                    }
                }
                hits
            })
        };
        let invalidator = {
            let c = Arc::clone(&cache);
            loom::thread::spawn(move || c.invalidate_interval(iv(0, 8)))
        };

        let hits = prober.join().unwrap();
        invalidator.join().unwrap();

        // Monotone: after the first miss there is no later hit —
        // nothing reinserts, so a resurrection would mean a probe saw
        // a half-swept shard state.
        let first_miss = hits.iter().position(|h| !h).unwrap_or(hits.len());
        assert!(
            hits[first_miss..].iter().all(|h| !h),
            "entry resurrected after invalidation: {hits:?}"
        );

        let stats = cache.stats();
        assert_eq!(stats.probes, stats.hits + stats.misses);
        assert_eq!(stats.hits, hits.iter().filter(|h| **h).count() as u64);
        assert!(cache.is_empty(), "invalidation must leave no entries");
    });
}
