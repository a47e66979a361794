//! The N-way sharded semantic cache the executor holds.
//!
//! A single `Mutex<SemanticCache>` serializes every concurrent query
//! behind one lock — under M sessions the cache becomes the hottest
//! point of contention in the read path. The sharded cache splits the
//! entry space across N independent locks:
//!
//! * **Routing** — an entry lives in the shard addressed by the hash
//!   of its *pushdown predicate key* (`pred_key`). Containment-based
//!   drill-down reuse always probes the same pushdown key it inserted
//!   under (the plan validator's cache-key-consistency invariant), so
//!   parent and child queries of one exploration path land on the same
//!   shard and the cache's raison d'être survives sharding intact.
//!   Unfiltered entries (`pushdown = None`) answer *any* probe, so a
//!   filtered probe that misses its home shard falls back to the
//!   unfiltered shard. What sharding forfeits is cross-predicate
//!   bound-subsumption reuse (a `p ≥ 7` probe answered by a `p ≥ 6`
//!   entry) when the two keys hash to different shards — a hit-rate
//!   trade, never a correctness one.
//! * **Counters** — hit/miss/eviction/invalidation counts live in
//!   atomics beside the shards, so [`ShardedSemanticCache::stats`]
//!   (polled by benchmarks and dashboards mid-run) never takes a
//!   shard lock.
//! * **Budgets** — `max_entries`/`max_rows` are split evenly across
//!   shards; each shard enforces its slice independently.

use super::{CacheConfig, CacheHit, CacheStats, SemanticCache, SharedRows};
use drugtree_phylo::index::LeafInterval;
use drugtree_sources::sync::Mutex;
use drugtree_store::expr::Predicate;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable per-process identity of a pushdown predicate; its hash picks
/// the entry's shard. Semantically equal but differently shaped
/// predicates get different keys, which costs reuse, never soundness.
fn pred_key(pushdown: Option<&Predicate>) -> String {
    match pushdown {
        None => "∅".to_string(),
        Some(p) => format!("{p:?}"),
    }
}

/// The N-way sharded semantic cache.
pub struct ShardedSemanticCache {
    shards: Vec<Mutex<SemanticCache>>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
    probes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ShardedSemanticCache {
    /// Build with `config.shards` shards (rounded up to a power of
    /// two), splitting the entry/row budgets evenly across them.
    pub fn new(config: CacheConfig) -> ShardedSemanticCache {
        let n = config.shards.max(1).next_power_of_two();
        let per_shard = CacheConfig {
            max_entries: config.max_entries.div_ceil(n).max(1),
            max_rows: config.max_rows.div_ceil(n).max(1),
            shards: 1,
        };
        ShardedSemanticCache {
            shards: (0..n)
                .map(|_| Mutex::new(SemanticCache::new(per_shard)))
                .collect(),
            mask: n - 1,
            probes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an entry with this pushdown key lives in.
    fn shard_of(&self, pushdown: Option<&Predicate>) -> usize {
        let mut h = rustc_hash::FxHasher::default();
        pred_key(pushdown).hash(&mut h);
        (h.finish() as usize) & self.mask
    }

    /// Probe for an entry answering `(interval, pushdown)`. Locks the
    /// home shard of the pushdown key; a filtered probe that misses
    /// additionally tries the unfiltered shard (whose `None`-pushdown
    /// entries answer any predicate). A shard lock covers the entry
    /// search and a reference-count bump, never a row copy: the hit
    /// shares the entry's rows.
    pub fn probe(&self, interval: LeafInterval, pushdown: Option<&Predicate>) -> Option<CacheHit> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let home = self.shard_of(pushdown);
        let mut hit = self.shards[home].lock().probe(interval, pushdown);
        if hit.is_none() && pushdown.is_some() {
            let unfiltered = self.shard_of(None);
            if unfiltered != home {
                hit = self.shards[unfiltered].lock().probe(interval, pushdown);
            }
        }
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Insert a fetch result into the pushdown key's home shard,
    /// sharing `rows` with the caller.
    pub fn insert(&self, interval: LeafInterval, pushdown: Option<Predicate>, rows: SharedRows) {
        let shard = self.shard_of(pushdown.as_ref());
        let evicted = self.shards[shard].lock().insert(interval, pushdown, rows);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Drop every entry in every shard.
    pub fn invalidate_all(&self) {
        let mut dropped = 0;
        for shard in &self.shards {
            dropped += shard.lock().invalidate_all();
        }
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Drop entries overlapping `interval` in every shard (a targeted
    /// refresh; each shard prunes via its interval index).
    pub fn invalidate_interval(&self, interval: LeafInterval) {
        let mut dropped = 0;
        for shard in &self.shards {
            dropped += shard.lock().invalidate_interval(interval);
        }
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Cumulative counters. Reads only the atomics — never takes a
    /// shard lock, so stats polling cannot stall the serving path.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            probes: self.probes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Live entries across all shards (takes every shard lock; for
    /// tests and diagnostics, not the serving path).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cached rows across all shards (takes every shard lock).
    pub fn total_rows(&self) -> usize {
        self.shards.iter().map(|s| s.lock().total_rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_store::expr::CompareOp;
    use drugtree_store::value::Value;
    use std::sync::Arc;

    fn iv(lo: u32, hi: u32) -> LeafInterval {
        LeafInterval { lo, hi }
    }

    fn row(rank: i64) -> Vec<Value> {
        vec![Value::Int(rank), Value::from("x")]
    }

    fn cache(shards: usize) -> ShardedSemanticCache {
        ShardedSemanticCache::new(CacheConfig {
            shards,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(cache(1).shard_count(), 1);
        assert_eq!(cache(3).shard_count(), 4);
        assert_eq!(cache(8).shard_count(), 8);
        assert_eq!(cache(0).shard_count(), 1);
    }

    #[test]
    fn drilldown_hits_survive_sharding() {
        let c = cache(8);
        let p = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        let rows = Arc::new(vec![row(1), row(9)]);
        c.insert(iv(0, 16), Some(p.clone()), Arc::clone(&rows));
        // Child probe under the same pushdown key: same shard, hit,
        // and the hit reads the entry's rows in place.
        let hit = c.probe(iv(0, 8), Some(&p)).unwrap();
        assert_eq!(hit.rows(), [row(1)]);
        assert!(Arc::ptr_eq(&hit.entry_rows, &rows));
        let s = c.stats();
        assert_eq!((s.probes, s.hits, s.misses), (1, 1, 0));
    }

    #[test]
    fn unfiltered_shard_answers_filtered_probes() {
        let c = cache(8);
        c.insert(iv(0, 16), None, Arc::new(vec![row(3)]));
        // A filtered probe whose home shard is empty falls back to the
        // unfiltered shard.
        let p = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        assert!(c.probe(iv(0, 4), Some(&p)).is_some());
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn stats_reads_are_consistent_and_lock_free() {
        let c = cache(4);
        c.insert(iv(0, 8), None, Arc::new(vec![row(1)]));
        let _ = c.probe(iv(0, 4), None);
        let _ = c.probe(iv(9, 12), None);
        // Hold every shard lock: stats() must still return (it reads
        // only atomics).
        let guards: Vec<_> = c.shards.iter().map(Mutex::lock).collect();
        let s = c.stats();
        drop(guards);
        assert_eq!(s.probes, 2);
        assert_eq!(s.hits + s.misses, s.probes);
    }

    #[test]
    fn invalidation_sweeps_every_shard() {
        let c = cache(8);
        let preds: Vec<Option<Predicate>> = (0..6)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    Some(Predicate::eq("year", 2000 + i as i64))
                }
            })
            .collect();
        for (i, p) in preds.iter().enumerate() {
            c.insert(
                iv(i as u32, i as u32 + 2),
                p.clone(),
                Arc::new(vec![row(i as i64)]),
            );
        }
        assert_eq!(c.len(), 6);
        c.invalidate_interval(iv(0, 3));
        // Entries [0,2), [1,3), [2,4) overlap; the rest survive.
        assert_eq!(c.len(), 3);
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 6);
    }

    #[test]
    fn budgets_split_across_shards() {
        let c = ShardedSemanticCache::new(CacheConfig {
            max_entries: 16,
            max_rows: 1600,
            shards: 8,
        });
        // Each shard gets 2 entries / 200 rows.
        let one = c.shards[0].lock();
        assert_eq!(one.len(), 0);
        drop(one);
        // Overfill one pushdown key (one shard): evictions must kick
        // in at the per-shard budget, not the global one.
        let p = Predicate::eq("year", 2012i64);
        for i in 0..5u32 {
            c.insert(
                iv(10 + i, 11 + i),
                Some(p.clone()),
                Arc::new(vec![row(i as i64)]),
            );
        }
        assert!(c.stats().evictions >= 3, "per-shard entry budget enforced");
    }
}
