//! The semantic result cache (design decision D2) — the poster's
//! "novel mechanism" for interactive tree browsing.
//!
//! Mobile tree exploration is drill-down-heavy: the user opens a clade,
//! then its child, then a grandchild. Each step's subtree interval is
//! *contained* in the previous one, so the activity rows fetched for
//! the parent already answer the child's query — no source round-trip
//! needed. The cache therefore stores, per entry:
//!
//! * the leaf interval the rows cover,
//! * the pushdown predicate they were fetched under (`None` = all
//!   rows), and
//! * the activity batch the fetch returned
//!   ([`ActivityColumns`]), **sorted by leaf rank** so a containment
//!   hit is a binary search of its rank segment instead of a scan,
//!   held as one immutable shared snapshot (`Arc`): a hit borrows the
//!   entry's batch instead of copying it, and keeps reading its
//!   snapshot even if the entry is evicted or invalidated meanwhile.
//!
//! A query `(interval Q, pushdown P)` is answerable by an entry
//! `(interval E, pushdown F)` iff `E ⊇ Q` and `F` is *implied by* `P`
//! (every row satisfying `P` satisfies `F`, so the entry's row set is a
//! superset of what the query needs; the residual filter re-applies
//! `P`). Implication is checked syntactically: `F = True`/`None`, or
//! `F`'s conjuncts are a subset of `P`'s conjuncts — sound, never
//! complete, which is the right trade for a cache.
//!
//! The cache holds one source epoch ([`SourceEpoch`]): the one its
//! entries were fetched at or after. A probe or insert from a later
//! epoch first drops every entry, since any ingest makes every older
//! entry suspect; an insert from an earlier epoch is declined.

use crate::columnar::ActivityColumns;
use crate::dataset::SourceEpoch;
use drugtree_phylo::index::LeafInterval;
use drugtree_store::expr::Predicate;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// One cached fetch result.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Interval the rows cover.
    pub interval: LeafInterval,
    /// Pushdown predicate the rows were fetched under (`None` = all).
    pub pushdown: Option<Predicate>,
    /// The fetched activity batch, shared with the queries reading it.
    pub rows: Arc<ActivityColumns>,
}

/// Result of a successful probe: the matched entry's batch, shared, and
/// the part of it the probe interval covers.
#[derive(Debug)]
pub struct CacheHit {
    /// The matched entry's whole batch (shared with it, not copied).
    pub entry_rows: Arc<ActivityColumns>,
    /// Positions in `entry_rows` whose leaf rank falls in the probe
    /// interval.
    pub range: Range<usize>,
}

/// Configuration for the semantic cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum entries retained (LRU beyond this).
    pub max_entries: usize,
    /// Maximum total cached rows (LRU beyond this).
    pub max_rows: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_entries: 64,
            max_rows: 100_000,
        }
    }
}

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total probes (always `hits + misses`).
    pub probes: u64,
    /// Probes that found a usable entry.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped because a new entry answers everything they did.
    pub subsumed: u64,
    /// Inserts declined: a result larger than the row budget, or one
    /// fetched before a source changed.
    pub declined: u64,
    /// Entries dropped by invalidation or by a later source epoch.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit fraction over all probes, or `None` when nothing probed
    /// yet — the number the observability layer (D9) and E13 report.
    /// "Never probed" must not render as a 0% hit rate: the first is
    /// a workload property, the second a cache failure.
    pub fn hit_rate(&self) -> Option<f64> {
        if self.probes == 0 {
            None
        } else {
            Some(self.hits as f64 / self.probes as f64)
        }
    }
}

/// The semantic cache. Not internally synchronized; the executor holds
/// the one instance behind one lock.
///
/// Entries live in an id-keyed map; an LRU queue of ids (front =
/// coldest) drives probe order and eviction.
#[derive(Debug)]
pub struct SemanticCache {
    config: CacheConfig,
    /// Every entry was fetched at this source epoch or later.
    epoch: SourceEpoch,
    entries: FxHashMap<u64, CacheEntry>,
    /// Most-recently-used ids at the back.
    lru: VecDeque<u64>,
    next_id: u64,
    /// Incrementally maintained `Σ rows`, so budget enforcement does
    /// not rescan entries.
    cached_rows: usize,
    stats: CacheStats,
}

impl SemanticCache {
    /// An empty cache.
    pub fn new(config: CacheConfig) -> SemanticCache {
        SemanticCache {
            config,
            epoch: SourceEpoch::default(),
            entries: FxHashMap::default(),
            lru: VecDeque::new(),
            next_id: 0,
            cached_rows: 0,
            stats: CacheStats::default(),
        }
    }

    /// Probe at `epoch` for an entry answering `(interval, pushdown)`.
    pub fn probe(
        &mut self,
        epoch: SourceEpoch,
        interval: LeafInterval,
        pushdown: Option<&Predicate>,
    ) -> Option<CacheHit> {
        self.advance_to(epoch);
        self.stats.probes += 1;
        let found = self.lru.iter().position(|id| {
            self.entries.get(id).is_some_and(|e| {
                e.interval.contains(interval) && pushdown_implies(pushdown, e.pushdown.as_ref())
            })
        });
        match found {
            Some(pos) => {
                // LRU touch: move the id to the back.
                let Some(id) = self.lru.remove(pos) else {
                    unreachable!("position came from the same deque")
                };
                self.lru.push_back(id);
                let entry = &self.entries[&id];
                self.stats.hits += 1;
                Some(CacheHit {
                    entry_rows: Arc::clone(&entry.rows),
                    range: entry.rows.rows_in(interval),
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a fetch result of a query at `epoch`, sharing its batch
    /// with the caller. A result larger than the whole row budget, or one
    /// fetched before a source changed, is declined: nothing is dropped
    /// or evicted, and the caller's `Arc` is unique again. Otherwise
    /// entries subsumed by the new one are dropped (the new entry
    /// answers everything they could), then the least recently used
    /// entries are evicted until the cache is within budget.
    pub fn insert(
        &mut self,
        epoch: SourceEpoch,
        interval: LeafInterval,
        pushdown: Option<Predicate>,
        rows: Arc<ActivityColumns>,
    ) {
        self.advance_to(epoch);
        if !epoch.holds_at(self.epoch) || rows.len() > self.config.max_rows {
            self.stats.declined += 1;
            return;
        }
        // Drop entries the new one subsumes.
        let subsumed: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| {
                interval.contains(e.interval)
                    && pushdown_implies(e.pushdown.as_ref(), pushdown.as_ref())
            })
            .map(|(&id, _)| id)
            .collect();
        self.stats.subsumed += subsumed.len() as u64;
        self.remove_ids(&subsumed);

        let id = self.next_id;
        self.next_id += 1;
        self.cached_rows += rows.len();
        self.lru.push_back(id);
        self.entries.insert(
            id,
            CacheEntry {
                interval,
                pushdown,
                rows,
            },
        );
        self.enforce_limits();
    }

    /// Drop every entry.
    pub fn invalidate_all(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.lru.clear();
        self.cached_rows = 0;
    }

    /// Move the cache to `epoch` when a source changed since its own:
    /// every entry was fetched before that change, so all are dropped.
    fn advance_to(&mut self, epoch: SourceEpoch) {
        if !self.epoch.holds_at(epoch) {
            self.invalidate_all();
            self.epoch = epoch;
        }
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn remove_ids(&mut self, ids: &[u64]) {
        if ids.is_empty() {
            return;
        }
        for id in ids {
            if let Some(e) = self.entries.remove(id) {
                self.cached_rows -= e.rows.len();
            }
        }
        self.lru.retain(|id| self.entries.contains_key(id));
    }

    /// Evict the least recently used entries until both budgets hold.
    /// The newest entry fits the row budget alone (`insert` declines
    /// any larger), so the row budget never evicts it.
    fn enforce_limits(&mut self) {
        while self.entries.len() > self.config.max_entries
            || (self.cached_rows > self.config.max_rows && !self.entries.is_empty())
        {
            let Some(id) = self.lru.pop_front() else {
                break;
            };
            if let Some(e) = self.entries.remove(&id) {
                self.cached_rows -= e.rows.len();
            }
            self.stats.evictions += 1;
        }
    }
}

/// Sound (incomplete) implication: does `query` imply `entry`?
///
/// `entry = None/True` is implied by anything. Otherwise every conjunct
/// of `entry` must be implied by some conjunct of `query`, where
/// implication is exact syntactic equality *or* numeric bound
/// subsumption on the same column (`p >= 7` implies `p >= 6`;
/// `x between 2 and 3` implies `x >= 1`).
fn pushdown_implies(query: Option<&Predicate>, entry: Option<&Predicate>) -> bool {
    let entry = match entry {
        None | Some(Predicate::True) => return true,
        Some(e) => e,
    };
    let Some(query) = query else {
        return false;
    };
    let q_conjuncts = conjuncts(query);
    conjuncts(entry)
        .iter()
        .all(|e| q_conjuncts.iter().any(|q| conjunct_implies(q, e)))
}

/// Conjuncts of a predicate, with `Between` expanded into its two
/// bounds so bound subsumption can see them.
fn conjuncts(p: &Predicate) -> Vec<Predicate> {
    match p {
        Predicate::And(ps) => ps.iter().flat_map(conjuncts).collect(),
        Predicate::True => Vec::new(),
        Predicate::Between { column, lo, hi } => vec![
            Predicate::Compare {
                column: column.clone(),
                op: drugtree_store::expr::CompareOp::Ge,
                value: lo.clone(),
            },
            Predicate::Compare {
                column: column.clone(),
                op: drugtree_store::expr::CompareOp::Le,
                value: hi.clone(),
            },
        ],
        other => vec![other.clone()],
    }
}

/// Does the single conjunct `q` imply the single conjunct `e`?
fn conjunct_implies(q: &Predicate, e: &Predicate) -> bool {
    use drugtree_store::expr::CompareOp::*;
    if q == e {
        return true;
    }
    let (
        Predicate::Compare {
            column: qc,
            op: qop,
            value: qv,
        },
        Predicate::Compare {
            column: ec,
            op: eop,
            value: ev,
        },
    ) = (q, e)
    else {
        return false;
    };
    if qc != ec {
        return false;
    }
    let (Some(qv), Some(ev)) = (qv.as_f64(), ev.as_f64()) else {
        return false;
    };
    match (qop, eop) {
        // Lower bounds: x {>=,>} qv implies x {>=,>} ev.
        (Ge, Ge) | (Gt, Gt) => qv >= ev,
        (Gt, Ge) => qv >= ev,
        (Ge, Gt) => qv > ev,
        // Upper bounds.
        (Le, Le) | (Lt, Lt) => qv <= ev,
        (Lt, Le) => qv <= ev,
        (Le, Lt) => qv < ev,
        // Point implies any bound containing it.
        (Eq, Ge) => qv >= ev,
        (Eq, Gt) => qv > ev,
        (Eq, Le) => qv <= ev,
        (Eq, Lt) => qv < ev,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::tests::{batch_of, ranks};
    use drugtree_store::expr::CompareOp;

    /// The source epoch every test but `invalidation` runs at.
    const E: SourceEpoch = SourceEpoch(1);

    fn iv(lo: u32, hi: u32) -> LeafInterval {
        LeafInterval { lo, hi }
    }

    /// A batch of one row per rank.
    fn shared(ranks: &[u32]) -> Arc<ActivityColumns> {
        batch_of(ranks, "L")
    }

    impl CacheHit {
        /// The ranks of the rows in the probe interval.
        fn ranks(&self) -> Vec<i64> {
            ranks(&self.entry_rows, self.range.clone())
        }
    }

    #[test]
    fn exact_hit() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(E, iv(0, 4), None, shared(&[0, 2]));
        let hit = c.probe(E, iv(0, 4), None).unwrap();
        assert_eq!(hit.ranks().len(), 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn containment_hit_slices_rows() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(E, iv(0, 8), None, shared(&[1, 3, 6]));
        // Drill-down: child interval [2,5).
        let hit = c.probe(E, iv(2, 5), None).unwrap();
        assert_eq!(hit.ranks(), [3]);
        assert_eq!(hit.entry_rows.len(), 3, "the whole entry is shared");
        // Sibling interval outside: rows empty but still a hit (the
        // cache *knows* there is nothing there).
        let hit = c.probe(E, iv(7, 8), None).unwrap();
        assert!(hit.ranks().is_empty());
    }

    #[test]
    fn non_contained_probe_misses() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(E, iv(2, 5), None, shared(&[3]));
        assert!(
            c.probe(E, iv(0, 4), None).is_none(),
            "partial overlap is a miss"
        );
        assert!(c.probe(E, iv(5, 6), None).is_none());
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn predicate_implication() {
        let p_ge = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        let year = Predicate::eq("year", 2012i64);
        let both = p_ge.clone().and(year.clone());

        let mut c = SemanticCache::new(CacheConfig::default());
        // Entry fetched under p_ge.
        c.insert(E, iv(0, 8), Some(p_ge), shared(&[1]));
        // Query pushing down p_ge AND year: entry's rows are a superset.
        assert!(c.probe(E, iv(0, 4), Some(&both)).is_some());
        // Query pushing down only year: entry may be missing rows
        // (those failing p_ge) -> miss.
        assert!(c.probe(E, iv(0, 4), Some(&year)).is_none());
        // Query with no pushdown (wants everything) -> miss.
        assert!(c.probe(E, iv(0, 4), None).is_none());
    }

    #[test]
    fn unfiltered_entry_answers_any_pushdown() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(E, iv(0, 8), None, shared(&[1]));
        let p = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        assert!(c.probe(E, iv(0, 4), Some(&p)).is_some());
    }

    #[test]
    fn insert_subsumes_smaller_entries() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(E, iv(2, 4), None, shared(&[2]));
        c.insert(E, iv(0, 8), None, shared(&[2, 5]));
        assert_eq!(c.entries.len(), 1, "small entry subsumed by the big one");
        assert_eq!((c.stats().subsumed, c.stats().evictions), (1, 0));
        // But a *filtered* big entry does not subsume an unfiltered
        // small one.
        let p = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        c.insert(E, iv(0, 8), Some(p), shared(&[5]));
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.stats().subsumed, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = SemanticCache::new(CacheConfig {
            max_entries: 2,
            max_rows: 1000,
        });
        c.insert(E, iv(0, 1), None, shared(&[0]));
        c.insert(E, iv(1, 2), None, shared(&[1]));
        // Touch the first entry so the second becomes LRU.
        assert!(c.probe(E, iv(0, 1), None).is_some());
        c.insert(E, iv(2, 3), None, shared(&[2]));
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.probe(E, iv(1, 2), None).is_none(), "LRU entry evicted");
        assert!(c.probe(E, iv(0, 1), None).is_some(), "touched entry kept");
    }

    #[test]
    fn row_budget_eviction() {
        let mut c = SemanticCache::new(CacheConfig {
            max_entries: 100,
            max_rows: 3,
        });
        c.insert(E, iv(0, 4), None, shared(&[0, 1]));
        c.insert(E, iv(4, 8), None, shared(&[4, 5]));
        assert_eq!(c.entries.len(), 1, "row budget forced eviction");
        assert!(c.cached_rows <= 3);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut c = SemanticCache::new(CacheConfig {
            max_entries: 100,
            max_rows: 2,
        });
        c.insert(E, iv(0, 8), None, shared(&[0, 1, 2]));
        assert!(
            c.entries.is_empty(),
            "whole-database result exceeds the budget"
        );
        assert_eq!((c.stats().declined, c.stats().evictions), (1, 0));
        // Smaller entries still cache fine afterwards.
        c.insert(E, iv(0, 2), None, shared(&[0]));
        assert_eq!(c.entries.len(), 1);
    }

    /// A result larger than the row budget is declined before anything
    /// is dropped or evicted: the drill-down-sized entries it subsumes
    /// keep answering.
    #[test]
    fn an_oversized_insert_keeps_the_entries_it_subsumes() {
        let mut c = SemanticCache::new(CacheConfig {
            max_entries: 100,
            max_rows: 4,
        });
        c.insert(E, iv(0, 4), None, shared(&[0, 1]));
        c.insert(E, iv(4, 8), None, shared(&[4, 5]));
        c.insert(E, iv(0, 8), None, shared(&[0, 1, 2, 3, 4]));
        assert!(c.probe(E, iv(0, 4), None).is_some());
        assert!(c.probe(E, iv(4, 8), None).is_some());
        assert_eq!(c.cached_rows, 4);
        assert_eq!((c.stats().declined, c.stats().evictions), (1, 0));
    }

    #[test]
    fn invalidation() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(E, iv(0, 4), None, shared(&[0]));
        c.insert(E, iv(4, 8), None, shared(&[5]));
        assert_eq!(c.entries.len(), 2);

        // A probe after an ingest drops every entry, each counted.
        let later = SourceEpoch(2);
        assert!(c.probe(later, iv(0, 4), None).is_none());
        assert!(c.entries.is_empty());
        assert_eq!(c.stats().invalidations, 2);
        assert_eq!(c.cached_rows, 0);

        // Rows fetched before the ingest are declined.
        c.insert(E, iv(0, 4), None, shared(&[0]));
        assert!(c.entries.is_empty());
        assert_eq!((c.stats().declined, c.stats().evictions), (1, 0));
        assert!(c.probe(later, iv(0, 4), None).is_none());

        // At the cache's epoch an insert lands; dropping it explicitly
        // counts it too.
        c.insert(later, iv(0, 4), None, shared(&[0]));
        assert!(c.probe(later, iv(0, 4), None).is_some());
        c.invalidate_all();
        assert!(c.entries.is_empty());
        assert_eq!(c.cached_rows, 0);
        assert_eq!(c.stats().invalidations, 3);
    }

    #[test]
    fn probes_always_equal_hits_plus_misses() {
        let mut c = SemanticCache::new(CacheConfig::default());
        assert_eq!(c.stats().hit_rate(), None, "never probed is not 0%");
        c.insert(E, iv(0, 8), None, shared(&[1]));
        let _ = c.probe(E, iv(0, 4), None);
        let _ = c.probe(E, iv(6, 12), None);
        let _ = c.probe(E, iv(2, 3), None);
        let s = c.stats();
        assert_eq!(s.probes, 3);
        assert_eq!(s.hits + s.misses, s.probes);
        assert_eq!(s.hit_rate(), Some(2.0 / 3.0));
    }

    #[test]
    fn bound_subsumption_implication() {
        use drugtree_store::expr::CompareOp::*;
        let ge = |v: f64| Predicate::cmp("p", Ge, v);
        let gt = |v: f64| Predicate::cmp("p", Gt, v);
        let le = |v: f64| Predicate::cmp("p", Le, v);

        // Tighter lower bound implies looser.
        assert!(pushdown_implies(Some(&ge(7.0)), Some(&ge(6.0))));
        assert!(!pushdown_implies(Some(&ge(5.0)), Some(&ge(6.0))));
        // Strict vs non-strict edges.
        assert!(pushdown_implies(Some(&gt(6.0)), Some(&ge(6.0))));
        assert!(!pushdown_implies(Some(&ge(6.0)), Some(&gt(6.0))));
        assert!(pushdown_implies(Some(&ge(6.1)), Some(&gt(6.0))));
        // Upper bounds.
        assert!(pushdown_implies(Some(&le(4.0)), Some(&le(5.0))));
        assert!(!pushdown_implies(Some(&le(6.0)), Some(&le(5.0))));
        // Point implies covering bound.
        let eq = Predicate::eq("p", 7.0);
        assert!(pushdown_implies(Some(&eq), Some(&ge(6.0))));
        assert!(!pushdown_implies(Some(&eq), Some(&ge(8.0))));
        // Different columns never imply.
        assert!(!pushdown_implies(
            Some(&Predicate::cmp("q", Ge, 9.0)),
            Some(&ge(6.0))
        ));
        // Between expands into bounds.
        let btw = Predicate::between("p", 6.5, 7.0);
        assert!(pushdown_implies(Some(&btw), Some(&ge(6.0))));
        assert!(!pushdown_implies(Some(&ge(6.0)), Some(&btw)));
        // Multi-conjunct entries need every conjunct implied.
        let entry = ge(6.0).and(Predicate::eq("year", 2012i64));
        let query = ge(7.0).and(Predicate::eq("year", 2012i64));
        assert!(pushdown_implies(Some(&query), Some(&entry)));
        assert!(!pushdown_implies(Some(&ge(7.0)), Some(&entry)));
    }

    #[test]
    fn probe_uses_bound_subsumption() {
        use drugtree_store::expr::CompareOp::Ge;
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(
            E,
            iv(0, 8),
            Some(Predicate::cmp("p_activity", Ge, 6.0)),
            shared(&[1, 3]),
        );
        // Stricter query bound: rows are a superset of what it needs.
        let strict = Predicate::cmp("p_activity", Ge, 7.5);
        assert!(c.probe(E, iv(0, 4), Some(&strict)).is_some());
        // Looser query bound: entry may be missing rows in [5.0, 6.0).
        let loose = Predicate::cmp("p_activity", Ge, 5.0);
        assert!(c.probe(E, iv(0, 4), Some(&loose)).is_none());
    }

    #[test]
    fn probe_shares_the_entry_rows() {
        let mut c = SemanticCache::new(CacheConfig::default());
        let rows = shared(&[1, 3, 6]);
        c.insert(E, iv(0, 8), None, Arc::clone(&rows));
        // Entry, inserter and every hit read one allocation.
        let whole = c.probe(E, iv(0, 8), None).unwrap();
        let part = c.probe(E, iv(2, 7), None).unwrap();
        assert!(Arc::ptr_eq(&whole.entry_rows, &rows));
        assert!(Arc::ptr_eq(&part.entry_rows, &rows));
        assert_eq!(whole.range, 0..3);
        assert_eq!(part.range, 1..3);
        assert_eq!(c.cached_rows, 3, "shared rows are counted once");
    }

    #[test]
    fn a_hit_outlives_its_entry() {
        let mut c = SemanticCache::new(CacheConfig {
            max_entries: 1,
            ..CacheConfig::default()
        });
        c.insert(E, iv(0, 8), None, shared(&[1, 3]));
        let before_invalidate = c.probe(E, iv(0, 4), None).unwrap();
        c.invalidate_all();
        assert!(c.entries.is_empty());
        assert_eq!(c.cached_rows, 0);
        assert_eq!(before_invalidate.ranks(), [1, 3]);

        c.insert(E, iv(0, 8), None, shared(&[2]));
        let before_evict = c.probe(E, iv(0, 8), None).unwrap();
        c.insert(E, iv(8, 16), None, shared(&[9]));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.probe(E, iv(0, 8), None).is_none(), "entry evicted");
        assert_eq!(before_evict.ranks(), [2]);
        assert_eq!(c.cached_rows, 1);
    }

    #[test]
    fn a_declined_insert_hands_the_rows_back() {
        let mut c = SemanticCache::new(CacheConfig {
            max_rows: 2,
            ..CacheConfig::default()
        });
        let rows = shared(&[0, 1, 2]);
        c.insert(E, iv(0, 8), None, Arc::clone(&rows));
        assert_eq!((c.stats().declined, c.stats().evictions), (1, 0));
        assert_eq!(c.cached_rows, 0);
        assert!(Arc::try_unwrap(rows).is_ok(), "the cache kept no handle");
    }
}
