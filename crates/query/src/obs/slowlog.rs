//! Bounded slow-query log: the top-K slowest *plan shapes* by charged
//! latency, with full `EXPLAIN ANALYZE` renderings.
//!
//! Entries are keyed by plan fingerprint ([`super::plan_fingerprint`])
//! so the thousand occurrences of one bad shape collapse into a single
//! entry carrying an occurrence count and the rendering of its slowest
//! occurrence. Capacity is enforced with a min-heap over charged
//! latency: a new shape must beat the current cheapest entry to get
//! in, which keeps admission O(log K) and memory strictly bounded.
//! Renderings are produced lazily — a query that will not be admitted
//! never formats anything.

use drugtree_sources::sync::Mutex;
use rustc_hash::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// One retained slow-query shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowLogEntry {
    /// Plan-shape fingerprint (the dedup key).
    pub fingerprint: u64,
    /// Canonical plan shape (predicate constants stripped).
    pub shape: String,
    /// Query text of the slowest occurrence.
    pub query: String,
    /// Largest charged latency observed for this shape.
    pub charged: Duration,
    /// Occurrences folded into this entry while it was resident.
    pub count: u64,
    /// `EXPLAIN ANALYZE` rendering of the slowest occurrence.
    pub rendering: String,
}

#[derive(Debug, Default)]
struct LogState {
    entries: FxHashMap<u64, SlowLogEntry>,
    /// Min-heap of `(charged, fingerprint)` with lazy invalidation:
    /// an entry whose charged latency no longer matches the map is
    /// stale and popped on sight.
    heap: BinaryHeap<Reverse<(Duration, u64)>>,
}

impl LogState {
    /// Pop stale heap entries until the top mirrors a live map entry.
    fn settle(&mut self) {
        while let Some(Reverse((charged, fp))) = self.heap.peek().copied() {
            match self.entries.get(&fp) {
                Some(e) if e.charged == charged => return,
                _ => {
                    self.heap.pop();
                }
            }
        }
    }
}

/// A bounded, dedup-by-fingerprint slow-query log.
pub struct SlowQueryLog {
    capacity: usize,
    state: Mutex<LogState>,
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryLog")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl SlowQueryLog {
    /// A log retaining at most `capacity` shapes (minimum 1).
    pub fn new(capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            capacity: capacity.max(1),
            state: Mutex::new(LogState::default()),
        }
    }

    /// Currently retained shapes.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Whether nothing has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offer one executed query to the log. `render` is called only
    /// when this occurrence's rendering will actually be stored (a
    /// new shape admitted, or a resident shape beaten by a slower
    /// occurrence), so the common fast query costs two map probes.
    ///
    /// Returns `true` when the occurrence was folded in (resident
    /// shape or admitted), `false` when it lost to the resident top-K.
    pub fn offer(
        &self,
        fingerprint: u64,
        charged: Duration,
        query: &str,
        shape: impl FnOnce() -> String,
        render: impl FnOnce() -> String,
    ) -> bool {
        let mut state = self.state.lock();
        if let Some(entry) = state.entries.get_mut(&fingerprint) {
            entry.count += 1;
            if charged > entry.charged {
                entry.charged = charged;
                entry.query = query.to_string();
                entry.rendering = render();
                state.heap.push(Reverse((charged, fingerprint)));
            }
            return true;
        }
        if state.entries.len() >= self.capacity {
            state.settle();
            let Some(Reverse((min_charged, min_fp))) = state.heap.peek().copied() else {
                return false;
            };
            if charged <= min_charged {
                return false;
            }
            state.entries.remove(&min_fp);
            state.heap.pop();
        }
        state.entries.insert(
            fingerprint,
            SlowLogEntry {
                fingerprint,
                shape: shape(),
                query: query.to_string(),
                charged,
                count: 1,
                rendering: render(),
            },
        );
        state.heap.push(Reverse((charged, fingerprint)));
        true
    }

    /// Retained entries, slowest first (ties break on fingerprint for
    /// deterministic output).
    pub fn entries(&self) -> Vec<SlowLogEntry> {
        let state = self.state.lock();
        let mut all: Vec<SlowLogEntry> = state.entries.values().cloned().collect();
        all.sort_by(|a, b| {
            b.charged
                .cmp(&a.charged)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn offer(log: &SlowQueryLog, fp: u64, charged: Duration) -> bool {
        log.offer(
            fp,
            charged,
            "q",
            || format!("shape-{fp}"),
            || format!("render-{fp}-{charged:?}"),
        )
    }

    #[test]
    fn repeated_shapes_dedupe_and_keep_slowest_rendering() {
        let log = SlowQueryLog::new(4);
        assert!(offer(&log, 1, ms(10)));
        assert!(offer(&log, 1, ms(30)));
        assert!(offer(&log, 1, ms(20)));
        assert_eq!(log.len(), 1);
        let entries = log.entries();
        assert_eq!(entries[0].count, 3);
        assert_eq!(entries[0].charged, ms(30));
        assert_eq!(entries[0].rendering, "render-1-30ms");
    }

    #[test]
    fn min_heap_evicts_the_cheapest_shape() {
        let log = SlowQueryLog::new(2);
        offer(&log, 1, ms(10));
        offer(&log, 2, ms(20));
        // Too cheap: rejected, log unchanged.
        assert!(!offer(&log, 3, ms(5)));
        assert_eq!(log.len(), 2);
        // Beats the cheapest resident shape (fp 1): admitted.
        assert!(offer(&log, 4, ms(15)));
        let fps: Vec<u64> = log.entries().iter().map(|e| e.fingerprint).collect();
        assert_eq!(fps, vec![2, 4], "slowest first, fp 1 evicted");
    }

    #[test]
    fn eviction_respects_in_place_updates() {
        let log = SlowQueryLog::new(2);
        offer(&log, 1, ms(10));
        offer(&log, 2, ms(20));
        // fp 1 gets slower in place; its old heap entry is now stale.
        offer(&log, 1, ms(50));
        // 15ms would have beaten the stale 10ms floor but not the live
        // 20ms one.
        assert!(!offer(&log, 3, ms(15)));
        assert!(offer(&log, 3, ms(25)));
        let fps: Vec<u64> = log.entries().iter().map(|e| e.fingerprint).collect();
        assert_eq!(fps, vec![1, 3]);
    }

    #[test]
    fn rendering_is_lazy_for_rejected_offers() {
        let log = SlowQueryLog::new(1);
        offer(&log, 1, ms(100));
        let rendered = std::cell::Cell::new(false);
        let admitted = log.offer(
            2,
            ms(1),
            "q",
            || {
                rendered.set(true);
                String::new()
            },
            || {
                rendered.set(true);
                String::new()
            },
        );
        assert!(!admitted);
        assert!(!rendered.get(), "losing offers must not render");
    }
}
