//! The auto-materialization advisor.
//!
//! Folds slow-path *matview-answerable* queries (aggregate finishes
//! the planner had to execute without a materialized view) into
//! per-shape cumulative foregone cost — dedup count × charged latency,
//! the same arithmetic `drugtree top` renders from the slow-log. Once
//! the cumulative foregone cost crosses the measured break-even (the
//! E7 trade: one build scan vs the hits it saves), the advisor tells
//! the runtime to build the view. Afterwards it tracks amortization —
//! build cost vs latency actually saved by hits — and flags views that
//! never pay off for eviction.

use rustc_hash::FxHashMap;
use std::time::Duration;

/// A built view with zero hits for this long (a minute on the virtual
/// clock, in nanoseconds) is evicted as never-paying-off.
const EVICTION_IDLE_NS: u64 = 60_000_000_000;

/// One matview-answerable shape's accumulated foregone cost.
#[derive(Debug, Clone, Copy, Default)]
struct ShapeTally {
    /// Unserved occurrences since the ledger last restarted.
    count: u64,
    /// Charged latency those occurrences accumulated.
    foregone: Duration,
}

/// Amortization bookkeeping for the one built view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BuiltView {
    at_ns: u64,
    build_cost: Duration,
    hits: u64,
    saved: Duration,
    last_hit_ns: u64,
}

/// Counters and state of the advisor, for reports and E17.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvisorSnapshot {
    /// Distinct matview-answerable shapes observed.
    pub shapes: usize,
    /// Total unserved occurrences folded in.
    pub candidates: u64,
    /// Cumulative foregone charged latency (resets on build/evict).
    pub foregone: Duration,
    /// Whether a view is currently built.
    pub built: bool,
    /// Build cost of the current view (zero when none).
    pub build_cost: Duration,
    /// Queries served by the built view.
    pub hits: u64,
    /// Charged latency saved by those hits.
    pub saved: Duration,
    /// Views evicted as never-paying-off.
    pub evictions: u64,
}

/// Break-even bookkeeping for auto-materialization. Not itself
/// thread-safe; the adaptive runtime wraps it in a mutex.
/// `MatviewAdvisor::default()` is an empty advisor.
#[derive(Debug, Default)]
pub struct MatviewAdvisor {
    shapes: FxHashMap<u64, ShapeTally>,
    foregone_total: Duration,
    candidates: u64,
    built: Option<BuiltView>,
    evictions: u64,
}

impl MatviewAdvisor {
    /// Fold one matview-answerable query that executed *without* a
    /// view. `break_even` is the runtime's measured scan-cost proxy
    /// (the E7 trade: one build scan vs the hits it saves). Returns
    /// `true` when this occurrence pushes the cumulative foregone cost
    /// past break-even — i.e. the runtime should build the view now.
    pub fn note_candidate(
        &mut self,
        fingerprint: u64,
        charged: Duration,
        break_even: Duration,
    ) -> bool {
        self.candidates += 1;
        self.foregone_total += charged;
        let entry = self.shapes.entry(fingerprint).or_default();
        entry.count += 1;
        entry.foregone += charged;
        self.built.is_none() && self.foregone_total > break_even
    }

    /// The view was built: start the amortization ledger.
    pub fn record_build(&mut self, at_ns: u64, build_cost: Duration) {
        self.built = Some(BuiltView {
            at_ns,
            build_cost,
            hits: 0,
            saved: Duration::ZERO,
            last_hit_ns: at_ns,
        });
        self.foregone_total = Duration::ZERO;
    }

    /// A query was served by the built view, saving roughly `saved`
    /// charged latency versus the unserved path.
    pub fn note_hit(&mut self, saved: Duration, now_ns: u64) {
        if let Some(b) = &mut self.built {
            b.hits += 1;
            b.saved += saved;
            b.last_hit_ns = b.last_hit_ns.max(now_ns);
        }
    }

    /// Whether the built view should be evicted: it has served nothing
    /// for a minute of virtual time — it never paid off.
    pub fn should_evict(&self, now_ns: u64) -> bool {
        self.built
            .is_some_and(|b| b.hits == 0 && now_ns > b.last_hit_ns.saturating_add(EVICTION_IDLE_NS))
    }

    /// The view was evicted; foregone-cost accumulation restarts so a
    /// genuinely hot workload can re-cross break-even later.
    pub fn record_evict(&mut self) {
        if self.built.take().is_some() {
            self.evictions += 1;
            self.foregone_total = Duration::ZERO;
            for shape in self.shapes.values_mut() {
                shape.count = 0;
                shape.foregone = Duration::ZERO;
            }
        }
    }

    /// Mean charged latency this shape paid per unserved occurrence —
    /// the per-hit savings estimate once a view serves it.
    pub fn mean_foregone(&self, fingerprint: u64) -> Option<Duration> {
        self.shapes
            .get(&fingerprint)
            .filter(|s| s.count > 0)
            .map(|s| s.foregone / u32::try_from(s.count.min(u64::from(u32::MAX))).unwrap_or(1))
    }

    /// Counters and state, for the advisor report and E17.
    pub fn snapshot(&self) -> AdvisorSnapshot {
        AdvisorSnapshot {
            shapes: self.shapes.len(),
            candidates: self.candidates,
            foregone: self.foregone_total,
            built: self.built.is_some(),
            build_cost: self.built.map_or(Duration::ZERO, |b| b.build_cost),
            hits: self.built.map_or(0, |b| b.hits),
            saved: self.built.map_or(Duration::ZERO, |b| b.saved),
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn break_even_crossing_triggers_build_once() {
        let mut a = MatviewAdvisor::default();
        // 30ms break-even; three 10ms queries accumulate to it, the
        // fourth crosses.
        assert!(!a.note_candidate(1, ms(10), ms(30)));
        assert!(!a.note_candidate(1, ms(10), ms(30)));
        assert!(!a.note_candidate(1, ms(10), ms(30)));
        assert!(a.note_candidate(1, ms(10), ms(30)));
        a.record_build(4, ms(25));
        // Built: no further build requests.
        assert!(!a.note_candidate(1, ms(10), ms(30)));
        let snap = a.snapshot();
        assert!(snap.built);
        assert_eq!(snap.build_cost, ms(25));
        assert_eq!(snap.candidates, 5);
    }

    #[test]
    fn hits_accumulate_saved_cost() {
        let mut a = MatviewAdvisor::default();
        a.note_candidate(1, ms(50), ms(10));
        a.record_build(1, ms(30));
        a.note_hit(ms(20), 2);
        a.note_hit(ms(20), 3);
        let snap = a.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.saved, ms(40));
    }

    #[test]
    fn idle_views_evict_and_accumulation_restarts() {
        let mut a = MatviewAdvisor::default();
        a.note_candidate(1, ms(50), ms(10));
        a.record_build(1_000_000, ms(30));
        // Within the idle window: keep.
        assert!(!a.should_evict(1_000_000 + EVICTION_IDLE_NS));
        // Past it with zero hits: evict.
        assert!(a.should_evict(1_000_001 + EVICTION_IDLE_NS));
        a.record_evict();
        let snap = a.snapshot();
        assert!(!snap.built);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.foregone, Duration::ZERO);
        // A view that took even one hit is never idle-evicted.
        a.note_candidate(1, ms(50), ms(10));
        a.record_build(2_000_000, ms(30));
        a.note_hit(ms(1), 2_000_001);
        assert!(!a.should_evict(u64::MAX));
    }
}
