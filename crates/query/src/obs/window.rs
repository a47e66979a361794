//! Rolling SLO windows: time-windowed latency aggregation per query
//! class and per serving session, with breach counting against
//! per-class targets.
//!
//! Windows live on the **virtual clock** (a record at `t` lands in
//! window `t / width`), so window boundaries — and every exported
//! rollover event — are deterministic under replay. This module is the
//! one place a window lives: each scope keeps its live
//! [`FixedHistogram`], a bounded ring of the most recent N closed
//! [`WindowSummary`]s (count / p50 / p95 / p99 / max from interpolated
//! histogram quantiles) and its breach count together, under one lock.

use crate::ast::{Query, QueryKind};
use drugtree_sources::sync::Mutex;
use drugtree_sources::telemetry::{nanos, FixedHistogram, HistogramSnapshot};
use drugtree_store::expr::Predicate;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Workload class of a query, derived from its AST shape.
///
/// Classes partition the fleet's traffic the way an operator reasons
/// about it: cheap viewport listings vs. filtered scans vs. the
/// chemistry-heavy similarity path, each with its own latency target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryClass {
    /// Bare subtree listing (no predicate, no structure constraint).
    Listing,
    /// Listing with a row predicate.
    Filtered,
    /// Similarity or substructure constrained.
    Similarity,
    /// Top-k ranking.
    TopK,
    /// Per-child aggregation (collapsed branch view).
    Aggregate,
    /// Per-leaf match counting (heat strips).
    CountPerLeaf,
}

impl QueryClass {
    /// Every class, in display order.
    pub const ALL: [QueryClass; 6] = [
        QueryClass::Listing,
        QueryClass::Filtered,
        QueryClass::Similarity,
        QueryClass::TopK,
        QueryClass::Aggregate,
        QueryClass::CountPerLeaf,
    ];

    /// Classify a query. The finishing operator wins (a filtered
    /// top-k is still `TopK`); plain listings split on structure
    /// constraints first, then on the predicate.
    pub fn of(query: &Query) -> QueryClass {
        match query.kind {
            QueryKind::AggregateChildren { .. } => QueryClass::Aggregate,
            QueryKind::CountPerLeaf => QueryClass::CountPerLeaf,
            QueryKind::TopK { .. } => QueryClass::TopK,
            QueryKind::Activities => {
                if query.similarity.is_some() || query.substructure.is_some() {
                    QueryClass::Similarity
                } else if query.predicate != Predicate::True {
                    QueryClass::Filtered
                } else {
                    QueryClass::Listing
                }
            }
        }
    }

    /// Stable label for rendering and export.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::Listing => "listing",
            QueryClass::Filtered => "filtered",
            QueryClass::Similarity => "similarity",
            QueryClass::TopK => "top_k",
            QueryClass::Aggregate => "aggregate",
            QueryClass::CountPerLeaf => "count_per_leaf",
        }
    }

    /// Dense position in [`QueryClass::ALL`], for per-class arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Latency targets: a fixed one per query class plus a settable
/// end-to-end target for per-session gesture latency.
///
/// A recorded latency strictly above its target counts as a breach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloPolicy {
    session_target: Duration,
}

impl Default for SloPolicy {
    /// A 250 ms end-to-end gesture budget (the 4G link's transfer
    /// dominates it).
    fn default() -> SloPolicy {
        SloPolicy {
            session_target: Duration::from_millis(250),
        }
    }
}

impl SloPolicy {
    /// The target for a query class, tuned to the simulated fleet:
    /// interactive listings and rankings inside 50 ms of source time,
    /// the chemistry path at 100 ms, cached aggregates at 25 ms.
    pub fn target(&self, class: QueryClass) -> Duration {
        Duration::from_millis(match class {
            QueryClass::Similarity => 100,
            QueryClass::Aggregate => 25,
            _ => 50,
        })
    }

    /// Replace the session target.
    pub fn with_session_target(mut self, target: Duration) -> SloPolicy {
        self.session_target = target;
        self
    }
}

/// A closed time window of one scope, folded from its histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Window index: `start_ns / width`.
    pub index: u64,
    /// Virtual-clock nanoseconds at which the window opened.
    pub start_ns: u64,
    /// Virtual-clock nanoseconds at which the window closed
    /// (exclusive).
    pub end_ns: u64,
    /// Values recorded inside the window.
    pub count: u64,
    /// Interpolated median.
    pub p50: f64,
    /// Interpolated 95th percentile.
    pub p95: f64,
    /// Interpolated 99th percentile.
    pub p99: f64,
    /// Largest recorded value.
    pub max: u64,
}

/// One scope's window, kept whole under one lock: the live window's
/// histogram, the ring of closed summaries, the breach count and, for
/// a class scope, the whole-run histogram.
#[derive(Debug)]
struct ScopeWindow {
    /// Window index of the live histogram.
    epoch: u64,
    live: FixedHistogram,
    /// Last N closed summaries, oldest first.
    recent: VecDeque<WindowSummary>,
    /// Records strictly above the scope's target, over the whole run.
    breaches: u64,
    /// Every record of the run, all windows folded together (class
    /// scopes only).
    whole_run: Option<FixedHistogram>,
}

impl ScopeWindow {
    fn new(whole_run: bool) -> ScopeWindow {
        ScopeWindow {
            epoch: 0,
            live: FixedHistogram::latency_buckets(),
            recent: VecDeque::new(),
            breaches: 0,
            whole_run: whole_run.then(FixedHistogram::latency_buckets),
        }
    }
}

/// Rolling SLO windows for the whole fleet: one window per query class
/// (charged query latency against the class target) and one per
/// serving session (end-to-end gesture latency against the session
/// target).
///
/// Recording returns the window the record closed, if any, so an
/// exporter can emit exactly one rollover event per closed window.
#[derive(Debug)]
pub struct RollingWindows {
    width_ns: u64,
    ring: usize,
    policy: SloPolicy,
    per_class: [Mutex<ScopeWindow>; QueryClass::ALL.len()],
    per_session: Mutex<BTreeMap<u32, ScopeWindow>>,
}

impl RollingWindows {
    /// Rolling windows of `width` each, retaining `ring` closed
    /// summaries per scope, breached against `policy`.
    pub fn new(width: Duration, ring: usize, policy: SloPolicy) -> RollingWindows {
        RollingWindows {
            width_ns: nanos(width).max(1),
            ring: ring.max(1),
            policy,
            per_class: std::array::from_fn(|_| Mutex::new(ScopeWindow::new(true))),
            per_session: Mutex::new(BTreeMap::new()),
        }
    }

    /// Fold one query's charged latency into its class window,
    /// returning whether it breached the class target and the window
    /// the record closed, if any.
    pub fn record_query(
        &self,
        class: QueryClass,
        at_ns: u64,
        charged: Duration,
    ) -> (bool, Option<WindowSummary>) {
        let mut scope = self.per_class[class.index()].lock();
        self.fold(&mut scope, at_ns, charged, self.policy.target(class))
    }

    /// Fold one gesture's end-to-end latency into its session window,
    /// returning the window the record closed, if any.
    pub fn record_session(
        &self,
        session: u32,
        at_ns: u64,
        charged: Duration,
    ) -> Option<WindowSummary> {
        let mut sessions = self.per_session.lock();
        let scope = sessions
            .entry(session)
            .or_insert_with(|| ScopeWindow::new(false));
        self.fold(scope, at_ns, charged, self.policy.session_target)
            .1
    }

    /// Record `latency` at virtual time `at_ns` into `scope`, returning
    /// whether it breached `target`. If `at_ns` falls past the live
    /// window, that window closes first and its summary comes back too;
    /// a window nothing was recorded in closes silently, so an idle gap
    /// emits nothing.
    fn fold(
        &self,
        scope: &mut ScopeWindow,
        at_ns: u64,
        latency: Duration,
        target: Duration,
    ) -> (bool, Option<WindowSummary>) {
        let value = nanos(latency);
        let breach = latency > target;
        scope.breaches += u64::from(breach);
        if let Some(whole_run) = &scope.whole_run {
            whole_run.record(value);
        }
        let epoch = at_ns / self.width_ns;
        let mut closed = None;
        if epoch > scope.epoch {
            let live = std::mem::replace(&mut scope.live, FixedHistogram::latency_buckets());
            let s = live.snapshot();
            if s.count > 0 {
                let summary = WindowSummary {
                    index: scope.epoch,
                    start_ns: scope.epoch * self.width_ns,
                    end_ns: (scope.epoch + 1) * self.width_ns,
                    count: s.count,
                    p50: s.quantile(0.50),
                    p95: s.quantile(0.95),
                    p99: s.quantile(0.99),
                    max: s.max,
                };
                if scope.recent.len() == self.ring {
                    scope.recent.pop_front();
                }
                scope.recent.push_back(summary.clone());
                closed = Some(summary);
            }
            scope.epoch = epoch;
        }
        // Late records (at_ns before the live window, possible under
        // concurrent serving) fold into the live window rather than
        // reopening a closed one: windows only ever close forward.
        scope.live.record(value);
        (breach, closed)
    }

    /// Cumulative SLO breaches for a class.
    pub fn class_breaches(&self, class: QueryClass) -> u64 {
        self.per_class[class.index()].lock().breaches
    }

    /// Closed-window summaries retained for a class (oldest first).
    pub fn class_summaries(&self, class: QueryClass) -> Vec<WindowSummary> {
        let scope = self.per_class[class.index()].lock();
        scope.recent.iter().cloned().collect()
    }

    /// Whole-run charged-latency distribution for a class (all windows
    /// folded together).
    pub(crate) fn class_snapshot(&self, class: QueryClass) -> HistogramSnapshot {
        let scope = self.per_class[class.index()].lock();
        let Some(whole_run) = &scope.whole_run else {
            unreachable!("class scopes keep a whole-run histogram")
        };
        whole_run.snapshot()
    }

    /// Every session that recorded at least one gesture, sorted.
    pub fn session_ids(&self) -> Vec<u32> {
        self.per_session.lock().keys().copied().collect()
    }

    /// Cumulative SLO breaches for a session (0 if unseen).
    pub fn session_breaches(&self, session: u32) -> u64 {
        self.per_session
            .lock()
            .get(&session)
            .map_or(0, |s| s.breaches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Scope;
    use crate::parser::parse_query;

    fn class_of(text: &str) -> QueryClass {
        QueryClass::of(&parse_query(text).unwrap())
    }

    #[test]
    fn classes_follow_ast_shape() {
        assert_eq!(class_of("activities in tree"), QueryClass::Listing);
        assert_eq!(
            class_of("activities in tree where p_activity >= 6"),
            QueryClass::Filtered
        );
        assert_eq!(
            class_of("activities in tree similar to 'CCO' >= 0.4"),
            QueryClass::Similarity
        );
        assert_eq!(
            class_of("activities in tree top 5 by p_activity"),
            QueryClass::TopK
        );
        assert_eq!(
            class_of("aggregate max_p_activity in tree"),
            QueryClass::Aggregate
        );
        assert_eq!(class_of("count per leaf in tree"), QueryClass::CountPerLeaf);
        // A bare scoped listing classifies through the constructor too.
        assert_eq!(
            QueryClass::of(&Query::activities(Scope::Tree)),
            QueryClass::Listing
        );
    }

    #[test]
    fn class_indices_cover_all_classes_uniquely() {
        let indices = QueryClass::ALL.map(QueryClass::index);
        assert_eq!(indices, std::array::from_fn(|i| i), "dense, in `ALL` order");
    }

    #[test]
    fn breaches_count_strictly_above_target() {
        let w = RollingWindows::new(Duration::from_secs(1), 4, SloPolicy::default());
        let ms = Duration::from_millis;
        assert_eq!(SloPolicy::default().target(QueryClass::Listing), ms(50));
        let breached = [50, 51, 200].map(|t| w.record_query(QueryClass::Listing, 0, ms(t)).0);
        assert_eq!(breached, [false, true, true]);
        assert_eq!(w.class_breaches(QueryClass::Listing), 2);
        assert_eq!(w.class_breaches(QueryClass::Filtered), 0);
    }

    const S: u64 = 1_000_000_000;

    fn record(w: &RollingWindows, at_ns: u64, nanos: u64) -> Option<WindowSummary> {
        w.record_query(QueryClass::TopK, at_ns, Duration::from_nanos(nanos))
            .1
    }

    #[test]
    fn windows_roll_over_on_epoch_advance() {
        let w = RollingWindows::new(Duration::from_secs(1), 4, SloPolicy::default());
        assert_eq!(record(&w, 100, 5), None, "first window stays open");
        assert_eq!(record(&w, 200, 7), None);
        // Crossing into window 2 closes window 0; the gap window 1 was
        // never recorded into, so it emits nothing.
        let closed = record(&w, 2 * S + 1, 50).unwrap();
        assert_eq!(
            (
                closed.index,
                closed.start_ns,
                closed.end_ns,
                closed.count,
                closed.max
            ),
            (0, 0, S, 2, 7)
        );
        assert_eq!(w.class_summaries(QueryClass::TopK), [closed]);
        // The live window held only the post-rollover sample.
        assert_eq!(
            record(&w, 3 * S, 1).map(|s| (s.index, s.count)),
            Some((2, 1))
        );
        // Other classes are untouched, and the whole run keeps all four.
        assert!(w.class_summaries(QueryClass::Listing).is_empty());
        assert_eq!(w.class_snapshot(QueryClass::TopK).count, 4);
    }

    #[test]
    fn the_summary_ring_is_bounded() {
        let w = RollingWindows::new(Duration::from_secs(1), 2, SloPolicy::default());
        for i in 0..5u64 {
            record(&w, i * S + 1, i);
        }
        let kept: Vec<u64> = w
            .class_summaries(QueryClass::TopK)
            .iter()
            .map(|s| s.index)
            .collect();
        assert_eq!(kept, [2, 3], "ring keeps the last N summaries");
    }

    #[test]
    fn late_records_fold_forward() {
        let w = RollingWindows::new(Duration::from_secs(1), 4, SloPolicy::default());
        record(&w, 3 * S + 1, 1);
        // A record stamped before the live window cannot reopen a
        // closed one; it folds into the live window.
        assert_eq!(record(&w, 10, 2), None);
        assert!(w.class_summaries(QueryClass::TopK).is_empty());
        assert_eq!(
            record(&w, 4 * S, 3).map(|s| (s.index, s.count)),
            Some((3, 2))
        );
    }

    #[test]
    fn sessions_get_their_own_windows() {
        let policy = SloPolicy::default().with_session_target(Duration::from_millis(100));
        let w = RollingWindows::new(Duration::from_secs(1), 4, policy);
        w.record_session(3, 0, Duration::from_millis(300));
        w.record_session(7, 0, Duration::from_millis(50));
        assert_eq!(w.session_ids(), vec![3, 7]);
        assert_eq!(w.session_breaches(3), 1);
        assert_eq!(w.session_breaches(7), 0);
        assert_eq!(w.session_breaches(99), 0);
    }
}
