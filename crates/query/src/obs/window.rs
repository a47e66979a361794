//! Rolling SLO windows: time-windowed latency aggregation per query
//! class and per serving session, with breach counting against
//! per-class targets.
//!
//! Windows live on the **virtual clock** ([`WindowedHistogram`] keys
//! slots by `timestamp / width`), so window boundaries — and every
//! exported rollover event — are deterministic under replay. Each
//! closed window folds into a [`WindowSummary`] (count / p50 / p95 /
//! p99 / max from interpolated histogram quantiles); a bounded ring
//! retains the most recent N summaries per scope.

use crate::ast::{Query, QueryKind};
use drugtree_sources::sync::RwLock;
use drugtree_sources::telemetry::{Counter, FixedHistogram};
pub use drugtree_sources::telemetry::{WindowSummary, WindowedHistogram};
use drugtree_store::expr::Predicate;
use std::collections::BTreeMap;
use std::sync::Arc;
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

    pub(crate) fn index(self) -> usize {
        match self {
            QueryClass::Listing => 0,
            QueryClass::Filtered => 1,
            QueryClass::Similarity => 2,
            QueryClass::TopK => 3,
            QueryClass::Aggregate => 4,
            QueryClass::CountPerLeaf => 5,
        }
    }
}

/// Latency targets: one per query class plus one end-to-end target
/// for per-session gesture latency.
///
/// A recorded latency strictly above its target counts as a breach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloPolicy {
    class_targets: [Duration; QueryClass::ALL.len()],
    session_target: Duration,
}

impl Default for SloPolicy {
    /// Targets tuned to the simulated fleet: interactive listings and
    /// rankings inside 50 ms of source time, the chemistry path at
    /// 100 ms, cached aggregates at 25 ms, and a 250 ms end-to-end
    /// gesture budget (the 4G link's transfer dominates it).
    fn default() -> SloPolicy {
        let ms = Duration::from_millis;
        let mut class_targets = [ms(50); QueryClass::ALL.len()];
        class_targets[QueryClass::Similarity.index()] = ms(100);
        class_targets[QueryClass::Aggregate.index()] = ms(25);
        SloPolicy {
            class_targets,
            session_target: ms(250),
        }
    }
}

impl SloPolicy {
    /// The target for a query class.
    pub fn target(&self, class: QueryClass) -> Duration {
        self.class_targets[class.index()]
    }

    /// The end-to-end per-gesture session target.
    pub fn session_target(&self) -> Duration {
        self.session_target
    }

    /// Replace one class target.
    pub fn with_target(mut self, class: QueryClass, target: Duration) -> SloPolicy {
        self.class_targets[class.index()] = target;
        self
    }

    /// Replace the session target.
    pub fn with_session_target(mut self, target: Duration) -> SloPolicy {
        self.session_target = target;
        self
    }
}

/// One scope's rolling window plus its cumulative breach counter.
#[derive(Debug)]
struct ScopeWindow {
    window: WindowedHistogram,
    breaches: Counter,
}

impl ScopeWindow {
    fn new(width: Duration, ring: usize) -> ScopeWindow {
        ScopeWindow {
            window: WindowedHistogram::new(width, ring, latency_bounds()),
            breaches: Counter::new(),
        }
    }

    fn record(&self, at_ns: u64, latency: Duration, target: Duration) -> Vec<WindowSummary> {
        if latency > target {
            self.breaches.incr();
        }
        self.window.record(at_ns, nanos(latency))
    }
}

fn latency_bounds() -> &'static [u64] {
    // The 1-2-5 decade ladder of `FixedHistogram::latency_buckets`,
    // shared so window quantiles and cumulative quantiles agree.
    const MS: u64 = 1_000_000;
    const BOUNDS: [u64; 13] = [
        MS,
        2 * MS,
        5 * MS,
        10 * MS,
        20 * MS,
        50 * MS,
        100 * MS,
        200 * MS,
        500 * MS,
        1_000 * MS,
        2_000 * MS,
        5_000 * MS,
        10_000 * MS,
    ];
    &BOUNDS
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Rolling SLO windows for the whole fleet: one windowed ring per
/// query class (charged query latency against the class target) and
/// one per serving session (end-to-end gesture latency against the
/// session target).
///
/// Recording returns the windows each record closed, so an exporter
/// can emit exactly one rollover event per finalized window.
#[derive(Debug)]
pub struct RollingWindows {
    width: Duration,
    ring: usize,
    policy: SloPolicy,
    per_class: [ScopeWindow; QueryClass::ALL.len()],
    per_session: RwLock<BTreeMap<u32, Arc<ScopeWindow>>>,
}

impl RollingWindows {
    /// Rolling windows of `width` each, retaining `ring` closed
    /// summaries per scope, breached against `policy`.
    pub fn new(width: Duration, ring: usize, policy: SloPolicy) -> RollingWindows {
        RollingWindows {
            per_class: std::array::from_fn(|_| ScopeWindow::new(width, ring)),
            per_session: RwLock::new(BTreeMap::new()),
            width,
            ring,
            policy,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Window width.
    pub fn width(&self) -> Duration {
        self.width
    }

    /// Fold one query's charged latency into its class window,
    /// returning any windows the record closed.
    pub fn record_query(
        &self,
        class: QueryClass,
        at_ns: u64,
        charged: Duration,
    ) -> Vec<WindowSummary> {
        self.per_class[class.index()].record(at_ns, charged, self.policy.target(class))
    }

    /// Fold one gesture's end-to-end latency into its session window,
    /// returning any windows the record closed.
    pub fn record_session(
        &self,
        session: u32,
        at_ns: u64,
        charged: Duration,
    ) -> Vec<WindowSummary> {
        // Bind the fast-path lookup first: an `if let` on the read
        // guard would keep it alive into the else branch and self-
        // deadlock against the write lock below.
        let existing = self.per_session.read().get(&session).map(Arc::clone);
        let slot = match existing {
            Some(slot) => slot,
            None => Arc::clone(
                self.per_session
                    .write()
                    .entry(session)
                    .or_insert_with(|| Arc::new(ScopeWindow::new(self.width, self.ring))),
            ),
        };
        slot.record(at_ns, charged, self.policy.session_target)
    }

    /// Cumulative SLO breaches for a class.
    pub fn class_breaches(&self, class: QueryClass) -> u64 {
        self.per_class[class.index()].breaches.get()
    }

    /// Closed-window summaries retained for a class (oldest first).
    pub fn class_summaries(&self, class: QueryClass) -> Vec<WindowSummary> {
        self.per_class[class.index()].window.summaries()
    }

    /// Every session that recorded at least one gesture, sorted.
    pub fn session_ids(&self) -> Vec<u32> {
        self.per_session.read().keys().copied().collect()
    }

    /// Cumulative SLO breaches for a session (0 if unseen).
    pub fn session_breaches(&self, session: u32) -> u64 {
        self.per_session
            .read()
            .get(&session)
            .map_or(0, |s| s.breaches.get())
    }

    /// A cumulative histogram sharing the window bucket layout
    /// (helper for observers that also keep whole-run distributions).
    pub(crate) fn cumulative_histogram() -> FixedHistogram {
        FixedHistogram::new(latency_bounds())
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
    fn breaches_count_strictly_above_target() {
        let policy =
            SloPolicy::default().with_target(QueryClass::Listing, Duration::from_millis(10));
        let w = RollingWindows::new(Duration::from_secs(1), 4, policy);
        let ms = Duration::from_millis;
        w.record_query(QueryClass::Listing, 0, ms(10));
        w.record_query(QueryClass::Listing, 1, ms(11));
        w.record_query(QueryClass::Listing, 2, ms(200));
        assert_eq!(w.class_breaches(QueryClass::Listing), 2);
        assert_eq!(w.class_breaches(QueryClass::Filtered), 0);
    }

    #[test]
    fn rollover_summaries_come_back_from_record() {
        const S: u64 = 1_000_000_000;
        let w = RollingWindows::new(Duration::from_secs(1), 4, SloPolicy::default());
        assert!(w
            .record_query(QueryClass::TopK, 10, Duration::from_millis(5))
            .is_empty());
        let closed = w.record_query(QueryClass::TopK, S + 10, Duration::from_millis(5));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].count, 1);
        assert_eq!(w.class_summaries(QueryClass::TopK), closed);
        // Other classes are untouched.
        assert!(w.class_summaries(QueryClass::Listing).is_empty());
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
