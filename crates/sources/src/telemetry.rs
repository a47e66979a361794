//! Lock-free telemetry primitives: counters and fixed-bucket
//! histograms.
//!
//! These are the building blocks of the query-path observability layer
//! (design decision D9). They live in the sources crate — the lowest
//! layer every other crate already depends on — so the scheduler in
//! `drugtree` and the query layer's `MetricsRegistry` record with the
//! same primitives.
//!
//! Both types are updated with single relaxed atomic operations: a
//! recording thread never takes a lock, so instrumenting the serving
//! hot path cannot introduce contention that the uninstrumented path
//! does not have. Reads (snapshots) are equally lock-free but only
//! loosely ordered against concurrent writers, which is the right
//! trade for monitoring data.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing lock-free counter.
///
/// Additions saturate at `u64::MAX`: a counter that has run for long
/// enough to exhaust 64 bits pins at the ceiling instead of silently
/// wrapping back to small values, so rates computed from two reads can
/// never go negative.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` to the counter, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        // A plain `fetch_add` wraps on overflow; retry with
        // `saturating_add` instead. The loop is contention-only — in
        // the common (non-saturated) case one CAS succeeds.
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            if current == u64::MAX {
                return;
            }
            match self.0.compare_exchange_weak(
                current,
                current.saturating_add(n),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Increment by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed bucket bounds, recorded lock-free.
///
/// `bounds[i]` is the *inclusive* upper bound of bucket `i`; one
/// implicit overflow bucket catches everything larger. The bounds are
/// fixed at construction, so recording is a binary search plus one
/// relaxed `fetch_add` — no allocation, no lock, no resizing.
#[derive(Debug)]
pub struct FixedHistogram {
    bounds: Box<[u64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl FixedHistogram {
    /// A histogram with the given inclusive upper bounds (sorted and
    /// deduplicated; an overflow bucket is added implicitly).
    pub fn new(bounds: &[u64]) -> FixedHistogram {
        let mut bounds: Vec<u64> = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        FixedHistogram {
            bounds: bounds.into_boxed_slice(),
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Default latency bounds in nanoseconds: 1 ms … 10 s in a
    /// 1-2-5 decade ladder, matching the virtual-clock latency range
    /// of the simulated sources.
    pub fn latency_buckets() -> FixedHistogram {
        const MS: u64 = 1_000_000;
        FixedHistogram::new(&[
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
        ])
    }

    /// Default size bounds (rows, keys, batch sizes): powers of two up
    /// to 4096.
    pub fn size_buckets() -> FixedHistogram {
        FixedHistogram::new(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
    }

    /// Record one value.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The configured inclusive upper bounds (without the implicit
    /// overflow bucket).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let bound = self.bounds.get(i).copied();
                (bound, b.load(Ordering::Relaxed))
            })
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`FixedHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(inclusive upper bound, count)` per bucket; the final bucket
    /// has no bound (overflow).
    pub buckets: Vec<(Option<u64>, u64)>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile (0.0–1.0): the upper bound of the first
    /// bucket whose cumulative count reaches `p * count`; the exact
    /// maximum for the overflow bucket. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (bound, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                return bound.unwrap_or(self.max);
            }
        }
        self.max
    }

    /// Interpolated quantile (0.0–1.0): locates the bucket holding the
    /// target rank like [`HistogramSnapshot::percentile`], then
    /// interpolates linearly between the bucket's lower and upper
    /// bounds by the rank's position inside it. The overflow bucket
    /// spans `(last bound, max]`, and the result is clamped to the
    /// recorded maximum so a sparse top bucket cannot report a value
    /// nothing ever reached. Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        let mut lower = 0u64;
        for (bound, n) in &self.buckets {
            let upper = bound.unwrap_or(self.max).max(lower);
            if *n > 0 && (cumulative + n) as f64 >= target {
                let within = (target - cumulative as f64) / *n as f64;
                let value = lower as f64 + (upper - lower) as f64 * within.clamp(0.0, 1.0);
                return value.min(self.max as f64);
            }
            cumulative += n;
            lower = upper;
        }
        self.max as f64
    }
}

/// A finalized time window folded from a [`FixedHistogram`]: one slot
/// of a [`WindowedHistogram`] after its interval closed.
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

impl WindowSummary {
    fn from_snapshot(index: u64, width_ns: u64, s: &HistogramSnapshot) -> WindowSummary {
        WindowSummary {
            index,
            start_ns: index * width_ns,
            end_ns: (index + 1) * width_ns,
            count: s.count,
            p50: s.quantile(0.50),
            p95: s.quantile(0.95),
            p99: s.quantile(0.99),
            max: s.max,
        }
    }
}

/// Time-windowed rolling aggregation: a live [`FixedHistogram`] for
/// the current fixed-width window plus a ring of the last N finalized
/// [`WindowSummary`]s.
///
/// Windows are aligned to the **virtual clock** (`window index =
/// timestamp / width`), so rollover points — and therefore every
/// summary — are deterministic under replay. Recording takes a short
/// mutex (unlike the bare histogram) because a rollover swaps the live
/// slot; the critical section is a few bucket additions.
#[derive(Debug)]
pub struct WindowedHistogram {
    width_ns: u64,
    ring: usize,
    bounds: Vec<u64>,
    state: Mutex<WindowState>,
}

#[derive(Debug)]
struct WindowState {
    /// Window index of the live slot.
    epoch: u64,
    /// Whether the live slot has recorded anything yet (a silent
    /// stream emits no empty summaries).
    live: FixedHistogram,
    recorded: bool,
    /// Last N finalized summaries, oldest first.
    recent: VecDeque<WindowSummary>,
}

impl WindowedHistogram {
    /// A windowed histogram with `width` per window, a ring of `ring`
    /// retained summaries, and the given bucket bounds for each slot.
    pub fn new(width: Duration, ring: usize, bounds: &[u64]) -> WindowedHistogram {
        let width_ns = u64::try_from(width.as_nanos()).unwrap_or(u64::MAX).max(1);
        WindowedHistogram {
            width_ns,
            ring: ring.max(1),
            bounds: bounds.to_vec(),
            state: Mutex::new(WindowState {
                epoch: 0,
                live: FixedHistogram::new(bounds),
                recorded: false,
                recent: VecDeque::new(),
            }),
        }
    }

    /// Window width in nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Record `value` at virtual time `at_ns`. If `at_ns` falls past
    /// the live window, that window is finalized first; every summary
    /// closed by this call is returned (normally zero or one, more
    /// after an idle gap) so callers can export rollover events.
    pub fn record(&self, at_ns: u64, value: u64) -> Vec<WindowSummary> {
        let epoch = at_ns / self.width_ns;
        let mut state = self.state.lock();
        let mut closed = Vec::new();
        if epoch > state.epoch {
            if state.recorded {
                let summary = WindowSummary::from_snapshot(
                    state.epoch,
                    self.width_ns,
                    &state.live.snapshot(),
                );
                closed.push(summary.clone());
                if state.recent.len() == self.ring {
                    state.recent.pop_front();
                }
                state.recent.push_back(summary);
                state.live = FixedHistogram::new(&self.bounds);
                state.recorded = false;
            }
            state.epoch = epoch;
        }
        // Late records (at_ns before the live window, possible under
        // concurrent serving) fold into the live slot rather than
        // reopening a closed one: windows only ever close forward.
        state.live.record(value);
        state.recorded = true;
        closed
    }

    /// The last N finalized summaries, oldest first (the live window
    /// is not included until it closes).
    pub fn summaries(&self) -> Vec<WindowSummary> {
        self.state.lock().recent.iter().cloned().collect()
    }

    /// Snapshot of the live (not yet closed) window.
    pub fn live_snapshot(&self) -> HistogramSnapshot {
        self.state.lock().live.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = FixedHistogram::new(&[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5 + 10 + 11 + 100 + 5000);
        assert_eq!(s.max, 5000);
        // Inclusive upper bounds: 10 lands in the first bucket.
        assert_eq!(s.buckets[0], (Some(10), 2));
        assert_eq!(s.buckets[1], (Some(100), 2));
        assert_eq!(s.buckets[2], (Some(1000), 0));
        assert_eq!(s.buckets[3], (None, 1), "overflow bucket");
        assert!((s.mean() - 1025.2).abs() < 1e-9);
    }

    #[test]
    fn percentile_walks_cumulative_counts() {
        let h = FixedHistogram::new(&[10, 100, 1000]);
        for _ in 0..9 {
            h.record(10);
        }
        h.record(50_000);
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), 10);
        assert_eq!(s.percentile(0.9), 10);
        // The overflow bucket reports the exact max.
        assert_eq!(s.percentile(1.0), 50_000);
        let empty = FixedHistogram::new(&[1]).snapshot();
        assert_eq!(empty.percentile(0.5), 0);
    }

    #[test]
    fn duration_recording_uses_nanos() {
        let h = FixedHistogram::latency_buckets();
        h.record_duration(Duration::from_millis(3));
        let s = h.snapshot();
        assert_eq!(s.sum, 3_000_000);
        // 3 ms lands in the 5 ms bucket.
        assert_eq!(s.buckets[2], (Some(5_000_000), 1));
    }

    #[test]
    fn unsorted_bounds_are_normalized() {
        let h = FixedHistogram::new(&[100, 10, 100]);
        h.record(10);
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), 3);
        assert_eq!(s.buckets[0], (Some(10), 1));
    }

    #[test]
    fn counter_saturates_at_max() {
        let c = Counter::new();
        c.add(u64::MAX - 3);
        c.add(10);
        assert_eq!(c.get(), u64::MAX, "add past the ceiling pins at MAX");
        c.incr();
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX, "a saturated counter never wraps");
    }

    #[test]
    fn quantile_empty_window_is_zero() {
        let s = FixedHistogram::new(&[10, 100]).snapshot();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.quantile(1.0), 0.0);
    }

    #[test]
    fn quantile_single_sample_clamps_to_max() {
        let h = FixedHistogram::new(&[10, 100]);
        h.record(42);
        let s = h.snapshot();
        // One sample: every quantile is that sample, clamped to max
        // rather than interpolated up to the bucket's 100 bound.
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(s.quantile(q), 42.0, "q={q}");
        }
    }

    #[test]
    fn quantile_interpolates_within_one_bucket() {
        let h = FixedHistogram::new(&[100, 200]);
        // Four samples, all in the (100, 200] bucket.
        for v in [110, 150, 160, 200] {
            h.record(v);
        }
        let s = h.snapshot();
        // Ranks interpolate linearly across the bucket span 100..200:
        // q=0.5 → rank 2 of 4 → 100 + 200*(2/4)/2 = 150.
        assert_eq!(s.quantile(0.5), 150.0);
        assert_eq!(s.quantile(0.25), 125.0);
        assert_eq!(s.quantile(1.0), 200.0);
        // Monotone in q even at the clamp edge.
        assert!(s.quantile(0.99) <= s.quantile(1.0));
    }

    #[test]
    fn quantile_overflow_bucket_uses_recorded_max() {
        let h = FixedHistogram::new(&[10]);
        h.record(5);
        h.record(90);
        h.record(100);
        let s = h.snapshot();
        // The overflow bucket spans (10, max]; the top quantile never
        // exceeds what was actually recorded.
        assert_eq!(s.quantile(1.0), 100.0);
        assert!(s.quantile(0.95) <= 100.0);
        assert!(s.quantile(0.6) > 10.0);
    }

    #[test]
    fn windowed_histogram_rolls_over_on_epoch_advance() {
        const S: u64 = 1_000_000_000;
        let w = WindowedHistogram::new(Duration::from_secs(1), 4, &[10, 100]);
        assert!(w.record(100, 5).is_empty(), "first window stays open");
        assert!(w.record(200, 7).is_empty());
        // Crossing into window 2 closes window 0; the gap window 1 was
        // never recorded into, so exactly one summary comes back.
        let closed = w.record(2 * S + 1, 50);
        assert_eq!(closed.len(), 1);
        let s = &closed[0];
        assert_eq!(s.index, 0);
        assert_eq!(s.start_ns, 0);
        assert_eq!(s.end_ns, S);
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 7);
        assert_eq!(w.summaries(), closed);
        // The live window holds only the post-rollover sample.
        assert_eq!(w.live_snapshot().count, 1);
    }

    #[test]
    fn windowed_histogram_ring_is_bounded() {
        const S: u64 = 1_000_000_000;
        let w = WindowedHistogram::new(Duration::from_secs(1), 2, &[10]);
        for i in 0..5u64 {
            w.record(i * S + 1, i);
        }
        let kept = w.summaries();
        assert_eq!(kept.len(), 2, "ring keeps the last N summaries");
        assert_eq!(kept[0].index, 2);
        assert_eq!(kept[1].index, 3);
    }

    #[test]
    fn windowed_histogram_late_records_fold_forward() {
        const S: u64 = 1_000_000_000;
        let w = WindowedHistogram::new(Duration::from_secs(1), 4, &[10]);
        w.record(3 * S + 1, 1);
        // A record stamped before the live window cannot reopen a
        // closed slot; it folds into the live one.
        assert!(w.record(10, 2).is_empty());
        assert_eq!(w.live_snapshot().count, 2);
        assert!(w.summaries().is_empty());
    }
}
