//! Lock-free telemetry primitives: a counter and the system's one
//! recording histogram.
//!
//! These are the building blocks of the query-path observability layer
//! (design decision D9). They live in the sources crate — the lowest
//! layer every other crate already depends on — so the scheduler in
//! `drugtree`, the query layer's `MetricsRegistry` and its SLO windows
//! record with the same primitives: one bucket ladder
//! ([`FixedHistogram::latency_buckets`]) and one quantile
//! ([`HistogramSnapshot::quantile`]).
//!
//! Both types are updated with single relaxed atomic operations: a
//! recording thread never takes a lock, so instrumenting the serving
//! hot path cannot introduce contention that the uninstrumented path
//! does not have. Reads (snapshots) are equally lock-free but only
//! loosely ordered against concurrent writers, which is the right
//! trade for monitoring data.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A duration as nanoseconds, the unit every recorder stores,
/// saturating at `u64::MAX`.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

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
    /// A histogram with the given inclusive upper bounds, ascending
    /// (an overflow bucket is added implicitly). Private: the one ladder
    /// is [`FixedHistogram::latency_buckets`].
    fn new(bounds: &[u64]) -> FixedHistogram {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        FixedHistogram {
            bounds: bounds.into(),
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
        self.record(nanos(d));
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

    /// Interpolated quantile (0.0–1.0): locates the first bucket whose
    /// cumulative count reaches the target rank `q * count`, then
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
    fn duration_recording_uses_nanos() {
        let h = FixedHistogram::latency_buckets();
        h.record_duration(Duration::from_millis(3));
        let s = h.snapshot();
        assert_eq!(s.sum, 3_000_000);
        // 3 ms lands in the 5 ms bucket.
        assert_eq!(s.buckets[2], (Some(5_000_000), 1));
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
}
