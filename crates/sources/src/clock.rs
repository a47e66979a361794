//! Deterministic virtual clock.
//!
//! All simulated latencies (source round-trips, mobile network
//! transfers) are *charged* to a shared virtual clock instead of being
//! slept. This keeps the whole benchmark suite deterministic and lets
//! wall-clock benchmarks (`benchmark/`) measure pure CPU cost while the
//! experiment harness reports virtual end-to-end latency.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A point on the virtual timeline, in nanoseconds since session start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualInstant(pub u64);

impl VirtualInstant {
    /// Duration elapsed since an earlier instant (saturating).
    pub fn since(self, earlier: VirtualInstant) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for VirtualInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:?}", Duration::from_nanos(self.0))
    }
}

/// A shared, thread-safe virtual clock.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A clock at t=0, wrapped for sharing.
    pub fn new() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::default())
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualInstant {
        VirtualInstant(self.nanos.load(Ordering::SeqCst))
    }

    /// Advance the clock by a duration, returning the new time.
    pub fn advance(&self, d: Duration) -> VirtualInstant {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        VirtualInstant(self.nanos.fetch_add(nanos, Ordering::SeqCst) + nanos)
    }
}

/// The one sanctioned wall-clock read in the workspace.
///
/// Everything latency-related must charge the [`VirtualClock`] so runs
/// stay deterministic; the only legitimate uses of real time are
/// harness-side progress reports (how long did the *harness* take).
/// Those call this instead of `Instant::now()` directly, and the
/// `tools/lint.rs` clock lint rejects raw `Instant::now()` /
/// `SystemTime::now()` anywhere outside this file.
pub fn wall_now() -> std::time::Instant {
    std::time::Instant::now()
}

/// Combine the costs of requests issued *concurrently*: completion is
/// the maximum individual cost (all start together), not the sum.
pub fn parallel_cost(costs: impl IntoIterator<Item = Duration>) -> Duration {
    costs.into_iter().max().unwrap_or(Duration::ZERO)
}

/// Combine the costs of requests issued *sequentially*.
pub fn sequential_cost(costs: impl IntoIterator<Item = Duration>) -> Duration {
    costs.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), VirtualInstant(0));
        clock.advance(Duration::from_millis(5));
        clock.advance(Duration::from_micros(1));
        assert_eq!(clock.now(), VirtualInstant(5_001_000));
    }

    #[test]
    fn since_saturates() {
        let a = VirtualInstant(100);
        let b = VirtualInstant(40);
        assert_eq!(a.since(b), Duration::from_nanos(60));
        assert_eq!(b.since(a), Duration::ZERO);
    }

    #[test]
    fn parallel_vs_sequential() {
        let costs = [
            Duration::from_millis(10),
            Duration::from_millis(30),
            Duration::from_millis(20),
        ];
        assert_eq!(parallel_cost(costs), Duration::from_millis(30));
        assert_eq!(sequential_cost(costs), Duration::from_millis(60));
        assert_eq!(parallel_cost([]), Duration::ZERO);
        assert_eq!(sequential_cost([]), Duration::ZERO);
    }

    #[test]
    fn concurrent_advance_is_consistent() {
        let clock = VirtualClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let clock = &clock;
                s.spawn(move || {
                    for _ in 0..1000 {
                        clock.advance(Duration::from_nanos(1));
                    }
                });
            }
        });
        assert_eq!(clock.now(), VirtualInstant(4000));
    }
}
