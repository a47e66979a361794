//! Per-source latency models.
//!
//! Each simulated request costs one round-trip plus a per-row transfer
//! charge, with deterministic pseudo-random jitter. The model captures
//! exactly the quantities the DrugTree optimizations act on: *number of
//! round-trips* (batching, caching, pruning) and *rows shipped*
//! (pushdown, projection).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Latency parameters of one simulated source.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Fixed round-trip time charged per request.
    pub base_rtt: Duration,
    /// Transfer cost charged per returned row.
    pub per_row: Duration,
    /// Server-side evaluation cost charged per row *scanned* (cheaper
    /// than shipping, but not free — pushdown is not magic).
    pub per_row_scanned: Duration,
    /// Jitter amplitude as a fraction of the deterministic cost
    /// (0.0 = none, 0.2 = ±20%).
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl LatencyModel {
    /// A typical 2013-era public web API: ~120 ms RTT, 40 µs/row.
    pub fn web_api(seed: u64) -> LatencyModel {
        LatencyModel {
            base_rtt: Duration::from_millis(120),
            per_row: Duration::from_micros(40),
            per_row_scanned: Duration::from_micros(2),
            jitter: 0.15,
            seed,
        }
    }

    /// A fast intranet service: 5 ms RTT.
    pub fn intranet(seed: u64) -> LatencyModel {
        LatencyModel {
            base_rtt: Duration::from_millis(5),
            per_row: Duration::from_micros(10),
            per_row_scanned: Duration::from_micros(1),
            jitter: 0.05,
            seed,
        }
    }

    /// A zero-latency model (useful to isolate CPU costs in tests).
    pub fn free() -> LatencyModel {
        LatencyModel {
            base_rtt: Duration::ZERO,
            per_row: Duration::ZERO,
            per_row_scanned: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Cost of one request that scanned `rows_scanned` rows server-side
    /// and returned `rows_returned` of them. `request_index` drives the
    /// deterministic jitter stream (pass a per-source counter).
    pub fn request_cost(
        &self,
        rows_scanned: usize,
        rows_returned: usize,
        request_index: u64,
    ) -> Duration {
        let base = self.base_rtt
            + self.per_row * rows_returned as u32
            + self.per_row_scanned * rows_scanned as u32;
        if self.jitter == 0.0 {
            return base;
        }
        // splitmix64 over (seed, request_index) -> uniform in [-1, 1).
        let h = splitmix64(self.seed ^ request_index.wrapping_mul(0x9E3779B97F4A7C15));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let factor = 1.0 + self.jitter * (2.0 * unit - 1.0);
        base.mul_f64(factor.max(0.0))
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A per-source monotone request counter feeding the jitter stream.
#[derive(Debug, Default)]
pub struct RequestCounter(AtomicU64);

impl RequestCounter {
    /// Next request index.
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Requests issued so far.
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_components_add_up() {
        let m = LatencyModel {
            base_rtt: Duration::from_millis(100),
            per_row: Duration::from_millis(1),
            per_row_scanned: Duration::from_micros(100),
            jitter: 0.0,
            seed: 0,
        };
        // 100ms + 10*1ms + 50*0.1ms = 115ms.
        assert_eq!(m.request_cost(50, 10, 0), Duration::from_millis(115));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let m = LatencyModel::web_api(42);
        let a = m.request_cost(100, 20, 7);
        let b = m.request_cost(100, 20, 7);
        assert_eq!(a, b, "same request index -> same jitter");
        let c = m.request_cost(100, 20, 8);
        assert_ne!(a, c, "different request index -> different jitter");

        let base = LatencyModel { jitter: 0.0, ..m }.request_cost(100, 20, 7);
        for i in 0..200 {
            let jittered = m.request_cost(100, 20, i);
            let ratio = jittered.as_secs_f64() / base.as_secs_f64();
            assert!(
                (0.849..=1.151).contains(&ratio),
                "ratio {ratio} out of ±15%"
            );
        }
    }

    #[test]
    fn free_model_is_zero() {
        assert_eq!(
            LatencyModel::free().request_cost(1000, 1000, 3),
            Duration::ZERO
        );
    }

    #[test]
    fn fewer_round_trips_cheaper_than_many() {
        // The core economics of batching: 1 batched request for 50 keys
        // beats 50 singleton requests.
        let m = LatencyModel::web_api(1);
        let batched = m.request_cost(50, 50, 0);
        let singles: Duration = (0..50).map(|i| m.request_cost(1, 1, i)).sum();
        assert!(batched < singles / 10);
    }

    #[test]
    fn request_counter() {
        let c = RequestCounter::default();
        assert_eq!(c.next(), 0);
        assert_eq!(c.next(), 1);
        assert_eq!(c.count(), 2);
    }
}
