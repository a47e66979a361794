#![warn(missing_docs)]
// Experiment-harness crate: every run is over self-generated synthetic
// data, so `expect` marks harness bugs, not recoverable conditions.
// The workspace-wide unwrap/expect denial is relaxed for this crate.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Experiment harness reproducing the evaluation (DESIGN.md §5).
//!
//! Each `eN` module regenerates one reconstructed table/figure. All
//! latencies are **virtual-clock** measurements (deterministic,
//! machine-independent); wall-clock CPU costs of the kernels are
//! measured separately by `benchmark/`'s layer probes.

pub mod e10_browsing;
pub mod e11_serving;
pub mod e13_observability;
pub mod e14_fleet_obs;
pub mod e15_kernels;
pub mod e16_phases;
pub mod e17_adaptive;
pub mod e1_query_classes;
pub mod e2_scalability;
pub mod e3_cache;
pub mod e4_ablation;
pub mod e5_network;
pub mod e6_federation;
pub mod e7_matview;
pub mod e8_lod;
pub mod table;

use std::time::Duration;

/// Mean of a duration sample.
pub fn mean(samples: &[Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.iter().sum::<Duration>() / samples.len() as u32
}

/// Percentile (0.0–1.0) of a sample; sorts a copy.
pub fn percentile(samples: &[Duration], p: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Render a duration compactly for tables.
pub fn fmt_ms(d: Duration) -> String {
    if d >= Duration::from_secs(10) {
        format!("{:.1}s", d.as_secs_f64())
    } else {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    }
}

/// `quick = true` shrinks every experiment for CI/tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Reduced sizes for tests.
    pub quick: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        let xs = vec![
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
        ];
        assert_eq!(mean(&xs), Duration::from_millis(20));
        assert_eq!(percentile(&xs, 0.0), Duration::from_millis(10));
        assert_eq!(percentile(&xs, 1.0), Duration::from_millis(30));
        assert_eq!(percentile(&xs, 0.5), Duration::from_millis(20));
        assert_eq!(mean(&[]), Duration::ZERO);
        assert_eq!(percentile(&[], 0.9), Duration::ZERO);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ms(Duration::from_millis(1500)), "1500.0ms");
        assert_eq!(fmt_ms(Duration::from_secs(12)), "12.0s");
    }
}
