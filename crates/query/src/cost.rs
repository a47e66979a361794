//! The columnar-scan cost model: the local-compute term a columnar
//! access is priced and charged at.

use std::time::Duration;

/// Convert a priced cost in seconds to a `Duration`, clamping negative or
/// non-finite values to zero (`Duration::from_secs_f64` panics on those).
pub fn secs_to_duration(secs: f64) -> Duration {
    if secs.is_finite() && secs > 0.0 {
        Duration::from_secs_f64(secs)
    } else {
        Duration::ZERO
    }
}

/// Fixed setup cost of one columnar scan: binary-searching the
/// interval's row range, allocating the selection bitmap (the pushdown
/// was bound at plan time). Microseconds, not milliseconds — there is
/// no round-trip.
pub const COLUMNAR_SETUP_SECS: f64 = 2e-6;

/// Modeled per-row cost of the vectorized kernels: one branch-light
/// pass over a contiguous typed buffer per predicate leaf, roughly a
/// nanosecond per row on commodity cores (experiment E15 measures the
/// real throughput).
pub const COLUMNAR_PER_ROW_SECS: f64 = 1e-9;

/// Priced cost (seconds) of scanning `rows` interval rows with the
/// columnar kernels.
pub fn columnar_scan_secs(rows: u64) -> f64 {
    COLUMNAR_SETUP_SECS + COLUMNAR_PER_ROW_SECS * rows as f64
}

/// [`columnar_scan_secs`] as a virtual-clock `Duration`.
pub fn columnar_scan_cost(rows: u64) -> Duration {
    secs_to_duration(columnar_scan_secs(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_to_duration_clamps_bad_values() {
        assert_eq!(secs_to_duration(-1.0), Duration::ZERO);
        assert_eq!(secs_to_duration(f64::NAN), Duration::ZERO);
        assert_eq!(secs_to_duration(f64::INFINITY), Duration::ZERO);
        assert_eq!(secs_to_duration(0.5), Duration::from_millis(500));
    }
}
