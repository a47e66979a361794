//! Calibrated cost model for the cost-based planner.
//!
//! The planner prices each enumerated plan alternative with per-source
//! [`CostParams`] (a round-trip setup cost plus a per-row transfer cost, both
//! in seconds).  Parameters start from a deliberately *generic* prior — the
//! planner does not trust a source's self-declared
//! [`LatencyModel`](drugtree_sources::latency::LatencyModel) — and are refined
//! online by a calibration feedback loop: after every direct fetch the
//! executor calls [`CostModel::observe`] with the observed virtual latency,
//! and the model refits the source's parameters by least squares over
//! `(requests, rows) -> seconds`.
//!
//! The model also tracks estimate-vs-actual relative error so experiment E12
//! (and the CI calibration-regression check) can report mean relative
//! estimation error before and after calibration.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Duration;

/// Minimum observations for a source before its fitted parameters replace the
/// prior.  Below this the scalar fallback (prior scaled by observed/estimated
/// totals) is used once at least one observation exists.
const MIN_OBSERVATIONS: u64 = 3;

/// Per-source pricing parameters, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Fixed cost charged per request round trip.
    pub rtt_secs: f64,
    /// Incremental cost charged per returned row.
    pub per_row_secs: f64,
}

impl CostParams {
    /// The uncalibrated prior: a generic mid-range remote (50 ms round trip,
    /// 20 µs per row — between the `web_api` and `intranet` latency presets).
    pub fn prior() -> CostParams {
        CostParams {
            rtt_secs: 0.050,
            per_row_secs: 20e-6,
        }
    }

    /// Price an access that issues `effective_requests` sequential round
    /// trips transferring `rows` rows in total.  Concurrent dispatch is
    /// modelled as a single effective round trip.
    pub fn price(&self, effective_requests: u64, rows: u64) -> f64 {
        self.rtt_secs * effective_requests as f64 + self.per_row_secs * rows as f64
    }
}

/// Running least-squares state for one source.
///
/// Accumulates normal-equation sums for the model `y = b1*x1 + b2*x2` with
/// `x1` = effective requests, `x2` = rows returned, `y` = observed seconds.
#[derive(Debug, Clone, Copy, Default)]
struct SourceFit {
    n: u64,
    s11: f64,
    s12: f64,
    s22: f64,
    b1: f64,
    b2: f64,
    sum_obs: f64,
    sum_prior: f64,
}

impl SourceFit {
    fn observe(&mut self, x1: f64, x2: f64, y: f64, prior_estimate: f64) {
        self.n += 1;
        self.s11 += x1 * x1;
        self.s12 += x1 * x2;
        self.s22 += x2 * x2;
        self.b1 += x1 * y;
        self.b2 += x2 * y;
        self.sum_obs += y;
        self.sum_prior += prior_estimate;
    }

    /// Solve the 2x2 normal equations; fall back to scaling the prior by the
    /// ratio of observed to prior-estimated totals when the system is
    /// degenerate (e.g. every observation had identical shape).
    fn params(&self, prior: CostParams) -> CostParams {
        if self.n == 0 {
            return prior;
        }
        if self.n >= MIN_OBSERVATIONS {
            let det = self.s11 * self.s22 - self.s12 * self.s12;
            if det.abs() > 1e-12 {
                let rtt = (self.b1 * self.s22 - self.b2 * self.s12) / det;
                let per_row = (self.b2 * self.s11 - self.b1 * self.s12) / det;
                if rtt.is_finite() && per_row.is_finite() && rtt >= 0.0 && per_row >= 0.0 {
                    return CostParams {
                        rtt_secs: rtt,
                        per_row_secs: per_row,
                    };
                }
            }
        }
        // Scalar fallback: keep the prior's shape, match the observed volume.
        if self.sum_prior > 0.0 && self.sum_obs.is_finite() {
            let scale = (self.sum_obs / self.sum_prior).max(0.0);
            if scale.is_finite() {
                return CostParams {
                    rtt_secs: prior.rtt_secs * scale,
                    per_row_secs: prior.per_row_secs * scale,
                };
            }
        }
        prior
    }
}

#[derive(Debug, Default)]
struct CostState {
    sources: BTreeMap<String, SourceFit>,
    err_sum: f64,
    err_count: u64,
    learning: bool,
}

/// Calibration summary for one source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceCalibration {
    /// Source name.
    pub source: String,
    /// Number of fetches observed against this source.
    pub observations: u64,
    /// Parameters the planner currently uses for this source.
    pub params: CostParams,
}

/// Snapshot of the calibration state: per-source fitted parameters plus the
/// estimate-vs-actual error tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Total fetch observations with a positive observed latency.
    pub observations: u64,
    /// Mean of `|estimated - observed| / observed` over those observations.
    pub mean_rel_error: f64,
    /// Per-source calibration state, sorted by source name.
    pub sources: Vec<SourceCalibration>,
}

/// Thread-safe calibrated cost model shared between planner and executor.
#[derive(Debug)]
pub struct CostModel {
    prior: CostParams,
    inner: Mutex<CostState>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new()
    }
}

impl CostModel {
    /// A fresh model: every source priced at [`CostParams::prior`], learning
    /// enabled.
    pub fn new() -> CostModel {
        CostModel {
            prior: CostParams::prior(),
            inner: Mutex::new(CostState {
                learning: true,
                ..CostState::default()
            }),
        }
    }

    /// Enable or disable parameter refitting.  Error tracking continues
    /// either way, so an experiment can measure prior-parameter estimation
    /// error without the model improving mid-measurement.
    pub fn set_learning(&self, learning: bool) {
        self.lock().learning = learning;
    }

    /// Current pricing parameters for `source` (the prior until the source
    /// has been observed).
    pub fn params_for(&self, source: &str) -> CostParams {
        let state = self.lock();
        state
            .sources
            .get(source)
            .map_or(self.prior, |fit| fit.params(self.prior))
    }

    /// Record one executed fetch: the dispatch shape (`effective_requests`
    /// round trips, `rows` rows returned), the virtual latency the executor
    /// actually charged, and the planner's estimate for this fetch.
    pub fn observe(
        &self,
        source: &str,
        effective_requests: u64,
        rows: u64,
        observed: Duration,
        estimated: Duration,
    ) {
        let obs = observed.as_secs_f64();
        let prior_estimate = self.prior.price(effective_requests, rows);
        let mut state = self.lock();
        if obs > 0.0 {
            let rel = (estimated.as_secs_f64() - obs).abs() / obs;
            if rel.is_finite() {
                state.err_sum += rel;
                state.err_count += 1;
            }
        }
        if state.learning {
            state
                .sources
                .entry(source.to_string())
                .or_default()
                .observe(effective_requests as f64, rows as f64, obs, prior_estimate);
        }
    }

    /// Snapshot the calibration state.
    pub fn report(&self) -> CalibrationReport {
        let state = self.lock();
        let sources = state
            .sources
            .iter()
            .map(|(name, fit)| SourceCalibration {
                source: name.clone(),
                observations: fit.n,
                params: fit.params(self.prior),
            })
            .collect();
        CalibrationReport {
            observations: state.err_count,
            mean_rel_error: if state.err_count == 0 {
                0.0
            } else {
                state.err_sum / state.err_count as f64
            },
            sources,
        }
    }

    /// Reset the estimate-vs-actual error tracker (fitted parameters are
    /// kept).  E12 calls this between its uncalibrated and calibrated
    /// measurement phases.
    pub fn reset_errors(&self) {
        let mut state = self.lock();
        state.err_sum = 0.0;
        state.err_count = 0;
    }

    fn lock(&self) -> parking_lot::MutexGuard<'_, CostState> {
        self.inner.lock()
    }
}

/// Convert a priced cost in seconds to a `Duration`, clamping negative or
/// non-finite values to zero (`Duration::from_secs_f64` panics on those).
pub fn secs_to_duration(secs: f64) -> Duration {
    if secs.is_finite() && secs > 0.0 {
        Duration::from_secs_f64(secs)
    } else {
        Duration::ZERO
    }
}

/// Fixed setup cost of one columnar scan: binding the pushdown,
/// binary-searching the interval's row range, allocating the selection
/// bitmap. Microseconds, not milliseconds — there is no round-trip.
pub const COLUMNAR_SETUP_SECS: f64 = 2e-6;

/// Modeled per-row cost of the vectorized kernels: one branch-light
/// pass over a contiguous typed buffer per predicate leaf, roughly a
/// nanosecond per row on commodity cores (experiment E15 measures the
/// real throughput).
pub const COLUMNAR_PER_ROW_SECS: f64 = 1e-9;

/// Priced cost (seconds) of scanning `rows` interval rows with the
/// columnar kernels — the local-compute term the planner weighs
/// against remote fetch alternatives.
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
    fn prior_prices_requests_and_rows() {
        let p = CostParams::prior();
        let cost = p.price(2, 100);
        assert!((cost - (2.0 * 0.050 + 100.0 * 20e-6)).abs() < 1e-12);
    }

    #[test]
    fn unobserved_source_uses_prior() {
        let m = CostModel::new();
        assert_eq!(m.params_for("nowhere"), CostParams::prior());
    }

    #[test]
    fn least_squares_recovers_true_parameters() {
        let m = CostModel::new();
        // True model: 20 ms rtt, 1 ms per row.
        let true_params = CostParams {
            rtt_secs: 0.020,
            per_row_secs: 0.001,
        };
        for (reqs, rows) in [(1u64, 10u64), (2, 50), (1, 200), (3, 30)] {
            let obs = secs_to_duration(true_params.price(reqs, rows));
            m.observe("assay", reqs, rows, obs, Duration::from_millis(50));
        }
        let fitted = m.params_for("assay");
        assert!((fitted.rtt_secs - 0.020).abs() < 1e-9, "{fitted:?}");
        assert!((fitted.per_row_secs - 0.001).abs() < 1e-9, "{fitted:?}");
    }

    #[test]
    fn degenerate_observations_fall_back_to_scaled_prior() {
        let m = CostModel::new();
        // Identical shape every time: the 2x2 system is singular.
        for _ in 0..5 {
            m.observe(
                "assay",
                1,
                100,
                Duration::from_millis(104),
                Duration::from_millis(52),
            );
        }
        let fitted = m.params_for("assay");
        // prior estimate per obs = 0.050 + 100 * 20e-6 = 0.052; scale = 2.0.
        assert!((fitted.rtt_secs - 0.100).abs() < 1e-9, "{fitted:?}");
        assert!((fitted.per_row_secs - 40e-6).abs() < 1e-12, "{fitted:?}");
    }

    #[test]
    fn error_tracker_reports_mean_relative_error() {
        let m = CostModel::new();
        // est 50ms vs obs 100ms -> rel 0.5; est 150ms vs obs 100ms -> 0.5.
        m.observe(
            "a",
            1,
            0,
            Duration::from_millis(100),
            Duration::from_millis(50),
        );
        m.observe(
            "a",
            1,
            0,
            Duration::from_millis(100),
            Duration::from_millis(150),
        );
        let r = m.report();
        assert_eq!(r.observations, 2);
        assert!((r.mean_rel_error - 0.5).abs() < 1e-9);
        m.reset_errors();
        let r = m.report();
        assert_eq!(r.observations, 0);
        assert_eq!(r.mean_rel_error, 0.0);
        // Fits survive the error reset.
        assert_eq!(r.sources.len(), 1);
    }

    #[test]
    fn learning_toggle_freezes_fits_but_not_errors() {
        let m = CostModel::new();
        m.set_learning(false);
        m.observe(
            "a",
            1,
            10,
            Duration::from_millis(100),
            Duration::from_millis(50),
        );
        let r = m.report();
        assert_eq!(r.observations, 1);
        assert!(r.sources.is_empty());
        assert_eq!(m.params_for("a"), CostParams::prior());
    }

    #[test]
    fn secs_to_duration_clamps_bad_values() {
        assert_eq!(secs_to_duration(-1.0), Duration::ZERO);
        assert_eq!(secs_to_duration(f64::NAN), Duration::ZERO);
        assert_eq!(secs_to_duration(f64::INFINITY), Duration::ZERO);
        assert_eq!(secs_to_duration(0.5), Duration::from_millis(500));
    }
}
