//! Failure injection: a decorator that makes any source transiently
//! unreliable.
//!
//! 2013-era public web databases failed *constantly* — timeouts, 503s,
//! rate-limit rejections. A mediator that cannot ride through them is
//! not usable from a phone. [`FlakySource`] wraps a real source and
//! fails a deterministic pseudo-random fraction of requests with
//! [`SourceError::Transient`], charging the timeout cost so retry
//! policies pay realistic virtual time.

use crate::clock::VirtualClock;
use crate::latency::LatencyModel;
use crate::source::{
    DataSource, FetchRequest, FetchResponse, MetricsSnapshot, SourceCapabilities, SourceKind,
};
use crate::{Result, SourceError};
use drugtree_store::schema::Schema;
use drugtree_store::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One scripted outage on the virtual clock: every request that
/// arrives while `start <= clock.now() < end` fails, regardless of the
/// source's base failure rate. Offsets are from virtual time zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// Outage start (inclusive), virtual time.
    pub start: Duration,
    /// Outage end (exclusive), virtual time.
    pub end: Duration,
}

impl OutageWindow {
    /// A window covering `[start, start + length)`.
    pub fn at(start: Duration, length: Duration) -> OutageWindow {
        OutageWindow {
            start,
            end: start + length,
        }
    }

    fn covers(&self, now_ns: u64) -> bool {
        let start = u64::try_from(self.start.as_nanos()).unwrap_or(u64::MAX);
        let end = u64::try_from(self.end.as_nanos()).unwrap_or(u64::MAX);
        (start..end).contains(&now_ns)
    }
}

/// A source that transiently fails a fraction of its requests.
pub struct FlakySource {
    inner: Arc<dyn DataSource>,
    /// Probability a request fails, in `[0, 1]`.
    failure_rate: f64,
    /// Virtual cost of a failed request (the client's timeout).
    failure_cost: Duration,
    seed: u64,
    attempts: AtomicU64,
    failures: AtomicU64,
    /// Scripted outage storms: while the paired clock is inside any
    /// window, every request fails deterministically.
    storms: Option<(Arc<VirtualClock>, Vec<OutageWindow>)>,
    storm_failures: AtomicU64,
}

impl FlakySource {
    /// Wrap a source with a failure rate and a timeout cost.
    pub fn new(
        inner: Arc<dyn DataSource>,
        failure_rate: f64,
        failure_cost: Duration,
        seed: u64,
    ) -> FlakySource {
        FlakySource {
            inner,
            failure_rate: failure_rate.clamp(0.0, 1.0),
            failure_cost,
            seed,
            attempts: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            storms: None,
            storm_failures: AtomicU64::new(0),
        }
    }

    /// Script outage storms on `clock`: any request arriving while the
    /// clock sits inside a window fails with the source's timeout
    /// cost. Deterministic for a deterministic clock schedule — the
    /// event-driven fleet scheduler replays storms byte-identically.
    pub fn with_storms(
        mut self,
        clock: Arc<VirtualClock>,
        mut windows: Vec<OutageWindow>,
    ) -> FlakySource {
        windows.sort_by_key(|w| w.start);
        self.storms = Some((clock, windows));
        self
    }

    /// Requests attempted (including failed ones).
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Requests that were injected as failures.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Failures injected by an outage storm specifically.
    pub fn storm_failures(&self) -> u64 {
        self.storm_failures.load(Ordering::Relaxed)
    }

    fn in_storm(&self) -> bool {
        let Some((clock, windows)) = &self.storms else {
            return false;
        };
        let now = clock.now().0;
        windows.iter().any(|w| w.covers(now))
    }

    fn roll(&self, attempt: u64) -> bool {
        // splitmix64 → uniform in [0, 1).
        let mut x = self.seed ^ attempt.wrapping_mul(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.failure_rate
    }
}

impl DataSource for FlakySource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn key_column(&self) -> &str {
        self.inner.key_column()
    }

    fn capabilities(&self) -> SourceCapabilities {
        self.inner.capabilities()
    }

    fn fetch(&self, request: &FetchRequest) -> Result<FetchResponse> {
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        if self.in_storm() {
            self.failures.fetch_add(1, Ordering::Relaxed);
            self.storm_failures.fetch_add(1, Ordering::Relaxed);
            return Err(SourceError::Transient {
                source: self.inner.name().to_string(),
                cost: self.failure_cost,
            });
        }
        if self.roll(attempt) {
            self.failures.fetch_add(1, Ordering::Relaxed);
            return Err(SourceError::Transient {
                source: self.inner.name().to_string(),
                cost: self.failure_cost,
            });
        }
        self.inner.fetch(request)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn record_count(&self) -> usize {
        self.inner.record_count()
    }

    fn latency_model(&self) -> LatencyModel {
        self.inner.latency_model()
    }

    fn ingest(&self, row: Vec<Value>) -> Result<()> {
        self.inner.ingest(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::protein_db::{protein_source, ProteinRecord};

    fn inner() -> Arc<dyn DataSource> {
        Arc::new(
            protein_source(
                "p",
                &[ProteinRecord {
                    accession: "P1".into(),
                    name: "x".into(),
                    organism: "o".into(),
                    sequence: "MK".into(),
                    gene: None,
                }],
                SourceCapabilities::full(),
                LatencyModel::free(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn zero_rate_never_fails() {
        let s = FlakySource::new(inner(), 0.0, Duration::from_secs(1), 7);
        for _ in 0..50 {
            s.fetch(&FetchRequest::scan()).unwrap();
        }
        assert_eq!(s.failures(), 0);
        assert_eq!(s.attempts(), 50);
    }

    #[test]
    fn full_rate_always_fails_with_cost() {
        let s = FlakySource::new(inner(), 1.0, Duration::from_secs(2), 7);
        match s.fetch(&FetchRequest::scan()) {
            Err(SourceError::Transient { source, cost }) => {
                assert_eq!(source, "p");
                assert_eq!(cost, Duration::from_secs(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn intermediate_rate_is_deterministic_and_close() {
        let run = || {
            let s = FlakySource::new(inner(), 0.3, Duration::from_millis(10), 42);
            let outcomes: Vec<bool> = (0..200)
                .map(|_| s.fetch(&FetchRequest::scan()).is_err())
                .collect();
            (outcomes, s.failures())
        };
        let (a, failures) = run();
        let (b, _) = run();
        assert_eq!(a, b, "failure pattern must be deterministic");
        let rate = failures as f64 / 200.0;
        assert!((0.2..0.4).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn storm_windows_fail_on_the_virtual_clock() {
        let clock = VirtualClock::new();
        let s = FlakySource::new(inner(), 0.0, Duration::from_secs(1), 7).with_storms(
            Arc::clone(&clock),
            vec![OutageWindow::at(
                Duration::from_secs(10),
                Duration::from_secs(5),
            )],
        );
        // Before the storm: healthy.
        s.fetch(&FetchRequest::scan()).unwrap();
        // Inside [10s, 15s): every request fails.
        clock.advance(Duration::from_secs(12));
        assert!(s.fetch(&FetchRequest::scan()).is_err());
        assert!(s.fetch(&FetchRequest::scan()).is_err());
        // Past the window: healthy again — graceful recovery.
        clock.advance(Duration::from_secs(4));
        s.fetch(&FetchRequest::scan()).unwrap();
        assert_eq!(s.storm_failures(), 2);
        assert_eq!(s.failures(), 2, "storm failures count as failures");
    }

    #[test]
    fn storms_compose_with_base_rate() {
        let clock = VirtualClock::new();
        let s = FlakySource::new(inner(), 1.0, Duration::from_secs(1), 7)
            .with_storms(Arc::clone(&clock), vec![]);
        // No storm windows, but the base rate still applies.
        assert!(s.fetch(&FetchRequest::scan()).is_err());
        assert_eq!(s.storm_failures(), 0);
        assert_eq!(s.failures(), 1);
    }

    #[test]
    fn delegates_everything_else() {
        let s = FlakySource::new(inner(), 0.0, Duration::ZERO, 1);
        assert_eq!(s.name(), "p");
        assert_eq!(s.kind(), SourceKind::Protein);
        assert_eq!(s.key_column(), "accession");
        assert_eq!(s.record_count(), 1);
        assert!(s.capabilities().eq_pushdown);
    }

    /// A fetch that does not fail is the inner source's response: the
    /// same typed rows, cost and counts.
    #[test]
    fn a_passing_fetch_forwards_the_typed_response() {
        let direct = inner().fetch(&FetchRequest::scan()).unwrap();
        let s = FlakySource::new(inner(), 0.0, Duration::ZERO, 1);
        let request = FetchRequest::lookup(vec![Value::from("P1")])
            .with_projection(vec!["gene".into(), "accession".into()]);
        let resp = s.fetch(&request).unwrap();
        assert_eq!(resp.table.row(0), [Value::Null, Value::from("P1")]);
        assert_eq!(resp.rows_scanned, 1);
        assert_eq!(resp.cost, direct.cost);
        assert_eq!(s.metrics().rows_returned, 1);
    }
}
