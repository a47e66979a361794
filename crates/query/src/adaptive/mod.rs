//! The self-driving layer (design decision D15): telemetry fed back
//! into planning, with every adaptation observable.
//!
//! One feedback loop closes over the observability stream and owns a
//! decision (EXPERIMENTS.md, "Feedback-loop audit"): the [`advisor`].
//! Slow matview-answerable shapes accumulate foregone cost (dedup
//! count × charged latency); past the E7 break-even the aggregate view
//! is built automatically, amortization is tracked, and a view that
//! never pays off, or that a source change made stale, is evicted.
//!
//! Every decision emits an `"adapt"` JSONL record through
//! [`TraceExport`]; `drugtree advisor` renders the decision log.
//!
//! Everything is interior-mutable behind [`AdaptiveRuntime`]: the
//! `DrugTree` facade hands out only `&Executor`, so the loops update
//! through shared references on the virtual clock — two replays of the
//! same workload adapt identically, byte for byte.

pub mod advisor;

pub use advisor::{AdvisorSnapshot, MatviewAdvisor};

use crate::dataset::{Dataset, SourceEpoch};
use crate::local::{Keep, LocalBuild};
use crate::obs::export::AdaptDecision;
use crate::obs::{Sink, TraceExport};
use crate::Result;
use drugtree_sources::sync::{Mutex, RwLock};
use std::sync::Arc;
use std::time::Duration;

/// What the executor reports back after each query (the runtime's
/// entire view of the world — it never re-plans or re-executes).
#[derive(Debug, Clone, Copy)]
pub struct QueryFeedback {
    /// The query's source epoch, the one its plan checked the view at.
    pub epoch: SourceEpoch,
    /// The query had an aggregate finish a materialized view could
    /// have answered, but none was installed.
    pub matview_candidate: bool,
    /// The query *was* served by the adaptively-built view.
    pub served_by_adaptive: bool,
    /// Answer-shape fingerprint ([`crate::obs::answer_fingerprint`]):
    /// the advisor's dedup key, shared by a candidate and the
    /// view-served plan that replaces it.
    pub fingerprint: u64,
    /// Charged latency of this query.
    pub charged: Duration,
    /// Measured break-even proxy: the cost of one full source scan
    /// (what building the view costs), from the stats collection pass.
    pub break_even_proxy: Duration,
}

/// The loop's counters and state, for reports and E17.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveSnapshot {
    /// Auto-materialization loop state.
    pub advisor: AdvisorSnapshot,
    /// Whether an adaptively-built view is currently installed.
    pub view_built: bool,
}

/// `loop_name` of the auto-materialization loop's events.
const LOOP_MATVIEW: &str = "matview";

/// The self-driving runtime: owns the adaptively-built view, the
/// advisor's ledger, and the `adapt` event exporter.
///
/// Thread-safe and interior-mutable; the executor holds it in an
/// `Arc` and reports through `&self`. The exporter (when attached) has
/// its own sequence space, separate from the fleet observer's — the
/// two streams are joined on `at_ns`, not `seq`.
#[derive(Default)]
pub struct AdaptiveRuntime {
    view: RwLock<Option<Arc<LocalBuild>>>,
    advisor: Mutex<MatviewAdvisor>,
    export: Option<TraceExport>,
}

impl std::fmt::Debug for AdaptiveRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveRuntime")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl AdaptiveRuntime {
    /// A runtime with no exporter attached.
    pub fn new() -> AdaptiveRuntime {
        AdaptiveRuntime::default()
    }

    /// Attach an `adapt`-event exporter writing to `sink`.
    pub fn with_export(mut self, sink: Arc<dyn Sink>) -> AdaptiveRuntime {
        self.export = Some(TraceExport::new(sink));
        self
    }

    /// The view-only local build the advisor installed, if any.
    pub fn view(&self) -> Option<Arc<LocalBuild>> {
        self.view.read().clone()
    }

    /// The loop's counters and state.
    pub fn snapshot(&self) -> AdaptiveSnapshot {
        // Hoisted so no guard is alive while the next class is taken
        // (struct-literal temporaries live to the end of the literal).
        let advisor = self.advisor.lock().snapshot();
        AdaptiveSnapshot {
            advisor,
            view_built: self.view.read().is_some(),
        }
    }

    /// Fold one executed query back into the auto-materialization
    /// loop: credit a hit, or drop a view that went stale or never
    /// paid off, accumulate foregone cost, and build past break-even
    /// (the build scan is charged to the virtual clock).
    pub fn after_query(&self, dataset: &Dataset, feedback: &QueryFeedback) -> Result<()> {
        let now_ns = dataset.clock.now().0;
        if feedback.served_by_adaptive {
            let mut advisor = self.advisor.lock();
            let saved = advisor
                .mean_foregone(feedback.fingerprint)
                .unwrap_or(Duration::ZERO)
                .saturating_sub(feedback.charged);
            advisor.note_hit(saved, now_ns);
            return Ok(());
        }
        // The planner refuses a view a source change made stale, so it
        // can never take a hit again; a built view with no hits inside
        // the idle window never paid off. Either way the ledger
        // restarts and a later break-even crossing rebuilds.
        let stale = self.view().is_some_and(|v| !v.is_fresh(feedback.epoch));
        let idle = self.advisor.lock().should_evict(now_ns);
        if stale || idle {
            let mut advisor = self.advisor.lock();
            let build_cost = advisor.snapshot().build_cost;
            advisor.record_evict();
            drop(advisor);
            *self.view.write() = None;
            self.emit(AdaptDecision {
                at_ns: now_ns,
                loop_name: LOOP_MATVIEW.to_string(),
                action: "evict".to_string(),
                subject: "aggregate-view".to_string(),
                reason: if stale {
                    "source changed"
                } else {
                    "no hits inside the idle window"
                }
                .to_string(),
                before_ns: duration_ns(build_cost),
                after_ns: 0,
            });
        }
        if !feedback.matview_candidate {
            return Ok(());
        }
        let mut advisor = self.advisor.lock();
        let should_build = advisor.note_candidate(
            feedback.fingerprint,
            feedback.charged,
            feedback.break_even_proxy,
        );
        let foregone = advisor.snapshot().foregone;
        drop(advisor);
        if !should_build {
            return Ok(());
        }
        let built = Arc::new(LocalBuild::build(dataset, Keep::View)?);
        let build_cost = built.build_cost;
        dataset.clock.advance(build_cost);
        let built_at = dataset.clock.now().0;
        *self.view.write() = Some(built);
        let mut advisor = self.advisor.lock();
        advisor.record_build(built_at, build_cost);
        let mean_before = advisor
            .mean_foregone(feedback.fingerprint)
            .unwrap_or(feedback.charged);
        drop(advisor);
        self.emit(AdaptDecision {
            at_ns: built_at,
            loop_name: LOOP_MATVIEW.to_string(),
            action: "apply".to_string(),
            subject: format!("{:016x}", feedback.fingerprint),
            reason: format!(
                "break-even crossed: foregone {}us > break-even {}us",
                foregone.as_micros(),
                feedback.break_even_proxy.as_micros()
            ),
            before_ns: duration_ns(mean_before),
            after_ns: 0,
        });
        Ok(())
    }

    fn emit(&self, decision: AdaptDecision) {
        if let Some(export) = &self.export {
            export.emit_adapt(&decision);
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::small_dataset;
    use crate::obs::VecSink;
    use drugtree_sources::source::SourceCapabilities;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn feedback() -> QueryFeedback {
        QueryFeedback {
            epoch: SourceEpoch::default(),
            matview_candidate: false,
            served_by_adaptive: false,
            fingerprint: 0xfeed,
            charged: ms(10),
            break_even_proxy: ms(30),
        }
    }

    #[test]
    fn matview_builds_past_break_even_and_counts_hits() {
        let d = small_dataset(SourceCapabilities::full());
        let sink = Arc::new(VecSink::new());
        let rt = AdaptiveRuntime::new().with_export(Arc::clone(&sink) as Arc<dyn Sink>);
        let mut fb = feedback();
        fb.matview_candidate = true;
        fb.charged = ms(20);
        fb.break_even_proxy = ms(30);
        // 20ms + 20ms crosses the 30ms break-even on the second query.
        rt.after_query(&d, &fb).unwrap();
        assert!(rt.view().is_none());
        let clock_before = d.clock.now();
        rt.after_query(&d, &fb).unwrap();
        assert!(rt.view().is_some(), "view built past break-even");
        assert!(
            d.clock.now() > clock_before,
            "the build scan is charged to the virtual clock"
        );
        let applies: Vec<String> = sink
            .lines()
            .into_iter()
            .filter(|l| {
                l.contains("\"loop_name\":\"matview\"") && l.contains("\"action\":\"apply\"")
            })
            .collect();
        assert_eq!(applies.len(), 1);
        assert!(applies[0].contains("break-even crossed"));
        // Hits credit amortization.
        let mut hit = feedback();
        hit.served_by_adaptive = true;
        hit.fingerprint = fb.fingerprint;
        hit.charged = Duration::from_micros(1);
        rt.after_query(&d, &hit).unwrap();
        assert_eq!(rt.snapshot().advisor.hits, 1);
    }

    #[test]
    fn idle_views_are_evicted_with_an_event() {
        let d = small_dataset(SourceCapabilities::full());
        let sink = Arc::new(VecSink::new());
        let rt = AdaptiveRuntime::new().with_export(Arc::clone(&sink) as Arc<dyn Sink>);
        let mut fb = feedback();
        fb.matview_candidate = true;
        fb.charged = ms(20);
        fb.break_even_proxy = ms(1);
        rt.after_query(&d, &fb).unwrap();
        assert!(rt.view().is_some());
        // No hits arrive; the clock drifts past the minute-long idle
        // window and a later (non-candidate) query triggers the
        // eviction check.
        d.clock.advance(Duration::from_secs(61));
        rt.after_query(&d, &feedback()).unwrap();
        assert!(rt.view().is_none(), "idle view evicted");
        assert_eq!(rt.snapshot().advisor.evictions, 1);
        assert!(sink
            .lines()
            .iter()
            .any(|l| l.contains("\"action\":\"evict\"")));
    }

    #[test]
    fn double_run_adapts_byte_identically() {
        let run = || {
            let d = small_dataset(SourceCapabilities::full());
            let sink = Arc::new(VecSink::new());
            let rt = AdaptiveRuntime::new().with_export(Arc::clone(&sink) as Arc<dyn Sink>);
            let mut fb = feedback();
            fb.matview_candidate = true;
            fb.charged = ms(20);
            for _ in 0..4 {
                d.clock.advance(ms(1));
                rt.after_query(&d, &fb).unwrap();
            }
            sink.lines()
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run(), "byte-identical adapt stream");
    }
}
