//! Structured JSONL trace export.
//!
//! [`TraceExport`] turns finished span trees and window rollovers into
//! one JSON object per line, written through a [`Sink`]. The query
//! crate performs **no I/O**: the file-backed sink lives in the core
//! crate, and tests use [`VecSink`]. Every field is derived from the
//! virtual clock and a process-local sequence number, so two replays
//! of the same workload export byte-identical streams.

use crate::obs::window::WindowSummary;
use crate::trace::QueryTrace;
use drugtree_sources::telemetry::nanos;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Destination for exported JSONL lines.
///
/// Implementations append `line` (no trailing newline included) as
/// one record. They must tolerate concurrent calls; ordering between
/// racing writers is the sink's choice.
pub trait Sink: Send + Sync {
    /// Append one line to the export.
    fn write_line(&self, line: &str);
}

/// An in-memory [`Sink`] collecting lines into a `Vec` (tests, and
/// the determinism check in experiment E14).
#[derive(Debug, Default)]
pub struct VecSink(Mutex<Vec<String>>);

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Lines written so far.
    pub fn lines(&self) -> Vec<String> {
        self.0.lock().clone()
    }
}

impl Sink for VecSink {
    fn write_line(&self, line: &str) {
        self.0.lock().push(line.to_string());
    }
}

/// One span of an exported query event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Stage label (`"fetch"`, `"overlay"`, …).
    pub stage: String,
    /// Stage detail (source name, `"hit"`/`"miss"`, …).
    pub detail: String,
    /// Virtual cost charged to the stage, in nanoseconds.
    pub actual_ns: u64,
    /// Rows the stage produced (0 when not meaningful).
    pub rows: u64,
}

/// One finished query: the JSONL record emitted per span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryEvent {
    /// Record discriminator: always `"query"`.
    pub event: String,
    /// Export-order sequence number.
    pub seq: u64,
    /// Query class label.
    pub class: String,
    /// Query text.
    pub query: String,
    /// Plan-shape fingerprint, zero-padded hex.
    pub fingerprint: String,
    /// Virtual clock at query start.
    pub started_ns: u64,
    /// Virtual clock at query end.
    pub ended_ns: u64,
    /// Cost charged to this query alone, in nanoseconds.
    pub charged_ns: u64,
    /// End-to-end virtual cost, in nanoseconds.
    pub total_ns: u64,
    /// Rows shipped from sources.
    pub rows: u64,
    /// Cache outcome (absent when the plan had no probe).
    pub cache_hit: Option<bool>,
    /// Whether the charged cost breached the class SLO target.
    pub breach: bool,
    /// Child spans, in pipeline order.
    pub spans: Vec<SpanEvent>,
}

/// One closed SLO window: the JSONL record emitted per rollover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowEvent {
    /// Record discriminator: always `"window"`.
    pub event: String,
    /// Export-order sequence number.
    pub seq: u64,
    /// Window scope: `"class:<label>"` or `"session:<id>"`.
    pub scope: String,
    /// Window index (`start_ns / width`).
    pub index: u64,
    /// Window open, virtual nanoseconds.
    pub start_ns: u64,
    /// Window close (exclusive), virtual nanoseconds.
    pub end_ns: u64,
    /// Records folded into the window.
    pub count: u64,
    /// Interpolated median, nanoseconds (rounded).
    pub p50_ns: u64,
    /// Interpolated p95, nanoseconds (rounded).
    pub p95_ns: u64,
    /// Interpolated p99, nanoseconds (rounded).
    pub p99_ns: u64,
    /// Window maximum, nanoseconds.
    pub max_ns: u64,
    /// Cumulative SLO breaches for the scope at rollover time.
    pub breaches: u64,
}

/// One per-class serving rollup: the JSONL record the fleet scheduler
/// emits at the end of a run, one line per query class that saw
/// traffic. `drugtree top` folds these into its shed/hedge/deadline
/// columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeEvent {
    /// Record discriminator: always `"serve"`.
    pub event: String,
    /// Export-order sequence number.
    pub seq: u64,
    /// Query class label.
    pub class: String,
    /// Queries admitted for this class (executed or joined a flight).
    pub admitted: u64,
    /// Queries shed by admission control before execution.
    pub shed: u64,
    /// Queries that trained a hedge against a replica.
    pub hedged: u64,
    /// Hedges whose replica bound actually improved the latency.
    pub hedges_won: u64,
    /// Queries that missed their per-class deadline (timed out or
    /// finished past it).
    pub deadline_missed: u64,
    /// Queries degraded to partial results by a source outage.
    pub outages: u64,
}

/// One adaptation decision: the JSONL record the self-driving layer
/// emits whenever a feedback loop fires (applies, reverts, or evicts
/// an adaptation). `drugtree advisor` folds these into its report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdaptEvent {
    /// Record discriminator: always `"adapt"`.
    pub event: String,
    /// Export-order sequence number.
    pub seq: u64,
    /// Virtual clock at decision time, nanoseconds.
    pub at_ns: u64,
    /// Which feedback loop fired: `"matview"`. (Named
    /// `loop_name` in the JSON too — the vendored serde stand-in has
    /// no rename support, and `loop` is reserved.)
    pub loop_name: String,
    /// What happened: `"apply"` or `"evict"`.
    pub action: String,
    /// What was adapted (an answer shape, the view).
    pub subject: String,
    /// Why the loop fired (break-even crossed, source changed, …).
    pub reason: String,
    /// Measured state before the adaptation, nanoseconds (0 when not
    /// meaningful for the loop).
    pub before_ns: u64,
    /// Measured (or projected) state after, nanoseconds.
    pub after_ns: u64,
}

/// JSONL writer for the observability event stream.
///
/// Sequence numbers are assigned at emit time, so a single-threaded
/// replay exports a byte-identical stream; under concurrent serving
/// the interleaving (only) follows thread scheduling.
pub struct TraceExport {
    sink: Arc<dyn Sink>,
    seq: AtomicU64,
}

impl std::fmt::Debug for TraceExport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceExport")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceExport {
    /// An exporter writing to `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> TraceExport {
        TraceExport {
            sink,
            seq: AtomicU64::new(0),
        }
    }

    /// Events emitted so far.
    pub fn emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Emit one `query` record for a finished trace.
    pub fn emit_query(&self, trace: &QueryTrace, breach: bool) {
        let spans = trace
            .root
            .children
            .iter()
            .map(|s| SpanEvent {
                stage: s.stage.label().to_string(),
                detail: s.detail.clone(),
                actual_ns: nanos(s.actual),
                rows: s.rows.unwrap_or(0),
            })
            .collect();
        let record = QueryEvent {
            event: "query".to_string(),
            seq: self.next_seq(),
            class: trace.class.label().to_string(),
            query: trace.query.clone(),
            fingerprint: format!("{:016x}", trace.fingerprint),
            started_ns: trace.root.started.0,
            ended_ns: trace.root.ended.0,
            charged_ns: nanos(trace.access_cost),
            total_ns: nanos(trace.root.actual),
            rows: trace.rows_fetched,
            cache_hit: trace.cache_hit,
            breach,
            spans,
        };
        if let Ok(line) = serde_json::to_string(&record) {
            self.sink.write_line(&line);
        }
    }

    /// Emit one `window` record for a closed window.
    pub fn emit_window(&self, scope: &str, window: &WindowSummary, breaches: u64) {
        let record = WindowEvent {
            event: "window".to_string(),
            seq: self.next_seq(),
            scope: scope.to_string(),
            index: window.index,
            start_ns: window.start_ns,
            end_ns: window.end_ns,
            count: window.count,
            p50_ns: window.p50.round() as u64,
            p95_ns: window.p95.round() as u64,
            p99_ns: window.p99.round() as u64,
            max_ns: window.max,
            breaches,
        };
        if let Ok(line) = serde_json::to_string(&record) {
            self.sink.write_line(&line);
        }
    }

    /// Emit one `adapt` record: a self-driving-layer decision (apply /
    /// revert / evict) with its measured before/after state.
    pub fn emit_adapt(&self, event: &AdaptDecision) {
        let record = AdaptEvent {
            event: "adapt".to_string(),
            seq: self.next_seq(),
            at_ns: event.at_ns,
            loop_name: event.loop_name.clone(),
            action: event.action.clone(),
            subject: event.subject.clone(),
            reason: event.reason.clone(),
            before_ns: event.before_ns,
            after_ns: event.after_ns,
        };
        if let Ok(line) = serde_json::to_string(&record) {
            self.sink.write_line(&line);
        }
    }

    /// Emit one `serve` record: a per-class rollup of the fleet
    /// scheduler's shed/hedge/deadline/outage counters.
    pub fn emit_serve(&self, counters: &ServeClassCounters) {
        let record = ServeEvent {
            event: "serve".to_string(),
            seq: self.next_seq(),
            class: counters.class.clone(),
            admitted: counters.admitted,
            shed: counters.shed,
            hedged: counters.hedged,
            hedges_won: counters.hedges_won,
            deadline_missed: counters.deadline_missed,
            outages: counters.outages,
        };
        if let Ok(line) = serde_json::to_string(&record) {
            self.sink.write_line(&line);
        }
    }
}

/// The adaptive-layer decision bundle [`TraceExport::emit_adapt`]
/// serializes; owned by `crate::adaptive`, defined here so the export
/// layer stays the single place JSONL schemas live.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdaptDecision {
    /// Virtual clock at decision time, nanoseconds.
    pub at_ns: u64,
    /// Feedback loop name (`"matview"`).
    pub loop_name: String,
    /// `"apply"` or `"evict"`.
    pub action: String,
    /// What was adapted.
    pub subject: String,
    /// Why the loop fired.
    pub reason: String,
    /// Measured state before, nanoseconds.
    pub before_ns: u64,
    /// Measured (or projected) state after, nanoseconds.
    pub after_ns: u64,
}

/// The per-class serving counters: what the core crate's fleet
/// scheduler accumulates, [`TraceExport::emit_serve`] serializes and
/// `drugtree top` sums back up. Defined here so the export layer need
/// not depend on the scheduler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeClassCounters {
    /// Query class label.
    pub class: String,
    /// Queries admitted for this class.
    pub admitted: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Queries that armed a hedge.
    pub hedged: u64,
    /// Hedges that improved latency.
    pub hedges_won: u64,
    /// Deadline misses (hard timeouts plus soft overruns).
    pub deadline_missed: u64,
    /// Outage-degraded queries.
    pub outages: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::QueryClass;
    use crate::trace::{QuerySpan, Stage};
    use drugtree_sources::clock::VirtualInstant;
    use std::time::Duration;

    fn trace() -> QueryTrace {
        let mut root = QuerySpan::new(Stage::Query, "", VirtualInstant(1_000));
        root.ended = VirtualInstant(13_000_000);
        root.actual = Duration::from_millis(12);
        let mut fetch = QuerySpan::new(Stage::Fetch, "assay-sim", VirtualInstant(2_000));
        fetch.actual = Duration::from_millis(11);
        fetch.rows = Some(3);
        root.children.push(fetch);
        QueryTrace {
            query: "activities in tree".into(),
            root,
            access_cost: Duration::from_millis(11),
            rows_fetched: 3,
            cache_hit: Some(false),
            class: QueryClass::Listing,
            fingerprint: 0xabc,
        }
    }

    fn exporter() -> (TraceExport, Arc<VecSink>) {
        let sink = Arc::new(VecSink::new());
        (TraceExport::new(Arc::clone(&sink) as Arc<dyn Sink>), sink)
    }

    #[test]
    fn query_events_round_trip_and_replay_identically() {
        let t = trace();
        let emit = |t: &QueryTrace| {
            let (export, sink) = exporter();
            export.emit_query(t, true);
            assert_eq!(export.emitted(), 1);
            sink.lines()
        };
        let lines1 = emit(&t);
        let lines2 = emit(&t);
        assert_eq!(lines1, lines2, "same trace exports identical bytes");
        assert_eq!(lines1.len(), 1);
        let parsed: QueryEvent = serde_json::from_str(&lines1[0]).unwrap();
        assert_eq!(parsed.event, "query");
        assert_eq!(parsed.seq, 0);
        assert_eq!(parsed.class, "listing");
        assert_eq!(parsed.fingerprint, "0000000000000abc");
        assert_eq!(parsed.charged_ns, 11_000_000);
        assert_eq!(parsed.started_ns, 1_000);
        assert!(parsed.breach);
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.spans[0].stage, "fetch");
        assert_eq!(parsed.spans[0].rows, 3);
    }

    #[test]
    fn serve_events_round_trip() {
        let (export, sink) = exporter();
        export.emit_serve(&ServeClassCounters {
            class: "listing".into(),
            admitted: 90,
            shed: 10,
            hedged: 4,
            hedges_won: 3,
            deadline_missed: 2,
            outages: 1,
        });
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"event\":\"serve\""));
        let parsed: ServeEvent = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(parsed.class, "listing");
        assert_eq!(parsed.shed, 10);
        assert_eq!(parsed.hedged, 4);
        assert_eq!(parsed.hedges_won, 3);
        assert_eq!(parsed.deadline_missed, 2);
        assert_eq!(parsed.outages, 1);
    }

    #[test]
    fn adapt_events_round_trip() {
        let (export, sink) = exporter();
        export.emit_adapt(&AdaptDecision {
            at_ns: 42_000,
            loop_name: "matview".into(),
            action: "apply".into(),
            subject: "aggregate(count)".into(),
            reason: "break-even crossed".into(),
            before_ns: 9_000_000,
            after_ns: 12_000,
        });
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"event\":\"adapt\""));
        assert!(
            lines[0].contains("\"loop_name\":\"matview\""),
            "{}",
            lines[0]
        );
        let parsed: AdaptEvent = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(parsed.loop_name, "matview");
        assert_eq!(parsed.action, "apply");
        assert_eq!(parsed.before_ns, 9_000_000);
        assert_eq!(parsed.after_ns, 12_000);
        assert_eq!(export.emitted(), 1);
    }

    #[test]
    fn window_events_round_trip() {
        let (export, sink) = exporter();
        let summary = WindowSummary {
            index: 2,
            start_ns: 2_000_000_000,
            end_ns: 3_000_000_000,
            count: 7,
            p50: 10.4,
            p95: 99.6,
            p99: 100.0,
            max: 120,
        };
        export.emit_window("class:listing", &summary, 3);
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        let parsed: WindowEvent = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(parsed.scope, "class:listing");
        assert_eq!(parsed.p50_ns, 10, "rounded");
        assert_eq!(parsed.p95_ns, 100, "rounded");
        assert_eq!(parsed.breaches, 3);
        assert_eq!(export.emitted(), 1);
    }
}
