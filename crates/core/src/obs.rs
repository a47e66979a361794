//! Fleet-observability I/O: the file-backed export sink and the
//! `drugtree top` workload report.
//!
//! The query crate's [`TraceExport`] is I/O-free by design — it writes
//! through the [`Sink`] trait. This module supplies the file half:
//! [`JsonlFileSink`] appends one JSON record per line, and
//! [`TopReport`] folds such an export back into the summary table the
//! `drugtree top` subcommand prints (per-class QPS and tail latency,
//! cache hit rate, the slowest plan fingerprints, and per-session SLO
//! breaches), and [`AdvisorReport`] folds the `"adapt"` records into
//! the `drugtree advisor` view of what the self-driving layer did
//! (which loops fired, what they touched, and why).
//!
//! [`TraceExport`]: drugtree_query::TraceExport

use drugtree_query::obs::{AdaptEvent, QueryEvent, ServeEvent, Sink, WindowEvent};
use drugtree_query::ServeClassCounters;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufWriter, Read as _, Write as _};
use std::path::Path;

/// The longest export line the report readers fold, in bytes (without
/// its newline). A longer line is counted as skipped, and no more than
/// this much of it is ever buffered.
pub const MAX_EXPORT_LINE_BYTES: usize = 1 << 20;

/// A [`Sink`] appending JSONL records to a file through a buffered
/// writer. Call [`JsonlFileSink::flush`] (or drop the sink) before
/// reading the file back.
#[derive(Debug)]
pub struct JsonlFileSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlFileSink {
    /// Create (truncate) `path` and sink lines into it.
    pub fn create(path: &Path) -> std::io::Result<JsonlFileSink> {
        let file = File::create(path)?;
        Ok(JsonlFileSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Flush buffered lines to disk.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().flush()
    }
}

impl Drop for JsonlFileSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl Sink for JsonlFileSink {
    fn write_line(&self, line: &str) {
        let mut writer = self.writer.lock();
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.write_all(b"\n");
    }
}

/// Feed `reader`'s non-blank lines, trimmed, to `fold`: `Some(line)`
/// for each line of at most [`MAX_EXPORT_LINE_BYTES`] of UTF-8, `None`
/// for any other. A line is buffered only up to the bound and its
/// newline; the rest of a longer one is skipped unread.
fn read_export_lines(
    mut reader: impl BufRead,
    mut fold: impl FnMut(Option<&str>),
) -> std::io::Result<()> {
    let room = MAX_EXPORT_LINE_BYTES as u64 + 1;
    let mut line = Vec::new();
    loop {
        line.clear();
        if reader.by_ref().take(room).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_EXPORT_LINE_BYTES {
            reader.skip_until(b'\n')?;
            fold(None);
            continue;
        }
        match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => {}
            text => fold(text.ok()),
        }
    }
}

#[derive(Debug, Default)]
struct ClassQueries {
    charged_ns: Vec<u64>,
    breaches: u64,
    probes: u64,
    hits: u64,
}

#[derive(Debug, Default)]
struct ShapeAccumulator {
    example: String,
    count: u64,
    max_charged_ns: u64,
}

/// A workload summary folded from a JSONL export: what `drugtree top`
/// renders.
#[derive(Debug, Default)]
pub struct TopReport {
    classes: BTreeMap<String, ClassQueries>,
    shapes: BTreeMap<String, ShapeAccumulator>,
    serve: BTreeMap<String, ServeClassCounters>,
    sessions: BTreeMap<u32, u64>,
    first_started_ns: Option<u64>,
    last_ended_ns: u64,
    queries: u64,
    windows: u64,
    adapts: u64,
    skipped: u64,
}

impl TopReport {
    /// Fold an export, one JSONL line per item. Unparseable and
    /// over-long lines are counted, not fatal — a truncated export
    /// still reports; only a read error fails.
    pub fn from_reader(reader: impl BufRead) -> std::io::Result<TopReport> {
        let mut report = TopReport::default();
        read_export_lines(reader, |line| match line {
            Some(line) => report.fold_line(line),
            None => report.skipped += 1,
        })?;
        Ok(report)
    }

    fn fold_line(&mut self, line: &str) {
        if line.starts_with("{\"event\":\"query\"") {
            match serde_json::from_str::<QueryEvent>(line) {
                Ok(event) => self.fold_query(&event),
                Err(_) => self.skipped += 1,
            }
        } else if line.starts_with("{\"event\":\"window\"") {
            match serde_json::from_str::<WindowEvent>(line) {
                Ok(event) => self.fold_window(&event),
                Err(_) => self.skipped += 1,
            }
        } else if line.starts_with("{\"event\":\"serve\"") {
            match serde_json::from_str::<ServeEvent>(line) {
                Ok(event) => self.fold_serve(&event),
                Err(_) => self.skipped += 1,
            }
        } else if line.starts_with("{\"event\":\"adapt\"") {
            // Adaptation records belong to `drugtree advisor`; here we
            // only acknowledge them so a mixed export does not report
            // them as garbage.
            self.adapts += 1;
        } else {
            self.skipped += 1;
        }
    }

    fn fold_query(&mut self, event: &QueryEvent) {
        self.queries += 1;
        self.first_started_ns = Some(
            self.first_started_ns
                .map_or(event.started_ns, |first| first.min(event.started_ns)),
        );
        self.last_ended_ns = self.last_ended_ns.max(event.ended_ns);
        let class = self.classes.entry(event.class.clone()).or_default();
        class.charged_ns.push(event.charged_ns);
        if event.breach {
            class.breaches += 1;
        }
        if let Some(hit) = event.cache_hit {
            class.probes += 1;
            if hit {
                class.hits += 1;
            }
        }
        let shape = self.shapes.entry(event.fingerprint.clone()).or_default();
        shape.count += 1;
        if event.charged_ns >= shape.max_charged_ns {
            shape.max_charged_ns = event.charged_ns;
            shape.example = event.query.clone();
        }
    }

    fn fold_window(&mut self, event: &WindowEvent) {
        self.windows += 1;
        if let Some(id) = event.scope.strip_prefix("session:") {
            if let Ok(id) = id.parse::<u32>() {
                let breaches = self.sessions.entry(id).or_default();
                *breaches = (*breaches).max(event.breaches);
            }
        }
    }

    fn fold_serve(&mut self, event: &ServeEvent) {
        let acc = self.serve.entry(event.class.clone()).or_default();
        acc.class.clone_from(&event.class);
        // The counters come from the export, so a sum may pass u64::MAX:
        // it saturates rather than panic or wrap.
        acc.admitted = acc.admitted.saturating_add(event.admitted);
        acc.shed = acc.shed.saturating_add(event.shed);
        acc.hedged = acc.hedged.saturating_add(event.hedged);
        acc.hedges_won = acc.hedges_won.saturating_add(event.hedges_won);
        acc.deadline_missed = acc.deadline_missed.saturating_add(event.deadline_missed);
        acc.outages = acc.outages.saturating_add(event.outages);
    }

    /// Query events folded in.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Window events folded in.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Lines that failed to parse.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The workload summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let span_ns = self
            .first_started_ns
            .map_or(0, |first| self.last_ended_ns.saturating_sub(first));
        let span_secs = span_ns as f64 / 1e9;
        let _ = writeln!(
            out,
            "workload: {} queries, {} window rollovers over {:.2}s virtual",
            self.queries, self.windows, span_secs
        );
        if self.adapts > 0 {
            let _ = writeln!(
                out,
                "({} adaptation records — see `drugtree advisor`)",
                self.adapts
            );
        }
        if self.skipped > 0 {
            let _ = writeln!(out, "({} unparseable lines skipped)", self.skipped);
        }
        let _ = writeln!(out);
        let header = [
            "class", "queries", "qps", "p50", "p95", "p99", "breach", "hit rate",
        ];
        let mut rows: Vec<[String; 8]> = Vec::new();
        for (label, acc) in &self.classes {
            let mut sorted = acc.charged_ns.clone();
            sorted.sort_unstable();
            let qps = if span_secs > 0.0 {
                sorted.len() as f64 / span_secs
            } else {
                0.0
            };
            let hit_rate = if acc.probes == 0 {
                "-".to_string()
            } else {
                format!("{:.2}", acc.hits as f64 / acc.probes as f64)
            };
            rows.push([
                label.clone(),
                sorted.len().to_string(),
                format!("{qps:.1}"),
                fmt_ns(exact_percentile(&sorted, 0.50)),
                fmt_ns(exact_percentile(&sorted, 0.95)),
                fmt_ns(exact_percentile(&sorted, 0.99)),
                acc.breaches.to_string(),
                hit_rate,
            ]);
        }
        render_table(&mut out, &header, &rows);
        if !self.serve.is_empty() {
            let _ = writeln!(out, "\nserving (admission / hedging / deadlines):");
            let serve_header = [
                "class", "admitted", "shed", "hedged", "won", "deadline", "outages",
            ];
            let serve_rows: Vec<[String; 7]> = self
                .serve
                .iter()
                .map(|(label, acc)| {
                    [
                        label.clone(),
                        acc.admitted.to_string(),
                        acc.shed.to_string(),
                        acc.hedged.to_string(),
                        acc.hedges_won.to_string(),
                        acc.deadline_missed.to_string(),
                        acc.outages.to_string(),
                    ]
                })
                .collect();
            render_table(&mut out, &serve_header, &serve_rows);
        }
        let mut shapes: Vec<(&String, &ShapeAccumulator)> = self.shapes.iter().collect();
        shapes.sort_by(|a, b| {
            b.1.max_charged_ns
                .cmp(&a.1.max_charged_ns)
                .then_with(|| a.0.cmp(b.0))
        });
        let _ = writeln!(out, "\ntop slow plan shapes (by worst charged latency):");
        for (fingerprint, shape) in shapes.iter().take(5) {
            let _ = writeln!(
                out,
                "  {} x{:<4} worst={} {}",
                fingerprint,
                shape.count,
                fmt_ns(shape.max_charged_ns),
                truncate(&shape.example, 60),
            );
        }
        if !self.sessions.is_empty() {
            let breaching = self.sessions.values().filter(|&&b| b > 0).count();
            let worst = self
                .sessions
                .iter()
                .max_by_key(|(id, breaches)| (**breaches, std::cmp::Reverse(**id)));
            let _ = write!(
                out,
                "\nsessions: {} with window rollovers, {} breaching",
                self.sessions.len(),
                breaching
            );
            if let Some((id, breaches)) = worst {
                let _ = write!(out, "; worst session:{id} ({breaches} breaches)");
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[derive(Debug, Default)]
struct LoopAccumulator {
    applies: u64,
    reverts: u64,
    evicts: u64,
    last_action: String,
    last_subject: String,
}

/// The self-driving layer's decision log folded from a JSONL export:
/// what `drugtree advisor` renders.
///
/// Folds only the `{"event":"adapt"}` records — a mixed export (query
/// spans, window rollovers, serve rollups interleaved with adapt
/// decisions) is the normal input, and the non-adapt records are
/// passed over silently.
#[derive(Debug, Default)]
pub struct AdvisorReport {
    loops: BTreeMap<String, LoopAccumulator>,
    timeline: Vec<AdaptEvent>,
    other_events: u64,
    skipped: u64,
}

impl AdvisorReport {
    /// Fold an export, one JSONL line per item. Non-adapt event
    /// records are counted but ignored; unparseable and over-long
    /// lines are counted, not fatal; only a read error fails.
    pub fn from_reader(reader: impl BufRead) -> std::io::Result<AdvisorReport> {
        let mut report = AdvisorReport::default();
        read_export_lines(reader, |line| match line {
            Some(line) => report.fold_line(line),
            None => report.skipped += 1,
        })?;
        Ok(report)
    }

    fn fold_line(&mut self, line: &str) {
        if line.starts_with("{\"event\":\"adapt\"") {
            match serde_json::from_str::<AdaptEvent>(line) {
                Ok(event) => self.fold_adapt(event),
                Err(_) => self.skipped += 1,
            }
        } else if line.starts_with("{\"event\":\"") {
            self.other_events += 1;
        } else {
            self.skipped += 1;
        }
    }

    fn fold_adapt(&mut self, event: AdaptEvent) {
        let acc = self.loops.entry(event.loop_name.clone()).or_default();
        match event.action.as_str() {
            "apply" => acc.applies += 1,
            "revert" => acc.reverts += 1,
            "evict" => acc.evicts += 1,
            _ => {}
        }
        acc.last_action = event.action.clone();
        acc.last_subject = event.subject.clone();
        self.timeline.push(event);
    }

    /// Adapt records folded in.
    pub fn adaptations(&self) -> u64 {
        self.timeline.len() as u64
    }

    /// Lines that failed to parse.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The advisor summary: per-loop decision counts, then the
    /// decision timeline in export order.
    pub fn render(&self) -> String {
        const TIMELINE_CAP: usize = 20;
        let mut out = String::new();
        let span_ns = match (self.timeline.first(), self.timeline.last()) {
            (Some(first), Some(last)) => last.at_ns.saturating_sub(first.at_ns),
            _ => 0,
        };
        let _ = writeln!(
            out,
            "self-driving layer: {} adaptation(s) across {} loop(s) over {:.2}s virtual",
            self.adaptations(),
            self.loops.len(),
            span_ns as f64 / 1e9,
        );
        if self.other_events > 0 {
            let _ = writeln!(
                out,
                "({} non-adapt events in export — see `drugtree top`)",
                self.other_events
            );
        }
        if self.skipped > 0 {
            let _ = writeln!(out, "({} unparseable lines skipped)", self.skipped);
        }
        let _ = writeln!(out);
        let header = ["loop", "apply", "revert", "evict", "last decision"];
        let rows: Vec<[String; 5]> = self
            .loops
            .iter()
            .map(|(name, acc)| {
                [
                    name.clone(),
                    acc.applies.to_string(),
                    acc.reverts.to_string(),
                    acc.evicts.to_string(),
                    format!("{} {}", acc.last_action, truncate(&acc.last_subject, 32)),
                ]
            })
            .collect();
        render_table(&mut out, &header, &rows);
        let _ = writeln!(out, "\ndecision timeline:");
        for event in self.timeline.iter().take(TIMELINE_CAP) {
            let _ = writeln!(
                out,
                "  [{:>9.3}s] {:<13} {:<7} {:<28} {}",
                event.at_ns as f64 / 1e9,
                event.loop_name,
                event.action,
                truncate(&event.subject, 28),
                truncate(&event.reason, 56),
            );
        }
        if self.timeline.len() > TIMELINE_CAP {
            let _ = writeln!(
                out,
                "  ... ({} more decisions)",
                self.timeline.len() - TIMELINE_CAP
            );
        }
        out
    }
}

/// Exact percentile over sorted samples (nearest-rank; 0 when empty).
fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn fmt_ns(ns: u64) -> String {
    let ms = ns as f64 / 1e6;
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else {
        format!("{ms:.1}ms")
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

fn render_table<const N: usize>(out: &mut String, header: &[&str; N], rows: &[[String; N]]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{c:<w$}", w = widths[i])
                } else {
                    format!("{c:>w$}", w = widths[i])
                }
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| (*h).to_string()).collect();
    let _ = writeln!(out, "{}", line(&header_cells));
    for row in rows {
        let _ = writeln!(out, "{}", line(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_query::obs::VecSink;
    use drugtree_query::{FleetObserver, Observer, SloPolicy};
    use std::sync::Arc;

    fn export_lines() -> Vec<String> {
        use drugtree_query::optimizer::{Optimizer, OptimizerConfig};
        use drugtree_query::parser::parse_query;
        use drugtree_query::Executor;
        use drugtree_sources::source::SourceCapabilities;
        let dataset =
            drugtree_query::dataset::test_fixtures::small_dataset(SourceCapabilities::full());
        let sink = Arc::new(VecSink::new());
        let observer = Arc::new(
            FleetObserver::with_windows(
                std::time::Duration::from_millis(10),
                8,
                SloPolicy::default(),
            )
            .with_slowlog(4)
            .with_export(Arc::clone(&sink) as Arc<dyn drugtree_query::Sink>),
        );
        let mut executor = Executor::new(Optimizer::new(OptimizerConfig::full()));
        executor.set_observer(observer as Arc<dyn Observer>);
        for text in [
            "activities in tree",
            "activities in tree where p_activity >= 6",
            "activities in tree where p_activity >= 7",
            "activities in tree top 3 by p_activity",
        ] {
            executor
                .execute(&dataset, &parse_query(text).unwrap())
                .unwrap();
        }
        sink.lines()
    }

    fn top(lines: &[impl std::borrow::Borrow<str>]) -> TopReport {
        TopReport::from_reader(lines.join("\n").as_bytes()).unwrap()
    }

    #[test]
    fn file_sink_round_trips_lines() {
        let dir = std::env::temp_dir().join("drugtree-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("export.jsonl");
        let sink = JsonlFileSink::create(&path).unwrap();
        sink.write_line("{\"event\":\"query\"}");
        sink.write_line("{\"event\":\"window\"}");
        sink.flush().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "{\"event\":\"query\"}\n{\"event\":\"window\"}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn top_report_folds_an_export() {
        let lines = export_lines();
        assert!(!lines.is_empty());
        let report = top(&lines);
        assert_eq!(report.queries(), 4);
        assert_eq!(report.skipped(), 0);
        let rendered = report.render();
        assert!(rendered.contains("workload: 4 queries"));
        assert!(rendered.contains("listing"));
        assert!(rendered.contains("filtered"));
        assert!(rendered.contains("top_k"));
        assert!(rendered.contains("top slow plan shapes"));
        // The two filtered queries share one fingerprint line.
        assert!(rendered.contains("x2"));
    }

    #[test]
    fn top_report_folds_serve_rollups() {
        let lines = [
            r#"{"event":"serve","seq":0,"class":"similarity","admitted":90,"shed":10,"hedged":4,"hedges_won":3,"deadline_missed":2,"outages":1}"#,
            r#"{"event":"serve","seq":1,"class":"similarity","admitted":10,"shed":5,"hedged":1,"hedges_won":0,"deadline_missed":0,"outages":0}"#,
            r#"{"event":"serve","seq":2,"class":"listing","admitted":7,"shed":0,"hedged":0,"hedges_won":0,"deadline_missed":0,"outages":0}"#,
        ];
        let report = top(&lines);
        assert_eq!(report.skipped(), 0);
        let rendered = report.render();
        assert!(rendered.contains("serving (admission / hedging / deadlines):"));
        // Same-class rollups are summed: 10 + 5 shed similarity queries.
        let row = rendered
            .lines()
            .find(|l| l.starts_with("similarity"))
            .unwrap();
        assert!(row.contains("100"), "admitted summed: {row}");
        assert!(row.contains("15"), "shed summed: {row}");
    }

    #[test]
    fn serve_rollups_past_u64_max_saturate() {
        let line = |seq: u64| {
            format!(
                r#"{{"event":"serve","seq":{seq},"class":"listing","admitted":{},"shed":1,"hedged":0,"hedges_won":0,"deadline_missed":0,"outages":0}}"#,
                u64::MAX - 1
            )
        };
        let report = top(&[line(0), line(1)]);
        assert_eq!(report.skipped(), 0);
        let acc = &report.serve["listing"];
        assert_eq!((acc.admitted, acc.shed), (u64::MAX, 2));
        assert!(report.render().contains(&u64::MAX.to_string()));
    }

    #[test]
    fn top_report_acknowledges_adapt_records() {
        let lines = [
            r#"{"event":"adapt","seq":0,"at_ns":100,"loop_name":"matview","action":"apply","subject":"aggregate(count)","reason":"break-even crossed","before_ns":10,"after_ns":2}"#,
        ];
        let report = top(&lines);
        assert_eq!(report.skipped(), 0, "adapt records are not garbage");
        assert!(report.render().contains("see `drugtree advisor`"));
    }

    #[test]
    fn advisor_report_folds_adapt_decisions() {
        let lines = [
            r#"{"event":"query","seq":0,"class":"listing","query":"q","fingerprint":"f","started_ns":0,"ended_ns":1,"charged_ns":1,"breach":false}"#,
            r#"{"event":"adapt","seq":1,"at_ns":1000000,"loop_name":"learned-stats","action":"apply","subject":"p_activity >=","reason":"calibrated from 8 observations","before_ns":0,"after_ns":0}"#,
            r#"{"event":"adapt","seq":2,"at_ns":5000000,"loop_name":"matview","action":"apply","subject":"aggregate(count)","reason":"break-even crossed","before_ns":900000,"after_ns":12000}"#,
            r#"{"event":"adapt","seq":3,"at_ns":9000000,"loop_name":"matview","action":"evict","subject":"aggregate(count)","reason":"idle past ttl","before_ns":0,"after_ns":0}"#,
        ];
        let report = AdvisorReport::from_reader(lines.join("\n").as_bytes()).unwrap();
        assert_eq!(report.adaptations(), 3);
        assert_eq!(report.skipped(), 0);
        let rendered = report.render();
        assert!(rendered.contains("3 adaptation(s) across 2 loop(s)"));
        assert!(rendered.contains("learned-stats"));
        assert!(rendered.contains("break-even crossed"));
        assert!(rendered.contains("idle past ttl"));
        // The matview row counts one apply and one evict.
        let row = rendered.lines().find(|l| l.starts_with("matview")).unwrap();
        assert!(
            row.contains("evict aggregate(count)"),
            "last decision: {row}"
        );
    }

    #[test]
    fn advisor_report_counts_reverts() {
        let lines = [
            r#"{"event":"adapt","seq":0,"at_ns":100,"loop_name":"learned-stats","action":"apply","subject":"p_activity","reason":"calibrated","before_ns":0,"after_ns":0}"#,
            r#"{"event":"adapt","seq":1,"at_ns":200,"loop_name":"learned-stats","action":"revert","subject":"p_activity","reason":"regret threshold","before_ns":0,"after_ns":0}"#,
            "garbage",
        ];
        let report = AdvisorReport::from_reader(lines.join("\n").as_bytes()).unwrap();
        assert_eq!(report.skipped(), 1);
        let rendered = report.render();
        let row = rendered
            .lines()
            .find(|l| l.starts_with("learned-stats"))
            .unwrap();
        assert!(row.contains("revert p_activity"), "last decision: {row}");
        assert!(rendered.contains("regret threshold"));
    }

    #[test]
    fn top_report_tolerates_garbage_lines() {
        // Nested past the JSON parser's depth bound: skipped like any
        // other malformed line, where it used to overflow the stack.
        let deep = format!("{{\"event\":\"query\",\"x\":{}", "[".repeat(300_000));
        let report = top(&["not json", "", "{\"event\":\"query\",broken", &deep]);
        assert_eq!(report.queries(), 0);
        assert_eq!(report.skipped(), 3, "blank lines are not counted");
        assert!(report.render().contains("3 unparseable"));
    }

    #[test]
    fn export_lines_are_bounded() {
        // A valid query event whose text pads the line to `len` bytes.
        let lines = export_lines();
        let query = lines
            .iter()
            .find(|l| l.starts_with("{\"event\":\"query\""))
            .unwrap();
        let padded = |len: usize| {
            let pad = "q".repeat(len - query.len());
            query.replacen("\"query\":\"", &format!("\"query\":\"{pad}"), 1)
        };
        let (at, past) = (
            padded(MAX_EXPORT_LINE_BYTES),
            padded(MAX_EXPORT_LINE_BYTES + 1),
        );
        assert_eq!(at.len(), MAX_EXPORT_LINE_BYTES);
        // The over-long line is skipped mid-export and at its end, and
        // the lines beside it still fold, whatever the read chunking.
        let export = [&at, &past, &at, &past].map(String::as_str).join("\n");
        for capacity in [7, 8 * 1024] {
            let reader = std::io::BufReader::with_capacity(capacity, export.as_bytes());
            let report = TopReport::from_reader(reader).unwrap();
            assert_eq!((report.queries(), report.skipped()), (2, 2), "{capacity}");
        }
    }
}
