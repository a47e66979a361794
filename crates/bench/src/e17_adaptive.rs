//! E17: closing the telemetry → optimizer feedback loop.
//!
//! One deployment runs an aggregate stream that heats the
//! auto-materialization advisor. The sweep compares two modes:
//!
//! - **off**: no adaptive runtime: the loop does not run.
//! - **on**: the loop is live.
//!
//! Paper-shape expectation: the loop closes — the aggregate shape is
//! auto-materialized past break-even and later aggregates cost
//! nothing. The whole sweep is virtual-clock deterministic: a double
//! run renders byte-identically, adapt-event stream included (pinned
//! by the `adapt digest` column).

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_query::parser::parse_query;
use drugtree_query::AdaptiveRuntime;
use std::sync::Arc;
use std::time::Duration;

/// FNV-1a over the exported adapt-event stream: one hex cell pins the
/// whole decision log, so the benchdiff baseline (and the double-run
/// test) catches any drift in what the loop decided.
fn digest(lines: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Run E17.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, agg_n) = if config.quick { (96, 24) } else { (256, 60) };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(leaves / 4)
            .seed(1717),
    );
    let aggregate = parse_query("aggregate count in tree").expect("parses");

    let mut table = ExperimentTable::new(
        "E17",
        format!("telemetry-to-optimizer feedback loop, {leaves} leaves, adaptation off vs on"),
        vec!["mode", "auto-built", "agg mean latency", "adapt digest"],
    );

    for adaptive in [false, true] {
        let sink = Arc::new(VecSink::new());
        let runtime = adaptive.then(|| {
            Arc::new(AdaptiveRuntime::new().with_export(Arc::clone(&sink) as Arc<dyn Sink>))
        });
        let mut builder = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(OptimizerConfig::full());
        if let Some(rt) = &runtime {
            builder = builder.with_adaptive(Arc::clone(rt));
        }
        let system = builder.build().expect("system builds");

        // The aggregate stream: repeated whole-tree aggregates
        // (cache invalidated between, as a refreshing deployment sees
        // them) accumulate foregone cost in the advisor; in `on` mode
        // it crosses break-even mid-stream and later queries are
        // served from the auto-built view.
        let mut agg_latencies: Vec<Duration> = Vec::with_capacity(agg_n);
        for _ in 0..agg_n {
            system.executor().invalidate();
            let r = system.execute(&aggregate).expect("aggregate executes");
            agg_latencies.push(r.metrics.charged_cost);
        }

        let built = runtime.as_ref().map_or(0, |rt| {
            let advisor = rt.snapshot().advisor;
            advisor.evictions + u64::from(advisor.built)
        });
        table.row(vec![
            if adaptive {
                "adaptation on"
            } else {
                "adaptation off"
            }
            .into(),
            built.to_string(),
            fmt_ms(mean(&agg_latencies)),
            if adaptive {
                digest(&sink.lines())
            } else {
                "-".into()
            },
        ]);
    }

    table.note(format!(
        "{agg_n} aggregates; break-even proxy = statistics collection cost"
    ));
    table.note(
        "agg latency spans pre- and post-materialization queries; the adapt digest pins the \
         exported decision stream byte-for-byte",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'t>(t: &'t ExperimentTable, mode: &str, col: &str) -> &'t str {
        let ci = t.headers.iter().position(|h| h == col).expect("column");
        let row = t.rows.iter().find(|r| r[0] == mode).expect("row");
        &row[ci]
    }

    /// The acceptance sweep: the loop visibly closes in `on` mode and
    /// the control arm stays inert.
    #[test]
    fn feedback_loops_close_and_controls_stay_inert() {
        let t = run(RunConfig { quick: true });
        assert_eq!(t.rows.len(), 2);

        // Auto-materialization: the shape is built in `on`, nothing in
        // `off`, and the view pays: the aggregate stream gets cheaper.
        assert_eq!(cell(&t, "adaptation on", "auto-built"), "1", "{t:?}");
        assert_eq!(cell(&t, "adaptation off", "auto-built"), "0");
        let agg = |mode: &str| -> f64 {
            let ms = cell(&t, mode, "agg mean latency").trim_end_matches("ms");
            ms.parse().expect("parses")
        };
        assert!(
            agg("adaptation on") < agg("adaptation off"),
            "the view must pay for itself: {t:?}"
        );
    }

    /// The whole sweep is virtual-clock deterministic: two runs render
    /// byte-identically, adapt-event digests included.
    #[test]
    fn double_run_is_byte_identical() {
        let a = run(RunConfig { quick: true }).render();
        let b = run(RunConfig { quick: true }).render();
        assert_eq!(a, b, "E17 must replay byte-identically");
    }
}
