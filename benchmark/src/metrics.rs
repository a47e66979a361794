//! The benchmark's metric vocabulary. `BENCHMARK.json` at the root of
//! the repo lists the same names; a unit test keeps the two in step.

use drugtree_query::QueryClass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    pub value: f64,
    pub unit: String,
}

pub type Metrics = BTreeMap<String, Measurement>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it; read by the test that compares
    /// this file with the manifest.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, measured with tracing
/// off. `bound` is the share of the parent commit's median by which a
/// change may worsen it before the change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Measured from real hardware on every workload, and never zero.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_us_tail",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A metric of one layer, or one that is exact rather than measured.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    /// Per-layer metrics carry no bound, so nothing at run time
    /// depends on the direction; the manifest test reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

/// Gesture kinds the mobile layer times separately.
pub const GESTURE_KINDS: [&str; 5] = ["pan", "zoom_in", "zoom_out", "expand", "inspect"];

/// Stages of the library's query trace that carry charged time.
pub const STAGE_NAMES: [&str; 6] = [
    "plan",
    "cache_probe",
    "fetch",
    "compute",
    "overlay",
    "finish",
];

/// Every per-layer metric, in the order the README explains them.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed = |name: &str, unit, better| PerLayer {
        name: name.to_string(),
        unit,
        better,
    };
    let mut out = vec![
        // Virtual-clock and counted figures of the untraced run: exact
        // for a given seed, so they carry no bound; `--check-repeat`
        // demands that they repeat to the last digit instead.
        fixed("charged_ms_p50", "ms", Lower),
        fixed("charged_ms_p99", "ms", Lower),
        fixed("virtual_ops_per_s", "ops/s", Higher),
        fixed("source_requests_per_op", "count", Lower),
        fixed("payload_bytes_per_op", "B", Lower),
        fixed("error_rate", "fraction", Lower),
        // The traced run's own speed: set against `wall_ops_per_s` it
        // gives the tracing overhead.
        fixed("trace.wall_ops_per_s", "ops/s", Higher),
        // Set-up, by step.
        fixed("workload.generate_s", "s", Lower),
        fixed("integrate.build_dataset_s", "s", Lower),
        fixed("core.build_s", "s", Lower),
        fixed("phylo.index_build_us", "us", Lower),
        fixed("mobile.layout_compute_us", "us", Lower),
        // query::parser, query::optimizer/phases.
        fixed("query.parse_us_p50", "us", Lower),
        fixed("query.plan_us_p50", "us", Lower),
        fixed("query.plan_us_p99", "us", Lower),
        // query::exec + query::cache.
        fixed("query.execute_hit_us_p50", "us", Lower),
        fixed("query.execute_hit_us_p99", "us", Lower),
        fixed("query.execute_miss_us_p50", "us", Lower),
        fixed("query.execute_miss_us_p99", "us", Lower),
    ];
    out.extend(QueryClass::ALL.map(|class| {
        fixed(
            &format!("query.execute_us_p50.{}", class.label()),
            "us",
            Lower,
        )
    }));
    out.extend([
        fixed("query.cache_hit_rate", "fraction", Higher),
        fixed("query.cache_evictions_per_op", "count", Lower),
        fixed("query.rows_returned_per_op", "count", Lower),
        fixed("query.rows_fetched_per_op", "count", Lower),
    ]);
    // query::trace: charged virtual time by stage.
    out.extend(
        STAGE_NAMES.map(|stage| fixed(&format!("query.stage_charged_ms.{stage}"), "ms", Lower)),
    );
    out.extend([
        // sources.
        fixed("sources.rows_shipped_per_op", "count", Lower),
        fixed("sources.retries_per_op", "count", Lower),
        fixed("sources.fetch_call_us_p50", "us", Lower),
        // store, query::columnar, query::matview.
        fixed("store.kernel_filter_ns_per_row", "ns", Lower),
        fixed("store.kernel_sum_ns_per_row", "ns", Lower),
        fixed("store.columnar_bytes_per_record", "B", Lower),
        fixed("query.matview_lookup_ns", "ns", Lower),
        // chem.
        fixed("chem.tanimoto_ns_per_pair", "ns", Lower),
        fixed("chem.fingerprint_us_per_mol", "us", Lower),
    ]);
    // mobile.
    out.extend(
        GESTURE_KINDS.map(|kind| fixed(&format!("mobile.gesture_us_p50.{kind}"), "us", Lower)),
    );
    out.extend([
        fixed("mobile.begin_gesture_us_p50", "us", Lower),
        fixed("mobile.commit_query_us_p50", "us", Lower),
        fixed("mobile.render_visible_us_p50", "us", Lower),
        fixed("mobile.delivery_us_p50", "us", Lower),
        fixed("mobile.session_new_us", "us", Lower),
        // core::sched, core::serve.
        fixed("core.fleet_run_s", "s", Lower),
        fixed("core.sched_events_per_op", "count", Lower),
        fixed("core.flights_per_op", "count", Lower),
        fixed("core.flight_join_ratio", "fraction", Higher),
        fixed("core.mailbox_waits_per_op", "count", Lower),
        fixed("core.sched_overhead_us_per_op", "us", Lower),
    ]);
    out
}

/// Per-layer metrics that do not need the traced run: the exact
/// figures, which the untraced run reports as well.
pub const EXACT: [&str; 6] = [
    "charged_ms_p50",
    "charged_ms_p99",
    "virtual_ops_per_s",
    "source_requests_per_op",
    "payload_bytes_per_op",
    "error_rate",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The root manifest, as far as this crate needs to read it.
    #[derive(Deserialize)]
    struct Manifest {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Named>,
        end_to_end: Vec<Listed>,
        per_layer: Vec<Listed>,
    }

    #[derive(Deserialize)]
    struct Named {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct Listed {
        name: String,
        unit: String,
        better: String,
        bound: Option<f64>,
    }

    fn manifest() -> Manifest {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let m = manifest();
        let listed: Vec<_> = m
            .end_to_end
            .iter()
            .map(|e| (e.name.as_str(), e.unit.as_str(), e.better.as_str(), e.bound))
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit, e.better.label(), Some(e.bound)))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<_> = m
            .per_layer
            .iter()
            .map(|e| (e.name.clone(), e.unit.clone(), e.better.clone(), e.bound))
            .collect();
        let ours: Vec<_> = per_layer()
            .into_iter()
            .map(|e| {
                (
                    e.name,
                    e.unit.to_string(),
                    e.better.label().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let m = manifest();
        let listed: Vec<&str> = m.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(listed, ours);
        assert!(m
            .workloads
            .iter()
            .all(|w| !w.why.is_empty() && w.why.len() <= 200));
        assert_eq!(m.paths, ["benchmark"]);
        assert_eq!(m.command, ["bash", "benchmark/run.sh"]);
        assert!((1..=60).contains(&m.run_seconds));
        assert_eq!(m.run_seconds as f64, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn metric_names_fit_the_contract() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|e| e.name.to_string())
            .chain(per_layer().into_iter().map(|e| e.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");
        assert!(EXACT
            .iter()
            .all(|e| per_layer().iter().any(|p| p.name == *e)));
    }
}
