//! E13: query-path observability — per-class latency breakdown from
//! the [`MetricsRegistry`] observer, and the null-observer overhead
//! check.
//!
//! The same E1 traffic runs twice per class: once with a
//! `MetricsRegistry` installed through `with_observer` (every query
//! folds a trace into lock-free counters/histograms) and once with no
//! observer (the executor's null-observer fast path, which builds no
//! spans at all). Latencies are virtual-clock measurements and tracing
//! never charges the clock, so the observed/baseline ratio must be
//! exactly 1.0 — the quick run doubles as the CI overhead assertion.
//!
//! A third observed run per class has the columnar activity mirror
//! built (`with_columnar`): the breakdown then shifts from fetch-
//! dominated to [`Stage::Compute`]-dominated, and the `local mean` /
//! `compute share` columns quantify the local-compute path the
//! federated columns cannot show (design decision D12).

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_query::{MetricsRegistry, Stage};
use drugtree_workload::queries::{class_stream, QueryClass, QueryWorkloadConfig};
use std::sync::Arc;
use std::time::Duration;

/// CI ceiling on observer overhead: mean latency with the registry
/// installed may differ from the null-observer baseline by at most 2%.
/// (On the virtual clock the difference is exactly zero; the slack
/// only exists so a future wall-clock port of this check stays sane.)
pub const NULL_OBSERVER_OVERHEAD_CEILING: f64 = 0.02;

/// Run E13.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, ligands, per_class) = if config.quick {
        (64, 16, 8)
    } else {
        (512, 64, 50)
    };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(ligands)
            .seed(101),
    );

    let mut table = ExperimentTable::new(
        "E13",
        format!("query-path latency breakdown, {leaves} leaves, {per_class} queries/class"),
        vec![
            "class",
            "mean latency",
            "fetch share",
            "hit rate",
            "rows/query",
            "reqs/query",
            "local mean",
            "compute share",
            "obs/null ratio",
        ],
    );

    for class in QueryClass::ALL {
        let queries = class_stream(
            class,
            &bundle.tree,
            &bundle.index,
            &bundle.ligands,
            &QueryWorkloadConfig {
                len: per_class,
                seed: 61,
                scope_theta: 0.8,
            },
        );

        // Mean latency, and the cache's hit rate over the stream.
        let run_stream =
            |observer: Option<Arc<MetricsRegistry>>, columnar: bool| -> (Duration, Option<f64>) {
                let mut builder = DrugTree::builder()
                    .dataset(bundle.build_dataset())
                    .optimizer(OptimizerConfig::full());
                if let Some(registry) = observer {
                    builder = builder.with_observer(registry);
                }
                if columnar {
                    builder = builder.with_columnar();
                }
                let system = builder.build().expect("system builds");
                let latencies: Vec<Duration> = queries
                    .iter()
                    .map(|q| {
                        system
                            .execute(q)
                            .expect("query executes")
                            .metrics
                            .virtual_cost
                    })
                    .collect();
                (mean(&latencies), system.executor().cache_stats().hit_rate())
            };

        let registry = Arc::new(MetricsRegistry::new());
        let (observed_mean, hit_rate) = run_stream(Some(Arc::clone(&registry)), false);
        let (baseline_mean, _) = run_stream(None, false);
        let ratio = observed_mean.as_secs_f64() / baseline_mean.as_secs_f64().max(1e-12);

        // Same traffic with the columnar mirror built: the trace's
        // cost mass moves from the fetch stages to Stage::Compute.
        let local_registry = Arc::new(MetricsRegistry::new());
        let (local_mean, _) = run_stream(Some(Arc::clone(&local_registry)), true);
        let local_query_ns = local_registry.stage_nanos(Stage::Query).max(1);
        let compute_ns = local_registry.stage_nanos(Stage::Compute);

        let n = registry.queries.get().max(1);
        let query_ns = registry.stage_nanos(Stage::Query).max(1);
        let fetch_ns = registry.stage_nanos(Stage::Fetch);
        table.row(vec![
            class.label().to_string(),
            fmt_ms(observed_mean),
            format!("{:.0}%", 100.0 * fetch_ns as f64 / query_ns as f64),
            hit_rate.map_or_else(|| "-".to_string(), |rate| format!("{rate:.2}")),
            format!("{:.1}", registry.rows_fetched.get() as f64 / n as f64),
            format!("{:.2}", registry.source_requests.get() as f64 / n as f64),
            fmt_ms(local_mean),
            format!("{:.0}%", 100.0 * compute_ns as f64 / local_query_ns as f64),
            format!("{ratio:.4}"),
        ]);
    }

    // Per-gesture network-vs-compute: one 4G browsing session with the
    // registry installed; the session fires `Observer::on_gesture`.
    let registry = Arc::new(MetricsRegistry::new());
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .with_observer(registry.clone() as Arc<dyn drugtree_query::Observer>)
        .build()
        .expect("system builds");
    let script = drill_down_script(
        &bundle.tree,
        &bundle.index,
        &GestureConfig {
            len: per_class * 4,
            seed: 3,
            zipf_theta: 1.0,
            revisit_prob: 0.35,
        },
    );
    let mut session = system.mobile_session(NetworkProfile::CELL_4G);
    for gesture in &script {
        session.apply(gesture).expect("gesture applies");
    }
    let compute = registry.gesture_compute.snapshot();
    let network = registry.gesture_network.snapshot();

    table.note(format!(
        "{} activity records; web-API latency model; 4G session of {} gestures: \
         mean compute {} vs mean network {} per gesture",
        bundle.activities.len(),
        registry.gestures.get(),
        fmt_ms(Duration::from_nanos(compute.mean() as u64)),
        fmt_ms(Duration::from_nanos(network.mean() as u64)),
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles as the CI null-observer overhead assertion: installing
    /// the metrics registry must not change query latency by more than
    /// [`NULL_OBSERVER_OVERHEAD_CEILING`] for any class (on the
    /// virtual clock the ratio is exactly 1).
    #[test]
    fn observer_adds_no_measurable_latency() {
        let t = run(RunConfig { quick: true });
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            let ratio: f64 = row[8].parse().expect("ratio parses");
            assert!(
                (ratio - 1.0).abs() < NULL_OBSERVER_OVERHEAD_CEILING,
                "{} observer overhead out of bounds: {row:?}",
                row[0]
            );
            let share: f64 = row[2].trim_end_matches('%').parse().expect("share parses");
            assert!(
                (0.0..=100.0).contains(&share),
                "{} fetch share implausible: {row:?}",
                row[0]
            );
        }
    }

    /// With the columnar mirror built the breakdown must show actual
    /// local compute: a nonzero `compute share` and a `local mean`
    /// below the federated mean for every class.
    #[test]
    fn columnar_run_shows_local_compute_share() {
        let t = run(RunConfig { quick: true });
        for row in &t.rows {
            let compute: f64 = row[7].trim_end_matches('%').parse().expect("share parses");
            assert!(
                compute > 0.0 && compute <= 100.0,
                "{} compute share not in (0, 100]: {row:?}",
                row[0]
            );
            let federated: f64 = row[1].trim_end_matches("ms").parse().expect("parses");
            let local: f64 = row[6].trim_end_matches("ms").parse().expect("parses");
            assert!(
                local < federated,
                "{} local compute not faster than federated: {row:?}",
                row[0]
            );
        }
    }
}
