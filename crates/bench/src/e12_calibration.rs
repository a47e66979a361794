//! E12: cost-model calibration — planner estimate error before/after
//! online calibration, and plan-choice wins of the cost-based planner
//! over the fixed rule order.
//!
//! Setup: two assay replicas holding identical data with opposite cost
//! shapes — a "thin" endpoint (low RTT, expensive per row) and a "fat"
//! endpoint (high RTT, nearly free rows). The fixed heuristic scores
//! replicas at a nominal 100 rows and always picks the thin one; the
//! calibrated cost model learns both sources' true parameters from
//! observed fetch latencies and routes large scans to the fat replica.
//!
//! Paper-shape expectation: calibration cuts the mean relative
//! estimate error by well over 2x, and the cost-based planner beats
//! the fixed order on charged latency for scan-heavy query classes.

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_integrate::overlay::OverlayBuilder;
use drugtree_phylo::index::TreeIndex;
use drugtree_query::Dataset;
use drugtree_sources::assay_db::assay_source;
use drugtree_sources::clock::VirtualClock;
use drugtree_sources::federation::SourceRegistry;
use drugtree_sources::latency::LatencyModel;
use drugtree_sources::source::SourceCapabilities;
use drugtree_workload::queries::{class_stream, QueryClass, QueryWorkloadConfig};
use std::sync::Arc;
use std::time::Duration;

/// CI regression ceiling: mean relative estimate error after
/// calibration must stay below this (the uncalibrated prior sits far
/// above it on the E12 fixture).
pub const CALIBRATED_ERROR_CEILING: f64 = 0.20;

/// A zero-jitter latency model so calibration fits exact parameters.
fn exact(base_rtt: Duration, per_row: Duration) -> LatencyModel {
    LatencyModel {
        base_rtt,
        per_row,
        per_row_scanned: Duration::ZERO,
        jitter: 0.0,
        seed: 0,
    }
}

/// The replica-tradeoff dataset: both replicas hold every activity.
/// "thin" wins the fixed heuristic (scored at a nominal 100 rows);
/// "fat" is truly cheaper for any scan beyond ~110 rows.
fn tradeoff_dataset(bundle: &SyntheticBundle) -> Dataset {
    let overlay = OverlayBuilder::new(&bundle.tree, &bundle.index)
        .build(&bundle.proteins, &bundle.ligands)
        .expect("synthetic inputs are resolvable");
    let mut registry = SourceRegistry::new();
    let caps = SourceCapabilities::full();
    registry
        .register(Arc::new(
            assay_source(
                "assay-thin",
                &bundle.activities,
                caps,
                exact(Duration::from_millis(15), Duration::from_millis(1)),
            )
            .expect("valid records"),
        ))
        .expect("unique");
    registry
        .register(Arc::new(
            assay_source(
                "assay-fat",
                &bundle.activities,
                caps,
                exact(Duration::from_millis(120), Duration::from_micros(10)),
            )
            .expect("valid records"),
        ))
        .expect("unique");
    registry
        .declare_replicas(vec!["assay-thin".into(), "assay-fat".into()])
        .expect("members registered");
    let tree = bundle.tree.clone();
    let index = TreeIndex::build(&tree);
    Dataset::new(tree, index, overlay, registry, VirtualClock::new()).expect("dataset assembles")
}

/// Run E12.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, ligands, per_class) = if config.quick {
        (96, 32, 8)
    } else {
        (256, 64, 40)
    };
    let mut spec = WorkloadSpec::default()
        .leaves(leaves)
        .ligands(ligands)
        .seed(1212);
    // Dense overlay: the thin-vs-fat tradeoff only bites past the
    // ~106-row crossover, so large scans must ship hundreds of rows.
    spec.assay.hit_density = 3.0;
    spec.assay.off_target_rate = 0.05;
    let bundle = SyntheticBundle::generate(&spec);

    let stream = |class: QueryClass, len: usize, seed: u64| {
        class_stream(
            class,
            &bundle.tree,
            &bundle.index,
            &bundle.ligands,
            &QueryWorkloadConfig {
                len,
                seed,
                scope_theta: 0.8,
            },
        )
    };

    // --- Estimate error, before vs after calibration -----------------
    let system = DrugTree::builder()
        .dataset(tradeoff_dataset(&bundle))
        .with_cost_based_planner()
        .build()
        .expect("system builds");
    let warmup = stream(QueryClass::SubtreeListing, per_class * 2, 3);
    let probe = stream(QueryClass::SubtreeListing, per_class, 7);

    // Phase A: learning frozen — every estimate is priced off the
    // generic prior, so the accumulated error is the uncalibrated one.
    system.executor().cost_model().set_learning(false);
    for q in &warmup {
        system.executor().invalidate();
        system.execute(q).expect("query executes");
    }
    let err_before = system.calibration().mean_rel_error;

    // Phase B: learn from the same traffic, then measure the error of
    // fresh queries under the fitted per-source parameters.
    system.executor().cost_model().set_learning(true);
    for q in &warmup {
        system.executor().invalidate();
        system.execute(q).expect("query executes");
    }
    system.executor().cost_model().reset_errors();
    for q in &probe {
        system.executor().invalidate();
        system.execute(q).expect("query executes");
    }
    let after = system.calibration();
    let err_after = after.mean_rel_error;

    // --- Plan-choice wins: fixed order vs calibrated cost model ------
    let fixed = DrugTree::builder()
        .dataset(tradeoff_dataset(&bundle))
        .optimizer(OptimizerConfig::full())
        .build()
        .expect("system builds");

    let mut table = ExperimentTable::new(
        "E12",
        format!("cost-model calibration, {leaves} leaves, thin-vs-fat replica tradeoff"),
        vec!["metric", "fixed", "cost-based", "factor"],
    );
    table.row(vec![
        "mean relative estimate error (uncalibrated / calibrated)".into(),
        format!("{err_before:.3}"),
        format!("{err_after:.3}"),
        format!("{:.1}x", err_before / err_after.max(1e-9)),
    ]);

    for class in QueryClass::ALL {
        let queries = stream(class, per_class, 11);
        let charged = |s: &DrugTree| -> Duration {
            let latencies: Vec<Duration> = queries
                .iter()
                .map(|q| {
                    s.executor().invalidate();
                    s.execute(q).expect("query executes").metrics.charged_cost
                })
                .collect();
            mean(&latencies)
        };
        let fixed_mean = charged(&fixed);
        let cost_mean = charged(&system);
        table.row(vec![
            format!("{} mean charged latency", class.label()),
            fmt_ms(fixed_mean),
            fmt_ms(cost_mean),
            format!(
                "{:.2}x",
                fixed_mean.as_secs_f64() / cost_mean.as_secs_f64().max(1e-9)
            ),
        ]);
    }

    table.note(format!(
        "{} activity records; {} calibration observations; \
         thin replica 15ms RTT + 1ms/row, fat replica 120ms RTT + 10us/row; \
         fixed heuristic scores replicas at a nominal 100 rows",
        bundle.activities.len(),
        after.observations,
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles as the CI calibration-regression check: estimate error
    /// after calibration must stay under [`CALIBRATED_ERROR_CEILING`]
    /// and improve at least 2x over the uncalibrated prior, and the
    /// cost-based planner must win at least one query class outright.
    #[test]
    fn calibration_cuts_error_and_wins_a_class() {
        let t = run(RunConfig { quick: true });
        let err_row = t
            .rows
            .iter()
            .find(|r| r[0].contains("estimate error"))
            .expect("error row present");
        let before: f64 = err_row[1].parse().expect("parses");
        let after: f64 = err_row[2].parse().expect("parses");
        assert!(
            after < CALIBRATED_ERROR_CEILING,
            "calibrated error regressed: {after} >= {CALIBRATED_ERROR_CEILING}"
        );
        assert!(
            before >= 2.0 * after.max(1e-9),
            "calibration should cut error >=2x: before {before}, after {after}"
        );

        let wins = t
            .rows
            .iter()
            .filter(|r| r[0].contains("charged latency"))
            .filter(|r| {
                let factor: f64 = r[3].trim_end_matches('x').parse().expect("parses");
                factor > 1.0
            })
            .count();
        assert!(wins >= 1, "cost-based planner should win a class\n{t:?}");

        // Regression pin for the affinity-filter class. Before the
        // optimizer priced pushed conjuncts with their local column
        // forms, the `p_activity` bound (translated to `value_nm` for
        // the wire) missed the overlay histogram, the row estimate
        // defaulted to the 0.5 guess, and the cost-based planner routed
        // affinity scans to the thin replica — a 0.80x loss to the
        // fixed order. With histogram selectivity it must at least
        // match the fixed pipeline.
        let affinity = t
            .rows
            .iter()
            .find(|r| r[0].starts_with("affinity_filter"))
            .expect("affinity row present");
        let factor: f64 = affinity[3].trim_end_matches('x').parse().expect("parses");
        assert!(
            factor >= 1.0,
            "cost-based must not lose the affinity class: {factor}x\n{t:?}"
        );
    }
}
