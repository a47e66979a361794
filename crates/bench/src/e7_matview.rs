//! E7 (Table 3): materialized aggregate view — build cost vs query
//! speedup, and staleness handling under source refresh.
//!
//! Paper-shape expectation: the view answers per-clade aggregates with
//! zero source work, so its build cost amortizes after a handful of
//! aggregate queries; after new remote depositions it is detected
//! stale and a rebuild restores service.

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_query::local::{Keep, LocalBuild};
use drugtree_sources::assay_db::assay_row;
use drugtree_sources::source::SourceKind;
use drugtree_workload::queries::{class_stream, QueryClass, QueryWorkloadConfig};
use std::time::Duration;

/// Run E7.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, n_queries) = if config.quick { (64, 10) } else { (512, 60) };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(leaves / 8)
            .seed(808),
    );
    let queries = class_stream(
        QueryClass::Aggregate,
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: n_queries,
            seed: 88,
            scope_theta: 0.8,
        },
    );

    let measure = |with_view: bool| -> (Duration, Duration) {
        let mut builder = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(if with_view {
                OptimizerConfig::full()
            } else {
                OptimizerConfig::ablate("use_matview").expect("known rule")
            });
        if with_view {
            builder = builder.with_matview();
        }
        let system = builder.build().expect("builds");
        let start = system.dataset().clock.now();
        let latencies: Vec<Duration> = queries
            .iter()
            .map(|q| system.execute(q).expect("executes").metrics.virtual_cost)
            .collect();
        let _ = start;
        (mean(&latencies), latencies.iter().sum())
    };

    let (without_mean, without_total) = measure(false);
    let (with_mean, with_total) = measure(true);

    // Build cost measured directly.
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .expect("builds");
    let view = LocalBuild::build(system.dataset(), Keep::View).expect("view builds");
    let build_cost = view.build_cost;
    let fresh_before = view.is_fresh(system.dataset().source_epoch());

    // Simulate a remote deposition: the view must detect staleness.
    let assay = &system.dataset().registry.by_kind(SourceKind::Assay)[0];
    let new_record = drugtree_chem::affinity::ActivityRecord {
        protein_accession: "P0000".into(),
        ligand_id: "L0000".into(),
        activity_type: drugtree_chem::ActivityType::Ki,
        value_nm: 77.0,
        source: "late-deposition".into(),
        year: 2013,
    };
    assay
        .ingest(assay_row(&new_record))
        .expect("source accepts ingest");
    let fresh_after = view.is_fresh(system.dataset().source_epoch());

    let mut table = ExperimentTable::new(
        "E7 (Table 3)",
        format!("materialized aggregate view, {n_queries} aggregate queries"),
        vec!["metric", "value"],
    );
    table.row(vec!["view build cost".into(), fmt_ms(build_cost)]);
    table.row(vec![
        "mean aggregate latency without view".into(),
        fmt_ms(without_mean),
    ]);
    table.row(vec![
        "mean aggregate latency with view".into(),
        fmt_ms(with_mean),
    ]);
    let speedup = without_mean.as_secs_f64() / with_mean.as_secs_f64().max(1e-9);
    table.row(vec![
        "speedup".into(),
        if speedup > 1000.0 {
            ">1000x".into()
        } else {
            format!("{speedup:.0}x")
        },
    ]);
    let breakeven = (build_cost.as_secs_f64()
        / (without_mean.as_secs_f64() - with_mean.as_secs_f64()).max(1e-12))
    .ceil();
    table.row(vec![
        "break-even query count".into(),
        format!("{breakeven:.0}"),
    ]);
    table.row(vec![
        format!("workload total without/with view"),
        format!("{} / {}", fmt_ms(without_total), fmt_ms(with_total)),
    ]);
    table.row(vec![
        "fresh before remote deposition".into(),
        fresh_before.to_string(),
    ]);
    table.row(vec![
        "fresh after remote deposition".into(),
        fresh_after.to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_wins_and_staleness_detected() {
        let t = run(RunConfig { quick: true });
        let find = |name: &str| -> String {
            t.rows
                .iter()
                .find(|r| r[0].contains(name))
                .unwrap_or_else(|| panic!("row {name} missing"))[1]
                .clone()
        };
        let speedup = find("speedup");
        let speedup: f64 = speedup
            .trim_start_matches('>')
            .trim_end_matches('x')
            .parse()
            .expect("parses");
        assert!(speedup > 5.0, "view speedup too small: {speedup}");
        assert_eq!(find("fresh before"), "true");
        assert_eq!(find("fresh after"), "false");
        let breakeven: f64 = find("break-even").parse().expect("parses");
        assert!((1.0..100.0).contains(&breakeven), "break-even {breakeven}");
    }
}
