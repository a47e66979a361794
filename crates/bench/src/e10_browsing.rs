//! E10 (extension): cache hit rate by browsing pattern.
//!
//! Not part of the reconstructed poster evaluation. A drill-down
//! session's next clade lies inside one it just opened, so the
//! semantic cache answers it by containment. A lateral session (paging
//! through sibling clades) gets no containment hit: it hits only when
//! its walk comes back to a clade whose entry the cache kept. Its rate
//! is therefore a check on admission: a result larger than the row
//! budget is declined, so it cannot wipe the entries a lateral walk
//! returns to. EXPERIMENTS.md keeps the tables of the gated prefetcher
//! that this measurement retired.

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_mobile::gestures::lateral_script;
use drugtree_mobile::Gesture;
use drugtree_query::cache::CacheConfig;
use std::time::Duration;

/// Run E10.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, gestures) = if config.quick { (64, 60) } else { (512, 300) };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(leaves / 8)
            .seed(1010),
    );
    let scripts: Vec<(&str, Vec<Gesture>)> = vec![
        (
            "drill-down",
            drill_down_script(
                &bundle.tree,
                &bundle.index,
                &GestureConfig {
                    len: gestures,
                    seed: 17,
                    zipf_theta: 0.6,
                    revisit_prob: 0.2,
                },
            ),
        ),
        (
            "lateral",
            lateral_script(
                &bundle.tree,
                &bundle.index,
                &GestureConfig {
                    len: gestures,
                    seed: 17,
                    zipf_theta: 0.0,
                    revisit_prob: 0.0,
                },
            ),
        ),
    ];

    let mut table = ExperimentTable::new(
        "E10 (extension)",
        format!("cache hit rate by browsing pattern, {gestures} gestures"),
        vec!["script", "hit rate", "mean query latency", "source reqs"],
    );

    for (name, script) in &scripts {
        let system = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(OptimizerConfig::full())
            .cache(CacheConfig {
                max_entries: 24,
                max_rows: bundle.activities.len() / 2,
            })
            .build()
            .expect("system builds");
        let mut session = system.mobile_session(NetworkProfile::CELL_4G);
        let mut latencies: Vec<Duration> = Vec::new();
        let mut hits = 0usize;
        let mut queries = 0usize;
        for g in script {
            let r = session.apply(g).expect("gesture applies");
            if let Some(hit) = r.cache_hit {
                queries += 1;
                latencies.push(r.query_latency);
                hits += usize::from(hit);
            }
        }
        let requests: u64 = system
            .dataset()
            .registry
            .all()
            .iter()
            .map(|s| s.metrics().requests)
            .sum();
        table.row(vec![
            name.to_string(),
            format!("{:.0}%", 100.0 * hits as f64 / queries.max(1) as f64),
            fmt_ms(mean(&latencies)),
            requests.to_string(),
        ]);
    }
    table.note("cache: 24 entries, half the activity rows; a larger result is declined");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lateral walk comes back to clades it opened before. Those hits
    /// need their entries to outlive a result larger than the row
    /// budget: admitting such a result, and then evicting it with
    /// everything older, cut the rate to 13%.
    #[test]
    fn lateral_sessions_hit_the_cache() {
        let t = run(RunConfig { quick: true });
        assert_eq!(t.rows.len(), 2);
        let lateral = t.rows.iter().find(|r| r[0] == "lateral").expect("row");
        let rate: f64 = lateral[1].trim_end_matches('%').parse().expect("parses");
        assert!(rate >= 50.0, "lateral hit rate {rate}%: {t:?}");
    }
}
