//! E3 (Fig 2): semantic-cache effectiveness in interactive sessions.
//!
//! Paper-shape expectation: hit rate rises with session locality
//! (Zipf θ), and cache hits cost ~zero source latency, so the mean
//! per-query latency drops with it.

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_query::cache::CacheConfig;
use std::time::Duration;

/// Run E3.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, gestures) = if config.quick { (64, 60) } else { (512, 400) };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(leaves / 8)
            .seed(303),
    );

    let mut table = ExperimentTable::new(
        "E3 (Fig 2)",
        format!("cache effectiveness vs session locality, {gestures}-gesture sessions"),
        vec![
            "zipf theta",
            "queries",
            "hit rate",
            "mean query latency",
            "miss latency",
        ],
    );

    for theta in [0.0, 0.5, 1.0, 2.0] {
        let script = drill_down_script(
            &bundle.tree,
            &bundle.index,
            &GestureConfig {
                len: gestures,
                seed: 404,
                zipf_theta: theta,
                revisit_prob: 0.4,
            },
        );
        let system = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(OptimizerConfig::full())
            // Cache sized below the full dataset so eviction matters.
            .cache(CacheConfig {
                max_entries: 12,
                max_rows: bundle.activities.len() / 2,
            })
            .build()
            .expect("system builds");
        let mut session = system.mobile_session(NetworkProfile::WIFI);

        let mut all: Vec<Duration> = Vec::new();
        let mut misses: Vec<Duration> = Vec::new();
        let mut hits = 0usize;
        let mut queries = 0usize;
        for g in &script {
            let r = session.apply(g).expect("gesture applies");
            if let Some(hit) = r.cache_hit {
                queries += 1;
                all.push(r.query_latency);
                if hit {
                    hits += 1;
                } else {
                    misses.push(r.query_latency);
                }
            }
        }
        table.row(vec![
            format!("{theta:.1}"),
            queries.to_string(),
            format!("{:.0}%", 100.0 * hits as f64 / queries.max(1) as f64),
            fmt_ms(mean(&all)),
            fmt_ms(mean(&misses)),
        ]);
    }
    table.note(format!(
        "cache limited to 12 entries / {} rows (half the dataset); hits cost zero source latency",
        bundle.activities.len() / 2
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_occur_and_high_theta_is_at_least_as_good() {
        let t = run(RunConfig { quick: true });
        assert_eq!(t.rows.len(), 4);
        let rate = |row: &Vec<String>| -> f64 {
            row[2].trim_end_matches('%').parse().expect("rate parses")
        };
        assert!(t.rows.iter().any(|r| rate(r) > 0.0), "no hits at all");
        // The most local session should not be worse than the uniform
        // one.
        assert!(rate(&t.rows[3]) + 10.0 >= rate(&t.rows[0]), "{t:?}");
    }
}
