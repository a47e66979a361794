//! E10 (extension): predictive prefetching by session pattern.
//!
//! Not part of the reconstructed poster evaluation; this measures the
//! repository's forward-looking feature. The honest finding (kept in
//! EXPERIMENTS.md): prefetching **helps lateral browsing** (paging
//! through sibling clades — the next expansion is never covered by a
//! containment hit) and is **neutral-to-harmful for drill-down**
//! sessions (children are already covered by the just-fetched parent,
//! so speculation only churns the cache). The session API therefore
//! leaves it opt-in, and the `adaptive` arm gates it per session on the
//! classified gesture pattern: it should track whichever fixed arm is
//! better for the script.

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_mobile::gestures::lateral_script;
use drugtree_mobile::prefetch::Prefetcher;
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
        format!("predictive prefetching by session pattern, {gestures} gestures"),
        vec![
            "script",
            "prefetch",
            "hit rate",
            "mean query latency",
            "source reqs",
        ],
    );

    for (name, script) in &scripts {
        for prefetch in ["false", "true", "adaptive"] {
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
            let prefetcher = Prefetcher {
                fan_out: 2,
                ..Prefetcher::default()
            };
            match prefetch {
                "true" => session.enable_prefetch(prefetcher),
                "adaptive" => session.enable_adaptive_prefetch(prefetcher),
                _ => {}
            }
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
                prefetch.to_string(),
                format!("{:.0}%", 100.0 * hits as f64 / queries.max(1) as f64),
                fmt_ms(mean(&latencies)),
                requests.to_string(),
            ]);
        }
    }
    table.note("fan-out 2, clades <= 64 leaves; prefetch pays speculative source requests");
    table.note("finding: helps lateral browsing; neutral/harmful for drill-down (kept honest)");
    table.note("adaptive: prefetch fires only while the session classifies as lateral");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_helps_lateral_sessions() {
        let t = run(RunConfig { quick: true });
        assert_eq!(t.rows.len(), 6);
        let row = |script: &str, prefetch: &str| -> &Vec<String> {
            t.rows
                .iter()
                .find(|r| r[0] == script && r[1] == prefetch)
                .expect("row")
        };
        let rate =
            |row: &Vec<String>| -> f64 { row[2].trim_end_matches('%').parse().expect("parses") };
        let reqs = |row: &Vec<String>| -> u64 { row[4].parse().expect("parses") };
        let lateral_off = row("lateral", "false");
        let lateral_on = row("lateral", "true");
        assert!(
            rate(lateral_on) > rate(lateral_off) + 10.0,
            "lateral sessions must benefit: {}% -> {}%",
            rate(lateral_off),
            rate(lateral_on)
        );
        // Speculation costs extra source traffic.
        assert!(reqs(lateral_on) > reqs(lateral_off));
        // What the adaptive gate is for: a lateral session gets the
        // prefetcher's hits (after the classifier's warm-up), a
        // drill-down session never pays its speculative requests.
        assert!(
            rate(row("lateral", "adaptive")) > rate(lateral_off),
            "the gate must open on lateral browsing: {t:?}"
        );
        assert_eq!(
            reqs(row("drill-down", "adaptive")),
            reqs(row("drill-down", "false")),
            "the gate must stay shut on drill-down: {t:?}"
        );
    }
}
