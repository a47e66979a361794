//! E10 (extension): predictive prefetching by session pattern.
//!
//! Not part of the reconstructed poster evaluation; this measures the
//! repository's forward-looking feature. The honest finding (kept in
//! EXPERIMENTS.md): prefetching **helps lateral browsing** (paging
//! through sibling clades — the next expansion is never covered by a
//! containment hit) and is **neutral-to-harmful for drill-down**
//! sessions (children are already covered by the just-fetched parent,
//! so speculation only churns the cache). A session therefore
//! prefetches only while its classified gesture pattern is lateral:
//! the `gated` arm should match `off` on drill-down and beat it on
//! lateral browsing. EXPERIMENTS.md keeps the three-arm table that
//! retired the ungated arm.

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
        for prefetch in [false, true] {
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
            if prefetch {
                session.enable_prefetch();
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
                if prefetch { "gated" } else { "off" }.to_string(),
                format!("{:.0}%", 100.0 * hits as f64 / queries.max(1) as f64),
                fmt_ms(mean(&latencies)),
                requests.to_string(),
            ]);
        }
    }
    table.note("fan-out 2, clades <= 64 leaves; prefetch pays speculative source requests");
    table.note("finding: helps lateral browsing; neutral/harmful for drill-down (kept honest)");
    table.note("gated: prefetch fires only while the session classifies as lateral");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_helps_lateral_sessions() {
        let t = run(RunConfig { quick: true });
        assert_eq!(t.rows.len(), 4);
        let row = |script: &str, prefetch: &str| -> &Vec<String> {
            t.rows
                .iter()
                .find(|r| r[0] == script && r[1] == prefetch)
                .expect("row")
        };
        let rate =
            |row: &Vec<String>| -> f64 { row[2].trim_end_matches('%').parse().expect("parses") };
        let reqs = |row: &Vec<String>| -> u64 { row[4].parse().expect("parses") };
        // A lateral session gets the prefetcher's hits (after the
        // classifier's warm-up) and pays speculative source traffic.
        let lateral_off = row("lateral", "off");
        let lateral_on = row("lateral", "gated");
        assert!(
            rate(lateral_on) > rate(lateral_off) + 10.0,
            "the gate must open on lateral browsing: {}% -> {}%",
            rate(lateral_off),
            rate(lateral_on)
        );
        assert!(reqs(lateral_on) > reqs(lateral_off));
        // A drill-down session never pays a speculative request.
        assert_eq!(
            reqs(row("drill-down", "gated")),
            reqs(row("drill-down", "off")),
            "the gate must stay shut on drill-down: {t:?}"
        );
    }
}
