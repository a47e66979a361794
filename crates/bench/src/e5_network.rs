//! E5 (Fig 3): mobile network profiles, blocking vs progressive
//! delivery.
//!
//! Paper-shape expectation: blocking full-result latency degrades
//! roughly with link bandwidth; progressive first-usable latency stays
//! nearly RTT-bound across profiles.

use crate::table::ExperimentTable;
use crate::{fmt_ms, percentile, RunConfig};
use drugtree::prelude::*;

/// Run E5.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, gestures) = if config.quick { (64, 40) } else { (512, 200) };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(leaves / 8)
            .seed(606),
    );
    let script = drill_down_script(
        &bundle.tree,
        &bundle.index,
        &GestureConfig {
            len: gestures,
            seed: 66,
            zipf_theta: 1.0,
            revisit_prob: 0.3,
        },
    );

    let mut table = ExperimentTable::new(
        "E5 (Fig 3)",
        "interaction latency by network profile (series: blocking, progressive)",
        vec![
            "network",
            "blocking p50 first",
            "blocking p95 first",
            "progressive p50 first",
            "progressive p95 first",
            "p95 complete",
        ],
    );

    for profile in NetworkProfile::ALL {
        let system = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(OptimizerConfig::full())
            .build()
            .expect("system builds");
        let mut session = system.mobile_session(profile);
        let mut first = Vec::new();
        let mut complete = Vec::new();
        for g in &script {
            let r = session.apply(g).expect("applies");
            if r.cache_hit.is_some() {
                first.push(r.first_usable);
                complete.push(r.complete);
            }
        }
        // A session always delivers progressively. A blocking response
        // is usable only once it completes, and it completes when the
        // progressive delivery of the same rows does.
        let complete95 = percentile(&complete, 0.95);
        table.row(vec![
            profile.name.to_string(),
            fmt_ms(percentile(&complete, 0.5)),
            fmt_ms(complete95),
            fmt_ms(percentile(&first, 0.5)),
            fmt_ms(percentile(&first, 0.95)),
            fmt_ms(complete95),
        ]);
    }
    table.note("first = first-usable-content latency; queries only (pan/zoom excluded)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progressive_first_usable_never_worse() {
        let t = run(RunConfig { quick: true });
        assert_eq!(t.rows.len(), 4);
        let ms = |cell: &str| -> f64 {
            cell.trim_end_matches("ms")
                .trim_end_matches('s')
                .parse()
                .expect("duration parses")
        };
        for row in &t.rows {
            assert!(
                ms(&row[4]) <= ms(&row[2]) + 1e-9,
                "progressive p95 worse than blocking: {row:?}"
            );
        }
    }
}
