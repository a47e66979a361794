//! Simulate interactive mobile browsing sessions across network
//! profiles — the experience the paper's "lags" complaint is about.
//!
//! ```sh
//! cargo run --release --example mobile_session
//! ```

use drugtree::prelude::*;
use std::time::Duration;

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(512).ligands(64).seed(21));
    let script_cfg = GestureConfig {
        len: 120,
        seed: 3,
        zipf_theta: 1.0,
        revisit_prob: 0.35,
    };
    let script = drill_down_script(&bundle.tree, &bundle.index, &script_cfg);

    println!(
        "{} leaves, {} activity records, {}-gesture script\n",
        bundle.spec.leaves,
        bundle.activities.len(),
        script.len()
    );
    println!(
        "{:<6} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "net", "qrs", "p50 first", "p95 first", "p95 full", "hit-rate"
    );

    let mut edge = (Vec::new(), Vec::new());
    for profile in NetworkProfile::ALL {
        // Fresh system per profile so caches start cold.
        let system = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(OptimizerConfig::full())
            .build()?;
        let mut session = system.mobile_session(profile);

        let mut first: Vec<Duration> = Vec::new();
        let mut full: Vec<Duration> = Vec::new();
        let mut hits = 0usize;
        let mut queries = 0usize;
        for gesture in &script {
            let r = session.apply(gesture)?;
            first.push(r.first_usable);
            full.push(r.complete);
            if let Some(hit) = r.cache_hit {
                queries += 1;
                hits += usize::from(hit);
            }
        }
        first.sort();
        full.sort();
        println!(
            "{:<6} {:>6} {:>12?} {:>12?} {:>12?} {:>9.0}%",
            profile.name,
            queries,
            percentile(&first, 0.5),
            percentile(&first, 0.95),
            percentile(&full, 0.95),
            100.0 * hits as f64 / queries.max(1) as f64,
        );
        if profile == NetworkProfile::EDGE {
            edge = (first, full);
        }
    }

    // Progressive vs blocking delivery on the slowest link. A session
    // always delivers progressively; a blocking response is usable only
    // once it completes, and it completes when the progressive one does.
    println!("\nblocking vs progressive on EDGE:");
    let (first, full) = edge;
    for (progressive, usable) in [(false, full), (true, first)] {
        println!(
            "  progressive={progressive}: p50 first-usable {:?}, p95 {:?}",
            percentile(&usable, 0.5),
            percentile(&usable, 0.95)
        );
    }
    Ok(())
}
