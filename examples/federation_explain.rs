//! Watch the optimizer work: the same query planned naively and fully
//! optimized against a three-source federation, with EXPLAIN output
//! and measured virtual latencies side by side.
//!
//! ```sh
//! cargo run --release --example federation_explain
//! ```
//!
//! Every figure it prints is on the virtual clock, so the output is
//! deterministic; CI diffs it against `examples/federation_explain.out`.

use drugtree::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three assay sources (as if federating BindingDB + ChEMBL assays +
    // a lab database), each behind ~120 ms of simulated web latency.
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(256)
            .ligands(48)
            .seed(5)
            .assay_sources(3),
    );

    let queries = [
        "activities in subtree('clade1')",
        "activities in subtree('clade1') where p_activity >= 6.5",
        "activities where p_activity >= 7.5 top 10 by p_activity desc",
        "aggregate count in tree",
    ];

    for text in queries {
        println!("=== {text}\n");
        let mut latencies = Vec::new();
        for (label, config) in [
            ("naive", OptimizerConfig::naive()),
            ("optimized", OptimizerConfig::full()),
        ] {
            let system = DrugTree::builder()
                .dataset(bundle.build_dataset())
                .optimizer(config)
                .with_matview()
                .build()?;
            println!("--- {label} plan:");
            println!("{}", system.explain(text)?);
            let result = system.query(text)?;
            println!(
                "--- {label} measured: {} rows, {:?} virtual latency, {} round-trips\n",
                result.rows.len(),
                result.metrics.virtual_cost,
                result.metrics.source_requests
            );
            latencies.push((label, result.metrics.virtual_cost));
        }
        if let [(_, naive), (_, optimized)] = latencies[..] {
            let speedup = naive.as_secs_f64() / optimized.as_secs_f64().max(1e-12);
            println!(">>> speedup: {speedup:.1}x\n");
        }
    }
    Ok(())
}
