//! The self-driving layer end to end: an [`AdaptiveRuntime`] watches
//! one deployment, auto-materializes the hot aggregate past its
//! break-even — and exports every decision as `{"event":"adapt"}`
//! JSONL records that `drugtree advisor <export.jsonl>` renders.
//! Everything it prints is on the virtual clock, so the output is
//! pinned byte for byte:
//!
//! ```sh
//! cargo run --release --example self_driving | diff examples/self_driving.out -
//! ```

use drugtree::prelude::*;
use drugtree_query::parser::parse_query;
use drugtree_query::AdaptiveRuntime;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(128).ligands(32).seed(2201));

    // Every adaptation decision lands in this JSONL export.
    let export_path = std::env::temp_dir().join("drugtree-adapt-export.jsonl");
    let sink = Arc::new(JsonlFileSink::create(&export_path)?);
    let runtime = Arc::new(AdaptiveRuntime::new().with_export(Arc::clone(&sink) as Arc<dyn Sink>));

    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .with_adaptive(Arc::clone(&runtime))
        .build()?;

    // Auto-materialization: a refreshing dashboard re-runs a
    // whole-tree aggregate; the advisor accumulates the foregone cost,
    // builds the view when it crosses break-even, and later refreshes
    // are served from it.
    let aggregate = parse_query("aggregate count in tree")?;
    for _ in 0..24 {
        system.executor().invalidate();
        system.execute(&aggregate)?;
        if runtime.snapshot().view_built {
            break;
        }
    }
    for _ in 0..3 {
        system.executor().invalidate();
        system.execute(&aggregate)?;
    }

    sink.flush()?;

    let snapshot = runtime.snapshot();
    println!(
        "auto-built view: {} ({} hits saved {:?} for a {:?} build)\n",
        snapshot.view_built,
        snapshot.advisor.hits,
        snapshot.advisor.saved,
        snapshot.advisor.build_cost,
    );

    // What `drugtree advisor <export.jsonl>` prints.
    let export = std::io::BufReader::new(std::fs::File::open(&export_path)?);
    print!("{}", AdvisorReport::from_reader(export)?.render());
    Ok(())
}
