//! The self-driving layer end to end: an [`AdaptiveRuntime`] watches
//! one deployment, auto-materializes the hot aggregate past its
//! break-even, lets a mobile session classify its own gesture pattern
//! and switch prefetch policy — and exports every decision as
//! `{"event":"adapt"}` JSONL records that
//! `drugtree advisor <export.jsonl>` renders.
//!
//! ```sh
//! cargo run --release --example self_driving
//! ```

use drugtree::prelude::*;
use drugtree_mobile::gestures::lateral_script;
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

    // Loop 1 — auto-materialization: a refreshing dashboard re-runs a
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

    // Loop 2 — gated prefetch: a sideways-browsing session
    // classifies itself as lateral and switches prefetch on (a
    // drill-down session would leave it off).
    let mut session = system.mobile_session(NetworkProfile::CELL_4G);
    session.set_session_id(7);
    session.enable_prefetch();
    let script = lateral_script(
        &bundle.tree,
        &bundle.index,
        &GestureConfig {
            len: 40,
            seed: 7,
            zipf_theta: 0.0,
            revisit_prob: 0.0,
        },
    );
    for g in &script {
        session.apply(g)?;
    }
    drop(session);
    sink.flush()?;

    let snapshot = runtime.snapshot();
    println!(
        "auto-built view: {} ({} hits saved {:?} for a {:?} build), prefetch switches: {}\n",
        snapshot.view_built,
        snapshot.advisor.hits,
        snapshot.advisor.saved,
        snapshot.advisor.build_cost,
        snapshot.prefetch_switches,
    );

    // What `drugtree advisor <export.jsonl>` prints.
    let export = std::io::BufReader::new(std::fs::File::open(&export_path)?);
    print!("{}", AdvisorReport::from_reader(export)?.render());
    Ok(())
}
