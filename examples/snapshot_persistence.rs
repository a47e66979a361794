//! Snapshot persistence: integrate once, reload instantly.
//!
//! The from-sources pipeline costs real round-trips (fetch proteins,
//! align, build the tree, fetch ligands). A deployment runs it once,
//! snapshots the integrated local state to disk, and later sessions
//! restore in milliseconds — re-attaching only the live assay sources.
//!
//! ```sh
//! cargo run --release --example snapshot_persistence
//! ```

use drugtree::prelude::*;
use drugtree::{load_system, save_system};
use drugtree_sources::clock::VirtualClock;
use drugtree_sources::federation::SourceRegistry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(256).ligands(48).seed(33));

    // --- Session 1: the full from-sources pipeline (fetch proteins +
    // ligands, align, neighbor-join), then snapshot. ---
    let sources = bundle.build_dataset().registry;
    let mut builder = DrugTree::builder();
    for source in sources.all() {
        builder = builder.register_source(source.clone());
    }
    let started = drugtree_sources::clock::wall_now();
    let system1 = builder.build()?;
    let integration_wall = started.elapsed();
    let dataset = system1.dataset();
    let integration_virtual = dataset.clock.now();
    let json = save_system(dataset)?;
    let path = std::env::temp_dir().join("drugtree_snapshot.json");
    std::fs::write(&path, &json)?;
    println!(
        "session 1: integrated {} leaves / {} ligands in {integration_wall:?} wall \
         ({integration_virtual} virtual source latency); snapshot = {} KiB at {}",
        dataset.leaf_count(),
        bundle.ligands.len(),
        json.len() / 1024,
        path.display()
    );
    drop(system1);

    // --- Session 2: restore from disk, attach live sources, query. ---
    let restored_json = std::fs::read_to_string(&path)?;
    // A fresh registry stands in for re-connecting to the live services.
    let registry: SourceRegistry = bundle.build_dataset().registry;
    let started = drugtree_sources::clock::wall_now();
    let dataset = load_system(&restored_json, registry, VirtualClock::new())?;
    let restore_wall = started.elapsed();

    let system = DrugTree::builder()
        .dataset(dataset)
        .optimizer(OptimizerConfig::full())
        .build()?;
    println!(
        "session 2: restored in {restore_wall:?} wall time — no alignment pass, \
         no protein/ligand round-trips"
    );

    let r = system.query("activities where p_activity >= 7 top 5 by p_activity desc")?;
    println!(
        "query over restored system: {} rows, {:?} virtual latency",
        r.rows.len(),
        r.metrics.virtual_cost
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
