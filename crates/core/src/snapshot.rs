//! System snapshots: persist the integrated local state.
//!
//! Integration (fetching proteins/ligands, aligning, building the
//! tree) costs real source round-trips; a deployment runs it once and
//! snapshots the result. A snapshot carries the tree and the
//! materialized overlay catalog — everything local. Remote sources are
//! *not* serialized (they are live services); loading re-attaches a
//! registry the caller provides.

use crate::system::DrugTreeError;
use drugtree_integrate::overlay::Overlay;
use drugtree_phylo::index::TreeIndex;
use drugtree_phylo::tree::Tree;
use drugtree_query::Dataset;
use drugtree_sources::clock::VirtualClock;
use drugtree_sources::federation::SourceRegistry;
use drugtree_store::snapshot::{load_catalog, save_catalog};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

const SNAPSHOT_VERSION: u32 = 1;

#[derive(Serialize, Deserialize)]
struct SystemSnapshot {
    version: u32,
    tree: Tree,
    /// The overlay catalog in `drugtree_store::snapshot` JSON form.
    catalog: String,
}

/// Serialize a dataset's local state (tree + overlay catalog) to JSON.
pub fn save_system(dataset: &Dataset) -> Result<String, DrugTreeError> {
    let catalog = save_catalog(dataset.overlay.catalog())
        .map_err(|e| DrugTreeError::Integrate(e.to_string()))?;
    serde_json::to_string(&SystemSnapshot {
        version: SNAPSHOT_VERSION,
        tree: dataset.tree.clone(),
        catalog,
    })
    .map_err(|e| DrugTreeError::Integrate(e.to_string()))
}

/// Restore a dataset from a snapshot, attaching live sources.
pub fn load_system(
    json: &str,
    registry: SourceRegistry,
    clock: Arc<VirtualClock>,
) -> Result<Dataset, DrugTreeError> {
    let snap: SystemSnapshot = serde_json::from_str(json)
        .map_err(|e| DrugTreeError::Integrate(format!("malformed snapshot: {e}")))?;
    if snap.version != SNAPSHOT_VERSION {
        return Err(DrugTreeError::Integrate(format!(
            "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
            snap.version
        )));
    }
    snap.tree.check_invariants().map_err(DrugTreeError::Phylo)?;
    let catalog =
        load_catalog(&snap.catalog).map_err(|e| DrugTreeError::Integrate(e.to_string()))?;
    let overlay =
        Overlay::from_catalog(catalog).map_err(|e| DrugTreeError::Integrate(e.to_string()))?;
    let index = TreeIndex::build(&snap.tree);
    Dataset::new(snap.tree, index, overlay, registry, clock).map_err(DrugTreeError::Query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use drugtree_query::ast::{Query, Scope};

    fn setup() -> (SyntheticBundle, Dataset) {
        let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(48).ligands(12));
        let dataset = bundle.build_dataset();
        (bundle, dataset)
    }

    #[test]
    fn roundtrip_preserves_local_state_and_answers() {
        let (bundle, original) = setup();
        let json = save_system(&original).unwrap();

        // Restore against a fresh registry (new live sources).
        let restored_dataset =
            load_system(&json, bundle.build_dataset().registry, VirtualClock::new()).unwrap();

        assert_eq!(restored_dataset.leaf_count(), original.leaf_count());
        assert_eq!(restored_dataset.tree, original.tree);
        // Fingerprints recomputed from SMILES.
        assert_eq!(
            restored_dataset.overlay.fingerprints().count(),
            original.overlay.fingerprints().count()
        );

        // Queries over the restored system agree with the original.
        let e = Executor::new(Optimizer::new(OptimizerConfig::full()));
        let q = Query::activities(Scope::Tree);
        let a = e.execute(&original, &q).unwrap();
        let e2 = Executor::new(Optimizer::new(OptimizerConfig::full()));
        let b = e2.execute(&restored_dataset, &q).unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn version_and_shape_validated() {
        let (_, dataset) = setup();
        let json = save_system(&dataset).unwrap();
        let tampered = json.replace("\"version\":1", "\"version\":9");
        assert!(load_system(&tampered, SourceRegistry::new(), VirtualClock::new()).is_err());
        assert!(load_system("{bogus", SourceRegistry::new(), VirtualClock::new()).is_err());
    }

    /// A snapshot written before text cells became shared handles
    /// (`save_system` at the parent of that change, over
    /// `WorkloadSpec::default().leaves(12).ligands(5).seed(23)`): the
    /// cell's representation changed, the rows on disk did not. The
    /// store no longer keeps ordered indexes, so the file's three
    /// `"BTree"` entries load as no index and are not written back;
    /// every other byte is.
    #[test]
    fn a_snapshot_written_with_owned_text_cells_loads_and_resaves_byte_for_byte() {
        let written = include_str!("../tests/fixtures/system_snapshot_pr22.json");
        let restored = load_system(written, SourceRegistry::new(), VirtualClock::new()).unwrap();
        assert_eq!(restored.leaf_count(), 12);
        let ligand = r#",[3,\"BTree\"]"#;
        let overlay_activity = r#"[0,\"BTree\"],[5,\"BTree\"],"#;
        assert_eq!(written.matches(ligand).count(), 1);
        assert_eq!(written.matches(overlay_activity).count(), 1);
        let resaved = written
            .replacen(ligand, "", 1)
            .replacen(overlay_activity, "", 1);
        assert_eq!(save_system(&restored).unwrap(), resaved);
    }

    /// A fresh snapshot holds the ligand table keyed on its id and the
    /// protein table with no index.
    #[test]
    fn a_fresh_snapshot_catalogs_only_ligands_and_proteins() {
        let (_, dataset) = setup();
        let snap: SystemSnapshot = serde_json::from_str(&save_system(&dataset).unwrap()).unwrap();
        let catalog = load_catalog(&snap.catalog).unwrap();
        assert_eq!(catalog.table_names(), vec!["ligand", "protein"]);
        assert!(snap
            .catalog
            .contains(r#""indexes":[[0,"Hash"]]},{"name":"protein""#));
        assert!(snap.catalog.ends_with(r#""indexes":[]}]}"#));
    }

    #[test]
    fn snapshot_is_deterministic() {
        let (_, dataset) = setup();
        assert_eq!(
            save_system(&dataset).unwrap(),
            save_system(&dataset).unwrap()
        );
    }
}
