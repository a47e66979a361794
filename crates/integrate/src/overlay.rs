//! The overlay join: ligand data imposed on the phylogenetic layer.
//!
//! This is DrugTree's defining data structure. Activities are resolved
//! to tree leaves, collapsed through conflict resolution, and
//! materialized into local store tables *keyed by leaf rank* — the 1-D
//! coordinate that turns "in this subtree" into a range predicate
//! (design decision D1). Ligand structures are parsed once and their
//! fingerprints cached for similarity queries.

use crate::conflict::{resolve_conflicts, ConflictPolicy, ConflictReport};
use crate::entity::EntityResolver;
use crate::ligand_identity::{dedupe_ligands, LigandIdentityReport};
use crate::{IntegrateError, Result};
use drugtree_chem::affinity::ActivityRecord;
use drugtree_chem::fingerprint::Fingerprint;
use drugtree_chem::mol::Molecule;
use drugtree_chem::smiles::parse_smiles;
use drugtree_phylo::index::TreeIndex;
use drugtree_phylo::tree::Tree;
use drugtree_sources::ligand_db::LigandRecord;
use drugtree_sources::protein_db::ProteinRecord;
use drugtree_store::schema::{Column, Schema};
use drugtree_store::table::{IndexKind, RowId, Table};
use drugtree_store::value::{Value, ValueType};
use drugtree_store::{Catalog, Dictionary};
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Store table names of the overlay.
pub mod tables {
    /// Activities keyed by leaf rank.
    pub const ACTIVITY: &str = "overlay_activity";
    /// Unified ligand records.
    pub const LIGAND: &str = "ligand";
    /// Proteins with their leaf assignment.
    pub const PROTEIN: &str = "protein";
}

/// Schema of [`tables::ACTIVITY`].
pub fn activity_schema() -> Schema {
    Schema::new(vec![
        Column::required("leaf_rank", ValueType::Int),
        Column::required("protein_accession", ValueType::Text),
        Column::required("ligand_id", ValueType::Text),
        Column::required("activity_type", ValueType::Text),
        Column::required("value_nm", ValueType::Float),
        Column::required("p_activity", ValueType::Float),
        Column::required("source", ValueType::Text),
        Column::required("year", ValueType::Int),
    ])
}

/// Schema of [`tables::LIGAND`].
pub fn ligand_schema() -> Schema {
    Schema::new(vec![
        Column::required("ligand_id", ValueType::Text),
        Column::required("name", ValueType::Text),
        Column::required("smiles", ValueType::Text),
        Column::required("mw", ValueType::Float),
        Column::required("hbd", ValueType::Int),
        Column::required("hba", ValueType::Int),
        Column::required("rings", ValueType::Int),
    ])
}

/// Schema of [`tables::PROTEIN`].
pub fn protein_schema() -> Schema {
    Schema::new(vec![
        Column::required("accession", ValueType::Text),
        Column::required("name", ValueType::Text),
        Column::required("organism", ValueType::Text),
        Column::required("leaf_rank", ValueType::Int),
    ])
}

/// Build statistics, reported to the user after integration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlayReport {
    /// Activity records attached to leaves.
    pub activities_overlaid: usize,
    /// Activity records whose protein reference did not resolve.
    pub activities_unresolved: usize,
    /// Ligand records ingested.
    pub ligands: usize,
    /// Ligands whose SMILES failed to parse (kept, but without a
    /// fingerprint — similarity queries skip them).
    pub ligands_unparsed: usize,
    /// Ligand ids merged away by structure-level identity.
    pub ligands_merged: usize,
    /// Conflict-resolution statistics.
    pub conflicts: ConflictReport,
}

/// The integrated overlay: local store tables plus the fingerprint
/// cache.
pub struct Overlay {
    catalog: Catalog,
    fingerprints: FxHashMap<String, Fingerprint>,
    molecules: FxHashMap<String, Molecule>,
    /// Ligand ids merged away by structure-level identity, mapped to
    /// the id that survived in the ligand table.
    ligand_aliases: FxHashMap<String, String>,
    /// Ligand id -> its row in the ligand table, built once: the
    /// executor's ligand join is one probe per activity row.
    ligand_rows: FxHashMap<Arc<str>, RowId>,
    report: OverlayReport,
}

/// The ligand table's id -> row directory. The first row holding an id
/// wins, as the first id of its index bucket would.
fn ligand_directory(ligands: &Table) -> Result<FxHashMap<Arc<str>, RowId>> {
    let id_col = ligands.schema().column_index("ligand_id")?;
    let mut directory = FxHashMap::default();
    for (row_id, row) in ligands.scan() {
        if let Value::Text(id) = &row[id_col] {
            directory.entry(Arc::clone(id)).or_insert(row_id);
        }
    }
    Ok(directory)
}

impl Overlay {
    /// The local store holding the overlay tables.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The id a ligand is catalogued under: the surviving id for one
    /// merged away as a structural duplicate, the id itself otherwise.
    fn catalogued_id<'a>(&'a self, ligand_id: &'a str) -> &'a str {
        self.ligand_aliases
            .get(ligand_id)
            .map_or(ligand_id, String::as_str)
    }

    /// Fingerprint of the ligand a user names, when its structure
    /// parsed. A merged-away id answers with its surviving duplicate's.
    pub fn fingerprint(&self, ligand_id: &str) -> Option<&Fingerprint> {
        self.catalogued_fingerprint(self.catalogued_id(ligand_id))
    }

    /// Parsed molecule of the ligand a user names, when its structure
    /// parsed. A merged-away id answers with its surviving duplicate's.
    pub fn molecule(&self, ligand_id: &str) -> Option<&Molecule> {
        self.catalogued_molecule(self.catalogued_id(ligand_id))
    }

    /// Fingerprint of a ligand-table row, by its own id: no alias is
    /// followed. What the executor filters activity rows with — a row
    /// naming an id the ligand table does not hold joins to NULL cells
    /// and, likewise, has no structure to compare.
    pub fn catalogued_fingerprint(&self, ligand_id: &str) -> Option<&Fingerprint> {
        self.fingerprints.get(ligand_id)
    }

    /// Parsed molecule of a ligand-table row, by its own id (see
    /// [`Overlay::catalogued_fingerprint`]).
    pub fn catalogued_molecule(&self, ligand_id: &str) -> Option<&Molecule> {
        self.molecules.get(ligand_id)
    }

    /// The ligand-table row catalogued under exactly this id (no alias
    /// is followed, see [`Overlay::catalogued_fingerprint`]).
    pub fn catalogued_ligand(&self, ligand_id: &str) -> Option<RowId> {
        self.ligand_rows.get(ligand_id).copied()
    }

    /// All (ligand id, fingerprint) pairs.
    pub fn fingerprints(&self) -> impl Iterator<Item = (&str, &Fingerprint)> {
        self.fingerprints.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Build statistics.
    pub fn report(&self) -> OverlayReport {
        self.report
    }

    /// Reconstruct an overlay from a previously materialized catalog
    /// (e.g. restored through `drugtree_store::snapshot`). Fingerprints
    /// and molecules are recomputed from the ligand table's SMILES; the
    /// build report reflects only what is recoverable.
    pub fn from_catalog(catalog: Catalog) -> Result<Overlay> {
        for required in [tables::PROTEIN, tables::LIGAND] {
            catalog.table(required)?;
        }
        let mut fingerprints = FxHashMap::default();
        let mut molecules = FxHashMap::default();
        let mut ligands_unparsed = 0;
        let ligand_table = catalog.table(tables::LIGAND)?;
        let id_col = ligand_table.schema().column_index("ligand_id")?;
        let smiles_col = ligand_table.schema().column_index("smiles")?;
        let mut ligands = 0;
        for (_, row) in ligand_table.scan() {
            ligands += 1;
            let (Some(id), Some(smiles)) = (row[id_col].as_text(), row[smiles_col].as_text())
            else {
                ligands_unparsed += 1;
                continue;
            };
            match parse_smiles(smiles) {
                Ok(mol) => {
                    fingerprints.insert(id.to_string(), Fingerprint::of_molecule(&mol));
                    molecules.insert(id.to_string(), mol);
                }
                Err(_) => ligands_unparsed += 1,
            }
        }
        let ligand_rows = ligand_directory(ligand_table)?;
        Ok(Overlay {
            catalog,
            fingerprints,
            molecules,
            // The merged-away ids were never materialized, so a restored
            // catalog cannot name them.
            ligand_aliases: FxHashMap::default(),
            ligand_rows,
            report: OverlayReport {
                ligands,
                ligands_unparsed,
                ..Default::default()
            },
        })
    }
}

/// Builds an [`Overlay`] from resolved inputs.
pub struct OverlayBuilder<'a> {
    tree: &'a Tree,
    index: &'a TreeIndex,
    resolver: EntityResolver,
    conflict_policy: ConflictPolicy,
}

impl<'a> OverlayBuilder<'a> {
    /// Start a builder over an indexed tree. The canonical entity
    /// universe is the set of leaf labels.
    pub fn new(tree: &'a Tree, index: &'a TreeIndex) -> OverlayBuilder<'a> {
        let leaf_labels = tree
            .leaves()
            .into_iter()
            .filter_map(|l| tree.node_unchecked(l).label.clone());
        OverlayBuilder {
            tree,
            index,
            resolver: EntityResolver::new(leaf_labels),
            conflict_policy: ConflictPolicy::MostRecent,
        }
    }

    /// Replace the conflict policy (default: most recent).
    pub fn conflict_policy(mut self, policy: ConflictPolicy) -> Self {
        self.conflict_policy = policy;
        self
    }

    /// Register a protein-name synonym for entity resolution.
    pub fn synonym(mut self, alias: &str, canonical: &str) -> Self {
        self.resolver.add_synonym(alias, canonical);
        self
    }

    /// Run the integration: resolve, de-conflict, and materialize.
    pub fn build(
        self,
        proteins: &[ProteinRecord],
        ligands: &[LigandRecord],
        activities: &[ActivityRecord],
    ) -> Result<Overlay> {
        let mut catalog = Catalog::new();

        // Leaf assignment for proteins.
        let mut protein_table = Table::new(tables::PROTEIN, protein_schema());
        protein_table.create_index("accession", IndexKind::Hash)?;
        let mut leaf_of: FxHashMap<String, u32> = FxHashMap::default();
        for p in proteins {
            let resolution = self.resolver.resolve(&p.accession)?;
            let leaf = self.index.by_label(resolution.canonical())?;
            let rank = self.index.rank_of(leaf).ok_or_else(|| {
                IntegrateError::Overlay(format!(
                    "protein {} resolved to internal node {leaf}",
                    p.accession
                ))
            })?;
            leaf_of.insert(p.accession.clone(), rank);
            protein_table.insert(vec![
                Value::from(p.accession.as_str()),
                Value::from(p.name.as_str()),
                Value::from(p.organism.as_str()),
                Value::from(rank),
            ])?;
        }

        // Ligands: unify structurally identical records across sources
        // (canonical-SMILES identity), then fingerprint.
        let (ligands, ligand_aliases, identity_report): (
            Vec<_>,
            FxHashMap<String, String>,
            LigandIdentityReport,
        ) = dedupe_ligands(ligands);
        let mut ligand_table = Table::new(tables::LIGAND, ligand_schema());
        ligand_table.create_index("ligand_id", IndexKind::Hash)?;
        ligand_table.create_index("mw", IndexKind::BTree)?;
        let mut fingerprints = FxHashMap::default();
        let mut molecules = FxHashMap::default();
        let mut ligands_unparsed = 0;
        for l in &ligands {
            match parse_smiles(&l.smiles) {
                Ok(mol) => {
                    fingerprints.insert(l.ligand_id.clone(), Fingerprint::of_molecule(&mol));
                    molecules.insert(l.ligand_id.clone(), mol);
                }
                Err(_) => ligands_unparsed += 1,
            }
            ligand_table.insert(vec![
                Value::from(l.ligand_id.as_str()),
                Value::from(l.name.as_str()),
                Value::from(l.smiles.as_str()),
                Value::Float(l.molecular_weight),
                Value::from(l.hbd),
                Value::from(l.hba),
                Value::from(l.rings),
            ])?;
        }

        // Activities: resolve proteins, remap merged ligand ids,
        // de-conflict, attach by leaf rank.
        let mut resolved: Vec<ActivityRecord> = Vec::with_capacity(activities.len());
        let mut unresolved = 0;
        for a in activities {
            match self.resolver.resolve(&a.protein_accession) {
                Ok(resolution) => {
                    let mut rec = a.clone();
                    rec.protein_accession = resolution.canonical().to_string();
                    if let Some(canonical) = ligand_aliases.get(&rec.ligand_id) {
                        rec.ligand_id = canonical.clone();
                    }
                    resolved.push(rec);
                }
                Err(_) => unresolved += 1,
            }
        }
        let (deduped, conflicts) = resolve_conflicts(&resolved, &self.conflict_policy);

        let mut activity_table = Table::new(tables::ACTIVITY, activity_schema());
        activity_table.create_index("leaf_rank", IndexKind::BTree)?;
        activity_table.create_index("p_activity", IndexKind::BTree)?;
        activity_table.create_index("ligand_id", IndexKind::Hash)?;
        // Activities repeat their accession, ligand, type and source:
        // one shared allocation per distinct text.
        let mut pool = Dictionary::new();
        let mut overlaid = 0;
        for rec in &deduped {
            let leaf = self.index.by_label(&rec.protein_accession)?;
            let rank = self.index.rank_of(leaf).ok_or_else(|| {
                IntegrateError::Overlay(format!(
                    "activity target {} is not a leaf",
                    rec.protein_accession
                ))
            })?;
            activity_table.insert(vec![
                Value::from(rank),
                pool.cell(&rec.protein_accession),
                pool.cell(&rec.ligand_id),
                pool.cell(rec.activity_type.label()),
                Value::Float(rec.value_nm),
                Value::Float(rec.p_activity()),
                pool.cell(&rec.source),
                Value::Int(rec.year as i64),
            ])?;
            overlaid += 1;
        }

        let ligand_rows = ligand_directory(&ligand_table)?;
        catalog.create_table(protein_table)?;
        catalog.create_table(ligand_table)?;
        catalog.create_table(activity_table)?;

        // Sanity: every activity leaf rank is inside the tree.
        debug_assert!(deduped.iter().all(|r| {
            self.index
                .by_label(&r.protein_accession)
                .ok()
                .and_then(|l| self.index.rank_of(l))
                .is_some()
        }));
        let _ = self.tree; // tree retained for future structural checks

        Ok(Overlay {
            catalog,
            fingerprints,
            molecules,
            ligand_aliases,
            ligand_rows,
            report: OverlayReport {
                activities_overlaid: overlaid,
                activities_unresolved: unresolved,
                ligands: ligands.len(),
                ligands_unparsed,
                ligands_merged: identity_report.merged,
                conflicts,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_chem::ActivityType;
    use drugtree_phylo::newick::parse_newick;
    use drugtree_store::expr::Predicate;

    fn setup() -> (Tree, TreeIndex) {
        let tree = parse_newick("((P1:1,P2:1)cladeA:1,(P3:1,P4:1)cladeB:1)root;").unwrap();
        let index = TreeIndex::build(&tree);
        (tree, index)
    }

    fn proteins() -> Vec<ProteinRecord> {
        ["P1", "P2", "P3", "P4"]
            .iter()
            .map(|acc| ProteinRecord {
                accession: (*acc).into(),
                name: format!("protein {acc}"),
                organism: "synthetic".into(),
                sequence: "MKVLAT".into(),
                gene: None,
            })
            .collect()
    }

    fn ligands() -> Vec<LigandRecord> {
        vec![
            LigandRecord::from_smiles("L1", "aspirin", "CC(=O)Oc1ccccc1C(=O)O").unwrap(),
            LigandRecord::from_smiles("L2", "ethanol", "CCO").unwrap(),
        ]
    }

    fn activity(acc: &str, ligand: &str, value: f64, year: u16) -> ActivityRecord {
        ActivityRecord {
            protein_accession: acc.into(),
            ligand_id: ligand.into(),
            activity_type: ActivityType::Ki,
            value_nm: value,
            source: "sim".into(),
            year,
        }
    }

    #[test]
    fn full_build() {
        let (tree, index) = setup();
        let acts = vec![
            activity("P1", "L1", 10.0, 2012),
            activity("P2", "L1", 100.0, 2012),
            activity("P3", "L2", 50.0, 2012),
        ];
        let overlay = OverlayBuilder::new(&tree, &index)
            .build(&proteins(), &ligands(), &acts)
            .unwrap();

        let report = overlay.report();
        assert_eq!(report.activities_overlaid, 3);
        assert_eq!(report.activities_unresolved, 0);
        assert_eq!(report.ligands, 2);
        assert_eq!(report.ligands_unparsed, 0);

        let t = overlay.catalog().table(tables::ACTIVITY).unwrap();
        assert_eq!(t.len(), 3);
        // Leaf-rank keying: clade A = ranks 0..2.
        let in_clade_a = Predicate::between("leaf_rank", 0i64, 1i64)
            .bind(t.schema())
            .unwrap();
        assert_eq!(t.select(&in_clade_a).count(), 2);
        // Fingerprints cached.
        assert!(overlay.fingerprint("L1").is_some());
        assert!(overlay.fingerprint("L9").is_none());
        assert_eq!(overlay.fingerprints().count(), 2);
    }

    #[test]
    fn fuzzy_references_resolve() {
        let (tree, index) = setup();
        // "p1.2" normalizes to P1; "P9" cannot resolve.
        let acts = vec![
            activity("p1.2", "L1", 10.0, 2012),
            activity("ZZZZZ", "L1", 1.0, 2012),
        ];
        let overlay = OverlayBuilder::new(&tree, &index)
            .build(&proteins(), &ligands(), &acts)
            .unwrap();
        assert_eq!(overlay.report().activities_overlaid, 1);
        assert_eq!(overlay.report().activities_unresolved, 1);
    }

    #[test]
    fn synonyms_feed_resolution() {
        let (tree, index) = setup();
        let acts = vec![activity("alpha kinase", "L1", 10.0, 2012)];
        let overlay = OverlayBuilder::new(&tree, &index)
            .synonym("alpha kinase", "P1")
            .build(&proteins(), &ligands(), &acts)
            .unwrap();
        assert_eq!(overlay.report().activities_overlaid, 1);
        // Attached to P1's leaf rank (0).
        let t = overlay.catalog().table(tables::ACTIVITY).unwrap();
        let (_, row) = t.scan().next().unwrap();
        assert_eq!(row[0], Value::Int(0));
        assert_eq!(row[1], Value::from("P1"));
    }

    #[test]
    fn conflicts_are_resolved_before_overlay() {
        let (tree, index) = setup();
        let acts = vec![
            activity("P1", "L1", 10.0, 2010),
            activity("P1", "L1", 20.0, 2013),
        ];
        let overlay = OverlayBuilder::new(&tree, &index)
            .conflict_policy(ConflictPolicy::MostRecent)
            .build(&proteins(), &ligands(), &acts)
            .unwrap();
        assert_eq!(overlay.report().activities_overlaid, 1);
        assert_eq!(overlay.report().conflicts.conflicting_groups, 1);
        let t = overlay.catalog().table(tables::ACTIVITY).unwrap();
        let (_, row) = t.scan().next().unwrap();
        assert_eq!(row[4], Value::Float(20.0));
    }

    #[test]
    fn p_activity_column_precomputed() {
        let (tree, index) = setup();
        let acts = vec![activity("P1", "L1", 1000.0, 2012)];
        let overlay = OverlayBuilder::new(&tree, &index)
            .build(&proteins(), &ligands(), &acts)
            .unwrap();
        let t = overlay.catalog().table(tables::ACTIVITY).unwrap();
        let (_, row) = t.scan().next().unwrap();
        let p = row[5].as_f64().unwrap();
        assert!((p - 6.0).abs() < 1e-9, "1 µM -> pActivity 6, got {p}");
    }

    #[test]
    fn unparseable_smiles_counted_but_kept() {
        let (tree, index) = setup();
        let mut ls = ligands();
        ls.push(LigandRecord {
            ligand_id: "L3".into(),
            name: "broken".into(),
            smiles: "C(((".into(),
            molecular_weight: 100.0,
            hbd: 0,
            hba: 0,
            rings: 0,
        });
        let overlay = OverlayBuilder::new(&tree, &index)
            .build(&proteins(), &ls, &[])
            .unwrap();
        assert_eq!(overlay.report().ligands, 3);
        assert_eq!(overlay.report().ligands_unparsed, 1);
        assert!(overlay.fingerprint("L3").is_none());
        assert_eq!(overlay.catalog().table(tables::LIGAND).unwrap().len(), 3);
    }

    #[test]
    fn duplicate_structures_unify_across_sources() {
        let (tree, index) = setup();
        // The same compound under two ids from two databases; activity
        // records reference both.
        let ligands = vec![
            LigandRecord::from_smiles("CHEMBL25", "aspirin", "CC(=O)Oc1ccccc1C(=O)O").unwrap(),
            LigandRecord::from_smiles("DB00945", "aspirin again", "OC(=O)c1ccccc1OC(C)=O").unwrap(),
        ];
        let acts = vec![
            activity("P1", "CHEMBL25", 10.0, 2012),
            activity("P2", "DB00945", 50.0, 2012),
        ];
        let overlay = OverlayBuilder::new(&tree, &index)
            .build(&proteins(), &ligands, &acts)
            .unwrap();
        assert_eq!(overlay.report().ligands_merged, 1);
        assert_eq!(overlay.report().ligands, 1, "one compound survives");
        // Both activities now reference the surviving id.
        let t = overlay.catalog().table(tables::ACTIVITY).unwrap();
        let ids: Vec<String> = t
            .scan()
            .map(|(_, r)| r[2].as_text().unwrap().to_string())
            .collect();
        assert_eq!(ids, vec!["CHEMBL25", "CHEMBL25"]);
        // The merged-away id still resolves, to the survivor's
        // structure; an id nobody catalogued does not.
        assert_eq!(
            overlay.fingerprint("DB00945"),
            overlay.fingerprint("CHEMBL25")
        );
        assert!(overlay.fingerprint("CHEMBL25").is_some());
        assert!(overlay.molecule("DB00945").is_some());
        assert!(overlay.fingerprint("DB99999").is_none());
        // Row-level lookups follow no alias: the ligand table has no
        // DB00945 row.
        assert!(overlay.catalogued_fingerprint("DB00945").is_none());
        assert!(overlay.catalogued_molecule("DB00945").is_none());
        assert_eq!(overlay.fingerprints().count(), 1);
    }

    #[test]
    fn unknown_protein_record_fails_build() {
        let (tree, index) = setup();
        let mut ps = proteins();
        ps.push(ProteinRecord {
            accession: "QQQQQ".into(),
            name: "mystery".into(),
            organism: "none".into(),
            sequence: "MK".into(),
            gene: None,
        });
        // Protein records are authoritative; an unresolvable one is an
        // error, unlike activity references which are skipped.
        assert!(OverlayBuilder::new(&tree, &index)
            .build(&ps, &[], &[])
            .is_err());
    }
}
