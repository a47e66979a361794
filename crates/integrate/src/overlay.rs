//! The overlay join: ligand data imposed on the phylogenetic layer.
//!
//! This is DrugTree's defining data structure. Protein records are
//! resolved to tree leaves and materialized into local store tables
//! *keyed by leaf rank* — the 1-D coordinate that turns "in this
//! subtree" into a range predicate (design decision D1). Ligand records
//! are unified by structure, and each structure is parsed once and its
//! fingerprint cached for similarity queries. Activities stay federated:
//! the query layer fetches and unifies them per scope.

use crate::entity::EntityResolver;
use crate::ligand_identity::dedupe_ligands;
use crate::{IntegrateError, Result};
use drugtree_chem::fingerprint::Fingerprint;
use drugtree_chem::mol::Molecule;
use drugtree_chem::smiles::parse_smiles;
use drugtree_phylo::index::TreeIndex;
use drugtree_phylo::tree::Tree;
use drugtree_sources::ligand_db::LigandRecord;
use drugtree_sources::protein_db::ProteinRecord;
use drugtree_store::schema::{Column, Schema};
use drugtree_store::table::Table;
use drugtree_store::value::{Value, ValueType};
use drugtree_store::Catalog;
use rustc_hash::FxHashMap;

/// Store table names of the overlay.
pub mod tables {
    /// Unified ligand records.
    pub const LIGAND: &str = "ligand";
    /// Proteins with their leaf assignment.
    pub const PROTEIN: &str = "protein";
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

/// The integrated overlay: local store tables plus the fingerprint
/// cache.
pub struct Overlay {
    catalog: Catalog,
    fingerprints: FxHashMap<String, Fingerprint>,
    molecules: FxHashMap<String, Molecule>,
    /// Ligand ids merged away by structure-level identity, mapped to
    /// the id that survived in the ligand table.
    ligand_aliases: FxHashMap<String, String>,
}

/// Parse every structure once: fingerprints and molecules by ligand id.
/// A structure that does not parse is left out of both (similarity
/// queries skip it); its record stays in the ligand table.
fn parse_structures<S: AsRef<str>>(
    ligands: impl Iterator<Item = (S, S)>,
) -> (FxHashMap<String, Fingerprint>, FxHashMap<String, Molecule>) {
    let mut fingerprints = FxHashMap::default();
    let mut molecules = FxHashMap::default();
    for (id, smiles) in ligands {
        if let Ok(mol) = parse_smiles(smiles.as_ref()) {
            fingerprints.insert(id.as_ref().to_string(), Fingerprint::of_molecule(&mol));
            molecules.insert(id.as_ref().to_string(), mol);
        }
    }
    (fingerprints, molecules)
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

    /// All (ligand id, fingerprint) pairs.
    pub fn fingerprints(&self) -> impl Iterator<Item = (&str, &Fingerprint)> {
        self.fingerprints.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Reconstruct an overlay from a previously materialized catalog
    /// (e.g. restored through `drugtree_store::snapshot`), keeping every
    /// table it holds. Fingerprints and molecules are recomputed from
    /// the ligand table's SMILES. The ligand table must be the one
    /// [`OverlayBuilder::build`] writes, keyed on `ligand_id`: anything
    /// else would join every activity to NULL cells, or to cells of
    /// another shape.
    pub fn from_catalog(catalog: Catalog) -> Result<Overlay> {
        catalog.table(tables::PROTEIN)?;
        let ligand_table = catalog.table(tables::LIGAND)?;
        let schema = ligand_schema();
        let id_col = schema.column_index("ligand_id")?;
        if ligand_table.schema() != &schema || ligand_table.key_column() != Some(id_col) {
            return Err(IntegrateError::Overlay(
                "the ligand table is not the overlay's, keyed on ligand_id".to_string(),
            ));
        }
        let smiles_col = schema.column_index("smiles")?;
        let (fingerprints, molecules) = parse_structures((0..ligand_table.len()).filter_map(|i| {
            match (
                ligand_table.cell(i, id_col),
                ligand_table.cell(i, smiles_col),
            ) {
                (Value::Text(id), Value::Text(smiles)) => Some((id, smiles)),
                _ => None,
            }
        }));
        Ok(Overlay {
            catalog,
            fingerprints,
            molecules,
            // The merged-away ids were never materialized, so a restored
            // catalog cannot name them.
            ligand_aliases: FxHashMap::default(),
        })
    }
}

/// Builds an [`Overlay`] from protein and ligand records.
pub struct OverlayBuilder<'a> {
    index: &'a TreeIndex,
    resolver: EntityResolver,
}

impl<'a> OverlayBuilder<'a> {
    /// Start a builder over an indexed tree. The canonical entity
    /// universe is the set of leaf labels.
    pub fn new(tree: &Tree, index: &'a TreeIndex) -> OverlayBuilder<'a> {
        let leaf_labels = tree
            .leaves()
            .into_iter()
            .filter_map(|l| tree.node_unchecked(l).label.clone());
        OverlayBuilder {
            index,
            resolver: EntityResolver::new(leaf_labels),
        }
    }

    /// Run the integration: place proteins on leaves, unify ligands,
    /// and materialize both.
    pub fn build(self, proteins: &[ProteinRecord], ligands: &[LigandRecord]) -> Result<Overlay> {
        // Leaf assignment for proteins.
        let mut protein_table = Table::new(tables::PROTEIN, protein_schema())?;
        for p in proteins {
            let resolution = self.resolver.resolve(&p.accession)?;
            let leaf = self.index.by_label(resolution.canonical())?;
            let rank = self.index.rank_of(leaf).ok_or_else(|| {
                IntegrateError::Overlay(format!(
                    "protein {} resolved to internal node {leaf}",
                    p.accession
                ))
            })?;
            protein_table.append_row(&[
                Value::from(p.accession.as_str()),
                Value::from(p.name.as_str()),
                Value::from(p.organism.as_str()),
                Value::from(rank),
            ])?;
        }

        // Ligands: unify structurally identical records across sources
        // (canonical-SMILES identity), then fingerprint.
        let (ligands, ligand_aliases) = dedupe_ligands(ligands);
        let mut ligand_table =
            Table::new(tables::LIGAND, ligand_schema())?.with_key("ligand_id")?;
        for l in &ligands {
            ligand_table.append_row(&[
                Value::from(l.ligand_id.as_str()),
                Value::from(l.name.as_str()),
                Value::from(l.smiles.as_str()),
                Value::Float(l.molecular_weight),
                Value::from(l.hbd),
                Value::from(l.hba),
                Value::from(l.rings),
            ])?;
        }
        let (fingerprints, molecules) = parse_structures(
            ligands
                .iter()
                .map(|l| (l.ligand_id.as_str(), l.smiles.as_str())),
        );

        let mut catalog = Catalog::new();
        catalog.create_table(protein_table)?;
        catalog.create_table(ligand_table)?;
        Ok(Overlay {
            catalog,
            fingerprints,
            molecules,
            ligand_aliases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_phylo::newick::parse_newick;
    use drugtree_store::expr::Predicate;

    fn setup() -> (Tree, TreeIndex) {
        let tree = parse_newick("((P1:1,P2:1)cladeA:1,(P3:1,P4:1)cladeB:1)root;").unwrap();
        let index = TreeIndex::build(&tree);
        (tree, index)
    }

    fn protein(accession: &str) -> ProteinRecord {
        ProteinRecord {
            accession: accession.into(),
            name: format!("protein {accession}"),
            organism: "synthetic".into(),
            sequence: "MKVLAT".into(),
            gene: None,
        }
    }

    fn proteins() -> Vec<ProteinRecord> {
        ["P1", "P2", "P3", "P4"].map(protein).to_vec()
    }

    fn ligands() -> Vec<LigandRecord> {
        vec![
            LigandRecord::from_smiles("L1", "aspirin", "CC(=O)Oc1ccccc1C(=O)O").unwrap(),
            LigandRecord::from_smiles("L2", "ethanol", "CCO").unwrap(),
        ]
    }

    fn unparsable(id: &str, smiles: String) -> LigandRecord {
        LigandRecord {
            ligand_id: id.into(),
            name: "broken".into(),
            smiles,
            molecular_weight: 100.0,
            hbd: 0,
            hba: 0,
            rings: 0,
        }
    }

    /// How many ligand-table rows hold exactly `ligand_id`: the key
    /// the executor's ligand join probes (no alias is followed).
    fn catalogued(overlay: &Overlay, ligand_id: &str) -> usize {
        let t = overlay.catalog().table(tables::LIGAND).unwrap();
        t.key_rows(&Value::from(ligand_id)).len()
    }

    /// The leaf rank the protein table gives `accession`.
    fn rank_of(overlay: &Overlay, accession: &str) -> Value {
        let t = overlay.catalog().table(tables::PROTEIN).unwrap();
        let row = (0..t.len())
            .find(|&i| t.cell(i, 0) == Value::from(accession))
            .unwrap();
        t.cell(row, 3)
    }

    #[test]
    fn full_build() {
        let (tree, index) = setup();
        let overlay = OverlayBuilder::new(&tree, &index)
            .build(&proteins(), &ligands())
            .unwrap();

        assert_eq!(
            overlay.catalog().table_names(),
            vec![tables::LIGAND, tables::PROTEIN]
        );
        let t = overlay.catalog().table(tables::PROTEIN).unwrap();
        assert_eq!(t.len(), 4);
        // Leaf-rank keying: clade A = ranks 0..2.
        let in_clade_a = Predicate::between("leaf_rank", 0i64, 1i64)
            .bind(t.schema())
            .unwrap();
        assert_eq!(t.eval(&in_clade_a, 0..t.len()).count_ones(), 2);
        assert_eq!(overlay.catalog().table(tables::LIGAND).unwrap().len(), 2);
        // Fingerprints cached.
        assert!(overlay.fingerprint("L1").is_some());
        assert!(overlay.fingerprint("L9").is_none());
        assert_eq!(overlay.fingerprints().count(), 2);
    }

    #[test]
    fn normalised_accessions_land_on_their_leaf() {
        let (tree, index) = setup();
        // A database-framed accession and a versioned lowercase one are
        // each placed on their leaf's rank, beside an exact one.
        let ps = ["sp|P1|KIN1_HUMAN", "p2.3", "P4"].map(protein);
        let overlay = OverlayBuilder::new(&tree, &index).build(&ps, &[]).unwrap();
        assert_eq!(rank_of(&overlay, "sp|P1|KIN1_HUMAN"), Value::Int(0));
        assert_eq!(rank_of(&overlay, "p2.3"), Value::Int(1));
        assert_eq!(rank_of(&overlay, "P4"), Value::Int(3));
    }

    #[test]
    fn unparseable_smiles_kept_without_a_fingerprint() {
        let (tree, index) = setup();
        let mut ls = ligands();
        ls.push(unparsable("L3", "C(((".into()));
        let overlay = OverlayBuilder::new(&tree, &index)
            .build(&proteins(), &ls)
            .unwrap();
        assert!(overlay.fingerprint("L3").is_none());
        assert_eq!(catalogued(&overlay, "L3"), 1);
        assert_eq!(overlay.catalog().table(tables::LIGAND).unwrap().len(), 3);
    }

    /// One ligand record far past `smiles::MAX_ATOMS` used to overflow
    /// the stack in canonicalisation and abort the whole build.
    #[test]
    fn a_ten_thousand_atom_ligand_does_not_abort_the_build() {
        let (tree, index) = setup();
        let mut ls = ligands();
        ls.push(unparsable("HUGE", "C".repeat(10_000)));
        let overlay = OverlayBuilder::new(&tree, &index)
            .build(&proteins(), &ls)
            .unwrap();
        assert!(overlay.fingerprint("HUGE").is_none());
        assert_eq!(catalogued(&overlay, "HUGE"), 1);
        assert_eq!(overlay.fingerprints().count(), 2);
    }

    #[test]
    fn duplicate_structures_unify_across_sources() {
        let (tree, index) = setup();
        // The same compound under two ids from two databases.
        let ligands = vec![
            LigandRecord::from_smiles("CHEMBL25", "aspirin", "CC(=O)Oc1ccccc1C(=O)O").unwrap(),
            LigandRecord::from_smiles("DB00945", "aspirin again", "OC(=O)c1ccccc1OC(C)=O").unwrap(),
        ];
        let overlay = OverlayBuilder::new(&tree, &index)
            .build(&proteins(), &ligands)
            .unwrap();
        assert_eq!(
            overlay.catalog().table(tables::LIGAND).unwrap().len(),
            1,
            "one compound survives"
        );
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
        assert_eq!(catalogued(&overlay, "DB00945"), 0);
        assert_eq!(overlay.fingerprints().count(), 1);
    }

    /// A catalog whose ligand table carries no `ligand_id` key (or is
    /// shaped otherwise) is refused: the ligand join would silently
    /// find nothing.
    #[test]
    fn a_catalog_without_the_ligand_key_is_refused() {
        let catalog = |ligands: Table| {
            let mut c = Catalog::new();
            c.create_table(Table::new(tables::PROTEIN, protein_schema()).unwrap())
                .unwrap();
            c.create_table(ligands).unwrap();
            c
        };
        let ligands = || Table::new(tables::LIGAND, ligand_schema()).unwrap();
        let keyed = ligands().with_key("ligand_id").unwrap();
        assert!(Overlay::from_catalog(catalog(keyed)).is_ok());
        assert!(Overlay::from_catalog(catalog(ligands())).is_err());
        let on_name = ligands().with_key("name").unwrap();
        assert!(Overlay::from_catalog(catalog(on_name)).is_err());
        let reshaped = Table::new(tables::LIGAND, protein_schema())
            .unwrap()
            .with_key("accession")
            .unwrap();
        assert!(Overlay::from_catalog(catalog(reshaped)).is_err());
    }

    #[test]
    fn unknown_protein_record_fails_build() {
        let (tree, index) = setup();
        let mut ps = proteins();
        ps.push(protein("QQQQQ"));
        // Protein records are authoritative; an unresolvable one is an
        // error.
        assert!(OverlayBuilder::new(&tree, &index).build(&ps, &[]).is_err());
    }
}
