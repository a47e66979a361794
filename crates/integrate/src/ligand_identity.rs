//! Cross-source ligand identity: unify records that are the *same
//! compound* under different identifiers.
//!
//! ChEMBL calls aspirin `CHEMBL25`, DrugBank calls it `DB00945`, and a
//! lab spreadsheet writes its SMILES backwards. Without unification the
//! overlay shows three "different" ligands with one-third of the
//! evidence each. Canonical SMILES ([`drugtree_chem::canonical`])
//! gives a structure-level identity: records whose canonical forms
//! match collapse into one, and an alias map sends a merged-away id
//! to the surviving one.

use drugtree_chem::canonical::canonical_smiles;
use drugtree_chem::smiles::parse_smiles;
use drugtree_sources::ligand_db::LigandRecord;
use rustc_hash::FxHashMap;

/// Collapse structurally identical ligand records into
/// `(survivors, aliases)`.
///
/// The first record of each structure (in input order) survives;
/// later ids map to it in the returned alias table. Unparseable
/// structures are passed through untouched.
pub fn dedupe_ligands(records: &[LigandRecord]) -> (Vec<LigandRecord>, FxHashMap<String, String>) {
    let mut survivors: Vec<LigandRecord> = Vec::with_capacity(records.len());
    let mut by_structure: FxHashMap<String, String> = FxHashMap::default();
    let mut aliases: FxHashMap<String, String> = FxHashMap::default();

    for record in records {
        let Ok(mol) = parse_smiles(&record.smiles) else {
            survivors.push(record.clone());
            continue;
        };
        let canon = canonical_smiles(&mol);
        match by_structure.get(&canon) {
            Some(canonical_id) => {
                aliases.insert(record.ligand_id.clone(), canonical_id.clone());
            }
            None => {
                by_structure.insert(canon, record.ligand_id.clone());
                survivors.push(record.clone());
            }
        }
    }
    (survivors, aliases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, smiles: &str) -> LigandRecord {
        LigandRecord::from_smiles(id, format!("name-{id}"), smiles).unwrap()
    }

    #[test]
    fn identical_structures_merge() {
        // Aspirin three ways: as written, from the ring, and reversed.
        let records = vec![
            record("CHEMBL25", "CC(=O)Oc1ccccc1C(=O)O"),
            record("DB00945", "OC(=O)c1ccccc1OC(C)=O"),
            record("LAB-7", "O=C(O)c1ccccc1OC(=O)C"),
            record("OTHER", "CCO"),
        ];
        let (survivors, aliases) = dedupe_ligands(&records);
        assert_eq!(survivors.len(), 2);
        assert_eq!(aliases.len(), 2);
        assert_eq!(survivors[0].ligand_id, "CHEMBL25");
        assert_eq!(aliases["DB00945"], "CHEMBL25");
        assert_eq!(aliases["LAB-7"], "CHEMBL25");
        assert!(!aliases.contains_key("OTHER"));
    }

    #[test]
    fn distinct_structures_survive() {
        let records = vec![record("A", "CCO"), record("B", "CCN"), record("C", "COC")];
        let (survivors, aliases) = dedupe_ligands(&records);
        assert_eq!(survivors.len(), 3);
        assert!(aliases.is_empty());
    }

    #[test]
    fn unparseable_records_pass_through() {
        let mut broken = record("X", "CCO");
        broken.smiles = "C(((".into();
        let records = vec![broken.clone(), broken];
        let (survivors, aliases) = dedupe_ligands(&records);
        // Both kept: without a structure there is no identity evidence.
        assert_eq!(survivors.len(), 2);
        assert!(aliases.is_empty());
    }

    #[test]
    fn first_id_wins_deterministically() {
        let records = vec![record("Z-LATE", "CCO"), record("A-EARLY", "OCC")];
        let (survivors, aliases) = dedupe_ligands(&records);
        assert_eq!(
            survivors[0].ligand_id, "Z-LATE",
            "input order, not lexicographic"
        );
        assert_eq!(aliases["A-EARLY"], "Z-LATE");
    }
}
