//! The ChEMBL-like ligand/compound source.

use crate::latency::LatencyModel;
use crate::source::{SimulatedSource, SourceCapabilities, SourceKind};
use crate::Result;
use drugtree_chem::descriptors::Descriptors;
use drugtree_chem::smiles::parse_smiles;
use drugtree_store::schema::{Column, Schema};
use drugtree_store::table::Table;
use drugtree_store::value::{Value, ValueType};

/// One ligand record as served by the source.
///
/// Descriptors are stored denormalized (as a compound database would),
/// so predicates like `mw < 500` can be pushed down without the client
/// re-deriving chemistry.
#[derive(Debug, Clone, PartialEq)]
pub struct LigandRecord {
    /// Compound identifier (the federation key, e.g. "CHEMBL25").
    pub ligand_id: String,
    /// Preferred name.
    pub name: String,
    /// Structure as SMILES.
    pub smiles: String,
    /// Molecular weight.
    pub molecular_weight: f64,
    /// Hydrogen-bond donors.
    pub hbd: u32,
    /// Hydrogen-bond acceptors.
    pub hba: u32,
    /// Ring count.
    pub rings: u32,
}

impl LigandRecord {
    /// Build a record from an identifier, name, and structure,
    /// computing the descriptor columns from the parsed molecule.
    pub fn from_smiles(
        ligand_id: impl Into<String>,
        name: impl Into<String>,
        smiles: impl Into<String>,
    ) -> drugtree_chem::Result<LigandRecord> {
        let smiles = smiles.into();
        let mol = parse_smiles(&smiles)?;
        let d = Descriptors::compute(&mol);
        Ok(LigandRecord {
            ligand_id: ligand_id.into(),
            name: name.into(),
            smiles,
            molecular_weight: d.molecular_weight,
            hbd: d.hbd,
            hba: d.hba,
            rings: d.rings,
        })
    }
}

/// Schema of the ligand source.
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

/// Convert a record to a row in [`ligand_schema`] order.
pub fn ligand_row(r: &LigandRecord) -> Vec<Value> {
    vec![
        Value::from(r.ligand_id.as_str()),
        Value::from(r.name.as_str()),
        Value::from(r.smiles.as_str()),
        Value::Float(r.molecular_weight),
        Value::from(r.hbd),
        Value::from(r.hba),
        Value::from(r.rings),
    ]
}

/// The records a fetch shipped, read from its typed columns in
/// [`ligand_schema`] order; `None` when a row lacks a cell of its
/// column's type.
pub fn ligand_records(shipped: &Table) -> Option<Vec<LigandRecord>> {
    if shipped.schema().arity() < 7 {
        return shipped.is_empty().then(Vec::new);
    }
    let [id, name, smiles, mw, hbd, hba, rings] = std::array::from_fn(|c| shipped.column(c));
    (0..shipped.len())
        .map(|i| {
            Some(LigandRecord {
                ligand_id: id.text_at(i)?.to_string(),
                name: name.text_at(i)?.to_string(),
                smiles: smiles.text_at(i)?.to_string(),
                molecular_weight: mw.f64_at(i)?,
                hbd: hbd.int_at(i)? as u32,
                hba: hba.int_at(i)? as u32,
                rings: rings.int_at(i)? as u32,
            })
        })
        .collect()
}

/// Build a ligand source from records.
pub fn ligand_source(
    name: impl Into<String>,
    records: &[LigandRecord],
    capabilities: SourceCapabilities,
    latency: LatencyModel,
) -> Result<SimulatedSource> {
    let mut table = Table::new("ligands", ligand_schema())?;
    for r in records {
        table.append_row(&ligand_row(r))?;
    }
    SimulatedSource::new(
        name,
        SourceKind::Ligand,
        table,
        "ligand_id",
        capabilities,
        latency,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{DataSource, FetchRequest};
    use drugtree_store::expr::{CompareOp, Predicate};

    #[test]
    fn record_from_smiles_computes_descriptors() {
        let r = LigandRecord::from_smiles("L1", "aspirin", "CC(=O)Oc1ccccc1C(=O)O").unwrap();
        assert!((r.molecular_weight - 180.16).abs() < 0.2);
        assert_eq!(r.rings, 1);
        assert_eq!(r.hbd, 1);
        assert!(LigandRecord::from_smiles("L2", "bad", "C(((").is_err());
    }

    #[test]
    fn descriptor_pushdown() {
        let records = vec![
            LigandRecord::from_smiles("L1", "aspirin", "CC(=O)Oc1ccccc1C(=O)O").unwrap(),
            LigandRecord::from_smiles("L2", "methane", "C").unwrap(),
        ];
        let src = ligand_source(
            "chembl-sim",
            &records,
            SourceCapabilities::full(),
            LatencyModel::free(),
        )
        .unwrap();
        let resp = src
            .fetch(&FetchRequest::scan().with_predicate(Predicate::cmp("mw", CompareOp::Gt, 100.0)))
            .unwrap();
        let shipped = ligand_records(&resp.table).unwrap();
        assert_eq!(shipped.len(), 1);
        assert_eq!(shipped[0].ligand_id, "L1");
        let all = src.fetch(&FetchRequest::scan()).unwrap();
        assert_eq!(ligand_records(&all.table).unwrap(), records);
    }

    #[test]
    fn records_refuse_a_mistyped_cell() {
        let r = LigandRecord::from_smiles("L1", "caffeine", "Cn1cnc2c1c(=O)n(C)c(=O)n2C").unwrap();
        let mut typed = Table::new("l", ligand_schema()).unwrap();
        typed.append_row(&ligand_row(&r)).unwrap();
        assert_eq!(ligand_records(&typed).unwrap(), [r]);
        // hbd where mw belongs: not a number of the mw column's type.
        let swapped = typed.gather(&[0], &[0, 1, 2, 4, 3, 5, 6]);
        assert!(ligand_records(&swapped).is_none());
        assert!(ligand_records(&typed.gather(&[0], &[0])).is_none());
    }
}
