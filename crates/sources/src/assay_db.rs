//! The BindingDB-like assay/activity source.

use crate::latency::LatencyModel;
use crate::source::{SimulatedSource, SourceCapabilities, SourceKind};
use crate::Result;
use drugtree_chem::affinity::ActivityRecord;
use drugtree_store::schema::{Column, Schema};
use drugtree_store::table::Table;
use drugtree_store::value::{Value, ValueType};

/// Schema of the assay source. The federation key is the protein
/// accession: DrugTree fetches "all activities measured against this
/// protein" for the leaves in view.
pub fn assay_schema() -> Schema {
    Schema::new(vec![
        Column::required("protein_accession", ValueType::Text),
        Column::required("ligand_id", ValueType::Text),
        Column::required("activity_type", ValueType::Text),
        Column::required("value_nm", ValueType::Float),
        Column::required("source", ValueType::Text),
        Column::required("year", ValueType::Int),
    ])
}

/// Convert a record to a row in [`assay_schema`] order.
pub fn assay_row(r: &ActivityRecord) -> Vec<Value> {
    vec![
        Value::from(r.protein_accession.as_str()),
        Value::from(r.ligand_id.as_str()),
        Value::from(r.activity_type.label()),
        Value::Float(r.value_nm),
        Value::from(r.source.as_str()),
        Value::Int(r.year as i64),
    ]
}

/// Build an assay source from validated records.
pub fn assay_source(
    name: impl Into<String>,
    records: &[ActivityRecord],
    capabilities: SourceCapabilities,
    latency: LatencyModel,
) -> Result<SimulatedSource> {
    // A deposit names the same few accessions, ligands, types and
    // sources over and over; each text column's dictionary keeps one
    // allocation per distinct string, which every shipped row shares.
    let mut table = Table::new("assays", assay_schema())?;
    for r in records {
        r.validate().map_err(crate::SourceError::Record)?;
        table.append_row(&assay_row(r))?;
    }
    SimulatedSource::new(
        name,
        SourceKind::Assay,
        table,
        "protein_accession",
        capabilities,
        latency,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{DataSource, FetchRequest};
    use drugtree_chem::affinity::ActivityType;

    fn records() -> Vec<ActivityRecord> {
        vec![
            ActivityRecord {
                protein_accession: "P01".into(),
                ligand_id: "L1".into(),
                activity_type: ActivityType::Ki,
                value_nm: 12.0,
                source: "bindingdb-sim".into(),
                year: 2011,
            },
            ActivityRecord {
                protein_accession: "P01".into(),
                ligand_id: "L2".into(),
                activity_type: ActivityType::Ic50,
                value_nm: 450.0,
                source: "bindingdb-sim".into(),
                year: 2012,
            },
            ActivityRecord {
                protein_accession: "P02".into(),
                ligand_id: "L1".into(),
                activity_type: ActivityType::Kd,
                value_nm: 3.0,
                source: "bindingdb-sim".into(),
                year: 2010,
            },
        ]
    }

    #[test]
    fn keyed_by_protein() {
        let src = assay_source(
            "bindingdb-sim",
            &records(),
            SourceCapabilities::full(),
            LatencyModel::free(),
        )
        .unwrap();
        assert_eq!(src.kind(), SourceKind::Assay);
        let resp = src
            .fetch(&FetchRequest::lookup(vec![Value::from("P01")]))
            .unwrap();
        let shipped: Vec<Vec<Value>> = (0..resp.table.len()).map(|i| resp.table.row(i)).collect();
        assert_eq!(
            shipped,
            [assay_row(&records()[0]), assay_row(&records()[1])]
        );
    }

    #[test]
    fn invalid_record_rejected_at_build() {
        let mut bad = records();
        bad[0].value_nm = -5.0;
        assert!(assay_source("x", &bad, SourceCapabilities::full(), LatencyModel::free()).is_err());
    }

    /// A scan ships every record's cells as its row holds them, in
    /// deposit order.
    #[test]
    fn a_scan_ships_every_record() {
        let src = assay_source(
            "b",
            &records(),
            SourceCapabilities::full(),
            LatencyModel::free(),
        )
        .unwrap();
        let resp = src.fetch(&FetchRequest::scan()).unwrap();
        assert_eq!(resp.table.schema(), &assay_schema());
        for (i, r) in records().iter().enumerate() {
            assert_eq!(resp.table.row(i), assay_row(r));
        }
    }
}
