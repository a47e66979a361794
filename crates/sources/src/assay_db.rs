//! The BindingDB-like assay/activity source.

use crate::latency::LatencyModel;
use crate::source::{SimulatedSource, SourceCapabilities, SourceKind};
use crate::Result;
use drugtree_chem::affinity::{ActivityRecord, ActivityType};
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

/// Parse a fetched row back into a record.
pub fn assay_from_row(row: &[Value]) -> Option<ActivityRecord> {
    Some(ActivityRecord {
        protein_accession: row.first()?.as_text()?.to_string(),
        ligand_id: row.get(1)?.as_text()?.to_string(),
        activity_type: ActivityType::parse(row.get(2)?.as_text()?)?,
        value_nm: row.get(3)?.as_f64()?,
        source: row.get(4)?.as_text()?.to_string(),
        year: row.get(5)?.as_int()? as u16,
    })
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
        assert_eq!(resp.rows.len(), 2);
        let recs: Vec<ActivityRecord> = resp
            .rows
            .iter()
            .map(|r| assay_from_row(r).unwrap())
            .collect();
        assert!(recs.iter().all(|r| r.protein_accession == "P01"));
    }

    #[test]
    fn invalid_record_rejected_at_build() {
        let mut bad = records();
        bad[0].value_nm = -5.0;
        assert!(assay_source("x", &bad, SourceCapabilities::full(), LatencyModel::free()).is_err());
    }

    #[test]
    fn row_roundtrip() {
        for r in records() {
            assert_eq!(assay_from_row(&assay_row(&r)).unwrap(), r);
        }
        // Unknown activity type text fails closed.
        let mut row = assay_row(&records()[0]);
        row[2] = Value::from("Kq");
        assert!(assay_from_row(&row).is_none());
    }
}
