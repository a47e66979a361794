//! The UniProt-like protein source.

use crate::latency::LatencyModel;
use crate::source::{SimulatedSource, SourceCapabilities, SourceKind};
use crate::Result;
use drugtree_store::schema::{Column, Schema};
use drugtree_store::table::Table;
use drugtree_store::value::{Value, ValueType};

/// One protein record as served by the source.
#[derive(Debug, Clone, PartialEq)]
pub struct ProteinRecord {
    /// Primary accession (the federation key, e.g. "P00533").
    pub accession: String,
    /// Recommended protein name.
    pub name: String,
    /// Source organism.
    pub organism: String,
    /// Amino-acid sequence (one-letter codes).
    pub sequence: String,
    /// Gene symbol, when annotated.
    pub gene: Option<String>,
}

/// Schema of the protein source.
pub fn protein_schema() -> Schema {
    Schema::new(vec![
        Column::required("accession", ValueType::Text),
        Column::required("name", ValueType::Text),
        Column::required("organism", ValueType::Text),
        Column::required("sequence", ValueType::Text),
        Column::nullable("gene", ValueType::Text),
    ])
}

/// Convert a record to a row in [`protein_schema`] order.
pub fn protein_row(r: &ProteinRecord) -> Vec<Value> {
    vec![
        Value::from(r.accession.as_str()),
        Value::from(r.name.as_str()),
        Value::from(r.organism.as_str()),
        Value::from(r.sequence.as_str()),
        r.gene.as_deref().map_or(Value::Null, Value::from),
    ]
}

/// Parse a fetched row back into a record.
pub fn protein_from_row(row: &[Value]) -> Option<ProteinRecord> {
    Some(ProteinRecord {
        accession: row.first()?.as_text()?.to_string(),
        name: row.get(1)?.as_text()?.to_string(),
        organism: row.get(2)?.as_text()?.to_string(),
        sequence: row.get(3)?.as_text()?.to_string(),
        gene: row.get(4).and_then(|v| v.as_text()).map(str::to_string),
    })
}

/// Build a protein source from records.
pub fn protein_source(
    name: impl Into<String>,
    records: &[ProteinRecord],
    capabilities: SourceCapabilities,
    latency: LatencyModel,
) -> Result<SimulatedSource> {
    let mut table = Table::new("proteins", protein_schema())?;
    for r in records {
        table.append_row(&protein_row(r))?;
    }
    SimulatedSource::new(
        name,
        SourceKind::Protein,
        table,
        "accession",
        capabilities,
        latency,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{DataSource, FetchRequest};

    fn records() -> Vec<ProteinRecord> {
        vec![
            ProteinRecord {
                accession: "P01".into(),
                name: "Kinase A".into(),
                organism: "Homo sapiens".into(),
                sequence: "MKVLAT".into(),
                gene: Some("KINA".into()),
            },
            ProteinRecord {
                accession: "P02".into(),
                name: "Kinase B".into(),
                organism: "Mus musculus".into(),
                sequence: "MKVLGT".into(),
                gene: None,
            },
        ]
    }

    #[test]
    fn roundtrip_through_source() {
        let src = protein_source(
            "uniprot-sim",
            &records(),
            SourceCapabilities::full(),
            LatencyModel::free(),
        )
        .unwrap();
        assert_eq!(src.kind(), SourceKind::Protein);
        assert_eq!(src.key_column(), "accession");
        let resp = src
            .fetch(&FetchRequest::lookup(vec![Value::from("P02")]))
            .unwrap();
        assert_eq!(resp.rows.len(), 1);
        let rec = protein_from_row(&resp.rows[0]).unwrap();
        assert_eq!(rec, records()[1]);
        assert_eq!(rec.gene, None);
    }

    #[test]
    fn from_row_rejects_malformed() {
        assert!(protein_from_row(&[Value::Int(1)]).is_none());
        assert!(protein_from_row(&[]).is_none());
    }
}
