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

/// The records a fetch shipped, read from its typed columns in
/// [`protein_schema`] order; `None` when a row lacks a required text
/// cell.
pub fn protein_records(shipped: &Table) -> Option<Vec<ProteinRecord>> {
    let text = |column: usize, i: usize| {
        (column < shipped.schema().arity())
            .then(|| shipped.column(column).text_at(i))?
            .map(str::to_string)
    };
    (0..shipped.len())
        .map(|i| {
            Some(ProteinRecord {
                accession: text(0, i)?,
                name: text(1, i)?,
                organism: text(2, i)?,
                sequence: text(3, i)?,
                gene: text(4, i),
            })
        })
        .collect()
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
        assert_eq!(protein_records(&resp.table).unwrap(), records()[1..]);
        let all = src.fetch(&FetchRequest::scan()).unwrap();
        assert_eq!(protein_records(&all.table).unwrap(), records());
    }

    #[test]
    fn records_refuse_a_missing_text_cell() {
        let mut short = Table::new(
            "p",
            Schema::new(vec![Column::required("accession", ValueType::Text)]),
        )
        .unwrap();
        assert_eq!(protein_records(&short), Some(Vec::new()));
        short.append_row(&[Value::from("P1")]).unwrap();
        assert!(protein_records(&short).is_none());
        let mut typed = Table::new("p", protein_schema()).unwrap();
        typed.append_row(&protein_row(&records()[0])).unwrap();
        let moved = typed.gather(&[0], &[1, 0, 2, 3]);
        assert_eq!(protein_records(&moved).unwrap()[0].accession, "Kinase A");
    }
}
