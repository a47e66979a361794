//! JSON snapshot persistence for catalogs.
//!
//! DrugTree's mediator warms its local store from sources once, then
//! snapshots it so later sessions (and the benchmark harness) can skip
//! the integration pass.

use crate::catalog::Catalog;
use crate::table::{Table, TableSnapshot};
use crate::{Result, StoreError};
use serde::{Deserialize, Serialize};

/// Serializable catalog state.
#[derive(Debug, Serialize, Deserialize)]
struct CatalogSnapshot {
    /// Format version for forward compatibility.
    version: u32,
    tables: Vec<TableSnapshot>,
}

const SNAPSHOT_VERSION: u32 = 1;

/// Serialize a catalog to a JSON string.
pub fn save_catalog(catalog: &Catalog) -> Result<String> {
    let mut tables: Vec<TableSnapshot> = catalog.iter().map(Table::to_snapshot).collect();
    // Deterministic output regardless of hash-map order.
    tables.sort_by(|a, b| a.name.cmp(&b.name));
    serde_json::to_string(&CatalogSnapshot {
        version: SNAPSHOT_VERSION,
        tables,
    })
    .map_err(|e| StoreError::Snapshot(e.to_string()))
}

/// Restore a catalog from a JSON string produced by [`save_catalog`].
pub fn load_catalog(json: &str) -> Result<Catalog> {
    let snap: CatalogSnapshot =
        serde_json::from_str(json).map_err(|e| StoreError::Snapshot(e.to_string()))?;
    if snap.version != SNAPSHOT_VERSION {
        return Err(StoreError::Snapshot(format!(
            "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
            snap.version
        )));
    }
    let mut catalog = Catalog::new();
    for table_snap in snap.tables {
        catalog.create_table(Table::from_snapshot(table_snap)?)?;
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::{Value, ValueType};

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Column::required("id", ValueType::Int),
            Column::nullable("name", ValueType::Text),
        ]);
        let mut t = Table::new("ligand", schema)
            .unwrap()
            .with_key("id")
            .unwrap();
        t.append_row(&[Value::Int(1), Value::from("aspirin")])
            .unwrap();
        t.append_row(&[Value::Int(2), Value::Null]).unwrap();
        c.create_table(t).unwrap();
        c.create_table(
            Table::new(
                "empty",
                Schema::new(vec![Column::required("x", ValueType::Float)]),
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn roundtrip() {
        let c = sample_catalog();
        let json = save_catalog(&c).unwrap();
        assert!(json.contains(r#""indexes":[[0,"Hash"]]"#), "{json}");
        let back = load_catalog(&json).unwrap();
        assert_eq!(back.table_names(), vec!["empty", "ligand"]);
        let t = back.table("ligand").unwrap();
        assert_eq!(t.len(), 2);
        // The key survives and is functional.
        assert_eq!(t.key_column(), Some(0));
        assert_eq!(t.key_rows(&Value::Int(2)), &[1]);
        // Null cells survive.
        assert!(t.cell(1, 1).is_null());
        assert_eq!(back.table("empty").unwrap().key_column(), None);
    }

    #[test]
    fn deterministic_output() {
        let a = save_catalog(&sample_catalog()).unwrap();
        let b = save_catalog(&sample_catalog()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn version_check() {
        let json = save_catalog(&sample_catalog())
            .unwrap()
            .replace("\"version\":1", "\"version\":99");
        assert!(matches!(load_catalog(&json), Err(StoreError::Snapshot(_))));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            load_catalog("{not json"),
            Err(StoreError::Snapshot(_))
        ));
    }

    /// The ligand table's index list, as an older store wrote it
    /// (`[[0,"Hash"],[1,"BTree"]]`) and as it may be damaged.
    #[test]
    fn index_entries_load_as_the_key_or_nothing_and_anything_else_is_refused() {
        let json = save_catalog(&sample_catalog()).unwrap();
        let with = |indexes: &str| json.replace(r#""indexes":[[0,"Hash"]]"#, indexes);
        let ordered = load_catalog(&with(r#""indexes":[[0,"Hash"],[1,"BTree"]]"#)).unwrap();
        let t = ordered.table("ligand").unwrap();
        assert_eq!(t.key_column(), Some(0));
        assert_eq!(save_catalog(&ordered).unwrap(), json);
        let only_ordered = load_catalog(&with(r#""indexes":[[1,"BTree"]]"#)).unwrap();
        assert_eq!(only_ordered.table("ligand").unwrap().key_column(), None);
        for damaged in [
            r#""indexes":[[0,"Hash"],[1,"Hash"]]"#,
            r#""indexes":[[0,"Trie"]]"#,
            r#""indexes":[[2,"Hash"]]"#,
            r#""indexes":[[2,"BTree"]]"#,
        ] {
            assert!(
                matches!(load_catalog(&with(damaged)), Err(StoreError::Snapshot(_))),
                "{damaged}"
            );
        }
    }
}
