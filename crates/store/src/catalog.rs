//! A named collection of tables.

use crate::table::Table;
use crate::{Result, StoreError};
use rustc_hash::FxHashMap;

/// The store's top-level namespace.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: FxHashMap<String, Table>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table; the table's own name is used as the key.
    pub fn create_table(&mut self, table: Table) -> Result<()> {
        let name = table.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(StoreError::DuplicateTable(name));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::UnknownTable(name.to_string()))
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterate over tables (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::ValueType;

    fn table(name: &str) -> Table {
        Table::new(
            name,
            Schema::new(vec![Column::required("id", ValueType::Int)]),
        )
        .unwrap()
    }

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.create_table(table("proteins")).unwrap();
        c.create_table(table("ligands")).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.table_names(), vec!["ligands", "proteins"]);
        assert!(c.table("proteins").is_ok());
        assert!(c.table("nope").is_err());

        assert!(matches!(
            c.create_table(table("proteins")),
            Err(StoreError::DuplicateTable(_))
        ));
    }
}
