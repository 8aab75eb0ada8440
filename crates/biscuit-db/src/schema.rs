//! Table schemas and the catalog.

use std::collections::HashMap;

use crate::error::{DbError, DbResult};
use crate::value::ColumnType;

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (TPC-H style, e.g. `l_shipdate`).
    pub name: String,
    /// Data type.
    pub ty: ColumnType,
}

/// A table schema: ordered columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(cols: &[(&str, ColumnType)]) -> Schema {
        Schema {
            columns: cols
                .iter()
                .map(|&(name, ty)| Column {
                    name: name.to_owned(),
                    ty,
                })
                .collect(),
        }
    }

    /// The columns, in order.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub(crate) fn len(&self) -> usize {
        self.columns.len()
    }

    /// The column types, in order.
    pub(crate) fn types(&self) -> Vec<ColumnType> {
        self.columns.iter().map(|c| c.ty).collect()
    }
}

/// Metadata the engine keeps per table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Backing file path on the device filesystem.
    pub file_path: String,
    /// Row count (maintained at load time).
    pub rows: u64,
    /// Page count of the backing file.
    pub pages: u64,
}

/// The database catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, TableMeta>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableExists`] on duplicate names.
    pub(crate) fn register(&mut self, meta: TableMeta) -> DbResult<()> {
        if self.tables.contains_key(&meta.name) {
            return Err(DbError::TableExists(meta.name));
        }
        self.tables.insert(meta.name.clone(), meta);
        Ok(())
    }

    /// Looks up a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] if absent.
    pub fn table(&self, name: &str) -> DbResult<&TableMeta> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup() {
        let s = Schema::new(&[("a", ColumnType::Int), ("b", ColumnType::Str)]);
        assert_eq!(s.columns()[1].name, "b");
        assert_eq!(s.types(), vec![ColumnType::Int, ColumnType::Str]);
    }

    #[test]
    fn catalog_rejects_duplicates() {
        let mut c = Catalog::new();
        let meta = TableMeta {
            name: "t".into(),
            schema: Schema::new(&[("a", ColumnType::Int)]),
            file_path: "tbl_t".into(),
            rows: 0,
            pages: 0,
        };
        c.register(meta.clone()).unwrap();
        assert!(matches!(c.register(meta), Err(DbError::TableExists(_))));
        assert!(c.table("t").is_ok());
        assert!(matches!(c.table("u"), Err(DbError::UnknownTable(_))));
    }
}
