//! Table schemas: column definitions, data types, join-key declarations.

use serde::{Deserialize, Serialize};

/// Logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit integer (ids, counts, dates encoded as epoch days/seconds).
    Int,
    /// 64-bit float.
    Float,
    /// Dictionary-encoded UTF-8 string.
    Str,
}

impl DataType {
    /// Short name used in error messages and schema dumps.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "Int",
            DataType::Float => "Float",
            DataType::Str => "Str",
        }
    }
}

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name, unique within the table.
    pub name: String,
    /// Logical type.
    pub dtype: DataType,
    /// True when the column participates in at least one join relation.
    /// FactorJoin builds bins and MFV statistics only for join keys.
    pub join_key: bool,
}

impl ColumnDef {
    /// A plain (non-join-key) column.
    pub fn new(name: &str, dtype: DataType) -> Self {
        ColumnDef {
            name: name.to_string(),
            dtype,
            join_key: false,
        }
    }

    /// An integer join-key column.
    pub fn key(name: &str) -> Self {
        ColumnDef {
            name: name.to_string(),
            dtype: DataType::Int,
            join_key: true,
        }
    }
}

/// Ordered set of column definitions for one table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Builds a schema; panics on duplicate column names (schemas are
    /// compile-time-known in this codebase, so duplicates are bugs).
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        for (i, c) in columns.iter().enumerate() {
            for other in &columns[i + 1..] {
                assert_ne!(c.name, other.name, "duplicate column name {:?}", c.name);
            }
        }
        TableSchema { columns }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// All column definitions in declaration order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Definition of column `idx`.
    pub fn column(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }

    /// Index of the column named `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("score", DataType::Int),
            ColumnDef::new("body", DataType::Str),
            ColumnDef::key("owner_id"),
        ])
    }

    #[test]
    fn index_of_finds_columns() {
        let s = schema();
        assert_eq!(s.index_of("id"), Some(0));
        assert_eq!(s.index_of("owner_id"), Some(3));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn join_key_indices_only_keys() {
        let keys: Vec<bool> = schema().columns().iter().map(|c| c.join_key).collect();
        assert_eq!(keys, vec![true, false, false, true]);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_panic() {
        TableSchema::new(vec![ColumnDef::key("id"), ColumnDef::key("id")]);
    }

    #[test]
    fn datatype_names() {
        assert_eq!(DataType::Int.name(), "Int");
        assert_eq!(DataType::Float.name(), "Float");
        assert_eq!(DataType::Str.name(), "Str");
    }
}
