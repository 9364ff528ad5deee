//! In-memory tables: a schema plus one [`Column`] per attribute.

use crate::column::{Column, ColumnBuilder, PushError};
use crate::error::StorageError;
use crate::schema::{ColumnDef, TableSchema};
use crate::value::Value;
use crate::Result;

/// A named, columnar, append-only table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: TableSchema,
    columns: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn empty(name: &str, schema: TableSchema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnBuilder::new(c.dtype).finish())
            .collect();
        Table {
            name: name.to_string(),
            schema,
            columns,
            nrows: 0,
        }
    }

    /// Creates a table from pre-built columns. All columns must have equal
    /// length and match the schema's types.
    pub fn from_columns(name: &str, schema: TableSchema, columns: Vec<Column>) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.len(),
                got: columns.len(),
            });
        }
        let nrows = columns.first().map_or(0, Column::len);
        for (def, col) in schema.columns().iter().zip(&columns) {
            if col.dtype() != def.dtype {
                return Err(StorageError::TypeMismatch {
                    column: def.name.clone(),
                    expected: def.dtype.name(),
                    got: col.dtype().name(),
                });
            }
            if col.len() != nrows {
                return Err(StorageError::ArityMismatch {
                    expected: nrows,
                    got: col.len(),
                });
            }
        }
        Ok(Table {
            name: name.to_string(),
            schema,
            columns,
            nrows,
        })
    }

    /// Bulk-loads rows of [`Value`]s (used by the data generators and tests).
    pub fn from_rows(name: &str, schema: TableSchema, rows: &[Vec<Value>]) -> Result<Self> {
        let mut builders: Vec<ColumnBuilder> = schema
            .columns()
            .iter()
            .map(|c| ColumnBuilder::with_capacity(c.dtype, rows.len()))
            .collect();
        for row in rows {
            if row.len() != schema.len() {
                return Err(StorageError::ArityMismatch {
                    expected: schema.len(),
                    got: row.len(),
                });
            }
            for (b, (v, def)) in builders.iter_mut().zip(row.iter().zip(schema.columns())) {
                b.push(v).map_err(|e| push_error(def, e))?;
            }
        }
        let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
        Ok(Table {
            name: name.to_string(),
            schema,
            columns,
            nrows: rows.len(),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| StorageError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })?;
        Ok(&self.columns[idx])
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Row `idx` as values (boundary use: tests, dumps).
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// Appends rows, rebuilding the affected columns.
    ///
    /// This is the data-insertion hook for the incremental-update experiment
    /// (paper Table 5). Appending re-encodes each column once; the cost is
    /// O(existing + new), which is acceptable for the update workloads.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let total = self.nrows + rows.len();
        let mut builders: Vec<ColumnBuilder> = self
            .schema
            .columns()
            .iter()
            .map(|c| ColumnBuilder::with_capacity(c.dtype, total))
            .collect();
        for i in 0..self.nrows {
            for (b, c) in builders.iter_mut().zip(&self.columns) {
                // Re-pushing existing values preserves dictionary stability
                // for the prefix because interning happens in first-seen order.
                b.push(&c.get(i))
                    .expect("existing value must be type-correct");
            }
        }
        for row in rows {
            if row.len() != self.schema.len() {
                return Err(StorageError::ArityMismatch {
                    expected: self.schema.len(),
                    got: row.len(),
                });
            }
            for (b, (v, def)) in builders
                .iter_mut()
                .zip(row.iter().zip(self.schema.columns()))
            {
                b.push(v).map_err(|e| push_error(def, e))?;
            }
        }
        self.columns = builders.into_iter().map(ColumnBuilder::finish).collect();
        self.nrows = total;
        Ok(())
    }

    /// Materializes a new table keeping only the rows in `sel` (in order).
    /// Used to split datasets for the incremental-update experiment.
    pub fn select_rows(&self, name: &str, sel: &[usize]) -> Table {
        let mut builders: Vec<ColumnBuilder> = self
            .schema
            .columns()
            .iter()
            .map(|c| ColumnBuilder::with_capacity(c.dtype, sel.len()))
            .collect();
        for &i in sel {
            for (b, c) in builders.iter_mut().zip(&self.columns) {
                b.push(&c.get(i))
                    .expect("existing value must be type-correct");
            }
        }
        Table {
            name: name.to_string(),
            schema: self.schema.clone(),
            columns: builders.into_iter().map(ColumnBuilder::finish).collect(),
            nrows: sel.len(),
        }
    }

    /// Approximate heap footprint of the table's data in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(Column::heap_bytes).sum()
    }
}

/// Names the column a refused value was pushed to.
fn push_error(def: &ColumnDef, e: PushError) -> StorageError {
    let column = def.name.clone();
    match e {
        PushError::TypeMismatch(got) => StorageError::TypeMismatch {
            column,
            expected: def.dtype.name(),
            got,
        },
        PushError::DictionaryFull => StorageError::DictionaryFull { column },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn schema() -> TableSchema {
        TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("score", DataType::Int),
            ColumnDef::new("tag", DataType::Str),
        ])
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1), Value::Int(10), Value::Str("a".into())],
            vec![Value::Int(2), Value::Null, Value::Str("b".into())],
            vec![Value::Int(3), Value::Int(-5), Value::Str("a".into())],
        ]
    }

    #[test]
    fn from_rows_roundtrip() {
        let t = Table::from_rows("t", schema(), &rows()).unwrap();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.column_by_name("id").unwrap().ints(), &[1, 2, 3]);
        assert!(t.column(1).is_null(1));
        assert_eq!(t.row(2)[2].as_str(), Some("a"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let bad = vec![vec![Value::Int(1)]];
        let err = Table::from_rows("t", schema(), &bad).unwrap_err();
        assert_eq!(
            err,
            StorageError::ArityMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn type_mismatch_names_column() {
        let bad = vec![vec![
            Value::Int(1),
            Value::Str("x".into()),
            Value::Str("a".into()),
        ]];
        match Table::from_rows("t", schema(), &bad).unwrap_err() {
            StorageError::TypeMismatch { column, .. } => assert_eq!(column, "score"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn append_rows_extends_and_preserves() {
        let mut t = Table::from_rows("t", schema(), &rows()).unwrap();
        t.append_rows(&[vec![Value::Int(4), Value::Int(7), Value::Str("c".into())]])
            .unwrap();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.column(0).ints(), &[1, 2, 3, 4]);
        assert_eq!(t.row(1)[1], Value::Null);
        assert_eq!(t.row(3)[2].as_str(), Some("c"));
    }

    #[test]
    fn select_rows_projects_subset() {
        let t = Table::from_rows("t", schema(), &rows()).unwrap();
        let half = t.select_rows("t_half", &[0, 2]);
        assert_eq!(half.nrows(), 2);
        assert_eq!(half.column(0).ints(), &[1, 3]);
        assert_eq!(half.row(1)[2].as_str(), Some("a"));
    }

    #[test]
    fn column_by_name_unknown() {
        let t = Table::empty("t", schema());
        assert!(matches!(
            t.column_by_name("missing"),
            Err(StorageError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn from_columns_validates_lengths() {
        let s = TableSchema::new(vec![ColumnDef::key("id")]);
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push(&Value::Int(1)).unwrap();
        let t = Table::from_columns("t", s, vec![b.finish()]).unwrap();
        assert_eq!(t.nrows(), 1);
    }
}
