//! Error type shared by the storage layer.

use std::fmt;

/// Errors raised by storage operations.
///
/// The storage layer is deliberately strict: schema mismatches and
/// out-of-bounds accesses are programming errors in the layers above, so we
/// surface them as typed errors rather than panicking, letting callers decide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table name was not found in the catalog.
    UnknownTable(String),
    /// A column name was not found in a table schema.
    UnknownColumn { table: String, column: String },
    /// A value's type did not match the column's declared [`crate::DataType`].
    TypeMismatch {
        column: String,
        expected: &'static str,
        got: &'static str,
    },
    /// A string column's dictionary would outgrow its `u32` byte offsets.
    DictionaryFull { column: String },
    /// Row had the wrong number of fields for the schema.
    ArityMismatch { expected: usize, got: usize },
    /// A join relation referenced a column that is not declared as a join key.
    NotAJoinKey { table: String, column: String },
    /// Duplicate table registration.
    DuplicateTable(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            StorageError::TypeMismatch {
                column,
                expected,
                got,
            } => {
                write!(
                    f,
                    "type mismatch on column {column}: expected {expected}, got {got}"
                )
            }
            StorageError::DictionaryFull { column } => {
                write!(f, "dictionary of column {column} is full (u32 offsets)")
            }
            StorageError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: expected {expected} fields, got {got}"
                )
            }
            StorageError::NotAJoinKey { table, column } => {
                write!(f, "{table}.{column} is not declared as a join key")
            }
            StorageError::DuplicateTable(t) => write!(f, "duplicate table: {t}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::UnknownColumn {
            table: "posts".into(),
            column: "zzz".into(),
        };
        assert_eq!(e.to_string(), "unknown column posts.zzz");
        let e = StorageError::TypeMismatch {
            column: "id".into(),
            expected: "Int",
            got: "Str",
        };
        assert!(e.to_string().contains("expected Int"));
        let e = StorageError::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            StorageError::UnknownTable("a".into()),
            StorageError::UnknownTable("a".into())
        );
        assert_ne!(
            StorageError::UnknownTable("a".into()),
            StorageError::DuplicateTable("a".into())
        );
    }
}
