//! # fj-storage — columnar in-memory storage substrate
//!
//! This crate provides the storage layer that every other crate in the
//! FactorJoin reproduction builds on: typed columnar tables with null
//! bitmaps, dictionary-encoded string columns, table schemas that declare
//! which columns participate in joins, and a catalog that records the
//! PK/FK join relations of a database instance.
//!
//! The paper (§3.3) assumes a relational DB whose schema exposes all join
//! relations between join keys; [`Catalog::equivalent_key_groups`] derives
//! the *equivalent key groups* (connected components of the join-relation
//! graph) that FactorJoin bins together.
//!
//! Design notes:
//! * Columns are append-only; tables are immutable once loaded except for
//!   [`Table::append_rows`], which is the hook for the incremental-update
//!   experiments (paper §4.3, Table 5).
//! * Join keys and numeric attributes are `i64`; floating attributes are
//!   `f64`; strings are dictionary-encoded (`u32` codes) so that both the
//!   estimators and the executor operate on integers.

pub mod bitmap;
pub mod catalog;
pub mod codec;
pub mod column;
pub mod error;
pub mod schema;
pub mod table;
pub mod unionfind;
pub mod value;

pub use bitmap::NullBitmap;
pub use catalog::{Catalog, JoinRelation, KeyGroup, KeyRef};
pub use column::{Column, ColumnBuilder, DictionaryFull, PushError, StrDict};
pub use error::StorageError;
pub use schema::{ColumnDef, DataType, TableSchema};
pub use table::Table;
pub use unionfind::UnionFind;
pub use value::Value;

/// Result alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
