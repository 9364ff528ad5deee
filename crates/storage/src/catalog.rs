//! Database catalog: tables plus schema-level join relations.
//!
//! The catalog is FactorJoin's offline input (paper Figure 4): the set of
//! tables and all PK/FK join relations. From the relations we derive the
//! *equivalent key groups* — connected components of the bipartite
//! (table, column) join graph — which is where bin budgets are allocated
//! and bins are built.

use crate::error::StorageError;
use crate::table::Table;
use crate::unionfind::UnionFind;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Reference to a join key: a (table, column) pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KeyRef {
    /// Table name.
    pub table: String,
    /// Column name within the table.
    pub column: String,
}

impl KeyRef {
    /// Constructs a key reference.
    pub fn new(table: &str, column: &str) -> Self {
        KeyRef {
            table: table.to_string(),
            column: column.to_string(),
        }
    }
}

impl std::fmt::Display for KeyRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// A declared equi-join relation between two join keys (e.g. FK → PK).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinRelation {
    /// One side of the relation.
    pub left: KeyRef,
    /// Other side of the relation.
    pub right: KeyRef,
}

impl JoinRelation {
    /// Constructs a join relation between `left` and `right`.
    pub fn new(left: KeyRef, right: KeyRef) -> Self {
        JoinRelation { left, right }
    }
}

/// One equivalent key group: semantically-equal join keys across tables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyGroup {
    /// Stable group id (index into [`Catalog::equivalent_key_groups`]).
    pub id: usize,
    /// Member join keys, sorted.
    pub keys: Vec<KeyRef>,
}

/// An in-memory database: named tables plus join relations.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    relations: Vec<JoinRelation>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table; rejects duplicates.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        if self.tables.contains_key(table.name()) {
            return Err(StorageError::DuplicateTable(table.name().to_string()));
        }
        self.tables.insert(table.name().to_string(), table);
        Ok(())
    }

    /// Declares a join relation; both endpoints must exist and be join keys.
    pub fn add_relation(&mut self, rel: JoinRelation) -> Result<()> {
        for kr in [&rel.left, &rel.right] {
            let t = self.table(&kr.table)?;
            let idx =
                t.schema()
                    .index_of(&kr.column)
                    .ok_or_else(|| StorageError::UnknownColumn {
                        table: kr.table.clone(),
                        column: kr.column.clone(),
                    })?;
            if !t.schema().column(idx).join_key {
                return Err(StorageError::NotAJoinKey {
                    table: kr.table.clone(),
                    column: kr.column.clone(),
                });
            }
        }
        self.relations.push(rel);
        Ok(())
    }

    /// Convenience: declare a relation by names.
    pub fn relate(&mut self, ta: &str, ca: &str, tb: &str, cb: &str) -> Result<()> {
        self.add_relation(JoinRelation::new(KeyRef::new(ta, ca), KeyRef::new(tb, cb)))
    }

    /// Table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Mutable table by name.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// All tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Number of registered tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Declared join relations.
    pub fn relations(&self) -> &[JoinRelation] {
        &self.relations
    }

    /// All distinct join keys referenced by relations, sorted.
    pub fn join_keys(&self) -> Vec<KeyRef> {
        let mut keys: Vec<KeyRef> = self
            .relations
            .iter()
            .flat_map(|r| [r.left.clone(), r.right.clone()])
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Equivalent key groups: connected components of the join-key graph.
    ///
    /// Group ids are stable for a given catalog (ordered by smallest member).
    pub fn equivalent_key_groups(&self) -> Vec<KeyGroup> {
        let keys = self.join_keys();
        let index: BTreeMap<&KeyRef, usize> =
            keys.iter().enumerate().map(|(i, k)| (k, i)).collect();
        let mut uf = UnionFind::new(keys.len());
        for r in &self.relations {
            uf.union(index[&r.left], index[&r.right]);
        }
        uf.groups()
            .into_iter()
            .enumerate()
            .map(|(id, members)| KeyGroup {
                id,
                keys: members.into_iter().map(|i| keys[i].clone()).collect(),
            })
            .collect()
    }

    /// Total data footprint in bytes (sum over tables).
    pub fn heap_bytes(&self) -> usize {
        self.tables.values().map(Table::heap_bytes).sum()
    }

    /// Total row count across tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::nrows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, TableSchema};
    use crate::value::Value;

    fn mk_table(name: &str, key_cols: &[&str]) -> Table {
        let mut cols: Vec<ColumnDef> = key_cols.iter().map(|c| ColumnDef::key(c)).collect();
        cols.push(ColumnDef::new("payload", DataType::Int));
        let schema = TableSchema::new(cols);
        let row: Vec<Value> = (0..schema.len()).map(|i| Value::Int(i as i64)).collect();
        Table::from_rows(name, schema, &[row]).unwrap()
    }

    fn catalog3() -> Catalog {
        // a(id) ⋈ b(a_id), b(c_id) ⋈ c(id): two groups expected.
        let mut cat = Catalog::new();
        cat.add_table(mk_table("a", &["id"])).unwrap();
        cat.add_table(mk_table("b", &["a_id", "c_id"])).unwrap();
        cat.add_table(mk_table("c", &["id"])).unwrap();
        cat.relate("a", "id", "b", "a_id").unwrap();
        cat.relate("b", "c_id", "c", "id").unwrap();
        cat
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut cat = Catalog::new();
        cat.add_table(mk_table("a", &["id"])).unwrap();
        assert!(matches!(
            cat.add_table(mk_table("a", &["id"])),
            Err(StorageError::DuplicateTable(_))
        ));
    }

    #[test]
    fn relation_requires_join_key() {
        let mut cat = Catalog::new();
        cat.add_table(mk_table("a", &["id"])).unwrap();
        cat.add_table(mk_table("b", &["a_id"])).unwrap();
        // "payload" exists but is not a join key.
        assert!(matches!(
            cat.relate("a", "payload", "b", "a_id"),
            Err(StorageError::NotAJoinKey { .. })
        ));
        assert!(matches!(
            cat.relate("a", "nope", "b", "a_id"),
            Err(StorageError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn equivalent_key_groups_are_components() {
        let cat = catalog3();
        let groups = cat.equivalent_key_groups();
        assert_eq!(groups.len(), 2);
        let g0: Vec<String> = groups[0].keys.iter().map(|k| k.to_string()).collect();
        let g1: Vec<String> = groups[1].keys.iter().map(|k| k.to_string()).collect();
        assert_eq!(g0, vec!["a.id", "b.a_id"]);
        assert_eq!(g1, vec!["b.c_id", "c.id"]);
    }

    #[test]
    fn transitive_relations_merge_groups() {
        let mut cat = catalog3();
        // Declaring a.id = c.id merges everything into one group.
        cat.relate("a", "id", "c", "id").unwrap();
        assert_eq!(cat.equivalent_key_groups().len(), 1);
    }

    #[test]
    fn join_keys_deduplicated_and_sorted() {
        let cat = catalog3();
        let keys = cat.join_keys();
        assert_eq!(keys.len(), 4);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn totals() {
        let cat = catalog3();
        assert_eq!(cat.num_tables(), 3);
        assert_eq!(cat.total_rows(), 3);
        assert!(cat.heap_bytes() > 0);
    }
}
