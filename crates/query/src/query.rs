//! The join-query IR: aliased tables, equi-join conditions, per-alias filters.

use crate::expr::FilterExpr;
use crate::subplan::{more_subplans_than, MAX_SUBPLANS};
use fj_storage::{Catalog, DataType};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One occurrence of a table in the FROM clause.
///
/// Self-joins (paper Appendix Case 4) are expressed as two `TableRef`s with
/// the same `table` but different `alias`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableRef {
    /// Alias used in join conditions and filters.
    pub alias: String,
    /// Underlying table name in the catalog.
    pub table: String,
}

impl TableRef {
    /// Creates a table reference.
    pub fn new(alias: &str, table: &str) -> Self {
        TableRef {
            alias: alias.to_string(),
            table: table.to_string(),
        }
    }
}

/// A column of a specific alias: `alias_idx` indexes [`Query::tables`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColRef {
    /// Index into the query's alias list.
    pub alias: usize,
    /// Column index within the alias's table schema.
    pub column: usize,
}

/// An equi-join condition `left = right` between two alias columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinPredicate {
    /// Left side.
    pub left: ColRef,
    /// Right side.
    pub right: ColRef,
}

/// The most join predicates a query may have. Analysis finds each join key
/// by a linear scan of the keys before it, so its cost grows with the
/// square of the join count; and a query's key-group variables number at
/// most its joins, so this also keeps them within `factorjoin-core`'s
/// `MAX_VARS` (256), the variables a factor can hold. [`Query::new`] and
/// [`Query::from_wire_parts`] refuse a query over it with
/// [`QueryError::TooManyJoins`]. The benchmark workloads have at most
/// eight aliases a query.
pub const MAX_JOINS: usize = 256;

/// Errors from query construction/binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Alias used twice in the FROM clause.
    DuplicateAlias(String),
    /// Alias not declared in FROM.
    UnknownAlias(String),
    /// Table missing from the catalog.
    UnknownTable(String),
    /// Column missing from a table schema.
    UnknownColumn { alias: String, column: String },
    /// A column index past the end of a table schema.
    ColumnOutOfRange { table: String, column: usize },
    /// Join condition on a non-key or float column.
    BadJoinColumn { alias: String, column: String },
    /// Both sides of a join condition refer to the same alias.
    SelfReferentialJoin(String),
    /// The join graph is not connected (cross products unsupported).
    Disconnected,
    /// More aliases than the sub-plan bitmask supports (64).
    TooManyAliases(usize),
    /// More join predicates than [`MAX_JOINS`].
    TooManyJoins(usize),
    /// More connected sub-plans than [`crate::MAX_SUBPLANS`].
    TooManySubplans,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::DuplicateAlias(a) => write!(f, "duplicate alias {a}"),
            QueryError::UnknownAlias(a) => write!(f, "unknown alias {a}"),
            QueryError::UnknownTable(t) => write!(f, "unknown table {t}"),
            QueryError::UnknownColumn { alias, column } => {
                write!(f, "unknown column {alias}.{column}")
            }
            QueryError::ColumnOutOfRange { table, column } => {
                write!(f, "table {table} has no column #{column}")
            }
            QueryError::BadJoinColumn { alias, column } => {
                write!(f, "column {alias}.{column} cannot be used as a join key")
            }
            QueryError::SelfReferentialJoin(a) => {
                write!(
                    f,
                    "join condition relates alias {a} to itself; use two aliases"
                )
            }
            QueryError::Disconnected => write!(f, "join graph is not connected"),
            QueryError::TooManyAliases(n) => write!(f, "{n} aliases exceed the supported 64"),
            QueryError::TooManyJoins(n) => {
                write!(f, "{n} join predicates exceed the supported {MAX_JOINS}")
            }
            QueryError::TooManySubplans => write!(
                f,
                "the join graph has more than the supported {MAX_SUBPLANS} connected sub-plans"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// A bound join query: validated against a catalog.
///
/// Invariants (enforced by [`Query::new`]):
/// * aliases are unique and ≤ 64, join predicates ≤ [`MAX_JOINS`];
/// * connected sub-plans ≤ [`MAX_SUBPLANS`];
/// * every join column exists, is typed `Int` or `Str`, and joins relate two
///   *different* aliases (cyclic graphs and multiple edges are fine);
/// * `filters[i]` applies to `tables[i]` and references existing columns;
/// * the alias-level join graph is connected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    tables: Vec<TableRef>,
    joins: Vec<JoinPredicate>,
    filters: Vec<FilterExpr>,
}

impl Query {
    /// Builds and validates a query against `catalog`.
    ///
    /// `joins` are given by (alias, column) name pairs; `filters` must have
    /// one entry per table reference (use [`FilterExpr::True`] for none).
    pub fn new(
        catalog: &Catalog,
        tables: Vec<TableRef>,
        joins_by_name: &[((String, String), (String, String))],
        filters: Vec<FilterExpr>,
    ) -> Result<Self, QueryError> {
        if tables.len() > 64 {
            return Err(QueryError::TooManyAliases(tables.len()));
        }
        if joins_by_name.len() > MAX_JOINS {
            return Err(QueryError::TooManyJoins(joins_by_name.len()));
        }
        assert_eq!(
            tables.len(),
            filters.len(),
            "one filter per table reference"
        );
        // Unique aliases.
        for (i, t) in tables.iter().enumerate() {
            if tables[..i].iter().any(|u| u.alias == t.alias) {
                return Err(QueryError::DuplicateAlias(t.alias.clone()));
            }
            catalog
                .table(&t.table)
                .map_err(|_| QueryError::UnknownTable(t.table.clone()))?;
        }
        let alias_idx = |a: &str| -> Result<usize, QueryError> {
            tables
                .iter()
                .position(|t| t.alias == a)
                .ok_or_else(|| QueryError::UnknownAlias(a.to_string()))
        };
        let resolve = |a: &str, c: &str| -> Result<ColRef, QueryError> {
            let ai = alias_idx(a)?;
            let table = catalog.table(&tables[ai].table).expect("validated above");
            let ci = table
                .schema()
                .index_of(c)
                .ok_or_else(|| QueryError::UnknownColumn {
                    alias: a.to_string(),
                    column: c.to_string(),
                })?;
            if table.schema().column(ci).dtype == DataType::Float {
                return Err(QueryError::BadJoinColumn {
                    alias: a.to_string(),
                    column: c.to_string(),
                });
            }
            Ok(ColRef {
                alias: ai,
                column: ci,
            })
        };
        let mut joins = Vec::with_capacity(joins_by_name.len());
        for ((la, lc), (ra, rc)) in joins_by_name {
            let left = resolve(la, lc)?;
            let right = resolve(ra, rc)?;
            if left.alias == right.alias {
                return Err(QueryError::SelfReferentialJoin(la.clone()));
            }
            joins.push(JoinPredicate { left, right });
        }
        // Validate filter columns.
        for (t, fexpr) in tables.iter().zip(&filters) {
            let table = catalog.table(&t.table).expect("validated above");
            for col in fexpr.columns() {
                if table.schema().index_of(&col).is_none() {
                    return Err(QueryError::UnknownColumn {
                        alias: t.alias.clone(),
                        column: col,
                    });
                }
            }
        }
        let q = Query {
            tables,
            joins,
            filters,
        };
        q.check_shape()?;
        Ok(q)
    }

    /// Rebuilds a query from parts produced by [`Query::tables`],
    /// [`Query::joins`], and [`Query::filters`] of an already-bound query —
    /// the deserialization path for transport layers (e.g. the `fj-service`
    /// wire protocol) moving queries between processes.
    ///
    /// Catalog-independent invariants are re-checked (alias and join
    /// counts, alias uniqueness, one filter per table, join endpoints in
    /// range and relating distinct aliases, connectivity). Catalog-dependent checks
    /// (table/column existence and types) happened when the query was first
    /// bound with [`Query::new`] on the sending side; the receiver is
    /// expected to serve a model trained on the same schema.
    pub fn from_wire_parts(
        tables: Vec<TableRef>,
        joins: Vec<JoinPredicate>,
        filters: Vec<FilterExpr>,
    ) -> Result<Self, QueryError> {
        if tables.len() > 64 {
            return Err(QueryError::TooManyAliases(tables.len()));
        }
        if joins.len() > MAX_JOINS {
            return Err(QueryError::TooManyJoins(joins.len()));
        }
        if tables.len() != filters.len() {
            // One filter slot per table reference is a structural invariant
            // of the IR; a mismatched wire payload cannot name the missing
            // column, so report the first alias lacking a slot.
            return Err(QueryError::UnknownAlias(format!(
                "{} filters for {} tables",
                filters.len(),
                tables.len()
            )));
        }
        for (i, t) in tables.iter().enumerate() {
            if tables[..i].iter().any(|u| u.alias == t.alias) {
                return Err(QueryError::DuplicateAlias(t.alias.clone()));
            }
        }
        for j in &joins {
            for side in [j.left, j.right] {
                if side.alias >= tables.len() {
                    return Err(QueryError::UnknownAlias(format!("#{}", side.alias)));
                }
            }
            if j.left.alias == j.right.alias {
                return Err(QueryError::SelfReferentialJoin(
                    tables[j.left.alias].alias.clone(),
                ));
            }
        }
        let q = Query {
            tables,
            joins,
            filters,
        };
        q.check_shape()?;
        Ok(q)
    }

    /// The graph checks both constructors end with: the join graph is
    /// connected and has at most [`MAX_SUBPLANS`] connected sub-plans.
    fn check_shape(&self) -> Result<(), QueryError> {
        if self.tables.len() > 1 && !self.is_connected() {
            return Err(QueryError::Disconnected);
        }
        if more_subplans_than(self, MAX_SUBPLANS) {
            return Err(QueryError::TooManySubplans);
        }
        Ok(())
    }

    /// Table references (aliases) in FROM-clause order.
    pub fn tables(&self) -> &[TableRef] {
        &self.tables
    }

    /// Equi-join conditions.
    pub fn joins(&self) -> &[JoinPredicate] {
        &self.joins
    }

    /// Per-alias filters, parallel to [`Query::tables`].
    pub fn filters(&self) -> &[FilterExpr] {
        &self.filters
    }

    /// Filter of alias `i`.
    pub fn filter(&self, i: usize) -> &FilterExpr {
        &self.filters[i]
    }

    /// Number of aliases.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Whether the alias-level join graph is connected.
    pub fn is_connected(&self) -> bool {
        if self.tables.is_empty() {
            return true;
        }
        let n = self.tables.len();
        let mut adj = vec![Vec::new(); n];
        for j in &self.joins {
            adj[j.left.alias].push(j.right.alias);
            adj[j.right.alias].push(j.left.alias);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// The query restricted to the aliases in `mask` (bit i ⇔ alias i),
    /// keeping only join conditions with both endpoints inside the mask.
    ///
    /// Alias indices are *re-numbered* to be dense in the sub-query; the
    /// returned mapping gives, for each sub-query alias, the original index.
    pub fn project(&self, mask: u64) -> (Query, Vec<usize>) {
        let keep: Vec<usize> = (0..self.tables.len())
            .filter(|&i| mask & (1u64 << i) != 0)
            .collect();
        let remap: std::collections::HashMap<usize, usize> = keep
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let tables = keep.iter().map(|&i| self.tables[i].clone()).collect();
        let filters = keep.iter().map(|&i| self.filters[i].clone()).collect();
        let joins = self
            .joins
            .iter()
            .filter(|j| remap.contains_key(&j.left.alias) && remap.contains_key(&j.right.alias))
            .map(|j| JoinPredicate {
                left: ColRef {
                    alias: remap[&j.left.alias],
                    column: j.left.column,
                },
                right: ColRef {
                    alias: remap[&j.right.alias],
                    column: j.right.column,
                },
            })
            .collect();
        (
            Query {
                tables,
                joins,
                filters,
            },
            keep,
        )
    }

    /// Renders the query as `SELECT COUNT(*) …` SQL text.
    pub fn to_sql(&self, catalog: &Catalog) -> String {
        let from: Vec<String> = self
            .tables
            .iter()
            .map(|t| {
                if t.alias == t.table {
                    t.table.clone()
                } else {
                    format!("{} AS {}", t.table, t.alias)
                }
            })
            .collect();
        let mut conds = Vec::new();
        for j in &self.joins {
            let (lt, rt) = (&self.tables[j.left.alias], &self.tables[j.right.alias]);
            let lc = catalog
                .table(&lt.table)
                .map(|t| t.schema().column(j.left.column).name.clone())
                .unwrap_or_default();
            let rc = catalog
                .table(&rt.table)
                .map(|t| t.schema().column(j.right.column).name.clone())
                .unwrap_or_default();
            conds.push(format!("{}.{} = {}.{}", lt.alias, lc, rt.alias, rc));
        }
        for (t, fexpr) in self.tables.iter().zip(&self.filters) {
            if !fexpr.is_trivial() {
                // Top-level ORs must be parenthesized to survive re-parsing
                // as a single conjunct.
                match fexpr {
                    FilterExpr::Or(_) => conds.push(format!("({})", fexpr.to_sql(&t.alias))),
                    _ => conds.push(fexpr.to_sql(&t.alias)),
                }
            }
        }
        if conds.is_empty() {
            format!("SELECT COUNT(*) FROM {};", from.join(", "))
        } else {
            format!(
                "SELECT COUNT(*) FROM {} WHERE {};",
                from.join(", "),
                conds.join(" AND ")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use fj_storage::{ColumnDef, DataType, Table, TableSchema, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, keys) in [
            ("a", vec!["id", "id2"]),
            ("b", vec!["a_id", "c_id"]),
            ("c", vec!["id"]),
        ] {
            let mut cols: Vec<ColumnDef> = keys.iter().map(|k| ColumnDef::key(k)).collect();
            cols.push(ColumnDef::new("v", DataType::Int));
            cols.push(ColumnDef::new("f", DataType::Float));
            let schema = TableSchema::new(cols);
            let row: Vec<Value> = (0..schema.len())
                .map(|i| {
                    if schema.column(i).dtype == DataType::Float {
                        Value::Float(0.0)
                    } else {
                        Value::Int(i as i64)
                    }
                })
                .collect();
            cat.add_table(Table::from_rows(name, schema, &[row]).unwrap())
                .unwrap();
        }
        cat
    }

    fn j(la: &str, lc: &str, ra: &str, rc: &str) -> ((String, String), (String, String)) {
        ((la.into(), lc.into()), (ra.into(), rc.into()))
    }

    #[test]
    fn two_table_query_builds() {
        let cat = catalog();
        let q = Query::new(
            &cat,
            vec![TableRef::new("a", "a"), TableRef::new("b", "b")],
            &[j("a", "id", "b", "a_id")],
            vec![FilterExpr::pred(Predicate::eq("v", 1)), FilterExpr::True],
        )
        .unwrap();
        assert_eq!(q.num_tables(), 2);
        assert_eq!(q.joins().len(), 1);
        assert!(q.is_connected());
    }

    #[test]
    fn self_join_via_two_aliases() {
        let cat = catalog();
        let q = Query::new(
            &cat,
            vec![TableRef::new("a1", "a"), TableRef::new("a2", "a")],
            &[j("a1", "id", "a2", "id2")],
            vec![FilterExpr::True, FilterExpr::True],
        )
        .unwrap();
        assert_eq!(q.tables()[0].table, q.tables()[1].table);
    }

    #[test]
    fn same_alias_join_rejected() {
        let cat = catalog();
        let err = Query::new(
            &cat,
            vec![TableRef::new("a", "a")],
            &[j("a", "id", "a", "id2")],
            vec![FilterExpr::True],
        )
        .unwrap_err();
        assert_eq!(err, QueryError::SelfReferentialJoin("a".into()));
    }

    #[test]
    fn disconnected_rejected() {
        let cat = catalog();
        let err = Query::new(
            &cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
            ],
            &[j("a", "id", "b", "a_id")],
            vec![FilterExpr::True, FilterExpr::True, FilterExpr::True],
        )
        .unwrap_err();
        assert_eq!(err, QueryError::Disconnected);
    }

    #[test]
    fn float_join_key_rejected() {
        let cat = catalog();
        let err = Query::new(
            &cat,
            vec![TableRef::new("a", "a"), TableRef::new("b", "b")],
            &[j("a", "f", "b", "a_id")],
            vec![FilterExpr::True, FilterExpr::True],
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::BadJoinColumn { .. }));
    }

    #[test]
    fn unknown_names_rejected() {
        let cat = catalog();
        assert!(matches!(
            Query::new(
                &cat,
                vec![TableRef::new("z", "zz")],
                &[],
                vec![FilterExpr::True],
            ),
            Err(QueryError::UnknownTable(_))
        ));
        assert!(matches!(
            Query::new(
                &cat,
                vec![TableRef::new("a", "a")],
                &[],
                vec![FilterExpr::pred(Predicate::eq("nope", 1))],
            ),
            Err(QueryError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let cat = catalog();
        let err = Query::new(
            &cat,
            vec![TableRef::new("x", "a"), TableRef::new("x", "b")],
            &[],
            vec![FilterExpr::True, FilterExpr::True],
        )
        .unwrap_err();
        assert_eq!(err, QueryError::DuplicateAlias("x".into()));
    }

    #[test]
    fn cyclic_join_graph_allowed() {
        let cat = catalog();
        // a–b, b–c, c–a: a cycle (paper supports cyclic join templates).
        let q = Query::new(
            &cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
            ],
            &[
                j("a", "id", "b", "a_id"),
                j("b", "c_id", "c", "id"),
                j("c", "id", "a", "id2"),
            ],
            vec![FilterExpr::True, FilterExpr::True, FilterExpr::True],
        )
        .unwrap();
        assert_eq!(q.joins().len(), 3);
    }

    #[test]
    fn project_renumbers_aliases() {
        let cat = catalog();
        let q = Query::new(
            &cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
            ],
            &[j("a", "id", "b", "a_id"), j("b", "c_id", "c", "id")],
            vec![FilterExpr::True, FilterExpr::True, FilterExpr::True],
        )
        .unwrap();
        // Keep aliases b (1) and c (2): mask 0b110.
        let (sub, keep) = q.project(0b110);
        assert_eq!(keep, vec![1, 2]);
        assert_eq!(sub.num_tables(), 2);
        assert_eq!(sub.joins().len(), 1);
        assert_eq!(sub.joins()[0].left.alias, 0);
        assert_eq!(sub.joins()[0].right.alias, 1);
        assert!(sub.is_connected());
    }

    /// A query of [`MAX_JOINS`] join predicates binds through the parser
    /// and the wire path; one more is `TooManyJoins` on both, before the
    /// graph is analyzed. On the wire path each join is its own key group,
    /// so the cap is also the most variables a query can have.
    #[test]
    fn join_predicates_are_capped_on_both_paths() {
        let cat = catalog();
        for n in [MAX_JOINS - 1, MAX_JOINS, MAX_JOINS + 1] {
            let want = (n > MAX_JOINS).then_some(QueryError::TooManyJoins(n));
            let sql = format!(
                "SELECT COUNT(*) FROM a AS a, b AS b WHERE {};",
                vec!["a.id = b.a_id"; n].join(" AND ")
            );
            let parsed = crate::parser::parse_query(&cat, &sql);
            match &want {
                Some(e) => assert_eq!(parsed, Err(crate::ParseError::Bind(e.clone()))),
                None => assert_eq!(parsed.unwrap().joins().len(), n),
            }
            let joins = (0..n)
                .map(|c| JoinPredicate {
                    left: ColRef {
                        alias: 0,
                        column: c,
                    },
                    right: ColRef {
                        alias: 1,
                        column: c,
                    },
                })
                .collect();
            let wired = Query::from_wire_parts(
                vec![TableRef::new("a", "a"), TableRef::new("b", "b")],
                joins,
                vec![FilterExpr::True, FilterExpr::True],
            );
            match want {
                Some(e) => assert_eq!(wired.unwrap_err(), e),
                None => assert_eq!(crate::QueryGraph::analyze(&wired.unwrap()).num_vars(), n),
            }
        }
    }

    /// A star of `leaves` `b` aliases around one `a`, as SQL.
    fn star_sql(leaves: usize) -> String {
        let from: Vec<String> = (1..=leaves).map(|i| format!("b AS l{i}")).collect();
        let joins: Vec<String> = (1..=leaves).map(|i| format!("h.id = l{i}.a_id")).collect();
        format!(
            "SELECT COUNT(*) FROM a AS h, {} WHERE {};",
            from.join(", "),
            joins.join(" AND ")
        )
    }

    /// The process's peak resident set in KiB (Linux; elsewhere `None`).
    fn peak_rss_kib() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// A star of n leaves has 2ⁿ + n connected sub-plans: 15 leaves (32 783)
    /// bind through SQL and the wire path, 16 (65 552) are
    /// `TooManySubplans` on both, and so is a 63-leaf star — refused
    /// promptly, without enumerating its 2⁶³ sub-plans or growing memory.
    #[test]
    fn subplans_are_capped_on_both_paths() {
        let cat = catalog();
        for leaves in [15, 16, 63] {
            let want = (leaves > 15).then_some(QueryError::TooManySubplans);
            let rss_before = peak_rss_kib();
            let started = std::time::Instant::now();
            let parsed = crate::parser::parse_query(&cat, &star_sql(leaves));
            let elapsed = started.elapsed();
            match &want {
                Some(e) => assert_eq!(parsed, Err(crate::ParseError::Bind(e.clone()))),
                None => assert_eq!(
                    crate::connected_subplans(&parsed.unwrap(), 1).len(),
                    (1 << leaves) + leaves
                ),
            }
            if leaves == 63 {
                assert!(elapsed.as_secs() < 5, "refused in {elapsed:?}");
                if let (Some(before), Some(after)) = (rss_before, peak_rss_kib()) {
                    assert!(after - before < 64 << 10, "peak RSS {before} → {after} KiB");
                }
                assert!(
                    QueryError::TooManySubplans
                        .to_string()
                        .contains("65536 connected sub-plans"),
                    "the error names the cap"
                );
            }
            let tables = std::iter::once(TableRef::new("h", "a"))
                .chain((1..=leaves).map(|i| TableRef::new(&format!("l{i}"), "b")))
                .collect();
            let joins = (1..=leaves)
                .map(|i| JoinPredicate {
                    left: ColRef {
                        alias: 0,
                        column: 0,
                    },
                    right: ColRef {
                        alias: i,
                        column: 0,
                    },
                })
                .collect();
            let wired = Query::from_wire_parts(tables, joins, vec![FilterExpr::True; leaves + 1]);
            assert_eq!(wired.err(), want, "{leaves} leaves on the wire path");
        }
    }

    #[test]
    fn from_wire_parts_roundtrips_and_validates() {
        let cat = catalog();
        let q = Query::new(
            &cat,
            vec![TableRef::new("a", "a"), TableRef::new("b", "b")],
            &[j("a", "id", "b", "a_id")],
            vec![FilterExpr::pred(Predicate::eq("v", 1)), FilterExpr::True],
        )
        .unwrap();
        // Lossless rebuild from the public accessors.
        let back = Query::from_wire_parts(
            q.tables().to_vec(),
            q.joins().to_vec(),
            q.filters().to_vec(),
        )
        .unwrap();
        assert_eq!(back, q);

        // Structural invariants still hold without a catalog.
        assert_eq!(
            Query::from_wire_parts(
                vec![TableRef::new("x", "a"), TableRef::new("x", "b")],
                vec![],
                vec![FilterExpr::True, FilterExpr::True],
            )
            .unwrap_err(),
            QueryError::DuplicateAlias("x".into())
        );
        assert!(matches!(
            Query::from_wire_parts(
                q.tables().to_vec(),
                vec![JoinPredicate {
                    left: ColRef {
                        alias: 0,
                        column: 0
                    },
                    right: ColRef {
                        alias: 9,
                        column: 0
                    },
                }],
                q.filters().to_vec(),
            ),
            Err(QueryError::UnknownAlias(_))
        ));
        assert_eq!(
            Query::from_wire_parts(q.tables().to_vec(), vec![], q.filters().to_vec(),).unwrap_err(),
            QueryError::Disconnected
        );
        assert!(matches!(
            Query::from_wire_parts(q.tables().to_vec(), q.joins().to_vec(), vec![]),
            Err(QueryError::UnknownAlias(_))
        ));
    }

    #[test]
    fn to_sql_roundtrips_structure() {
        let cat = catalog();
        let q = Query::new(
            &cat,
            vec![TableRef::new("x", "a"), TableRef::new("b", "b")],
            &[j("x", "id", "b", "a_id")],
            vec![FilterExpr::pred(Predicate::eq("v", 1)), FilterExpr::True],
        )
        .unwrap();
        let sql = q.to_sql(&cat);
        assert_eq!(
            sql,
            "SELECT COUNT(*) FROM a AS x, b WHERE x.id = b.a_id AND x.v = 1;"
        );
    }
}
