//! Connected sub-plan enumeration.
//!
//! A cost-based optimizer asks the cardinality estimator for every
//! *connected* sub-plan of a query (paper §5.2: "hundreds or thousands of
//! sub-plan queries"). We enumerate connected alias subsets as bitmasks,
//! smallest first, using the standard expand-from-seed technique that avoids
//! duplicates by only growing a set from its lowest-index member's
//! "allowed" frontier.

use crate::query::Query;

/// A sub-plan identified by an alias bitmask (bit i ⇔ alias i included).
pub type SubplanMask = u64;

/// Enumerates all connected sub-plans of `query` with ≥ `min_size` aliases,
/// ordered by popcount then numeric mask.
///
/// The enumeration is exponential in the worst case (as is the quantity
/// itself); queries in the benchmarks have ≤ 17 aliases and tree-ish shapes,
/// matching the paper's 1–10⁴ sub-plans per query.
pub fn connected_subplans(query: &Query, min_size: u32) -> Vec<SubplanMask> {
    let mut out = Vec::new();
    connected_subplans_into(query, min_size, &mut out);
    out
}

/// [`connected_subplans`] into a caller-owned buffer (cleared first), so
/// per-query enumeration on hot estimation paths reuses its allocation.
///
/// The adjacency scratch is a fixed 64-entry stack array (queries are
/// validated to at most 64 aliases), so the only heap the enumeration can
/// touch is `out` itself.
pub fn connected_subplans_into(query: &Query, min_size: u32, out: &mut Vec<SubplanMask>) {
    let n = query.num_tables();
    assert!(n <= 64, "query validated to at most 64 aliases");
    let mut adj = [0u64; 64];
    for j in query.joins() {
        adj[j.left.alias] |= 1u64 << j.right.alias;
        adj[j.right.alias] |= 1u64 << j.left.alias;
    }
    out.clear();
    // A connected graph on n vertices has at least n(n+1)/2 connected
    // vertex subsets (a path has exactly that), so this never overshoots.
    out.reserve(n * (n + 1) / 2);
    // Standard "EnumerateCsg" (Moerkotte & Neumann): seeds descend so each
    // connected set is produced exactly once.
    for seed in (0..n).rev() {
        let seed_mask = 1u64 << seed;
        // Exclude all aliases with index < seed from expansion.
        let forbidden = seed_mask - 1;
        emit_and_expand(seed_mask, forbidden, &adj[..n], out);
    }
    out.retain(|m| m.count_ones() >= min_size);
    // Masks are distinct, so an unstable sort gives the same order.
    out.sort_unstable_by_key(|m| (m.count_ones(), *m));
}

fn neighborhood(set: u64, adj: &[u64]) -> u64 {
    let mut nb = 0u64;
    let mut rest = set;
    while rest != 0 {
        let i = rest.trailing_zeros() as usize;
        nb |= adj[i];
        rest &= rest - 1;
    }
    nb & !set
}

fn emit_and_expand(set: u64, forbidden: u64, adj: &[u64], out: &mut Vec<SubplanMask>) {
    out.push(set);
    let frontier = neighborhood(set, adj) & !forbidden;
    // Enumerate non-empty subsets of the frontier; recurse with the whole
    // frontier forbidden so deeper levels cannot re-add skipped nodes.
    let mut sub = frontier;
    while sub != 0 {
        emit_and_expand(set | sub, forbidden | frontier, adj, out);
        sub = (sub - 1) & frontier;
    }
}

/// Number of connected sub-plans (convenience for workload statistics).
pub fn count_subplans(query: &Query, min_size: u32) -> usize {
    connected_subplans(query, min_size).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::FilterExpr;
    use crate::query::TableRef;
    use fj_storage::{Catalog, ColumnDef, Table, TableSchema, Value};

    fn catalog(n: usize) -> Catalog {
        let mut cat = Catalog::new();
        for i in 0..n {
            let schema = TableSchema::new(vec![ColumnDef::key("id"), ColumnDef::key("fk")]);
            cat.add_table(
                Table::from_rows(
                    &format!("t{i}"),
                    schema,
                    &[vec![Value::Int(0), Value::Int(0)]],
                )
                .unwrap(),
            )
            .unwrap();
        }
        cat
    }

    fn chain_query(cat: &Catalog, n: usize) -> Query {
        let tables: Vec<TableRef> = (0..n)
            .map(|i| TableRef::new(&format!("t{i}"), &format!("t{i}")))
            .collect();
        let joins: Vec<((String, String), (String, String))> = (1..n)
            .map(|i| {
                (
                    (format!("t{}", i - 1), "id".to_string()),
                    (format!("t{i}"), "fk".to_string()),
                )
            })
            .collect();
        Query::new(cat, tables, &joins, vec![FilterExpr::True; n]).unwrap()
    }

    fn star_query(cat: &Catalog, n: usize) -> Query {
        let tables: Vec<TableRef> = (0..n)
            .map(|i| TableRef::new(&format!("t{i}"), &format!("t{i}")))
            .collect();
        let joins: Vec<((String, String), (String, String))> = (1..n)
            .map(|i| {
                (
                    ("t0".to_string(), "id".to_string()),
                    (format!("t{i}"), "fk".to_string()),
                )
            })
            .collect();
        Query::new(cat, tables, &joins, vec![FilterExpr::True; n]).unwrap()
    }

    #[test]
    fn chain_counts_are_triangular() {
        // A chain of n nodes has n·(n+1)/2 connected subsets (contiguous runs).
        for n in 2..=6 {
            let cat = catalog(n);
            let q = chain_query(&cat, n);
            let subs = connected_subplans(&q, 1);
            assert_eq!(subs.len(), n * (n + 1) / 2, "chain n={n}");
        }
    }

    #[test]
    fn star_counts() {
        // A star with hub + (n-1) leaves: connected subsets are any subset
        // containing the hub (2^(n-1)) plus each singleton leaf.
        for n in 2..=6 {
            let cat = catalog(n);
            let q = star_query(&cat, n);
            let subs = connected_subplans(&q, 1);
            assert_eq!(subs.len(), (1 << (n - 1)) + (n - 1), "star n={n}");
        }
    }

    #[test]
    fn no_duplicates_and_all_connected() {
        let cat = catalog(5);
        let q = chain_query(&cat, 5);
        let subs = connected_subplans(&q, 1);
        let mut dedup = subs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), subs.len(), "no duplicate masks");
        for &m in &subs {
            let (sub, _) = q.project(m);
            assert!(sub.is_connected(), "mask {m:b} must be connected");
        }
    }

    #[test]
    fn min_size_filters_singletons() {
        let cat = catalog(4);
        let q = chain_query(&cat, 4);
        let subs = connected_subplans(&q, 2);
        assert!(subs.iter().all(|m| m.count_ones() >= 2));
        // 4·5/2 = 10 total, minus 4 singletons = 6.
        assert_eq!(subs.len(), 6);
    }

    #[test]
    fn ordering_is_by_size() {
        let cat = catalog(4);
        let q = chain_query(&cat, 4);
        let subs = connected_subplans(&q, 1);
        for w in subs.windows(2) {
            assert!(w[0].count_ones() <= w[1].count_ones());
        }
        // The full query is last.
        assert_eq!(*subs.last().unwrap(), 0b1111);
    }

    #[test]
    fn cycle_enumeration() {
        // Triangle: every non-empty subset is connected except none — all
        // 2^3 - 1 = 7 subsets connected (each pair is adjacent).
        let mut cat = Catalog::new();
        for name in ["x", "y", "z"] {
            let schema = TableSchema::new(vec![ColumnDef::key("id"), ColumnDef::key("fk")]);
            cat.add_table(
                Table::from_rows(name, schema, &[vec![Value::Int(0), Value::Int(0)]]).unwrap(),
            )
            .unwrap();
        }
        let q = Query::new(
            &cat,
            vec![
                TableRef::new("x", "x"),
                TableRef::new("y", "y"),
                TableRef::new("z", "z"),
            ],
            &[
                (("x".into(), "id".into()), ("y".into(), "fk".into())),
                (("y".into(), "id".into()), ("z".into(), "fk".into())),
                (("z".into(), "id".into()), ("x".into(), "fk".into())),
            ],
            vec![FilterExpr::True; 3],
        )
        .unwrap();
        assert_eq!(connected_subplans(&q, 1).len(), 7);
    }
}
