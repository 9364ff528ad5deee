//! Exact-cardinality engine over grouped relations.
//!
//! [`TrueCardEngine`] answers "what is the true cardinality of this
//! (sub-)plan?" for one query. It filters each alias once, groups the
//! surviving rows by the alias's join variables, and then computes any
//! connected sub-plan's cardinality by hash-joining grouped relations,
//! projecting away variables as they stop being referenced. This is both
//! the `TrueCard` oracle baseline of the paper's evaluation and the
//! mechanism behind the execution-cost metric (every plan-tree node's true
//! cardinality).

use crate::relation::{GroupedRel, NULL_KEY};
use fj_query::{connected_subplans, filtered_selection, Query, QueryGraph, SubplanMask};
use fj_storage::Catalog;
use std::collections::HashMap;

/// Per-query engine with cached per-alias grouped relations and a memo
/// table of sub-plan cardinalities.
pub struct TrueCardEngine {
    graph: QueryGraph,
    alias_rels: Vec<GroupedRel>,
    alias_filtered: Vec<u64>,
    num_aliases: usize,
    cache: HashMap<SubplanMask, f64>,
}

impl TrueCardEngine {
    /// Filters and groups every alias of `query` against `catalog`.
    pub fn new(catalog: &Catalog, query: &Query) -> Self {
        let graph = QueryGraph::analyze(query);
        let n = query.num_tables();
        let mut alias_rels = Vec::with_capacity(n);
        let mut alias_filtered = Vec::with_capacity(n);
        for (i, tref) in query.tables().iter().enumerate() {
            let table = catalog
                .table(&tref.table)
                .expect("query validated against catalog");
            let sel = filtered_selection(table, query.filter(i));
            alias_filtered.push(sel.len() as u64);

            let vars = graph.alias_vars(i);
            // Member columns per var within this alias.
            let cols_per_var: Vec<Vec<usize>> = vars
                .iter()
                .map(|&v| {
                    graph
                        .alias_keys(i)
                        .iter()
                        .filter(|&&(_, var)| var == v)
                        .map(|&(c, _)| c)
                        .collect()
                })
                .collect();
            let mut rel = GroupedRel::new(vars.clone());
            let mut key = vec![0i64; vars.len()];
            'row: for &r in &sel {
                let r = r as usize;
                for (slot, cols) in key.iter_mut().zip(&cols_per_var) {
                    if cols.len() == 1 {
                        *slot = table.column(cols[0]).key_at(r).unwrap_or(NULL_KEY);
                    } else {
                        // Two columns of this alias are in the same
                        // equivalence class (e.g. `ml.movie_id` and
                        // `ml.linked_movie_id` both equated to the same
                        // title): the row participates only if they are all
                        // equal and non-NULL.
                        let mut val: Option<i64> = None;
                        for &c in cols {
                            match table.column(c).key_at(r) {
                                None => continue 'row,
                                Some(v) => match val {
                                    None => val = Some(v),
                                    Some(prev) if prev == v => {}
                                    Some(_) => continue 'row,
                                },
                            }
                        }
                        *slot = val.expect("cols is non-empty");
                    }
                }
                rel.add(key.clone().into_boxed_slice(), 1.0);
            }
            alias_rels.push(rel);
        }
        TrueCardEngine {
            graph,
            alias_rels,
            alias_filtered,
            num_aliases: n,
            cache: HashMap::new(),
        }
    }

    /// Exact cardinality of the sub-plan over the aliases in `mask`.
    pub fn cardinality(&mut self, mask: SubplanMask) -> f64 {
        assert!(
            mask != 0 && (self.num_aliases >= 64 || mask >> self.num_aliases == 0),
            "sub-plan mask {mask:#b} out of range for {} aliases",
            self.num_aliases
        );
        if mask.count_ones() == 1 {
            return self.alias_filtered[mask.trailing_zeros() as usize] as f64;
        }
        if let Some(&c) = self.cache.get(&mask) {
            return c;
        }
        let card = self.compute(mask);
        self.cache.insert(mask, card);
        card
    }

    /// Exact cardinality of the whole query.
    pub fn full_cardinality(&mut self) -> f64 {
        let mask = (1u64 << self.num_aliases) - 1;
        self.cardinality(mask)
    }

    /// Cardinalities of every connected sub-plan with at least `min_size`
    /// aliases, as (mask, true cardinality) pairs.
    pub fn subplan_cardinalities(
        &mut self,
        query: &Query,
        min_size: u32,
    ) -> Vec<(SubplanMask, f64)> {
        connected_subplans(query, min_size)
            .into_iter()
            .map(|m| (m, self.cardinality(m)))
            .collect()
    }

    fn compute(&mut self, mask: SubplanMask) -> f64 {
        // Greedy smallest-first join order; adjacency-driven to avoid cross
        // products when the mask is connected.
        let members: Vec<usize> = (0..self.num_aliases)
            .filter(|&i| mask & (1u64 << i) != 0)
            .collect();
        let start = *members
            .iter()
            .min_by_key(|&&i| self.alias_rels[i].num_groups())
            .expect("mask is non-empty");
        let mut joined_mask = 1u64 << start;
        let mut acc = self.alias_rels[start].clone();
        let needed = self.needed_vars(joined_mask, mask);
        let keep: Vec<usize> = acc
            .vars()
            .iter()
            .copied()
            .filter(|v| needed.contains(v))
            .collect();
        acc = acc.project(&keep);

        while joined_mask != mask {
            // Prefer an adjacent remaining alias with the fewest groups.
            let next = members
                .iter()
                .copied()
                .filter(|&i| joined_mask & (1u64 << i) == 0)
                .min_by_key(|&i| {
                    let adjacent = self.graph.neighbor_mask(i) & joined_mask != 0;
                    (!adjacent, self.alias_rels[i].num_groups())
                })
                .expect("mask not exhausted");
            joined_mask |= 1u64 << next;
            acc = acc.join(&self.alias_rels[next]);
            if acc.num_groups() == 0 {
                return 0.0;
            }
            let needed = self.needed_vars(joined_mask, mask);
            let keep: Vec<usize> = acc
                .vars()
                .iter()
                .copied()
                .filter(|v| needed.contains(v))
                .collect();
            acc = acc.project(&keep);
        }
        acc.cardinality()
    }

    /// Variables still referenced by aliases of `mask` outside `joined`.
    fn needed_vars(&self, joined: u64, mask: u64) -> Vec<usize> {
        let mut vars = Vec::new();
        for v in self.graph.vars() {
            let pending = v
                .members
                .iter()
                .any(|cr| mask & (1u64 << cr.alias) != 0 && joined & (1u64 << cr.alias) == 0);
            if pending {
                vars.push(v.id);
            }
        }
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::{parse_query, FilterExpr, Predicate, TableRef};
    use fj_storage::{ColumnDef, DataType, Table, TableSchema, Value};

    /// Brute-force nested-loop join counter for cross-checking.
    fn brute_force(catalog: &Catalog, query: &Query) -> f64 {
        // Enumerate the cartesian product of filtered selections, counting
        // rows satisfying all join predicates. Exponential — tiny inputs only.
        let sels: Vec<Vec<u32>> = query
            .tables()
            .iter()
            .enumerate()
            .map(|(i, t)| filtered_selection(catalog.table(&t.table).unwrap(), query.filter(i)))
            .collect();
        let tables: Vec<&Table> = query
            .tables()
            .iter()
            .map(|t| catalog.table(&t.table).unwrap())
            .collect();
        let mut count = 0f64;
        let mut idx = vec![0usize; sels.len()];
        'outer: loop {
            let rows: Vec<usize> = idx.iter().zip(&sels).map(|(&i, s)| s[i] as usize).collect();
            let ok = query.joins().iter().all(|j| {
                let l = tables[j.left.alias]
                    .column(j.left.column)
                    .key_at(rows[j.left.alias]);
                let r = tables[j.right.alias]
                    .column(j.right.column)
                    .key_at(rows[j.right.alias]);
                matches!((l, r), (Some(a), Some(b)) if a == b)
            });
            if ok {
                count += 1.0;
            }
            // Advance the odometer.
            for pos in (0..idx.len()).rev() {
                idx[pos] += 1;
                if idx[pos] < sels[pos].len() {
                    continue 'outer;
                }
                idx[pos] = 0;
                if pos == 0 {
                    break 'outer;
                }
            }
        }
        count
    }

    fn tiny_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let a = Table::from_rows(
            "a",
            TableSchema::new(vec![
                ColumnDef::key("id"),
                ColumnDef::new("x", DataType::Int),
            ]),
            &[
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
                vec![Value::Int(2), Value::Int(30)],
                vec![Value::Null, Value::Int(40)],
                vec![Value::Int(3), Value::Int(50)],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "b",
            TableSchema::new(vec![
                ColumnDef::key("a_id"),
                ColumnDef::key("c_id"),
                ColumnDef::new("y", DataType::Int),
            ]),
            &[
                vec![Value::Int(1), Value::Int(7), Value::Int(1)],
                vec![Value::Int(1), Value::Int(8), Value::Int(2)],
                vec![Value::Int(2), Value::Int(7), Value::Int(3)],
                vec![Value::Int(9), Value::Int(7), Value::Int(4)],
                vec![Value::Null, Value::Int(8), Value::Int(5)],
            ],
        )
        .unwrap();
        let c = Table::from_rows(
            "c",
            TableSchema::new(vec![
                ColumnDef::key("id"),
                ColumnDef::new("z", DataType::Int),
            ]),
            &[
                vec![Value::Int(7), Value::Int(100)],
                vec![Value::Int(7), Value::Int(200)],
                vec![Value::Int(8), Value::Int(300)],
            ],
        )
        .unwrap();
        cat.add_table(a).unwrap();
        cat.add_table(b).unwrap();
        cat.add_table(c).unwrap();
        cat.relate("a", "id", "b", "a_id").unwrap();
        cat.relate("b", "c_id", "c", "id").unwrap();
        cat
    }

    #[test]
    fn two_table_join_matches_brute_force() {
        let cat = tiny_catalog();
        let q = parse_query(&cat, "SELECT COUNT(*) FROM a, b WHERE a.id = b.a_id;").unwrap();
        let mut eng = TrueCardEngine::new(&cat, &q);
        // a=1 (2 rows) × b=1 (2 rows) + a=2 × b=2 = 4 + 1 = 5.
        assert_eq!(eng.full_cardinality(), 5.0);
        assert_eq!(eng.full_cardinality(), brute_force(&cat, &q));
    }

    #[test]
    fn chain_join_matches_brute_force() {
        let cat = tiny_catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM a, b, c WHERE a.id = b.a_id AND b.c_id = c.id;",
        )
        .unwrap();
        let mut eng = TrueCardEngine::new(&cat, &q);
        assert_eq!(eng.full_cardinality(), brute_force(&cat, &q));
    }

    #[test]
    fn filters_apply_before_joining() {
        let cat = tiny_catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM a, b WHERE a.id = b.a_id AND a.x >= 20 AND b.y <= 3;",
        )
        .unwrap();
        let mut eng = TrueCardEngine::new(&cat, &q);
        assert_eq!(eng.full_cardinality(), brute_force(&cat, &q));
    }

    #[test]
    fn singleton_counts_include_null_keys() {
        let cat = tiny_catalog();
        let q = parse_query(&cat, "SELECT COUNT(*) FROM a, b WHERE a.id = b.a_id;").unwrap();
        let mut eng = TrueCardEngine::new(&cat, &q);
        // Alias a has 5 rows including the NULL-key row.
        assert_eq!(eng.cardinality(0b01), 5.0);
        assert_eq!(eng.cardinality(0b10), 5.0);
    }

    #[test]
    fn subplan_cardinalities_cover_all_masks() {
        let cat = tiny_catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM a, b, c WHERE a.id = b.a_id AND b.c_id = c.id;",
        )
        .unwrap();
        let mut eng = TrueCardEngine::new(&cat, &q);
        let cards = eng.subplan_cardinalities(&q, 1);
        // Chain of 3: 6 connected sub-plans.
        assert_eq!(cards.len(), 6);
        for (mask, card) in cards {
            let (sub, _) = q.project(mask);
            let mut sub_eng = TrueCardEngine::new(&cat, &sub);
            assert_eq!(sub_eng.full_cardinality(), card, "mask {mask:b}");
        }
    }

    #[test]
    fn self_join_on_two_key_columns() {
        // b ⋈ b on a_id = c_id (self join through two aliases).
        let cat = tiny_catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM b b1, b b2 WHERE b1.a_id = b2.c_id;",
        )
        .unwrap();
        let mut eng = TrueCardEngine::new(&cat, &q);
        assert_eq!(eng.full_cardinality(), brute_force(&cat, &q));
    }

    #[test]
    fn cyclic_same_pair_two_conditions() {
        // a ⋈ b on both keys: a.id = b.a_id AND a.id = b.c_id — forces
        // b rows with a_id == c_id (none in the fixture except… check).
        let cat = tiny_catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM a, b WHERE a.id = b.a_id AND a.id = b.c_id;",
        )
        .unwrap();
        let mut eng = TrueCardEngine::new(&cat, &q);
        assert_eq!(eng.full_cardinality(), brute_force(&cat, &q));
    }

    #[test]
    fn randomized_against_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Random small databases and random chain queries.
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cat = Catalog::new();
            let mk = |name: &str, keys: Vec<&str>, rng: &mut StdRng| {
                let n = rng.gen_range(3..10);
                let mut cols: Vec<ColumnDef> = keys.iter().map(|k| ColumnDef::key(k)).collect();
                cols.push(ColumnDef::new("v", DataType::Int));
                let schema = TableSchema::new(cols);
                let rows: Vec<Vec<Value>> = (0..n)
                    .map(|_| {
                        let mut row: Vec<Value> = keys
                            .iter()
                            .map(|_| {
                                if rng.gen_bool(0.15) {
                                    Value::Null
                                } else {
                                    Value::Int(rng.gen_range(1..5))
                                }
                            })
                            .collect();
                        row.push(Value::Int(rng.gen_range(0..10)));
                        row
                    })
                    .collect();
                Table::from_rows(name, schema, &rows).unwrap()
            };
            cat.add_table(mk("a", vec!["id"], &mut rng)).unwrap();
            cat.add_table(mk("b", vec!["a_id", "c_id"], &mut rng))
                .unwrap();
            cat.add_table(mk("c", vec!["id"], &mut rng)).unwrap();
            cat.relate("a", "id", "b", "a_id").unwrap();
            cat.relate("b", "c_id", "c", "id").unwrap();
            let q = Query::new(
                &cat,
                vec![
                    TableRef::new("a", "a"),
                    TableRef::new("b", "b"),
                    TableRef::new("c", "c"),
                ],
                &[
                    (("a".into(), "id".into()), ("b".into(), "a_id".into())),
                    (("b".into(), "c_id".into()), ("c".into(), "id".into())),
                ],
                vec![
                    FilterExpr::pred(Predicate::cmp("v", fj_query::CmpOp::Ge, 3)),
                    FilterExpr::True,
                    FilterExpr::pred(Predicate::cmp("v", fj_query::CmpOp::Le, 8)),
                ],
            )
            .unwrap();
            let mut eng = TrueCardEngine::new(&cat, &q);
            assert_eq!(eng.full_cardinality(), brute_force(&cat, &q), "seed {seed}");
        }
    }
}
