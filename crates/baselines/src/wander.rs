//! WJSample: wander-join random-walk estimator (paper baseline 3).
//!
//! Builds per-join-key hash indexes offline; online it performs random
//! walks along a spanning tree of the query's join graph: pick a uniform
//! row of the first alias, follow the index to a uniform matching row of
//! the next alias, and so on. Each completed walk contributes the product
//! of the fan-outs encountered (Horvitz–Thompson); filters zero out
//! non-qualifying walks; non-tree (cyclic) join conditions are verified as
//! predicates at the end. The walk budget bounds estimation latency — at
//! comparable latency the estimates are noisy, which is how the paper's
//! WJSample row behaves.

use crate::traits::CardEst;
use fj_query::{compile_filter, CompiledFilter, Query, QueryGraph};
use fj_storage::{Catalog, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// Wander-join estimator.
pub struct WanderJoin {
    catalog: Catalog,
    /// (table, column index) → value → row ids.
    indexes: HashMap<(String, usize), HashMap<i64, Vec<u32>>>,
    walks_per_query: usize,
    rng: StdRng,
    train_seconds: f64,
}

impl WanderJoin {
    /// Builds join-key indexes for every declared join key.
    pub fn build(catalog: &Catalog, walks_per_query: usize, seed: u64) -> Self {
        let start = Instant::now();
        let mut indexes = HashMap::new();
        for kr in catalog.join_keys() {
            let table = catalog.table(&kr.table).expect("key exists");
            let ci = table.schema().index_of(&kr.column).expect("key exists");
            let col = table.column(ci);
            let mut idx: HashMap<i64, Vec<u32>> = HashMap::new();
            for r in 0..table.nrows() {
                if let Some(v) = col.key_at(r) {
                    idx.entry(v).or_default().push(r as u32);
                }
            }
            indexes.insert((kr.table.clone(), ci), idx);
        }
        WanderJoin {
            catalog: catalog.clone(),
            indexes,
            walks_per_query,
            rng: StdRng::seed_from_u64(seed),
            train_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Index lookup, building on demand for keys joined ad hoc.
    fn index(&mut self, table: &str, ci: usize) -> &HashMap<i64, Vec<u32>> {
        let key = (table.to_string(), ci);
        if !self.indexes.contains_key(&key) {
            let t = self.catalog.table(table).expect("query validated");
            let col = t.column(ci);
            let mut idx: HashMap<i64, Vec<u32>> = HashMap::new();
            for r in 0..t.nrows() {
                if let Some(v) = col.key_at(r) {
                    idx.entry(v).or_default().push(r as u32);
                }
            }
            self.indexes.insert(key.clone(), idx);
        }
        &self.indexes[&key]
    }
}

impl CardEst for WanderJoin {
    fn name(&self) -> &'static str {
        "wjsample"
    }

    fn estimate(&mut self, query: &Query) -> f64 {
        let n = query.num_tables();
        // Ensure every join-key index exists before borrowing tables
        // (index construction needs &mut self).
        for j in query.joins() {
            for cr in [j.left, j.right] {
                let tname = query.tables()[cr.alias].table.clone();
                self.index(&tname, cr.column);
            }
        }
        let tables: Vec<&Table> = query
            .tables()
            .iter()
            .map(|t| self.catalog.table(&t.table).expect("query validated"))
            .collect();
        let filters: Vec<CompiledFilter> = (0..n)
            .map(|i| compile_filter(tables[i], query.filter(i)))
            .collect();
        if n == 1 {
            // Single table: exact scan is what real systems do.
            return filters[0].count(tables[0]) as f64;
        }

        // Spanning-tree walk order: edges (from_alias, via join predicate).
        let graph = QueryGraph::analyze(query);
        let mut order: Vec<usize> = vec![0];
        let mut tree_edges: Vec<(usize, usize, usize, usize)> = Vec::new(); // (from, fcol, to, tcol)
        let mut extra_edges: Vec<&fj_query::JoinPredicate> = Vec::new();
        let mut in_tree = vec![false; n];
        in_tree[0] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for j in query.joins() {
                let (l, r) = (j.left.alias, j.right.alias);
                if in_tree[l] && !in_tree[r] {
                    tree_edges.push((l, j.left.column, r, j.right.column));
                    in_tree[r] = true;
                    order.push(r);
                    changed = true;
                } else if in_tree[r] && !in_tree[l] {
                    tree_edges.push((r, j.right.column, l, j.left.column));
                    in_tree[l] = true;
                    order.push(l);
                    changed = true;
                }
            }
        }
        for j in query.joins() {
            let covered = tree_edges.iter().any(|&(f, fc, t, tc)| {
                (f == j.left.alias
                    && fc == j.left.column
                    && t == j.right.alias
                    && tc == j.right.column)
                    || (f == j.right.alias
                        && fc == j.right.column
                        && t == j.left.alias
                        && tc == j.left.column)
            });
            if !covered {
                extra_edges.push(j);
            }
        }
        let _ = graph;

        // Pre-fetch index references would fight the borrow checker; look
        // them up per step instead (they're built once).
        let n0 = tables[0].nrows();
        if n0 == 0 {
            return 0.0;
        }
        let mut total = 0f64;
        for _ in 0..self.walks_per_query {
            let r0 = self.rng.gen_range(0..n0);
            if !filters[0].eval(tables[0], r0) {
                continue;
            }
            let mut rows: Vec<Option<usize>> = vec![None; n];
            rows[0] = Some(r0);
            let mut weight = n0 as f64;
            let mut dead = false;
            for &(from, fcol, to, tcol) in &tree_edges {
                let fr = rows[from].expect("walk order satisfies dependencies");
                let Some(v) = tables[from].column(fcol).key_at(fr) else {
                    dead = true;
                    break;
                };
                let tname = &query.tables()[to].table;
                let idx = &self.indexes[&(tname.clone(), tcol)];
                let Some(matches) = idx.get(&v) else {
                    dead = true;
                    break;
                };
                let pick = matches[self.rng.gen_range(0..matches.len())] as usize;
                if !filters[to].eval(tables[to], pick) {
                    dead = true;
                    break;
                }
                rows[to] = Some(pick);
                weight *= matches.len() as f64;
            }
            if dead {
                continue;
            }
            // Cyclic conditions checked as residual predicates.
            let ok = extra_edges.iter().all(|j| {
                let l = tables[j.left.alias]
                    .column(j.left.column)
                    .key_at(rows[j.left.alias].expect("walk complete"));
                let r = tables[j.right.alias]
                    .column(j.right.column)
                    .key_at(rows[j.right.alias].expect("walk complete"));
                matches!((l, r), (Some(a), Some(b)) if a == b)
            });
            if ok {
                total += weight;
            }
        }
        total / self.walks_per_query as f64
    }

    fn train_seconds(&self) -> f64 {
        self.train_seconds
    }

    fn model_bytes(&self) -> usize {
        // Indexes are auxiliary structures, closer to DB indexes than a
        // model; report a nominal size like the paper ("negligible").
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_datagen::{stats_catalog, StatsConfig};
    use fj_exec::TrueCardEngine;
    use fj_query::parse_query;

    fn catalog() -> Catalog {
        stats_catalog(&StatsConfig {
            scale: 0.05,
            ..Default::default()
        })
    }

    #[test]
    fn unfiltered_two_table_walks_converge() {
        let cat = catalog();
        let mut wj = WanderJoin::build(&cat, 20_000, 7);
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
        )
        .unwrap();
        let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
        let est = wj.estimate(&q);
        let qerr = (est.max(1.0) / truth).max(truth / est.max(1.0));
        assert!(qerr < 1.5, "est {est} vs truth {truth}");
    }

    #[test]
    fn small_walk_budget_is_noisy_but_unbiased_ish() {
        let cat = catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM users u, badges b WHERE u.id = b.user_id;",
        )
        .unwrap();
        let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
        // Average several independent small-budget estimates.
        let mut sum = 0.0;
        for seed in 0..10 {
            let mut wj = WanderJoin::build(&cat, 300, seed);
            sum += wj.estimate(&q);
        }
        let avg = sum / 10.0;
        let qerr = (avg.max(1.0) / truth).max(truth / avg.max(1.0));
        assert!(qerr < 2.0, "avg {avg} vs truth {truth}");
    }

    #[test]
    fn selective_filters_yield_many_dead_walks() {
        let cat = catalog();
        let mut wj = WanderJoin::build(&cat, 2000, 3);
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c \
             WHERE p.id = c.post_id AND p.score >= 60;",
        )
        .unwrap();
        let est = wj.estimate(&q);
        let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
        // Highly selective: estimate may be rough (possibly 0), but must
        // not wildly overshoot.
        assert!(est <= truth * 50.0 + 1000.0, "est {est} vs truth {truth}");
    }

    #[test]
    fn cyclic_conditions_checked() {
        let cat = catalog();
        let mut wj = WanderJoin::build(&cat, 5000, 9);
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, postLinks l \
             WHERE p.id = l.post_id AND p.id = l.related_post_id;",
        )
        .unwrap();
        let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
        let est = wj.estimate(&q);
        // The cyclic check must prune: estimate far below the acyclic join.
        let (acyclic, _) = {
            let q2 = parse_query(
                &cat,
                "SELECT COUNT(*) FROM posts p, postLinks l WHERE p.id = l.post_id;",
            )
            .unwrap();
            (TrueCardEngine::new(&cat, &q2).full_cardinality(), 0)
        };
        assert!(est < acyclic, "cyclic est {est} vs acyclic truth {acyclic}");
        assert!(est <= truth * 100.0 + 100.0);
    }

    #[test]
    fn single_table_is_exact() {
        let cat = catalog();
        let mut wj = WanderJoin::build(&cat, 100, 1);
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id AND p.score > 0;",
        )
        .unwrap();
        let (single, _) = q.project(0b01);
        let exact = fj_query::filtered_count(cat.table("posts").unwrap(), q.filter(0)) as f64;
        assert_eq!(wj.estimate(&single), exact);
    }
}
