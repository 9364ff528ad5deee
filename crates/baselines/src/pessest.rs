//! PessEst: pessimistic bound sketches built at estimation time.
//!
//! Cai et al.'s bound sketch (paper baseline 8): *at estimation time*,
//! materialize each alias's filtered rows, hash-partition every join key
//! into `b` buckets, record per-bucket counts and maximum degrees, and
//! combine with the MFV bound. Because the statistics are exact (computed
//! on the filtered data, not estimated offline), the bound never
//! underestimates — but the filter materialization makes planning latency
//! enormous, exactly the trade-off Tables 3/4 show for PessEst.

use crate::traits::CardEst;
use factorjoin::{keep_for_mask, Factor, JoinScratch};
use fj_query::{filtered_selection, Query, QueryGraph};
use fj_storage::Catalog;
use std::collections::HashMap;

/// Bound-sketch estimator (no offline model: everything is per-query).
pub struct PessEst {
    catalog: Catalog,
    /// Hash buckets per join key.
    buckets: usize,
}

impl PessEst {
    /// Creates a PessEst with `buckets` hash partitions per key.
    pub fn new(catalog: &Catalog, buckets: usize) -> Self {
        PessEst {
            catalog: catalog.clone(),
            buckets: buckets.max(1),
        }
    }

    #[inline]
    fn bucket_of(&self, v: i64) -> usize {
        ((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.buckets
    }
}

impl CardEst for PessEst {
    fn name(&self) -> &'static str {
        "pessest"
    }

    fn estimate(&mut self, query: &Query) -> f64 {
        let n = query.num_tables();
        let graph = QueryGraph::analyze(query);
        // Materialize filtered selections and exact per-bucket statistics —
        // the expensive step that dominates PessEst's planning time.
        let mut factors: Vec<Factor> = Vec::with_capacity(n);
        for i in 0..n {
            let table = self
                .catalog
                .table(&query.tables()[i].table)
                .expect("validated");
            let sel = filtered_selection(table, query.filter(i));
            let mut entries = Vec::new();
            for &var in &graph.alias_vars(i) {
                let cols: Vec<usize> = graph
                    .alias_keys(i)
                    .iter()
                    .filter(|&&(_, v)| v == var)
                    .map(|&(c, _)| c)
                    .collect();
                let mut counts = vec![0f64; self.buckets];
                let mut freq: HashMap<i64, f64> = HashMap::new();
                'row: for &r in &sel {
                    let mut val: Option<i64> = None;
                    for &c in &cols {
                        match table.column(c).key_at(r as usize) {
                            None => continue 'row,
                            Some(v) => match val {
                                None => val = Some(v),
                                Some(p) if p == v => {}
                                Some(_) => continue 'row,
                            },
                        }
                    }
                    let v = val.expect("cols non-empty");
                    counts[self.bucket_of(v)] += 1.0;
                    *freq.entry(v).or_default() += 1.0;
                }
                let mut mfv = vec![0f64; self.buckets];
                for (&v, &c) in &freq {
                    let b = self.bucket_of(v);
                    mfv[b] = mfv[b].max(c);
                }
                entries.push((var, counts, mfv));
            }
            factors.push(Factor::base(sel.len() as f64, entries));
        }
        if n == 1 {
            return factors[0].rows;
        }
        // Fold with the same bound-preserving join FactorJoin uses; the
        // difference is the statistics are exact and filter-conditioned.
        let mut scratch = JoinScratch::default();
        let mut joined = 1u64 << 0;
        let mut acc = std::mem::replace(&mut factors[0], Factor::scalar(0.0));
        while joined.count_ones() < n as u32 {
            let next = (0..n)
                .filter(|&i| joined & (1 << i) == 0)
                .min_by_key(|&i| {
                    let adjacent = graph.neighbor_mask(i) & joined != 0;
                    (!adjacent, factors[i].rows as i64)
                })
                .expect("aliases remain");
            joined |= 1 << next;
            let keep = keep_for_mask(&graph, joined);
            acc = acc.join_with(&factors[next], &keep, &mut scratch);
            if acc.rows == 0.0 {
                return 0.0;
            }
        }
        acc.rows
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
    fn never_underestimates_two_table_joins() {
        let cat = catalog();
        let mut pe = PessEst::new(&cat, 256);
        for sql in [
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id AND p.score > 3;",
            "SELECT COUNT(*) FROM users u, votes v WHERE u.id = v.user_id AND u.reputation > 20;",
        ] {
            let q = parse_query(&cat, sql).unwrap();
            let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
            let bound = pe.estimate(&q);
            assert!(
                bound >= truth * 0.999,
                "{sql}: bound {bound} < truth {truth}"
            );
        }
    }

    #[test]
    fn bound_is_tighter_with_more_buckets() {
        let cat = catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
        )
        .unwrap();
        let loose = PessEst::new(&cat, 4).estimate(&q);
        let tight = PessEst::new(&cat, 1024).estimate(&q);
        assert!(tight <= loose * 1.001, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn filters_are_exactly_conditioned() {
        // Filters materialize exactly, so single-alias cardinalities match.
        let cat = catalog();
        let mut pe = PessEst::new(&cat, 64);
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c \
             WHERE p.id = c.post_id AND p.score >= 10;",
        )
        .unwrap();
        let (single, _) = q.project(0b01);
        let exact = fj_query::filtered_count(cat.table("posts").unwrap(), q.filter(0)) as f64;
        assert_eq!(pe.estimate(&single), exact);
    }

    #[test]
    fn three_way_bound_dominates() {
        let cat = catalog();
        let mut pe = PessEst::new(&cat, 512);
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM users u, posts p, comments c \
             WHERE u.id = p.owner_user_id AND p.id = c.post_id;",
        )
        .unwrap();
        let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
        let bound = pe.estimate(&q);
        assert!(bound >= truth * 0.9, "bound {bound} vs truth {truth}");
    }

    #[test]
    fn no_offline_model() {
        let cat = catalog();
        let pe = PessEst::new(&cat, 64);
        assert_eq!(pe.model_bytes(), 0);
        assert_eq!(pe.train_seconds(), 0.0);
    }
}
